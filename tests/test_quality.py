"""Model quality: each local model against the training-fold mean and against the truth.

Every model runs at its library defaults through ``cross_validate(..., k=5,
seed=0)`` on three simulations, all seed 1:

- ``lesson``: the lesson-shaped set, 66x8x9 bkt-process with stop-on-correct;
- ``no-stop-on-correct``: the same shape without stop-on-correct;
- ``low-rank-matrix``: 66x8x1 with ``factor_scale`` 3.

``const`` is the training-fold mean on the same folds. The oracle predicts
from the truth that ``simulate`` returns, scored on the folds of
``make_folds(ds, 5, 0)``: the true BKT parameters filtered forward over each
(learner, question) sequence, or the true low-rank probabilities.

Under stop-on-correct every earlier answer in a sequence is wrong, so the
oracle barely beats const on the lesson set. There a model is judged by its
mean paired fold excess over const, and it is defective if that is above 0.
On the other two sets it is judged by the share of the const-to-oracle gap
that it closes, and it is defective if that share is below 0.

Each current defect is a strict xfail in ``KNOWN_DEFECTS``: a fix must delete
its entry, and any new loss fails. The mock ``llm`` is a fixed heuristic,
not a fitted model, so its scores are printed and not judged. The module
runs in 5-6 s on a 2-CPU x86 box, where acceptance criterion 10 (relative
ordering) takes 8-9 s, so it is not marked slow.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from lppred.bkt import BktModel, BktParams, sequence_predictions
from lppred.data import make_folds
from lppred.gbt import GbtModel
from lppred.llm import LlmPredictor, MockHeuristicClient
from lppred.metrics import cross_validate, rmse
from lppred.pfa import PfaModel
from lppred.simulate import SimSpec, simulate
from lppred.sparfa import SparfaModel
from lppred.tensor import TensorFactorizationModel

K, FOLD_SEED = 5, 0

DATASETS = {
    "lesson": SimSpec(66, 8, 9, seed=1, stop_on_correct=True),
    "no-stop-on-correct": SimSpec(66, 8, 9, seed=1),
    "low-rank-matrix": SimSpec(66, 8, 1, generator="low-rank-matrix", seed=1, factor_scale=3.0),
}

MODELS = {
    "bkt": lambda seed: BktModel(seed=seed),
    "bkt-ind": lambda seed: BktModel(seed=seed, individualized=True),
    "pfa": lambda seed: PfaModel(seed=seed),
    "sparfa": lambda seed: SparfaModel(seed=seed),
    "tensor": lambda seed: TensorFactorizationModel(seed=seed),
    "gbt": lambda seed: GbtModel(seed=seed),
}

# (data, model) -> the loss, mean fold RMSE against const, and its suspected cause (ROADMAP item 1)
KNOWN_DEFECTS = {
    ("lesson", "bkt"): "0.4986 vs 0.4933: overfits a history that carries no signal",
    ("lesson", "bkt-ind"): "0.5122 vs 0.4933: learner offsets with no prior",
    ("lesson", "pfa"): "0.5118 vs 0.4933: l2 scales the summed NLL, so ability is almost unpenalized",
    ("lesson", "sparfa"): "0.4990 vs 0.4933: overfits a history that carries no signal",
    ("lesson", "tensor"): "0.5727 vs 0.4933: no bias terms, and a ridge not scaled to the loss",
    ("lesson", "gbt"): "0.5117 vs 0.4933: the default 100 trees at depth 4 overfit about 950 rows",
    ("no-stop-on-correct", "sparfa"): "0.5181 vs 0.4701: fits first attempts only, then predicts every "
                                      "attempt from them",
    ("low-rank-matrix", "pfa"): "0.5101 vs 0.5013: not yet diagnosed",
    ("low-rank-matrix", "gbt"): "0.5113 vs 0.5013: not yet diagnosed; item 3 covers how it splits the id codes",
}


class MeanConstant:
    """The training-fold mean, predicted for every row."""

    def fit(self, train):
        self.value = float(np.mean(train.obs[train.obs >= 0]))
        return self

    def predict(self, rows):
        return np.full(len(rows), self.value)


@functools.cache
def _simulated(data: str):
    return simulate(DATASETS[data])


def _oracle_predictions(data: str) -> np.ndarray:
    """P(correct) of each row under the truth that generated it."""
    ds, truth = _simulated(data).dataset, _simulated(data).truth
    preds = np.empty(ds.n_records)
    if "probs" in truth:  # the matrix: ids L<i+1> and Q<j+1> index the true probabilities
        for i, (lid, qid, _) in enumerate(ds.keys()):
            preds[i] = truth["probs"][int(lid[1:]) - 1, int(qid[1:]) - 1]
        return preds
    # bkt-process: the true parameters filtered forward over each (learner, question) sequence
    params = BktParams(**truth["params"])
    order = np.lexsort((ds.attempt, ds.question, ds.learner))
    pairs = np.stack([ds.learner[order], ds.question[order]], axis=1)
    starts = np.flatnonzero(np.r_[True, (np.diff(pairs, axis=0) != 0).any(axis=1)])
    for sequence in np.split(order, starts[1:]):
        preds[sequence] = sequence_predictions(ds.obs[sequence].tolist(), params)
    return preds


@functools.cache
def _fold_rmse(data: str, name: str) -> np.ndarray:
    """Fold RMSEs of ``name`` on ``data``, all on the folds of ``make_folds(ds, K, FOLD_SEED)``."""
    ds = _simulated(data).dataset
    if name == "oracle":
        split, preds = make_folds(ds, K, FOLD_SEED), _oracle_predictions(data)
        folds = (split.fold_positions(f) for f in range(K))
        return np.array([rmse(preds[pos], ds.obs_array(pos)) for pos in folds])
    factory = {"const": lambda seed: MeanConstant(), "llm": lambda seed: LlmPredictor(MockHeuristicClient()),
               **MODELS}[name]
    return np.array(cross_validate(factory, ds, k=K, seed=FOLD_SEED).fold_rmse)


def _cases():
    for data in DATASETS:
        for model in MODELS:
            reason = KNOWN_DEFECTS.get((data, model))
            marks = [pytest.mark.xfail(reason=reason, strict=True)] if reason else []
            yield pytest.param(data, model, marks=marks, id=f"{data}-{model}")


@pytest.mark.parametrize("data, model", _cases())
def test_model_does_not_lose_to_the_training_fold_mean(data, model):
    const, oracle, fitted = (_fold_rmse(data, name) for name in ("const", "oracle", model))
    if data == "lesson":
        excess = fitted - const
        se = excess.std(ddof=1) / np.sqrt(K)
        assert excess.mean() <= 0, (
            f"{model} on {data}: mean paired fold excess over const {excess.mean():+.4f} "
            f"(SE {se:.4f}); mean RMSE {fitted.mean():.4f} vs const {const.mean():.4f}"
        )
    else:
        gap = const.mean() - oracle.mean()
        assert gap > 0, f"{data}: the oracle ({oracle.mean():.4f}) does not beat const ({const.mean():.4f})"
        share = (const.mean() - fitted.mean()) / gap
        assert share >= 0, (
            f"{model} on {data}: closes {share:+.1%} of the const-to-oracle gap; mean RMSE "
            f"{fitted.mean():.4f} vs const {const.mean():.4f} and oracle {oracle.mean():.4f}"
        )


def test_print_the_quality_table():
    """The whole table, the mock llm included, shown with ``-s``; only the oracle is checked."""
    names = ("const", "oracle", *MODELS, "llm")
    lines = ["data | " + " | ".join(names)]
    for data in DATASETS:
        means = {name: _fold_rmse(data, name).mean() for name in names}
        lines.append(f"{data} | " + " | ".join(f"{means[name]:.4f}" for name in names))
        # the truth is the best forecaster in expectation; on the lesson set it only ties const
        assert means["oracle"] <= means["const"] + 0.001, data
    print("\n" + "\n".join(lines))
