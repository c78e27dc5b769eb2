from typing import NamedTuple

import numpy as np
import pytest

from lppred import llm, sparfa
from lppred.data import Dataset
from lppred.metrics import cross_validate
from lppred.pfa import PfaModel
from lppred.simulate import SimSpec, simulate


def make_records(rows):
    """rows: iterable of (learner, question, attempt, obs-or-None); a list of 4-tuples."""
    return [(l, q, a, o) for l, q, a, o in rows]


def rows_of(ds):
    """The rows of ``ds`` as (learner, question, attempt, obs-or-None), from ``keys()`` and ``obs``."""
    return [(*key, None if obs < 0 else obs) for key, obs in zip(ds.keys(), ds.obs.tolist())]


def random_dataset(rng, n_learners=6, n_questions=4, max_attempt=3, n_rows=40, labeled=True):
    """Random dataset with unique keys; attempts contiguous from 1 per pair."""
    capacity = n_learners * n_questions * max_attempt
    if n_rows > capacity:
        raise ValueError(f"cannot draw {n_rows} unique rows from capacity {capacity}")
    counts = {}
    records = []
    while len(records) < n_rows:
        lid = f"L{rng.integers(n_learners) + 1}"
        qid = f"Q{rng.integers(n_questions) + 1}"
        attempt = counts.get((lid, qid), 0) + 1
        if attempt > max_attempt:
            continue
        counts[(lid, qid)] = attempt
        obs = int(rng.integers(2)) if labeled else None
        records.append((lid, qid, attempt, obs))
    return Dataset.from_records(records)


class PfaRefitClient:
    """A chat client that refits PFA from the request text: a known right answer for the whole round trip.

    It reads every record sentence of the messages with ``llm._RECORD_SENTENCE``,
    fits ``PfaModel()`` on the history sentences and replies with one record per
    target sentence in ``PREDICTION_FORMAT``, each id quoted by ``llm._quote``.
    It keeps the number of requests in ``calls``.
    """

    def __init__(self):
        self.calls = 0

    def send(self, messages):
        self.calls += 1
        history, targets = [], []
        for message in messages:
            for m in llm._RECORD_SENTENCE.finditer(message["content"]):
                lid, qid, attempt, obs = m.group(1), m.group(2), int(m.group(3)), m.group(4)
                if obs is None:
                    targets.append((lid, qid, attempt))
                else:
                    history.append((lid, qid, attempt, int(obs)))
        preds = PfaModel().fit(Dataset.from_records(history)).predict(targets)
        # float(p): a numpy float64 would print as np.float64(...), which no record reads
        return "\n".join(
            f"{{'learner ID': {llm._quote(lid)}, 'Question ID': {llm._quote(qid)}, 'Attempt': {attempt}, "
            f"'Prediction': {float(p)!r}, 'Assessment': ''}}"
            for (lid, qid, attempt), p in zip(targets, preds)
        )


def cv_fitted_models(factory, shape, seed):
    """The models ``cv --k 5 --seed 0`` fits on a stop-on-correct BKT simulation of ``shape``."""
    ds = simulate(SimSpec(*shape, generator="bkt-process", seed=seed, stop_on_correct=True)).dataset
    models = []

    def keep(fold_seed):
        models.append(factory(fold_seed))
        return models[-1]

    cross_validate(keep, ds, k=5, seed=0)
    return models


# the lesson shape (learners x questions x attempts) and a bulk-log-sized log
CV_SHAPES = pytest.mark.parametrize(
    "shape, seed", [((66, 8, 9), 3), ((600, 30, 9), 1)], ids=["lesson", "bulk-log"]
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class RankFit(NamedTuple):
    seed: int
    rank: int
    objective: float  # the last entry of the fit's objective trace
    converged: bool


@pytest.fixture
def rank_fits(monkeypatch):
    """Every SPARFA rank fit made while the test runs, in order, as ``RankFit`` tuples."""
    fits = []
    fit_rank = sparfa._fit_rank

    def recording(rows, cols, vals, n_l, n_q, rank, seed):
        result = fit_rank(rows, cols, vals, n_l, n_q, rank, seed)
        fits.append(RankFit(seed, rank, result[3][-1], result[4]))
        return result

    monkeypatch.setattr(sparfa, "_fit_rank", recording)
    return fits
