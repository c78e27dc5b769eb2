"""Gradient-boosted regression trees on logistic loss, built from scratch.

Rows are described by three features: the learner's dense index, the
question's dense index, and the attempt ordinal. Each boosting round fits a
binary regression tree to the current gradients g = p - y and hessians
h = p(1 - p), growing greedily by the second-order split score

    0.5 * (GL^2/(HL + 1) + GR^2/(HR + 1) - G^2/(H + 1))

where the leaf L2 constant is fixed at 1. A split is materialized only when
that score strictly exceeds ``gamma`` and both children's hessian sums reach
``min_child_weight``. Candidate thresholds are midpoints between consecutive
distinct feature values present at the node (exact greedy; the datasets are
small). Equal-score candidates (up to a 1e-9 relative tolerance, which makes
tie-breaking stable under float summation order) resolve to the lowest
feature index, then the lowest threshold.

Prediction is sigmoid(base_score + learning_rate * sum of leaf weights),
with base_score the log-odds of the training mean, read from
``GbtEnsemble.staged_margins`` at the full tree count. The JSON export
(``GbtEnsemble.to_dict``) is write-only: no command reads a model back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset, _logloss, _sigmoid, encode_keys
from .seeds import derive_seed

LEAF_L2 = 1.0        # leaf-weight ridge constant, not exposed as a tunable
GAIN_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class GbtConfig:
    """The seven boosting hyperparameters."""

    n_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 4
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.n_trees >= 0:
            raise ValueError("n_trees must be >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.max_depth >= 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must lie in (0, 1]")
        if not 0.0 < self.colsample_bytree <= 1.0:
            raise ValueError("colsample_bytree must lie in (0, 1]")
        if not self.gamma >= 0:
            raise ValueError("gamma must be non-negative")
        if not self.min_child_weight >= 0:
            raise ValueError("min_child_weight must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children set) or leaf (weight set)."""

    weight: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    gain: float = 0.0
    hess_left: float = 0.0
    hess_right: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf weights for a feature matrix, vectorized by recursive masking."""
        out = np.empty(len(x))
        self._apply_into(x, np.arange(len(x)), out)
        return out

    def _apply_into(self, x, idx, out):
        if self.is_leaf:
            out[idx] = self.weight
            return
        go_left = x[idx, self.feature] < self.threshold
        self.left._apply_into(x, idx[go_left], out)
        self.right._apply_into(x, idx[~go_left], out)

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"leaf": self.weight}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "gain": self.gain,
            "hess_left": self.hess_left,
            "hess_right": self.hess_right,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


def _features(learner, question, attempt) -> np.ndarray:
    """Float feature matrix with columns learner code, question code, attempt.

    An id absent from training has code -1, a value routed like any number.
    """
    return np.column_stack((learner, question, attempt)).astype(float)


@dataclass
class GbtEnsemble:
    """Fitted boosting model: base score plus an ordered list of trees."""

    base_score: float
    trees: list[TreeNode]
    config: GbtConfig
    learner_index: dict[str, int] = field(default_factory=dict)
    question_index: dict[str, int] = field(default_factory=dict)
    train_logloss: tuple[float, ...] = ()

    def staged_margins(self, x: np.ndarray, stages: Sequence[int]) -> list[np.ndarray]:
        """Margins after the first ``n`` trees, for each ``n`` in ``stages``.

        Because tree ``t`` never depends on how many trees follow it, the
        margins after ``n`` trees equal those of an ``n``-tree fit bit for bit.
        """
        wanted = set(stages)
        last = max(wanted, default=0)
        if min(wanted, default=0) < 0 or last > len(self.trees):
            raise ValueError(f"stages must lie in 0..{len(self.trees)}, got {sorted(wanted)}")
        total = np.full(len(x), self.base_score)
        staged = {0: total.copy()} if 0 in wanted else {}
        for t, tree in enumerate(self.trees[:last], start=1):
            total += self.config.learning_rate * tree.apply(x)
            if t in wanted:
                staged[t] = total.copy()
        return [staged[n] for n in stages]

    def feature_matrix(self, keys: Sequence[tuple[str, str, int]]) -> np.ndarray:
        return _features(*encode_keys(keys, self.learner_index, self.question_index))

    def to_dict(self) -> dict:
        return {
            "base_score": self.base_score,
            "config": self.config.to_dict(),
            "trees": [t.to_dict() for t in self.trees],
            "learner_index": self.learner_index,
            "question_index": self.question_index,
        }


def _split_codes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin every feature value on one (feature x bin) grid shared by all nodes.

    ``width`` is the largest feature's count of distinct values. ``values`` is
    features x width: each feature's sorted distinct values, padded with +inf.
    ``codes`` is features x rows: the value of rank ``c`` of feature ``f`` falls
    in bin ``f * width + c`` of the flattened grid, so one bincount per level
    covers every feature and the bin order is feature first, then value.
    """
    uniques, ranks = zip(*(np.unique(column, return_inverse=True) for column in x.T))
    width = max(len(u) for u in uniques)
    values = np.full((len(uniques), width), np.inf)
    for f, u in enumerate(uniques):
        values[f, : len(u)] = u
    codes = np.vstack(ranks) + width * np.arange(len(uniques))[:, None]
    return codes, values


def _grow_tree(rows, gx, hx, codes, values, feature_mask, config) -> tuple[TreeNode, np.ndarray]:
    """Grow one tree level by level; return it and the leaf weight of each row grown on.

    All nodes of a level share one histogram pass of shape (nodes, features,
    width), and every feature is scored at once along the last axis.
    Candidate thresholds are midpoints between consecutive distinct values
    present at the node; a boundary is materialized only when its feature is
    in ``feature_mask``, its score strictly exceeds gamma and both child
    hessian sums reach min_child_weight. Gains within GAIN_TIE_RTOL of a
    node's best count as tied and resolve to the first in bin order: the
    lowest feature index, then the lowest threshold.

    The rows' codes are gathered once per tree into one C-contiguous block,
    and the gradients are tiled once to match it. Rows never move after that:
    a row whose node became a leaf is sent to a spare slot after the level's
    active nodes, and each bincount's spare entries are sliced off. Since
    bincount adds in input order and finished rows land only in the spare
    slot, every live bin sums the same rows in the same order as a pass over
    the live rows alone would.
    """
    n_feat, width = values.shape
    n_bins = n_feat * width
    n = len(rows)
    root = TreeNode()
    nodes = [root]
    c = codes.take(rows, axis=1)
    g_all, h_all = np.tile(gx, n_feat), np.tile(hx, n_feat)
    row = np.arange(n)
    nid = np.zeros(n, dtype=np.int64)
    row_weight = np.empty(n)

    for depth in range(config.max_depth + 1):
        n_active = len(nodes)
        g_tot = np.bincount(nid, weights=gx, minlength=n_active + 1)[:n_active]
        h_tot = np.bincount(nid, weights=hx, minlength=n_active + 1)[:n_active]
        leaf = -g_tot / (h_tot + LEAF_L2)
        if depth == config.max_depth:
            for j, node in enumerate(nodes):
                node.weight = leaf[j]
            live = nid < n_active
            row_weight[live] = leaf[nid[live]]
            break

        flat = (nid * n_bins + c).ravel()
        length = (n_active + 1) * n_bins
        grid = (n_active, n_feat, width)
        hist_g = np.bincount(flat, weights=g_all, minlength=length)[: n_active * n_bins].reshape(grid)
        hist_h = np.bincount(flat, weights=h_all, minlength=length)[: n_active * n_bins].reshape(grid)
        hist_n = np.bincount(flat, minlength=length)[: n_active * n_bins].reshape(grid)

        # padded bins hold zero counts after each feature's last value, so the
        # last cumulative entry is every feature's node total
        gl = np.cumsum(hist_g, axis=2)
        hl = np.cumsum(hist_h, axis=2)
        cum_n = np.cumsum(hist_n, axis=2)
        tot_g, tot_h = gl[:, :, -1:], hl[:, :, -1:]
        gr, hr = tot_g - gl, tot_h - hl
        present = hist_n > 0
        gain = 0.5 * (
            gl * gl / (hl + LEAF_L2)
            + gr * gr / (hr + LEAF_L2)
            - tot_g * tot_g / (tot_h + LEAF_L2)
        )
        ok = (
            present
            & feature_mask[:, None]
            & (cum_n < cum_n[:, :, -1:])
            & (gain > config.gamma)
            & (hl >= config.min_child_weight)
            & (hr >= config.min_child_weight)
        )
        gains = np.where(ok, gain, -np.inf).reshape(n_active, n_bins)

        best = gains.max(axis=1)
        splittable = np.isfinite(best)
        cutoff = best - GAIN_TIE_RTOL * np.maximum(1.0, np.abs(best))
        pick = np.argmax(gains >= cutoff[:, None], axis=1)
        at = (np.arange(n_active), pick)
        # a split leaves rows right of it in its feature (cum_n < total), so the
        # first present bin after the pick holds that feature's next value
        upper = np.argmax(present.reshape(n_active, n_bins) & (np.arange(n_bins) > pick[:, None]), axis=1)
        thresholds = (values.ravel()[pick] + values.ravel()[upper]) / 2.0
        best_gain = gains[at]
        hl_pick = hl.reshape(n_active, n_bins)[at]
        hr_pick = hr.reshape(n_active, n_bins)[at]

        next_nodes: list[TreeNode] = []
        for j, node in enumerate(nodes):
            if not splittable[j]:
                node.weight = leaf[j]
                continue
            node.feature = int(pick[j] // width)
            node.threshold = float(thresholds[j])
            node.gain = float(best_gain[j])
            node.hess_left = float(hl_pick[j])
            node.hess_right = float(hr_pick[j])
            node.left = TreeNode()
            node.right = TreeNode()
            next_nodes.extend((node.left, node.right))

        finished = np.append(~splittable, False)[nid]
        row_weight[finished] = leaf[nid[finished]]
        if not next_nodes:
            break
        # the spare slot never splits: its rows and those of this level's
        # leaves go to the next spare slot, sent left by a bin past every code
        splits = np.append(splittable, False)
        sel_bin = np.where(splits, np.append(pick, 0), n_bins - 1)[nid]
        go_right = c.ravel()[sel_bin // width * n + row] > sel_bin
        # node j's children follow those of the split nodes before it
        child = np.where(splits, 2 * (np.cumsum(splits) - 1), len(next_nodes))
        nid = child[nid] + go_right
        nodes = next_nodes
    return root, row_weight


def gbt_fit(train: Dataset, config: GbtConfig = GbtConfig(), seed: int = 0) -> GbtEnsemble:
    """Boost ``config.n_trees`` rounds of second-order trees on the labeled rows.

    Row subsampling (without replacement) and column subsampling are redrawn
    per tree from a seed derived as (seed, tree index); with both ratios at 1
    the fit is deterministic and reproducible bit for bit.
    """
    labeled = train.obs >= 0
    if labeled.sum() < 2:
        raise ValueError("gbt_fit requires at least 2 labeled rows")
    y = train.obs[labeled].astype(float)
    x = _features(train.learner[labeled], train.question[labeled], train.attempt[labeled])
    codes, values = _split_codes(x)

    mean = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
    base_score = float(np.log(mean / (1.0 - mean)))
    margins = np.full(len(y), base_score)
    loss_trace = [_logloss(margins, y)]

    n = len(y)
    trees: list[TreeNode] = []
    for t in range(config.n_trees):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)

        rows = np.arange(n)
        feature_mask = np.ones(3, dtype=bool)
        if config.subsample < 1.0 or config.colsample_bytree < 1.0:
            rng = np.random.default_rng(derive_seed(seed, "tree", t))
            if config.subsample < 1.0:
                size = max(1, int(round(config.subsample * n)))
                rows = np.sort(rng.choice(n, size=size, replace=False))
            if config.colsample_bytree < 1.0:
                n_feats = max(1, int(round(config.colsample_bytree * 3)))
                feature_mask[:] = False
                feature_mask[rng.choice(3, size=n_feats, replace=False)] = True

        tree, row_weight = _grow_tree(rows, g[rows], h[rows], codes, values, feature_mask, config)
        trees.append(tree)
        # a tree grown on every row already knows each row's leaf
        margins += config.learning_rate * (row_weight if len(rows) == n else tree.apply(x))
        loss_trace.append(_logloss(margins, y))

    return GbtEnsemble(
        base_score=base_score,
        trees=trees,
        config=config,
        learner_index=dict(train.learner_index),
        question_index=dict(train.question_index),
        train_logloss=tuple(loss_trace),
    )


def gbt_predict(model: GbtEnsemble, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
    """Probabilities for (learner, question, attempt) keys; unseen ids become -1."""
    return _sigmoid(model.staged_margins(model.feature_matrix(rows), [len(model.trees)])[0])


class GbtModel:
    """Predictor wrapper around gbt_fit/gbt_predict."""

    def __init__(self, config: GbtConfig = GbtConfig(), seed: int = 0):
        self.config = config
        self.seed = seed
        self.model: GbtEnsemble | None = None

    def fit(self, train: Dataset) -> "GbtModel":
        self.model = gbt_fit(train, self.config, seed=self.seed)
        return self

    def predict(self, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("predict called before fit")
        return gbt_predict(self.model, rows)

    def predict_staged(self, rows: Sequence[tuple[str, str, int]], stages: Sequence[int]) -> list[np.ndarray]:
        """Probabilities from the first ``n`` trees for each ``n`` in ``stages``.

        Each array equals ``predict`` of a model fitted with ``n_trees=n``.
        """
        if self.model is None:
            raise RuntimeError("predict called before fit")
        x = self.model.feature_matrix(rows)
        return [_sigmoid(m) for m in self.model.staged_margins(x, stages)]

    def export_json(self) -> dict:
        if self.model is None:
            raise RuntimeError("export before fit")
        return self.model.to_dict()
