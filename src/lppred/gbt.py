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

``gbt_eval_lockstep`` boosts the k fold ensembles of one config at once,
keeping no trees: round t grows tree t of every ensemble in one
``_grow_tree`` call, whose node ids span the ensembles, so numpy's per-call
cost is paid once per round instead of once per ensemble. Each ensemble's
evaluation rows are routed through every tree as it grows, as XGBoost
scores its ``evals`` sets, and their margins come back at the requested
tree counts, the same floats ``staged_margins`` gives from kept trees. The
ensembles share one value grid and one margin vector; a value absent from an
ensemble's rows is never a split there. Every bin sums the same rows in the
same order as a fit of its ensemble alone, so each result equals that
ensemble's ``gbt_fit`` bit for bit; ``gbt_fit`` is the one-ensemble case of
the same loop, ``_boost``. The grid sweep scores the held-out rows of a
configuration group's k folds this way, so it builds no ``TreeNode``. Every
row a tree touches, each training row and then each evaluation row, goes
down by ``TreeNode.apply``'s one step, and the rows a tree grows on read
their node ids from it. ``train_logloss`` is computed from the trees when
read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset, _logloss, _sigmoid, encode_keys
from .metrics import LocalModel
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


@dataclass(slots=True)
class TreeNode:
    """Internal node (feature/threshold/children set) or leaf (weight set).

    Slots keep a node small. Nodes are built only for fitted models; the
    grid sweep scores its rows while boosting and builds none.
    """

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
        """Leaf weights for a feature matrix, walking all rows down one level at a time.

        The nodes are numbered breadth first into flat arrays. Each level
        takes one gather of each row's feature value and one comparison; a
        row goes right unless its value is less than the threshold. A leaf's
        threshold is NaN, which no value is less than, and its right child
        is itself, so a row that reached a leaf stays there.
        """
        nodes, feature, threshold, right, depth = [self], [], [], [], [0]
        for j, node in enumerate(nodes):
            if node.left is None:
                feature.append(0)
                threshold.append(np.nan)
                right.append(j)
            else:
                nodes += (node.left, node.right)
                depth += (depth[j] + 1,) * 2
                feature.append(node.feature)
                threshold.append(node.threshold)
                right.append(len(nodes) - 1)
        n = len(x)
        column_start, threshold, right = np.array(feature) * n, np.array(threshold), np.array(right)
        by_column = np.ravel(x, order="F")
        rows = np.arange(n)
        nid = np.zeros(n, dtype=np.int64)
        for _ in range(depth[-1]):
            nid = right.take(nid) - (by_column.take(column_start.take(nid) + rows) < threshold.take(nid))
        return np.array([node.weight for node in nodes]).take(nid)

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
    train: Dataset | None = field(default=None, repr=False, compare=False)

    @property
    def train_logloss(self) -> tuple[float, ...]:
        """Mean log loss on the labeled training rows after 0, 1, ..., all trees.

        Computed when read, from the trees: ``staged_margins`` forms the same
        margins as boosting did, so each value is the loss boosting saw.
        Empty for an ensemble built without its training data.
        """
        if self.train is None:
            return ()
        x, y = _labeled_rows(self.train)
        return tuple(_logloss(m, y) for m in self.staged_margins(x, range(len(self.trees) + 1)))

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
    """Bin the feature values of the rows ``x`` (features x rows) on one grid.

    ``width`` is the largest count of distinct values of any feature.
    ``values`` is features x width: each feature's sorted distinct values,
    padded with +inf. ``codes`` is features x rows: the value of rank ``c``
    of feature ``f`` falls in bin ``f * width + c`` of the flattened grid, so
    one bincount per level covers every feature and the bin order is
    feature first, then value. Padding bins hold no rows, and neither does
    the bin of a value absent from some ensemble's rows in that ensemble.
    """
    uniques, ranks = zip(*(np.unique(column, return_inverse=True) for column in x))
    width = max(map(len, uniques))
    values = np.full((len(x), width), np.inf)
    for f, u in enumerate(uniques):
        values[f, : len(u)] = u
    codes = np.vstack(ranks) + width * np.arange(len(x))[:, None]
    return codes, values


def _grow_tree(
    rows, gx, hx, codes, values, feature_mask, config, routed, routed_ens, keep_nodes
) -> tuple[list[TreeNode], np.ndarray]:
    """Grow one tree per ensemble under ``config``, level by level; return their roots and the leaf weight of each routed row.

    ``routed`` holds every row the trees touch, by feature value (features x
    rows): the columns of ``codes`` in order, then any rows that are only
    scored; ``routed_ens`` gives the ensemble of each. The trees grow on the
    columns ``rows``, each ensemble's after those of the one before, with
    gradients ``gx`` and hessians ``hx``, on the one grid ``values``.
    Ensemble ``e`` splits on the features in ``feature_mask[e]``; all share
    ``config``'s max_depth, gamma and min_child_weight. Only with
    ``keep_nodes`` are ``TreeNode``s built; otherwise the list of roots is
    empty.

    One node-id array holds every routed row, and each level sends them all
    down by the step ``TreeNode.apply`` takes: right unless the value is
    less than the threshold. A threshold, the midpoint of the two values it
    separates, lies strictly between them while feature values are integers
    below 2**52, as learner codes, question codes and attempts are. So each
    grown row goes the way its bin code says, and every row reaches the leaf
    that ``apply`` gives it.

    Node ids span the ensembles: the roots are nodes 0..E-1, and each
    level's nodes follow in ensemble order. All nodes of a level share one
    histogram pass of shape (nodes, features, width), and every feature is
    scored at once along the last axis. Candidate thresholds are midpoints
    between consecutive distinct values present at the node; a boundary is
    materialized only when its feature is in the node's mask, its score
    strictly exceeds gamma and both child hessian sums reach
    min_child_weight. Gains within GAIN_TIE_RTOL of a node's best count as
    tied and resolve to the first in bin order: the lowest feature index,
    then the lowest threshold.

    The grown rows' codes are gathered once per call into one C-contiguous
    block, and the gradients are tiled once to match it. Each level reads
    the grown rows' node ids from the one array: a view of its head when the
    trees grow on every column of ``codes``, one gather otherwise. A row
    whose node became a leaf is sent to a spare slot after the level's
    active nodes, and each bincount's spare entries are sliced off. Since
    bincount adds in input order and finished rows land only in the spare
    slot, every live bin sums the same rows in the same order as a pass over
    one ensemble's live rows alone would. Node totals, which only leaves
    read, are summed only at levels where some node stops.
    """
    n_feat, width = values.shape
    n_bins = n_feat * width
    n, m = len(rows), routed.shape[1]
    every_column = n == codes.shape[1]  # rows covering every column are all of them, in order
    roots = [TreeNode() for _ in feature_mask] if keep_nodes else []
    nodes = list(roots)
    ens = np.arange(len(feature_mask))  # each node's ensemble
    # each ensemble's gamma per feature, +inf where the feature is masked out (no gain exceeds it)
    gammas = np.where(feature_mask, config.gamma, np.inf)
    flat_values = values.reshape(-1)
    c = codes if every_column else codes.take(rows, axis=1)
    g_all, h_all = np.concatenate((gx,) * n_feat), np.concatenate((hx,) * n_feat)
    by_column, routed_row = routed.ravel(), np.arange(m)
    nid = routed_ens  # a root's node id is its ensemble's
    weight = np.empty(m)

    for depth in range(config.max_depth + 1):
        grown = nid[:n] if every_column else nid.take(rows)
        n_active = len(ens)
        stops = np.ones(n_active, dtype=bool)
        if depth < config.max_depth:
            flat = (grown * n_bins + c).ravel()
            length = (n_active + 1) * n_bins
            grid = (n_active, n_feat, width)
            hist_g = np.bincount(flat, weights=g_all, minlength=length)[: n_active * n_bins].reshape(grid)
            hist_h = np.bincount(flat, weights=h_all, minlength=length)[: n_active * n_bins].reshape(grid)
            hist_n = np.bincount(flat, minlength=length)[: n_active * n_bins].reshape(grid)

            # padded bins hold zero counts after each feature's last value, so the
            # last cumulative entry is every feature's node total
            gl = hist_g.cumsum(axis=2)
            hl = hist_h.cumsum(axis=2)
            cum_n = hist_n.cumsum(axis=2)
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
                & (cum_n < cum_n[:, :, -1:])
                & (gain > gammas[ens][:, :, None])
                & (np.minimum(hl, hr) >= config.min_child_weight)
            )
            gains = np.where(ok, gain, -np.inf).reshape(n_active, n_bins)

            best = np.maximum.reduce(gains, axis=1)
            stops = best == -np.inf
            cutoff = best - GAIN_TIE_RTOL * np.maximum(1.0, np.abs(best))
            pick = (gains >= cutoff[:, None]).argmax(axis=1)
            at = np.arange(0, n_active * n_bins, n_bins) + pick
            # a split leaves rows right of it in its feature (cum_n < total), so the
            # first present bin after the pick holds that feature's next value
            upper = (present.reshape(n_active, n_bins) & (np.arange(n_bins) > pick[:, None])).argmax(axis=1)
            thresholds = (flat_values.take(pick) + flat_values.take(upper)) / 2.0
            best_gain, hl_pick, hr_pick = (a.reshape(-1).take(at) for a in (gains, hl, hr))
        stop_list = stops.tolist()

        if any(stop_list):
            g_tot = np.bincount(grown, weights=gx, minlength=n_active + 1)[:n_active]
            h_tot = np.bincount(grown, weights=hx, minlength=n_active + 1)[:n_active]
            leaf = -g_tot / (h_tot + LEAF_L2)
            stopped = np.concatenate((stops, [False]))
            finished = stopped[nid]
            weight[finished] = leaf[nid[finished]]
            if keep_nodes:
                for node, stop, leaf_weight in zip(nodes, stop_list, leaf.tolist()):
                    if stop:
                        node.weight = leaf_weight
            if all(stop_list):
                break

        if keep_nodes:
            next_nodes: list[TreeNode] = []
            for node, stop, feature, threshold, node_gain, hess_left, hess_right in zip(
                nodes, stop_list, (pick // width).tolist(), thresholds.tolist(),
                best_gain.tolist(), hl_pick.tolist(), hr_pick.tolist(),
            ):
                if stop:
                    continue
                node.feature, node.threshold, node.gain = feature, threshold, node_gain
                node.hess_left, node.hess_right = hess_left, hess_right
                node.left, node.right = TreeNode(), TreeNode()
                next_nodes += (node.left, node.right)
            nodes = next_nodes
        # node j's children follow those of the split nodes before it. The spare
        # slot never splits: the +inf threshold of it and of this level's leaves
        # sends their rows left, to the next spare slot
        keep = ~stops
        spare = 2 * stop_list.count(False)
        right = np.concatenate((np.where(keep, 2 * keep.cumsum() - 1, spare + 1), [spare + 1]))
        column = np.concatenate((np.where(keep, pick // width * m, 0), [0]))
        threshold = np.concatenate((np.where(keep, thresholds, np.inf), [np.inf]))
        nid = right.take(nid) - (by_column.take(column.take(nid) + routed_row) < threshold.take(nid))
        ens = ens[keep].repeat(2)
    return roots, weight


def _labeled_rows(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and 0/1 outcomes of a data set's labeled rows."""
    labeled = train.obs >= 0
    x = _features(train.learner[labeled], train.question[labeled], train.attempt[labeled])
    return x, train.obs[labeled].astype(float)


def _boost(trains, config, seeds, evals, stages, keep_trees):
    """The boosting loop of every fit: ``gbt_fit`` and ``gbt_eval_lockstep``.

    Boosts one ensemble per (train, seed), all under ``config``. In round
    ``t`` one ``_grow_tree`` call grows tree ``t`` of every ensemble. Each
    ensemble keeps its own labeled rows, seed and feature masks; all share
    one grid of the values in their training rows. The bin of a value absent
    from an ensemble's rows holds none of them: it is never a split there and
    adds +0.0 to each cumulative sum, so every bin sums the same rows in the
    same order as a fit of that ensemble alone would.

    Every tree routes the same rows, gathered once: every training row, then
    every ensemble's rows of ``evals[e]`` (keys, coded with its id maps). A
    routed row reaches the leaf ``TreeNode.apply`` gives it, so each margin
    adds the same leaf weight in tree order as ``GbtEnsemble.staged_margins``
    gives from the kept trees. One margin vector spans the routed rows, and
    each round updates it in one vector step. Returns each ensemble's base
    score, its trees (empty lists unless ``keep_trees``) and the margins of
    its evaluation rows after the first ``n`` trees for each ``n`` in
    ``stages``.
    """
    xs, ys = zip(*map(_labeled_rows, trains))
    if min(map(len, ys)) < 2:
        raise ValueError("gbt_fit requires at least 2 labeled rows")
    if min(stages, default=0) < 0 or max(stages, default=0) > config.n_trees:
        raise ValueError(f"stages must lie in 0..{config.n_trees}, got {sorted(stages)}")
    sizes = [len(labels) for labels in ys]
    starts = np.cumsum([0] + sizes)
    y = np.concatenate(ys)
    all_rows = np.arange(len(y))
    subsampled = config.subsample < 1.0
    sample_sizes = [max(1, int(round(config.subsample * n))) for n in sizes]
    n_feats = max(1, int(round(config.colsample_bytree * 3)))

    base_scores = []
    for labels in ys:
        mean = min(max(float(labels.mean()), 1e-6), 1.0 - 1e-6)
        base_scores.append(float(np.log(mean / (1.0 - mean))))

    eval_xs = [_features(*encode_keys(keys, train.learner_index, train.question_index))
               for keys, train in zip(evals, trains)]
    eval_sizes = [len(x) for x in eval_xs]
    # every row a tree routes, by feature value, and its ensemble: the training
    # rows, then the evaluation rows
    ensembles = np.arange(len(trains))
    routed = np.hstack([x.T for x in (*xs, *eval_xs)])
    routed_ens = np.concatenate((ensembles.repeat(sizes), ensembles.repeat(eval_sizes)))
    n_train = len(y)
    codes, values = _split_codes(routed[:, :n_train])
    margins = np.take(base_scores, routed_ens)
    wanted = set(stages)
    staged = {0: margins[n_train:].copy()} if 0 in wanted else {}

    rounds: list[list[TreeNode]] = []
    for t in range(config.n_trees):
        p = _sigmoid(margins[:n_train])
        g = p - y
        h = p * (1.0 - p)

        rows = all_rows
        feature_mask = np.ones((len(ensembles), 3), dtype=bool)
        if subsampled or config.colsample_bytree < 1.0:
            samples = []
            for e, (seed, n) in enumerate(zip(seeds, sizes)):
                rng = np.random.default_rng(derive_seed(seed, "tree", t))
                sample = np.arange(n)
                if subsampled:
                    sample = np.sort(rng.choice(n, size=sample_sizes[e], replace=False))
                if config.colsample_bytree < 1.0:
                    feature_mask[e] = False
                    feature_mask[e, rng.choice(3, size=n_feats, replace=False)] = True
                samples.append(sample + starts[e])
            rows = np.concatenate(samples)
        roots, weight = _grow_tree(
            rows, g[rows], h[rows], codes, values, feature_mask, config, routed, routed_ens, keep_trees
        )
        margins += config.learning_rate * weight
        if t + 1 in wanted:
            staged[t + 1] = margins[n_train:].copy()
        if keep_trees:
            rounds.append(roots)

    trees = [list(ensemble) for ensemble in zip(*rounds)] if rounds else [[] for _ in trains]
    eval_starts = np.cumsum([0] + eval_sizes)
    return base_scores, trees, [[staged[n][a:b] for n in stages] for a, b in zip(eval_starts, eval_starts[1:])]


def gbt_eval_lockstep(
    trains: Sequence[Dataset],
    config: GbtConfig,
    seeds: Sequence[int],
    evals: Sequence[Sequence[tuple[str, str, int]]],
    stages: Sequence[int],
) -> list[list[np.ndarray]]:
    """Staged margins of evaluation keys, one ensemble per (train, seed) under ``config``, keeping no trees.

    For each ensemble ``e``, the margins of the keys ``evals[e]`` after the
    first ``n`` trees, for each ``n`` in ``stages``: bit for bit what
    ``gbt_fit(trains[e], config, seeds[e])`` gives from ``staged_margins``
    of those keys' feature matrix. The k ensembles grow in lockstep, one
    ``_grow_tree`` call per round, and the keys are scored while the trees
    grow, so no ``TreeNode`` is built and none is applied.
    """
    return _boost(trains, config, seeds, evals, stages, keep_trees=False)[2]


def gbt_fit(train: Dataset, config: GbtConfig = GbtConfig(), seed: int = 0) -> GbtEnsemble:
    """Boost ``config.n_trees`` rounds of second-order trees on the labeled rows.

    Row subsampling (without replacement) and column subsampling are redrawn
    per tree from a seed derived as (seed, tree index); with both ratios at 1
    the fit is deterministic and reproducible bit for bit.
    """
    (base_score,), (trees,), _ = _boost([train], config, [seed], [()], (), keep_trees=True)
    return GbtEnsemble(
        base_score=base_score,
        trees=trees,
        config=config,
        learner_index=dict(train.learner_index),
        question_index=dict(train.question_index),
        train=train,
    )


def gbt_predict(model: GbtEnsemble, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
    """Probabilities for (learner, question, attempt) keys; unseen ids become -1."""
    return _sigmoid(model.staged_margins(model.feature_matrix(rows), [len(model.trees)])[0])


class GbtModel(LocalModel):
    """Predictor wrapper around gbt_fit/gbt_predict."""

    def __init__(self, config: GbtConfig = GbtConfig(), seed: int = 0):
        self.config = config
        self.seed = seed

    def fit(self, train: Dataset) -> "GbtModel":
        self.model = gbt_fit(train, self.config, seed=self.seed)
        return self

    def predict(self, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
        return gbt_predict(self.fitted(), rows)
