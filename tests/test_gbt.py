from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lppred.data import Dataset, _sigmoid
from lppred.gbt import (
    GbtConfig,
    GbtEnsemble,
    GbtModel,
    TreeNode,
    _grow_tree,
    _split_codes,
    gbt_eval_lockstep,
    gbt_fit,
    gbt_predict,
)
from lppred.seeds import derive_seed
from lppred.simulate import SimSpec, simulate_bkt

from conftest import make_records, random_dataset


def brute_force_stump(x, y, margins, gamma=0.0, mcw=1.0, lam=1.0, tie_rtol=1e-9, features=None):
    """Oracle: exhaustive scan of every (feature, midpoint threshold) split.

    Scores with the second-order gain formula using plain subset sums; ties
    within tie_rtol of the best resolve to lowest feature then threshold.
    Only ``features`` (default: all) are scanned.
    """
    p = 1.0 / (1.0 + np.exp(-margins))
    g = p - y
    h = p * (1.0 - p)
    candidates = []
    for f in range(x.shape[1]) if features is None else features:
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            left = x[:, f] < threshold
            gl, hl = g[left].sum(), h[left].sum()
            gr, hr = g[~left].sum(), h[~left].sum()
            gain = 0.5 * (
                gl * gl / (hl + lam) + gr * gr / (hr + lam) - (gl + gr) ** 2 / (hl + hr + lam)
            )
            if gain > gamma and hl >= mcw and hr >= mcw:
                candidates.append((f, threshold, gain))
    if not candidates:
        return None
    best = max(c[2] for c in candidates)
    cutoff = best - tie_rtol * max(1.0, abs(best))
    for f, threshold, gain in candidates:
        if gain >= cutoff:
            return f, threshold
    return None


def leaf_depths(node, depth=0):
    """The depth of every leaf under ``node``, left to right."""
    if node.is_leaf:
        return [depth]
    return leaf_depths(node.left, depth + 1) + leaf_depths(node.right, depth + 1)


def reaches_its_threshold(node, x):
    """Whether some row of ``x`` reaches a split whose threshold equals the row's value."""
    if node.is_leaf or not len(x):
        return False
    column = x[:, node.feature]
    left = column < node.threshold
    return (
        bool((column == node.threshold).any())
        or reaches_its_threshold(node.left, x[left])
        or reaches_its_threshold(node.right, x[~left])
    )


def crafted_six_rows():
    rows = [
        ("L1", "Q1", 1, 1),
        ("L1", "Q1", 2, 1),
        ("L2", "Q1", 1, 0),
        ("L2", "Q1", 2, 0),
        ("L3", "Q2", 1, 1),
        ("L3", "Q2", 2, 0),
    ]
    return Dataset.from_records(make_records(rows))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GbtConfig(n_trees=-1)
        with pytest.raises(ValueError):
            GbtConfig(subsample=0.0)
        with pytest.raises(ValueError):
            GbtConfig(colsample_bytree=1.5)
        with pytest.raises(ValueError):
            GbtConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            GbtConfig(max_depth=0)
        for name in ("learning_rate", "gamma", "min_child_weight", "subsample", "colsample_bytree"):
            with pytest.raises(ValueError, match=name):
                GbtConfig(**{name: float("nan")})

    def test_seven_tunables(self):
        assert len(GbtConfig().to_dict()) == 7


class TestFit:
    def test_zero_trees_predicts_training_mean(self, rng):
        ds = random_dataset(rng, n_rows=30)
        model = gbt_fit(ds, GbtConfig(n_trees=0), seed=0)
        preds = gbt_predict(model, ds.keys())
        mean = np.mean(ds.obs)
        assert np.allclose(preds, mean, atol=1e-12)

    def test_stump_matches_oracle_on_crafted_rows(self):
        ds = crafted_six_rows()
        config = GbtConfig(n_trees=1, max_depth=1, learning_rate=1.0, min_child_weight=0.0)
        model = gbt_fit(ds, config, seed=0)
        x = model.feature_matrix(ds.keys())
        y = ds.obs_array()
        expected = brute_force_stump(x, y, np.full(len(y), model.base_score), mcw=0.0)
        root = model.trees[0]
        assert expected is not None and not root.is_leaf
        assert (root.feature, root.threshold) == pytest.approx(expected)

    def test_stump_matches_oracle_on_random_datasets(self):
        """Every non-empty sampled feature subset, on features of unequal widths.

        A split on an unsampled feature, or on a bin past a feature's last
        value, disagrees with the oracle.
        """
        subsets = [s for r in (1, 2, 3) for s in combinations(range(3), r)]
        config = GbtConfig(n_trees=1, max_depth=1, learning_rate=1.0, min_child_weight=0.0)
        agreements = 0
        for trial in range(20):
            rng = np.random.default_rng(7000 + trial)
            n = int(rng.integers(6, 13))
            ds = random_dataset(rng, n_learners=5, n_questions=4, max_attempt=4, n_rows=n)
            model = gbt_fit(ds, config, seed=0)
            x = model.feature_matrix(ds.keys())
            y = ds.obs_array()
            margins = np.full(n, model.base_score)
            p = _sigmoid(margins)
            codes, values = _split_codes(x.T)
            for features in subsets:
                expected = brute_force_stump(x, y, margins, mcw=0.0, features=features)
                mask = np.isin(np.arange(3), features)
                (root,), _ = _grow_tree(np.arange(n), p - y, p * (1.0 - p), codes, values, mask[None],
                                        config, x.T.copy(), np.zeros(n, dtype=np.int64), True)
                if len(features) == 3:
                    assert root.to_dict() == model.trees[0].to_dict()
                got = None if root.is_leaf else (root.feature, root.threshold)
                if expected is None:
                    agreements += got is None
                else:
                    agreements += (got is not None and got[0] == expected[0]
                                   and got[1] == pytest.approx(expected[1]))
        assert agreements == 20 * len(subsets)

    def test_training_logloss_non_increasing(self, rng):
        res = simulate_bkt(SimSpec(30, 5, 5, seed=1))
        config = GbtConfig(n_trees=100, learning_rate=0.1, gamma=0.0, subsample=1.0, colsample_bytree=1.0)
        model = gbt_fit(res.dataset, config, seed=0)
        diffs = np.diff(np.array(model.train_logloss))
        assert np.all(diffs <= 1e-12)

    def test_split_audit_gain_and_child_hessians(self):
        res = simulate_bkt(SimSpec(25, 4, 5, seed=2))
        config = GbtConfig(n_trees=40, max_depth=5, gamma=0.3, min_child_weight=2.0)
        model = gbt_fit(res.dataset, config, seed=0)
        splits = []

        def walk(node, depth):
            assert depth <= config.max_depth
            if node.is_leaf:
                return
            splits.append(node)
            assert node.gain > config.gamma
            assert node.hess_left >= config.min_child_weight
            assert node.hess_right >= config.min_child_weight
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

        for tree in model.trees:
            walk(tree, 0)
        assert splits, "expected at least one materialized split"

    def test_every_threshold_is_the_midpoint_of_its_node_rows(self):
        """At each internal node the threshold is exactly (largest left + smallest right) / 2.

        With ``subsample`` 1 every tree sees every row, so the rows that reach
        a node follow from the feature matrix and the thresholds above it.
        """
        res = simulate_bkt(SimSpec(30, 6, 6, seed=8))
        config = GbtConfig(n_trees=60, max_depth=6, colsample_bytree=0.67, subsample=1.0)
        model = gbt_fit(res.dataset, config, seed=2)
        x = model.feature_matrix(res.dataset.keys())
        internal = 0

        def walk(node, idx):
            nonlocal internal
            if node.is_leaf:
                return
            internal += 1
            column = x[idx, node.feature]
            left = column < node.threshold
            assert left.any() and not left.all()
            assert node.threshold == (column[left].max() + column[~left].min()) / 2.0
            walk(node.left, idx[left])
            walk(node.right, idx[~left])

        for tree in model.trees:
            walk(tree, np.arange(len(x)))
        assert internal > 60 * 4

    def test_grown_row_weights_are_the_tree_applied_to_its_rows(self):
        """The per-row leaf weights ``_grow_tree`` returns equal ``apply`` bit for bit.

        Random data sets, margins and configs, with row and column subsampling.
        Rows whose node stops splitting while other nodes grow on wait in a
        spare slot; the examples must include such trees. The routed rows
        are every row of the data set, grown or left out by the subsample,
        then rows on a half-step grid, so some fall between a node's values
        and some sit on a threshold; their weights must equal ``apply`` too,
        and be the same whether or not nodes are built.
        """
        early, on_split = [], []

        @settings(max_examples=80, deadline=None, database=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            n_rows=st.integers(2, 90),
            max_depth=st.integers(1, 6),
            gamma=st.floats(0.0, 2.0),
            min_child_weight=st.floats(0.0, 5.0),
            subsample=st.floats(0.3, 1.0),
            n_feats=st.integers(1, 3),
        )
        @example(seed=3, n_rows=80, max_depth=4, gamma=0.0, min_child_weight=1.0, subsample=0.8,
                 n_feats=3)  # leaves at depths 1 to 4
        def check(seed, n_rows, max_depth, gamma, min_child_weight, subsample, n_feats):
            rng = np.random.default_rng(seed)
            ds = random_dataset(rng, n_learners=6, n_questions=4, max_attempt=4, n_rows=n_rows)
            x = gbt_fit(ds, GbtConfig(n_trees=0)).feature_matrix(ds.keys())
            p = _sigmoid(rng.normal(size=n_rows))
            g, h = p - ds.obs_array(), p * (1.0 - p)
            rows = np.sort(rng.choice(n_rows, size=max(1, round(subsample * n_rows)), replace=False))
            mask = np.isin(np.arange(3), rng.choice(3, size=n_feats, replace=False))
            config = GbtConfig(max_depth=max_depth, gamma=gamma, min_child_weight=min_child_weight)
            codes, values = _split_codes(x.T)
            grid = rng.integers(-3, 2 * x.max(axis=0) + 3, size=(20, 3)) / 2.0
            routed = np.vstack((x, grid))
            routed_ens = np.zeros(len(routed), dtype=np.int64)
            (root,), weight = _grow_tree(rows, g[rows], h[rows], codes, values, mask[None],
                                         config, routed.T.copy(), routed_ens, True)
            assert weight.tobytes() == root.apply(routed).tobytes()
            roots, unkept = _grow_tree(rows, g[rows], h[rows], codes, values, mask[None],
                                       config, routed.T.copy(), routed_ens, False)
            assert roots == [] and unkept.tobytes() == weight.tobytes()

            depths = leaf_depths(root)
            early.append(min(depths) < max(depths))
            on_split.append(reaches_its_threshold(root, routed))

        check()
        assert any(early) and any(on_split)

    def test_split_child_hessians_are_those_of_the_rows_sent_each_way(self):
        """Each split's ``hess_left`` and ``hess_right`` sum ``h`` over the grown rows ``x < threshold`` sends each way.

        Random data sets, margins, subsamples and feature masks, depths 1 to
        6. The child sums come from the node's histogram, while the rows go
        down by the comparison ``TreeNode.apply`` makes; a threshold that is
        not strictly between the two values it separates sends one bin's
        rows the wrong way, and the sums disagree. The examples must include
        a split below a root.
        """
        depths = []

        @settings(max_examples=60, deadline=None, database=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            n_rows=st.integers(2, 90),
            max_depth=st.integers(1, 6),
            min_child_weight=st.floats(0.0, 2.0),
            subsample=st.floats(0.3, 1.0),
            n_feats=st.integers(1, 3),
        )
        @example(seed=3, n_rows=80, max_depth=4, min_child_weight=0.0, subsample=0.8, n_feats=3)
        def check(seed, n_rows, max_depth, min_child_weight, subsample, n_feats):
            rng = np.random.default_rng(seed)
            ds = random_dataset(rng, n_learners=6, n_questions=4, max_attempt=4, n_rows=n_rows)
            x = gbt_fit(ds, GbtConfig(n_trees=0)).feature_matrix(ds.keys())
            p = _sigmoid(rng.normal(size=n_rows))
            g, h = p - ds.obs_array(), p * (1.0 - p)
            rows = np.sort(rng.choice(n_rows, size=max(1, round(subsample * n_rows)), replace=False))
            mask = np.isin(np.arange(3), rng.choice(3, size=n_feats, replace=False))
            config = GbtConfig(max_depth=max_depth, min_child_weight=min_child_weight)
            codes, values = _split_codes(x.T)
            (root,), _ = _grow_tree(rows, g[rows], h[rows], codes, values, mask[None],
                                    config, x.T.copy(), np.zeros(n_rows, dtype=np.int64), True)

            def walk(node, idx, depth):
                if node.is_leaf:
                    return
                depths.append(depth)
                left = x[idx, node.feature] < node.threshold
                assert node.hess_left == pytest.approx(h[idx[left]].sum(), rel=1e-12)
                assert node.hess_right == pytest.approx(h[idx[~left]].sum(), rel=1e-12)
                walk(node.left, idx[left], depth + 1)
                walk(node.right, idx[~left], depth + 1)

            walk(root, rows, 0)

        check()
        assert max(depths) > 0

    def test_tiny_learning_rate_stays_at_base(self, rng):
        ds = random_dataset(rng, n_rows=40)
        model = gbt_fit(ds, GbtConfig(n_trees=20, learning_rate=1e-6), seed=0)
        preds = gbt_predict(model, ds.keys())
        base = 1.0 / (1.0 + np.exp(-model.base_score))
        assert np.abs(preds - base).max() < 1e-4

    def test_bit_reproducible_full_sampling(self, rng):
        ds = random_dataset(rng, n_rows=50)
        config = GbtConfig(n_trees=30, max_depth=3)
        a = gbt_fit(ds, config, seed=9)
        b = gbt_fit(ds, config, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_sampling_reproducible_given_seed(self, rng):
        ds = random_dataset(rng, n_rows=60)
        config = GbtConfig(n_trees=25, subsample=0.7, colsample_bytree=0.8)
        a = gbt_fit(ds, config, seed=4)
        b = gbt_fit(ds, config, seed=4)
        c = gbt_fit(ds, config, seed=5)
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() != c.to_dict()

    def test_needs_two_rows(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1)]))
        with pytest.raises(ValueError):
            gbt_fit(ds, GbtConfig())


class TestLockstep:
    def test_each_ensemble_equals_its_standalone_fit(self):
        """``gbt_eval_lockstep`` gives each ensemble the staged margins of its standalone fit.

        One config, drawn over every field (depths 1 to 6, gammas and
        min_child_weights that stop nodes early, row and column
        subsampling), boosts 2 to 4 (train, seed) pairs whose training rows
        differ, and so do their bin-grid widths. Each ensemble's staged
        margins of its evaluation keys must equal ``staged_margins`` of
        ``gbt_fit`` on its (train, seed) bit for bit. The examples must
        include trees whose leaves sit at different depths, subsampled
        ensembles, unseen ids (code -1) and keys whose value sits on a
        threshold between two of a node's training values.
        """
        seen = dict.fromkeys(("early leaf", "subsample", "unseen id", "on a threshold"), False)
        configs = st.builds(
            GbtConfig,
            n_trees=st.integers(0, 8),
            learning_rate=st.sampled_from([0.1, 0.3, 1.0]),
            max_depth=st.integers(1, 6),
            subsample=st.sampled_from([0.5, 0.8, 1.0]),
            colsample_bytree=st.sampled_from([0.34, 0.67, 1.0]),
            gamma=st.sampled_from([0.0, 0.05, 0.5]),
            min_child_weight=st.sampled_from([0.0, 1.0, 3.0]),
        )

        @settings(max_examples=40, deadline=None, database=None)
        @given(data_seed=st.integers(0, 2**32 - 1), config=configs,
               seeds=st.lists(st.integers(0, 2**31), min_size=2, max_size=4))
        @example(data_seed=1, seeds=[3, 4, 5], config=GbtConfig(
            n_trees=6, max_depth=6, subsample=0.8, colsample_bytree=0.67, min_child_weight=1.0))
        def check(data_seed, config, seeds):
            rng = np.random.default_rng(data_seed)
            trains = []
            for _ in seeds:
                train = random_dataset(rng, n_learners=int(rng.integers(4, 10)), n_questions=4, max_attempt=4,
                                       n_rows=int(rng.integers(2, 60)))
                # without its second attempts, an attempt-2 key sits on a 1|3 threshold
                kept = np.flatnonzero(train.attempt != 2).tolist()
                trains.append(train.subset(kept) if len(kept) >= 2 and rng.random() < 0.5 else train)
            evals = [
                [(f"L{rng.integers(12) + 1}", f"Q{rng.integers(5) + 1}", int(rng.integers(0, 7)))
                 for _ in range(int(rng.integers(0, 30)))]
                for _ in seeds
            ]
            stages = sorted(set(rng.integers(0, config.n_trees + 1, size=3).tolist()))
            eval_margins = gbt_eval_lockstep(trains, config, seeds, evals, stages)
            assert len(eval_margins) == len(seeds)
            for train, seed, eval_keys, margins in zip(trains, seeds, evals, eval_margins):
                alone = gbt_fit(train, config, seed=seed)
                x = alone.feature_matrix(eval_keys)
                assert [m.tobytes() for m in margins] == [m.tobytes() for m in alone.staged_margins(x, stages)]
                seen["early leaf"] |= any(min(d) < max(d) for d in map(leaf_depths, alone.trees))
                seen["subsample"] |= config.subsample < 1.0 and config.n_trees > 0
                seen["unseen id"] |= bool((x[:, :2] == -1).any())
                seen["on a threshold"] |= any(reaches_its_threshold(tree, x) for tree in alone.trees)

        check()
        assert all(seen.values()), seen

    def test_reference_boosting_loop_grows_the_same_trees(self):
        """A tree-by-tree reference loop, sharing no line of ``_boost``, grows ``gbt_fit``'s trees.

        Each reference tree is one direct ``_grow_tree`` call on the sample
        and feature mask drawn from the tree's seed, with gradients from
        ``staged_margins`` of the reference trees so far, that is from
        ``TreeNode.apply``. A wrong training margin in ``_boost`` shifts the
        gradients of every later tree, so the trees differ.
        """
        ds = simulate_bkt(SimSpec(30, 6, 6, seed=5)).dataset
        config = GbtConfig(n_trees=12, max_depth=4, subsample=0.7, colsample_bytree=0.67, min_child_weight=0.5)
        seed = 3
        model = gbt_fit(ds, config, seed=seed)

        x, y = model.feature_matrix(ds.keys()), ds.obs_array()
        n = len(y)
        reference = GbtEnsemble(base_score=float(np.log(y.mean() / (1.0 - y.mean()))), trees=[], config=config)
        assert reference.base_score == model.base_score
        codes, values = _split_codes(x.T)
        for t in range(config.n_trees):
            (margins,) = reference.staged_margins(x, [t])
            p = _sigmoid(margins)
            g, h = p - y, p * (1.0 - p)
            rng = np.random.default_rng(derive_seed(seed, "tree", t))
            rows = np.sort(rng.choice(n, size=round(0.7 * n), replace=False))
            mask = np.isin(np.arange(3), rng.choice(3, size=2, replace=False))
            (root,), _ = _grow_tree(rows, g[rows], h[rows], codes, values, mask[None],
                                    config, x.T.copy(), np.zeros(n, dtype=np.int64), True)
            reference.trees.append(root)
        assert sum(not tree.is_leaf for tree in reference.trees) == config.n_trees
        assert [tree.to_dict() for tree in reference.trees] == [tree.to_dict() for tree in model.trees]

    def test_stages_outside_an_ensemble_are_rejected(self, rng):
        ds = random_dataset(rng, n_rows=20)
        with pytest.raises(ValueError, match="stages must lie in 0..3"):
            gbt_eval_lockstep([ds], GbtConfig(n_trees=3), [0], [ds.keys()], [0, 4])


class TestPredict:
    def test_empty_ensemble_gives_half(self):
        model = GbtEnsemble(base_score=0.0, trees=[], config=GbtConfig(n_trees=0))
        assert np.allclose(gbt_predict(model, [("L1", "Q1", 1)] * 4), 0.5)

    def test_single_stump_hand_value(self):
        stump = TreeNode(
            feature=2, threshold=2.5, gain=1.0,
            left=TreeNode(weight=-0.4), right=TreeNode(weight=0.4),
        )
        model = GbtEnsemble(
            base_score=0.0,
            trees=[stump],
            config=GbtConfig(n_trees=1, learning_rate=1.0),
            learner_index={"L1": 0},
            question_index={"Q1": 0},
        )
        pred = gbt_predict(model, [("L1", "Q1", 1)])[0]
        assert pred == pytest.approx(0.4013, abs=1e-4)

    def test_duplicated_row_duplicated_prediction(self, rng):
        ds = random_dataset(rng, n_rows=40)
        model = gbt_fit(ds, GbtConfig(n_trees=10), seed=0)
        key, other = ds.keys([0, 1])
        preds = gbt_predict(model, [key, key, other])
        assert preds[0] == preds[1]

    def test_feature_matrix_codes_unseen_ids_as_minus_one(self, rng):
        ds = random_dataset(rng, n_rows=30)
        model = gbt_fit(ds, GbtConfig(n_trees=2), seed=0)
        keys = ds.keys() + [("GHOST", "Q1", 2), ("L1", "PHANTOM", 9)]
        expected = [
            [model.learner_index.get(lid, -1.0), model.question_index.get(qid, -1.0), attempt]
            for lid, qid, attempt in keys
        ]
        assert np.array_equal(model.feature_matrix(keys), np.array(expected, dtype=float))

    def test_unseen_ids_routed_numerically(self, rng):
        ds = random_dataset(rng, n_rows=40)
        model = gbt_fit(ds, GbtConfig(n_trees=10), seed=0)
        preds = gbt_predict(model, [("GHOST", "Q1", 1), ("GHOST", "PHANTOM", 99)])
        assert np.all((preds > 0) & (preds < 1))


class TestCv:
    def test_works_in_harness(self, rng):
        from lppred.metrics import cross_validate

        res = simulate_bkt(SimSpec(20, 4, 4, seed=8))
        report = cross_validate(
            lambda s: GbtModel(GbtConfig(n_trees=30), seed=s), res.dataset, k=5, seed=0,
            model_name="gbt",
        )
        assert len(report.fold_rmse) == 5
        assert all(0 <= v <= 1 for v in report.fold_rmse)
