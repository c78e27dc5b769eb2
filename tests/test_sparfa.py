import warnings

import numpy as np
import pytest

from lppred import sparfa
from lppred.data import Dataset, _sigmoid
from lppred.simulate import SimSpec, simulate_lowrank
from lppred.sparfa import (
    FACTOR_L2,
    LowRankModel,
    SparfaModel,
    _first_attempt_cells,
    _fit_intercept_only,
    _newton_directions,
    sparfa_fit,
    sparfa_predict,
)

from conftest import CV_SHAPES, cv_fitted_models, make_records


def all_ones_dataset():
    rows = [(f"L{i}", f"Q{j}", 1, 1) for i in range(6) for j in range(4)]
    return Dataset.from_records(make_records(rows))


def intercept_baseline(train, test_records):
    """Independent intercept-only predictor used as the comparison oracle."""
    rows, cols, vals = _first_attempt_cells(train)
    mu = _fit_intercept_only(rows, cols, vals, len(train.question_index))
    out = []
    for rec in test_records:
        qi = train.question_index.get(rec.question_id)
        out.append(float(_sigmoid(mu[qi])) if qi is not None else float(vals.mean()))
    return np.array(out)


def per_row_reference(model, rows):
    out = []
    for lid, qid, _ in rows:
        qi, li = model.question_index.get(qid), model.learner_index.get(lid)
        if qi is None:
            out.append(model.global_mean)
        elif li is None:
            out.append(float(_sigmoid(model.intercepts[qi])))
        else:
            z = model.learner_factors[li] @ model.question_factors[:, qi] + model.intercepts[qi]
            out.append(float(_sigmoid(z)))
    return np.array(out)


class TestPredict:
    def test_batch_matches_per_row_reference(self):
        res = simulate_lowrank(
            SimSpec(20, 6, 1, generator="low-rank-matrix", rank=2, seed=3, factor_scale=2.0)
        )
        model = sparfa_fit(res.dataset, rank_candidates=(2, 3), seed=0)
        rows = [r.key() for r in res.dataset.records] + [("LX", "Q1", 1), ("L1", "QX", 1)]
        assert np.array_equal(sparfa_predict(model, rows), per_row_reference(model, rows))

    def make_model(self, w, c, mu, learners, questions):
        return LowRankModel(
            learner_factors=np.asarray(w, float),
            question_factors=np.asarray(c, float),
            intercepts=np.asarray(mu, float),
            rank=np.asarray(w).shape[1],
            learner_index={l: i for i, l in enumerate(learners)},
            question_index={q: i for i, q in enumerate(questions)},
            global_mean=0.7,
        )

    def test_zero_factors_give_half(self):
        m = self.make_model([[0.0]], [[0.0]], [0.0], ["L1"], ["Q1"])
        assert sparfa_predict(m, [("L1", "Q1", 1)])[0] == pytest.approx(0.5)

    def test_hand_sigmoid(self):
        # w.c = 1.2, intercept -0.2 -> sigmoid(1.0)
        m = self.make_model([[1.2]], [[1.0]], [-0.2], ["L1"], ["Q1"])
        assert sparfa_predict(m, [("L1", "Q1", 1)])[0] == pytest.approx(0.7311, abs=1e-4)

    def test_unseen_learner_uses_intercept(self):
        m = self.make_model([[1.2]], [[1.0]], [0.8], ["L1"], ["Q1"])
        assert sparfa_predict(m, [("LX", "Q1", 1)])[0] == pytest.approx(0.6900, abs=1e-4)

    def test_unseen_question_uses_global_mean(self):
        m = self.make_model([[1.2]], [[1.0]], [0.8], ["L1"], ["Q1"])
        assert sparfa_predict(m, [("L1", "QX", 1)])[0] == pytest.approx(0.7)


class TestFit:
    def test_all_constant_matrix_returns_intercept_only(self):
        model = sparfa_fit(all_ones_dataset(), rank_candidates=(1, 2))
        assert model.rank == 0
        for q in model.question_index:
            assert sparfa_predict(model, [("L0", q, 1)])[0] > 0.5

    def test_rotation_invariance(self):
        res = simulate_lowrank(
            SimSpec(20, 8, 1, generator="low-rank-matrix", rank=2, seed=3, factor_scale=2.0)
        )
        model = sparfa_fit(res.dataset, rank_candidates=(2,), seed=0)
        assert model.rank == 2
        theta = 0.73
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        keys = [(lid, qid, 1) for lid in model.learner_index for qid in model.question_index]
        before = sparfa_predict(model, keys)
        rotated = LowRankModel(
            learner_factors=model.learner_factors @ rot,
            question_factors=rot.T @ model.question_factors,
            intercepts=model.intercepts,
            rank=2,
            learner_index=model.learner_index,
            question_index=model.question_index,
        )
        assert np.abs(sparfa_predict(rotated, keys) - before).max() < 1e-10

    def test_objective_trace_non_increasing(self):
        res = simulate_lowrank(
            SimSpec(15, 6, 1, generator="low-rank-matrix", rank=2, seed=5, factor_scale=1.5)
        )
        model = sparfa_fit(res.dataset, rank_candidates=(2,), seed=1)
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) <= 0)

    def test_selected_rank_beats_rank0_on_internal_split(self):
        res = simulate_lowrank(
            SimSpec(30, 8, 1, generator="low-rank-matrix", rank=2, seed=7, factor_scale=2.0)
        )
        model = sparfa_fit(res.dataset, rank_candidates=(1, 2, 4), seed=2)
        scores = model.rank_val_logloss
        assert scores[model.rank] <= scores[0]

    def test_requires_two_learners_and_questions(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1), ("L1", "Q2", 1, 0)]))
        with pytest.raises(ValueError):
            sparfa_fit(ds)

    def test_rank_exceeding_dims_rejected(self):
        res = simulate_lowrank(SimSpec(5, 3, 1, generator="low-rank-matrix", rank=1, seed=0))
        with pytest.raises(ValueError):
            sparfa_fit(res.dataset, rank_candidates=(4,))

    def test_first_attempt_collapse(self):
        rows = [("L1", "Q1", 1, 0), ("L1", "Q1", 2, 1), ("L2", "Q1", 1, 1), ("L2", "Q2", 1, 0)]
        ds = Dataset.from_records(make_records(rows))
        r, c, v = _first_attempt_cells(ds)
        cells = {(ri, ci): vi for ri, ci, vi in zip(r, c, v)}
        assert cells[(0, 0)] == 0.0  # first attempt's outcome, not the later one
        assert len(cells) == 3

    def test_attempts_share_pair_probability(self):
        res = simulate_lowrank(
            SimSpec(12, 5, 1, generator="low-rank-matrix", rank=1, seed=11, factor_scale=1.0)
        )
        model = SparfaModel(rank_candidates=(1,), seed=0).fit(res.dataset)
        p1, p2 = model.predict([("L3", "Q2", 1), ("L3", "Q2", 4)])
        assert p1 == p2

    def test_export_uses_wire_keys(self):
        model = sparfa_fit(all_ones_dataset(), rank_candidates=(1,))
        payload = model.to_dict()
        assert set(payload) >= {"W", "C", "mu", "r"}


class TestNewton:
    def test_batched_block_step_equals_per_group_solves(self):
        rng = np.random.default_rng(0)
        n_l, n_q, rank = 7, 5, 2
        # the last learner and the last question have no cells
        pairs = [(l, q) for l in range(n_l - 1) for q in range(n_q - 1) if rng.random() < 0.7]
        rows, cols = np.array(pairs).T
        vals = rng.integers(0, 2, len(rows)).astype(float)
        w, c = rng.normal(size=(n_l, rank)), rng.normal(size=(rank, n_q))
        mu = rng.normal(size=n_q)
        p = _sigmoid(np.sum(w[rows] * c[:, cols].T, axis=1) + mu[cols])
        resid, weight = (p - vals) / len(vals), p * (1 - p) / len(vals)

        def reference(groups, group, x, ridge, coef):
            mine = groups == group
            grad = x[mine].T @ resid[mine] + ridge * coef
            hess = (x[mine].T * weight[mine]) @ x[mine] + np.diag(ridge)
            return np.linalg.solve(hess, grad)

        got = _newton_directions(rows, n_l, c[:, cols].T, resid, weight, np.full(rank, FACTOR_L2), w)
        for l in range(n_l):
            expected = reference(rows, l, c[:, cols].T, np.full(rank, FACTOR_L2), w[l])
            assert np.allclose(got[l], expected, rtol=1e-12, atol=1e-14)

        # per question: factors and an unpenalized intercept
        ridge = np.append(np.full(rank, FACTOR_L2), 0.0)
        coef = np.column_stack([c.T, mu])
        x = np.column_stack([w[rows], np.ones(len(rows))])
        got = _newton_directions(cols, n_q, x, resid, weight, ridge, coef)
        for q in range(n_q - 1):
            assert np.allclose(got[q], reference(cols, q, x, ridge, coef[q]), rtol=1e-12, atol=1e-14)
        # without cells the factors shrink straight to zero and the intercept stays
        assert np.allclose(got[-1], np.append(c[:, -1], 0.0), rtol=1e-12, atol=0)

    @CV_SHAPES
    def test_every_cv_fold_converges(self, shape, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            models = cv_fitted_models(lambda fold_seed: SparfaModel(seed=fold_seed), shape, seed)
        assert [m.model.converged for m in models] == [True] * 5

    def test_exhausted_budget_warns_and_is_reported(self, monkeypatch):
        monkeypatch.setattr(sparfa, "MAX_ITER", 1)
        res = simulate_lowrank(
            SimSpec(20, 6, 1, generator="low-rank-matrix", rank=2, seed=3, factor_scale=2.0)
        )
        with pytest.warns(UserWarning, match="MAX_ITER"):
            model = sparfa_fit(res.dataset, rank_candidates=(2,), seed=0)
        assert not model.converged


class TestRecovery:
    def test_held_out_beats_intercept_baseline(self):
        wins = 0
        for trial in range(5):
            res = simulate_lowrank(
                SimSpec(
                    40, 10, 1,
                    generator="low-rank-matrix", rank=2, seed=500 + trial,
                    mask_fraction=0.3, factor_scale=2.0,
                )
            )
            ds = res.dataset
            train = ds.subset(ds.labeled_positions())
            test = [ds.records[i] for i in ds.unlabeled_positions()]
            truth_obs = res.truth["obs"]
            actual = np.array(
                [truth_obs[f"{r.learner_id}|{r.question_id}|{r.attempt}"] for r in test], float
            )
            model = sparfa_fit(train, rank_candidates=(1, 2, 4), seed=trial)
            pred = sparfa_predict(model, [r.key() for r in test])
            base = intercept_baseline(train, test)
            if np.sqrt(np.mean((pred - actual) ** 2)) < np.sqrt(np.mean((base - actual) ** 2)):
                wins += 1
        assert wins >= 4
