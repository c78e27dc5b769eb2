import warnings

import numpy as np
import pytest

from lppred import sparfa
from lppred.data import Dataset, _sigmoid
from lppred.metrics import cross_validate
from lppred.simulate import SimSpec, simulate, simulate_lowrank
from lppred.sparfa import (
    FACTOR_L2,
    LowRankModel,
    SparfaModel,
    _damped_direction,
    _first_attempt_cells,
    _fit_intercept_only,
    _newton_system,
    sparfa_fit,
    sparfa_predict,
)

from conftest import CV_SHAPES, cv_fitted_models, make_records


def all_ones_dataset():
    rows = [(f"L{i}", f"Q{j}", 1, 1) for i in range(6) for j in range(4)]
    return Dataset.from_records(make_records(rows))


def intercept_baseline(train, test_keys):
    """Independent intercept-only predictor used as the comparison oracle."""
    _, cols, vals = _first_attempt_cells(train)
    mu = _fit_intercept_only(cols, vals, len(train.question_index))
    out = []
    for _, qid, _ in test_keys:
        qi = train.question_index.get(qid)
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
        rows = res.dataset.keys() + [("LX", "Q1", 1), ("L1", "QX", 1)]
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


def newton_problem(seed=0, n_l=7, n_q=5, rank=2):
    """A small random problem; the last learner and the last question have no cells."""
    rng = np.random.default_rng(seed)
    pairs = [(l, q) for l in range(n_l - 1) for q in range(n_q - 1) if rng.random() < 0.7]
    rows, cols = np.array(pairs).T
    vals = rng.integers(0, 2, len(rows)).astype(float)
    w, c, mu = rng.normal(size=(n_l, rank)), rng.normal(size=(rank, n_q)), rng.normal(size=n_q)
    return rows * n_q + cols, rows, cols, vals, w, c, mu


def objective_at(theta, rows, cols, vals, n_l, rank):
    w, coef = theta[: n_l * rank].reshape(n_l, rank), theta[n_l * rank :].reshape(rank + 1, -1)
    z = np.sum(w[rows] * coef[:rank, cols].T, axis=1) + coef[rank, cols]
    nll = np.mean(np.logaddexp(0.0, z) - vals * z)
    return nll + 0.5 * FACTOR_L2 * (np.sum(w * w) + np.sum(coef[:rank] ** 2))


def dense_hessian(blocks, cross, system):
    """Assemble the full Hessian from the learner blocks, the cross block and the question system."""
    n_l, rank, m = cross.shape
    top = np.zeros((n_l * rank, n_l * rank))
    for l in range(n_l):
        top[l * rank : (l + 1) * rank, l * rank : (l + 1) * rank] = blocks[l]
    flat = cross.reshape(n_l * rank, m)
    return np.block([[top, flat], [flat.T, system]])


class TestNewton:
    def test_gradient_and_hessian_match_central_differences(self):
        cells, rows, cols, vals, w, c, mu = newton_problem()
        n_l, rank = w.shape
        grad, *parts = _newton_system(cells, vals, w, c, mu)
        hess = dense_hessian(*parts)
        theta = np.concatenate([w.ravel(), np.vstack([c, mu]).ravel()])  # the system's order
        f = lambda t: objective_at(t, rows, cols, vals, n_l, rank)  # noqa: E731
        h, basis = 1e-4, np.eye(len(theta))
        num_grad = np.array([(f(theta + h * e) - f(theta - h * e)) / (2 * h) for e in basis])
        num_hess = np.array([
            [(f(theta + h * (a + b)) - f(theta + h * (a - b)) - f(theta - h * (a - b))
              + f(theta - h * (a + b))) / (4 * h * h) for b in basis]
            for a in basis
        ])
        assert np.abs(num_grad - grad).max() < 1e-8
        assert np.abs(num_hess - hess).max() < 1e-6

    def test_schur_step_equals_dense_damped_solve(self):
        cells, rows, cols, vals, w, c, mu = newton_problem(seed=1)
        grad, *parts = _newton_system(cells, vals, w, c, mu)
        hess = dense_hessian(*parts)
        for damping in (0.1, 1.0, 10.0):
            expected = np.linalg.solve(hess + damping * np.eye(len(grad)), grad)
            got = _damped_direction(grad, *parts, damping)
            assert np.abs(got - expected).max() < 1e-10

    def test_safeguarded_direction_descends_where_hessian_is_indefinite(self):
        cells, rows, cols, vals, w, c, mu = newton_problem()
        grad, *parts = _newton_system(cells, vals, w, c, mu)
        assert np.linalg.eigvalsh(dense_hessian(*parts)).min() < 0
        with pytest.raises(np.linalg.LinAlgError):
            _damped_direction(grad, *parts, 1e-3)
        # the fit raises the damping tenfold until H + damping I is positive definite
        for damping in 1e-3 * 10.0 ** np.arange(8):
            try:
                direction = _damped_direction(grad, *parts, damping)
                break
            except np.linalg.LinAlgError:
                continue
        assert grad @ direction > 0  # the fit steps to theta - direction

    @CV_SHAPES
    def test_every_cv_fold_converges(self, shape, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            models = cv_fitted_models(lambda fold_seed: SparfaModel(seed=fold_seed), shape, seed)
        assert [m.model.converged for m in models] == [True] * 5

    def test_golden_fixture_fit_reaches_the_lower_basin(self, rank_fits):
        # block alternation ended this inner fit of fold 0 at 0.4609977
        ds = simulate(SimSpec(20, 5, 4, generator="bkt-process", seed=11, stop_on_correct=True))
        cross_validate(lambda fold_seed: SparfaModel(seed=fold_seed), ds.dataset, k=5, seed=7)
        (fit,) = [f for f in rank_fits if f.seed == 635505452]
        assert fit.rank == 2 and fit.converged
        assert fit.objective < 0.4602

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
            test = ds.keys(ds.unlabeled_positions())
            truth_obs = res.truth["obs"]
            actual = np.array([truth_obs[f"{lid}|{qid}|{a}"] for lid, qid, a in test], float)
            model = sparfa_fit(train, rank_candidates=(1, 2, 4), seed=trial)
            pred = sparfa_predict(model, test)
            base = intercept_baseline(train, test)
            if np.sqrt(np.mean((pred - actual) ** 2)) < np.sqrt(np.mean((base - actual) ** 2)):
                wins += 1
        assert wins >= 4
