import warnings

import numpy as np
import pytest

from lppred.data import Dataset
from lppred.simulate import SimSpec, simulate_lowrank
from lppred.seeds import derive_seed
from lppred.tensor import (
    TensorFactorizationModel,
    TensorModel,
    _group_index,
    _ridge_solves,
    als_fit_cells,
    als_objective,
    tensor_fit_als,
    tensor_predict,
)

from conftest import make_records


def exact_rank2_cells(seed, n_l=15, n_q=6, n_a=4):
    """Fully observed cells of an exact rank-2 product with values in [0, 1]."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0, 1 / np.sqrt(2), (n_l, 2))
    v = rng.uniform(0, 1 / np.sqrt(2), (2, n_q * n_a))
    x = u @ v
    li = np.repeat(np.arange(n_l), n_q * n_a)
    qa = np.tile(np.arange(n_q * n_a), n_l)
    return li, qa, x[li, qa], x, (n_l, n_q * n_a)


class TestAlsCore:
    def test_exact_rank2_reconstruction(self):
        for seed in (0, 1, 2):
            li, qa, y, x, (n_l, n_f) = exact_rank2_cells(seed)
            u, v, trace = als_fit_cells(li, qa, y, n_l, n_f, 2, 0.0, 500, 1e-14, seed=seed)
            assert np.sqrt(np.mean((u @ v - x) ** 2)) < 1e-3

    def test_objective_monotone(self):
        li, qa, y, _, (n_l, n_f) = exact_rank2_cells(3)
        _, _, trace = als_fit_cells(li, qa, y, n_l, n_f, 2, 0.1, 100, 1e-14, seed=3)
        diffs = np.diff(np.array(trace))
        assert np.all(diffs <= 1e-12)

    def test_rank1_constant_fit(self):
        n_l, n_f = 8, 6
        li = np.repeat(np.arange(n_l), n_f)
        qa = np.tile(np.arange(n_f), n_l)
        y = np.full(n_l * n_f, 0.6)
        u, v, _ = als_fit_cells(li, qa, y, n_l, n_f, 1, 0.0, 200, 1e-15, seed=0)
        assert np.abs(u @ v - 0.6).max() < 1e-6


def reference_half_sweep(groups, n_groups, x, y, ridge, current):
    """One ridge solve (or minimum-norm lstsq when ridge is 0) per group with cells."""
    out = current.copy()
    eye = np.eye(x.shape[1])
    for g in range(n_groups):
        cells = np.flatnonzero(groups == g)
        if cells.size == 0:
            continue
        xg = x[cells]
        if ridge > 0:
            out[g] = np.linalg.solve(xg.T @ xg + ridge * eye, xg.T @ y[cells])
        else:
            out[g] = np.linalg.lstsq(xg, y[cells], rcond=None)[0]
    return out


def reference_als(li, qa, y, n_l, n_f, rank, ridge, max_sweeps, tol, seed):
    """Alternating least squares with one solve per learner, then one per fiber."""
    rng = np.random.default_rng(derive_seed(seed, "tensor"))
    u = rng.uniform(0.0, 1.0 / np.sqrt(rank), size=(n_l, rank))
    v = rng.uniform(0.0, 1.0 / np.sqrt(rank), size=(rank, n_f))
    trace = [als_objective(u, v, li, qa, y, ridge)]
    for _ in range(max_sweeps):
        u = reference_half_sweep(li, n_l, v[:, qa].T, y, ridge, u)
        v = reference_half_sweep(qa, n_f, u[li], y, ridge, v.T).T
        trace.append(als_objective(u, v, li, qa, y, ridge))
        if trace[-2] - trace[-1] < tol:
            break
    return u, v, trace


class TestStackedSolves:
    def sparse_cells(self, seed):
        """Random cells over 9 learners and 7 fibers; learner 4 and fiber 5 have none."""
        rng = np.random.default_rng(seed)
        li, qa = np.nonzero(rng.random((9, 7)) < 0.6)
        keep = (li != 4) & (qa != 5)
        li, qa = li[keep], qa[keep]
        return li, qa, rng.random(li.size)

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_half_sweeps_match_per_group_loop(self, ridge):
        rng = np.random.default_rng(1)
        for seed in range(5):
            li, qa, y = self.sparse_cells(seed)
            u, v = rng.normal(size=(9, 2)), rng.normal(size=(2, 7))
            got_u = _ridge_solves(_group_index(li, 9, 2), v[:, qa].T, y, ridge, u)
            np.testing.assert_allclose(got_u, reference_half_sweep(li, 9, v[:, qa].T, y, ridge, u), rtol=1e-12)
            got_v = _ridge_solves(_group_index(qa, 7, 2), got_u[li], y, ridge, v.T)
            np.testing.assert_allclose(got_v, reference_half_sweep(qa, 7, got_u[li], y, ridge, v.T), rtol=1e-12)
            # the learner and the fiber without cells keep their values exactly
            assert np.array_equal(got_u[4], u[4]) and np.array_equal(got_v[5], v[:, 5])

    def test_rank_deficient_group_gets_minimum_norm_solution(self):
        # learner 0 has one cell at rank 2, learner 1 two cells along one direction
        li, qa = np.array([0, 1, 1, 2, 2]), np.array([0, 1, 2, 0, 1])
        y = np.array([0.7, 0.2, 0.4, 0.3, 0.9])
        v = np.array([[0.6, 0.5, 1.0, 0.0], [0.8, 0.25, 0.5, 1.0]])
        got = _ridge_solves(_group_index(li, 3, 2), v[:, qa].T, y, 0.0, np.zeros((3, 2)))
        for learner in range(3):
            cells = li == learner
            expected = np.linalg.lstsq(v[:, qa[cells]].T, y[cells], rcond=None)[0]
            np.testing.assert_allclose(got[learner], expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_full_trace_matches_per_group_loop(self, ridge):
        for seed in (0, 1, 2):
            li, qa, y, _, (n_l, n_f) = exact_rank2_cells(seed)
            args = (li, qa, y, n_l, n_f, 2, ridge, 60, 1e-14, seed)
            u, v, trace = als_fit_cells(*args)
            ref_u, ref_v, ref_trace = reference_als(*args)
            assert len(trace) == len(ref_trace)
            np.testing.assert_allclose(trace, ref_trace, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(u @ v, ref_u @ ref_v, rtol=1e-12, atol=1e-12)


class TestDatasetFit:
    def test_monotone_over_50_seeded_runs(self):
        violations = 0
        for seed in range(50):
            res = simulate_lowrank(SimSpec(12, 5, 3, generator="low-rank-tensor", rank=2, seed=seed))
            model = tensor_fit_als(res.dataset, rank=2, ridge=0.1, max_sweeps=60, seed=seed)
            if np.any(np.diff(np.array(model.objective_trace)) > 1e-12):
                violations += 1
        assert violations == 0

    def test_reparameterization_invariance(self):
        res = simulate_lowrank(SimSpec(12, 5, 3, generator="low-rank-tensor", rank=2, seed=7))
        model = tensor_fit_als(res.dataset, rank=2, ridge=0.1, seed=7)
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, (2, 2)) + 2 * np.eye(2)  # well-conditioned
        est_before = np.einsum("lr,rqa->lqa", model.learner_factors, model.qa_factors)
        u2 = model.learner_factors @ a
        v2 = np.einsum("rs,sqa->rqa", np.linalg.inv(a), model.qa_factors)
        est_after = np.einsum("lr,rqa->lqa", u2, v2)
        assert np.abs(est_before - est_after).max() < 1e-8

    def test_held_out_beats_global_mean(self):
        res = simulate_lowrank(
            SimSpec(
                25, 8, 4,
                generator="low-rank-tensor", rank=2, seed=21,
                mask_fraction=0.2, factor_scale=1.6,
            )
        )
        ds = res.dataset
        train = ds.subset(ds.labeled_positions())
        test = ds.keys(ds.unlabeled_positions())
        truth_obs = res.truth["obs"]
        actual = np.array([truth_obs[f"{lid}|{qid}|{a}"] for lid, qid, a in test], float)
        model = tensor_fit_als(train, rank=2, ridge=0.1, seed=0)
        pred = tensor_predict(model, test)
        base = np.full(len(test), model.global_mean)
        assert np.sqrt(np.mean((pred - actual) ** 2)) < np.sqrt(np.mean((base - actual) ** 2))

    def test_budget_exhausted_warns_and_reports(self):
        res = simulate_lowrank(SimSpec(12, 5, 3, generator="low-rank-tensor", rank=2, seed=3))
        with pytest.warns(UserWarning, match="max_sweeps=1"):
            model = tensor_fit_als(res.dataset, rank=2, ridge=0.1, max_sweeps=1, seed=0)
        assert not model.converged
        assert len(model.objective_trace) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = tensor_fit_als(res.dataset, rank=2, ridge=0.1, max_sweeps=2000, seed=0)
        assert model.converged

    def test_rank_exceeds_learners_rejected(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1), ("L2", "Q1", 1, 0)]))
        with pytest.raises(ValueError):
            tensor_fit_als(ds, rank=5)

    @pytest.mark.parametrize("rank, ridge", [(0, 0.1), (3, -1.0), (3, float("nan"))])
    def test_out_of_range_arguments_rejected_at_construction(self, rank, ridge):
        with pytest.raises(ValueError, match="must be"):
            TensorFactorizationModel(rank=rank, ridge=ridge)

    def test_cold_learner_gets_mean_row(self):
        rows = [("L1", "Q1", 1, 1), ("L2", "Q1", 1, 0), ("L3", "Q1", 1, None)]
        ds = Dataset.from_records(make_records(rows))
        model = tensor_fit_als(ds, rank=1, ridge=0.1, seed=0)
        assert model.cold_learners == ("L3",)
        warm = model.learner_factors[[0, 1]].mean(axis=0)
        assert np.allclose(model.learner_factors[2], warm)

    def test_unseen_fibers_copy_the_nearest_fitted_attempt(self):
        """Each unseen fiber equals its question's nearest fitted fiber, the lower on a tie.

        QT is labeled at attempts 1 and 3 only (attempt 2 ties), QF at attempt 1
        only, QN at every attempt, and L4 has no labeled row at all.
        """
        rows = []
        for learner, outcomes in (("L1", (1, 0, 1, 1, 0, 0)), ("L2", (0, 1, 1, 0, 1, 1)), ("L3", (1, 1, 0, 0, 0, 1))):
            rows += [(learner, "QT", 1, outcomes[0]), (learner, "QT", 3, outcomes[1]), (learner, "QF", 1, outcomes[2])]
            rows += [(learner, "QN", a, o) for a, o in zip((1, 2, 3), outcomes[3:])]
        rows += [("L1", "QT", 2, None), ("L4", "QT", 1, None), ("L4", "QN", 2, None)]
        ds = Dataset.from_records(make_records(rows))
        model = tensor_fit_als(ds, rank=2, ridge=0.1, seed=3)
        v = model.qa_factors
        n_q, n_a = v.shape[1:]
        fitted = np.zeros((n_q, n_a), dtype=bool)
        labeled = ds.obs >= 0
        fitted[ds.question[labeled], ds.attempt[labeled] - 1] = True
        copied = 0
        for q in range(n_q):  # reference: one cell at a time
            have = [a for a in range(n_a) if fitted[q, a]]
            for a in range(n_a):
                if have and not fitted[q, a]:
                    nearest = min(have, key=lambda h: (abs(h - a), h))
                    assert np.array_equal(v[:, q, a], v[:, q, nearest])
                    copied += 1
        assert copied == 3  # QT attempt 2, QF attempts 2 and 3
        qt = ds.question_index["QT"]
        assert np.array_equal(v[:, qt, 1], v[:, qt, 0]) and not np.array_equal(v[:, qt, 1], v[:, qt, 2])
        assert model.cold_learners == ("L4",)
        u = model.learner_factors
        cold = ds.learner_index["L4"]
        assert np.array_equal(u[cold], u[np.arange(len(u)) != cold].mean(axis=0))


def per_row_reference(model, rows):
    out = []
    for lid, qid, attempt in rows:
        qi, li = model.question_index.get(qid), model.learner_index.get(lid)
        if qi is None:
            out.append(model.global_mean)
            continue
        row = model.learner_factors[li] if li is not None else model.learner_factors.mean(axis=0)
        a = min(max(attempt, 1), model.qa_factors.shape[2]) - 1
        out.append(float(np.clip(row @ model.qa_factors[:, qi, a], 0.0, 1.0)))
    return np.array(out)


class TestPredict:
    def test_batch_matches_per_row_reference(self):
        res = simulate_lowrank(SimSpec(12, 5, 3, generator="low-rank-tensor", rank=2, seed=9))
        model = tensor_fit_als(res.dataset, rank=3, ridge=0.1, seed=0)
        rows = res.dataset.keys()
        rows += [("LX", "Q1", 2), ("L1", "QX", 1), ("L2", "Q3", 7)]
        assert np.array_equal(tensor_predict(model, rows), per_row_reference(model, rows))

    def make_model(self):
        qa = np.zeros((2, 1, 2))
        qa[:, 0, 0] = (0.7, 0.3)
        qa[:, 0, 1] = (0.2, 0.9)
        return TensorModel(
            learner_factors=np.array([[1.0, 0.0], [0.0, 1.0]]),
            qa_factors=qa,
            rank=2,
            ridge=0.1,
            learner_index={"L1": 0, "L2": 1},
            question_index={"Q1": 0},
            global_mean=0.55,
        )

    def test_basis_vector_selection(self):
        m = self.make_model()
        assert tensor_predict(m, [("L1", "Q1", 1)])[0] == pytest.approx(0.7)

    def test_clamp_above(self):
        m = self.make_model()
        m.learner_factors[0] = (2.0, 0.0)  # raw estimate 1.4
        assert tensor_predict(m, [("L1", "Q1", 1)])[0] == pytest.approx(1.0)

    def test_clamp_below(self):
        m = self.make_model()
        m.learner_factors[0] = (-1.0, 0.5)  # raw estimate -0.55
        assert tensor_predict(m, [("L1", "Q1", 1)])[0] == pytest.approx(0.0)

    def test_attempt_beyond_training_uses_last_slice(self):
        m = self.make_model()
        assert tensor_predict(m, [("L2", "Q1", 9)])[0] == tensor_predict(m, [("L2", "Q1", 2)])[0]

    def test_unseen_learner_mean_row(self):
        m = self.make_model()
        mean_row = m.learner_factors.mean(axis=0)
        expected = float(np.clip(mean_row @ m.qa_factors[:, 0, 0], 0, 1))
        assert tensor_predict(m, [("LX", "Q1", 1)])[0] == pytest.approx(expected)

    def test_unseen_question_global_mean(self):
        m = self.make_model()
        assert tensor_predict(m, [("L1", "QX", 1)])[0] == pytest.approx(0.55)

    def test_predictor_wrapper(self):
        res = simulate_lowrank(SimSpec(10, 4, 3, generator="low-rank-tensor", rank=2, seed=2))
        model = TensorFactorizationModel(rank=2, seed=0).fit(res.dataset)
        preds = model.predict(res.dataset.keys())
        assert np.all((preds >= 0) & (preds <= 1))
        payload = model.export_json()
        assert set(payload) >= {"U", "V", "r", "lambda"}
