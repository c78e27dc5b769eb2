import warnings

import numpy as np
import pytest

from lppred.data import Dataset
from lppred.pfa import PfaModel, PfaParams, _hessian, _objective_and_grad, pfa_features, pfa_fit

from conftest import CV_SHAPES, cv_fitted_models, make_records, random_dataset, rows_of


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestFeatures:
    def test_first_attempt_zero_counts(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1)]))
        s, f = pfa_features(ds)
        assert (s[0], f[0]) == (0, 0)

    def test_success_failure_counts(self):
        ds = Dataset.from_records(
            make_records([("L1", "Q1", 1, 1), ("L1", "Q1", 2, 0), ("L1", "Q1", 3, 1)])
        )
        s, f = pfa_features(ds)
        assert (s[2], f[2]) == (1, 1)

    def test_counts_match_brute_force_recount(self, rng):
        ds = random_dataset(rng, n_learners=8, n_questions=5, max_attempt=4, n_rows=100)
        rows = rows_of(ds)
        for (lid, qid, attempt, _), s_got, f_got in zip(rows, *pfa_features(ds)):
            earlier = [o for l, q, a, o in rows if (l, q) == (lid, qid) and a < attempt]
            assert (s_got, f_got) == (earlier.count(1), earlier.count(0))
            assert s_got + f_got == attempt - 1

    def test_future_rows_do_not_leak(self):
        base = make_records([("L1", "Q1", 1, 1), ("L1", "Q1", 2, 0)])
        extended = base + make_records([("L1", "Q1", 3, 1), ("L1", "Q1", 4, 0)])
        s_base, f_base = pfa_features(Dataset.from_records(base))
        s_ext, f_ext = pfa_features(Dataset.from_records(extended))
        assert np.array_equal(s_base, s_ext[:2]) and np.array_equal(f_base, f_ext[:2])


def per_row_reference(model, train, rows):
    """Each query's logit from a scan of the training rows for its earlier attempts."""
    p = model.params
    out = []
    for lid, qid, attempt in rows:
        earlier = [
            o for l, q, a, o in rows_of(train) if (l, q) == (lid, qid) and o is not None and a < attempt
        ]
        z = p.beta.get(qid, 0.0) + p.gamma.get(lid, 0.0) + p.alpha * earlier.count(1) + p.rho * earlier.count(0)
        out.append(sigmoid(z))
    return np.array(out)


def test_batch_predict_matches_per_row_reference(rng):
    full = random_dataset(rng, n_learners=6, n_questions=4, max_attempt=4, n_rows=60)
    train = full.subset([i for i in range(full.n_records) if i % 4])  # held-out gaps
    rows = full.keys() + [("LX", "Q1", 3), ("L1", "QX", 2), ("L2", "Q2", 9)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = PfaModel(seed=0).fit(train)
    assert np.array_equal(model.predict(rows), per_row_reference(model, train, rows))


def model_with(params, rows=(("L1", "Q1", 1, 1),)):
    """A PfaModel whose history is ``rows`` and whose weights are ``params``."""
    model = PfaModel(seed=0)
    model._train = Dataset.from_records(make_records(rows))
    model.params = params
    return model


class TestPredict:
    def test_all_zero_parameters(self):
        params = PfaParams(beta={}, gamma={}, alpha=0.0, rho=0.0, l2=0.1)
        assert model_with(params).predict([("L1", "Q1", 1)])[0] == pytest.approx(0.5)

    def test_saturation(self):
        params = PfaParams(beta={"Q1": 10.0}, gamma={}, alpha=0.0, rho=0.0, l2=0.1)
        pred = model_with(params).predict([("L1", "Q1", 1)])[0]
        assert pred == pytest.approx(0.99995, abs=1e-4)

    def test_hand_logit(self):
        params = PfaParams(beta={"Q1": 0.5}, gamma={"L1": -0.2}, alpha=0.3, rho=-0.4, l2=0.1)
        # two successes and one failure before attempt 4
        model = model_with(params, [("L1", "Q1", 1, 1), ("L1", "Q1", 2, 1), ("L1", "Q1", 3, 0)])
        pred = model.predict([("L1", "Q1", 4)])[0]
        # logit = 0.5 - 0.2 + 0.6 - 0.4 = 0.5
        assert pred == pytest.approx(sigmoid(0.5))
        assert pred == pytest.approx(0.6225, abs=1e-4)

    def test_cold_start_gamma_zero(self, rng):
        ds = random_dataset(rng, n_rows=30)
        model = PfaModel(seed=0).fit(ds)
        known = model.params.beta[next(iter(model.params.beta))]
        pred = model.predict([("UNSEEN", next(iter(model.params.beta)), 1)])[0]
        assert pred == pytest.approx(sigmoid(known), abs=1e-12)


def build_design(ds):
    s, f = pfa_features(ds)
    labeled = ds.labeled_positions()
    n_q = len(ds.question_index)
    n_l = len(ds.learner_index)
    keys = ds.keys(labeled)
    q_idx = np.array([ds.question_index[qid] for _, qid, _ in keys])
    l_idx = np.array([ds.learner_index[lid] for lid, _, _ in keys])
    y = ds.obs_array(labeled)
    return q_idx, l_idx, s[labeled].astype(float), f[labeled].astype(float), y, n_q, n_l


def reference_objective(theta, ds, l2):
    """Independent recomputation of the regularized NLL via plain Python."""
    q_idx, l_idx, s, f, y, n_q, n_l = build_design(ds)
    beta = theta[:n_q]
    gamma = theta[n_q : n_q + n_l]
    alpha, rho = theta[-2], theta[-1]
    total = 0.0
    for i in range(len(y)):
        z = beta[q_idx[i]] + gamma[l_idx[i]] + alpha * s[i] + rho * f[i]
        total += np.log1p(np.exp(-abs(z))) + max(z, 0.0) - y[i] * z
    return total + 0.5 * l2 * float(theta @ theta)


class TestFit:
    def test_gradient_matches_central_differences(self, rng):
        for trial in range(10):
            trial_rng = np.random.default_rng(1000 + trial)
            ds = random_dataset(trial_rng, n_learners=6, n_questions=4, n_rows=30)
            q_idx, l_idx, s, f, y, n_q, n_l = build_design(ds)
            theta = trial_rng.normal(0, 0.5, n_q + n_l + 2)
            _, grad = _objective_and_grad(theta, q_idx, l_idx, s, f, y, n_q, n_l, 0.1)
            step = 1e-5
            numeric = np.empty_like(theta)
            for j in range(len(theta)):
                hi = theta.copy()
                hi[j] += step
                lo = theta.copy()
                lo[j] -= step
                numeric[j] = (
                    reference_objective(hi, ds, 0.1) - reference_objective(lo, ds, 0.1)
                ) / (2 * step)
            rel = np.abs(grad - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert rel.max() < 1e-5

    def test_convex_reproducibility_across_seeds(self, rng):
        ds = random_dataset(rng, n_learners=8, n_questions=5, n_rows=120)
        a = pfa_fit(ds, seed=0, max_iter=20000)
        b = pfa_fit(ds, seed=4242, max_iter=20000)
        assert abs(a.objective - b.objective) < 1e-6

    def test_objective_trace_non_increasing(self, rng):
        ds = random_dataset(rng, n_learners=8, n_questions=4, n_rows=80)
        params = pfa_fit(ds, seed=1, max_iter=500)
        trace = np.array(params.objective_trace)
        assert np.all(np.diff(trace) <= 0)

    def test_all_correct_with_l2_bounded(self):
        rows = [(f"L{i}", f"Q{j}", 1, 1) for i in range(4) for j in range(3)]
        ds = Dataset.from_records(make_records(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = PfaModel(l2=0.5, seed=0).fit(ds)
        preds = model.predict(ds.keys())
        assert np.all(preds > 0.5)

    def test_large_l2_shrinks_to_half(self, rng):
        ds = random_dataset(rng, n_rows=50)
        params = pfa_fit(ds, l2=1e6, seed=0)
        assert abs(params.alpha) < 1e-3 and abs(params.rho) < 1e-3
        model = PfaModel(l2=1e6, seed=0).fit(ds)
        preds = model.predict(ds.keys())
        assert np.allclose(preds, 0.5, atol=1e-3)

    def test_nonconvergence_flagged(self, rng):
        ds = random_dataset(rng, n_learners=10, n_questions=7, n_rows=200)
        with pytest.warns(UserWarning, match="tolerance"):
            params = pfa_fit(ds, seed=0, max_iter=1)
        assert not params.converged

    def test_hessian_matches_central_differences_of_gradient(self):
        for trial in range(5):
            trial_rng = np.random.default_rng(2000 + trial)
            ds = random_dataset(trial_rng, n_learners=6, n_questions=4, n_rows=30)
            q_idx, l_idx, s, f, y, n_q, n_l = build_design(ds)
            theta = trial_rng.normal(0, 0.5, n_q + n_l + 2)
            hess = _hessian(theta, q_idx, l_idx, s, f, n_q, n_l, 0.1)
            step = 1e-6
            numeric = np.empty_like(hess)
            for j in range(len(theta)):
                hi = theta.copy()
                hi[j] += step
                lo = theta.copy()
                lo[j] -= step
                grad_hi = _objective_and_grad(hi, q_idx, l_idx, s, f, y, n_q, n_l, 0.1)[1]
                grad_lo = _objective_and_grad(lo, q_idx, l_idx, s, f, y, n_q, n_l, 0.1)[1]
                numeric[:, j] = (grad_hi - grad_lo) / (2 * step)
            assert np.abs(hess - numeric).max() < 1e-7 * np.abs(hess).max()

    def test_zero_l2_on_separable_data(self):
        # all correct: the optimum is at infinity and the Hessian is singular
        rows = [(f"L{i}", f"Q{j}", 1, 1) for i in range(4) for j in range(3)]
        ds = Dataset.from_records(make_records(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = pfa_fit(ds, l2=0.0, seed=0)
        assert np.all(np.diff(params.objective_trace) <= 0)
        assert np.isfinite(params.objective) and params.objective < 1e-3
        model = model_with(params, rows)
        assert np.all(model.predict([r[:3] for r in rows]) > 0.99)

    @CV_SHAPES
    def test_every_cv_fold_converges(self, shape, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            models = cv_fitted_models(lambda fold_seed: PfaModel(seed=fold_seed), shape, seed)
        assert [m.params.converged for m in models] == [True] * 5

    def test_requires_labeled_rows(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, None)]))
        with pytest.raises(ValueError):
            pfa_fit(ds)

    def test_negative_l2_rejected(self, rng):
        ds = random_dataset(rng, n_rows=10)
        with pytest.raises(ValueError):
            pfa_fit(ds, l2=-1.0)
        for l2 in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="l2 must be non-negative"):
                PfaModel(l2=l2)

    def test_export_json(self, rng):
        ds = random_dataset(rng, n_rows=40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = PfaModel(seed=0).fit(ds)
        payload = model.export_json()
        assert set(payload) >= {"beta", "gamma", "alpha", "rho"}
