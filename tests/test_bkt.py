import itertools

import numpy as np
import pytest

from lppred.bkt import (
    DEFAULT_INIT,
    NOISE_CAP,
    PROB_FLOOR,
    BktModel,
    BktParams,
    _fit_learner_offsets,
    _stacked_sequences,
    bkt_fit_em,
    bkt_posterior_update,
    bkt_predict_next,
    sequence_predictions,
)
from lppred.data import Dataset, make_folds
from lppred.seeds import derive_seed
from lppred.simulate import SimSpec, simulate, simulate_bkt

from conftest import make_records, rows_of

NEAR_ZERO = 1e-6  # parameters live strictly inside (0, 1)


def enumerate_filtered(observations, p):
    """Oracle: filtered correct-probabilities by summing over all hidden paths."""

    def prefix_prob(prefix):
        if not prefix:
            return 1.0
        total = 0.0
        for states in itertools.product((0, 1), repeat=len(prefix)):
            prob = p.p_init if states[0] == 1 else 1.0 - p.p_init
            valid = True
            for i in range(1, len(states)):
                prev, cur = states[i - 1], states[i]
                if prev == 1 and cur == 0:
                    valid = False
                    break
                if prev == 1:
                    trans = 1.0
                elif cur == 1:
                    trans = p.p_learn
                else:
                    trans = 1.0 - p.p_learn
                prob *= trans
            if not valid:
                continue
            for state, obs in zip(states, prefix):
                emit = (1.0 - p.p_slip) if state == 1 else p.p_guess
                prob *= emit if obs == 1 else 1.0 - emit
            total += prob
        return total

    return [
        prefix_prob(list(observations[:t]) + [1]) / prefix_prob(list(observations[:t]))
        for t in range(len(observations))
    ]


class TestEmissionAndUpdate:
    def test_mastered_no_slip(self):
        p = BktParams(0.5, 0.2, NEAR_ZERO, 0.3)
        assert bkt_predict_next(1.0, p) == pytest.approx(1.0, abs=1e-5)

    def test_pure_guess(self):
        p = BktParams(0.5, 0.2, 0.1, 0.3)
        assert bkt_predict_next(0.0, p) == pytest.approx(0.3)

    def test_emission_hand_value(self):
        p = BktParams(0.5, 0.2, 0.1, 0.2)
        assert bkt_predict_next(0.6, p) == pytest.approx(0.62)

    def test_noiseless_correct_proves_mastery(self):
        p = BktParams(0.5, NEAR_ZERO, NEAR_ZERO, NEAR_ZERO)
        assert bkt_posterior_update(0.5, 1, p) == pytest.approx(1.0, abs=1e-5)

    def test_noiseless_incorrect_disproves_mastery(self):
        p = BktParams(0.5, NEAR_ZERO, NEAR_ZERO, NEAR_ZERO)
        assert bkt_posterior_update(0.5, 0, p) == pytest.approx(0.0, abs=1e-5)

    def test_posterior_hand_value(self):
        p = BktParams(0.4, 0.3, 0.1, 0.2)
        # Bayes: 0.36/(0.36+0.12) = 0.75, then learn: 0.75 + 0.25*0.3
        assert bkt_posterior_update(0.4, 1, p) == pytest.approx(0.825)

    def test_beliefs_stay_in_unit_interval(self, rng):
        for _ in range(50):
            p = BktParams(
                rng.uniform(0.05, 0.95),
                rng.uniform(0.05, 0.95),
                rng.uniform(0.05, 0.45),
                rng.uniform(0.05, 0.45),
            )
            belief = rng.uniform(0, 1)
            for obs in rng.integers(0, 2, 8):
                belief = bkt_posterior_update(belief, int(obs), p)
                assert 0.0 <= belief <= 1.0

    def test_prediction_monotone_in_belief(self):
        p = BktParams(0.4, 0.2, 0.15, 0.25)
        grid = np.linspace(0, 1, 21)
        values = [bkt_predict_next(b, p) for b in grid]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            BktParams(0.0, 0.2, 0.1, 0.2)
        with pytest.raises(ValueError):
            BktParams(0.4, 0.2, 0.6, 0.5)


class TestForwardExactness:
    def test_matches_path_enumeration_all_length6(self):
        p = BktParams(0.37, 0.23, 0.12, 0.21)
        worst = 0.0
        for obs in itertools.product((0, 1), repeat=6):
            fast = np.array(sequence_predictions(list(obs), p))
            slow = np.array(enumerate_filtered(list(obs), p))
            worst = max(worst, float(np.abs(fast - slow).max()))
        assert worst < 1e-10


class TestEmFit:
    def test_all_correct_noiseless_recovers_high_p_init(self):
        params = BktParams(1.0 - NEAR_ZERO, NEAR_ZERO, NEAR_ZERO, NEAR_ZERO)
        res = simulate_bkt(SimSpec(40, 1, 5, seed=0, bkt=params))
        assert (res.dataset.obs == 1).all()
        fit = bkt_fit_em(res.dataset, seed=0)
        assert fit.question_params["Q1"].p_init == pytest.approx(1.0, abs=0.05)

    def test_parameter_recovery_500_sequences(self):
        true = BktParams(0.3, 0.2, 0.1, 0.25)
        res = simulate_bkt(SimSpec(500, 1, 9, seed=100, bkt=true))
        fit = bkt_fit_em(res.dataset, seed=0, max_iter=300, tol=1e-8)
        got = fit.question_params["Q1"]
        for name in ("p_init", "p_learn", "p_slip", "p_guess"):
            assert getattr(got, name) == pytest.approx(getattr(true, name), abs=0.05)

    def test_loglik_monotone_every_iteration(self):
        res = simulate_bkt(SimSpec(60, 3, 6, seed=5))
        fit = bkt_fit_em(res.dataset, seed=1, max_iter=150, tol=1e-9)
        for qid, trace in fit.loglik_trace.items():
            diffs = np.diff(np.array(trace))
            assert np.all(diffs >= -1e-9), f"{qid}: {diffs.min()}"

    def test_question_without_sequences_warns_and_falls_back(self):
        records = make_records(
            [("L1", "Q1", 1, 1), ("L2", "Q1", 1, 0), ("L1", "Q2", 1, None)]
        )
        ds = Dataset.from_records(records)
        with pytest.warns(UserWarning, match="Q2"):
            fit = bkt_fit_em(ds, seed=0)
        assert fit.question_params["Q2"] == fit.fallback
        assert fit.converged["Q2"]

    def test_converged_reports_where_em_ran_out_of_iterations(self):
        # the first training split of ``cv --k 5 --seed 0`` on the lesson-shaped simulation
        spec = SimSpec(66, 8, 9, generator="bkt-process", seed=3, stop_on_correct=True)
        ds = simulate(spec).dataset
        train = ds.subset(make_folds(ds, 5, 0).train_positions(0))
        fit = bkt_fit_em(train, seed=derive_seed(0, "fold", 0))
        assert list(fit.converged) == list(fit.question_params)
        stalled = [qid for qid, done in fit.converged.items() if not done]
        assert stalled
        assert all(len(fit.loglik_trace[qid]) == 100 for qid in stalled)
        # a loose tolerance stops EM on every question well inside the budget
        loose = bkt_fit_em(train, seed=derive_seed(0, "fold", 0), tol=1.0)
        assert all(loose.converged.values())
        assert all(len(trace) < 100 for trace in loose.loglik_trace.values())

    def test_fitted_params_satisfy_invariants(self):
        res = simulate_bkt(SimSpec(50, 4, 6, seed=9))
        fit = bkt_fit_em(res.dataset, seed=2)
        for p in fit.question_params.values():
            assert 0 < p.p_init < 1 and 0 < p.p_learn < 1
            assert p.p_slip + p.p_guess < 1


def reference_forward_backward(obs, observed, p):
    """One question's log-space forward-backward over its padded (sequences, slots) arrays."""
    n, t_max = obs.shape
    log_a = np.array([[np.log1p(-p.p_learn), np.log(p.p_learn)], [-np.inf, 0.0]])
    log_e = np.zeros((n, t_max, 2))
    log_e[:, :, 0] = np.where(obs == 1.0, np.log(p.p_guess), np.log1p(-p.p_guess))
    log_e[:, :, 1] = np.where(obs == 1.0, np.log1p(-p.p_slip), np.log(p.p_slip))
    log_e[~observed] = 0.0
    la = np.full((n, t_max, 2), -np.inf)
    la[:, 0, 0] = np.log1p(-p.p_init) + log_e[:, 0, 0]
    la[:, 0, 1] = np.log(p.p_init) + log_e[:, 0, 1]
    for t in range(1, t_max):
        prev = la[:, t - 1, :]
        la[:, t, 0] = prev[:, 0] + log_a[0, 0] + log_e[:, t, 0]
        la[:, t, 1] = np.logaddexp(prev[:, 0] + log_a[0, 1], prev[:, 1] + log_a[1, 1]) + log_e[:, t, 1]
    lb = np.zeros((n, t_max, 2))
    for t in range(t_max - 2, -1, -1):
        nxt = lb[:, t + 1, :] + log_e[:, t + 1, :]
        lb[:, t, 0] = np.logaddexp(log_a[0, 0] + nxt[:, 0], log_a[0, 1] + nxt[:, 1])
        lb[:, t, 1] = log_a[1, 1] + nxt[:, 1]
    loglik_seq = np.logaddexp(la[:, -1, 0], la[:, -1, 1])
    gamma = np.exp(la + lb - loglik_seq[:, None, None])
    learn = np.exp(la[:, :-1, 0] + log_a[0, 1] + (log_e[:, 1:, 1] + lb[:, 1:, 1]) - loglik_seq[:, None])
    return float(loglik_seq.sum()), gamma, learn


def reference_em(ds, max_iter, tol, seed):
    """Baum-Welch one question at a time: {qid: (params, trace, converged)} for questions with sequences."""
    table = ds.outcome_table()[:-1, :-1, :-1]
    out = {}
    for q, qid in enumerate(ds.question_index):
        learners = np.flatnonzero((table[:, q, :] >= 0).any(axis=1))
        if not learners.size:
            continue
        observed = table[learners, q, :] >= 0
        lengths = observed.shape[1] - np.argmax(observed[:, ::-1], axis=1)
        t_max = int(lengths.max())
        obs, observed = (table[learners, q, :t_max] == 1).astype(float), observed[:, :t_max]
        trans_valid = np.arange(t_max - 1)[None, :] < (lengths - 1)[:, None]
        jitter = np.random.default_rng(derive_seed(seed, "bkt", qid)).uniform(-0.02, 0.02, size=4)
        p = BktParams(
            p_init=min(max(DEFAULT_INIT["p_init"] + jitter[0], PROB_FLOOR), 1.0 - PROB_FLOOR),
            p_learn=min(max(DEFAULT_INIT["p_learn"] + jitter[1], PROB_FLOOR), 1.0 - PROB_FLOOR),
            p_slip=min(max(DEFAULT_INIT["p_slip"] + jitter[2], PROB_FLOOR), NOISE_CAP),
            p_guess=min(max(DEFAULT_INIT["p_guess"] + jitter[3], PROB_FLOOR), NOISE_CAP),
        )
        trace = []
        for _ in range(max_iter):
            loglik, gamma, learn = reference_forward_backward(obs, observed, p)
            trace.append(loglik)
            if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
                break
            den_learn = float((gamma[:, :-1, 0] * trans_valid).sum()) if t_max > 1 else 0.0
            den_g = float((gamma[:, :, 0] * observed).sum())
            den_s = float((gamma[:, :, 1] * observed).sum())
            p_learn = float((learn * trans_valid).sum()) / den_learn if den_learn > 0 else p.p_learn
            p_guess = float((gamma[:, :, 0] * observed * obs).sum()) / den_g if den_g > 0 else p.p_guess
            p_slip = float((gamma[:, :, 1] * observed * (1.0 - obs)).sum()) / den_s if den_s > 0 else p.p_slip
            p = BktParams(
                p_init=min(max(float(np.mean(gamma[:, 0, 1])), PROB_FLOOR), 1.0 - PROB_FLOOR),
                p_learn=min(max(p_learn, PROB_FLOOR), 1.0 - PROB_FLOOR),
                p_slip=min(max(p_slip, PROB_FLOOR), NOISE_CAP),
                p_guess=min(max(p_guess, PROB_FLOOR), NOISE_CAP),
            )
        out[qid] = (p, trace, len(trace) >= 2 and trace[-1] - trace[-2] < tol)
    return out


def assert_em_matches_reference(fit, ds, max_iter=100, tol=1e-6, seed=0):
    """Equal trace lengths and flags, traces and parameters within 1e-12; returns the reference."""
    expected = reference_em(ds, max_iter, tol, seed)
    assert list(fit.question_params) == list(ds.question_index)
    for qid in ds.question_index:
        if qid not in expected:
            assert fit.question_params[qid] == fit.fallback
            assert fit.loglik_trace[qid] == [] and fit.converged[qid]
            continue
        params, trace, converged = expected[qid]
        assert len(fit.loglik_trace[qid]) == len(trace), qid
        assert fit.converged[qid] == converged, qid
        np.testing.assert_allclose(fit.loglik_trace[qid], trace, rtol=1e-12)
        for name in DEFAULT_INIT:
            assert getattr(fit.question_params[qid], name) == pytest.approx(getattr(params, name), abs=1e-12)
    return expected


class TestStackedEm:
    """The stacked EM against a per-question loop of the same Baum-Welch steps."""

    def test_questions_freeze_at_their_own_iteration(self):
        # every Q1x answer is correct and QS has one attempt per learner, so
        # both settle early; Q2 and Q3 run to the budget
        ds = simulate_bkt(SimSpec(40, 3, 6, seed=5)).dataset
        extra = [(f"L{i}", "Q1x", 1, 1) for i in range(1, 30)]
        extra += [(f"L{i}", "QS", 1, int(i % 3 == 0)) for i in range(1, 25)]
        ds = Dataset.from_records(rows_of(ds) + make_records(extra))
        fit = bkt_fit_em(ds, max_iter=30, tol=1e-6, seed=3)
        lengths = {qid: len(trace) for qid, trace in fit.loglik_trace.items()}
        assert fit.converged["QS"] and fit.converged["Q1x"] and lengths["QS"] < lengths["Q1x"] < 30
        assert not fit.converged["Q2"] and lengths["Q2"] == 30
        assert_em_matches_reference(fit, ds, max_iter=30, tol=1e-6, seed=3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lesson_fold_with_held_out_gaps(self, seed):
        spec = SimSpec(66, 8, 9, generator="bkt-process", seed=3, stop_on_correct=True)
        ds = simulate(spec).dataset
        train = ds.subset(make_folds(ds, 5, seed).train_positions(seed))
        fit = bkt_fit_em(train, seed=seed)
        expected = assert_em_matches_reference(fit, train, seed=seed)
        # questions end at different slots here; each one's sums are formed in
        # the per-question order, so the numbers agree to the bit
        assert {q: p for q, (p, _, _) in expected.items()} == fit.question_params
        assert {q: t for q, (_, t, _) in expected.items()} == fit.loglik_trace
        loose = bkt_fit_em(train, seed=seed, tol=1e-2)
        assert_em_matches_reference(loose, train, tol=1e-2, seed=seed)

    def test_question_without_sequences_keeps_fallback(self):
        records = make_records(
            [("L1", "Q1", 1, 1), ("L1", "Q1", 2, 0), ("L2", "Q1", 1, 0), ("L2", "Q2", 1, None),
             ("L1", "Q3", 1, 1), ("L2", "Q3", 1, 1), ("L2", "Q3", 3, 0)]
        )
        ds = Dataset.from_records(records)
        with pytest.warns(UserWarning, match="Q2"):
            fit = bkt_fit_em(ds, seed=4)
        assert_em_matches_reference(fit, ds, seed=4)

    def test_no_labeled_rows(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, None), ("L2", "Q2", 2, None)]))
        with pytest.warns(UserWarning) as caught:
            fit = bkt_fit_em(ds, seed=0)
        assert [str(w.message) for w in caught] == [
            f"question {q}: no labeled sequences, using prior parameters" for q in ("Q1", "Q2")
        ]
        assert_em_matches_reference(fit, ds)


def offset_p_init(p_init, delta):
    p0 = 1.0 / (1.0 + np.exp(-(np.log(p_init / (1.0 - p_init)) + delta)))
    return min(max(float(p0), NEAR_ZERO), 1.0 - NEAR_ZERO)


def reference_learner_offsets(ds, fit):
    """One scalar golden-section search per learner over its labeled attempts.

    Each (learner, question) chain starts at attempt 1 and runs to the
    learner's last labeled attempt; a held-out attempt in between applies
    the learn-only transition. Learners are listed by their first labeled
    question, then by code.
    """
    labeled = {}
    for lid, qid, attempt, obs in rows_of(ds):
        if obs is not None:
            labeled.setdefault((lid, qid), {})[attempt] = obs
    by_learner = {}
    for qid in ds.question_index:
        for lid in ds.learner_index:
            if (lid, qid) in labeled:
                by_learner.setdefault(lid, []).append((qid, labeled[lid, qid]))

    phi = (np.sqrt(5.0) - 1.0) / 2.0
    offsets = {}
    for lid, seqs in by_learner.items():
        def neg_loglik(delta):
            total = 0.0
            for qid, attempts in seqs:
                p = fit.question_params[qid]
                p = BktParams(offset_p_init(p.p_init, delta), p.p_learn, p.p_slip, p.p_guess)
                belief, loglik = p.p_init, 0.0
                for attempt in range(1, max(attempts) + 1):
                    obs = attempts.get(attempt)
                    if obs is None:
                        belief = belief + (1.0 - belief) * p.p_learn
                        continue
                    pred = min(max(bkt_predict_next(belief, p), NEAR_ZERO), 1.0 - NEAR_ZERO)
                    loglik += np.log(pred) if obs == 1 else np.log(1.0 - pred)
                    belief = bkt_posterior_update(belief, obs, p)
                total += float(loglik)
            return -total

        lo, hi = -4.0, 4.0
        x1 = hi - phi * (hi - lo)
        x2 = lo + phi * (hi - lo)
        f1, f2 = neg_loglik(x1), neg_loglik(x2)
        for _ in range(40):
            if f1 < f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - phi * (hi - lo)
                f1 = neg_loglik(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + phi * (hi - lo)
                f2 = neg_loglik(x2)
        offsets[lid] = (lo + hi) / 2.0
    return offsets


class TestLearnerOffsets:
    @pytest.mark.parametrize("seed", [4, 7])
    def test_vectorized_search_equals_per_learner_loop(self, seed):
        full = simulate_bkt(SimSpec(12, 3, 5, seed=seed)).dataset
        kept = [r for i, r in enumerate(rows_of(full)) if i % 3]  # held-out gaps
        kept[::7] = [(*r[:3], None) for r in kept[::7]]  # unlabeled rows
        extras = make_records([
            ("LU", "QN", 1, None),  # a question with no labeled sequence, a learner with none
            ("LU", "Q1", 1, None),
            ("LS", "Q3", 2, 1),  # a single attempt after a gap; LS is coded before L1
        ])                       # but listed after every learner labeled on Q1
        ds = Dataset.from_records(extras + kept)
        with pytest.warns(UserWarning, match="QN"):
            fit = bkt_fit_em(ds, seed=0)
        expected = reference_learner_offsets(ds, fit)
        got = _fit_learner_offsets(ds, fit, *_stacked_sequences(ds)[:3])
        assert list(got.items()) == list(expected.items())
        assert "LS" in got and "LU" not in got
        with pytest.warns(UserWarning, match="QN"):
            model = BktModel(seed=0, individualized=True).fit(ds)
        assert list(model.fit_result.learner_offsets.items()) == list(expected.items())

    def test_held_out_gap_applies_the_learning_transition(self):
        # both answer right, wrong, right; L1's attempts 3 and 4 are held out
        rows = [("L1", "Q1", 1, 1), ("L1", "Q1", 2, 0), ("L1", "Q1", 5, 1)]
        rows += [("L2", "Q1", 1, 1), ("L2", "Q1", 2, 0), ("L2", "Q1", 3, 1)]
        ds = Dataset.from_records(make_records(rows))
        fit = bkt_fit_em(ds, seed=0)
        fit.question_params["Q1"] = BktParams(0.5, 0.1, 0.1, 0.3)
        got = _fit_learner_offsets(ds, fit, *_stacked_sequences(ds)[:3])
        assert got == reference_learner_offsets(ds, fit)
        # skipping the gap would score both chains alike; with two learning
        # steps L1's last right answer needs no initial mastery
        assert got["L1"] < -3.9 and got["L2"] > 3.9

    def test_no_labeled_attempt_gives_no_offsets(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, None), ("L2", "Q2", 1, None)]))
        with pytest.warns(UserWarning):
            fit = bkt_fit_em(ds, seed=0, individualized=True)
        assert fit.learner_offsets == {}


def per_row_reference(model, train, rows):
    """Each query's belief walked through a dict of the learner's training attempts."""
    fit = model.fit_result
    history = {}
    for lid, qid, attempt, obs in rows_of(train):
        if obs is not None:
            history.setdefault((lid, qid), {})[attempt] = obs
    out = []
    for lid, qid, attempt in rows:
        p = fit.question_params.get(qid, fit.fallback)
        delta = fit.learner_offsets.get(lid)
        if delta:
            p0 = 1.0 / (1.0 + np.exp(-(np.log(p.p_init / (1.0 - p.p_init)) + delta)))
            p = BktParams(min(max(float(p0), NEAR_ZERO), 1.0 - NEAR_ZERO), p.p_learn, p.p_slip, p.p_guess)
        belief = p.p_init
        for past in range(1, attempt):
            obs = history.get((lid, qid), {}).get(past)
            if obs is None:
                belief = belief + (1.0 - belief) * p.p_learn
            else:
                belief = bkt_posterior_update(belief, obs, p)
        out.append(bkt_predict_next(belief, p))
    return np.clip(out, 0.0, 1.0)


class TestPredictor:
    @pytest.mark.parametrize("individualized", [False, True])
    def test_batch_matches_per_row_reference(self, individualized):
        full = simulate_bkt(SimSpec(12, 3, 5, seed=4)).dataset
        train = full.subset([i for i in range(full.n_records) if i % 3])  # held-out gaps
        rows = full.keys() + [("LX", "Q1", 3), ("L1", "QX", 2), ("L2", "Q2", 9)]
        model = BktModel(seed=0, individualized=individualized).fit(train)
        assert np.array_equal(model.predict(rows), per_row_reference(model, train, rows))

    def test_cv_interface_and_bounds(self, rng):
        res = simulate_bkt(SimSpec(30, 4, 5, seed=3))
        ds = res.dataset
        model = BktModel(seed=0).fit(ds)
        preds = model.predict(ds.keys())
        assert np.all((preds >= 0) & (preds <= 1))

    def test_gap_attempts_marginalized(self):
        # attempts 1 and 3 known, attempt 2 held out: prediction for attempt 3
        # must roll the belief through a learn-only step at attempt 2
        p = BktParams(0.4, 0.3, 0.1, 0.2)
        ds = Dataset.from_records(
            make_records([("L1", "Q1", 1, 1)] + [("L2", "Q1", a, 1) for a in (1, 2, 3)])
        )
        model = BktModel(seed=0).fit(ds)
        model.fit_result.question_params["Q1"] = p
        belief = p.p_init
        belief = bkt_posterior_update(belief, 1, p)
        belief = belief + (1 - belief) * p.p_learn  # gap at attempt 2
        expected = bkt_predict_next(belief, p)
        got = model.predict([("L1", "Q1", 3)])[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_unseen_question_uses_fallback(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1), ("L2", "Q1", 1, 0)]))
        model = BktModel(seed=0).fit(ds)
        pred = model.predict([("L1", "QX", 1)])[0]
        fb = model.fit_result.fallback
        assert pred == pytest.approx(bkt_predict_next(fb.p_init, fb))

    def test_individualized_offsets_fit(self):
        res = simulate_bkt(SimSpec(12, 3, 5, seed=4))
        model = BktModel(seed=0, individualized=True).fit(res.dataset)
        assert set(model.fit_result.learner_offsets) == set(res.dataset.learner_index)
        preds = model.predict(res.dataset.keys())
        assert np.all((preds >= 0) & (preds <= 1))

    def test_export_json(self):
        res = simulate_bkt(SimSpec(10, 2, 4, seed=6))
        model = BktModel(seed=0).fit(res.dataset)
        payload = model.export_json()
        assert set(payload) == {"Q1", "Q2"}
        assert set(payload["Q1"]) == {"p_init", "p_learn", "p_slip", "p_guess"}
