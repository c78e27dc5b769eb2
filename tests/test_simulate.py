import numpy as np
import pytest
from scipy import stats

from lppred.bkt import BktParams
from lppred.data import Dataset
from lppred.simulate import SimSpec, simulate, simulate_bkt, simulate_lowrank

from conftest import rows_of

NEAR_ZERO = 1e-9


class TestSpec:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            SimSpec(0, 5, 3)

    def test_generator_validated(self):
        with pytest.raises(ValueError):
            SimSpec(5, 5, 3, generator="nope")

    def test_mask_fraction_validated(self):
        with pytest.raises(ValueError):
            SimSpec(5, 5, 3, mask_fraction=1.0)

    @pytest.mark.parametrize("generator, field, value", [
        ("bkt-process", "mask_fraction", 0.5),
        ("low-rank-matrix", "stop_on_correct", True),
        ("low-rank-tensor", "bkt", BktParams(0.3, 0.2, 0.1, 0.2)),
    ], ids=["bkt-process-mask", "low-rank-matrix-stop-on-correct", "low-rank-tensor-bkt"])
    def test_field_the_generator_ignores_is_rejected(self, generator, field, value):
        with pytest.raises(ValueError, match=f"{field} is not used by the {generator} generator"):
            SimSpec(5, 5, 3, generator=generator, **{field: value})


class TestBktProcess:
    def test_noiseless_mastered_all_correct(self):
        params = BktParams(1 - NEAR_ZERO, NEAR_ZERO, NEAR_ZERO, NEAR_ZERO)
        res = simulate_bkt(SimSpec(20, 5, 5, seed=0, bkt=params))
        assert (res.dataset.obs == 1).all()

    def test_law_of_large_numbers_guess_rate(self):
        # no learning, never mastered: correctness is pure guessing at 0.2
        params = BktParams(NEAR_ZERO, NEAR_ZERO, NEAR_ZERO, 0.2)
        res = simulate_bkt(SimSpec(2000, 1, 5, seed=1, bkt=params))
        rate = np.mean(res.dataset.obs)
        assert rate == pytest.approx(0.2, abs=0.03)

    def test_seed_determinism(self):
        spec = SimSpec(10, 4, 5, seed=33)
        a = simulate_bkt(spec)
        b = simulate_bkt(spec)
        assert rows_of(a.dataset) == rows_of(b.dataset)
        assert a.truth["mastery"] == b.truth["mastery"]

    def test_mastery_traces_align_with_records(self):
        res = simulate_bkt(SimSpec(5, 3, 4, seed=2))
        for key, chain in res.truth["mastery"].items():
            lid, qid = key.split("|")
            n_attempts = sum(1 for key in res.dataset.keys() if key[:2] == (lid, qid))
            assert len(chain) == n_attempts

    def test_stop_on_correct_truncates(self):
        params = BktParams(1 - NEAR_ZERO, NEAR_ZERO, NEAR_ZERO, NEAR_ZERO)
        res = simulate_bkt(SimSpec(10, 3, 6, seed=3, bkt=params, stop_on_correct=True))
        assert (res.dataset.attempt == 1).all()

    def test_dataset_passes_validation(self):
        res = simulate_bkt(SimSpec(30, 6, 5, seed=4))
        rebuilt = Dataset.from_records(rows_of(res.dataset), res.dataset.meta)
        assert rebuilt.meta == res.dataset.meta
        assert (rebuilt.n_learners, rebuilt.n_questions, rebuilt.max_attempt) == (
            res.dataset.n_learners, res.dataset.n_questions, res.dataset.max_attempt
        )
        assert rows_of(rebuilt) == rows_of(res.dataset)

    def test_chi_square_emission_frequencies(self):
        # mastered forever: correctness ~ Bernoulli(1 - p_slip)
        params = BktParams(1 - NEAR_ZERO, NEAR_ZERO, 0.15, NEAR_ZERO)
        res = simulate_bkt(SimSpec(2000, 1, 5, seed=5, bkt=params))
        obs = res.dataset.obs
        counts = np.array([(obs == 0).sum(), (obs == 1).sum()])
        expected = np.array([0.15, 0.85]) * len(obs)
        assert stats.chisquare(counts, expected).pvalue > 0.01


class TestLowRank:
    def test_lesson3_shape(self):
        res = simulate_lowrank(SimSpec(86, 11, 5, generator="low-rank-tensor", rank=2, seed=0))
        ds = res.dataset
        assert (ds.n_learners, ds.n_questions, ds.max_attempt) == (86, 11, 5)

    def test_mask_count_exact_floor(self):
        spec = SimSpec(10, 10, 1, generator="low-rank-matrix", rank=2, seed=1, mask_fraction=0.2)
        res = simulate_lowrank(spec)
        assert len(res.dataset.unlabeled_positions()) == int(np.floor(0.2 * 100))
        assert len(res.truth["masked"]) == 20

    def test_rank1_constant_factors_constant_probability(self):
        # rank-1 tensor with constant factors: every cell has the same product
        spec = SimSpec(4, 3, 2, generator="low-rank-tensor", rank=1, seed=2)
        res = simulate_lowrank(spec)
        probs = res.truth["probs"]
        u = res.truth["learner_factors"]
        v = res.truth["qa_factors"]
        manual = np.einsum("lr,rqa->lqa", u, v).clip(0, 1)
        assert np.allclose(probs, manual)

    def test_matrix_mode_single_attempt(self):
        res = simulate_lowrank(SimSpec(6, 4, 1, generator="low-rank-matrix", rank=2, seed=3))
        assert (res.dataset.attempt == 1).all()

    def test_truth_json_serializes(self):
        res = simulate_lowrank(SimSpec(5, 4, 2, generator="low-rank-tensor", rank=2, seed=4))
        import json

        payload = json.loads(res.truth_json())
        assert "probs" in payload and "obs" in payload

    def test_logistic_frequencies_chi_square(self):
        spec = SimSpec(50, 8, 1, generator="low-rank-matrix", rank=2, seed=6)
        res = simulate_lowrank(spec)
        probs = res.truth["probs"].ravel()
        obs = np.array(
            [res.truth["obs"][f"L{li+1}|Q{qi+1}|1"] for li in range(50) for qi in range(8)]
        )
        # grouped z-test via chi-square on total successes
        expected_mean = probs.mean() * len(obs)
        counts = np.array([len(obs) - obs.sum(), obs.sum()])
        expected = np.array([len(obs) - expected_mean, expected_mean])
        assert stats.chisquare(counts, expected).pvalue > 0.01

    def test_dispatch(self):
        assert simulate(SimSpec(4, 3, 1, generator="low-rank-matrix", seed=0)).dataset
        assert simulate(SimSpec(4, 3, 2, seed=0)).dataset
