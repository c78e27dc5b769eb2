import math

import numpy as np
import pytest

from lppred.bkt import BktModel
from lppred.data import Dataset
from lppred.gbt import GbtModel
from lppred.metrics import (
    CvReport,
    FoldFitError,
    LocalModel,
    cross_validate,
    format_cell,
    report_table,
    reports_to_json,
    rmse,
)
from lppred.pfa import PfaModel
from lppred.sparfa import SparfaModel
from lppred.tensor import TensorFactorizationModel

from conftest import make_records, random_dataset


class TestRmse:
    def test_identity(self):
        assert rmse([0.0, 1.0, 1.0], [0, 1, 1]) == 0.0

    def test_symmetric_half(self):
        assert rmse([0.5, 0.5], [0, 1]) == pytest.approx(0.5)

    def test_hand_case(self):
        # sqrt((0.01 + 0.04 + 0.36) / 3), evaluated by hand
        expected = math.sqrt((0.1**2 + 0.2**2 + 0.6**2) / 3)
        assert expected == pytest.approx(0.3697, abs=1e-4)
        assert rmse([0.9, 0.2, 0.4], [1, 0, 1]) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([0.5], [0, 1])

    def test_empty(self):
        with pytest.raises(ValueError):
            rmse([], [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rmse([1.2], [1])
        with pytest.raises(ValueError):
            rmse([0.5], [2])

    def test_rejects_nan_prediction(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            rmse([0.5, math.nan], [0, 1])

    def test_nan_prediction_fails_cross_validation(self, rng):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            cross_validate(lambda s: ConstantPredictor(math.nan), random_dataset(rng, n_rows=20), k=2, seed=0)

    def test_joint_permutation_invariance(self, rng):
        p = rng.random(30)
        a = rng.integers(0, 2, 30)
        perm = rng.permutation(30)
        assert rmse(p, a) == pytest.approx(rmse(p[perm], a[perm]), abs=1e-15)

    def test_bounded_by_unit_interval(self, rng):
        for _ in range(20):
            p = rng.random(15)
            a = rng.integers(0, 2, 15)
            assert 0.0 <= rmse(p, a) <= 1.0


class ConstantPredictor:
    def __init__(self, value=0.5):
        self.value = value

    def fit(self, train):
        return self

    def predict(self, rows):
        return np.full(len(rows), self.value)


class ProbePredictor:
    """Records everything the harness hands it; predicts 0.5."""

    def __init__(self):
        self.train_keys = None
        self.predict_rows = None

    def fit(self, train):
        self.train_keys = set(train.keys())
        return self

    def predict(self, rows):
        self.predict_rows = list(rows)
        return np.full(len(rows), 0.5)


class TestCrossValidate:
    def balanced_dataset(self):
        rows = []
        for i in range(20):
            rows.append((f"L{i+1}", "Q1", 1, i % 2))
        return Dataset.from_records(make_records(rows))

    def test_constant_half_on_balanced(self):
        ds = self.balanced_dataset()
        report = cross_validate(lambda s: ConstantPredictor(), ds, k=2, seed=1)
        # every fold of a balanced dataset scores exactly 0.5 against 0.5
        # only when folds are themselves balanced; with k=10 each fold of
        # two rows may be unbalanced, yet 0.5 predictions still give 0.5
        assert all(f == pytest.approx(0.5) for f in report.fold_rmse)

    def test_harness_withholds_test_outcomes(self, rng):
        ds = random_dataset(rng, n_rows=20)
        probes = []

        def factory(seed):
            probe = ProbePredictor()
            probes.append(probe)
            return probe

        cross_validate(factory, ds, k=4, seed=0)
        all_keys = set(ds.keys())
        for probe in probes:
            test_keys = set(probe.predict_rows)
            assert test_keys.isdisjoint(probe.train_keys)
            assert test_keys | probe.train_keys == all_keys

    def test_constant_predictor_fold_rmse_analytic(self, rng):
        # with a constant predictor, each fold's RMSE is a closed-form
        # function of that fold's label composition
        ds = random_dataset(rng, n_rows=30)
        from lppred.data import make_folds

        c = 0.3
        k, seed = 3, 11
        report = cross_validate(lambda s: ConstantPredictor(c), ds, k=k, seed=seed)
        split = make_folds(ds, k, seed)
        for fold in range(k):
            labels = ds.obs_array(split.fold_positions(fold))
            expected = np.sqrt(np.mean((c - labels) ** 2))
            assert report.fold_rmse[fold] == pytest.approx(expected, abs=1e-12)

    def test_requires_fully_labeled(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1), ("L1", "Q1", 2, None)]))
        with pytest.raises(ValueError):
            cross_validate(lambda s: ConstantPredictor(), ds, k=2)

    def test_fold_failure_annotated(self, rng):
        ds = random_dataset(rng, n_rows=12)

        class Exploding:
            def fit(self, train):
                raise RuntimeError("boom")

            def predict(self, rows):
                raise AssertionError

        with pytest.raises(FoldFitError, match="fold 0"):
            cross_validate(lambda s: Exploding(), ds, k=3, seed=0)

    def test_distinct_fold_seeds(self, rng):
        ds = random_dataset(rng, n_rows=12)
        seeds = []

        def factory(seed):
            seeds.append(seed)
            return ConstantPredictor()

        cross_validate(factory, ds, k=3, seed=5)
        assert len(set(seeds)) == 3


class TestReports:
    def test_cell_format(self):
        assert format_cell(0.430, 0.004) == "0.430_{0.004}"

    def test_report_invariants(self):
        rep = CvReport("m", (0.4, 0.5, 0.6))
        assert rep.mean_rmse == pytest.approx(0.5)
        assert rep.std_error == pytest.approx(np.std([0.4, 0.5, 0.6], ddof=1) / math.sqrt(3))
        with pytest.raises(ValueError):
            CvReport("m", ())
        for bad in (-0.1, math.nan, math.inf, 1.5, True):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                CvReport("m", (0.4, bad))

    def test_table_marks_all_minima(self):
        reports = [
            CvReport("a", (0.4, 0.4), dataset="d1"),
            CvReport("b", (0.4, 0.4), dataset="d1"),
            CvReport("c", (0.5, 0.5), dataset="d1"),
        ]
        table = report_table(reports)
        lines = {line.split()[0]: line for line in table.splitlines()[2:5]}
        assert lines["a"].rstrip().endswith("*")
        assert lines["b"].rstrip().endswith("*")
        assert not lines["c"].rstrip().endswith("*")

    def test_single_cell_value(self):
        rep = CvReport("bkt", (0.426, 0.434, 0.428, 0.432, 0.430), dataset="lesson1")
        assert format_cell(rep.mean_rmse, rep.std_error).startswith("0.430_{")
        assert "0.430_{" in report_table([rep])

    def test_json_shape(self):
        import json

        payload = json.loads(reports_to_json([CvReport("bkt", (0.4, 0.5))]))
        assert set(payload) == {"bkt"}
        assert payload["bkt"]["fold_rmse"] == [0.4, 0.5]
        assert "mean" in payload["bkt"] and "se" in payload["bkt"]

    def test_json_nested_for_multiple_datasets(self):
        import json

        payload = json.loads(
            reports_to_json(
                [CvReport("bkt", (0.4,), dataset="d1"), CvReport("bkt", (0.5,), dataset="d2")]
            )
        )
        assert set(payload["bkt"]) == {"d1", "d2"}


@pytest.mark.filterwarnings("ignore")  # a fitter may warn that it stopped early on this small set
@pytest.mark.parametrize(
    "cls", [BktModel, PfaModel, SparfaModel, TensorFactorizationModel, GbtModel], ids=lambda cls: cls.__name__
)
def test_local_model_is_used_through_its_fitted_record(cls):
    """Before fit, predict and export_json name the class; after it, the export is the record's."""
    assert issubclass(cls, LocalModel)
    assert {"fit", "predict"} <= set(vars(cls))  # the bench wraps each class's own methods
    model = cls(seed=0)
    for use in (lambda: model.predict([("L1", "Q1", 1)]), model.export_json):
        with pytest.raises(RuntimeError, match=f"^{cls.__name__} used before fit$"):
            use()
    model.fit(random_dataset(np.random.default_rng(0)))
    assert model.export_json() == model.model.to_dict()
    assert model.predict([("L1", "Q1", 1)]).shape == (1,)
