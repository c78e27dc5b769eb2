import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lppred.data import DataError, Dataset
from lppred.gbt import GbtConfig, GbtModel, gbt_eval_lockstep
from lppred.metrics import cross_validate
from lppred.simulate import SimSpec, simulate_bkt
from lppred.tuner import (
    CyclingProposalClient,
    Grid,
    TuneReport,
    default_grid,
    format_summary_rows,
    grid_search,
    llm_tuning_loop,
    parse_config_proposal,
)

from conftest import rows_of


@pytest.fixture(scope="module")
def small_ds():
    return simulate_bkt(SimSpec(12, 3, 3, seed=5, stop_on_correct=True)).dataset


def tiny_grid():
    return Grid(
        n_trees=(5, 10),
        learning_rate=(0.1,),
        max_depth=(2,),
        subsample=(1.0,),
        colsample_bytree=(1.0,),
        gamma=(0.0,),
        min_child_weight=(1.0,),
    )


class TestGrid:
    def test_default_grid_enumerates_1296(self):
        grid = default_grid()
        assert grid.size == 1296
        combos = grid.combinations()
        assert len(combos) == 1296
        assert len(set(tuple(sorted(c.to_dict().items())) for c in combos)) == 1296

    def test_grid_json_round_trip(self):
        grid = tiny_grid()
        back = Grid.from_json(json.dumps({k: list(v) for k, v in grid.__dict__.items()}))
        assert back == grid


class TestGridSearch:
    def test_single_combination_degenerate_summary(self, small_ds):
        grid = Grid(
            n_trees=(10,), learning_rate=(0.1,), max_depth=(2,),
            subsample=(1.0,), colsample_bytree=(1.0,), gamma=(0.0,), min_child_weight=(1.0,),
        )
        report = grid_search(small_ds, grid, k=3, seed=0)
        s = report.summary()
        assert s["mean"] == s["median"] == s["min"] == s["max"]
        assert s["std"] == 0.0

    def test_best_config_reproduces_standalone(self, small_ds):
        report = grid_search(small_ds, tiny_grid(), k=3, seed=7)
        best = report.best
        again = cross_validate(
            lambda s: GbtModel(best.config, seed=s), small_ds, k=3, seed=7
        )
        assert again.mean_rmse == pytest.approx(best.mean_rmse, abs=1e-15)

    def test_summary_consistent_with_entries(self, small_ds):
        report = grid_search(small_ds, tiny_grid(), k=3, seed=1)
        values = np.array([e.mean_rmse for e in report.entries])
        s = report.summary()
        assert s["mean"] == pytest.approx(values.mean())
        assert s["median"] == pytest.approx(np.median(values))
        assert s["std"] == pytest.approx(values.std(ddof=0))
        assert s["min"] == pytest.approx(values.min())
        assert s["max"] == pytest.approx(values.max())
        assert report.best.mean_rmse == s["min"]

    def test_parallel_matches_serial(self, small_ds):
        serial = grid_search(small_ds, tiny_grid(), k=3, seed=3, workers=1)
        parallel = grid_search(small_ds, tiny_grid(), k=3, seed=3, workers=2)
        assert [e.mean_rmse for e in serial.entries] == [e.mean_rmse for e in parallel.entries]

    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n_trees=st.lists(st.integers(0, 12), min_size=1, max_size=4),
        subsample=st.lists(st.sampled_from([0.5, 0.8, 1.0]), min_size=1, max_size=2, unique=True),
        colsample=st.sampled_from([(2 / 3,), (1.0,), (1.0, 0.4)]),
    )
    @example(n_trees=[7, 0, 3, 7], subsample=[0.8], colsample=(2 / 3,))
    def test_every_entry_equals_standalone_cv(self, small_ds, workers, n_trees, subsample, colsample):
        grid = dataclasses.replace(
            tiny_grid(), n_trees=tuple(n_trees), subsample=tuple(subsample), colsample_bytree=colsample
        )
        report = grid_search(small_ds, grid, k=3, seed=11, workers=workers)
        assert not report.failures
        assert [e.config for e in report.entries] == grid.combinations()
        for entry in report.entries:
            standalone = cross_validate(lambda s: GbtModel(entry.config, seed=s), small_ds, k=3, seed=11)
            assert entry.mean_rmse == standalone.mean_rmse

    def test_failures_recorded_and_excluded(self, small_ds, monkeypatch):
        import lppred.tuner as tuner_mod

        def flaky_fit(trains, config, seeds, evals, stages):
            if config.max_depth == 2:
                raise RuntimeError("synthetic failure")
            return gbt_eval_lockstep(trains, config, seeds, evals, stages)

        monkeypatch.setattr(tuner_mod, "gbt_eval_lockstep", flaky_fit)
        grid = dataclasses.replace(tiny_grid(), max_depth=(2, 3))  # two n_trees groups
        report = grid_search(small_ds, grid, k=3, seed=0)
        configs = grid.combinations()
        failed = [i for i, c in enumerate(configs) if c.max_depth == 2]
        assert [i for i, _ in report.failures] == failed
        assert all("synthetic failure" in msg for _, msg in report.failures)
        assert [e.config for e in report.entries] == [c for c in configs if c.max_depth == 3]
        for entry in report.entries:
            standalone = cross_validate(lambda s: GbtModel(entry.config, seed=s), small_ds, k=3, seed=0)
            assert entry.mean_rmse == standalone.mean_rmse

    @pytest.mark.parametrize("method", ["grid-1", "grid-2", "llm"])
    def test_a_data_error_stops_the_search(self, small_ds, method):
        """The data fails every configuration alike: no group records it, the search raises it."""
        ds = Dataset.from_records(rows_of(small_ds) + [("LX", "Q1", 1, None)])
        client = CyclingProposalClient()
        with pytest.raises(DataError, match="cross-validation needs every row labeled; 1 rows have no obs"):
            if method == "llm":
                llm_tuning_loop(ds, client, budget=4, k=3)
            else:
                grid = dataclasses.replace(tiny_grid(), max_depth=(2, 3))  # two n_trees groups
                grid_search(ds, grid, k=3, workers=int(method[-1]))
        assert len(client.calls) == (1 if method == "llm" else 0)

    def test_sweep_keeps_no_trees(self, small_ds, monkeypatch):
        """A serial sweep scores held-out rows while boosting: no node, apply or loss trace."""
        import lppred.gbt as gbt_mod

        calls = dict.fromkeys(("TreeNode", "apply", "_logloss"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gbt_mod.TreeNode, "__init__", counted("TreeNode", gbt_mod.TreeNode.__init__))
        monkeypatch.setattr(gbt_mod.TreeNode, "apply", counted("apply", gbt_mod.TreeNode.apply))
        monkeypatch.setattr(gbt_mod, "_logloss", counted("_logloss", gbt_mod._logloss))
        slice_grid = Grid(n_trees=(50, 100, 200), learning_rate=(0.1,), max_depth=(4,), subsample=(0.8, 1.0),
                          colsample_bytree=(0.8, 1.0), gamma=(0.0,), min_child_weight=(1.0,))
        report = grid_search(small_ds, slice_grid, k=3, seed=0, workers=1)
        assert len(report.entries) == 12 and not report.failures
        assert calls == dict.fromkeys(calls, 0)
        # the patches do see a fit that keeps its trees
        model = GbtModel(GbtConfig(n_trees=2, subsample=0.8)).fit(small_ds).model
        assert len(model.train_logloss) == 3
        assert all(calls.values()), calls

    def test_five_column_text_format(self, small_ds):
        report = grid_search(small_ds, tiny_grid(), k=3, seed=0)
        text = report.summary_text()
        header = text.splitlines()[0].split()
        assert header == ["Method", "Mean", "Median", "Std.", "Min.", "Max."]


def proposal(**overrides):
    """One braced configuration block; ``overrides`` replace the text of a field's value."""
    values = {"n_trees": "100", "learning_rate": "0.1", "max_depth": "4", "subsample": "0.8",
              "colsample_bytree": "1.0", "gamma": "0.0", "min_child_weight": "3", **overrides}
    return "{" + ", ".join(f"'{name}': {value}" for name, value in values.items()) + "}"


class TestProposalParsing:
    def test_full_config_parsed(self):
        text = (
            "Try {'n_trees': 100, 'learning_rate': 0.1, 'max_depth': 4, 'subsample': 0.8, "
            "'colsample_bytree': 1.0, 'gamma': 0.0, 'min_child_weight': 3}"
        )
        config = parse_config_proposal(text)
        assert config == GbtConfig(
            n_trees=100, learning_rate=0.1, max_depth=4, subsample=0.8,
            colsample_bytree=1.0, gamma=0.0, min_child_weight=3.0,
        )

    def test_missing_key_unparsable(self):
        assert parse_config_proposal("{'n_trees': 100}") is None

    def test_invalid_values_unparsable(self):
        text = (
            "{'n_trees': 100, 'learning_rate': -0.1, 'max_depth': 4, 'subsample': 0.8, "
            "'colsample_bytree': 1.0, 'gamma': 0.0, 'min_child_weight': 3}"
        )
        assert parse_config_proposal(text) is None

    @pytest.mark.parametrize("name, value", [("n_trees", "inf"), ("max_depth", "4.9"),
                                             ("gamma", "inf"), ("learning_rate", "nan")])
    def test_non_finite_or_fractional_values_unparsable(self, name, value):
        assert parse_config_proposal(proposal(**{name: value})) is None

    def test_whole_values_of_integer_fields_may_carry_a_point(self):
        config = parse_config_proposal(proposal(n_trees="100.0", max_depth="4.0"))
        assert (config.n_trees, config.max_depth) == (100, 4)
        assert type(config.n_trees) is int and type(config.max_depth) is int

    def test_second_block_used_when_the_first_is_unusable(self):
        config = parse_config_proposal(f"Try {proposal(n_trees='inf')} or else {proposal(n_trees='50')}")
        assert config == GbtConfig(n_trees=50, learning_rate=0.1, max_depth=4, subsample=0.8,
                                   colsample_bytree=1.0, gamma=0.0, min_child_weight=3.0)


class TestLlmLoop:
    def test_budget_accounting(self, small_ds):
        report = llm_tuning_loop(small_ds, CyclingProposalClient(), budget=5, k=3, seed=0)
        assert len(report.entries) == 5
        assert report.method == "llm"

    def test_history_grows_one_pair_per_iteration(self, small_ds):
        client = CyclingProposalClient()
        llm_tuning_loop(small_ds, client, budget=4, k=3, seed=0)
        history_lines = []
        for call in client.calls:
            text = call[0]["content"]
            history_lines.append(text.count("} -> "))
        assert history_lines == [0, 1, 2, 3]

    def test_unparsable_proposal_reprompts_then_falls_back(self, small_ds):
        class Mumbler:
            def __init__(self):
                self.calls = 0

            def send(self, messages):
                self.calls += 1
                return "no structured config here"

        client = Mumbler()
        report = llm_tuning_loop(small_ds, client, budget=2, k=3, seed=0)
        assert client.calls == 4  # ask + one re-prompt per iteration
        assert len(report.entries) == 2
        assert len(report.failures) == 2
        assert all("random grid point" in msg for _, msg in report.failures)

    @pytest.mark.parametrize("name, value", [("n_trees", "inf"), ("max_depth", "4.9")])
    def test_unusable_values_reprompt_then_fall_back(self, small_ds, name, value):
        class Proposer:
            def __init__(self):
                self.calls = 0

            def send(self, messages):
                self.calls += 1
                return f"Try this configuration next: {proposal(**{name: value})}"

        client = Proposer()
        report = llm_tuning_loop(small_ds, client, budget=1, k=3, seed=0)
        assert client.calls == 2
        assert len(report.entries) == 1
        assert report.failures == [(0, "unparsable proposal, random grid point used")]

    def test_doubling_budget_never_worsens_best(self, small_ds):
        small = llm_tuning_loop(small_ds, CyclingProposalClient(), budget=2, k=3, seed=0)
        large = llm_tuning_loop(small_ds, CyclingProposalClient(), budget=4, k=3, seed=0)
        assert large.best.mean_rmse <= small.best.mean_rmse

    def test_reproducible_with_mock_and_seed(self, small_ds):
        a = llm_tuning_loop(small_ds, CyclingProposalClient(), budget=3, k=3, seed=2)
        b = llm_tuning_loop(small_ds, CyclingProposalClient(), budget=3, k=3, seed=2)
        assert [e.mean_rmse for e in a.entries] == [e.mean_rmse for e in b.entries]


class TestSummaries:
    def test_format_rows_renders_all_five_columns(self):
        text = format_summary_rows(
            [
                ("grid", {"mean": 0.415, "median": 0.415, "std": 0.005, "min": 0.41, "max": 0.42}),
                ("llm", {"mean": 0.425, "median": 0.425, "std": 0.025, "min": 0.40, "max": 0.45}),
            ]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[2].split() == ["grid", "0.415", "0.415", "0.005", "0.410", "0.420"]
        assert lines[3].split()[0] == "llm"

    def test_report_json_shape(self, small_ds):
        report = grid_search(small_ds, tiny_grid(), k=3, seed=0)
        payload = json.loads(report.to_json())
        assert payload["method"] == "grid"
        assert payload["n_evaluated"] == 2
        assert set(payload["summary"]) == {"mean", "median", "std", "min", "max"}
        assert "config" in payload["best"]

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            TuneReport(method="grid", entries=[])
