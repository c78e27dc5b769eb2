"""Output checks: a corrupted or failed command counts as a failed operation."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness
import workloads as wl

TINY = wl.Workload("tiny", "checks", (12, 4, 4), ("gbt",), tune=True, llm_run=True)


def make_runner(tmp_path):
    inputs = tmp_path / "inputs"
    wl.make_inputs(TINY, seed=5, directory=inputs)
    return harness.Runner(TINY, inputs, tmp_path / "out", workers=1)


def command(runner, kind):
    return next(c for c in runner.cmds if c.kind == kind)


def fake_main(write):
    """A stand-in for lppred.cli.main that writes ``write(out)`` and exits 0."""

    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        write(out)
        return 0

    return main


def test_real_outputs_pass(tmp_path):
    runner = make_runner(tmp_path)
    for cmd in runner.cmds:
        runner.run(cmd)
    runner.cross_check()
    assert runner.failures == []
    assert runner.attempted == len(runner.cmds) == 3


def test_corrupted_cv_report_is_a_failed_operation(tmp_path, monkeypatch):
    runner = make_runner(tmp_path)
    bad = {"gbt": {"fold_rmse": [0.4, 0.5, 1.5, 0.4, 0.5], "mean": 0.66, "se": 0.1, "dataset": ""}}
    monkeypatch.setattr(harness.cli, "main", fake_main(
        lambda out: (out / "report.json").write_text(json.dumps(bad))))
    runner.run(command(runner, "cv"))
    assert runner.attempted == 1
    assert len(runner.failures) == 1 and "fold RMSEs" in runner.failures[0]


def test_missing_report_and_nonzero_exit_fail(tmp_path):
    cmd = wl.Command("cv gbt", "cv", (), tmp_path / "missing")
    assert not wl.check(cmd, 0).ok
    assert wl.check(cmd, 3).reason == "exit code 3"


def test_tune_with_a_failed_entry_fails(tmp_path, monkeypatch):
    runner = make_runner(tmp_path)
    entry = {"config": wl.DEFAULT_CONFIG, "mean_rmse": 0.5}
    report = {"n_evaluated": runner.slice_size - 1, "n_failures": 1, "summary": {"mean": 0.5},
              "entries": [entry] * (runner.slice_size - 1)}
    monkeypatch.setattr(harness.cli, "main", fake_main(
        lambda out: (out / "tune.json").write_text(json.dumps(report))))
    runner.run(command(runner, "tune"))
    assert runner.failures == [f"tune: tune.json evaluated {runner.slice_size - 1} with 1 failures, "
                               f"slice has {runner.slice_size}"]


def test_llm_run_with_imputed_rows_or_missing_predictions_fails(tmp_path):
    runner = make_runner(tmp_path)
    cmd = command(runner, "llm-run")
    runner.run(cmd)
    assert wl.check(cmd, 0, test_rows=runner.test_rows).ok
    assert "rows" in wl.check(cmd, 0, test_rows=runner.test_rows + 1).reason
    report_path = cmd.out / "report.json"
    report = json.loads(report_path.read_text())
    report["imputed_per_run"][0] = 2
    report_path.write_text(json.dumps(report))
    assert "imputed" in wl.check(cmd, 0, test_rows=runner.test_rows).reason


def test_outputs_that_change_between_runs_fail(tmp_path, monkeypatch):
    runner = make_runner(tmp_path)
    cmd = command(runner, "cv")
    runner.run(cmd)
    report = json.loads((cmd.out / "report.json").read_text())
    report["gbt"]["fold_rmse"][0] += 1e-9
    monkeypatch.setattr(harness.cli, "main", fake_main(
        lambda out: (out / "report.json").write_text(json.dumps(report))))
    runner.run(cmd)
    assert runner.attempted == 2
    assert runner.failures == ["cv gbt: outputs differ between runs of one seed"]
