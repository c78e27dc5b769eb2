"""A tiny-size run of each workload prints every named metric with its unit and direction."""

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest

import harness
import run
import workloads as wl

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SHAPES = {"cv-lesson": (10, 4, 4), "tune-slice": (12, 4, 4), "bulk-log": (30, 6, 4)}
# Per-layer metrics that must be nonzero on the workload where they should move.
MOVES_ON = {
    "cv-lesson": ("bkt.fit_s", "bkt.em_s", "pfa.fit_s", "pfa.features_s", "sparfa.fit_s",
                  "tensor.fit_s", "tensor.als_calls", "gbt.fit_s", "metrics.cv_self_s"),
    "tune-slice": ("tuner.configs", "tuner.config_s", "tuner.pool_busy_frac",
                   "tuner.dispatch_bytes", "gbt.trees_built", "gbt.apply_calls"),
    "bulk-log": ("data.parse_s", "data.rows_parsed", "data.from_records_s", "data.subset_calls",
                 "llm.encode_s", "llm.script_s", "llm.send_s", "llm.decode_s",
                 "llm.decoded_records", "llm.decode_yield", "cli.bytes_written", "gbt.fit_s"),
}


def test_benchmark_json_matches_the_workloads():
    assert run.WORKLOADS == tuple(wl.WORKLOADS)
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _, _) in harness.PER_LAYER.items()]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace, tmp_path, capsys):
    workload = dataclasses.replace(wl.WORKLOADS[name], shape=TINY_SHAPES[name])
    assert harness.main(workload, seed=3, seconds=0.0, trace=trace, base=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2].removeprefix("context: "))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, context["failures"]

    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    table = {line.split()[0]: line.split()[2:] for line in lines[:-2]}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]] == [m["unit"], m["better"], "is", "better"]

    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    assert all(values[k] > 0 for k in MOVES_ON[name]), {k: values[k] for k in MOVES_ON[name]}
    for cmd in context["traced_commands"]:
        # Layer self times plus the residual outside cli.main make up the wall time.
        assert 0 <= cmd["untraced_residual_s"] < 0.01 + 0.05 * cmd["wall_s"]
        assert sum(cmd["self_s_by_layer"].values()) + cmd["untraced_residual_s"] == pytest.approx(cmd["wall_s"])
