"""Summarize the records in bench/results into bench/baseline.json.

    python3 bench/summarize.py

For each workload: the median, quartiles and quartile spread (as a share of
the median) of every end-to-end metric over the untraced records, the
per-layer metrics of the traced record(s) with their tracing overhead, and
the machine record. Run the workloads first, ten seeds untraced and one
traced each, e.g.:

    for w in cv-lesson tune-slice bulk-log; do
      for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 bench/run.py --workload $w --seed $s --seconds 36 --trace 0
      done
      python3 bench/run.py --workload $w --seed 1 --seconds 36 --trace 1
    done
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def _records(results: Path, pattern: str) -> list[dict]:
    records = [json.loads(p.read_text(encoding="utf-8")) for p in results.glob(pattern)]
    return sorted(records, key=lambda r: r["context"]["machine"]["workload_seed"])


def summarize(results: Path) -> dict:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        untraced = _records(results, f"{name}-seed*-trace0.json")
        traced = _records(results, f"{name}-seed*-trace1.json")
        if not untraced:
            continue
        entry = {
            "why": workload["why"],
            "seeds": [r["context"]["machine"]["workload_seed"] for r in untraced],
            "all_correct": all(r["correct"] for r in untraced + traced),
            "end_to_end": {
                m["name"]: {"unit": m["unit"],
                            **_spread([r["metrics"][m["name"]]["value"] for r in untraced])}
                for m in spec["end_to_end"]
            },
            # the same geometric mean in seconds, to show the drift command_ref removes
            "command_s": _spread([r["context"]["command_s"] for r in untraced]),
            "commands_median_s": {
                label: statistics.median(r["context"]["commands"][label]["median_s"] for r in untraced)
                for label in untraced[0]["context"]["commands"]
            },
            # RMSEs depend on the seed: those of the first record, beside its constant-mean reference
            "first_seed_rmse": {
                "commands": {label: c["rmse"] for label, c in untraced[0]["context"]["commands"].items()},
                "const_mean": untraced[0]["context"]["const_mean_rmse"],
            },
            "machine": untraced[0]["context"]["machine"],
        }
        for key in ("configs_per_s", "llm_rows_per_s"):
            if key in untraced[0]["context"]:
                entry[key] = statistics.median(r["context"][key] for r in untraced)
        if traced:
            entry["traced"] = [{
                "seed": r["context"]["machine"]["workload_seed"],
                "trace_overhead": r["context"]["trace_overhead"],
                "per_layer": {k: v["value"] for k, v in r["metrics"].items()},
                "commands": r["context"]["traced_commands"],
            } for r in traced]
        out["workloads"][name] = entry
    return out


if __name__ == "__main__":
    baseline = summarize(BENCH / "results")
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    for name, entry in baseline["workloads"].items():
        for metric, stats in entry["end_to_end"].items():
            print(f"{name:<11} {metric:<12} median {stats['median']:.4g} spread {stats['spread']:.3f}")
