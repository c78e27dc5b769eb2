"""One benchmark run: set-up, a closed loop of CLI commands, checks and metrics.

Untraced runs report the end-to-end metrics, timing each command in seconds
and in units of a reference kernel timed on the same CPU over the same
interval (see ``speed.py``), which cancels the host's drift in speed.
Single-process commands run pinned to the first usable CPU; ``tune`` and
its workers may use all of them. Traced runs alternate untraced
and traced passes over the workload's commands, report the per-layer
metrics per traced pass, and state the tracing overhead as the ratio of the
two kinds of pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from lppred import cli
from lppred.tuner import Grid

import spans
import workloads as wl
from speed import Speedometer, usable_cpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5

# (name, unit, direction); every untraced run prints all of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("command_ref", "ref", "lower"),
    ("rmse.gbt", "rmse", "lower"),
    ("rmse.mean", "rmse", "lower"),
)


# -- set-up ------------------------------------------------------------------------


def timed_setup(workload: wl.Workload, seed: int, directory: Path) -> float:
    """Seconds for a fresh interpreter to import lppred and write the inputs."""
    code = ("import json, sys; from pathlib import Path; import workloads as w; "
            "w.make_inputs(w.Workload(**json.loads(sys.argv[1])), int(sys.argv[2]), Path(sys.argv[3]))")
    path = [str(BENCH), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    start = time.perf_counter()
    spec = json.dumps(dataclasses.asdict(workload))
    subprocess.run([sys.executable, "-c", code, spec, str(seed), str(directory)],
                   check=True, env=env, timeout=150)
    return time.perf_counter() - start


# -- the closed loop -----------------------------------------------------------------


class Runner:
    """Runs the workload's commands in-process and checks every output."""

    def __init__(self, workload: wl.Workload, inputs: Path, out: Path, workers: int):
        self.cmds = wl.commands(workload, inputs, out, workers)
        self.speed: Speedometer | None = None  # set while untraced runs time commands
        self.all_cpus = usable_cpus()
        self.test_rows = wl.count_rows(inputs / "test.csv") if workload.llm_run else 0
        grid = inputs / "grid.json"
        self.slice_size = Grid.from_json(grid.read_text(encoding="utf-8")).size if workload.tune else 0
        self.times: dict[str, list[float]] = defaultdict(list)
        self.rel: dict[str, list[float]] = defaultdict(list)  # wall time / reference kernel time
        self.first: dict[str, wl.Outcome] = {}
        self.bytes_written: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.traced: list[dict] = []  # per traced command: wall, self time by layer, residual

    def run(self, cmd: wl.Command, tracer: spans.Tracer | None = None) -> None:
        if tracer is not None:
            before = dict(tracer.agg.self_s), dict(tracer.workers.self_s)
        cpus = self.all_cpus if cmd.kind == "tune" else self.all_cpus[:1]
        with pinned(cpus), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(list(cmd.argv))
            end = time.perf_counter()
        wall = end - start
        if tracer is None:
            self.times[cmd.label].append(wall)
            if self.speed is not None:
                self.rel[cmd.label].append(wall / self.speed.reference(start, end, cpus))
        self.attempted += 1
        outcome = wl.check(cmd, code, self.test_rows, self.slice_size)
        first = self.first.setdefault(cmd.label, outcome)
        if not outcome.ok:
            self.failures.append(f"{cmd.label}: {outcome.reason}")
        elif outcome.digest != first.digest:
            self.failures.append(f"{cmd.label}: outputs differ between runs of one seed")
        written = sum(p.stat().st_size for p in cmd.out.iterdir()) if cmd.out.is_dir() else 0
        self.bytes_written[cmd.label] = written
        if tracer is not None:
            tracer.count("cli.bytes_written", written)
            tracer.gather_workers()
            layers = _by_layer(tracer.agg.self_s, before[0])
            self.traced.append({
                "command": cmd.label,
                "wall_s": wall,
                "self_s_by_layer": layers,
                "untraced_residual_s": wall - sum(layers.values()),
                "worker_self_s_by_layer": _by_layer(tracer.workers.self_s, before[1]),
            })

    def cross_check(self) -> None:
        """The tune slice's default-config entry must equal the standalone cv of it."""
        tune, cv = self.first.get("tune"), self.first.get("cv gbt")
        if tune and cv and tune.ok and cv.ok:
            out = next(c.out for c in self.cmds if c.label == "tune")
            if not wl.tune_matches_cv(out, cv.rmse):
                self.failures.append("tune: default config RMSE differs from cv --model gbt")

    def expected(self, cmd: wl.Command) -> float:
        return statistics.median(self.times[cmd.label])


@contextlib.contextmanager
def pinned(cpus: list[int]):
    """Run the calling thread, and processes it starts, on ``cpus`` only."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _by_layer(now: dict, before: dict) -> dict[str, float]:
    layers: dict[str, float] = defaultdict(float)
    for name, value in now.items():
        layers[name.split(".", 1)[0]] += value - before.get(name, 0.0)
    return dict(layers)


def timed_loop(runner: Runner, seconds: float) -> int:
    """One whole pass, then further passes that skip any command whose median
    time would end past the deadline, until no command fits. Returns the
    number of whole passes."""
    deadline = time.perf_counter() + seconds
    for cmd in runner.cmds:
        runner.run(cmd)
    passes = 1
    while True:
        ran = 0
        for cmd in runner.cmds:
            if time.perf_counter() + runner.expected(cmd) <= deadline:
                runner.run(cmd)
                ran += 1
        if ran == 0:
            return passes
        passes += ran == len(runner.cmds)


def traced_loop(runner: Runner, seconds: float, tracer: spans.Tracer) -> dict[bool, list[float]]:
    """Alternate untraced and traced passes; at least one of each."""
    deadline = time.perf_counter() + seconds
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced = False
    while not (walls[traced] and time.perf_counter() + statistics.median(walls[traced]) > deadline):
        uninstall = spans.install(tracer) if traced else None
        start = time.perf_counter()
        try:
            for cmd in runner.cmds:
                runner.run(cmd, tracer if traced else None)
        finally:
            if uninstall:
                uninstall()
        walls[traced].append(time.perf_counter() - start)
        traced = not traced
    return walls


# -- metrics --------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, in MiB (Linux KiB units)."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def geomean_of_medians(samples: dict[str, list[float]]) -> float:
    """Geometric mean over commands of each command's median sample."""
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in samples.values()))


def end_to_end(runner: Runner, setup_times: list[float]) -> dict[str, float]:
    rmses = [o.rmse for o in runner.first.values()]
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "command_ref": geomean_of_medians(runner.rel),
        "rmse.gbt": runner.first["cv gbt"].rmse,
        "rmse.mean": statistics.fmean(rmses),
    }


def _config_median(a: spans.Aggregate, tracer: spans.Tracer) -> float:
    values = a.samples.get("tuner.config_s", [])
    return statistics.median(values) if values else 0.0


def _pool_busy(a: spans.Aggregate, tracer: spans.Tracer) -> float:
    """Worker busy time over (workers x grid_search wall time)."""
    search = tracer.agg.total_s.get("tuner.grid_search", 0.0) * tracer.pool_workers
    return sum(a.samples.get("tuner.config_s", [])) / search if search else 0.0


def _decode_yield(a: spans.Aggregate, tracer: spans.Tracer) -> float:
    decoded = a.counts.get("llm.decoded_records", 0.0)
    seen = decoded + a.counts.get("llm.rejected_records", 0.0)
    return decoded / seen if seen else 0.0


# name -> (unit, better, source, key). A string source names the Aggregate
# field read at ``key`` and divided by the number of traced passes; a
# callable source computes a ratio or median over the whole traced run.
PER_LAYER = {
    "data.parse_s": ("s", "lower", "self_s", "data.parse"),
    "data.rows_parsed": ("count", "lower", "counts", "data.rows_parsed"),
    "data.from_records_s": ("s", "lower", "self_s", "data.from_records"),
    "data.from_records_calls": ("count", "lower", "calls", "data.from_records"),
    "data.subset_s": ("s", "lower", "self_s", "data.subset"),
    "data.subset_calls": ("count", "lower", "calls", "data.subset"),
    "data.folds_s": ("s", "lower", "self_s", "data.folds"),
    "metrics.cv_self_s": ("s", "lower", "self_s", "metrics.cross_validate"),
    "metrics.rmse_s": ("s", "lower", "self_s", "metrics.rmse"),
    "metrics.folds_failed": ("count", "lower", "errors", "metrics.cross_validate:FoldFitError"),
    "bkt.fit_s": ("s", "lower", "self_s", "bkt.fit"),
    "bkt.em_s": ("s", "lower", "self_s", "bkt.em"),
    "bkt.predict_s": ("s", "lower", "self_s", "bkt.predict"),
    "pfa.fit_s": ("s", "lower", "self_s", "pfa.fit"),
    "pfa.features_s": ("s", "lower", "self_s", "pfa.features"),
    "pfa.predict_s": ("s", "lower", "self_s", "pfa.predict"),
    "sparfa.fit_s": ("s", "lower", "self_s", "sparfa.fit"),
    "sparfa.predict_s": ("s", "lower", "self_s", "sparfa.predict"),
    "tensor.fit_s": ("s", "lower", "self_s", "tensor.fit"),
    "tensor.als_s": ("s", "lower", "self_s", "tensor.als"),
    "tensor.als_calls": ("count", "lower", "calls", "tensor.als"),
    "tensor.predict_s": ("s", "lower", "self_s", "tensor.predict"),
    "gbt.fit_s": ("s", "lower", "self_s", "gbt.fit"),
    "gbt.fit_calls": ("count", "lower", "calls", "gbt.fit"),
    "gbt.trees_built": ("count", "lower", "counts", "gbt.trees_built"),
    "gbt.apply_s": ("s", "lower", "self_s", "gbt.apply"),
    "gbt.apply_calls": ("count", "lower", "calls", "gbt.apply"),
    "gbt.predict_s": ("s", "lower", "self_s", "gbt.predict"),
    "tuner.search_self_s": ("s", "lower", "self_s", "tuner.grid_search"),
    "tuner.configs": ("count", "higher", "counts", "tuner.configs"),
    "tuner.configs_failed": ("count", "lower", "counts", "tuner.configs_failed"),
    "tuner.config_s": ("s", "lower", _config_median, None),
    "tuner.pool_busy_frac": ("fraction", "higher", _pool_busy, None),
    "tuner.dispatch_bytes": ("bytes", "lower", "counts", "tuner.dispatch_bytes"),
    "llm.pipeline_self_s": ("s", "lower", "self_s", "llm.pipeline"),
    "llm.encode_s": ("s", "lower", "self_s", "llm.encode"),
    "llm.script_s": ("s", "lower", "self_s", "llm.script"),
    "llm.send_s": ("s", "lower", "self_s", "llm.send"),
    "llm.decode_s": ("s", "lower", "self_s", "llm.decode"),
    "llm.prompt_chars": ("chars", "lower", "counts", "llm.prompt_chars"),
    "llm.response_chars": ("chars", "lower", "counts", "llm.response_chars"),
    "llm.decoded_records": ("count", "higher", "counts", "llm.decoded_records"),
    "llm.rejected_records": ("count", "lower", "counts", "llm.rejected_records"),
    "llm.imputed_rows": ("count", "lower", "counts", "llm.imputed_rows"),
    "llm.decode_yield": ("fraction", "higher", _decode_yield, None),
    "cli.command_s": ("s", "lower", "total_s", "cli.main"),
    "cli.self_s": ("s", "lower", "self_s", "cli.main"),
    "cli.bytes_written": ("bytes", "lower", "counts", "cli.bytes_written"),
}


def per_layer(tracer: spans.Tracer, passes: int) -> dict[str, float]:
    """Per-layer values per traced pass, parent and worker spans together."""
    combined = spans.Aggregate()
    combined.merge(tracer.agg)
    combined.merge(tracer.workers)
    values = {}
    for name, (_, _, source, key) in PER_LAYER.items():
        if callable(source):
            values[name] = float(source(combined, tracer))
        else:
            values[name] = getattr(combined, source).get(key, 0) / passes
    return values


# -- the result record ----------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from files; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(workers: int, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": wl.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": {v: os.environ.get(v, "unset") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "tune_workers": workers,
        "workload_seed": seed,
        "commit": git_commit(ROOT),
    }


def run(workload: wl.Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One run of ``workload``; returns the result record with its metrics."""
    workers = wl.nproc()
    setup_dirs = [work / f"inputs-{i}" for i in range(SETUP_REPEATS)]
    setup_times = [timed_setup(workload, seed, d) for d in setup_dirs]
    inputs = setup_dirs[0]
    runner = Runner(workload, inputs, work / "out", workers)
    if len({wl.digest(d) for d in setup_dirs}) != 1:
        runner.failures.append("set-up: inputs differ between set-ups of one seed")
    context = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(workers, seed),
        "setup_s_samples": setup_times,
        "const_mean_rmse": wl.constant_mean_rmse(workload, inputs),
    }
    if trace:
        tracer = spans.Tracer(worker_dir=work, pool_workers=workers)
        walls = traced_loop(runner, seconds, tracer)
        n_traced = len(walls[True])
        metrics = {name: {"value": value, "unit": PER_LAYER[name][0]}
                   for name, value in per_layer(tracer, n_traced).items()}
        context["pass_wall_s"] = {"untraced": walls[False], "traced": walls[True]}
        context["trace_overhead"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        context["traced_commands"] = runner.traced
        context["span_self_s_per_pass"] = {
            "parent": {k: v / n_traced for k, v in sorted(tracer.agg.self_s.items())},
            "workers": {k: v / n_traced for k, v in sorted(tracer.workers.self_s.items())},
        }
    else:
        with Speedometer(runner.all_cpus) as runner.speed:
            context["passes"] = timed_loop(runner, seconds)
            values = end_to_end(runner, setup_times)
        context["command_s"] = geomean_of_medians(runner.times)
        context["reference_kernel_s"] = {
            cpu: statistics.median(d for _, d in samples) for cpu, samples in runner.speed.samples.items()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    runner.cross_check()
    context["commands"] = {
        label: {
            "n": len(times),
            "median_s": statistics.median(times),
            "samples_s": times,
            "samples_ref": runner.rel.get(label, []),
            "rmse": runner.first[label].rmse,
            "digest": runner.first[label].digest,
            "bytes_written": runner.bytes_written[label],
        }
        for label, times in runner.times.items()
    }
    if workload.tune:
        context["configs_per_s"] = runner.slice_size / statistics.median(runner.times["tune"])
    if workload.llm_run:
        rows = runner.test_rows * wl.LLM_REPEATS
        context["llm_rows_per_s"] = rows / statistics.median(runner.times["llm-run"])
    context["failures"] = runner.failures[:20]
    failed = min(len(runner.failures), runner.attempted)
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
        "context": context,
    }


def main(workload: wl.Workload, seed: int, seconds: float, trace: bool, base: Path = BENCH) -> int:
    """Run, keep the full record in ``base/results`` and print the metrics."""
    work = base / ".work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        record = run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = base / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    directions = {name: better for name, _, better in END_TO_END}
    directions.update({name: spec[1] for name, spec in PER_LAYER.items()})
    for name, metric in record["metrics"].items():
        print(f"{name:<26} {metric['value']:>14.6g} {metric['unit']:<9} {directions[name]} is better")
        if not math.isfinite(metric["value"]):  # a failed command left no RMSE; keep the JSON valid
            metric["value"] = None
    print("context: " + json.dumps(record.pop("context")))
    print(json.dumps(record))
    return 0
