"""The benchmark's workloads: inputs made from a seed, CLI commands, output checks.

Every workload is a closed loop of ``lppred`` CLI commands over files that
``make_inputs`` writes from the workload seed. The program sees only those
files; its own ``--seed`` is fixed at 0 for every command.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lppred.data import Dataset, parse_dataset, write_dataset
from lppred.gbt import GbtConfig
from lppred.metrics import cross_validate, rmse
from lppred.simulate import SimSpec, simulate

K = 5
LLM_REPEATS = 5
LESSON_SHAPE = (66, 8, 9)  # learners x questions x attempts, the paper's lesson size
BULK_SHAPE = (600, 30, 9)

# A slice of the default 1,296-configuration grid that keeps every n_trees
# value, sub-1 and full row and column subsampling, and the default config.
TUNE_SLICE = {
    "n_trees": [50, 100, 200],
    "learning_rate": [0.1],
    "max_depth": [4],
    "subsample": [0.8, 1.0],
    "colsample_bytree": [0.8, 1.0],
    "gamma": [0.0],
    "min_child_weight": [1.0],
}
DEFAULT_CONFIG = GbtConfig().to_dict()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: tuple[int, int, int]
    cv_models: tuple[str, ...]
    tune: bool = False
    llm_run: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cv-lesson",
            "model fit kernels do nearly all the work; parsing and fold prep are a few ms",
            LESSON_SHAPE,
            ("bkt", "pfa", "sparfa", "tensor", "gbt"),
        ),
        Workload(
            "tune-slice",
            "GBT at small n, where per-node overhead dominates, plus tuner dispatch to the pool",
            LESSON_SHAPE,
            ("gbt",),
            tune=True,
        ),
        Workload(
            "bulk-log",
            "large log: parsing, LLM encode and decode, multi-MB writes and GBT at large n",
            BULK_SHAPE,
            ("gbt",),
            llm_run=True,
        ),
    )
}


@dataclass(frozen=True)
class Command:
    label: str  # "cv bkt", "tune" or "llm-run"
    kind: str  # "cv", "tune" or "llm-run"
    argv: tuple[str, ...]
    out: Path


def make_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Write the workload's input files: data.csv, plus grid.json or a train/test split."""
    directory.mkdir(parents=True, exist_ok=True)
    n_l, n_q, n_a = workload.shape
    spec = SimSpec(n_l, n_q, n_a, generator="bkt-process", seed=seed, stop_on_correct=True)
    ds = simulate(spec).dataset
    write_dataset(ds, directory / "data.csv")
    if workload.tune:
        (directory / "grid.json").write_text(json.dumps(TUNE_SLICE), encoding="utf-8")
    if workload.llm_run:
        order = np.random.default_rng([seed, 1]).permutation(ds.n_records)
        cut = int(0.8 * ds.n_records)
        for name, part in (("train.csv", order[:cut]), ("test.csv", order[cut:])):
            write_dataset(ds.subset(np.sort(part)), directory / name)


def commands(workload: Workload, inputs: Path, out: Path, workers: int) -> list[Command]:
    """The commands of one pass over the workload, in the order they run."""
    common = ("--seed", "0")
    cmds = []
    if workload.llm_run:
        cmds.append(Command("llm-run", "llm-run", (
            "llm-run", "--train", str(inputs / "train.csv"), "--test", str(inputs / "test.csv"),
            "--mock", "--repeats", str(LLM_REPEATS), "--workers", "1", *common,
            "--out", str(out / "llm-run"),
        ), out / "llm-run"))
    if workload.tune:
        cmds.append(Command("tune", "tune", (
            "tune", "--model", "gbt", "--data", str(inputs / "data.csv"),
            "--grid", str(inputs / "grid.json"), "--k", str(K), "--workers", str(workers),
            *common, "--out", str(out / "tune"),
        ), out / "tune"))
    for model in workload.cv_models:
        cmds.append(Command(f"cv {model}", "cv", (
            "cv", "--model", model, "--data", str(inputs / "data.csv"), "--k", str(K),
            "--workers", "1", *common, "--out", str(out / f"cv-{model}"),
        ), out / f"cv-{model}"))
    return cmds


# -- output checks ---------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    rmse: float = math.nan  # the report's headline RMSE
    digest: str = ""  # sha256 over the command's output files


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _fold_rmse_ok(values) -> bool:
    return len(values) == K and all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


def check(cmd: Command, exit_code: int, test_rows: int = 0, slice_size: int = 0) -> Outcome:
    """Validate one command's report files; any failure makes it a failed operation."""
    if exit_code != 0:
        return Outcome(False, f"exit code {exit_code}")
    try:
        if cmd.kind == "cv":
            report = json.loads((cmd.out / "report.json").read_text(encoding="utf-8"))
            (entry,) = report.values()
            if not _fold_rmse_ok(entry["fold_rmse"]):
                return Outcome(False, f"report.json fold RMSEs not {K} finite values in [0, 1]")
            value = entry["mean"]
        elif cmd.kind == "tune":
            report = json.loads((cmd.out / "tune.json").read_text(encoding="utf-8"))
            if report["n_evaluated"] + report["n_failures"] != slice_size or report["n_failures"]:
                return Outcome(False, f"tune.json evaluated {report['n_evaluated']} with "
                                      f"{report['n_failures']} failures, slice has {slice_size}")
            value = report["summary"]["mean"]
        else:
            report = json.loads((cmd.out / "report.json").read_text(encoding="utf-8"))
            lines = (cmd.out / "predictions.csv").read_text(encoding="utf-8").splitlines()
            if report["coverage"] < 1 or sum(report["imputed_per_run"]):
                return Outcome(False, f"llm-run coverage {report['coverage']}, "
                                      f"imputed {report['imputed_per_run']}")
            if len(lines) - 1 != test_rows:
                return Outcome(False, f"predictions.csv has {len(lines) - 1} rows, test has {test_rows}")
            value = report["mean_rmse"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(False, f"unreadable report: {exc!r}")
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return Outcome(False, f"headline RMSE {value!r} is not finite")
    return Outcome(True, rmse=float(value), digest=digest(cmd.out))


def tune_matches_cv(tune_out: Path, cv_rmse: float) -> bool:
    """The default configuration's tune.json entry equals a standalone cv of it."""
    report = json.loads((tune_out / "tune.json").read_text(encoding="utf-8"))
    return any(e["config"] == DEFAULT_CONFIG and e["mean_rmse"] == cv_rmse
               for e in report["entries"])


# -- constant-mean reference -------------------------------------------------------


class ConstantMean:
    """Predicts the training fold's mean outcome for every row."""

    def fit(self, train: Dataset) -> "ConstantMean":
        self.mean = float(train.obs_array(train.labeled_positions()).mean())
        return self

    def predict(self, rows) -> np.ndarray:
        return np.full(len(rows), self.mean)


def constant_mean_rmse(workload: Workload, inputs: Path) -> dict[str, float]:
    """Reference RMSEs on the same folds (cv) and the same split (llm-run)."""
    ds = parse_dataset(inputs / "data.csv")
    out = {"cv": cross_validate(lambda fold_seed: ConstantMean(), ds, k=K, seed=0).mean_rmse}
    if workload.llm_run:
        train = parse_dataset(inputs / "train.csv")
        test = parse_dataset(inputs / "test.csv")
        mean = ConstantMean().fit(train).mean
        out["llm-run"] = rmse(np.full(test.n_records, mean), test.obs_array())
    return out


def count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
