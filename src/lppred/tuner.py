"""Hyperparameter search for the boosted-tree model.

Two strategies: exhaustive grid search over a Cartesian product of candidate
values (the default grid enumerates exactly 1,296 combinations), and an
LLM-driven loop that asks a chat client to propose the next configuration
given the history of (configuration, RMSE) pairs. Both evaluate candidates
with the shared cross-validation harness on identical folds, so results are
comparable and deterministic given the seed.

The grid sweep's unit of work is a group of configurations that differ only
in n_trees. A group boosts its largest n_trees once per fold, with the k fold
ensembles in lockstep under that one config (``gbt.gbt_eval_lockstep``).
Each fold's held-out rows are scored while the trees grow, so each
configuration is scored from the margins after its first n_trees trees,
and no tree is kept.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .data import DataError, Dataset, _sigmoid
from .gbt import GbtConfig, gbt_eval_lockstep
from .llm import braced_records
from .metrics import CvReport, fold_rmse_table
from .seeds import derive_seed

GRID_FIELDS = tuple(f.name for f in fields(GbtConfig))
_INTEGER_FIELDS = tuple(f.name for f in fields(GbtConfig) if type(f.default) is int)


@dataclass(frozen=True)
class Grid:
    """Candidate lists for the seven boosting hyperparameters."""

    n_trees: tuple[int, ...] = (50, 100, 200)
    learning_rate: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)
    max_depth: tuple[int, ...] = (2, 4, 6)
    subsample: tuple[float, ...] = (0.6, 0.8, 1.0)
    colsample_bytree: tuple[float, ...] = (0.8, 1.0)
    gamma: tuple[float, ...] = (0.0, 1.0)
    min_child_weight: tuple[float, ...] = (1.0, 3.0, 5.0)

    @property
    def size(self) -> int:
        n = 1
        for name in GRID_FIELDS:
            n *= len(getattr(self, name))
        return n

    def combinations(self) -> list[GbtConfig]:
        """All configurations in deterministic enumeration order."""
        axes = [getattr(self, name) for name in GRID_FIELDS]
        return [
            GbtConfig(**dict(zip(GRID_FIELDS, values)))
            for values in itertools.product(*axes)
        ]

    @classmethod
    def from_json(cls, payload: str) -> "Grid":
        """A grid from a JSON object mapping fields to non-empty candidate lists.

        Keys must be among the seven fields; an omitted field keeps its default
        candidates. Anything else is a DataError naming the key or value.
        """
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise DataError(f"expected a JSON object of candidate lists, got {json.dumps(data)}")
        for name, values in data.items():
            if name not in GRID_FIELDS:
                raise DataError(f"unknown grid key {name!r}; keys are {', '.join(GRID_FIELDS)}")
            if not isinstance(values, list) or not values:
                raise DataError(f"grid key {name!r} must be a non-empty list, got {json.dumps(values)}")
            kind, noun = (int, "an integer") if name in _INTEGER_FIELDS else ((int, float), "a finite number")
            for value in values:
                if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
                    raise DataError(f"grid key {name!r}: {json.dumps(value)} is not {noun}")
                try:
                    GbtConfig(**{name: value})
                except ValueError as exc:
                    raise DataError(f"grid key {name!r}: {value} is invalid ({exc})") from None
        return cls(**{name: tuple(values) for name, values in data.items()})


def default_grid() -> Grid:
    """The stock sweep: 3*4*3*3*2*2*3 = 1,296 combinations."""
    return Grid()


@dataclass(frozen=True)
class TuneEntry:
    config: GbtConfig
    mean_rmse: float


@dataclass
class TuneReport:
    """Per-configuration scores plus five-number summary over configurations."""

    method: str
    entries: list[TuneEntry]
    failures: list[tuple[int, str]] = field(default_factory=list)  # (index, message)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("TuneReport requires at least one successful evaluation")

    @property
    def best(self) -> TuneEntry:
        return min(self.entries, key=lambda e: e.mean_rmse)

    def summary(self) -> dict[str, float]:
        values = np.array([e.mean_rmse for e in self.entries])
        return {
            "mean": float(values.mean()),
            "median": float(np.median(values)),
            "std": float(values.std(ddof=0)),
            "min": float(values.min()),
            "max": float(values.max()),
        }

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "aggregation": "configuration",
            "n_evaluated": len(self.entries),
            "n_failures": len(self.failures),
            "summary": self.summary(),
            "best": {"config": self.best.config.to_dict(), "mean_rmse": self.best.mean_rmse},
            "entries": [
                {"config": e.config.to_dict(), "mean_rmse": e.mean_rmse} for e in self.entries
            ],
            "failures": [{"index": i, "error": msg} for i, msg in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary_text(self) -> str:
        return format_summary_rows([(self.method, self.summary())])


def format_summary_rows(rows: Sequence[tuple[str, dict[str, float]]]) -> str:
    """Five-column summary block: Mean Median Std. Min. Max."""
    header = f"{'Method':<28}{'Mean':>8}{'Median':>8}{'Std.':>8}{'Min.':>8}{'Max.':>8}"
    lines = [header, "-" * len(header)]
    for name, s in rows:
        lines.append(
            f"{name:<28}{s['mean']:>8.3f}{s['median']:>8.3f}{s['std']:>8.3f}"
            f"{s['min']:>8.3f}{s['max']:>8.3f}"
        )
    return "\n".join(lines)


# The dataset, fold count and root seed of the running sweep. Pool workers get
# it once from the pool initializer; the serial path sets it in this process.
_SWEEP: tuple[Dataset, int, int] | None = None


def _start_sweep(ds: Dataset, k: int, seed: int) -> None:
    global _SWEEP
    _SWEEP = (ds, k, seed)


def _prefix_groups(configs: Sequence[GbtConfig]) -> list[tuple[tuple[int, ...], tuple[GbtConfig, ...]]]:
    """Jobs of (indices, configs) that differ only in n_trees, in first-appearance order."""
    groups: dict[GbtConfig, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(replace(config, n_trees=0), []).append(i)
    return [(tuple(idx), tuple(configs[i] for i in idx)) for idx in groups.values()]


def _evaluate_config(job) -> tuple[tuple[int, ...], list[float] | None, str]:
    """Mean CV RMSE of each configuration in one n_trees group of the running sweep.

    The k folds' ensembles of the group's largest n_trees are boosted in
    lockstep under that one config (``gbt_eval_lockstep``), each fold's
    held-out keys are scored as the trees grow, and every configuration is
    scored from the margins after each ensemble's first n_trees trees, which
    are exactly those of that configuration's standalone fit on the fold.
    So every mean RMSE equals a standalone ``cross_validate`` of its
    configuration, and no tree is kept. A ``DataError`` is raised; any other
    failure fails the group: its RMSE list is None and the message returned.
    """
    indices, configs = job
    ds, k, seed = _SWEEP
    largest = max(configs, key=lambda c: c.n_trees)
    stages = [c.n_trees for c in configs]

    def fit_predict(folds):
        fold_seeds, trains, test_keys = zip(*folds)
        staged = gbt_eval_lockstep(trains, largest, fold_seeds, test_keys, stages)
        return [[_sigmoid(m) for m in margins] for margins in staged]

    try:
        table = fold_rmse_table(fit_predict, ds, k=k, seed=seed)
    except DataError:
        raise
    except Exception as exc:  # noqa: BLE001 - recorded per configuration
        return indices, None, str(exc)
    return indices, [CvReport("gbt", fold_rmse).mean_rmse for fold_rmse in table], ""


def _run_jobs(jobs: list, ds: Dataset, k: int, seed: int, workers: int) -> list:
    """``_evaluate_config`` over the jobs, in job order; the data is shipped once per worker."""
    global _SWEEP
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_sweep, initargs=(ds, k, seed)
        ) as pool:
            return list(pool.map(_evaluate_config, jobs))
    saved = _SWEEP
    _start_sweep(ds, k, seed)
    try:
        return [_evaluate_config(job) for job in jobs]
    finally:
        _SWEEP = saved


def grid_search(
    ds: Dataset,
    grid: Grid | None = None,
    k: int = 5,
    seed: int = 0,
    workers: int = 1,
) -> TuneReport:
    """Cross-validate every grid combination; deterministic given the seed.

    All configurations share the same folds and fold seeds, so their mean
    RMSEs are directly comparable and the best entry reproduces exactly when
    refit standalone. Configurations that differ only in n_trees are
    evaluated together from one fit per fold (see ``_evaluate_config``).
    A ``DataError`` stops the sweep; other failures are recorded, not summarized.
    """
    grid = grid or default_grid()
    configs = grid.combinations()
    if not configs:
        raise ValueError("empty grid")
    scores: dict[int, float] = {}
    errors: dict[int, str] = {}
    for indices, mean_rmses, error in _run_jobs(_prefix_groups(configs), ds, k, seed, workers):
        if mean_rmses is None:
            errors.update(dict.fromkeys(indices, error))
        else:
            scores.update(zip(indices, mean_rmses))
    entries = [TuneEntry(configs[i], scores[i]) for i in sorted(scores)]
    return TuneReport(method="grid", entries=entries, failures=sorted(errors.items()))


# ---------------------------------------------------------------------------
# LLM-driven tuning
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {re.sub(r"[^a-z]", "", name): name for name in GRID_FIELDS}


def parse_config_proposal(text: str) -> GbtConfig | None:
    """The first braced block holding all seven fields as valid numbers, if any.

    A block is skipped when a recognised field is not a finite number, when
    n_trees or max_depth is not a whole number (as a grid file rejects them),
    or when the values fail ``GbtConfig``'s checks.
    """
    for _, raw in braced_records(text, _CONFIG_KEYS):
        try:
            values = {name: float(value) for name, value in raw.items()}
        except ValueError:
            continue
        if (
            set(values) != set(GRID_FIELDS)
            or not all(map(math.isfinite, values.values()))
            or not all(values[name].is_integer() for name in _INTEGER_FIELDS)
        ):
            continue
        try:
            return GbtConfig(**{name: int(v) if name in _INTEGER_FIELDS else v for name, v in values.items()})
        except ValueError:
            continue
    return None


def _proposal_prompt(history: list[tuple[GbtConfig, float]]) -> list[dict[str, str]]:
    lines = [
        "We are tuning a gradient-boosted tree model for learner performance "
        "prediction. Propose the next hyperparameter configuration to try, as one "
        f"braced dict with keys {', '.join(GRID_FIELDS)}.",
    ]
    if history:
        lines.append("Configurations evaluated so far (config -> CV RMSE):")
        for config, score in history:
            lines.append(f"{json.dumps(config.to_dict())} -> {score:.4f}")
    return [{"role": "user", "content": "\n".join(lines)}]


class CyclingProposalClient:
    """Offline tuning client: proposes configurations from a fixed list, cycling.

    Keeps the message lists it received so tests can assert the history
    protocol grows one pair per iteration.
    """

    def __init__(self, configs: Sequence[GbtConfig] | None = None):
        if configs is None:
            configs = [
                GbtConfig(n_trees=50, learning_rate=0.1, max_depth=2),
                GbtConfig(n_trees=100, learning_rate=0.1, max_depth=4),
                GbtConfig(n_trees=200, learning_rate=0.05, max_depth=6),
                GbtConfig(n_trees=100, learning_rate=0.3, max_depth=2, subsample=0.8),
                GbtConfig(n_trees=50, learning_rate=0.2, max_depth=4, min_child_weight=3.0),
            ]
        self.configs = list(configs)
        self.calls: list[list[dict[str, str]]] = []

    def send(self, messages: Sequence[dict[str, str]]) -> str:
        self.calls.append(list(messages))
        config = self.configs[(len(self.calls) - 1) % len(self.configs)]
        payload = ", ".join(f"'{k}': {v}" for k, v in config.to_dict().items())
        return f"Try this configuration next: {{{payload}}}"


def llm_tuning_loop(
    ds: Dataset,
    client,
    budget: int = 10,
    k: int = 5,
    seed: int = 0,
    grid: Grid | None = None,
) -> TuneReport:
    """Client-proposed tuning: ask, parse, evaluate locally, repeat to budget.

    An unparsable proposal triggers one clarifying re-prompt; if that also
    fails, a random point of the grid is evaluated instead and recorded under
    failures. A ``DataError`` stops the loop at its first evaluation.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    grid = grid or default_grid()
    fallback_configs = grid.combinations()
    history: list[tuple[GbtConfig, float]] = []
    entries: list[TuneEntry] = []
    failures: list[tuple[int, str]] = []
    for i in range(budget):
        response = client.send(_proposal_prompt(history))
        config = parse_config_proposal(response)
        if config is None:
            retry = client.send(
                _proposal_prompt(history)
                + [
                    {
                        "role": "user",
                        "content": "That was not parsable. Reply with only the braced "
                        "configuration dict.",
                    }
                ]
            )
            config = parse_config_proposal(retry)
        if config is None:
            rng = np.random.default_rng(derive_seed(seed, "llm-tune-fallback", i))
            config = fallback_configs[int(rng.integers(len(fallback_configs)))]
            failures.append((i, "unparsable proposal, random grid point used"))
        # a one-configuration group
        ((_, mean_rmses, error),) = _run_jobs([((i,), (config,))], ds, k, seed, workers=1)
        if mean_rmses is None:
            failures.append((i, error))
            continue
        (mean_rmse,) = mean_rmses
        history.append((config, mean_rmse))
        entries.append(TuneEntry(config, mean_rmse))
    return TuneReport(method="llm", entries=entries, failures=failures)

