"""Spans and counters around the public functions of each lppred module.

The benchmark installs these wrappers from its own files, so the program's
source stays unchanged. Each wrapper replaces a public function where its
callers look it up: a module-level function is replaced in every lppred
module that imported it by name, and a method is replaced on its class.
Private kernels (BKT forward-backward, the PFA objective, SPARFA rank fits,
GBT tree growth) are covered by their module's public ``fit`` span.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated in memory by name. Tuning workers forked from a traced
process record their spans per configuration and append them to a file in
``worker_dir``; ``Tracer.gather_workers`` merges those files back.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from lppred import bkt, cli, data, gbt, llm, metrics, pfa, sparfa, tensor, tuner


class Aggregate:
    """Per-span-name totals: self time, duration, calls, errors, counters, samples."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)  # "span:ExceptionType" -> raised count
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)

    def merge(self, other: "Aggregate") -> None:
        for name, mine in vars(self).items():
            for key, value in getattr(other, name).items():
                mine[key] += value  # list += list extends the samples

    def to_dict(self) -> dict:
        return {name: dict(value) for name, value in vars(self).items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "Aggregate":
        agg = cls()
        for name, value in payload.items():
            getattr(agg, name).update(value)
        return agg


class Tracer:
    """Span stack per thread plus one Aggregate for this process.

    ``worker_dir`` receives the records of ``pool_workers`` forked tuning
    workers; ``workers`` holds them once gathered.
    """

    def __init__(self, worker_dir: Path | None = None, pool_workers: int = 1):
        self.owner_pid = os.getpid()
        self.worker_dir = worker_dir
        self.pool_workers = pool_workers
        self.workers = Aggregate()
        self._worker_pid = None
        self._lock = threading.Lock()
        self._reset()

    def _reset(self):
        self.agg = Aggregate()
        self._local = threading.local()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def exit(self, name: str, start: float, error: BaseException | None = None) -> float:
        duration = time.perf_counter() - start
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += duration
        with self._lock:
            self.agg.self_s[name] += duration - child
            self.agg.total_s[name] += duration
            self.agg.calls[name] += 1
            if error is not None:
                self.agg.errors[f"{name}:{type(error).__name__}"] += 1
        return duration

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.agg.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.agg.samples[name].append(value)

    # -- forked tuning workers -------------------------------------------

    def in_worker(self) -> bool:
        """True in a forked child; the first call there drops the parent's state."""
        pid = os.getpid()
        if pid == self.owner_pid:
            return False
        if self._worker_pid != pid:
            self._worker_pid = pid
            self._lock = threading.Lock()
            self._reset()
        return True

    def flush_worker(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.agg.to_dict()) + "\n")
        self._reset()

    def gather_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                self.workers.merge(Aggregate.from_dict(json.loads(line)))
            path.unlink()


def wrap(tracer: Tracer, name: str, fn, hook=None):
    """``fn`` inside span ``name``; ``hook(tracer, result, args)`` runs after it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = tracer.enter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(name, start, exc)
            raise
        tracer.exit(name, start)
        if hook is not None:
            hook(tracer, result, args)
        return result

    return wrapper


def _wrap_config(tracer: Tracer, fn):
    """Span around one tuning configuration, run in a pool worker."""

    @functools.wraps(fn)
    def wrapper(job):
        in_worker = tracer.in_worker()
        start = tracer.enter()
        try:
            result = fn(job)
        except BaseException as exc:
            tracer.exit("tuner.config", start, exc)
            raise
        tracer.sample("tuner.config_s", tracer.exit("tuner.config", start))
        tracer.count("tuner.configs")
        tracer.count("tuner.configs_failed", result[1] is None)
        tracer.count("tuner.dispatch_bytes", len(pickle.dumps(job)))
        if in_worker:
            tracer.flush_worker()
        return result

    return wrapper


def _count_rows(tracer, ds, args):
    tracer.count("data.rows_parsed", ds.n_records)


def _count_trees(tracer, model, args):
    tracer.count("gbt.trees_built", len(model.model.trees))


def _count_send(tracer, response, args):
    messages = args[1]
    tracer.count("llm.prompt_chars", sum(len(m.get("content", "")) for m in messages))
    tracer.count("llm.response_chars", len(response))


def _count_decode(tracer, decoded, args):
    tracer.count("llm.decoded_records", len(decoded.predictions))
    tracer.count("llm.rejected_records", len(decoded.rejected))


def _count_imputed(tracer, result, args):
    tracer.count("llm.imputed_rows", sum(result.imputed_per_run))


# (span name, owner, attribute, hook). The owner is a module for functions,
# a class for methods; span names are "<module>.<what>".
TARGETS = (
    ("cli.main", cli, "main", None),
    ("data.parse", data, "parse_dataset", _count_rows),
    ("data.from_records", data.Dataset, "from_records", None),
    ("data.subset", data.Dataset, "subset", None),
    ("data.folds", data, "make_folds", None),
    ("metrics.cross_validate", metrics, "cross_validate", None),
    ("metrics.rmse", metrics, "rmse", None),
    ("bkt.fit", bkt.BktModel, "fit", None),
    ("bkt.em", bkt, "bkt_fit_em", None),
    ("bkt.predict", bkt.BktModel, "predict", None),
    ("pfa.fit", pfa.PfaModel, "fit", None),
    ("pfa.features", pfa, "pfa_features", None),
    ("pfa.predict", pfa.PfaModel, "predict", None),
    ("sparfa.fit", sparfa.SparfaModel, "fit", None),
    ("sparfa.predict", sparfa.SparfaModel, "predict", None),
    ("tensor.fit", tensor.TensorFactorizationModel, "fit", None),
    ("tensor.als", tensor, "als_fit_cells", None),
    ("tensor.predict", tensor.TensorFactorizationModel, "predict", None),
    ("gbt.fit", gbt.GbtModel, "fit", _count_trees),
    ("gbt.apply", gbt.TreeNode, "apply", None),
    ("gbt.predict", gbt.GbtModel, "predict", None),
    ("tuner.grid_search", tuner, "grid_search", None),
    ("llm.pipeline", llm, "llm_predict_pipeline", _count_imputed),
    ("llm.encode", llm, "encode_records", None),
    ("llm.script", llm, "build_cot_script", None),
    ("llm.send", llm.MockHeuristicClient, "send", _count_send),
    ("llm.decode", llm, "decode_response", _count_decode),
)


def _replace_everywhere(original, replacement, undo: list) -> None:
    """Point every lppred module-level name bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "lppred" or mod_name.startswith("lppred.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    undo: list = []
    for name, owner, attr, hook in TARGETS:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(wrap(tracer, name, original.__func__, hook))
            else:
                replacement = wrap(tracer, name, original, hook)
            undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
        else:
            original = getattr(owner, attr)
            _replace_everywhere(original, wrap(tracer, name, original, hook), undo)
    # Resolved by name when the pool pickles it, so forked workers run the wrapper.
    original = tuner._evaluate_config
    _replace_everywhere(original, _wrap_config(tracer, original), undo)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
