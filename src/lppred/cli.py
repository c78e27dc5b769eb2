"""Command-line entry point for the learner performance prediction suite.

Subcommands: ingest, summarize, cv, fit, predict, tune, simulate, llm-run,
report. Every command is a pure function of its flags, input files, and the
root seed; artifacts are written under the output directory as JSON plus a
plain-text rendering. Exit codes: 0 success, 1 usage error, 2 data error,
3 model error, 4 client/transport error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .bkt import BktModel, BktParams
from .data import DataError, Dataset, open_input, parse_dataset, summarize, write_dataset
from .gbt import GbtConfig, GbtModel
from .llm import (
    METHOD_REGISTRY,
    ClientError,
    HttpChatClient,
    LlmPredictor,
    MockHeuristicClient,
    llm_predict_pipeline,
    select_method,
)
from .metrics import CvReport, FoldFitError, cross_validate, report_table, reports_to_json
from .pfa import PfaModel
from .seeds import derive_seed
from .simulate import GENERATORS, SimSpec, simulate
from .sparfa import SparfaModel
from .tensor import TensorFactorizationModel
from .tuner import (
    CyclingProposalClient,
    Grid,
    default_grid,
    grid_search,
    llm_tuning_loop,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3
EXIT_CLIENT = 4

# Local model name -> (wrapper class, the constructor arguments its flags set).
# The gbt flags are the fields of the one GbtConfig its constructor takes.
LOCAL_MODELS = {
    "bkt": (BktModel, ("individualized",)),
    "pfa": (PfaModel, ("l2",)),
    "sparfa": (SparfaModel, ("rank_candidates",)),
    "tensor": (TensorFactorizationModel, ("rank", "ridge")),
    "gbt": (GbtModel, tuple(f.name for f in fields(GbtConfig))),
}
ALL_MODELS = (*LOCAL_MODELS, "llm", "llm-gbt")
# Client flag dest -> the HttpChatClient field it sets; a field left off keeps the class default.
CLIENT_FIELDS = {"endpoint": "endpoint", "chat_model": "model", "temperature": "temperature",
                 "timeout": "timeout", "retries": "max_retries"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _inject_config_args(argv: list[str]) -> list[str]:
    """Expand `--config FILE` or `--config=FILE` into flags placed before the user's own flags.

    The file holds `key = value` lines mirroring long option names; a
    true/yes/on value sets a switch and a false/no/off value leaves the flag
    out. Because injected flags precede explicit ones, explicit flags win on
    conflict.
    """
    at = next((i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"), None)
    if at is None:
        return argv
    _, joined, path = argv[at].partition("=")
    if not joined:
        path = argv[at + 1] if at + 1 < len(argv) else ""
    if not path:
        raise UsageError("--config requires a file path")
    rest = argv[:at] + argv[at + (1 if joined else 2) :]
    if not rest:
        raise UsageError("--config given without a subcommand")
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    injected: list[str] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line not key = value: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            injected.append(flag)
        elif value.lower() not in ("false", "no", "off"):
            injected.extend([flag, value])
    return [rest[0]] + injected + rest[1:]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return count


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in [0, 1), got {text!r}")
    return value


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _shape(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        counts = ()
    if len(counts) != 3 or min(counts) < 1:
        raise argparse.ArgumentTypeError(f"expected three counts >= 1 like 66x8x9, got {text!r}")
    return counts


def _add_common(p: _Parser, *names: str):
    """Add the shared flags a command reads: any of data (with --meta), seed, out and workers."""
    if "data" in names:
        p.add_argument("--data", required=True, help="interaction-record CSV file")
        p.add_argument("--meta", help="optional lesson metadata JSON file")
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    if "out" in names:
        p.add_argument("--out", default="out", help="output directory (default ./out)")
    if "workers" in names:
        p.add_argument(
            "--workers",
            type=_at_least(1),
            default=_usable_cpus(),
            help="worker processes for parallel sections (default: usable CPUs)",
        )


def _rank_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(r) for r in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _bkt_params(text: str) -> BktParams:
    try:
        return BktParams(**json.loads(text))
    except (TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise argparse.ArgumentTypeError(
            f"expected a JSON object of p_init, p_learn, p_slip and p_guess ({exc})"
        ) from None


@functools.cache
def _model_flags() -> argparse.ArgumentParser:
    """Parent parser for the local models' flags shared by cv, fit and predict.

    Each dest is a constructor argument named in LOCAL_MODELS. A flag left off
    is absent from the parsed args, so the model's own default applies.
    """
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--individualized", action="store_true", help="bkt: per-learner start offsets")
    p.add_argument("--l2", type=_finite, help="pfa: regularization strength")
    p.add_argument("--rank", type=int, help="tensor: factor rank")
    p.add_argument("--ridge", type=_finite, help="tensor: ridge strength")
    p.add_argument("--ranks", dest="rank_candidates", metavar="RANKS", type=_rank_list,
                   help="sparfa: comma-separated rank candidates")
    for f in fields(GbtConfig):  # gamma alone is spelled --gbt-gamma
        flag = "gbt_gamma" if f.name == "gamma" else f.name
        p.add_argument("--" + flag.replace("_", "-"), dest=f.name, metavar=flag.upper(),
                       type=_finite if isinstance(f.default, float) else int)
    return p


@functools.cache
def _client_flags(budget=False) -> argparse.ArgumentParser:
    """Parent parser for the chat-client flags of cv, tune and llm-run, and with ``budget`` tune's --budget.

    A flag left off is absent from the parsed args, so HttpChatClient's or llm_tuning_loop's default applies.
    """
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--mock", action="store_true", help="use the offline heuristic client")
    source.add_argument("--endpoint", help="chat-completion HTTP endpoint URL")
    p.add_argument("--chat-model", help="model name sent to the endpoint")
    p.add_argument("--temperature", type=_finite)
    p.add_argument("--timeout", type=_positive)
    p.add_argument("--retries", type=_at_least(0))
    if budget:
        p.add_argument("--budget", type=_at_least(1), help="llm method: evaluations")
    return p


def _reject_unread(args, run: str, read=(), client=False):
    """A model flag, client flag or --budget that ``run`` does not read is a UsageError naming it as typed.

    None of these flags has a default, so one is in ``args`` only when given.
    A run that builds a client reads --mock alone, or else the other client flags.
    """
    mock = client and hasattr(args, "mock")
    if client:
        read = (*read, "mock") if mock else (*read, *CLIENT_FIELDS)
    for action in (*_model_flags()._actions, *_client_flags(budget=True)._actions):
        if hasattr(args, action.dest) and action.dest not in read:
            who = "--mock" if mock and action.dest in CLIENT_FIELDS else run
            raise UsageError(f"{who} does not read {action.option_strings[0]}")


def _local_factory(name: str, args):
    """Seed -> unfitted local model, built from the model flags given in ``args``.

    A flag out of its model's range is a UsageError here, before any fold runs.
    """
    cls, names = LOCAL_MODELS[name]
    given = {n: getattr(args, n) for n in names if hasattr(args, n)}
    try:
        if cls is GbtModel:
            given = {"config": GbtConfig(**given)}
        cls(**given)  # each constructor checks its arguments' ranges
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return lambda seed: cls(seed=seed, **given)


def _build_client(args, mock=None):
    """The client the flags name: ``mock`` (MockHeuristicClient by default) under --mock, else HttpChatClient."""
    if hasattr(args, "mock"):
        return (mock or MockHeuristicClient)()
    if hasattr(args, "endpoint"):
        try:  # the client checks the endpoint's form
            return HttpChatClient(**{field: getattr(args, dest) for dest, field in CLIENT_FIELDS.items()
                                     if hasattr(args, dest)})
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError("llm mode needs --endpoint or --mock")


def _load_dataset(args) -> Dataset:
    return parse_dataset(args.data, meta_path=args.meta)


@contextmanager
def _writing(path: Path):
    """An OSError inside is a usage error naming ``path``: --out does not name a usable directory."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _outdir(args) -> Path:
    path = Path(args.out)
    with _writing(path):
        path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, content: str):
    with _writing(path):
        path.write_text(content, encoding="utf-8")
    print(f"wrote {path}")


class _ClientSelectedModel:
    """llm-gbt predictor: the client names a model from the training split only, one of ``factories``."""

    def __init__(self, client, factories, seed: int):
        self.client, self.factories, self.seed = client, factories, seed
        self.model = None

    def fit(self, train: Dataset) -> "_ClientSelectedModel":
        chosen = select_method(self.client, train)
        print(f"client selected method: {chosen}")
        self.model = self.factories[chosen](self.seed).fit(train)
        return self

    def predict(self, rows):
        return self.model.predict(rows)


def _make_factory(args):
    """Seed -> unfitted predictor of ``--model``, built from the flags alone; llm variants wrap a client.

    A local model reads its own flags, llm none, and llm-gbt those of each model the client can name.
    """
    name = args.model
    local = {"llm": (), "llm-gbt": tuple(METHOD_REGISTRY.values())}.get(name, (name,))
    _reject_unread(args, f"--model {name}", [n for m in local for n in LOCAL_MODELS[m][1]],
                   client=name not in LOCAL_MODELS)
    factories = {m: _local_factory(m, args) for m in local}
    if name in LOCAL_MODELS:
        return factories[name]
    client = _build_client(args)
    if name == "llm":
        return lambda fold_seed: LlmPredictor(client)
    return lambda fold_seed: _ClientSelectedModel(client, factories, fold_seed)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    ds = _load_dataset(args)
    print(
        f"ok: {ds.n_records} records ({len(ds.labeled_positions())} labeled), "
        f"{ds.n_learners} learners, {ds.n_questions} questions, max attempt {ds.max_attempt}"
    )
    return EXIT_OK


def cmd_summarize(args) -> int:
    ds = _load_dataset(args)
    s = summarize(ds)
    out = _outdir(args)
    _write(out / "summary.json", json.dumps(s.to_dict(), indent=2))
    print(s.to_text())
    return EXIT_OK


def cmd_cv(args) -> int:
    factory = _make_factory(args)
    ds = _load_dataset(args)
    report = cross_validate(factory, ds, k=args.k, seed=args.seed, model_name=args.model,
                            dataset_name=ds.meta.lesson_name or Path(args.data).stem)
    out = _outdir(args)
    table = report_table([report])
    _write(out / "report.json", reports_to_json([report]))
    _write(out / "report.txt", table)
    print(table)
    return EXIT_OK


def _fit_local(args, factory, ds: Dataset):
    """The chosen local model, fitted on the labeled rows of ``ds``."""
    labeled = ds.labeled_positions()
    if not labeled:
        raise DataError(f"{args.data}: no row is labeled, so there is nothing to fit")
    return factory(derive_seed(args.seed, "fit", args.model)).fit(ds.subset(labeled))


def _write_predictions(path: Path, rows, preds):
    """Write ``predictions.csv`` with ``\\n`` line ends, quoting an id that holds a comma, quote or line break.

    A lone ``\\r`` counts as a line break. Python 3.11's ``csv.writer`` with
    ``\\n`` line ends leaves it unquoted, and that row would read back split.
    """
    special = re.compile('[,"\r\n]').search

    def cell(text: str) -> str:
        return '"' + text.replace('"', '""') + '"' if special(text) else text

    lines = ["learner_id,question_id,attempt,prediction\n"]
    lines += [f"{cell(lid)},{cell(qid)},{attempt},{p:.6f}\n" for (lid, qid, attempt), p in zip(rows, preds)]
    _write(path, "".join(lines))


def cmd_fit(args) -> int:
    factory = _make_factory(args)
    model = _fit_local(args, factory, _load_dataset(args))
    _write(_outdir(args) / f"{args.model}-model.json", json.dumps(model.export_json(), indent=2))
    return EXIT_OK


def cmd_predict(args) -> int:
    factory = _make_factory(args)
    ds = _load_dataset(args)
    if args.targets:
        rows = parse_dataset(args.targets).keys()
    else:
        rows = ds.keys(ds.unlabeled_positions())
        if not rows:
            raise DataError("no rows to predict: data has no unlabeled rows and no --targets given")
    preds = _fit_local(args, factory, ds).predict(rows)
    _write_predictions(_outdir(args) / "predictions.csv", rows, preds)
    return EXIT_OK


def cmd_tune(args) -> int:
    llm = args.method == "llm"
    _reject_unread(args, f"--method {args.method}", ("budget",) if llm else (), client=llm)
    client = _build_client(args, CyclingProposalClient) if llm else None
    ds = _load_dataset(args)
    if args.grid == "default":
        grid = default_grid()
    else:
        with open_input(args.grid) as fh:
            payload = fh.read()
        try:
            grid = Grid.from_json(payload)
        except DataError as exc:
            raise DataError(f"grid file {args.grid}: {exc}") from None
    if llm:
        budget = {"budget": args.budget} if hasattr(args, "budget") else {}
        report = llm_tuning_loop(ds, client, k=args.k, seed=args.seed, grid=grid, **budget)
    else:
        report = grid_search(ds, grid, k=args.k, seed=args.seed, workers=args.workers)
    out = _outdir(args)
    _write(out / "tune.json", report.to_json())
    text = report.summary_text() + f"\nbest: {report.best.config.to_dict()} -> {report.best.mean_rmse:.4f}"
    _write(out / "tune.txt", text)
    print(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        spec = SimSpec(
            *args.shape,
            generator=args.generator,
            seed=args.seed,
            bkt=args.bkt_params,
            rank=args.rank,
            mask_fraction=args.mask,
            stop_on_correct=args.stop_on_correct,
        )
    except ValueError as exc:  # a flag out of range, or one the chosen generator ignores
        raise UsageError(str(exc)) from None
    result = simulate(spec)
    out = _outdir(args)
    with _writing(out / "data.csv"):
        write_dataset(result.dataset, out / "data.csv")
    print(f"wrote {out / 'data.csv'}")
    _write(out / "truth.json", result.truth_json())
    ds = result.dataset
    print(f"{spec.generator}: {ds.n_records} records, {ds.n_learners}x{ds.n_questions}x{ds.max_attempt}")
    return EXIT_OK


def cmd_llm_run(args) -> int:
    _reject_unread(args, "llm-run", client=True)
    client = _build_client(args)
    train = parse_dataset(args.train, meta_path=args.meta)
    test = parse_dataset(args.test)
    result = llm_predict_pipeline(train, test, client, repeats=args.repeats,
                                  rows_per_chunk=args.rows_per_chunk, concurrency=args.workers)
    rejected = sum(result.rejected_per_run)
    if rejected:
        replies = sum(n > 0 for n in result.rejected_per_run)
        print(f"warning: {replies} of {result.repeats} replies held rejected records, {rejected} in all "
              f"(first: {result.first_rejection})", file=sys.stderr)
    out = _outdir(args)
    fields_kept = ("repeats", "coverage", "imputed_per_run", "run_rmse", "mean_rmse", "std_error")
    payload = {name: getattr(result, name) for name in fields_kept}
    _write(out / "report.json", json.dumps(payload, indent=2))
    _write(out / "script.txt", result.script_text)
    _write_predictions(out / "predictions.csv", result.test_keys, result.mean_predictions)
    if result.mean_rmse is not None:
        print(f"mean RMSE over {result.repeats} runs: {result.mean_rmse:.4f} "
              f"(SE {result.std_error:.4f}, coverage {result.coverage:.3f})")
    else:
        print(f"predictions written (no test labels; coverage {result.coverage:.3f})")
    return EXIT_OK


def _read_cv_reports(path) -> list[CvReport]:
    """The CvReports in one cv report.json, flat or nested by dataset."""
    with open_input(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from None
    reports = []
    try:
        for model_name, value in payload.items():
            if isinstance(value, dict) and "fold_rmse" in value:  # flat: model -> record
                records = [(value.get("dataset", ""), value)]
            else:  # nested: model -> dataset -> record
                records = value.items()
            for dataset, record in records:
                if not isinstance(dataset, str):
                    raise TypeError(f"dataset of {model_name!r} is {json.dumps(dataset)}, not a string")
                reports.append(
                    CvReport(model_name=model_name, fold_rmse=tuple(record["fold_rmse"]),
                             dataset=dataset or Path(path).stem)
                )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: not a cv report ({type(exc).__name__}: {exc})") from None
    return reports


def cmd_report(args) -> int:
    reports, source = [], {}
    for path in args.inputs:
        for report in _read_cv_reports(path):
            pair = (report.model_name, report.dataset or "RMSE")
            if pair in source:
                raise DataError(f"{pair[0]} on {pair[1]} is reported in both {source[pair]} and {path}")
            source[pair] = path
            reports.append(report)
    if not reports:
        raise DataError("no cross-validation reports found in the given files")
    out = _outdir(args)
    table = report_table(reports)
    _write(out / "report.txt", table)
    _write(out / "report.json", reports_to_json(reports))
    print(table)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lppred", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a data file", parents=[], add_help=True)
    _add_common(p, "data")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("summarize", help="descriptive statistics")
    _add_common(p, "data", "out")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("cv", help="k-fold cross-validated RMSE for one model",
                       parents=[_model_flags(), _client_flags()])
    # cv reads no --workers; it stays because the benchmark's commands pass it
    _add_common(p, "data", "seed", "out", "workers")
    p.add_argument("--model", required=True, choices=ALL_MODELS)
    p.add_argument("--k", type=_at_least(2), default=5)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("fit", help="fit a local model on all labeled rows, export JSON", parents=[_model_flags()])
    _add_common(p, "data", "seed", "out")
    p.add_argument("--model", required=True, choices=LOCAL_MODELS)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="fit on labeled rows, predict targets", parents=[_model_flags()])
    _add_common(p, "data", "seed", "out")
    p.add_argument("--model", required=True, choices=LOCAL_MODELS)
    p.add_argument("--targets", help="CSV of rows to predict (defaults to unlabeled rows of --data)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("tune", help="hyperparameter search for gbt", parents=[_client_flags(budget=True)])
    _add_common(p, "data", "seed", "out", "workers")
    p.add_argument("--model", choices=("gbt",), default="gbt")
    p.add_argument("--method", choices=("grid", "llm"), default="grid")
    p.add_argument("--grid", default="default", help="'default' or a JSON grid file")
    p.add_argument("--k", type=_at_least(2), default=5)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("simulate", help="generate a synthetic dataset with ground truth")
    _add_common(p, "seed", "out")
    p.add_argument("--generator", choices=GENERATORS, default="bkt-process")
    p.add_argument("--shape", required=True, type=_shape,
                   help="learners x questions x attempts, e.g. 66x8x9")
    p.add_argument("--bkt-params", type=_bkt_params,
                   help='JSON like {"p_init":0.3,...} for bkt-process')
    p.add_argument("--rank", type=int, help="low-rank generators: concepts (default 2)")
    p.add_argument("--mask", type=_fraction, default=0.0, help="fraction of cells left unlabeled")
    p.add_argument("--stop-on-correct", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("llm-run", help="encode -> client -> decode prediction pipeline", parents=[_client_flags()])
    # llm-run reads no --seed; it stays because the benchmark's commands pass it
    _add_common(p, "seed", "out", "workers")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--meta")
    p.add_argument("--repeats", type=_at_least(1), default=1)
    p.add_argument("--rows-per-chunk", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_llm_run)

    p = sub.add_parser("report", help="merge cv report JSONs into one comparison table")
    _add_common(p, "out")
    p.add_argument("--inputs", nargs="+", required=True)
    p.set_defaults(func=cmd_report)

    return parser


# Failure classes by exit code; the first match wins, anything else is a model error.
_EXITS = (
    (UsageError, EXIT_USAGE, "usage error"),
    (DataError, EXIT_DATA, "data error"),
    (ClientError, EXIT_CLIENT, "client error"),
)


def _exit_for(exc: Exception) -> tuple[int, str]:
    """Exit code and label of a failure; a fold failure is classed by its cause."""
    cause = exc.cause if isinstance(exc, FoldFitError) else exc
    for kind, code, label in _EXITS:
        if isinstance(cause, kind):
            return code, label
    return EXIT_MODEL, "model error"


def main(argv=None) -> int:
    """Run one command and return its exit code; every failure is classed by ``_exit_for``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _inject_config_args(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the process boundary: report and exit with the class's code
        code, label = _exit_for(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
