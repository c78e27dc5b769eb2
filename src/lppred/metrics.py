"""RMSE, cross-validation harness, and benchmark report formatting.

Every predictor in the suite is evaluated the same way: k-fold
cross-validation over the labeled rows, RMSE per held-out fold, and the
fold mean reported with its standard error (sample standard deviation of
the fold RMSEs divided by sqrt(k)).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .data import DataError, Dataset, make_folds
from .seeds import derive_seed


class Predictor(Protocol):
    """Common contract for every model: fit on a Dataset, predict probabilities.

    ``predict`` takes raw (learner_id, question_id, attempt) triples so that
    rows involving ids unseen during training reach the model's documented
    fallback path instead of failing.
    """

    def fit(self, train: Dataset) -> "Predictor": ...

    def predict(self, rows: Sequence[tuple[str, str, int]]) -> np.ndarray: ...


PredictorFactory = Callable[[int], "Predictor"]


def rmse(predicted, actual) -> float:
    """Root mean squared error between predicted probabilities and binary outcomes."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1:
        raise ValueError(f"length mismatch: predicted {p.shape}, actual {a.shape}")
    if p.size == 0:
        raise ValueError("rmse of empty input")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both
        raise ValueError("predicted values must lie in [0, 1]")
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("actual values must be 0 or 1")
    return float(np.sqrt(np.mean((p - a) ** 2)))


@dataclass(frozen=True)
class CvReport:
    """Per-fold RMSE values for one model on one dataset."""

    model_name: str
    fold_rmse: tuple[float, ...]
    dataset: str = ""

    def __post_init__(self):
        if not self.fold_rmse:
            raise ValueError("CvReport requires at least one fold RMSE")
        # an RMSE of probabilities against 0/1 outcomes lies in [0, 1]; NaN fails too
        if any(not 0 <= v <= 1 for v in self.fold_rmse):
            raise ValueError("fold RMSE values must be numbers in [0, 1]")

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.fold_rmse))

    @property
    def std_error(self) -> float:
        """Sample standard deviation of the fold RMSEs over sqrt(k)."""
        k = len(self.fold_rmse)
        if k < 2:
            return 0.0
        return float(np.std(self.fold_rmse, ddof=1) / math.sqrt(k))

    def to_dict(self) -> dict:
        return {
            "fold_rmse": list(self.fold_rmse),
            "mean": self.mean_rmse,
            "se": self.std_error,
            "dataset": self.dataset,
        }


class FoldFitError(RuntimeError):
    """A predictor failed while fitting or predicting one fold."""

    def __init__(self, fold: int, cause: Exception):
        super().__init__(f"fold {fold}: {cause}")
        self.fold = fold
        self.cause = cause


Fold = tuple[int, Dataset, list]  # (fold_seed, train, test_keys)
FoldPredict = Callable[[Iterator[Fold]], Iterable[Sequence[np.ndarray]]]


def fold_rmse_table(
    fit_predict: FoldPredict, ds: Dataset, k: int = 5, seed: int = 0
) -> list[tuple[float, ...]]:
    """The k-fold loop: fold RMSEs of each prediction ``fit_predict`` returns.

    ``fit_predict`` gets an iterator over the k folds, each a ``(fold_seed,
    train, test_keys)`` triple with ``fold_seed = derive_seed(seed, "fold",
    index)`` and ``train`` the other k-1 folds. It returns, fold by fold, one
    or more prediction arrays for the held-out keys: either a generator that
    draws, fits and predicts one fold at a time, or a list after taking
    every fold at once. Returns one tuple of k fold RMSEs per array. An
    error raised while fold ``i``'s predictions are drawn from a generator
    is re-raised as ``FoldFitError(i)``. A warning issued meanwhile is
    re-issued as ``fold i: <message>`` from its own line, so a fitter that
    warns on several folds shows once per fold, not once per process. Test
    outcomes are withheld: the callback only ever sees the key triples. An
    unlabeled row, or a ``k`` the labeled rows cannot fill, is a ``DataError``.
    """
    unlabeled = len(ds.unlabeled_positions())
    if unlabeled:
        raise DataError(f"cross-validation needs every row labeled; {unlabeled} rows have no obs")
    split = make_folds(ds, k, seed)
    folds = (
        (
            derive_seed(seed, "fold", fold),
            ds.subset(split.train_positions(fold)),
            ds.keys(split.fold_positions(fold)),
        )
        for fold in range(k)
    )
    results = iter(fit_predict(folds))
    per_fold = []
    for fold in range(k):
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                predictions = next(results)
        except Exception as exc:  # noqa: BLE001 - annotate fold and re-raise
            raise FoldFitError(fold, exc) from exc
        finally:
            for w in caught:
                warnings.warn_explicit(f"fold {fold}: {w.message}", w.category, w.filename, w.lineno)
        actual = ds.obs_array(split.fold_positions(fold))
        per_fold.append([rmse(predicted, actual) for predicted in predictions])
    return list(zip(*per_fold))


def cross_validate(
    factory: PredictorFactory,
    ds: Dataset,
    k: int = 5,
    seed: int = 0,
    model_name: str = "",
    dataset_name: str = "",
) -> CvReport:
    """k-fold cross-validation of a predictor family over a fully labeled dataset.

    Each fold gets a fresh predictor built by ``factory(fold_seed)``, is
    fitted on the other k-1 folds, and is scored by RMSE on the held-out rows
    (see ``fold_rmse_table``).
    """

    def fit_predict(folds):
        for fold_seed, train_ds, test_keys in folds:
            model = factory(fold_seed)
            model.fit(train_ds)
            yield [model.predict(test_keys)]

    (fold_scores,) = fold_rmse_table(fit_predict, ds, k, seed)
    return CvReport(
        model_name=model_name or getattr(factory, "__name__", "model"),
        fold_rmse=fold_scores,
        dataset=dataset_name,
    )


def format_cell(mean: float, se: float) -> str:
    """Benchmark-table cell: mean with the standard error subscripted."""
    return f"{mean:.3f}_{{{se:.3f}}}"


def report_table(reports: Sequence[CvReport]) -> str:
    """Plain-text comparison table: rows are models, columns are datasets.

    Cells show mean RMSE with subscripted standard error; the lowest mean in
    each column is starred (ties all starred).
    """
    if not reports:
        raise ValueError("no reports to tabulate")
    models: list[str] = []
    datasets: list[str] = []
    cells: dict[tuple[str, str], CvReport] = {}
    for rep in reports:
        if rep.model_name not in models:
            models.append(rep.model_name)
        col = rep.dataset or "RMSE"
        if col not in datasets:
            datasets.append(col)
        cells[(rep.model_name, col)] = rep

    best: dict[str, float] = {}
    for col in datasets:
        means = [cells[(m, col)].mean_rmse for m in models if (m, col) in cells]
        best[col] = min(means) if means else math.nan

    name_width = max(len("Model"), max(len(m) for m in models))
    col_width = max(16, max(len(c) for c in datasets) + 2)
    header = "Model".ljust(name_width) + "".join(c.rjust(col_width) for c in datasets)
    lines = [header, "-" * len(header)]
    for m in models:
        row = [m.ljust(name_width)]
        for col in datasets:
            rep = cells.get((m, col))
            if rep is None:
                row.append("-".rjust(col_width))
                continue
            cell = format_cell(rep.mean_rmse, rep.std_error)
            if rep.mean_rmse == best[col]:
                cell += "*"
            row.append(cell.rjust(col_width))
        lines.append("".join(row))
    lines.append("* lowest mean RMSE in column")
    return "\n".join(lines)


def reports_to_json(reports: Sequence[CvReport]) -> str:
    """Machine-readable report: model -> {fold_rmse[], mean, se}.

    When several datasets are present the per-dataset dicts are nested one
    level deeper under the dataset label.
    """
    datasets = {r.dataset for r in reports}
    payload: dict = {}
    if len(datasets) <= 1:
        for rep in reports:
            payload[rep.model_name] = rep.to_dict()
    else:
        for rep in reports:
            payload.setdefault(rep.model_name, {})[rep.dataset or "RMSE"] = rep.to_dict()
    return json.dumps(payload, indent=2)
