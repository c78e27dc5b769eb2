"""Three-way factorization of the learner x question x attempt array.

The observed outcomes are modeled as inner products between a learner factor
row and a per-(question, attempt) factor fiber:

    estimate(l, q, a) = learner_factors[l] . qa_factors[:, q, a]

fitted by alternating ridge least squares over the observed cells only:
learner rows are solved in closed form given the fiber factors, then fibers
given the rows. The rows of one half-sweep are independent ridge
regressions, so their (rank x rank) normal equations are summed by
``np.bincount`` and solved in one stacked ``np.linalg.solve`` (a stacked
pseudo-inverse, the minimum-norm solution, when the ridge is 0). Each
subproblem is solved exactly, so the regularized squared-error objective
never increases between sweeps. Sweeps stop once one gains less than
``TOL``; a fit that runs out of sweeps first warns and reports
``converged=False``. After the sweeps, a learner with no labeled cell gets
the mean of the fitted rows, and a fiber with no labeled cell copies the
nearest fitted attempt of its question, the lower one on a tie; both are
whole-array assignments. Predictions are clamped to [0, 1].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

import numpy as np

from .data import Dataset, encode_keys
from .seeds import derive_seed

DEFAULT_RANK = 3
DEFAULT_RIDGE = 0.1
TOL = 1e-10  # sweeps stop once the objective improves by less than this


@dataclass
class TensorModel:
    """Fitted factors plus the index maps needed to answer id-keyed queries."""

    learner_factors: np.ndarray   # (n_learners, rank)
    qa_factors: np.ndarray        # (rank, n_questions, max_attempt)
    rank: int
    ridge: float
    learner_index: dict[str, int] = field(default_factory=dict)
    question_index: dict[str, int] = field(default_factory=dict)
    global_mean: float = 0.5
    objective_trace: tuple[float, ...] = ()
    cold_learners: tuple[str, ...] = ()
    converged: bool = True  # ALS stopped on TOL before ``max_sweeps``

    def to_dict(self) -> dict:
        return {
            "U": self.learner_factors.tolist(),
            "V": self.qa_factors.tolist(),
            "r": self.rank,
            "lambda": self.ridge,
            "learners": list(self.learner_index),
            "questions": list(self.question_index),
        }


def als_objective(u, v_flat, li, qa, y, ridge) -> float:
    """Regularized squared error over the observed cells."""
    est = np.sum(u[li] * v_flat[:, qa].T, axis=1)
    sse = float(np.sum((y - est) ** 2))
    return sse + ridge * (float(np.sum(u * u)) + float(np.sum(v_flat * v_flat)))


def _group_index(groups, n_groups, r):
    """Bincount indices for ``_ridge_solves``, built once per grouping of a fit.

    Returns the flat positions of each cell's r right-hand-side and r * r Gram
    entries among its group's, and the mask of groups without cells.
    """
    return (
        (groups[:, None] * r + np.arange(r)).ravel(),
        (groups[:, None] * (r * r) + np.arange(r * r)).ravel(),
        np.bincount(groups, minlength=n_groups) == 0,
    )


def _ridge_solves(index, x, y, ridge, current):
    """Independent ridge least-squares fits, one per group, in one stacked solve.

    ``index`` is the ``_group_index`` of the cells' groups; ``x`` (cells, r)
    holds their regressors and ``y`` their targets. Returns the (n_groups, r)
    solutions of (X_g^T X_g + ridge I) b = X_g^T y_g, built by ``np.bincount``
    and solved in one ``np.linalg.solve``. With ``ridge == 0`` each group gets
    the minimum-norm least-squares solution, as ``np.linalg.lstsq`` would give,
    through the pseudo-inverse of its Gram matrix. A group without cells keeps
    its row of ``current``.
    """
    rhs_at, gram_at, empty = index
    n_groups, r = len(empty), x.shape[1]
    rhs = np.bincount(rhs_at, weights=(y[:, None] * x).ravel(), minlength=n_groups * r)
    gram = np.bincount(
        gram_at, weights=(x[:, :, None] * x[:, None, :]).ravel(), minlength=n_groups * r * r
    )
    rhs, gram = rhs.reshape(n_groups, r, 1), gram.reshape(n_groups, r, r)
    if ridge > 0:
        gram[:, np.arange(r), np.arange(r)] += ridge
        solved = np.linalg.solve(gram, rhs)[:, :, 0]
    else:
        solved = (np.linalg.pinv(gram, hermitian=True) @ rhs)[:, :, 0]
    return np.where(empty[:, None], current, solved)


def als_fit_cells(
    li: np.ndarray,
    qa: np.ndarray,
    y: np.ndarray,
    n_learners: int,
    n_fibers: int,
    rank: int,
    ridge: float,
    max_sweeps: int,
    tol: float,
    seed: int,
):
    """Core alternating least squares over (learner, fiber, value) cells.

    ``y`` may be any real values; the Dataset-facing fit passes binary
    outcomes while reconstruction checks pass exact products. Returns
    (learner factors, flattened fiber factors, objective trace). Each
    half-sweep is one ``_ridge_solves`` call and solves its subproblems
    exactly, so the trace is non-increasing.
    """
    rng = np.random.default_rng(derive_seed(seed, "tensor"))
    scale = 1.0 / np.sqrt(rank)
    u = rng.uniform(0.0, scale, size=(n_learners, rank))
    v = rng.uniform(0.0, scale, size=(rank, n_fibers))

    by_learner = _group_index(li, n_learners, rank)
    by_fiber = _group_index(qa, n_fibers, rank)
    trace = [als_objective(u, v, li, qa, y, ridge)]
    for _ in range(max_sweeps):
        u = _ridge_solves(by_learner, v[:, qa].T, y, ridge, u)
        v = _ridge_solves(by_fiber, u[li], y, ridge, v.T).T
        trace.append(als_objective(u, v, li, qa, y, ridge))
        if trace[-2] - trace[-1] < tol:
            break
    return u, v, trace


def _check_rank_ridge(rank, ridge) -> None:
    if not rank >= 1:  # written so that NaN fails
        raise ValueError("rank must be >= 1")
    if not ridge >= 0:
        raise ValueError("ridge must be non-negative")


def tensor_fit_als(
    train: Dataset,
    rank: int = DEFAULT_RANK,
    ridge: float = DEFAULT_RIDGE,
    max_sweeps: int = 200,
    seed: int = 0,
) -> TensorModel:
    """Alternating ridge least squares on the observed (learner, question, attempt) cells.

    Iterates full sweeps (all learner rows, then all observed fibers) until
    the objective improvement falls below ``TOL``; if ``max_sweeps`` runs
    out first, ``converged`` is False and a warning is issued. Factors start
    uniform in [0, 1/sqrt(rank)], seeded. Learners without a single observed cell get
    the mean of the fitted rows and are listed in ``cold_learners``.
    """
    _check_rank_ridge(rank, ridge)
    n_l, n_q, n_a = train.n_learners, train.n_questions, train.max_attempt
    if rank > n_l:
        raise ValueError(f"rank {rank} exceeds number of learners {n_l}")

    labeled = train.obs >= 0
    li = train.learner[labeled]
    qa = train.question[labeled] * n_a + (train.attempt[labeled] - 1)
    y = train.obs[labeled].astype(float)
    if y.size == 0:
        raise ValueError("tensor_fit_als requires labeled records")

    u, v, trace = als_fit_cells(li, qa, y, n_l, n_q * n_a, rank, ridge, max_sweeps, TOL, seed)
    # ALS breaks as soon as this holds, so it holds at the end only if ALS stopped on TOL
    converged = len(trace) >= 2 and trace[-2] - trace[-1] < TOL
    if not converged:
        warnings.warn(f"tensor_fit_als: ALS stopped at max_sweeps={max_sweeps} before TOL")

    cold = np.bincount(li, minlength=n_l) == 0
    u[cold] = u[~cold].mean(axis=0)

    # fibers that never appeared in training: borrow the nearest fitted
    # attempt slice of the same question (the lower on a tie, as argmin picks
    # the first) so queries there are not random
    fitted = (np.bincount(qa, minlength=n_q * n_a) > 0).reshape(n_q, n_a)
    slots = np.arange(n_a)
    gap = np.where(fitted[:, None, :], np.abs(slots[:, None] - slots), n_a)  # (question, attempt, fitted h)
    v = v.reshape(rank, n_q, n_a)
    some = fitted.any(axis=1)
    v[:, some] = np.take_along_axis(v, np.argmin(gap, axis=2)[None], axis=2)[:, some]

    return TensorModel(
        learner_factors=u,
        qa_factors=v,
        rank=rank,
        ridge=ridge,
        learner_index=dict(train.learner_index),
        question_index=dict(train.question_index),
        global_mean=float(y.mean()),
        objective_trace=tuple(trace),
        cold_learners=tuple(compress(train.learner_index, cold)),
        converged=converged,
    )


def tensor_predict(model: TensorModel, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
    """Clamped inner-product estimates for (learner, question, attempt) rows.

    Attempts beyond the trained range use the last attempt slice; unseen
    learners use the mean factor row; unseen questions fall back to the
    global training mean.
    """
    learner, question, attempt = encode_keys(rows, model.learner_index, model.question_index)
    u = model.learner_factors
    # learner code -1 selects the appended mean row
    factor_rows = np.vstack([u, u.mean(axis=0)])[learner]
    slot = np.clip(attempt, 1, model.qa_factors.shape[2]) - 1
    fibers = model.qa_factors[:, question, slot]
    # one (1 x r) @ (r x 1) product per row: the same bits as a per-row dot
    est = (factor_rows[:, None, :] @ fibers.T[:, :, None])[:, 0, 0]
    return np.where(question >= 0, np.clip(est, 0.0, 1.0), model.global_mean)


class TensorFactorizationModel:
    """Predictor wrapper around tensor_fit_als/tensor_predict."""

    def __init__(self, rank: int = DEFAULT_RANK, ridge: float = DEFAULT_RIDGE, seed: int = 0):
        _check_rank_ridge(rank, ridge)
        self.rank = rank
        self.ridge = ridge
        self.seed = seed
        self.model: TensorModel | None = None

    def fit(self, train: Dataset) -> "TensorFactorizationModel":
        self.model = tensor_fit_als(train, rank=self.rank, ridge=self.ridge, seed=self.seed)
        return self

    def predict(self, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("predict called before fit")
        return tensor_predict(self.model, rows)

    def export_json(self) -> dict:
        if self.model is None:
            raise RuntimeError("export before fit")
        return self.model.to_dict()
