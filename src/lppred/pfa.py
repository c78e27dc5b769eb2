"""Performance Factor Analysis: logistic model over prior success/failure counts.

The log-odds of a correct answer are

    beta[question] + gamma[learner] + alpha * s + rho * f

where s and f count the learner's earlier correct and incorrect attempts on
the same question (one skill per question). ``gamma`` is the per-learner
ability term that captures variability among individual learners; learners
absent from training predict with gamma = 0.

Fitting minimizes the L2-regularized negative log-likelihood, a convex
logistic GLM with n_questions + n_learners + 2 parameters, by Newton's
method: each step solves the dense Hessian system and backtracks along the
Newton direction until the objective falls (Armijo), so it never increases.
A fit is ``converged`` when the gradient's infinity-norm falls below
``GRAD_TOL`` or the Newton decrement reaches rounding level within the
``max_iter`` step budget; otherwise it warns and reports ``converged=False``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, _sigmoid, encode_keys
from .metrics import LocalModel
from .seeds import derive_seed

DEFAULT_L2 = 0.1    # regularization strength
GRAD_TOL = 1e-6     # fitting stops once |grad|_inf falls below this


@dataclass
class PfaParams:
    """Fitted weights of the logistic model."""

    beta: dict[str, float]   # per-question difficulty/easiness intercept
    gamma: dict[str, float]  # per-learner ability
    alpha: float             # weight on prior successes
    rho: float               # weight on prior failures
    l2: float
    converged: bool = True
    objective: float = float("nan")
    # regularized NLL after each accepted line-search step
    objective_trace: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "beta": dict(self.beta),
            "gamma": dict(self.gamma),
            "alpha": self.alpha,
            "rho": self.rho,
            "l2": self.l2,
            "converged": self.converged,
        }


def _prior_counts(outcomes: np.ndarray, learner, question, attempt) -> tuple[np.ndarray, np.ndarray]:
    """Successes and failures before each queried attempt, from an outcome table.

    ``outcomes`` is ``Dataset.outcome_table()`` of the history; queries are
    (learner code, question code, attempt) in the same codes.
    """
    slot = np.minimum(attempt, outcomes.shape[2]) - 1
    counts = []
    for value in (1, 0):
        hit = outcomes == value
        counts.append((np.cumsum(hit, axis=2) - hit)[learner, question, slot])
    return counts[0], counts[1]


def pfa_features(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Prior-success and prior-failure counts aligned with the rows of ``ds``.

    Counts are causal: only labeled attempts of the same (learner, question)
    with a lower ordinal contribute, so reordering or relabeling later rows
    never changes earlier features.
    """
    return _prior_counts(ds.outcome_table(), ds.learner, ds.question, ds.attempt)


def _objective_and_grad(theta, q_idx, l_idx, s, f, y, n_q, n_l, l2):
    """Regularized NLL and its gradient over the packed parameter vector.

    Layout: theta = [beta (n_q), gamma (n_l), alpha, rho].
    """
    beta = theta[:n_q]
    gamma = theta[n_q : n_q + n_l]
    alpha, rho = theta[-2], theta[-1]
    z = beta[q_idx] + gamma[l_idx] + alpha * s + rho * f
    # stable softplus: log(1 + e^z) = logaddexp(0, z)
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    obj = nll + 0.5 * l2 * float(theta @ theta)

    resid = _sigmoid(z) - y
    grad = np.empty_like(theta)
    grad[:n_q] = np.bincount(q_idx, weights=resid, minlength=n_q)
    grad[n_q : n_q + n_l] = np.bincount(l_idx, weights=resid, minlength=n_l)
    grad[-2] = float(resid @ s)
    grad[-1] = float(resid @ f)
    grad += l2 * theta
    return obj, grad


def _hessian(theta, q_idx, l_idx, s, f, n_q, n_l, l2):
    """Hessian X^T D X + l2 I of the objective, with D = p(1 - p) per labeled row.

    Each row of the design X has four nonzeros, at columns (question,
    n_q + learner, alpha, rho) with values (1, 1, s, f); the 16 products of
    each row land on their (column, column) cells in one ``np.bincount``.
    """
    n_par = n_q + n_l + 2
    z = theta[q_idx] + theta[n_q + l_idx] + theta[-2] * s + theta[-1] * f
    # sigmoid(z) * sigmoid(-z) stays positive where 1 - sigmoid(z) rounds to 0
    weight = _sigmoid(z) * _sigmoid(-z)
    cols = np.stack(
        [q_idx, n_q + l_idx, np.full_like(q_idx, n_par - 2), np.full_like(q_idx, n_par - 1)], axis=1
    )
    vals = np.stack([np.ones_like(s), np.ones_like(s), s, f], axis=1)
    cells = cols[:, :, None] * n_par + cols[:, None, :]
    products = weight[:, None, None] * vals[:, :, None] * vals[:, None, :]
    hess = np.bincount(cells.ravel(), weights=products.ravel(), minlength=n_par * n_par)
    hess = hess.reshape(n_par, n_par)
    hess[np.diag_indices(n_par)] += l2
    return hess


def _check_l2(l2) -> None:
    if not l2 >= 0:  # written so that NaN fails
        raise ValueError("l2 must be non-negative")


def pfa_fit(train: Dataset, l2: float = DEFAULT_L2, max_iter: int = 50, seed: int = 0) -> PfaParams:
    """Minimize the L2-regularized NLL by Newton's method with Armijo backtracking.

    Stops when the gradient infinity-norm falls below ``GRAD_TOL`` or the
    Newton decrement g.d reaches rounding level (1e-12 (1 + |objective|));
    with a large ``l2`` roundoff alone keeps the gradient near 1e-6. The
    problem is convex, so different seeds (which only jitter the starting
    point) land on the same objective value. If the ``max_iter`` Newton steps
    run out first, or no step along the Newton direction lowers the
    objective, the last iterate is returned with ``converged=False`` and a
    warning. With ``l2 = 0`` the Hessian is singular (the question and the
    learner intercepts each sum to a constant column), so the step is the
    minimum-norm least-squares solution.
    """
    _check_l2(l2)
    labeled = train.obs >= 0
    if not labeled.any():
        raise ValueError("pfa_fit requires at least one labeled record")

    successes, failures = pfa_features(train)
    n_q, n_l = train.n_questions, train.n_learners
    q_idx = train.question[labeled]
    l_idx = train.learner[labeled]
    s = successes[labeled].astype(float)
    f = failures[labeled].astype(float)
    y = train.obs[labeled].astype(float)

    rng = np.random.default_rng(derive_seed(seed, "pfa"))
    theta = rng.normal(0.0, 0.01, size=n_q + n_l + 2)
    obj, grad = _objective_and_grad(theta, q_idx, l_idx, s, f, y, n_q, n_l, l2)

    trace = [obj]
    converged = False
    for _ in range(max_iter):
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        hess = _hessian(theta, q_idx, l_idx, s, f, n_q, n_l, l2)
        if l2 > 0:
            direction = np.linalg.solve(hess, grad)
        else:
            direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        decrement = float(grad @ direction)
        if decrement <= 1e-12 * (1.0 + abs(obj)):
            converged = True
            break
        # Armijo backtracking on the Newton direction
        step = 1.0
        while True:
            candidate = theta - step * direction
            cand_obj, cand_grad = _objective_and_grad(
                candidate, q_idx, l_idx, s, f, y, n_q, n_l, l2
            )
            if cand_obj <= obj - 1e-4 * step * decrement:
                break
            step *= 0.5
            if step < 1e-14:
                break
        if step < 1e-14:
            break
        theta, obj, grad = candidate, cand_obj, cand_grad
        trace.append(obj)
    if not converged and np.max(np.abs(grad)) < GRAD_TOL:
        converged = True
    if not converged:
        warnings.warn(
            f"pfa_fit stopped before reaching gradient tolerance "
            f"(|grad|_inf = {np.max(np.abs(grad)):.2e})"
        )

    q_ids = list(train.question_index)
    l_ids = list(train.learner_index)
    return PfaParams(
        beta={qid: float(theta[i]) for i, qid in enumerate(q_ids)},
        gamma={lid: float(theta[n_q + i]) for i, lid in enumerate(l_ids)},
        alpha=float(theta[-2]),
        rho=float(theta[-1]),
        l2=l2,
        converged=converged,
        objective=obj,
        objective_trace=tuple(trace),
    )


class PfaModel(LocalModel):
    """Predictor wrapper around pfa_fit.

    Prediction features (prior success/failure counts) are counted for all
    queried rows at once from the training rows.
    """

    def __init__(self, l2: float = DEFAULT_L2, seed: int = 0):
        _check_l2(l2)
        self.l2 = l2
        self.seed = seed
        self._train: Dataset | None = None

    def fit(self, train: Dataset) -> "PfaModel":
        self.model = pfa_fit(train, l2=self.l2, seed=self.seed)
        self._train = train
        return self

    def predict(self, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
        """Success probabilities; ids without a fitted weight take weight 0."""
        train, params = self._train, self.fitted()
        learner, question, attempt = encode_keys(rows, train.learner_index, train.question_index)
        s, f = _prior_counts(train.outcome_table(), learner, question, attempt)
        # code -1 (unseen id) selects the trailing 0.0
        beta = np.array([params.beta.get(qid, 0.0) for qid in train.question_index] + [0.0])
        gamma = np.array([params.gamma.get(lid, 0.0) for lid in train.learner_index] + [0.0])
        return _sigmoid(beta[question] + gamma[learner] + params.alpha * s + params.rho * f)
