"""Low-rank logistic matrix completion with automatic rank selection.

Outcomes are collapsed to a binary learner-by-question matrix (first attempt
per pair) and modeled as

    P(correct) = sigmoid(learner_factors[l] . question_factors[:, q] + intercept[q])

The learner factors capture understanding of latent concepts, the question
factors the concept loading of each question, and the intercept the
question's inherent difficulty. The objective is the per-cell mean NLL plus
an L2 penalty on the factor blocks, so the regularization strength has the
same meaning regardless of how many cells are observed; factors start at a
truncated SVD of the centered response matrix.

Each rank fit takes Levenberg-Marquardt-damped Newton steps on W, C and the
intercepts together, on the full Hessian with its bilinear learner-question
cross term. A Schur complement eliminates the Hessian's block-diagonal learner
part and leaves one dense system in the (rank + 1) * n_questions question
unknowns. A step is taken only if the damped Hessian is positive definite
(the Cholesky factorizations of the learner blocks and of the complement
succeed) and the objective does not rise; otherwise the damping grows
tenfold, and after a step it shrinks tenfold. A fit converges when a step
gains less than ``TOL`` and stalls when ``MAX_ITER`` Newton steps, rejected
ones included, or the damping cap run out first; ``sparfa_fit`` then warns.

The number of latent concepts is chosen automatically: each candidate rank
(always including the intercept-only rank 0) is scored by held-out log-loss
on an internal k-fold split of the observed cells, and the winner is
refitted on all observed cells.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset, _logloss, _sigmoid, encode_keys
from .metrics import LocalModel
from .seeds import derive_seed

DEFAULT_RANK_CANDIDATES = (1, 2, 3, 4)
FACTOR_L2 = 0.01   # factor ridge on the per-cell mean NLL, not exposed as a tunable
MAX_ITER = 200     # damped Newton steps per rank fit, rejected ones included
TOL = 1e-9         # converged once one step gains less than this
INNER_FOLDS = 4    # internal validation split of the observed cells


@dataclass
class LowRankModel:
    """Fitted factors; rank 0 means intercept-only."""

    learner_factors: np.ndarray    # (n_learners, rank)
    question_factors: np.ndarray   # (rank, n_questions)
    intercepts: np.ndarray         # (n_questions,)
    rank: int
    learner_index: dict[str, int] = field(default_factory=dict)
    question_index: dict[str, int] = field(default_factory=dict)
    global_mean: float = 0.5
    objective_trace: tuple[float, ...] = ()
    rank_val_logloss: dict[int, float] = field(default_factory=dict)
    converged: bool = True  # every rank fit stopped on TOL

    def to_dict(self) -> dict:
        return {
            "W": self.learner_factors.tolist(),
            "C": self.question_factors.tolist(),
            "mu": self.intercepts.tolist(),
            "r": self.rank,
            "learners": list(self.learner_index),
            "questions": list(self.question_index),
        }


def _first_attempt_cells(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse to one (learner, question, outcome) cell per pair: earliest labeled attempt.

    Cells come in order of each pair's first labeled record.
    """
    labeled = np.flatnonzero(ds.obs >= 0)
    pair = ds.learner[labeled] * ds.n_questions + ds.question[labeled]
    by_attempt = np.lexsort((ds.attempt[labeled], pair))
    head = np.ones(len(by_attempt), dtype=bool)
    head[1:] = pair[by_attempt[1:]] != pair[by_attempt[:-1]]
    earliest = labeled[by_attempt[head]]  # ascending pair order
    _, first_seen = np.unique(pair, return_index=True)
    cells = earliest[np.argsort(first_seen)]
    return ds.learner[cells], ds.question[cells], ds.obs[cells].astype(float)


def _fit_intercept_only(cols, vals, n_q):
    """Per-question intercepts at the smoothed empirical log-odds."""
    totals = np.bincount(cols, minlength=n_q).astype(float)
    correct = np.bincount(cols, weights=vals, minlength=n_q)
    rate = (correct + 0.5) / (totals + 1.0)
    return np.log(rate / (1.0 - rate))


def _newton_system(cells, vals, w, c, mu):
    """Gradient and Hessian of the objective in W and in [C; mu], each raveled.

    ``cells`` holds each observed cell's flat position learner * n_q + question,
    one cell per pair; other pairs get zero residual and curvature, so sums over
    cells are matmuls. Returns the gradient, the learner blocks (n_l, rank, rank),
    the cross block (n_l, rank, m), to which a cell adds ``weight * c [w; 1]^T +
    resid [I 0]``, and the question system (m, m), m = (rank + 1) * n_q.
    """
    (n_l, rank), n_q = w.shape, mu.size
    z = (w @ c + mu).ravel()[cells]
    p = _sigmoid(z)
    # sigmoid(z) * sigmoid(-z) stays positive where 1 - p rounds to 0
    resid, weight = np.zeros((2, n_l, n_q))
    resid.flat[cells], weight.flat[cells] = (p - vals) / len(vals), p * _sigmoid(-z) / len(vals)
    x = np.column_stack([w, np.ones(n_l)])
    ridge = np.append(np.full(rank, FACTOR_L2), 0.0)  # the intercept is not penalized
    grad = np.concatenate([(resid @ c.T + FACTOR_L2 * w).ravel(),
                           (x.T @ resid + ridge[:, None] * np.vstack([c, mu])).ravel()])
    blocks = weight @ (c[:, None, :] * c[None, :, :]).reshape(rank * rank, n_q).T
    blocks = blocks.reshape(n_l, rank, rank) + FACTOR_L2 * np.eye(rank)
    system = np.zeros((rank + 1, n_q, rank + 1, n_q))
    system[:, np.arange(n_q), :, np.arange(n_q)] = (
        weight.T @ (x[:, :, None] * x[:, None, :]).reshape(n_l, -1)
    ).reshape(n_q, rank + 1, rank + 1) + np.diag(ridge)
    cross = (weight[:, None, :] * c)[:, :, None, :] * x[:, None, :, None]
    cross[:, np.arange(rank), np.arange(rank)] += resid[:, None]
    m = (rank + 1) * n_q
    return grad, blocks, cross.reshape(n_l, rank, m), system.reshape(m, m)


def _damped_direction(grad, blocks, cross, system, damping):
    """Solve (H + damping I) d = grad, the learners eliminated by a Schur complement.

    With L a learner block's Cholesky factor and X = L^-1 B for its rows B of
    the cross block, the complement is the question system minus X^T X.
    Raises ``np.linalg.LinAlgError`` unless H + damping I is positive definite.
    """
    n_l, rank, m = cross.shape
    inv_chol = np.linalg.inv(np.linalg.cholesky(blocks + damping * np.eye(rank)))
    x = (inv_chol @ cross).reshape(n_l * rank, m)
    y = (inv_chol @ grad[: n_l * rank].reshape(n_l, rank, 1)).ravel()
    schur = system + damping * np.eye(m) - x.T @ x
    np.linalg.cholesky(schur)
    d_q = np.linalg.solve(schur, grad[n_l * rank :] - x.T @ y)
    d_w = inv_chol.transpose(0, 2, 1) @ (y - x @ d_q).reshape(n_l, rank, 1)
    return np.concatenate([d_w.ravel(), d_q])


def _fit_rank(rows, cols, vals, n_l, n_q, rank, seed):
    """Levenberg-Marquardt-damped Newton steps on the regularized mean logistic NLL.

    Returns the factors, intercepts, objective trace and whether the fit
    stopped on ``TOL`` before ``MAX_ITER`` steps or the damping cap.
    """
    rng = np.random.default_rng(seed)
    n_cells, cells = len(vals), rows * n_q + cols
    mu = _fit_intercept_only(cols, vals, n_q)

    # spectral start: leading factors of the intercept-centered residuals
    resid_mat = np.zeros((n_l, n_q))
    resid_mat[rows, cols] = vals - _sigmoid(mu[cols])
    left, sing, right = np.linalg.svd(resid_mat, full_matrices=False)
    w = left[:, :rank] * np.sqrt(sing[:rank]) * 2.0 + rng.normal(0.0, 0.01, (n_l, rank))
    c = (right[:rank, :].T * np.sqrt(sing[:rank])).T * 2.0 + rng.normal(0.0, 0.01, (rank, n_q))

    def objective(wm, cm, mm):
        z = (wm @ cm + mm).ravel()[cells]
        nll = float(np.sum(np.logaddexp(0.0, z) - vals * z)) / n_cells
        return nll + 0.5 * FACTOR_L2 * (float(np.sum(wm * wm)) + float(np.sum(cm * cm)))

    system = _newton_system(cells, vals, w, c, mu)
    obj = objective(w, c, mu)
    trace = [obj]
    damping, converged = 1e-3, False  # damping stays within [1e-12, 1e10]
    for _ in range(MAX_ITER):
        try:
            step = _damped_direction(*system, damping)
        except np.linalg.LinAlgError:  # H + damping I is not positive definite
            step = None
        if step is not None:
            coef = np.vstack([c, mu]) - step[n_l * rank :].reshape(rank + 1, n_q)
            cand = w - step[: n_l * rank].reshape(n_l, rank), coef[:rank], coef[rank]
        if step is not None and (cand_obj := objective(*cand)) <= obj:
            converged = obj - cand_obj < TOL
            (w, c, mu), obj = cand, cand_obj
            trace.append(obj)
            if converged:
                break
            damping = max(damping / 10.0, 1e-12)
            system = _newton_system(cells, vals, w, c, mu)
        elif (damping := damping * 10.0) > 1e10:  # no step, a rise or a NaN
            break
    return w, c, mu, trace, converged


def _check_rank_candidates(rank_candidates) -> None:
    bad = next((r for r in rank_candidates if not r >= 0), None)
    if bad is not None:
        raise ValueError(f"rank candidates must be >= 0, got {bad}")


def sparfa_fit(
    train: Dataset, rank_candidates: Sequence[int] = DEFAULT_RANK_CANDIDATES, seed: int = 0
) -> LowRankModel:
    """Fit the low-rank model, selecting the rank by internal validation.

    The observed cells are split (seeded) into ``INNER_FOLDS`` parts; every
    candidate rank plus the intercept-only rank 0 is scored by summed
    held-out log-loss over the parts, and the winner is refitted on all
    cells. An all-constant observation matrix short-circuits to rank 0.
    """
    n_l, n_q = train.n_learners, train.n_questions
    if n_l < 2 or n_q < 2:
        raise ValueError("need at least 2 learners and 2 questions")
    rows, cols, vals = _first_attempt_cells(train)
    global_mean = float(vals.mean())

    _check_rank_candidates(rank_candidates)
    candidates = sorted({int(r) for r in rank_candidates if r > 0})
    for r in candidates:
        if r > min(n_l, n_q):
            raise ValueError(f"rank {r} exceeds min(n_learners, n_questions)")

    def build(rank, w, c, mu, trace, val_scores, converged=True):
        return LowRankModel(
            learner_factors=w,
            question_factors=c,
            intercepts=mu,
            rank=rank,
            learner_index=dict(train.learner_index),
            question_index=dict(train.question_index),
            global_mean=global_mean,
            objective_trace=tuple(trace),
            rank_val_logloss=val_scores,
            converged=converged,
        )

    if np.all(vals == vals[0]):
        mu = _fit_intercept_only(cols, vals, n_q)
        return build(0, np.zeros((n_l, 0)), np.zeros((0, n_q)), mu, (), {})

    rng = np.random.default_rng(derive_seed(seed, "sparfa-val"))
    n_cells = len(vals)
    folds = rng.permutation(n_cells) % max(2, min(INNER_FOLDS, n_cells))

    val_scores: dict[int, float] = {r: 0.0 for r in [0] + candidates}
    stalled = 0  # rank fits that ran out of MAX_ITER or of damping
    for fold in range(folds.max() + 1):
        hold = folds == fold
        fit_rows, fit_cols, fit_vals = rows[~hold], cols[~hold], vals[~hold]
        val_rows, val_cols, val_vals = rows[hold], cols[hold], vals[hold]
        mu0 = _fit_intercept_only(fit_cols, fit_vals, n_q)
        val_scores[0] += _logloss(mu0[val_cols], val_vals) * len(val_vals)
        for r in candidates:
            w, c, mu, _, converged = _fit_rank(
                fit_rows, fit_cols, fit_vals, n_l, n_q, r, derive_seed(seed, "sparfa-fit", fold, r)
            )
            stalled += not converged
            z = np.sum(w[val_rows] * c[:, val_cols].T, axis=1) + mu[val_cols]
            val_scores[r] += _logloss(z, val_vals) * len(val_vals)

    best_rank = min(val_scores, key=lambda r: (val_scores[r], r))
    if best_rank == 0:
        mu = _fit_intercept_only(cols, vals, n_q)
        w, c, trace = np.zeros((n_l, 0)), np.zeros((0, n_q)), ()
    else:
        w, c, mu, trace, converged = _fit_rank(
            rows, cols, vals, n_l, n_q, best_rank, derive_seed(seed, "sparfa-refit", best_rank)
        )
        stalled += not converged
    if stalled:
        warnings.warn(f"sparfa_fit: {stalled} rank fits stopped at MAX_ITER={MAX_ITER} steps "
                      "or the damping cap before TOL")
    return build(best_rank, w, c, mu, trace, val_scores, converged=not stalled)


def sparfa_predict(model: LowRankModel, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
    """Success probabilities for (learner, question, attempt) rows; the attempt is ignored.

    Unseen learners fall back to the question intercept alone; unseen
    questions fall back to the global training mean.
    """
    learner, question, _ = encode_keys(rows, model.learner_index, model.question_index)
    # codes of -1 index the last row; np.where discards what they pick
    w = model.learner_factors[learner][:, None, :]
    c = model.question_factors[:, question].T[:, :, None]
    z = model.intercepts[question] + np.where(learner >= 0, (w @ c)[:, 0, 0], 0.0)
    return np.where(question >= 0, _sigmoid(z), model.global_mean)


class SparfaModel(LocalModel):
    """Predictor wrapper. Attempts share the pair's matrix probability."""

    def __init__(self, rank_candidates: Sequence[int] = DEFAULT_RANK_CANDIDATES, seed: int = 0):
        _check_rank_candidates(rank_candidates)
        self.rank_candidates = tuple(rank_candidates)
        self.seed = seed

    def fit(self, train: Dataset) -> "SparfaModel":
        self.model = sparfa_fit(train, rank_candidates=self.rank_candidates, seed=self.seed)
        return self

    def predict(self, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
        return sparfa_predict(self.fitted(), rows)
