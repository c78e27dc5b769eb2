"""Bayesian Knowledge Tracing with per-question parameters and EM fitting.

Each question is modeled as a two-state hidden Markov chain over the
learner's mastery of that question's skill. Four probabilities govern the
chain: initial mastery (p_init), the per-opportunity transition from
unmastered to mastered (p_learn), answering wrong while mastered (p_slip),
and answering right while unmastered (p_guess). There is no forgetting:
the mastered state is absorbing.

Fitting is Baum-Welch over the per-(learner, question) attempt sequences of
one question, in log space. Attempt slots whose outcome is unknown (for
example held out by the cross-validation harness) are marginalized: the
chain still transitions there but no emission is scored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .data import Dataset, _sigmoid, encode_keys
from .seeds import derive_seed

PROB_FLOOR = 1e-6
# Guess/slip are capped below 0.5 so that p_slip + p_guess < 1 always holds;
# estimates at or above 0.5 would swap the meaning of the two states.
NOISE_CAP = 0.5 - 1e-6

DEFAULT_INIT = dict(p_init=0.4, p_learn=0.2, p_slip=0.1, p_guess=0.2)


@dataclass(frozen=True)
class BktParams:
    """The four chain probabilities for one question's skill."""

    p_init: float
    p_learn: float
    p_slip: float
    p_guess: float

    def __post_init__(self):
        for name in ("p_init", "p_learn", "p_slip", "p_guess"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {v}")
        if self.p_slip + self.p_guess >= 1.0:
            raise ValueError(
                f"p_slip + p_guess must be < 1 "
                f"(got {self.p_slip} + {self.p_guess})"
            )

    def to_dict(self) -> dict:
        return {
            "p_init": self.p_init,
            "p_learn": self.p_learn,
            "p_slip": self.p_slip,
            "p_guess": self.p_guess,
        }


def _clamp(p):
    if isinstance(p, np.ndarray):
        return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def bkt_predict_next(belief: float, params: BktParams) -> float:
    """Probability of a correct answer given the current mastery belief (elementwise on arrays)."""
    return belief * (1.0 - params.p_slip) + (1.0 - belief) * params.p_guess


def bkt_posterior_update(belief: float, obs: int, params: BktParams) -> float:
    """Condition the mastery belief on one observed outcome, then apply learning.

    All probabilities are clamped away from 0 and 1 before the division so a
    noiseless parameter set cannot produce a degenerate denominator. Beliefs
    and parameter fields may also be arrays, updated elementwise on one outcome.
    """
    b = _clamp(belief)
    s = _clamp(params.p_slip)
    g = _clamp(params.p_guess)
    if obs == 1:
        posterior = b * (1.0 - s) / (b * (1.0 - s) + (1.0 - b) * g)
    else:
        posterior = b * s / (b * s + (1.0 - b) * (1.0 - g))
    return posterior + (1.0 - posterior) * params.p_learn


def sequence_predictions(observations: Sequence[int], params: BktParams) -> list[float]:
    """Filtered correctness probabilities: P(correct at t | outcomes before t)."""
    belief = params.p_init
    preds = []
    for obs in observations:
        preds.append(bkt_predict_next(belief, params))
        belief = bkt_posterior_update(belief, obs, params)
    return preds


# ---------------------------------------------------------------------------
# EM fitting
# ---------------------------------------------------------------------------


def _question_sequences(ds: Dataset) -> list[tuple | None]:
    """Per question code: its learners' labeled attempts, padded, or None if it has none.

    Each entry is (learner codes, obs, observed, lengths), sequences in
    learner-code order. Slot t of a sequence is attempt t+1. A slot inside
    the sequence without an observation (held-out attempt) has
    observed=False; slots past the last observed attempt are outside the
    sequence and excluded via ``lengths``.
    """
    table = ds.outcome_table()[:-1, :-1, :-1]  # without the padding
    out: list[tuple | None] = []
    for q in range(table.shape[1]):
        learners = np.flatnonzero((table[:, q, :] >= 0).any(axis=1))
        observed = table[learners, q, :] >= 0
        lengths = observed.shape[1] - np.argmax(observed[:, ::-1], axis=1)
        t_max = int(lengths.max(initial=0))
        obs = (table[learners, q, :t_max] == 1).astype(float)
        out.append((learners, obs, observed[:, :t_max], lengths) if learners.size else None)
    return out


def _forward_backward(obs, observed, params: BktParams):
    """Log-space forward-backward over padded sequences.

    Returns (loglik_total, gamma, learn) where gamma[i, t, k] is the
    posterior of state k at slot t and learn[i, t] the posterior of the
    unmastered -> mastered transition between slots t and t+1. State 0 is
    unmastered, state 1 mastered.
    """
    n, t_max = obs.shape
    pi = _clamp(params.p_init)
    pl = _clamp(params.p_learn)
    s = _clamp(params.p_slip)
    g = _clamp(params.p_guess)

    log_a = np.array([[np.log1p(-pl), np.log(pl)], [-np.inf, 0.0]])
    # emission log-probs per slot and state, zero where nothing was observed
    log_e = np.zeros((n, t_max, 2))
    log_e[:, :, 0] = np.where(obs == 1.0, np.log(g), np.log1p(-g))
    log_e[:, :, 1] = np.where(obs == 1.0, np.log1p(-s), np.log(s))
    log_e[~observed] = 0.0

    la = np.full((n, t_max, 2), -np.inf)
    la[:, 0, 0] = np.log1p(-pi) + log_e[:, 0, 0]
    la[:, 0, 1] = np.log(pi) + log_e[:, 0, 1]
    for t in range(1, t_max):
        prev = la[:, t - 1, :]
        la[:, t, 0] = prev[:, 0] + log_a[0, 0] + log_e[:, t, 0]
        la[:, t, 1] = (
            np.logaddexp(prev[:, 0] + log_a[0, 1], prev[:, 1] + log_a[1, 1])
            + log_e[:, t, 1]
        )

    lb = np.zeros((n, t_max, 2))
    for t in range(t_max - 2, -1, -1):
        nxt = lb[:, t + 1, :] + log_e[:, t + 1, :]
        lb[:, t, 0] = np.logaddexp(log_a[0, 0] + nxt[:, 0], log_a[0, 1] + nxt[:, 1])
        lb[:, t, 1] = log_a[1, 1] + nxt[:, 1]

    # total mass is preserved past each sequence's end, so the final slot
    # gives every sequence's likelihood regardless of padding
    loglik_seq = np.logaddexp(la[:, -1, 0], la[:, -1, 1])
    loglik_total = float(loglik_seq.sum())

    gamma = np.exp(la + lb - loglik_seq[:, None, None])
    learn = np.exp(la[:, :-1, 0] + log_a[0, 1] + (log_e[:, 1:, 1] + lb[:, 1:, 1]) - loglik_seq[:, None])
    return loglik_total, gamma, learn


def _em_single_question(
    obs: np.ndarray,
    observed: np.ndarray,
    lengths: np.ndarray,
    init: BktParams,
    max_iter: int,
    tol: float,
) -> tuple[BktParams, list[float]]:
    t_max = obs.shape[1]
    # observed is already False past each sequence's end
    trans_valid = np.arange(max(t_max - 1, 0))[None, :] < (lengths - 1)[:, None]

    params = init
    trace: list[float] = []
    for _ in range(max_iter):
        loglik, gamma, learn = _forward_backward(obs, observed, params)
        trace.append(loglik)
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            break

        p_init = float(np.mean(gamma[:, 0, 1]))
        num_learn = float((learn * trans_valid).sum())
        den_learn = float((gamma[:, :-1, 0] * trans_valid).sum()) if t_max > 1 else 0.0
        p_learn = num_learn / den_learn if den_learn > 0 else params.p_learn

        den_g = float((gamma[:, :, 0] * observed).sum())
        num_g = float((gamma[:, :, 0] * observed * obs).sum())
        p_guess = num_g / den_g if den_g > 0 else params.p_guess
        den_s = float((gamma[:, :, 1] * observed).sum())
        num_s = float((gamma[:, :, 1] * observed * (1.0 - obs)).sum())
        p_slip = num_s / den_s if den_s > 0 else params.p_slip

        params = BktParams(
            p_init=_clamp(p_init),
            p_learn=_clamp(p_learn),
            p_slip=min(max(p_slip, PROB_FLOOR), NOISE_CAP),
            p_guess=min(max(p_guess, PROB_FLOOR), NOISE_CAP),
        )
    return params, trace


@dataclass
class BktFit:
    """Fitted per-question parameters plus fitting diagnostics."""

    question_params: dict[str, BktParams]
    fallback: BktParams
    loglik_trace: dict[str, list[float]] = field(default_factory=dict)
    learner_offsets: dict[str, float] = field(default_factory=dict)
    # per question: EM stopped on ``tol`` (True) or ran out of ``max_iter`` (False);
    # a question fitted by the fallback has nothing to iterate and reads True
    converged: dict[str, bool] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {qid: p.to_dict() for qid, p in self.question_params.items()}
        if self.learner_offsets:
            out["_learner_offsets"] = dict(self.learner_offsets)
        return out


def bkt_fit_em(
    train: Dataset,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
    individualized: bool = False,
) -> BktFit:
    """Fit per-question chain parameters by EM (Baum-Welch).

    Iterates until the log-likelihood improvement drops below ``tol`` or
    ``max_iter`` is reached. Initial values are the documented defaults with
    a small seeded jitter to break symmetry. Questions without a single
    labeled sequence fall back to the un-jittered defaults, with a warning.

    With ``individualized=True``, a per-learner offset on the logit of
    p_init is fitted afterwards against each learner's own sequences.

    Known defect: the default budget is too small. On lesson-shaped folds
    nearly every question stops at ``max_iter`` while still gaining far more
    than ``tol`` per step; ``BktFit.converged`` reads False for each of them.
    """
    fallback = BktParams(**DEFAULT_INIT)
    question_params: dict[str, BktParams] = {}
    traces: dict[str, list[float]] = {}
    converged: dict[str, bool] = {}
    sequences = _question_sequences(train)
    for qid, seq in zip(train.question_index, sequences):
        if seq is None:
            warnings.warn(f"question {qid}: no labeled sequences, using prior parameters")
            question_params[qid] = fallback
            traces[qid] = []
            converged[qid] = True
            continue
        rng = np.random.default_rng(derive_seed(seed, "bkt", qid))
        jitter = rng.uniform(-0.02, 0.02, size=4)
        init = BktParams(
            p_init=_clamp(DEFAULT_INIT["p_init"] + jitter[0]),
            p_learn=_clamp(DEFAULT_INIT["p_learn"] + jitter[1]),
            p_slip=min(max(DEFAULT_INIT["p_slip"] + jitter[2], PROB_FLOOR), NOISE_CAP),
            p_guess=min(max(DEFAULT_INIT["p_guess"] + jitter[3], PROB_FLOOR), NOISE_CAP),
        )
        params, trace = _em_single_question(*seq[1:], init, max_iter, tol)
        question_params[qid] = params
        traces[qid] = trace
        # EM breaks as soon as this holds, so it holds at the end only if EM stopped on tol
        converged[qid] = len(trace) >= 2 and trace[-1] - trace[-2] < tol

    fit = BktFit(
        question_params=question_params, fallback=fallback, loglik_trace=traces, converged=converged
    )
    if individualized:
        fit.learner_offsets = _fit_learner_offsets(train, fit, sequences)
    return fit


def _offset_p_init(p_init, delta):
    """p_init with ``delta`` added to its logit; elementwise on arrays."""
    return _clamp(_sigmoid(np.log(p_init / (1.0 - p_init)) + delta))


def _fit_learner_offsets(ds: Dataset, fit: BktFit, sequences: list[tuple | None]) -> dict[str, float]:
    """Golden-section search for every learner's p_init logit offset at once.

    A learner's objective is the log-likelihood of their labeled attempts,
    filtered in order per question and summed over questions in code order.
    Only learners with a labeled attempt get an offset, listed by their first
    labeled question, then by code.

    Known defect, kept so the fitted numbers stay put: the objective skips a
    held-out gap without the learn-only transition that EM and
    ``BktModel.predict`` apply there, so the chain it scores is one the
    other two never see.
    """
    scored = [
        (fit.question_params[qid], seq) for qid, seq in zip(ds.question_index, sequences) if seq is not None
    ]
    if not scored:
        return {}

    def neg_loglik(delta: np.ndarray) -> np.ndarray:
        total = np.zeros(len(delta))
        for params, (learners, obs, observed, _) in scored:
            belief = _offset_p_init(params.p_init, delta[learners])
            loglik = np.zeros(len(learners))
            for o, seen in zip(obs.T == 1.0, observed.T):
                p = _clamp(bkt_predict_next(belief, params))
                loglik = np.where(seen, loglik + np.where(o, np.log(p), np.log(1.0 - p)), loglik)
                updated = np.where(o, bkt_posterior_update(belief, 1, params), bkt_posterior_update(belief, 0, params))
                belief = np.where(seen, updated, belief)
            total[learners] += loglik
        return -total

    phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.full((2, len(ds.learner_index)), [[-4.0], [4.0]])
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    f1, f2 = neg_loglik(x1), neg_loglik(x2)
    for _ in range(40):
        left = f1 < f2  # the minimum lies in [lo, x2], else in [x1, hi]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x = np.where(left, hi - phi * (hi - lo), lo + phi * (hi - lo))
        f = neg_loglik(x)
        x1, x2, f1, f2 = np.where(left, [x, x1, f, f1], [x2, x, f2, f])
    order = np.concatenate([seq[0] for _, seq in scored])
    fitted = order[np.sort(np.unique(order, return_index=True)[1])]
    learner_ids = np.array(list(ds.learner_index), dtype=object)
    return dict(zip(learner_ids[fitted].tolist(), ((lo + hi) / 2.0)[fitted].tolist()))


# ---------------------------------------------------------------------------
# Predictor
# ---------------------------------------------------------------------------


class BktModel:
    """Predictor wrapper: EM fit at ``fit`` time, belief filtering at ``predict``.

    For a queried (learner, question, attempt) the mastery belief is rolled
    forward through that learner's earlier attempts on the question: attempts
    whose outcome is in the training data update the belief by Bayes rule,
    attempts falling in the query's past but absent from training apply the
    learning transition only. All queries roll forward together, one attempt
    slot at a time. Unseen ids are coded -1, which selects the last row of
    each lookup table: the fallback parameters, a zero learner offset, and
    the padding of the outcome table.
    """

    name = "bkt"

    def __init__(self, seed: int = 0, individualized: bool = False):
        self.seed = seed
        self.individualized = individualized
        self.fit_result: BktFit | None = None
        self._train: Dataset | None = None

    def fit(self, train: Dataset) -> "BktModel":
        self.fit_result = bkt_fit_em(train, seed=self.seed, individualized=self.individualized)
        self._train = train
        return self

    def _row_params(self, learner: np.ndarray, question: np.ndarray) -> SimpleNamespace:
        """Chain parameters for each queried row, learner offsets applied to p_init."""
        fit = self.fit_result
        per_question = [fit.question_params[qid] for qid in self._train.question_index]
        table = np.array([[getattr(p, f) for f in DEFAULT_INIT] for p in per_question + [fit.fallback]])
        params = SimpleNamespace(**{name: table[question, j] for j, name in enumerate(DEFAULT_INIT)})
        offsets = [fit.learner_offsets.get(lid, 0.0) for lid in self._train.learner_index]
        delta = np.array(offsets + [0.0])[learner]
        shifted = delta != 0.0
        params.p_init[shifted] = _offset_p_init(params.p_init[shifted], delta[shifted])
        return params

    def predict(self, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
        if self.fit_result is None:
            raise RuntimeError("predict called before fit")
        train = self._train
        learner, question, attempt = encode_keys(rows, train.learner_index, train.question_index)
        params = self._row_params(learner, question)
        outcomes = train.outcome_table()
        belief = params.p_init
        for past in range(1, int(attempt.max(initial=1))):
            seen = outcomes[learner, question, min(past, outcomes.shape[2]) - 1]
            belief = np.select(
                [attempt <= past, seen == 1, seen == 0],
                [
                    belief,
                    bkt_posterior_update(belief, 1, params),
                    bkt_posterior_update(belief, 0, params),
                ],
                belief + (1.0 - belief) * params.p_learn,
            )
        return np.clip(bkt_predict_next(belief, params), 0.0, 1.0)

    def export_json(self) -> dict:
        if self.fit_result is None:
            raise RuntimeError("export before fit")
        return self.fit_result.to_dict()
