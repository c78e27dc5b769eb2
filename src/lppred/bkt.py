"""Bayesian Knowledge Tracing with per-question parameters and EM fitting.

Each question is modeled as a two-state hidden Markov chain over the
learner's mastery of that question's skill. Four probabilities govern the
chain: initial mastery (p_init), the per-opportunity transition from
unmastered to mastered (p_learn), answering wrong while mastered (p_slip),
and answering right while unmastered (p_guess). There is no forgetting:
the mastered state is absorbing.

Fitting is Baum-Welch over each question's per-learner attempt sequences,
in log space. Attempt slots whose outcome is unknown (for example held out
by the cross-validation harness) are marginalized: the chain still
transitions there but no emission is scored. The questions are independent
fits run side by side: their sequences are stacked into (slot, question,
learner) arrays, so one forward-backward per EM iteration covers every
question, with the parameters as per-question vectors. The M-step sums
each question's own block, and a question whose log-likelihood gain falls
below ``tol`` is frozen where a fit of that question alone would stop.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, fields
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .data import Dataset, _sigmoid, encode_keys
from .metrics import LocalModel
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
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{f.name} must lie strictly in (0, 1), got {v}")
        if self.p_slip + self.p_guess >= 1.0:
            raise ValueError(
                f"p_slip + p_guess must be < 1 "
                f"(got {self.p_slip} + {self.p_guess})"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def _clamp(p):
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


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


def _belief_step(belief, outcome, params):
    """The belief one slot on: Bayes rule on an outcome of 1 or 0, the learning transition alone at -1."""
    return np.select(
        [outcome == 1, outcome == 0],
        [bkt_posterior_update(belief, 1, params), bkt_posterior_update(belief, 0, params)],
        belief + (1.0 - belief) * params.p_learn,
    )


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


def _stacked_sequences(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every question's labeled attempt sequences, stacked slot by slot.

    Returns (learners, obs, observed, lengths). Row i of question q is the
    sequence of learner code ``learners[q, i]``: the learners with a labeled
    attempt on q come first, in code order, and the remaining rows are empty
    sequences. ``obs[t, q, i]`` is 1.0 where that learner's attempt t+1 on q
    was correct. A slot inside a sequence without an observation (held-out
    attempt) has observed=False; ``lengths[q, i]`` is one past the
    sequence's last observed slot (0 for an empty one), and slots past it
    are outside the sequence. Rows stop at the question with the most
    sequences, slots at the longest sequence.
    """
    table = ds.outcome_table()[:-1, :-1, :-1].transpose(1, 0, 2)  # without the padding
    learners = np.argsort(~(table >= 0).any(axis=2), axis=1, kind="stable")
    table = np.take_along_axis(table, learners[:, :, None], axis=1).transpose(2, 0, 1)
    slot_numbers = np.arange(1, table.shape[0] + 1)[:, None, None]
    lengths = ((table >= 0) * slot_numbers).max(axis=0, initial=0)
    n_rows = int((lengths > 0).sum(axis=1).max(initial=0))
    table = np.ascontiguousarray(table[: int(lengths.max(initial=0)), :, :n_rows])
    return learners[:, :n_rows], (table == 1).astype(float), table >= 0, lengths[:, :n_rows]


def _forward_backward(obs, observed, slots, params):
    """Log-space forward-backward over every question's sequences at once.

    ``obs``/``observed`` are stacked as by ``_stacked_sequences``, each
    question with at least one sequence; ``slots`` holds each question's
    slot count (its longest sequence's length), and ``params`` is
    (4, questions): p_init, p_learn, p_slip, p_guess. Returns
    (loglik_seq, gamma, learn) where loglik_seq[q, i] is the log-likelihood
    of sequence i of question q, gamma[k, t, q, i] the posterior of state k
    at slot t and learn[t, q, i] the posterior of the unmastered -> mastered
    transition between slots t and t+1. State 0 is unmastered, state 1
    mastered. Each question's chains end at its own last slot, so its
    numbers do not depend on the slots other questions add.
    """
    t_max = obs.shape[0]
    pi, pl, s, g = _clamp(params)[:, :, None]  # each (questions, 1)
    log_stay, log_learn = np.log1p(-pl), np.log(pl)
    # emission log-probs per state and slot, zero where nothing was observed
    correct = obs == 1.0
    log_e = np.stack(
        [
            np.where(observed, np.where(correct, np.log(g), np.log1p(-g)), 0.0),
            np.where(observed, np.where(correct, np.log1p(-s), np.log(s)), 0.0),
        ]
    )

    la = np.full(log_e.shape, -np.inf)
    la[0, 0] = np.log1p(-pi) + log_e[0, 0]
    la[1, 0] = np.log(pi) + log_e[1, 0]
    for t in range(1, t_max):
        np.add(la[0, t - 1], log_stay, out=la[0, t])
        la[0, t] += log_e[0, t]
        np.logaddexp(la[0, t - 1] + log_learn, la[1, t - 1], out=la[1, t])
        la[1, t] += log_e[1, t]

    last_slot = slots - 1
    lb = np.zeros(log_e.shape)
    for t in range(t_max - 2, -1, -1):
        np.add(lb[:, t + 1], log_e[:, t + 1], out=lb[:, t])
        np.logaddexp(log_stay + lb[0, t], log_learn + lb[1, t], out=lb[0, t])
        lb[:, t, t >= last_slot] = 0.0  # a question's backward pass starts at its last slot

    # total mass is preserved past each sequence's end, so the question's
    # last slot gives every sequence's likelihood regardless of padding
    end = la[:, last_slot, np.arange(len(last_slot))]
    loglik_seq = np.logaddexp(end[0], end[1])

    gamma = np.exp(la + lb - loglik_seq)
    learn = np.exp(la[0, :-1] + log_learn + (log_e[1, 1:] + lb[1, 1:]) - loglik_seq)
    return loglik_seq, gamma, learn


def _em(obs, observed, lengths, params, max_iter, tol):
    """Baum-Welch for every stacked question at once, from (4, questions) ``params``.

    One forward-backward per iteration covers all questions. The M-step
    sums run per question, each over the question's own (rows, slots) block
    sequence by sequence, so a question's numbers do not depend on the
    others. A question freezes at the first iteration whose log-likelihood
    gains less than ``tol`` on the one before: its parameters and trace stop
    there, while the others run on until they freeze too or ``max_iter``
    runs out. Returns (params, per-question log-likelihood traces,
    per-question flags that EM stopped on ``tol``).
    """
    n_slots, n_q, _ = obs.shape
    rows, slots = (lengths > 0).sum(axis=1), lengths.max(axis=1, initial=0)
    steps = np.arange(n_slots - 1)[:, None, None] < lengths - 1  # slot t has a next slot in its sequence

    params = params.copy()
    traces: list[list[float]] = [[] for _ in range(n_q)]
    active = np.ones(n_q, dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        loglik_seq, gamma, learn = _forward_backward(obs, observed, slots, params)
        unmastered, mastered = gamma * observed
        per_slot = [unmastered, unmastered * obs, mastered, mastered * (1.0 - obs)]
        per_step = [learn * steps, gamma[0, :-1] * steps]
        sums = np.zeros((8, n_q))
        for k in np.flatnonzero(active):
            r, s = rows[k], slots[k]
            blocks = [loglik_seq[k, :r], gamma[1, 0, k, :r]]
            blocks += [a[:s, k, :r].T.ravel() for a in per_slot]
            blocks += [a[: s - 1, k, :r].T.ravel() for a in per_step]
            sums[:, k] = [block.sum() for block in blocks]
            trace = traces[k]
            trace.append(float(sums[0, k]))
            if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
                active[k] = False
        params = np.where(active, _m_step(sums[1:], rows, params), params)
    return params, traces, (~active).tolist()


def _m_step(sums, rows, params):
    """Baum-Welch re-estimates of (4, questions) ``params`` from each question's expected counts.

    ``sums`` rows, per question: the initial mastery summed over its
    ``rows`` sequences; unmastered-and-observed, unmastered-and-correct,
    mastered-and-observed and mastered-and-wrong slots; unmastered ->
    mastered transitions and unmastered slots that have a next slot. A
    probability whose count has no mass keeps its current value.
    """
    init, den_g, num_g, den_s, num_s, num_learn, den_learn = sums

    def ratio(num, den, current):
        return np.divide(num, den, out=current.copy(), where=den > 0)

    return np.stack(
        [
            _clamp(init / rows),
            _clamp(ratio(num_learn, den_learn, params[1])),
            np.clip(ratio(num_s, den_s, params[2]), PROB_FLOOR, NOISE_CAP),
            np.clip(ratio(num_g, den_g, params[3]), PROB_FLOOR, NOISE_CAP),
        ]
    )


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

    Each question iterates until its log-likelihood improvement drops below
    ``tol`` or ``max_iter`` is reached. Initial values are the documented
    defaults with a small seeded jitter to break symmetry. Questions without a single
    labeled sequence fall back to the un-jittered defaults, with a warning.

    With ``individualized=True``, a per-learner offset on the logit of
    p_init is fitted afterwards against each learner's own sequences.

    Known defect: the default budget is too small. On lesson-shaped folds
    nearly every question stops at ``max_iter`` while still gaining far more
    than ``tol`` per step; ``BktFit.converged`` reads False for each of them.
    """
    fallback = BktParams(**DEFAULT_INIT)
    learners, obs, observed, lengths = _stacked_sequences(train)
    with_seq = lengths.any(axis=1)
    fitted = [qid for qid, has in zip(train.question_index, with_seq) if has]
    jitter = [np.random.default_rng(derive_seed(seed, "bkt", q)).uniform(-0.02, 0.02, size=4) for q in fitted]
    init = np.array(list(DEFAULT_INIT.values()))[:, None] + np.reshape(jitter, (-1, 4)).T
    init[:2] = _clamp(init[:2])
    init[2:] = np.clip(init[2:], PROB_FLOOR, NOISE_CAP)
    params, traces, converged = _em(
        obs[:, with_seq], observed[:, with_seq], lengths[with_seq], init, max_iter, tol
    )

    fit = BktFit(question_params={}, fallback=fallback)
    em_results = zip(params.T, traces, converged)
    for qid, has in zip(train.question_index, with_seq):
        if has:
            p, fit.loglik_trace[qid], fit.converged[qid] = next(em_results)
            fit.question_params[qid] = BktParams(*map(float, p))
        else:
            warnings.warn(f"question {qid}: no labeled sequences, using prior parameters")
            fit.question_params[qid], fit.loglik_trace[qid], fit.converged[qid] = fallback, [], True
    if individualized:
        fit.learner_offsets = _fit_learner_offsets(train, fit, learners, obs, observed)
    return fit


def _question_params(fit: BktFit, question_index: dict[str, int], question) -> SimpleNamespace:
    """Chain parameters at each question code in ``question``; code -1 selects the fallback."""
    per_question = [fit.question_params[qid] for qid in question_index] + [fit.fallback]
    table = np.array([[getattr(p, f) for f in DEFAULT_INIT] for p in per_question])
    return SimpleNamespace(**{name: table[question, j] for j, name in enumerate(DEFAULT_INIT)})


def _offset_p_init(p_init, delta):
    """p_init with ``delta`` added to its logit; elementwise on arrays."""
    return _clamp(_sigmoid(np.log(p_init / (1.0 - p_init)) + delta))


def _fit_learner_offsets(
    ds: Dataset, fit: BktFit, learners: np.ndarray, obs: np.ndarray, observed: np.ndarray
) -> dict[str, float]:
    """Golden-section search for every learner's p_init logit offset at once.

    A learner's objective is the log-likelihood of their labeled attempts,
    filtered in order per question and summed over questions in code order;
    ``learners``, ``obs`` and ``observed`` are every question's stacked
    sequences, as ``_stacked_sequences`` gives them. A held-out attempt
    inside a sequence applies the learn-only transition, as EM and
    ``BktModel.predict`` do. Only learners with a labeled attempt get an
    offset, listed by their first labeled question, then by code.
    """
    labeled = observed.any(axis=0)
    if not labeled.any():
        return {}
    params = _question_params(fit, ds.question_index, np.arange(ds.n_questions)[:, None])
    outcomes = np.where(observed, obs, -1.0)

    def neg_loglik(delta: np.ndarray) -> np.ndarray:
        belief = _offset_p_init(params.p_init, delta[learners])
        loglik = np.zeros(belief.shape)
        for outcome in outcomes:
            p = _clamp(bkt_predict_next(belief, params))
            loglik = np.where(outcome >= 0, loglik + np.where(outcome == 1, np.log(p), np.log(1.0 - p)), loglik)
            belief = _belief_step(belief, outcome, params)
        return -np.bincount(learners.ravel(), weights=loglik.ravel(), minlength=len(delta))

    phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.full((2, ds.n_learners), [[-4.0], [4.0]])
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    f1, f2 = neg_loglik(x1), neg_loglik(x2)
    for _ in range(40):
        left = f1 < f2  # the minimum lies in [lo, x2], else in [x1, hi]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x = np.where(left, hi - phi * (hi - lo), lo + phi * (hi - lo))
        f = neg_loglik(x)
        x1, x2, f1, f2 = np.where(left, [x, x1, f, f1], [x2, x, f2, f])
    order = learners[labeled]
    fitted = order[np.sort(np.unique(order, return_index=True)[1])]
    learner_ids = np.array(list(ds.learner_index), dtype=object)
    return dict(zip(learner_ids[fitted].tolist(), ((lo + hi) / 2.0)[fitted].tolist()))


# ---------------------------------------------------------------------------
# Predictor
# ---------------------------------------------------------------------------


class BktModel(LocalModel):
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

    def __init__(self, seed: int = 0, individualized: bool = False):
        self.seed = seed
        self.individualized = individualized
        self._train: Dataset | None = None

    def fit(self, train: Dataset) -> "BktModel":
        self.model = bkt_fit_em(train, seed=self.seed, individualized=self.individualized)
        self._train = train
        return self

    def _row_params(self, fit: BktFit, learner: np.ndarray, question: np.ndarray) -> SimpleNamespace:
        """Chain parameters for each queried row, learner offsets applied to p_init."""
        params = _question_params(fit, self._train.question_index, question)
        offsets = [fit.learner_offsets.get(lid, 0.0) for lid in self._train.learner_index]
        delta = np.array(offsets + [0.0])[learner]
        shifted = delta != 0.0
        params.p_init[shifted] = _offset_p_init(params.p_init[shifted], delta[shifted])
        return params

    def predict(self, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
        fit, train = self.fitted(), self._train
        learner, question, attempt = encode_keys(rows, train.learner_index, train.question_index)
        params = self._row_params(fit, learner, question)
        outcomes = train.outcome_table()
        belief = params.p_init
        for past in range(1, int(attempt.max(initial=1))):
            seen = outcomes[learner, question, min(past, outcomes.shape[2]) - 1]
            belief = np.where(attempt <= past, belief, _belief_step(belief, seen, params))
        return np.clip(bkt_predict_next(belief, params), 0.0, 1.0)
