"""Synthetic dataset generators with known ground truth.

Three generators are provided: a mastery-chain process (the same emission
and transition equations the BKT module fits), a low-rank learner-by-question
matrix under the logistic link, and a low-rank learner-by-question-by-attempt
tensor under the clamp link. Each returns the drawn Dataset together with the
latent quantities that produced it, so parameter-recovery tests can check
estimates against the truth.
Rows stream into ``Dataset.from_records`` with no list of them kept. The
low-rank generators draw all cells at once, in C order (learner, question,
attempt): the same random stream as one draw per cell.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .bkt import BktParams, bkt_predict_next
from .data import Dataset, LessonMeta

GENERATORS = ("bkt-process", "low-rank-matrix", "low-rank-tensor")
DEFAULT_RANK = 2  # latent concepts of the low-rank generators


@dataclass(frozen=True)
class SimSpec:
    """Shape, generator choice, and ground-truth parameters for one simulation."""

    n_learners: int
    n_questions: int
    max_attempt: int
    generator: str = "bkt-process"
    seed: int = 0
    bkt: BktParams | None = None
    rank: int | None = None  # low-rank modes only; None means DEFAULT_RANK there
    mask_fraction: float = 0.0
    # low-rank modes: factor energy per latent concept. Matrix mode
    # orthonormalizes both factor blocks so every concept carries this scale;
    # tensor mode draws factors uniform on [0, scale/sqrt(rank)], so products
    # stay inside [0, 1] at the default scale and engage the clamp above it.
    factor_scale: float = 1.0
    # bkt-process only: end each sequence at the first correct answer,
    # giving variable-length sequences like real tutoring logs
    stop_on_correct: bool = False

    def __post_init__(self):
        if min(self.n_learners, self.n_questions, self.max_attempt) < 1:
            raise ValueError("counts must be >= 1")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}, expected one of {GENERATORS}")
        if not 0.0 <= self.mask_fraction < 1.0:
            raise ValueError("mask_fraction must lie in [0, 1)")
        if self.rank is not None and self.rank < 1:
            raise ValueError(f"rank {self.rank} is below 1")
        # a field the generator never reads is an error, not silently dropped
        ignored = ("mask_fraction", "rank") if self.generator == "bkt-process" else ("stop_on_correct", "bkt")
        for name in ignored:
            if getattr(self, name):
                raise ValueError(f"{name} is not used by the {self.generator} generator")
        if self.generator != "bkt-process" and self.rank is None:
            object.__setattr__(self, "rank", DEFAULT_RANK)  # frozen: set once, while the spec is built
        most = min(self.n_learners, self.n_questions)  # matrix mode orthonormalizes rank columns
        if self.generator == "low-rank-matrix" and self.rank > most:
            raise ValueError(f"rank {self.rank} exceeds min(learners, questions) = {most}")


@dataclass
class SimResult:
    """A generated dataset plus the latent truth behind it."""

    dataset: Dataset
    truth: dict = field(default_factory=dict)

    def truth_json(self) -> str:
        return json.dumps(self.truth, indent=2, default=lambda v: v.tolist())


def _learner_ids(n: int) -> list[str]:
    return [f"L{i + 1}" for i in range(n)]


def _question_ids(n: int) -> list[str]:
    return [f"Q{i + 1}" for i in range(n)]


def simulate_bkt(spec: SimSpec) -> SimResult:
    """Sample mastery chains and outcomes for every (learner, question) pair.

    The emission at each attempt uses the same formula the BKT predictor
    uses (bkt_predict_next with a degenerate 0/1 belief), so recovery tests
    invert exactly the process the fitter assumes.
    """
    if spec.generator != "bkt-process":
        raise ValueError("simulate_bkt requires generator='bkt-process'")
    params = spec.bkt or BktParams(p_init=0.3, p_learn=0.2, p_slip=0.1, p_guess=0.25)
    rng = np.random.default_rng(spec.seed)
    mastery: dict[str, list[int]] = {}

    def records():
        for lid in _learner_ids(spec.n_learners):
            for qid in _question_ids(spec.n_questions):
                mastered = bool(rng.random() < params.p_init)
                chain = []
                for attempt in range(1, spec.max_attempt + 1):
                    chain.append(int(mastered))
                    p_correct = bkt_predict_next(1.0 if mastered else 0.0, params)
                    obs = int(rng.random() < p_correct)
                    yield lid, qid, attempt, obs
                    if spec.stop_on_correct and obs == 1:
                        break
                    if not mastered:
                        mastered = bool(rng.random() < params.p_learn)
                mastery[f"{lid}|{qid}"] = chain

    dataset = Dataset.from_records(records(), LessonMeta(f"sim-bkt-{spec.seed}"))
    return SimResult(dataset=dataset, truth={"params": params.to_dict(), "mastery": mastery})


def simulate_lowrank(spec: SimSpec) -> SimResult:
    """Sample a low-rank matrix or tensor model and draw Bernoulli outcomes.

    Matrix mode forms success probabilities through the logistic link on
    learner_factors @ question_factors + intercepts and emits one record per
    cell at attempt 1. Tensor mode samples non-negative factors scaled so the
    inner products already lie in [0, 1] and emits one record per
    (learner, question, attempt) cell. ``mask_fraction`` marks exactly
    floor(fraction * n_cells) cells as prediction targets (obs withheld);
    the drawn outcome of every cell is kept in the truth payload.
    """
    rng = np.random.default_rng(spec.seed)
    lids = _learner_ids(spec.n_learners)
    qids = _question_ids(spec.n_questions)
    r = spec.rank

    if spec.generator == "low-rank-matrix":
        # orthonormalized columns: every latent concept contributes the same
        # energy, so the realized rank of the logit matrix is unambiguous
        basis_l = np.linalg.qr(rng.normal(0.0, 1.0, size=(spec.n_learners, r)))[0]
        basis_q = np.linalg.qr(rng.normal(0.0, 1.0, size=(spec.n_questions, r)))[0]
        learner_factors = basis_l * np.sqrt(spec.n_learners) * spec.factor_scale
        question_factors = (basis_q * np.sqrt(spec.n_questions) * spec.factor_scale).T
        intercepts = rng.normal(0.0, 0.5, size=spec.n_questions)
        logits = learner_factors @ question_factors + intercepts
        probs = 1.0 / (1.0 + np.exp(-logits))
        attempts = [1]
        truth: dict = {
            "learner_factors": learner_factors,
            "question_factors": question_factors,
            "intercepts": intercepts,
            "probs": probs,
        }
    elif spec.generator == "low-rank-tensor":
        scale = spec.factor_scale / np.sqrt(r)
        learner_factors = rng.uniform(0.0, scale, size=(spec.n_learners, r))
        qa_factors = rng.uniform(0.0, scale, size=(r, spec.n_questions, spec.max_attempt))
        probs = np.clip(np.einsum("lr,rqa->lqa", learner_factors, qa_factors), 0.0, 1.0)
        attempts = range(1, spec.max_attempt + 1)
        truth = {
            "learner_factors": learner_factors,
            "qa_factors": qa_factors,
            "probs": probs,
        }
    else:
        raise ValueError("simulate_lowrank requires a low-rank-matrix or low-rank-tensor spec")

    # cells in C order of ``probs``: learner, then question, then attempt
    draws = (rng.random(probs.size) < probs.ravel()).astype(int).tolist()
    masked = np.zeros(probs.size, dtype=bool)
    n_masked = int(np.floor(spec.mask_fraction * probs.size))
    if n_masked:
        masked[rng.choice(probs.size, size=n_masked, replace=False)] = True

    ids = list(itertools.product(lids, qids, attempts))
    keys = [f"{lid}|{qid}|{a}" for lid, qid, a in ids]
    rows = ((*cell, None if hidden else obs) for cell, obs, hidden in zip(ids, draws, masked.tolist()))
    dataset = Dataset.from_records(rows, LessonMeta(f"sim-{spec.generator}-{spec.seed}"))
    truth["obs"] = dict(zip(keys, draws))
    truth["masked"] = [keys[i] for i in np.flatnonzero(masked)]
    return SimResult(dataset=dataset, truth=truth)


def simulate(spec: SimSpec) -> SimResult:
    """Dispatch on the generator named by the spec."""
    if spec.generator == "bkt-process":
        return simulate_bkt(spec)
    return simulate_lowrank(spec)
