"""Interaction data model, file ingestion, and fold splitting.

An interaction is one (learner, question, attempt) observation with a
binary outcome: 1 for a correct answer, 0 for an incorrect one. Rows whose
outcome is unknown (empty ``obs`` field) are permitted and flagged as
prediction targets.

The on-disk format is comma-separated UTF-8 text with the header
``learner_id,question_id,attempt,obs``, one row per line. Spaces and
tabs around a cell are dropped; a learner or question id may not begin or
end with whitespace, so every Dataset survives a write and re-read. An optional
lesson metadata file is a JSON object with ``lesson_name`` and a
``questions`` map from question id to ``{text, options, answer}``; a
``LessonMeta`` holds exactly that. An input file that cannot be opened or is
not UTF-8 is a ``DataError`` naming the file.

This module is the one place where ids become integers. A ``Dataset`` is
four int columns: ``learner`` and ``question`` (dense codes in order of first
appearance, the values of ``learner_index``/``question_index``), ``attempt``,
and ``obs`` (-1 for rows without an outcome). Models fit on these columns;
``Dataset.keys`` looks rows up as raw ``(learner, question, attempt)``
triples. Queries arrive as such triples, and ``encode_keys`` turns them into
the same codes, with -1 for ids unseen in training. The counts
``n_learners``, ``n_questions``, ``max_attempt`` and ``n_records`` are read
from the id maps and the columns; nothing else stores them.
``Dataset.subset`` takes distinct positions; it indexes the columns and
re-densifies the codes without validating the rows again, and keeps the
``LessonMeta``.

``Dataset.from_records`` reads any iterable of rows once and keeps none;
``parse_dataset`` streams a file into it line by line, never a list of rows.
"""

from __future__ import annotations

import csv
import json
import re
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

EXPECTED_HEADER = ("learner_id", "question_id", "attempt", "obs")
_DECIMAL = re.compile(r"[+-]?[0-9]+")  # int() also takes "1_0" and non-ASCII digits
MAX_ATTEMPT = 2**63 - 1  # attempts are stored as int64


class DataError(ValueError):
    """Malformed or inconsistent interaction data."""


@dataclass(frozen=True)
class QuestionInfo:
    text: str = ""
    options: tuple[str, ...] = ()
    answer: str = ""


@dataclass(frozen=True)
class LessonMeta:
    """The lesson metadata file: a lesson name and question texts keyed by question id."""

    lesson_name: str = ""
    questions: dict[str, QuestionInfo] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated, immutable interaction rows, stored as int columns.

    ``learner_index`` and ``question_index`` map the opaque learner and
    question ids onto dense 0-based codes, in order of first appearance.
    The int columns ``learner`` to ``obs`` are described in the module docstring.
    """

    meta: LessonMeta
    learner_index: dict[str, int]
    question_index: dict[str, int]
    learner: np.ndarray
    question: np.ndarray
    attempt: np.ndarray
    obs: np.ndarray

    @classmethod
    def from_records(cls, rows, meta: LessonMeta | None = None) -> "Dataset":
        """Columns of ``(learner_id, question_id, attempt, obs-or-None)`` rows, read once and not kept."""
        learner_index: dict[str, int] = {}
        question_index: dict[str, int] = {}
        columns = [array("q") for _ in range(4)]
        learner_codes, question_codes, attempts, outcomes = columns
        for learner_id, question_id, attempt, obs in rows:
            if not 1 <= attempt <= MAX_ATTEMPT:
                raise DataError(f"attempt must be in 1..2^63-1, got {attempt} for {(learner_id, question_id, attempt)}")
            if obs not in (0, 1, None):
                raise DataError(f"obs must be 0 or 1, got {obs} for {(learner_id, question_id, attempt)}")
            learner_codes.append(learner_index.setdefault(learner_id, len(learner_index)))
            question_codes.append(question_index.setdefault(question_id, len(question_index)))
            attempts.append(attempt)
            outcomes.append(-1 if obs is None else obs)
        if not attempts:
            raise DataError("dataset has no records")
        learner, question, attempt, obs = (np.frombuffer(c, dtype=np.int64) for c in columns)
        ds = cls(meta or LessonMeta(), learner_index, question_index, learner, question, attempt, obs)
        for role, ids, codes in (("learner_id", learner_index, learner), ("question_id", question_index, question)):
            padded = next((i for i in ids if i != i.strip()), None)
            if padded is not None:
                (key,) = ds.keys([np.argmax(codes == ids[padded])])
                raise DataError(f"{role} {padded!r} has surrounding whitespace, in record {key}")
        # the sort is stable, so each repeated key comes right after an earlier row's
        order = np.lexsort((attempt, question, learner))
        same = (np.diff(np.stack([learner, question, attempt])[:, order], axis=1) == 0).all(axis=0)
        if same.any():
            (key,) = ds.keys([order[1:][same].min()])
            raise DataError(f"duplicate record for (learner, question, attempt) = {key}")
        return ds

    @property
    def n_records(self) -> int:
        return len(self.obs)

    @property
    def n_learners(self) -> int:
        return len(self.learner_index)

    @property
    def n_questions(self) -> int:
        return len(self.question_index)

    @property
    def max_attempt(self) -> int:
        return int(self.attempt.max())

    def keys(self, positions=None) -> list[tuple[str, str, int]]:
        """``(learner_id, question_id, attempt)`` of the rows at ``positions``, default all."""
        pos = slice(None) if positions is None else np.asarray(positions, dtype=np.intp)
        lids, qids = list(self.learner_index), list(self.question_index)
        columns = (self.learner[pos].tolist(), self.question[pos].tolist(), self.attempt[pos].tolist())
        return [(lids[l], qids[q], a) for l, q, a in zip(*columns)]

    def labeled_positions(self) -> list[int]:
        return np.flatnonzero(self.obs >= 0).tolist()

    def unlabeled_positions(self) -> list[int]:
        return np.flatnonzero(self.obs < 0).tolist()

    def subset(self, positions) -> "Dataset":
        """New Dataset over the given distinct row positions, codes re-densified.

        The rows were validated when this dataset was built, so they are
        not validated again; repeating a position would repeat its key.
        """
        pos = np.asarray(positions, dtype=np.intp)
        if pos.size == 0:
            raise DataError("dataset has no records")
        learner, learner_index = _redensify(self.learner[pos], self.learner_index)
        question, question_index = _redensify(self.question[pos], self.question_index)
        return Dataset(self.meta, learner_index, question_index, learner, question, self.attempt[pos], self.obs[pos])

    def outcome_table(self) -> np.ndarray:
        """Outcomes by (learner code, question code, attempt - 1), -1 where unknown.

        A trailing row, column and attempt slot of -1 pad the table, so code
        -1 (an unseen id) and attempts past ``max_attempt`` find no outcome.
        """
        table = np.full((self.n_learners + 1, self.n_questions + 1, self.max_attempt + 1), -1, dtype=np.int8)
        table[self.learner, self.question, self.attempt - 1] = self.obs
        return table

    def obs_array(self, positions=None) -> np.ndarray:
        """Outcomes for the given (labeled) positions as a float array."""
        pos = np.arange(self.n_records) if positions is None else np.asarray(positions, dtype=np.intp)
        obs = self.obs[pos]
        if np.any(obs < 0):
            (key,) = self.keys([pos[np.argmax(obs < 0)]])
            raise DataError(f"record {key} has no observation")
        return obs.astype(float)


def _redensify(codes: np.ndarray, index: dict[str, int]) -> tuple[np.ndarray, dict[str, int]]:
    """Renumber a subset's codes 0..m-1 in order of first appearance, with the id map."""
    present, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(present), dtype=np.int64)
    rank[order] = np.arange(len(present))
    ids = list(index)
    return rank[inverse], {ids[c]: i for i, c in enumerate(present[order].tolist())}


def encode_keys(rows, learner_index: dict[str, int], question_index: dict[str, int]):
    """Codes of raw (learner, question, attempt) triples: three int arrays.

    Learner and question ids missing from the given maps become -1, so each
    model can route them to its documented fallback.
    """
    learners, questions, attempts = zip(*rows) if len(rows) else ((), (), ())
    return (
        np.array([learner_index.get(lid, -1) for lid in learners], dtype=np.int64),
        np.array([question_index.get(qid, -1) for qid in questions], dtype=np.int64),
        np.array(attempts, dtype=np.int64),
    )


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _logloss(logits, y) -> float:
    return float(np.mean(np.logaddexp(0.0, logits) - y * logits))


@dataclass(frozen=True)
class FoldSplit:
    """Assignment of labeled record positions to k folds.

    ``assignments[i]`` is the fold label of record position ``i``, or -1 for
    rows without an observation (which never enter any fold).
    """

    assignments: tuple[int, ...]

    def fold_positions(self, fold: int) -> list[int]:
        return np.flatnonzero(np.asarray(self.assignments) == fold).tolist()

    def train_positions(self, fold: int) -> list[int]:
        folds = np.asarray(self.assignments)
        return np.flatnonzero((folds != fold) & (folds >= 0)).tolist()


@contextmanager
def open_input(path, **kwargs):
    """An input file open for reading as UTF-8, past a leading byte-order mark; one that cannot be
    opened or decoded is a DataError."""
    try:
        fh = open(path, encoding="utf-8-sig", **kwargs)
    except OSError as exc:
        raise DataError(f"{path}: cannot read input file ({exc.strerror or exc})") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})") from None


def parse_meta(meta_path) -> LessonMeta:
    """Read the optional lesson metadata JSON file."""
    with open_input(meta_path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"metadata file {meta_path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataError(f"metadata file {meta_path}: expected a JSON object")
    entries = payload.get("questions") or {}
    if not isinstance(entries, dict):
        raise DataError(f"metadata file {meta_path}: questions must be a JSON object")
    questions: dict[str, QuestionInfo] = {}
    for qid, info in entries.items():
        if not isinstance(info, dict):
            raise DataError(f"metadata file {meta_path}: question {qid!r} must be a JSON object")
        options = info.get("options", [])
        if not isinstance(options, list):
            raise DataError(f"metadata file {meta_path}: options of question {qid!r} must be a JSON array")
        text = str(info.get("text", ""))
        # a prompt writes one record per line, so a line break would split one
        if "\n" in text or "\r" in text:
            raise DataError(f"metadata file {meta_path}: text of question {qid!r} holds a line break")
        questions[str(qid)] = QuestionInfo(
            text=text,
            options=tuple(str(o) for o in options),
            answer=str(info.get("answer", "")),
        )
    return LessonMeta(str(payload.get("lesson_name", "")), questions)


def _csv_rows(fh):
    """Validated rows of an open interaction file; a DataError names the line, not the file."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise DataError("empty file, header row required")
    if tuple(h.strip() for h in header) != EXPECTED_HEADER:
        raise DataError(f"line 1: expected header {','.join(EXPECTED_HEADER)}, got {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise DataError(f"line {lineno}: expected 4 columns, got {len(row)}")
        # a space or tab beside a comma is layout; other whitespace stays in
        # the id, where Dataset.from_records rejects it
        learner_id, question_id, attempt_s, obs_s = (c.strip(" \t") for c in row)
        try:
            if not _DECIMAL.fullmatch(attempt_s):
                raise ValueError
            attempt = int(attempt_s)
        except ValueError:  # not ASCII decimal digits, or more than int() converts
            raise DataError(f"line {lineno}: attempt must be an integer, got {attempt_s!r}") from None
        if not 1 <= attempt <= MAX_ATTEMPT:
            raise DataError(f"line {lineno}: attempt must be in 1..2^63-1, got {attempt}")
        if obs_s == "":
            obs: int | None = None
        elif obs_s in ("0", "1"):
            obs = int(obs_s)
        else:
            raise DataError(f"line {lineno}: obs must be 0 or 1, got {obs_s!r}")
        yield learner_id, question_id, attempt, obs


def parse_dataset(path, meta_path=None) -> Dataset:
    """Read a comma-separated interaction file into a validated Dataset.

    The rows stream from the file into ``Dataset.from_records`` one at a
    time; no list of them is kept. Every DataError names the file: a
    malformed row (wrong column count, non-binary obs, attempt < 1) by its
    line, a duplicate (learner, question, attempt) triple by its key.
    """
    meta = None if meta_path is None else parse_meta(meta_path)
    with open_input(path, newline="") as fh:
        try:
            return Dataset.from_records(_csv_rows(fh), meta)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def write_dataset(ds: Dataset, path) -> None:
    """Serialize a Dataset back to the comma-separated file format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXPECTED_HEADER)
        for (learner_id, question_id, attempt), obs in zip(ds.keys(), ds.obs.tolist()):
            writer.writerow([learner_id, question_id, attempt, "" if obs < 0 else obs])


def make_folds(ds: Dataset, k: int, seed: int) -> FoldSplit:
    """Partition the labeled records into k near-equal folds, uniformly at random.

    Deterministic given (ds, k, seed). Fold sizes differ by at most one; rows
    without an observation receive fold label -1.
    """
    if k < 2:
        raise DataError(f"fold count must be >= 2, got {k}")
    labeled = np.flatnonzero(ds.obs >= 0)
    if k > len(labeled):
        raise DataError(f"cannot split {len(labeled)} labeled records into {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labeled))
    base, extra = divmod(len(labeled), k)
    assignments = np.full(ds.n_records, -1)
    # folds take consecutive runs of the permutation, the first ``extra`` one longer
    assignments[labeled[order]] = np.repeat(np.arange(k), base + (np.arange(k) < extra))
    return FoldSplit(assignments=tuple(assignments.tolist()))


@dataclass(frozen=True)
class DatasetSummary:
    """Descriptive statistics of a Dataset."""

    lesson_name: str
    n_learners: int
    n_questions: int
    max_attempt: int
    n_records: int
    n_labeled: int
    correct_rate: float
    question_correct_rate: dict[str, float]
    attempts_histogram: dict[int, int]

    def to_dict(self) -> dict:
        histogram = {str(a): c for a, c in sorted(self.attempts_histogram.items())}
        return {**asdict(self), "attempts_histogram": histogram}

    def to_text(self) -> str:
        lines = [
            f"lesson: {self.lesson_name or '(unnamed)'}",
            f"learners: {self.n_learners}  questions: {self.n_questions}  max attempt: {self.max_attempt}",
            f"records: {self.n_records} ({self.n_labeled} labeled), "
            f"overall correct rate {self.correct_rate:.3f}",
            "per-question correct rate:",
        ]
        for qid, rate in self.question_correct_rate.items():
            lines.append(f"  {qid}: {rate:.3f}")
        lines.append("attempts histogram:")
        for attempt, count in sorted(self.attempts_histogram.items()):
            lines.append(f"  attempt {attempt}: {count}")
        return "\n".join(lines)


def summarize(ds: Dataset) -> DatasetSummary:
    """Counts, per-question correct rates (labeled rows), and attempts histogram."""
    labeled = ds.obs >= 0
    totals = np.bincount(ds.question[labeled], minlength=ds.n_questions)
    correct = np.bincount(ds.question[labeled], weights=ds.obs[labeled], minlength=len(totals))
    n_labeled, n_correct = int(labeled.sum()), int(ds.obs[labeled].sum())
    attempts, counts = np.unique(ds.attempt, return_counts=True)
    return DatasetSummary(
        lesson_name=ds.meta.lesson_name,
        n_learners=ds.n_learners,
        n_questions=ds.n_questions,
        max_attempt=ds.max_attempt,
        n_records=ds.n_records,
        n_labeled=n_labeled,
        correct_rate=(n_correct / n_labeled) if n_labeled else 0.0,
        question_correct_rate={
            qid: float(correct[q] / totals[q]) for qid, q in ds.question_index.items() if totals[q]
        },
        attempts_histogram=dict(zip(attempts.tolist(), counts.tolist())),
    )
