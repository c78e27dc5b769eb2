"""Encode / predict / decode pipeline for chat-completion language models.

Interaction records are verbalized into contextual sentences, assembled into
a staged chain-of-thought prompt script, sent to a chat-completion client,
and the client's structured answer records are parsed back into numeric
predictions. The sentences are grouped by role: labeled history, then the
rows awaiting prediction. Question titles and the learning materials come
from the training Dataset's lesson metadata. A deterministic offline mock
client implements the same heuristic a capable assistant applies to such
transcripts (per-question difficulty shrunk toward 0.5, discounted for
repeated attempts), which makes the whole pipeline testable without any
network access.

Prompt stages are tagged a-j in order: (a) learning materials,
(b) transcription of the performance data, (c) analysis request,
(d) method selection, (e) model development, (f) performance evaluation,
(g) configuration disclosure, (h) skill assessment, (i) optimization,
(j) iterative feedback. Stages (a) and (h) require lesson metadata and are
omitted without it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import DataError, Dataset, LessonMeta, QuestionInfo
from .metrics import CvReport, rmse

STAGE_ORDER = "abcdefghij"

# mock-heuristic constants: pseudo-observations pulling the per-question
# rate toward 0.5, the per-extra-attempt discount, and its floor
SHRINK_PSEUDO_COUNT = 2.0
ATTEMPT_PENALTY = 0.1
ATTEMPT_PENALTY_FLOOR = 0.5


class DecodeError(ValueError):
    """The response text contained no usable prediction records."""


class ClientError(RuntimeError):
    """Transport-level failure talking to the model endpoint."""


def _ordinal(n: int) -> str:
    if 10 <= n % 100 <= 20:
        suffix = "th"
    else:
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


@dataclass(frozen=True)
class EncodedBatch:
    """Contextual sentences by role: labeled history, and targets with their keys."""

    train: tuple[str, ...]
    test: tuple[str, ...]
    test_keys: tuple[tuple[str, str, int], ...]


def encode_records(keys, outcomes, questions: dict[str, QuestionInfo]) -> EncodedBatch:
    """Verbalize ``(learner_id, question_id, attempt)`` keys in order, with their outcomes.

    An outcome of 0 or 1 makes a history sentence; -1 (no outcome) makes the
    row a prediction target. The question id always appears verbatim in the
    sentence so the text round-trips losslessly; the title comes from
    ``questions`` when present, else the placeholder "question <id>".
    """
    train: list[str] = []
    test: list[str] = []
    test_keys: list[tuple[str, str, int]] = []
    for (learner_id, question_id, attempt), obs in zip(keys, outcomes):
        info = questions.get(question_id)
        title = info.text if info and info.text else f"question {question_id}"
        sentence = (
            f"The current learner {learner_id} attempted to answer the question "
            f"{question_id} titled as '{title}' on their {_ordinal(attempt)} attempt."
        )
        if obs < 0:
            test.append(sentence)
            test_keys.append((learner_id, question_id, attempt))
        else:
            train.append(f"{sentence} Their performance was observed as {obs}.")
    return EncodedBatch(tuple(train), tuple(test), tuple(test_keys))


@dataclass(frozen=True)
class PromptStep:
    stage: str  # one letter of STAGE_ORDER
    content: str


@dataclass(frozen=True)
class PromptScript:
    """Ordered prompt stages; convertible to chat messages or audit text."""

    steps: tuple[PromptStep, ...]

    def messages(self) -> list[dict[str, str]]:
        return [{"role": "user", "content": s.content} for s in self.steps]

    def to_text(self) -> str:
        blocks = [f"[{s.stage}] {s.content}" for s in self.steps]
        return "\n\n".join(blocks)


PREDICTION_FORMAT = (
    "{'learner ID': ..., 'Question ID': ..., 'Attempt': ..., "
    "'Prediction': ..., 'Assessment': ...}"
)

# stages c-j are fixed text; a and b are built from the materials and the batch
STAGE_TEXT = {
    "c": (
        "Analyze these records for patterns in question difficulty and how "
        "performance changes over repeated attempts. Then produce, for every "
        "row awaiting prediction, a likelihood between 0 and 1 that the "
        "learner answers correctly, one record per row in exactly this "
        f"format: {PREDICTION_FORMAT}"
    ),
    "d": (
        "Which prediction method do you recommend for this data: logistic "
        "regression, random forest, gradient boosting machine, or XGBoost? "
        "Name one."
    ),
    "e": "Develop the chosen model, training and validating across the dataset folds.",
    "f": "Report the validation outcome as RMSE for each fold.",
    "g": "Share the full configuration settings of the model you used.",
    "h": (
        "Assess each learner's reading comprehension skills based on their "
        "performance records and the lesson questions."
    ),
    "i": "Suggest how to tune the model's hyperparameters to improve predictive performance.",
    "j": "I may ask follow-up questions to refine the analysis; keep the context available.",
}


def build_cot_script(
    batch: EncodedBatch,
    meta: LessonMeta | None = None,
    stages: str = STAGE_ORDER,
    rows_per_chunk: int = 0,
) -> PromptScript:
    """Assemble the staged prompt sequence around an encoded batch.

    ``stages`` restricts which of the a-j steps appear (order is always
    a-j); stages a and h are dropped when no lesson metadata is available.
    ``rows_per_chunk`` > 0 splits the transcription stage into several
    messages of at most that many sentences.
    """
    if not batch.train and not batch.test:
        raise ValueError("cannot build a script from an empty batch")
    has_meta = meta is not None and bool(meta.questions)
    wanted = [s for s in STAGE_ORDER if s in stages]
    if not has_meta:
        wanted = [s for s in wanted if s not in ("a", "h")]

    steps: list[PromptStep] = []
    for stage in wanted:
        if stage == "a":
            lines = [
                f"Here are the learning materials for the lesson "
                f"'{meta.lesson_name or 'unnamed lesson'}'."
            ]
            for qid, info in meta.questions.items():
                lines.append(f"Question {qid}: {info.text}")
                if info.options:
                    lines.append("  Options: " + "; ".join(info.options))
                if info.answer:
                    lines.append(f"  Answer: {info.answer}")
            steps.append(PromptStep("a", "\n".join(lines)))
        elif stage == "b":
            train = batch.train
            chunks = [train]
            if rows_per_chunk > 0:
                # one empty chunk keeps the header, with "(none)", when no row is labeled
                chunks = [train[i : i + rows_per_chunk]
                          for i in range(0, len(train), rows_per_chunk)] or [()]
            for ci, chunk in enumerate(chunks):
                label = "Historical learning performance records:" if ci == 0 else "More historical records:"
                body = "\n".join(chunk) if chunk else "(none)"
                steps.append(PromptStep("b", f"{label}\n{body}"))
            if batch.test:
                body = "\n".join(batch.test)
                steps.append(PromptStep("b", f"Rows awaiting prediction (outcome withheld):\n{body}"))
        else:
            steps.append(PromptStep(stage, STAGE_TEXT[stage]))
    return PromptScript(tuple(steps))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecodedPrediction:
    learner_id: str
    question_id: str
    attempt: int
    prediction: float
    assessment: str = ""

    def key(self) -> tuple[str, str, int]:
        return (self.learner_id, self.question_id, self.attempt)


@dataclass
class DecodeResult:
    predictions: list[DecodedPrediction]
    rejected: list[tuple[str, str]] = field(default_factory=list)  # (snippet, reason)


_BRACED = re.compile(r"\{[^{}]*\}")
# a key-value pair: a non-empty run of unquoted non-comma characters and
# quoted spans, where a quote left open runs to the end of the body
_PAIR = re.compile(r"""(?:[^,'"]|'[^']*'?|"[^"]*"?)+""")
_NON_LETTERS = re.compile(r"[^a-z]")
_KEY_ALIASES = {
    "learnerid": "learner_id",
    "learner": "learner_id",
    "questionid": "question_id",
    "question": "question_id",
    "attempt": "attempt",
    "attempts": "attempt",
    "prediction": "prediction",
    "assessment": "assessment",
}


def strip_quotes(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def braced_records(text: str, aliases: dict[str, str]):
    """Yield (match, fields) for every innermost ``{key: value, ...}`` block in ``text``.

    ``aliases`` maps a key, lowercased and stripped of quotes and non-letters,
    to a field name; other pairs are skipped. Values lose surrounding quotes.
    """
    for match in _BRACED.finditer(text):
        fields: dict[str, str] = {}
        for pair in _PAIR.findall(text, match.start() + 1, match.end() - 1):
            raw_key, colon, raw_val = pair.partition(":")
            name = aliases.get(_NON_LETTERS.sub("", strip_quotes(raw_key).lower()))
            if colon and name:
                fields[name] = strip_quotes(raw_val)
        yield match, fields


def decode_response(text: str) -> DecodeResult:
    """Extract every braced prediction record from free-form response text.

    Tolerates single or double quotes, arbitrary key order, and unquoted id
    values. Records missing required keys, with a non-numeric attempt or
    prediction, or with a prediction outside [0, 1] are collected under
    ``rejected`` with a reason; text outside all braced blocks is ignored.
    Raises DecodeError if nothing decodes.
    """
    predictions: list[DecodedPrediction] = []
    rejected: list[tuple[str, str]] = []
    for match, fields in braced_records(text, _KEY_ALIASES):
        snippet = match.group(0)
        required = {"learner_id", "question_id", "attempt", "prediction"}
        if not required <= set(fields):
            rejected.append((snippet, "missing keys"))
            continue
        try:
            attempt = int(fields["attempt"])
        except ValueError:
            rejected.append((snippet, "attempt not an integer"))
            continue
        try:
            pred = float(fields["prediction"])
        except ValueError:
            rejected.append((snippet, "prediction not a number"))
            continue
        if not 0.0 <= pred <= 1.0:
            rejected.append((snippet, "prediction out of range"))
            continue
        predictions.append(
            DecodedPrediction(
                learner_id=fields["learner_id"],
                question_id=fields["question_id"],
                attempt=attempt,
                prediction=pred,
                assessment=fields.get("assessment", ""),
            )
        )
    if not predictions:
        raise DecodeError("no predictions found in response")
    return DecodeResult(predictions=predictions, rejected=rejected)


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------

# the ids may hold spaces, so they end where the sentence's fixed words resume
_RECORD_SENTENCE = re.compile(
    r"The current learner (.*?) attempted to answer the question (.*?) titled as '.*?' "
    r"on their (\d+)\w{2} attempt\.(?: Their performance was observed as ([01])\.)?"
)


def heuristic_prediction(n_train: int, n_correct: int, attempt: int) -> float:
    """Per-question rate shrunk toward 0.5, discounted for repeated attempts."""
    base = (n_correct + 0.5 * SHRINK_PSEUDO_COUNT) / (n_train + SHRINK_PSEUDO_COUNT)
    penalty = max(ATTEMPT_PENALTY_FLOOR, 1.0 - ATTEMPT_PENALTY * (attempt - 1))
    return base * penalty


class MockHeuristicClient:
    """Deterministic offline stand-in for a hosted chat model.

    Parses the transcription stage out of the incoming messages, applies the
    documented difficulty-and-attempts heuristic, and answers with one
    structured record per prediction row (plus a method recommendation, so
    method-selection prompts also get an answer). Pure and reentrant.
    """

    def send(self, messages: Sequence[dict[str, str]]) -> str:
        text = "\n".join(m.get("content", "") for m in messages)
        train: dict[str, list[int]] = {}  # question -> [train rows, correct rows]
        test_rows: list[tuple[str, str, int]] = []
        for m in _RECORD_SENTENCE.finditer(text):
            lid, qid, attempt, obs = m.group(1), m.group(2), int(m.group(3)), m.group(4)
            if obs is None:
                test_rows.append((lid, qid, attempt))
            else:
                counts = train.setdefault(qid, [0, 0])
                counts[0] += 1
                counts[1] += int(obs)
        recommendation = (
            "Based on per-question difficulty and attempt counts, I recommend XGBoost "
            "for this data."
        )
        if not test_rows:
            if "'Prediction'" in text:
                raise ValueError("no prediction rows found in the prompt script")
            return recommendation

        lines = [recommendation + " Heuristic likelihoods for the requested rows:"]
        for lid, qid, attempt in test_rows:
            pred = heuristic_prediction(*train.get(qid, (0, 0)), attempt)
            note = "likely correct" if pred >= 0.5 else "likely incorrect"
            lines.append(
                f"{{'learner ID': '{lid}', 'Question ID': '{qid}', 'Attempt': {attempt}, "
                f"'Prediction': {pred!r}, 'Assessment': '{note}'}}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class HttpChatClient:
    """Minimal chat-completion HTTP client: message list in, text out.

    POSTs ``{"model", "messages", "temperature"}`` as JSON to the endpoint
    and reads ``choices[0].message.content`` from the reply. The bearer
    token comes from the environment variable LPPRED_API_TOKEN and is never
    logged. A failed call, or a reply without text at that path, is retried
    with a linear backoff.
    """

    endpoint: str
    model: str = "gpt-4"
    temperature: float = 0.0
    timeout: float = 120.0
    max_retries: int = 2
    backoff: float = 1.0

    def send(self, messages: Sequence[dict[str, str]]) -> str:
        payload = json.dumps(
            {"model": self.model, "messages": list(messages), "temperature": self.temperature}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get("LPPRED_API_TOKEN", "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last_error: Exception | None = None
        for retry in range(self.max_retries + 1):
            try:
                request = urllib.request.Request(
                    self.endpoint, data=payload, headers=headers, method="POST"
                )
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    body = json.loads(response.read().decode("utf-8"))
                content = body["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"reply content is {type(content).__name__}, not text")
                return content
            # transport (URLError is an OSError), a cut-short body, a body that is
            # not JSON, or no text at the path
            except (OSError, http.client.HTTPException, ValueError, LookupError, TypeError) as exc:
                last_error = exc
                if retry < self.max_retries:
                    time.sleep(self.backoff * (retry + 1))
        raise ClientError(f"chat endpoint failed after {self.max_retries + 1} attempts: {last_error}")


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

METHOD_REGISTRY = {
    "xgboost": "gbt",
    "gradient boosting": "gbt",
    "logistic regression": "pfa",
}


def select_method(client, ds_train: Dataset) -> str:
    """Ask the client to name a method (stage d); return the local model it maps to.

    The result is "gbt" or "pfa", via ``METHOD_REGISTRY``; unrecognized
    answers fall back to "gbt". The chosen model is always fit locally; no
    code from the client is executed.
    """
    batch = encode_records(ds_train.keys(), ds_train.obs.tolist(), ds_train.meta.questions)
    script = build_cot_script(batch, ds_train.meta, stages="bd")
    answer = client.send(script.messages()).lower()
    for phrase, model_name in METHOD_REGISTRY.items():
        if phrase in answer:
            return model_name
    return "gbt"


@dataclass
class PipelineResult:
    """Aligned predictions and diagnostics from repeated pipeline runs."""

    test_keys: tuple[tuple[str, str, int], ...]
    run_predictions: list[np.ndarray]
    imputed_per_run: list[int]
    run_rmse: list[float] | None
    script_text: str = ""  # audit dump of the prompt script that was sent

    @property
    def repeats(self) -> int:
        return len(self.run_predictions)

    @property
    def mean_predictions(self) -> np.ndarray:
        return np.mean(np.stack(self.run_predictions), axis=0)

    @property
    def coverage(self) -> float:
        total = self.repeats * len(self.test_keys)
        imputed = sum(self.imputed_per_run)
        return 1.0 - imputed / total if total else 1.0

    @property
    def mean_rmse(self) -> float | None:
        """Mean of the per-run RMSEs, as ``CvReport`` takes it; None without test labels."""
        return CvReport("llm", tuple(self.run_rmse)).mean_rmse if self.run_rmse else None

    @property
    def std_error(self) -> float | None:
        """Standard error across repeated runs (0.0 with one run); None without test labels."""
        return CvReport("llm", tuple(self.run_rmse)).std_error if self.run_rmse else None


def llm_predict_pipeline(
    ds_train: Dataset,
    ds_test: Dataset,
    client,
    repeats: int = 1,
    stages: str = STAGE_ORDER,
    rows_per_chunk: int = 0,
    concurrency: int = 1,
) -> PipelineResult:
    """Encode both datasets, run the script through the client ``repeats`` times,
    and align the decoded records back onto the test rows.

    Only labeled training rows are encoded as history. Test outcomes are never
    encoded; when ``ds_test`` carries labels they are used only to score each
    run's RMSE afterwards. A test row that repeats a labeled training row
    would show the client its outcome, so it is a DataError. Test rows missing
    from a run's decoded output are imputed at 0.5 and counted. ``concurrency`` > 1
    sends repeated runs to the client from that many threads; results stay
    ordered by run index.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    labeled = ds_train.labeled_positions()
    history, targets = ds_train.keys(labeled), ds_test.keys()
    target_set = set(targets)
    shown = next((key for key in history if key in target_set), None)
    if shown is not None:
        raise DataError(f"test row {shown} repeats a labeled training row; the client would see its outcome")
    outcomes = ds_train.obs[labeled].tolist() + [-1] * len(targets)  # test outcomes stay masked
    batch = encode_records(history + targets, outcomes, ds_train.meta.questions)
    script = build_cot_script(batch, ds_train.meta, stages=stages, rows_per_chunk=rows_per_chunk)
    test_keys = batch.test_keys
    key_pos = {key: i for i, key in enumerate(test_keys)}

    # test_keys follow the test records, so labels align with them
    labels = ds_test.obs_array() if np.all(ds_test.obs >= 0) else None

    def one_run(run: int) -> tuple[np.ndarray, int]:
        try:
            response = client.send(script.messages())
        except ClientError as exc:
            raise ClientError(f"run {run}: {exc}") from exc
        decoded = decode_response(response)
        preds = np.full(len(test_keys), 0.5)
        seen: set[tuple[str, str, int]] = set()
        for record in decoded.predictions:
            pos = key_pos.get(record.key())
            if pos is None or record.key() in seen:
                continue
            seen.add(record.key())
            preds[pos] = record.prediction
        return preds, len(test_keys) - len(seen)

    if concurrency > 1 and repeats > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(concurrency, repeats)) as pool:
            runs = list(pool.map(one_run, range(repeats)))
    else:
        runs = [one_run(run) for run in range(repeats)]

    run_predictions, imputed_per_run = (list(column) for column in zip(*runs))
    return PipelineResult(
        test_keys=test_keys,
        run_predictions=run_predictions,
        imputed_per_run=imputed_per_run,
        run_rmse=None if labels is None else [rmse(preds, labels) for preds in run_predictions],
        script_text=script.to_text(),
    )


class LlmPredictor:
    """Predictor adapter so the CV harness can benchmark a client end to end."""

    def __init__(self, client):
        self.client = client
        self._train: Dataset | None = None

    def fit(self, train: Dataset) -> "LlmPredictor":
        self._train = train
        return self

    def predict(self, rows: Sequence[tuple[str, str, int]]) -> np.ndarray:
        if self._train is None:
            raise RuntimeError("predict called before fit")
        test = Dataset.from_records((*row, None) for row in rows)
        result = llm_predict_pipeline(self._train, test, self.client, repeats=1, stages="bc")
        return result.run_predictions[0]
