"""Encode / predict / decode pipeline for chat-completion language models.

A request is built in three steps. ``encode_records`` turns the keys of
each role into one sentence per row: the labeled history with its outcomes,
and the rows awaiting prediction without. ``build_cot_script`` wraps the two
sentence lists in the staged chain-of-thought prompt as ``(stage, text)``
steps, and each step becomes one user chat message. Each reply decodes to one
map from ``(learner_id, question_id, attempt)`` to prediction, in which the
first valid record of each key counts; the prompt asks for an Assessment with
each record, but it is not kept. A record in exactly the layout the prompt
asks for (``PREDICTION_FORMAT``) is read in one regex match, any other by the
lenient pair reader, with the same result. All replies of a pipeline call
are fetched before any is decoded, and each distinct text decodes once, so
identical replies, such as the mock's R copies of its one reply, decode once
however many threads fetched them. Question titles and
the learning materials come from the training Dataset's lesson metadata.
A deterministic offline mock client implements the same heuristic a capable
assistant applies to such transcripts (per-question difficulty shrunk toward
0.5, discounted for repeated attempts), which makes the whole pipeline
testable without any network access.

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
import urllib.error
import urllib.parse
import urllib.request
import warnings
from dataclasses import dataclass, field
from itertools import repeat
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


def encode_records(keys, questions: dict[str, QuestionInfo], outcomes=None) -> list[str]:
    """One sentence per ``(learner_id, question_id, attempt)`` key, in order.

    With ``outcomes`` (0 or 1, aligned with ``keys``) each sentence ends with
    its observed outcome, making a history sentence; without, the sentences
    are prediction targets. The question id always appears verbatim in the
    sentence so the text round-trips losslessly; the title comes from
    ``questions`` when present, else the placeholder "question <id>". Each
    question's titled text and each attempt's ordinal is built once per call.
    """
    titled: dict[str, str] = {}  # question id -> "<id> titled as '<title>'"
    ordinals: dict[int, str] = {}
    sentences: list[str] = []
    for (learner_id, question_id, attempt), obs in zip(keys, repeat(None) if outcomes is None else outcomes):
        question = titled.get(question_id)
        if question is None:
            info = questions.get(question_id)
            title = info.text if info and info.text else f"question {question_id}"
            question = titled[question_id] = f"{question_id} titled as '{title}'"
        nth = ordinals.get(attempt)
        if nth is None:
            nth = ordinals[attempt] = _ordinal(attempt)
        sentence = (
            f"The current learner {learner_id} attempted to answer the question {question} on their {nth} attempt."
        )
        sentences.append(sentence if obs is None else f"{sentence} Their performance was observed as {obs}.")
    return sentences


PREDICTION_FORMAT = (
    "{'learner ID': ..., 'Question ID': ..., 'Attempt': ..., "
    "'Prediction': ..., 'Assessment': ...}"
)

# stages c-j are fixed text; a and b are built from the materials and the sentences
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
    history: Sequence[str],
    targets: Sequence[str],
    meta: LessonMeta | None = None,
    stages: str = STAGE_ORDER,
    rows_per_chunk: int = 0,
) -> list[tuple[str, str]]:
    """The staged prompt around history and target sentences, as ``(stage, text)`` steps.

    ``stages`` restricts which of the a-j steps appear (order is always
    a-j); stages a and h are dropped when no lesson metadata is available.
    ``rows_per_chunk`` > 0 splits the history block of the transcription
    stage into several steps of at most that many sentences.
    """
    if not history and not targets:
        raise ValueError("cannot build a script without history or target sentences")
    has_meta = meta is not None and bool(meta.questions)
    wanted = [s for s in STAGE_ORDER if s in stages]
    if not has_meta:
        wanted = [s for s in wanted if s not in ("a", "h")]

    steps: list[tuple[str, str]] = []
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
            steps.append(("a", "\n".join(lines)))
        elif stage == "b":
            # one empty chunk keeps the header, with "(none)", when no row is labeled
            size = rows_per_chunk if rows_per_chunk > 0 else max(len(history), 1)
            chunks = [history[i : i + size] for i in range(0, len(history), size)] or [()]
            for ci, chunk in enumerate(chunks):
                label = "Historical learning performance records:" if ci == 0 else "More historical records:"
                body = "\n".join(chunk) if chunk else "(none)"
                steps.append(("b", f"{label}\n{body}"))
            if targets:
                body = "\n".join(targets)
                steps.append(("b", f"Rows awaiting prediction (outcome withheld):\n{body}"))
        else:
            steps.append((stage, STAGE_TEXT[stage]))
    return steps


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


@dataclass
class DecodeResult:
    # (learner_id, question_id, attempt) -> prediction of the first valid record with that key
    predictions: dict[tuple[str, str, int], float]
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
}
_REQUIRED = frozenset(_KEY_ALIASES.values())  # every field read is required
# a braced block exactly in PREDICTION_FORMAT's layout, matched only over a
# span _BRACED found (so it holds no brace). Each group is the string that
# _read_pairs gives its field: a quoted value holds no single quote, and the
# attempt and prediction no whitespace, comma or quote that the pair reader
# would strip or split on.
_CANONICAL = re.compile(
    r"\{'learner ID': '([^']*)', 'Question ID': '([^']*)', 'Attempt': (\d+), "
    r"'Prediction': ([^\s,'\"]+), 'Assessment': '[^']*'\}"
)


def strip_quotes(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def _read_pairs(text: str, start: int, end: int, aliases: dict[str, str]) -> dict[str, str]:
    """The fields of the ``{key: value, ...}`` block spanning ``text[start:end]``, braces included.

    ``aliases`` maps a key, lowercased and stripped of quotes and non-letters,
    to a field name; other pairs are skipped, and a later pair of a field
    replaces an earlier one. Values lose surrounding whitespace and quotes.
    """
    fields: dict[str, str] = {}
    for pair in _PAIR.findall(text, start + 1, end - 1):
        raw_key, colon, raw_val = pair.partition(":")
        name = aliases.get(_NON_LETTERS.sub("", strip_quotes(raw_key).lower()))
        if colon and name:
            fields[name] = strip_quotes(raw_val)
    return fields


def braced_records(text: str, aliases: dict[str, str]):
    """Yield (match, fields) for every innermost ``{key: value, ...}`` block in ``text``.

    Each block's fields are what ``_read_pairs`` reads from it.
    """
    for match in _BRACED.finditer(text):
        yield match, _read_pairs(text, match.start(), match.end(), aliases)


def decode_response(text: str) -> DecodeResult:
    """Map each key of a braced prediction record in free-form text to its prediction.

    A record laid out exactly as ``PREDICTION_FORMAT`` asks, with single-quoted
    ids and assessment, is read in one match of ``_CANONICAL``; any other
    block goes through ``_read_pairs``, which gives the same fields for such a
    record. So the reader tolerates single or double quotes, arbitrary key
    order, and unquoted id values. The first valid record of a key counts;
    later ones are ignored. Records missing required keys, with a non-numeric
    attempt or prediction, or with a prediction outside [0, 1] are collected
    under ``rejected`` with a reason; text outside all braced blocks is
    ignored. Raises DecodeError if nothing decodes.
    """
    predictions: dict[tuple[str, str, int], float] = {}
    rejected: list[tuple[str, str]] = []
    for match in _BRACED.finditer(text):
        start, end = match.span()
        canonical = _CANONICAL.fullmatch(text, start, end)
        if canonical:
            learner_id, question_id, raw_attempt, raw_pred = canonical.groups()
        else:
            fields = _read_pairs(text, start, end, _KEY_ALIASES)
            if not _REQUIRED <= fields.keys():
                rejected.append((match.group(0), "missing keys"))
                continue
            learner_id, question_id = fields["learner_id"], fields["question_id"]
            raw_attempt, raw_pred = fields["attempt"], fields["prediction"]
        try:
            attempt = int(raw_attempt)
        except ValueError:
            rejected.append((match.group(0), "attempt not an integer"))
            continue
        try:
            pred = float(raw_pred)
        except ValueError:
            rejected.append((match.group(0), "prediction not a number"))
            continue
        if not 0.0 <= pred <= 1.0:
            rejected.append((match.group(0), "prediction out of range"))
            continue
        predictions.setdefault((learner_id, question_id, attempt), pred)
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
    record per prediction row in the layout ``PREDICTION_FORMAT`` names, each
    id quoted by ``_quote`` (plus a method recommendation, so method-selection
    prompts also get an answer). Pure and reentrant.
    """

    def send_choices(self, messages: Sequence[dict[str, str]], n: int) -> list[str]:
        """The one reply to ``messages``, ``n`` times: the mock reads the prompt once per request.

        The ``n`` choices are one text, so ``llm_predict_pipeline`` decodes them once.
        """
        return [self.send(messages)] * n

    def send(self, messages: Sequence[dict[str, str]]) -> str:
        contents = [m.get("content", "") for m in messages]
        train: dict[str, list[int]] = {}  # question -> [train rows, correct rows]
        test_rows: list[tuple[str, str, int]] = []
        # no sentence spans two messages, so each is scanned in place
        for content in contents:
            for m in _RECORD_SENTENCE.finditer(content):
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
            if any("'Prediction'" in content for content in contents):
                raise ValueError("no prediction rows found in the prompt script")
            return recommendation

        lines = [recommendation + " Heuristic likelihoods for the requested rows:"]
        for lid, qid, attempt in test_rows:
            pred = heuristic_prediction(*train.get(qid, (0, 0)), attempt)
            note = "likely correct" if pred >= 0.5 else "likely incorrect"
            lines.append(
                f"{{'learner ID': {_quote(lid)}, 'Question ID': {_quote(qid)}, 'Attempt': {attempt}, "
                f"'Prediction': {pred!r}, 'Assessment': '{note}'}}"
            )
        return "\n".join(lines)


def _quote(value: str) -> str:
    """``value`` in single quotes, or in double quotes when it holds a single quote.

    A value holding both quotes, or a brace, cannot be written so that a
    braced record reads it back.
    """
    return f'"{value}"' if "'" in value else f"'{value}'"


# the client-error statuses that a later try of the same request may pass
RETRIED_4XX = frozenset({408, 429})


def _choice_text(choice) -> str:
    """``choice.message.content``; a LookupError or TypeError when the choice holds no text there."""
    content = choice["message"]["content"]
    if not isinstance(content, str):
        raise TypeError(f"reply content is {type(content).__name__}, not text")
    return content


@dataclass(frozen=True)
class HttpChatClient:
    """Minimal chat-completion HTTP client: message list in, text out.

    POSTs ``{"model", "messages", "temperature"}`` as JSON to the endpoint
    and reads ``choices[0].message.content`` from the reply. ``send_choices``
    asks for ``n`` > 1 choices by adding ``"n": n`` to that body; a server
    that ignores it answers with one choice, and one that refuses it fails
    the call. The bearer token comes from the environment variable
    LPPRED_API_TOKEN and is never logged. A failed call, or a reply without
    text in its first choice, is retried with a linear backoff; an HTTP 4xx
    status other than those in ``RETRIED_4XX`` (408 Request Timeout, 429 Too
    Many Requests) fails at once with a ClientError naming it, since the same
    request would be refused again. The endpoint must be an ``http://`` or
    ``https://`` URL with a host (ValueError).
    """

    endpoint: str
    model: str = "gpt-4"
    temperature: float = 0.0
    timeout: float = 120.0
    max_retries: int = 2
    backoff: float = 1.0

    def __post_init__(self):
        url = urllib.parse.urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {self.endpoint!r} is not an http:// or https:// URL with a host")

    def send(self, messages: Sequence[dict[str, str]]) -> str:
        return self.send_choices(messages, 1)[0]

    def send_choices(self, messages: Sequence[dict[str, str]], n: int) -> list[str]:
        """The texts of the reply's leading choices, 1 to ``n`` of them, in reply order.

        A first choice without text fails the call like any other bad reply;
        the list ends before any later choice without text.
        """
        body = {"model": self.model, "messages": list(messages), "temperature": self.temperature}
        if n > 1:
            body["n"] = n
        payload = json.dumps(body).encode("utf-8")
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
                    choices = json.loads(response.read().decode("utf-8"))["choices"]
                texts = [_choice_text(choices[0])]
                for choice in choices[1:n]:
                    try:
                        texts.append(_choice_text(choice))
                    except (LookupError, TypeError):
                        break
                return texts
            # transport (URLError is an OSError), a cut-short body, a body that is
            # not JSON, or no text at the path
            except (OSError, http.client.HTTPException, ValueError, LookupError, TypeError) as exc:
                status = exc.code if isinstance(exc, urllib.error.HTTPError) else None
                if status is not None and 400 <= status < 500 and status not in RETRIED_4XX:
                    raise ClientError(
                        f"chat endpoint failed after {retry + 1} attempts: {exc} (a client error, not retried)"
                    ) from exc
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

    The request shows the labeled rows of ``ds_train`` as history (stage b).

    The result is "gbt" or "pfa", via ``METHOD_REGISTRY``; unrecognized
    answers fall back to "gbt". The chosen model is always fit locally; no
    code from the client is executed.
    """
    labeled = ds_train.labeled_positions()
    steps = build_cot_script(
        encode_records(ds_train.keys(labeled), ds_train.meta.questions, ds_train.obs[labeled].tolist()),
        [],
        ds_train.meta,
        stages="bd",
    )
    answer = client.send([{"role": "user", "content": text} for _, text in steps]).lower()
    for phrase, model_name in METHOD_REGISTRY.items():
        if phrase in answer:
            return model_name
    return "gbt"


@dataclass
class PipelineResult:
    """Aligned predictions and diagnostics from repeated pipeline runs."""

    test_keys: list[tuple[str, str, int]]
    run_predictions: list[np.ndarray]
    imputed_per_run: list[int]
    rejected_per_run: list[int]  # records each reply held that did not decode
    first_rejection: str  # reason of the first of those records, in run order; "" when none
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
    encoded; when every row of ``ds_test`` carries a label they are used only
    to score each run's RMSE afterwards, and a test set labeled only in part
    is a DataError. A test row that repeats a labeled training row
    would show the client its outcome, so it is a DataError. Test rows missing
    from a run's decoded output are imputed at 0.5 and counted, as are the
    reply records that did not decode.

    With ``repeats`` > 1 and a client that has ``send_choices``, one request
    asks for all ``repeats`` choices, and each choice decodes as its own run,
    in choice order. The runs its reply did not cover, and every run of a
    client without the method, are requested one at a time; ``concurrency``
    > 1 sends those from that many threads, and results stay ordered by run
    index. A failed request names its run index.

    Every reply is fetched before any is decoded. Then each distinct reply
    text is decoded and aligned once, on the calling thread, and a run whose
    text equals an earlier one's reuses that result, with its own copy of
    the predictions array.
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
    n_labeled = int(np.count_nonzero(ds_test.obs >= 0))
    if 0 < n_labeled < ds_test.n_records:
        raise DataError(f"test rows must be all labeled or all unlabeled; {n_labeled} are labeled "
                        f"and {ds_test.n_records - n_labeled} have no obs")
    questions = ds_train.meta.questions
    # unnamed, the sentence lists are freed once joined into the steps; test outcomes are never encoded
    steps = build_cot_script(
        encode_records(history, questions, ds_train.obs[labeled].tolist()),
        encode_records(targets, questions),
        ds_train.meta,
        stages=stages,
        rows_per_chunk=rows_per_chunk,
    )
    messages = [{"role": "user", "content": text} for _, text in steps]

    # targets follow the test records, so labels align with them
    labels = ds_test.obs_array() if n_labeled == ds_test.n_records else None

    def request(run: int, send, *args):
        try:
            return send(messages, *args)
        except ClientError as exc:
            raise ClientError(f"run {run}: {exc}") from exc

    texts = []
    if repeats > 1 and hasattr(client, "send_choices"):
        # one request for every run; the runs a shorter reply left out get one request each below
        texts = list(request(0, client.send_choices, repeats)[:repeats])
    rest = range(len(texts), repeats)
    if concurrency > 1 and len(rest) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(concurrency, len(rest))) as pool:
            texts += pool.map(request, rest, repeat(client.send))
    elif rest:  # a client that served every run by choices may have no send
        texts += map(request, rest, repeat(client.send))

    # every reply is in, so each distinct text decodes once, here, whichever thread fetched it
    decoded_runs = {}
    for text in dict.fromkeys(texts):
        decoded = decode_response(text)
        rejected = decoded.rejected
        # NaN marks a missing key: no decoded prediction is NaN, as each lies in [0, 1]
        preds = np.array([decoded.predictions.get(key, np.nan) for key in targets], dtype=float)
        missing = np.isnan(preds)
        preds[missing] = 0.5
        decoded_runs[text] = preds, int(np.count_nonzero(missing)), len(rejected), rejected[0][1] if rejected else ""
    runs = [(preds.copy(), *counts) for preds, *counts in map(decoded_runs.get, texts)]
    # these hold the reply texts; free them before the script text is joined below
    del texts, text, decoded_runs
    run_predictions, imputed_per_run, rejected_per_run, first_reasons = (list(column) for column in zip(*runs))
    return PipelineResult(
        test_keys=targets,
        run_predictions=run_predictions,
        imputed_per_run=imputed_per_run,
        rejected_per_run=rejected_per_run,
        first_rejection=next(filter(None, first_reasons), ""),
        run_rmse=None if labels is None else [rmse(preds, labels) for preds in run_predictions],
        script_text="\n\n".join(f"[{stage}] {text}" for stage, text in steps),
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
        (imputed,) = result.imputed_per_run
        if imputed:
            warnings.warn(f"LlmPredictor: the reply left out {imputed} of {test.n_records} rows, scored at 0.5")
        (rejected,) = result.rejected_per_run
        if rejected:
            reason = result.first_rejection
            warnings.warn(f"LlmPredictor: the reply held {rejected} rejected records (first: {reason})")
        return result.run_predictions[0]
