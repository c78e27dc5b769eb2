import hashlib
import json
import re
import threading
import time
import tracemalloc
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppred import llm
from lppred.cli import EXIT_CLIENT, main
from lppred.data import Dataset, LessonMeta, QuestionInfo, write_dataset
from lppred.llm import (
    _CANONICAL,
    _KEY_ALIASES,
    _RECORD_SENTENCE,
    PREDICTION_FORMAT,
    ClientError,
    DecodeError,
    HttpChatClient,
    LlmPredictor,
    MockHeuristicClient,
    braced_records,
    build_cot_script,
    decode_response,
    encode_records,
    heuristic_prediction,
    llm_predict_pipeline,
    select_method,
    strip_quotes,
)
from lppred.metrics import cross_validate, rmse
from lppred.pfa import PfaModel
from lppred.simulate import SimSpec, simulate_bkt

from conftest import PfaRefitClient, make_records, rows_of


def lesson_meta():
    return LessonMeta(
        lesson_name="Minor Burns",
        questions={
            "Q1": QuestionInfo(text="Minor Burns Q1", options=("a", "b"), answer="a"),
            "Q2": QuestionInfo(text="Minor Burns Q2", options=("a", "b"), answer="b"),
        },
    )


class TestEncode:
    def test_train_sentence_contains_ordinal_and_outcome(self):
        (sentence,) = encode_records([("L1", "Q1", 1)], lesson_meta().questions, [1])
        assert "1st attempt" in sentence
        assert "observed as 1" in sentence
        assert "Minor Burns Q1" in sentence

    def test_test_sentence_has_no_outcome_clause(self):
        sentences = encode_records([("L2", "Q3", 2)], {})
        assert len(sentences) == 1
        assert "observed as" not in sentences[0]
        assert "2nd attempt" in sentences[0]
        assert sentences[0].startswith("The current learner L2 attempted to answer the question Q3 ")

    def test_placeholder_title_without_metadata(self):
        (sentence,) = encode_records([("L1", "Q7", 1)], {}, [0])
        assert "'question Q7'" in sentence

    def test_sentence_count_and_order(self):
        keys = [("L1", "Q1", 1), ("L2", "Q1", 1), ("L1", "Q1", 2), ("L2", "Q2", 1), ("L3", "Q2", 1)]
        outcomes = [0, 1, 1, 0, 1]
        history = encode_records(iter(keys), {}, iter(outcomes))
        targets = encode_records(iter(keys), {})
        # one sentence per key, in key order, and a sentence does not depend on its neighbours
        assert history == [encode_records([k], {}, [o])[0] for k, o in zip(keys, outcomes)]
        assert targets == [encode_records([k], {})[0] for k in keys]
        # the keys read back from the target sentences
        read = [(m[1], m[2], int(m[3])) for m in _RECORD_SENTENCE.finditer("\n".join(targets))]
        assert read == keys


def encode_records_reference(keys, questions, outcomes=None):
    """``encode_records`` as one f-string per row, with the title looked up and the ordinal built per row."""
    sentences = []
    for i, (learner_id, question_id, attempt) in enumerate(keys):
        info = questions.get(question_id)
        title = info.text if info and info.text else f"question {question_id}"
        sentence = (
            f"The current learner {learner_id} attempted to answer the question "
            f"{question_id} titled as '{title}' on their {llm._ordinal(attempt)} attempt."
        )
        if outcomes is not None:
            sentence += f" Their performance was observed as {outcomes[i]}."
        sentences.append(sentence)
    return sentences


# ids holding spaces, quotes, commas and colons; attempts around every ordinal suffix change
ENCODE_IDS = st.text(alphabet="aQ1 '\",:", min_size=1, max_size=5)
ENCODE_ATTEMPTS = st.one_of(st.sampled_from([1, 2, 3, 4, 11, 12, 13, 21, 22, 23, 111, 112, 113, 1001]),
                            st.integers(1, 2000))


class TestEncodeProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(ENCODE_IDS, ENCODE_IDS, ENCODE_ATTEMPTS, st.sampled_from([0, 1])), max_size=30),
        st.dictionaries(ENCODE_IDS, st.builds(QuestionInfo, text=st.one_of(st.just(""), ENCODE_IDS)), max_size=4),
    )
    def test_sentences_equal_the_per_row_reference(self, rows, questions):
        # draw a question id from the metadata for some rows, so titled and placeholder rows mix
        keys = [(lid, list(questions)[attempt % len(questions)] if questions and obs else qid, attempt)
                for lid, qid, attempt, obs in rows]
        outcomes = [obs for *_, obs in rows]
        assert encode_records(keys, questions) == encode_records_reference(keys, questions)
        assert encode_records(keys, questions, outcomes) == encode_records_reference(keys, questions, outcomes)


class TestScript:
    def sentences(self):
        questions = lesson_meta().questions
        return encode_records([("L1", "Q1", 1)], questions, [1]), encode_records([("L1", "Q2", 1)], questions)

    def test_full_stage_sequence_with_metadata(self):
        steps = build_cot_script(*self.sentences(), lesson_meta())
        tags = [stage for stage, _ in steps]
        assert set(tags) == set("abcdefghij")
        # stage letters never decrease
        assert list(tags) == sorted(tags)

    def test_stages_a_and_h_dropped_without_metadata(self):
        steps = build_cot_script(*self.sentences(), None)
        tags = [stage for stage, _ in steps]
        assert "a" not in tags and "h" not in tags
        assert set(tags) == set("bcdefgij")

    def test_stage_subset_preserves_order(self):
        steps = build_cot_script(*self.sentences(), lesson_meta(), stages="dbfa")
        tags = [stage for stage, _ in steps]
        assert set(tags) == set("abdf")
        assert list(tags) == sorted(tags)  # b may repeat (train + test blocks)

    def test_chunked_transcription(self):
        history = encode_records([("L1", "Q1", a) for a in range(1, 8)], {}, [1] * 7)
        targets = encode_records([("L2", "Q1", 1)], {})
        steps = build_cot_script(history, targets, None, stages="b", rows_per_chunk=3)
        b_steps = [text for stage, text in steps if stage == "b"]
        assert len(b_steps) == 4  # ceil(7/3) train chunks + one test block

    @pytest.mark.parametrize("rows_per_chunk", [0, 3])
    def test_history_header_without_labeled_rows(self, rows_per_chunk):
        targets = encode_records([("L1", "Q1", 1)], {})
        steps = build_cot_script([], targets, None, stages="b", rows_per_chunk=rows_per_chunk)
        stage, text = steps[0]
        assert stage == "b"
        assert text == "Historical learning performance records:\n(none)"
        assert len(steps) == 2  # the header, then the rows awaiting prediction

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            build_cot_script([], [], None)

    def test_to_text_audit_dump(self):
        train = Dataset.from_records([("L1", "Q1", 1, 1)], meta=lesson_meta())
        test = Dataset.from_records([("L1", "Q2", 1, None)])
        text = llm_predict_pipeline(train, test, MockHeuristicClient()).script_text
        assert text.startswith("[a]")
        assert "[b]" in text


class TestDecode:
    def test_single_record(self):
        result = decode_response(
            "preamble {'learner ID': L1, 'Question ID': Q2, 'Attempt': 1, "
            "'Prediction': 0.73, 'Assessment': 'likely correct'} trailer"
        )
        assert result.predictions == {("L1", "Q2", 1): pytest.approx(0.73)}

    def test_key_order_insensitive(self):
        a = decode_response("{'learner ID': L1, 'Question ID': Q2, 'Attempt': 1, 'Prediction': 0.73}")
        b = decode_response("{'Prediction': 0.73, 'Attempt': 1, 'Question ID': Q2, 'learner ID': L1}")
        assert a.predictions == b.predictions

    def test_double_quotes_and_spacing(self):
        result = decode_response('{"Learner ID" : "L9" , "question id": "Q1", "Attempt": 3, "Prediction": 0.5}')
        assert list(result.predictions) == [("L9", "Q1", 3)]

    def test_out_of_range_rejected_with_reason(self):
        result = decode_response(
            "{'learner ID': L1, 'Question ID': Q1, 'Attempt': 1, 'Prediction': 0.4}"
            "{'learner ID': L2, 'Question ID': Q1, 'Attempt': 1, 'Prediction': 1.4}"
        )
        assert len(result.predictions) == 1
        assert result.rejected[0][1] == "prediction out of range"

    def test_zero_records_is_hard_error(self):
        with pytest.raises(DecodeError, match="no predictions found"):
            decode_response("no structured output at all")

    def test_recovers_k_records_from_prose(self, rng):
        k = 17
        parts = []
        for i in range(k):
            parts.append(f"Some narrative text number {i}.")
            parts.append(
                f"{{'learner ID': L{i}, 'Question ID': Q{i % 3}, 'Attempt': {i % 4 + 1}, "
                f"'Prediction': {round(float(rng.random()), 6)}, 'Assessment': 'note {i}'}}"
            )
        result = decode_response("\n".join(parts))
        assert len(result.predictions) == k

    def test_commas_inside_quoted_assessment(self):
        result = decode_response(
            "{'learner ID': L1, 'Question ID': Q1, 'Attempt': 2, 'Prediction': 0.2, "
            "'Assessment': 'weak, hesitant, slow'}"
        )
        # the commas inside the quoted Assessment do not split the record
        assert result.predictions == {("L1", "Q1", 2): pytest.approx(0.2)}
        assert result.rejected == []

    def test_first_valid_record_of_a_key_counts(self):
        result = decode_response(
            "{'learner ID': L1, 'Question ID': Q1, 'Attempt': 1, 'Prediction': 0.4}"
            "{'learner ID': L1, 'Question ID': Q1, 'Attempt': 1, 'Prediction': 0.9}"
            "{'learner ID': L1, 'Question ID': Q1, 'Attempt': 1, 'Prediction': 1.4}"
        )
        assert result.predictions == {("L1", "Q1", 1): 0.4}
        assert [reason for _, reason in result.rejected] == ["prediction out of range"]
        assert "1.4" in result.rejected[0][0]


def split_pairs_reference(body: str) -> list[str]:
    """Character loop: split on commas that sit outside single or double quotes."""
    parts = []
    depth_quote = ""
    buf = []
    for ch in body:
        if depth_quote:
            if ch == depth_quote:
                depth_quote = ""
            buf.append(ch)
        elif ch in "'\"":
            depth_quote = ch
            buf.append(ch)
        elif ch == ",":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        parts.append("".join(buf))
    return parts


def braced_records_reference(text: str, aliases: dict[str, str]):
    """(span, fields) of every braced block, each pair found by the character loop."""
    for match in re.finditer(r"\{[^{}]*\}", text):
        fields = {}
        for pair in split_pairs_reference(match.group(0)[1:-1]):
            raw_key, colon, raw_val = pair.partition(":")
            name = aliases.get(re.sub(r"[^a-z]", "", strip_quotes(raw_key).lower()))
            if colon and name:
                fields[name] = strip_quotes(raw_val)
        yield match.span(), fields


# fuzzed response text: braces, colons, commas, both quotes, key names and
# digits, loose or assembled into roughly record-shaped blocks
FUZZ_PIECES = st.sampled_from(["{", "}", ":", ",", "'", '"', " ", "L1", "Q2", "0", "1", "0.25"])
FUZZ_KEYS = st.sampled_from(
    ["learner ID", "'Question ID'", '"Attempt"', "prediction", "Assessment", "note", ""]
)
FUZZ_PAIRS = st.builds(
    lambda key, colon, value: key + colon + value,
    FUZZ_KEYS,
    st.sampled_from([":", " : ", ""]),
    st.lists(FUZZ_PIECES, max_size=6).map("".join),
)
FUZZ_RECORDS = st.lists(FUZZ_PAIRS, max_size=5).map(lambda pairs: "{" + ",".join(pairs) + "}")
FUZZ_TEXT = st.lists(st.one_of(FUZZ_RECORDS, FUZZ_PIECES, FUZZ_KEYS), max_size=10).map("".join)


def decode_response_reference(text: str):
    """(predictions, rejected) of ``decode_response``, every block read by the character loop."""
    predictions, rejected = {}, []
    for (start, end), fields in braced_records_reference(text, _KEY_ALIASES):
        snippet = text[start:end]
        if not {"learner_id", "question_id", "attempt", "prediction"} <= fields.keys():
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
        predictions.setdefault((fields["learner_id"], fields["question_id"], attempt), pred)
    return predictions, rejected


# records in the layout the prompt asks for, and records one field off it.
# In the layout, ids and Assessment hold the characters a pair reader splits
# or strips on, with few distinct ids so that keys repeat, and predictions
# read as numbers or not, in range or not. Off it, one field is spaced,
# quoted or followed by a comma, or holds a single quote, a brace or one
# more pair.
def layout_record(lid, qid, attempt, pred, note):
    return (
        f"{{'learner ID': '{lid}', 'Question ID': '{qid}', 'Attempt': {attempt}, "
        f"'Prediction': {pred}, 'Assessment': '{note}'}}"
    )


LAYOUT_IDS = st.text(st.sampled_from(["L", "1", " ", '"', ",", ":", "\n"]), max_size=3)
LAYOUT_FIELDS = (
    LAYOUT_IDS,
    LAYOUT_IDS,
    st.integers(0, 12).map(str),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["0", "1", "0.25", "1.4", "-0.1", "nan", "inf", "1_0", "1e-05", "1e400", "0x1", "abc"]),
    ),
    st.text(st.sampled_from(["a", " ", '"', ",", ":", "\n"]), max_size=4),
)
OFF_LAYOUT_IDS = st.sampled_from(["O'B", "a}b", "L', 'Question ID': 'Q9", " L", "L\n"])
OFF_LAYOUT_FIELDS = (
    OFF_LAYOUT_IDS,
    OFF_LAYOUT_IDS,
    st.sampled_from(["\u0663", "-1", "1.0", "", " 3", "3 ", "'2'", '"2"', "2,", "2, 'x': 1"]),
    st.sampled_from(["", " 0.3", "0.3 ", "0. 3", "'0.3'", '"0.3"', "0.3,", "0.3, 'x': 1", "'0.3", "0.3'"]),
    st.sampled_from(["O'B", "', 'Prediction': 0.75, 'x': '", "', 'Attempt': 3, '", "}"]),
)
LAYOUT_RECORDS = st.builds(layout_record, *LAYOUT_FIELDS)
OFF_LAYOUT_RECORDS = st.integers(0, 4).flatmap(
    lambda off: st.builds(layout_record, *LAYOUT_FIELDS[:off], OFF_LAYOUT_FIELDS[off], *LAYOUT_FIELDS[off + 1 :])
)
DECODE_FUZZ_TEXT = st.lists(
    st.one_of(LAYOUT_RECORDS, OFF_LAYOUT_RECORDS, FUZZ_TEXT, st.just("\n")), max_size=8
).map("".join)


class TestDecodeProperties:
    @settings(max_examples=400, deadline=None)
    @given(FUZZ_TEXT)
    def test_braced_records_match_the_character_loop(self, text):
        got = [(m.span(), fields) for m, fields in braced_records(text, _KEY_ALIASES)]
        assert got == list(braced_records_reference(text, _KEY_ALIASES))

    @settings(max_examples=600, deadline=None)
    @given(DECODE_FUZZ_TEXT)
    def test_decode_matches_the_reference_decoder(self, text):
        predictions, rejected = decode_response_reference(text)
        if not predictions:
            with pytest.raises(DecodeError):
                decode_response(text)
            return
        result = decode_response(text)
        # key order too: the first valid record of a key counts
        assert list(result.predictions.items()) == list(predictions.items())
        assert result.rejected == rejected


class TestDecodeFastPath:
    """Records in the layout the prompt asks for are read without the pair reader."""

    @pytest.fixture
    def pair_reads(self, monkeypatch):
        calls = []
        read_pairs = llm._read_pairs

        def counting(*args):
            calls.append(args)
            return read_pairs(*args)

        monkeypatch.setattr(llm, "_read_pairs", counting)
        return calls

    def test_the_requested_layout_skips_the_pair_reader(self, pair_reads):
        values = iter(["'L1'", "'Q1'", "2", "0.5", "'likely correct'"])
        record = re.sub(r"\.\.\.", lambda _: next(values), PREDICTION_FORMAT)
        assert _CANONICAL.fullmatch(record)
        assert decode_response(record).predictions == {("L1", "Q1", 2): 0.5}
        assert pair_reads == []

    def test_the_mocks_reply_skips_the_pair_reader(self, pair_reads):
        res = simulate_bkt(SimSpec(66, 8, 9, seed=3, stop_on_correct=True))
        train, test = split_dataset(res.dataset, np.random.default_rng(0))
        steps = build_cot_script(
            encode_records(train.keys(), {}, train.obs.tolist()), encode_records(test.keys(), {})
        )
        reply = MockHeuristicClient().send([{"role": "user", "content": text} for _, text in steps])
        assert len(decode_response(reply).predictions) == test.n_records
        assert pair_reads == []
        off_layout = "{'Prediction': 0.5, 'Attempt': 1, 'Question ID': 'Q1', 'learner ID': 'L0'}"
        assert ("L0", "Q1", 1) in decode_response(f"{reply}\n{off_layout}").predictions
        assert len(pair_reads) == 1


class TestMockHeuristic:
    def test_shrunk_base_rate_all_correct(self):
        # 4 train rows all correct, pseudo-count 2 toward 0.5:
        # (4*1 + 0.5*2) / (4 + 2) = 5/6
        assert heuristic_prediction(4, 4, 1) == pytest.approx(5 / 6)

    def test_attempt_penalty(self):
        assert heuristic_prediction(4, 4, 3) == pytest.approx((5 / 6) * 0.8)

    def test_penalty_floor(self):
        assert heuristic_prediction(4, 4, 9) == pytest.approx((5 / 6) * 0.5)

    def test_no_train_rows_gives_prior(self):
        assert heuristic_prediction(0, 0, 1) == pytest.approx(0.5)

    def test_client_no_test_rows_with_prediction_request_errors(self):
        steps = build_cot_script(encode_records([("L1", "Q1", 1), ("L2", "Q1", 1)], {}, [1, 0]), [], None)
        with pytest.raises(ValueError, match="no prediction rows"):
            MockHeuristicClient().send([{"role": "user", "content": text} for _, text in steps])

    def test_method_selection(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1), ("L2", "Q1", 1, 0)]))
        assert select_method(MockHeuristicClient(), ds) == "gbt"

    def test_method_selection_falls_back_to_gbt_on_an_unlisted_method(self):
        class NeuralNetClient:
            def send(self, messages):
                return "I would use a neural network."

        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1), ("L2", "Q1", 1, 0)]))
        assert select_method(NeuralNetClient(), ds) == "gbt"

    @pytest.mark.parametrize("rows_per_chunk", [0, 500])
    def test_send_does_not_copy_the_prompt(self, rows_per_chunk):
        history = [(f"L{i}", f"Q{j}", a) for i in range(200) for j in range(20) for a in (1, 2, 3)]
        targets = [(f"L{i}", "Q0", 4) for i in range(10)]
        steps = build_cot_script(
            encode_records(history, {}, [(i + a) % 2 for i, (_, _, a) in enumerate(history)]),
            encode_records(targets, {}),
            rows_per_chunk=rows_per_chunk,
        )
        messages = [{"role": "user", "content": text} for _, text in steps]
        prompt_chars = sum(len(text) for _, text in steps)
        tracemalloc.start()
        try:
            reply = MockHeuristicClient().send(messages)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(decode_response(reply).predictions) == 10
        assert peak < prompt_chars / 10, (peak, prompt_chars)


def split_dataset(ds, rng, holdout=0.2):
    pos = ds.labeled_positions()
    n_test = max(1, int(len(pos) * holdout))
    test_set = set(rng.choice(len(pos), size=n_test, replace=False).tolist())
    train = ds.subset([p for i, p in enumerate(pos) if i not in test_set])
    test = ds.subset([p for i, p in enumerate(pos) if i in test_set])
    return train, test


class TestPipeline:
    def test_mock_round_trip_full_coverage(self, rng):
        res = simulate_bkt(SimSpec(15, 4, 3, seed=1, stop_on_correct=True))
        train, test = split_dataset(res.dataset, rng)
        result = llm_predict_pipeline(train, test, MockHeuristicClient(), repeats=7)
        assert result.coverage == 1.0
        assert sum(result.imputed_per_run) == 0
        assert result.std_error == 0.0
        assert len(set(result.run_rmse)) == 1

    def test_mock_reads_ids_with_inner_spaces(self):
        train = Dataset.from_records(make_records([("L 1", "Q1", 1, 1), ("L2", "Q1", 1, 0), ("L 5", "Q 2", 1, 1)]))
        test = Dataset.from_records(make_records([("L7", "Q1", 1, 0), ("L 1", "Q 2", 1, 1), ("L 5", "Q 2", 2, 0)]))
        result = llm_predict_pipeline(train, test, MockHeuristicClient())
        assert result.coverage == 1.0
        # Q1 counts both training rows, (1 + 0.5 * 2) / (2 + 2); Q 2 its one, then the attempt-2 discount
        assert result.mean_predictions.tolist() == pytest.approx([0.5, 2 / 3, 2 / 3 * 0.9])

    def test_pipeline_equals_direct_heuristic(self, rng):
        res = simulate_bkt(SimSpec(15, 4, 3, seed=2, stop_on_correct=True))
        train, test = split_dataset(res.dataset, rng)
        result = llm_predict_pipeline(train, test, MockHeuristicClient(), repeats=1)
        per_question = {}
        for _, qid, _, obs in rows_of(train):
            if obs is not None:
                per_question.setdefault(qid, []).append(obs)
        direct = np.array(
            [
                heuristic_prediction(
                    len(per_question.get(q, [])), sum(per_question.get(q, [])), attempt
                )
                for (_, q, attempt) in result.test_keys
            ]
        )
        assert np.abs(result.run_predictions[0] - direct).max() < 1e-9

    def test_missing_rows_imputed_and_counted(self, rng):
        res = simulate_bkt(SimSpec(12, 4, 3, seed=3, stop_on_correct=True))
        train, test = split_dataset(res.dataset, rng, holdout=0.3)

        class DroppingClient:
            """Forwards to the mock, then drops the last two records."""

            def send(self, messages):
                text = MockHeuristicClient().send(messages)
                lines = text.splitlines()
                return "\n".join(lines[:-2])

        n_test = test.n_records
        result = llm_predict_pipeline(train, test, DroppingClient(), repeats=1)
        assert result.imputed_per_run == [2]
        assert result.coverage == pytest.approx(1.0 - 2.0 / n_test)
        dropped = result.run_predictions[0][-2:]
        assert np.allclose(dropped, 0.5)

    def test_labels_hidden_from_client(self, rng):
        res = simulate_bkt(SimSpec(10, 3, 3, seed=4))
        train, test = split_dataset(res.dataset, rng)

        class SpyClient:
            def __init__(self):
                self.saw = ""

            def send(self, messages):
                self.saw = "\n".join(m["content"] for m in messages)
                return MockHeuristicClient().send(messages)

        spy = SpyClient()
        llm_predict_pipeline(train, test, spy, repeats=1)
        for lid, qid, _ in test.keys():
            for line in spy.saw.splitlines():
                if f"learner {lid} " in line and f"question {qid} " in line:
                    # any sentence about a test row must carry no outcome
                    if "awaiting prediction" in spy.saw.split(line)[0].splitlines()[-1]:
                        assert "observed as" not in line

    def test_predictor_adapter_in_cv(self, rng):
        res = simulate_bkt(SimSpec(12, 3, 3, seed=5, stop_on_correct=True))
        report = cross_validate(
            lambda s: LlmPredictor(MockHeuristicClient()),
            res.dataset,
            k=3,
            seed=0,
            model_name="llm",
        )
        assert len(report.fold_rmse) == 3

    def test_predictor_adapter_warns_of_imputed_rows(self):
        ds = simulate_bkt(SimSpec(12, 3, 3, seed=5, stop_on_correct=True)).dataset

        class HalvingClient:
            """Forwards to the mock, then keeps only the first half of its records."""

            def send(self, messages):
                first, *records = MockHeuristicClient().send(messages).splitlines()
                kept = len(records) // 2
                self.dropped = len(records) - kept
                return "\n".join([first, *records[:kept]])

        client = HalvingClient()
        with pytest.warns(UserWarning, match="left out") as caught:
            report = cross_validate(lambda s: LlmPredictor(client), ds, k=3, seed=0, model_name="llm")
        assert len(report.fold_rmse) == 3
        assert f"left out {client.dropped} of " in str(caught[-1].message)

    def test_rejected_records_are_counted_per_run(self, rng):
        res = simulate_bkt(SimSpec(12, 3, 3, seed=3, stop_on_correct=True))
        train, test = split_dataset(res.dataset, rng)
        result = llm_predict_pipeline(train, test, RejectingClient(), repeats=2)
        assert result.rejected_per_run == [2, 2]
        assert result.first_rejection == "prediction out of range"
        assert result.coverage == 1.0
        clean = llm_predict_pipeline(train, test, MockHeuristicClient())
        assert (clean.rejected_per_run, clean.first_rejection) == ([0], "")

    def test_predictor_adapter_warns_of_rejected_records(self):
        ds = simulate_bkt(SimSpec(12, 3, 3, seed=5, stop_on_correct=True)).dataset
        with pytest.warns(UserWarning, match=r"held 2 rejected records \(first: prediction out of range\)"):
            cross_validate(lambda s: LlmPredictor(RejectingClient()), ds, k=3, seed=0, model_name="llm")

    def test_predictor_adapter_with_the_mock_does_not_warn(self):
        ds = simulate_bkt(SimSpec(12, 3, 3, seed=5, stop_on_correct=True)).dataset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cross_validate(lambda s: LlmPredictor(MockHeuristicClient()), ds, k=3, seed=0, model_name="llm")

    def test_duplicate_decoded_keys_use_first(self, rng):
        res = simulate_bkt(SimSpec(8, 2, 2, seed=8))
        train, test = split_dataset(res.dataset, rng)

        class DuplicatingClient:
            """Appends a conflicting record for the first test row."""

            def send(self, messages):
                text = MockHeuristicClient().send(messages)
                ((lid, qid, attempt),) = test.keys([0])
                return text + (
                    f"\n{{'learner ID': '{lid}', 'Question ID': '{qid}', "
                    f"'Attempt': {attempt}, 'Prediction': 0.987654}}"
                )

        result = llm_predict_pipeline(train, test, DuplicatingClient(), repeats=1)
        direct = llm_predict_pipeline(train, test, MockHeuristicClient(), repeats=1)
        # the injected duplicate never overrides the first-aligned value
        assert np.allclose(result.run_predictions[0], direct.run_predictions[0])

    def test_script_text_attached(self, rng):
        res = simulate_bkt(SimSpec(8, 2, 2, seed=9))
        train, test = split_dataset(res.dataset, rng)
        result = llm_predict_pipeline(train, test, MockHeuristicClient(), repeats=1)
        assert "[b]" in result.script_text

    def test_concurrent_repeats_match_sequential(self, rng):
        res = simulate_bkt(SimSpec(10, 3, 3, seed=10, stop_on_correct=True))
        train, test = split_dataset(res.dataset, rng)
        seq = llm_predict_pipeline(train, test, MockHeuristicClient(), repeats=4)
        par = llm_predict_pipeline(
            train, test, MockHeuristicClient(), repeats=4, concurrency=4
        )
        for a, b in zip(seq.run_predictions, par.run_predictions):
            assert np.array_equal(a, b)

    def test_repeats_validated(self, rng):
        res = simulate_bkt(SimSpec(6, 2, 2, seed=6))
        train, test = split_dataset(res.dataset, rng)
        with pytest.raises(ValueError):
            llm_predict_pipeline(train, test, MockHeuristicClient(), repeats=0)


def set_predictions(reply, value):
    """``reply`` with the prediction of every record set to ``value``."""
    return re.sub(r"'Prediction': [^,]+", f"'Prediction': {value}", reply)


class ChoicesClient:
    """Answers as the mock does; ``send_choices`` gives the first ``served`` of its choices.

    Every prediction of choice i reads (i + 1) / 10, and of a ``send`` reply 0.9.
    """

    def __init__(self, served):
        self.served, self.choice_calls, self.send_calls = served, [], 0

    def send_choices(self, messages, n):
        self.choice_calls.append(n)
        reply = MockHeuristicClient().send(messages)
        return [set_predictions(reply, (i + 1) / 10) for i in range(min(n, self.served))]

    def send(self, messages):
        self.send_calls += 1
        return set_predictions(MockHeuristicClient().send(messages), 0.9)


class TestChoices:
    """All repeats in one request when the client can ask for several choices."""

    @pytest.fixture
    def split(self, rng):
        return split_dataset(simulate_bkt(SimSpec(10, 3, 3, seed=10, stop_on_correct=True)).dataset, rng)

    @pytest.mark.parametrize("concurrency", [1, 2])
    @pytest.mark.parametrize("served", [1, 2, 4])
    def test_each_choice_is_a_run_in_choice_order_and_the_rest_one_request_each(
        self, split, served, concurrency
    ):
        train, test = split
        client = ChoicesClient(served)
        result = llm_predict_pipeline(train, test, client, repeats=4, concurrency=concurrency)
        assert client.choice_calls == [4] and client.send_calls == 4 - served
        expected = [(i + 1) / 10 for i in range(served)] + [0.9] * (4 - served)
        assert [set(preds.tolist()) for preds in result.run_predictions] == [{v} for v in expected]
        assert result.imputed_per_run == [0] * 4 and result.rejected_per_run == [0] * 4

    def test_the_mock_reads_the_prompt_once_for_every_run(self, split):
        train, test = split
        sends = []

        class CountingMock(MockHeuristicClient):
            def send(self, messages):
                sends.append(messages)
                return super().send(messages)

        result = llm_predict_pipeline(train, test, CountingMock(), repeats=5)
        once = llm_predict_pipeline(train, test, MockHeuristicClient(), repeats=1)
        assert len(sends) == 1 and result.repeats == 5
        assert all(np.array_equal(preds, once.run_predictions[0]) for preds in result.run_predictions)


class TestDecodeOnce:
    """Each distinct reply text decodes once; every run still gets its own predictions array."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        texts = []
        decode = llm.decode_response

        def counting(text):
            texts.append(text)
            return decode(text)

        monkeypatch.setattr(llm, "decode_response", counting)
        return texts

    @pytest.fixture
    def split(self, rng):
        return split_dataset(simulate_bkt(SimSpec(10, 3, 3, seed=10, stop_on_correct=True)).dataset, rng)

    def test_equal_choices_decode_once_into_separate_arrays(self, split, decodes):
        train, test = split

        class CopiesClient:
            def send_choices(self, messages, n):
                reply = MockHeuristicClient().send(messages)
                self.choices = [(reply + " ")[:-1] for _ in range(n)]  # equal texts, distinct objects
                return self.choices

        client = CopiesClient()
        result = llm_predict_pipeline(train, test, client, repeats=5)
        assert len({id(choice) for choice in client.choices}) == 5
        assert len(decodes) == 1 and result.repeats == 5
        first, *others = result.run_predictions
        assert all(np.array_equal(first, preds) for preds in others)
        before = [preds.copy() for preds in others]
        first[:] = -1.0
        assert all(np.array_equal(preds, kept) for preds, kept in zip(others, before))
        assert len({id(preds) for preds in result.run_predictions}) == 5

    def test_alternating_choices_decode_twice_in_choice_order(self, split, decodes):
        train, test = split

        class AlternatingClient:
            def send_choices(self, messages, n):
                reply = MockHeuristicClient().send(messages)
                a, b = set_predictions(reply, 0.1), set_predictions(reply, 0.2)
                return [a, b, a, b][:n]

        result = llm_predict_pipeline(train, test, AlternatingClient(), repeats=4)
        assert len(decodes) == 2
        assert [set(preds.tolist()) for preds in result.run_predictions] == [{0.1}, {0.2}, {0.1}, {0.2}]
        assert result.imputed_per_run == [0] * 4 and result.rejected_per_run == [0] * 4

    def test_equal_replies_fetched_concurrently_decode_once(self, rng, decodes):
        """A server that ignores ``n``: four runs, each its own request, all in flight at once.

        The replies are long enough that decoding one outlasts the interpreter's
        thread switch, so equal replies decoded in the threads that fetched them
        would each decode.
        """
        dataset = simulate_bkt(SimSpec(400, 6, 3, seed=10, stop_on_correct=True)).dataset
        train, test = split_dataset(dataset, rng, holdout=0.5)

        class SlowSendClient:
            reply = None
            lock = threading.Lock()

            def send(self, messages):
                with self.lock:
                    if self.reply is None:
                        self.reply = MockHeuristicClient().send(messages)
                time.sleep(0.05)
                return (self.reply + " ")[:-1]  # equal texts, distinct objects

        result = llm_predict_pipeline(train, test, SlowSendClient(), repeats=4, concurrency=4)
        assert len(decodes) == 1 and result.repeats == 4
        first, *others = result.run_predictions
        assert all(np.array_equal(first, preds) for preds in others)
        assert len({id(preds) for preds in result.run_predictions}) == 4

    def test_imputed_and_rejected_counts_survive_the_cache(self, split, decodes):
        train, test = split

        class PartialClient:
            def send_choices(self, messages, n):
                reply = RejectingClient().send(messages).split("\n")
                return ["\n".join(reply[:1] + reply[2:])] * n  # the first record left out

        result = llm_predict_pipeline(train, test, PartialClient(), repeats=3)
        assert len(decodes) == 1
        assert result.imputed_per_run == [1] * 3 and result.rejected_per_run == [2] * 3
        assert result.first_rejection == "prediction out of range"
        assert all(np.count_nonzero(preds == 0.5) >= 1 for preds in result.run_predictions)

    def test_llm_run_files_equal_those_of_one_request_per_run(self, llm_run_files, tmp_path, monkeypatch):
        argv, _ = llm_run_files
        written = []
        for name in ("choices", "per-run"):
            if name == "per-run":
                monkeypatch.delattr(MockHeuristicClient, "send_choices")
            out = tmp_path / name
            assert main([*argv, "--mock", "--repeats", "5", "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert written[0] == written[1]


class TestPfaRefitRoundTrip:
    """A client that refits PFA from the request text scores exactly as PFA on the same folds.

    So every training row reaches the prompt, and every prediction is read back under its own key.
    """

    # ids holding quotes, commas, colons and inner spaces; an id holding both
    # quotes cannot be written so that a record reads it back
    IDS = st.text(alphabet="ab'\",: ", min_size=1, max_size=5).filter(
        lambda s: s == s.strip() and not ("'" in s and '"' in s)
    )

    @settings(max_examples=25, deadline=None)
    @given(
        learners=st.lists(IDS, min_size=3, max_size=5, unique=True),
        questions=st.lists(IDS, min_size=2, max_size=3, unique=True),
        seed=st.integers(0, 2**16),
        with_meta=st.booleans(),
    )
    def test_cv_through_the_prompt_equals_pfa_fold_for_fold(self, learners, questions, seed, with_meta):
        rng = np.random.default_rng(seed)
        rows = [(lid, qid, attempt, int(rng.integers(2)))
                for lid in learners for qid in questions for attempt in range(1, int(rng.integers(1, 4)) + 1)]
        meta = LessonMeta("lesson", {qid: QuestionInfo(text=f"Title {i}") for i, qid in enumerate(questions)})
        ds = Dataset.from_records(rows, meta if with_meta else None)
        client = PfaRefitClient()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a PFA fit that stops early warns alike on both sides
            through_prompt = cross_validate(lambda s: LlmPredictor(client), ds, k=3, seed=0, model_name="llm")
            direct = cross_validate(lambda s: PfaModel(), ds, k=3, seed=0, model_name="pfa")
        assert client.calls == 3
        assert through_prompt.fold_rmse == direct.fold_rmse

    def test_repeated_chunked_runs_each_send_a_request_and_equal_pfa(self, rng):
        res = simulate_bkt(SimSpec(12, 3, 3, seed=5, stop_on_correct=True))
        train, test = split_dataset(Dataset.from_records(rows_of(res.dataset), meta=lesson_meta()), rng)
        client = PfaRefitClient()
        result = llm_predict_pipeline(train, test, client, repeats=3, rows_per_chunk=4)
        expected = PfaModel().fit(train).predict(test.keys())
        assert client.calls == 3
        assert all(np.array_equal(preds, expected) for preds in result.run_predictions)


class RejectingClient:
    """Answers as the mock does, plus two records that do not decode."""

    def send(self, messages):
        return MockHeuristicClient().send(messages) + (
            "\n{'learner ID': 'L1', 'Question ID': 'Q1', 'Attempt': 1, 'Prediction': 1.5, 'Assessment': ''}"
            "\n{'learner ID': 'L1', 'Attempt': 1, 'Prediction': 0.5}"
        )


class RecordingClient:
    """Answers as the mock does, and keeps every message list it is sent."""

    def __init__(self):
        self.requests = []

    def send(self, messages):
        self.requests.append(messages)
        return MockHeuristicClient().send(messages)


def request_digest(messages):
    return hashlib.sha256(json.dumps(messages).encode("utf-8")).hexdigest()


# sha256 of the JSON of each request; a change to the request builder keeps these bytes
PIPELINE_REQUEST_SHA256 = "ff38abe157ec82d8bdd7c11f563bb0b06c91b7bc734372a322d018c4fc4f0233"
CV_FOLD_REQUEST_SHA256 = "4b2cb44418cb10b597293d2bd08d1b0a6ae02975a60952a1909eb29f7ab8e373"
SELECT_METHOD_REQUEST_SHA256 = "c0ad1015b6be91de30ab625e68b3fb2e810ad837edd6db99d1a16233445b79fb"


class TestRequestBytes:
    """The exact messages a client receives, pinned by sha256 of their JSON."""

    @pytest.fixture
    def lesson(self):
        res = simulate_bkt(SimSpec(12, 3, 3, seed=5, stop_on_correct=True))
        return Dataset.from_records(rows_of(res.dataset), meta=lesson_meta())

    def test_pipeline_request_with_metadata_and_chunks(self, lesson):
        train, test = split_dataset(lesson, np.random.default_rng(0), holdout=0.3)
        client = RecordingClient()
        llm_predict_pipeline(train, test, client, repeats=2, rows_per_chunk=7)
        assert len(client.requests) == 2 and client.requests[0] == client.requests[1]
        assert request_digest(client.requests[0]) == PIPELINE_REQUEST_SHA256

    def test_cv_fold_request(self, lesson):
        client = RecordingClient()
        cross_validate(lambda s: LlmPredictor(client), lesson, k=3, seed=0, model_name="llm")
        assert len(client.requests) == 3
        assert request_digest(client.requests[0]) == CV_FOLD_REQUEST_SHA256

    def test_method_selection_request(self, lesson):
        client = RecordingClient()
        assert select_method(client, lesson) == "gbt"
        (messages,) = client.requests
        assert request_digest(messages) == SELECT_METHOD_REQUEST_SHA256


GOOD_REPLY = {
    "choices": [
        {"message": {"content": "{'learner ID': L1, 'Question ID': Q1, "
                                "'Attempt': 1, 'Prediction': 0.6}"}}
    ]
}
# (JSON body, bytes it falls short of its Content-Length): no text at
# choices[0].message.content, or a body cut short
MALFORMED_REPLIES = [
    ({"choices": []}, 0),
    ({"choices": [{"message": {"content": None}}]}, 0),
    (["choices"], 0),
    (GOOD_REPLY, 10),
]


class _ChatHandler(BaseHTTPRequestHandler):
    fail_times = 0
    fail_status = 500
    requests_seen = []
    reply = GOOD_REPLY
    short_by = 0

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(
            {"auth": self.headers.get("Authorization"), "body": body}
        )
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(type(self).fail_status)
            self.end_headers()
            return
        payload = json.dumps(type(self).reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload) + type(self).short_by))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ChatHandler.fail_times, _ChatHandler.fail_status = 0, 500
    _ChatHandler.requests_seen = []
    _ChatHandler.reply, _ChatHandler.short_by = GOOD_REPLY, 0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


class TestHttpClient:
    def test_wire_format_and_token(self, chat_server, monkeypatch):
        monkeypatch.setenv("LPPRED_API_TOKEN", "sekrit")
        client = HttpChatClient(endpoint=chat_server, model="gpt-4", temperature=0.0)
        text = client.send([{"role": "user", "content": "hello"}])
        assert "'Prediction': 0.6" in text
        seen = _ChatHandler.requests_seen[-1]
        assert seen["auth"] == "Bearer sekrit"
        assert seen["body"]["model"] == "gpt-4"
        assert seen["body"]["temperature"] == 0.0
        assert seen["body"]["messages"] == [{"role": "user", "content": "hello"}]

    def test_retries_then_succeeds(self, chat_server):
        _ChatHandler.fail_times = 2
        client = HttpChatClient(endpoint=chat_server, max_retries=2, backoff=0.01)
        text = client.send([{"role": "user", "content": "x"}])
        assert "Prediction" in text
        assert len(_ChatHandler.requests_seen) == 3

    def test_exhausted_retries_raise(self, chat_server):
        _ChatHandler.fail_times = 10
        client = HttpChatClient(endpoint=chat_server, max_retries=1, backoff=0.01)
        with pytest.raises(ClientError, match="after 2 attempts"):
            client.send([{"role": "user", "content": "x"}])

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_a_client_error_status_fails_at_once(self, chat_server, status):
        _ChatHandler.fail_times, _ChatHandler.fail_status = 10, status
        client = HttpChatClient(endpoint=chat_server, max_retries=2, backoff=1.0)
        start = time.perf_counter()
        with pytest.raises(ClientError, match=f"after 1 attempts: HTTP Error {status}.*not retried"):
            client.send([{"role": "user", "content": "x"}])
        assert time.perf_counter() - start < client.backoff
        assert len(_ChatHandler.requests_seen) == 1

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_a_timeout_throttle_or_server_status_is_retried(self, chat_server, status):
        _ChatHandler.fail_times, _ChatHandler.fail_status = 10, status
        client = HttpChatClient(endpoint=chat_server, max_retries=2, backoff=0.01)
        with pytest.raises(ClientError, match=f"after 3 attempts: HTTP Error {status}"):
            client.send([{"role": "user", "content": "x"}])
        assert len(_ChatHandler.requests_seen) == client.max_retries + 1

    @pytest.mark.parametrize("reply,short_by", MALFORMED_REPLIES)
    def test_malformed_reply_retried_then_client_error(self, chat_server, reply, short_by):
        _ChatHandler.reply, _ChatHandler.short_by = reply, short_by
        client = HttpChatClient(endpoint=chat_server, max_retries=1, backoff=0.01)
        with pytest.raises(ClientError, match="after 2 attempts"):
            client.send([{"role": "user", "content": "x"}])
        assert len(_ChatHandler.requests_seen) == 2

    def test_malformed_reply_in_llm_run_exits_client_error(self, chat_server, rng, tmp_path):
        _ChatHandler.reply = {"choices": []}
        train, test = split_dataset(simulate_bkt(SimSpec(6, 2, 2, seed=7)).dataset, rng)
        write_dataset(train, tmp_path / "train.csv")
        write_dataset(test, tmp_path / "test.csv")
        argv = ["llm-run", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
                "--endpoint", chat_server, "--retries", "0", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CLIENT

    def test_run_index_attached_on_pipeline_failure(self, rng):
        res = simulate_bkt(SimSpec(6, 2, 2, seed=7))
        train, test = split_dataset(res.dataset, rng)
        client = HttpChatClient(endpoint="http://127.0.0.1:1", max_retries=0, backoff=0.0)
        with pytest.raises(ClientError, match="run 0"):
            llm_predict_pipeline(train, test, client, repeats=2)


class _ChoicesHandler(BaseHTTPRequestHandler):
    """Answers as the mock does, with ``n`` choices; every prediction of choice i reads (i + 1) / 10.

    With ``refuse_n`` set, a request that asks for ``n`` gets HTTP 400.
    """

    refuse_n = False
    requests_seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(body)
        if type(self).refuse_n and "n" in body:
            self.send_response(400)
            self.end_headers()
            return
        reply = MockHeuristicClient().send(body["messages"])
        choices = [{"index": i, "message": {"role": "assistant", "content": set_predictions(reply, (i + 1) / 10)}}
                   for i in range(body.get("n", 1))]
        payload = json.dumps({"choices": choices}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def choices_server():
    server = HTTPServer(("127.0.0.1", 0), _ChoicesHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ChoicesHandler.refuse_n, _ChoicesHandler.requests_seen = False, []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


@pytest.fixture
def llm_run_files(tmp_path):
    """``llm-run`` argv, less its client flags, on a labeled train/test split; and the test labels."""
    train, test = split_dataset(simulate_bkt(SimSpec(10, 3, 3, seed=11)).dataset, np.random.default_rng(3))
    write_dataset(train, tmp_path / "train.csv")
    write_dataset(test, tmp_path / "test.csv")
    return ["llm-run", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv")], test.obs_array()


class TestHttpChoices:
    MESSAGES = [{"role": "user", "content": "x"}]

    @pytest.mark.parametrize("endpoint", ["notaurl", "localhost:8000", "ftp://h/v1", "http://", "http:///v1",
                                          "http://[::1"])
    def test_endpoint_that_is_not_an_http_url_with_a_host_is_rejected(self, endpoint):
        with pytest.raises(ValueError):
            HttpChatClient(endpoint=endpoint)

    def test_one_run_body_has_exactly_model_messages_and_temperature(self, chat_server, rng):
        train, test = split_dataset(simulate_bkt(SimSpec(6, 2, 2, seed=7)).dataset, rng)
        llm_predict_pipeline(train, test, HttpChatClient(endpoint=chat_server), repeats=1)
        (seen,) = _ChatHandler.requests_seen
        assert list(seen["body"]) == ["model", "messages", "temperature"]

    def test_a_server_that_honours_n_gives_every_choice_in_one_request(self, choices_server):
        client = HttpChatClient(endpoint=choices_server, max_retries=0)
        assert client.send_choices(self.MESSAGES, 3) == ["Based on per-question difficulty and attempt counts, "
                                                         "I recommend XGBoost for this data."] * 3
        (body,) = _ChoicesHandler.requests_seen
        assert body["n"] == 3

    def test_a_server_that_ignores_n_gives_one_choice(self, chat_server):
        client = HttpChatClient(endpoint=chat_server, max_retries=0)
        assert client.send_choices(self.MESSAGES, 3) == [GOOD_REPLY["choices"][0]["message"]["content"]]
        assert _ChatHandler.requests_seen[0]["body"]["n"] == 3

    @pytest.mark.parametrize("later", [{"message": {"content": None}}, {}, "text"])
    def test_the_choices_end_before_a_later_choice_without_text(self, chat_server, later):
        _ChatHandler.reply = {"choices": [{"message": {"content": "a"}}, later, {"message": {"content": "c"}}]}
        client = HttpChatClient(endpoint=chat_server, max_retries=0)
        assert client.send_choices(self.MESSAGES, 3) == ["a"]

    def test_a_first_choice_without_text_is_retried(self, chat_server):
        _ChatHandler.reply = {"choices": [{"message": {"content": None}}, {"message": {"content": "b"}}]}
        client = HttpChatClient(endpoint=chat_server, max_retries=1, backoff=0.01)
        with pytest.raises(ClientError, match="after 2 attempts"):
            client.send_choices(self.MESSAGES, 2)
        assert len(_ChatHandler.requests_seen) == 2

    @pytest.mark.parametrize("server", ["honours-n", "ignores-n"])
    def test_llm_run_files_do_not_depend_on_workers_or_on_whether_the_server_reads_n(
        self, request, llm_run_files, tmp_path, server
    ):
        endpoint = request.getfixturevalue("choices_server" if server == "honours-n" else "chat_server")
        seen = _ChoicesHandler.requests_seen if server == "honours-n" else _ChatHandler.requests_seen
        argv, labels = llm_run_files
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            seen.clear()
            assert main([*argv, "--endpoint", endpoint, "--repeats", "3", "--workers", workers,
                         "--out", str(out)]) == 0
            bodies = [entry.get("body", entry) for entry in seen]
            # one request for every run, or the first and then one for each run it left out
            assert [body.get("n") for body in bodies] == ([3] if server == "honours-n" else [3, None, None])
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert written[0] == written[1]
        if server == "honours-n":  # run i is choice i
            run_rmse = json.loads(written[0]["report.json"])["run_rmse"]
            assert run_rmse == [rmse(np.full(len(labels), (i + 1) / 10), labels) for i in range(3)]

    def test_a_server_that_refuses_n_makes_repeats_a_client_error(self, choices_server, llm_run_files, tmp_path,
                                                                  capsys):
        _ChoicesHandler.refuse_n = True
        argv, _ = llm_run_files
        client = ["--endpoint", choices_server, "--retries", "0"]
        assert main([*argv, *client, "--repeats", "2", "--out", str(tmp_path / "o2")]) == EXIT_CLIENT
        assert capsys.readouterr().err.startswith("client error: run 0: chat endpoint failed after 1 attempts")
        assert main([*argv, *client, "--repeats", "1", "--out", str(tmp_path / "o1")]) == 0
