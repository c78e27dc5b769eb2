import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppred.cli import EXIT_CLIENT, main
from lppred.data import Dataset, LessonMeta, QuestionInfo, write_dataset
from lppred.llm import (
    _KEY_ALIASES,
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
from lppred.metrics import cross_validate
from lppred.simulate import SimSpec, simulate_bkt

from conftest import make_records, rows_of


def encode(rows, questions):
    """``encode_records`` of (learner, question, attempt, obs-or-None) rows."""
    return encode_records([r[:3] for r in rows], [-1 if r[3] is None else r[3] for r in rows], questions)


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
        batch = encode([("L1", "Q1", 1, 1)], lesson_meta().questions)
        sentence = batch.train[0]
        assert "1st attempt" in sentence
        assert "observed as 1" in sentence
        assert "Minor Burns Q1" in sentence

    def test_test_sentence_has_no_outcome_clause(self):
        batch = encode([("L2", "Q3", 2, None)], {})
        assert batch.train == ()
        assert "observed as" not in batch.test[0]
        assert "2nd attempt" in batch.test[0]
        assert batch.test_keys == (("L2", "Q3", 2),)

    def test_placeholder_title_without_metadata(self):
        batch = encode([("L1", "Q7", 1, 0)], {})
        assert "'question Q7'" in batch.train[0]

    def test_sentence_count_and_order(self):
        records = make_records([("L1", "Q1", 1, 0), ("L2", "Q1", 1, None), ("L1", "Q1", 2, 1),
                                ("L2", "Q2", 1, None), ("L3", "Q2", 1, 1)])
        batch = encode_records(iter([r[:3] for r in records]), iter([0, -1, 1, -1, 1]), {})
        labeled = [r for r in records if r[3] is not None]
        targets = [r for r in records if r[3] is None]
        # each role keeps record order, and a sentence does not depend on its neighbours
        assert batch.train == tuple(encode([r], {}).train[0] for r in labeled)
        assert batch.test == tuple(encode([r], {}).test[0] for r in targets)
        assert batch.test_keys == tuple(r[:3] for r in targets)


class TestScript:
    def batch(self):
        return encode([("L1", "Q1", 1, 1), ("L1", "Q2", 1, None)], lesson_meta().questions)

    def test_full_stage_sequence_with_metadata(self):
        script = build_cot_script(self.batch(), lesson_meta())
        tags = [s.stage for s in script.steps]
        assert set(tags) == set("abcdefghij")
        # stage letters never decrease
        assert list(tags) == sorted(tags)

    def test_stages_a_and_h_dropped_without_metadata(self):
        script = build_cot_script(self.batch(), None)
        tags = [s.stage for s in script.steps]
        assert "a" not in tags and "h" not in tags
        assert set(tags) == set("bcdefgij")

    def test_stage_subset_preserves_order(self):
        script = build_cot_script(self.batch(), lesson_meta(), stages="dbfa")
        tags = [s.stage for s in script.steps]
        assert set(tags) == set("abdf")
        assert list(tags) == sorted(tags)  # b may repeat (train + test blocks)

    def test_chunked_transcription(self):
        rows = [("L1", "Q1", a, 1) for a in range(1, 8)] + [("L2", "Q1", 1, None)]
        batch = encode(rows, {})
        script = build_cot_script(batch, None, stages="b", rows_per_chunk=3)
        b_steps = [s for s in script.steps if s.stage == "b"]
        assert len(b_steps) == 4  # ceil(7/3) train chunks + one test block

    @pytest.mark.parametrize("rows_per_chunk", [0, 3])
    def test_history_header_without_labeled_rows(self, rows_per_chunk):
        batch = encode([("L1", "Q1", 1, None)], {})
        script = build_cot_script(batch, None, stages="b", rows_per_chunk=rows_per_chunk)
        first = script.steps[0]
        assert first.stage == "b"
        assert first.content == "Historical learning performance records:\n(none)"
        assert len(script.steps) == 2  # the header, then the rows awaiting prediction

    def test_empty_batch_rejected(self):
        from lppred.llm import EncodedBatch

        with pytest.raises(ValueError):
            build_cot_script(EncodedBatch((), (), ()), None)

    def test_to_text_audit_dump(self):
        script = build_cot_script(self.batch(), lesson_meta())
        text = script.to_text()
        assert text.startswith("[a]")
        assert "[b]" in text


class TestDecode:
    def test_single_record(self):
        result = decode_response(
            "preamble {'learner ID': L1, 'Question ID': Q2, 'Attempt': 1, "
            "'Prediction': 0.73, 'Assessment': 'likely correct'} trailer"
        )
        assert len(result.predictions) == 1
        rec = result.predictions[0]
        assert rec.key() == ("L1", "Q2", 1)
        assert rec.prediction == pytest.approx(0.73)
        assert rec.assessment == "likely correct"

    def test_key_order_insensitive(self):
        a = decode_response("{'learner ID': L1, 'Question ID': Q2, 'Attempt': 1, 'Prediction': 0.73}")
        b = decode_response("{'Prediction': 0.73, 'Attempt': 1, 'Question ID': Q2, 'learner ID': L1}")
        assert a.predictions == b.predictions

    def test_double_quotes_and_spacing(self):
        result = decode_response('{"Learner ID" : "L9" , "question id": "Q1", "Attempt": 3, "Prediction": 0.5}')
        assert result.predictions[0].key() == ("L9", "Q1", 3)

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
        assert result.predictions[0].assessment == "weak, hesitant, slow"


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


class TestDecodeProperties:
    @settings(max_examples=400, deadline=None)
    @given(FUZZ_TEXT)
    def test_braced_records_match_the_character_loop(self, text):
        got = [(m.span(), fields) for m, fields in braced_records(text, _KEY_ALIASES)]
        assert got == list(braced_records_reference(text, _KEY_ALIASES))


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
        records = make_records([("L1", "Q1", 1, 1), ("L2", "Q1", 1, 0)])
        script = build_cot_script(encode(records, {}), None)
        with pytest.raises(ValueError, match="no prediction rows"):
            MockHeuristicClient().send(script.messages())

    def test_method_selection(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1), ("L2", "Q1", 1, 0)]))
        assert select_method(MockHeuristicClient(), ds) == "gbt"


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
            self.send_response(500)
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
    _ChatHandler.fail_times = 0
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
