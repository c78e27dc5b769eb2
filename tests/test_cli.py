import csv
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppred import cli
from lppred.bkt import BktModel
from lppred.cli import (
    EXIT_CLIENT,
    EXIT_DATA,
    EXIT_MODEL,
    EXIT_OK,
    EXIT_USAGE,
    LOCAL_MODELS,
    _model_flags,
    build_parser,
    main,
)
from lppred.data import Dataset, make_folds, parse_dataset, write_dataset
from lppred.gbt import GbtConfig, GbtModel
from lppred.llm import _RECORD_SENTENCE, HttpChatClient, MockHeuristicClient
from lppred.pfa import PfaModel
from lppred.seeds import derive_seed
from lppred.sparfa import SparfaModel
from lppred.tensor import TensorFactorizationModel

# One candidate per axis, so a grid read leniently stays a single cheap configuration.
SMALL_GRID = {"n_trees": [5], "learning_rate": [0.1], "max_depth": [2], "subsample": [1.0],
              "colsample_bytree": [1.0], "gamma": [0.0], "min_child_weight": [1.0]}


# Any JSON value, nested a few levels deep.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture
def sim_data(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate", "--generator", "bkt-process", "--shape", "14x4x4",
            "--seed", "11", "--out", str(out), "--stop-on-correct",
        ]
    )
    assert code == EXIT_OK
    return out / "data.csv"


@pytest.fixture
def train_test_files(sim_data, tmp_path):
    """Split the simulated file into disjoint train/test CSVs (4:1)."""
    lines = sim_data.read_text().strip().splitlines()
    header, rows = lines[0], lines[1:]
    test_rows = rows[::5]
    train_rows = [r for i, r in enumerate(rows) if i % 5]
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text(header + "\n" + "\n".join(train_rows) + "\n", encoding="utf-8")
    test.write_text(header + "\n" + "\n".join(test_rows) + "\n", encoding="utf-8")
    return train, test


class TestExitCodes:
    def test_unknown_model_is_usage_error(self, sim_data, tmp_path):
        code = main(["cv", "--model", "nope", "--data", str(sim_data), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        assert main(["cv", "--model", "bkt"]) == EXIT_USAGE

    def test_malformed_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("learner_id,question_id,attempt,obs\nL1,Q1,1,7\n", encoding="utf-8")
        code = main(["ingest", "--data", str(bad)])
        assert code == EXIT_DATA

    def test_whitespace_padded_id_is_data_error(self, sim_data, tmp_path, capsys):
        data = tmp_path / "padded.csv"
        data.write_text(sim_data.read_text(encoding="utf-8") + "LX\u3000,Q1,1,1\n", encoding="utf-8")
        code = main(["cv", "--model", "pfa", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(data) in err and "surrounding whitespace" in err

    def test_model_error_exit(self, sim_data, tmp_path):
        # tensor rank larger than the learner count cannot be fit
        code = main(
            [
                "cv", "--model", "tensor", "--rank", "999", "--data", str(sim_data),
                "--k", "3", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_MODEL

    def test_llm_without_endpoint_or_mock_is_usage_error(self, sim_data, tmp_path):
        code = main(
            ["cv", "--model", "llm", "--data", str(sim_data), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("payload, named", [
        ('{"questions": {"Q1": "text"}}', "question 'Q1' must be a JSON object"),
        ('{"questions": ["Q1"]}', "questions must be a JSON object"),
        ('{"questions": {"Q1": {"options": 5}}}', "options of question 'Q1' must be a JSON array"),
        ('{"questions": {"Q1": {"text": "Cool\\nthe burn"}}}', "text of question 'Q1' holds a line break"),
        ('{"questions": {"Q1": {"text": "Cool\\rthe burn"}}}', "text of question 'Q1' holds a line break"),
    ], ids=["question-not-object", "questions-not-object", "options-not-array", "text-with-lf",
            "text-with-cr"])
    def test_malformed_lesson_metadata_is_data_error(self, sim_data, tmp_path, capsys, payload, named):
        meta = tmp_path / "meta.json"
        meta.write_text(payload, encoding="utf-8")
        code = main(["ingest", "--data", str(sim_data), "--meta", str(meta)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: metadata file {meta}: {named}\n"

    def test_llm_run_meta_with_a_line_break_is_data_error(self, train_test_files, tmp_path, capsys):
        """A line break in a title would split its records, hiding them from ``--mock``."""
        train, test = train_test_files
        question = test.read_text(encoding="utf-8").splitlines()[1].split(",")[1]
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps({"questions": {question: {"text": "Cool\nthe burn"}}}),
                        encoding="utf-8")
        code = main(["llm-run", "--mock", "--train", str(train), "--test", str(test),
                     "--meta", str(meta), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert f"question {question!r} holds a line break" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--model", "gbt", "--learning-rate", "nan"],
        ["--model", "gbt", "--gbt-gamma", "nan"],
        ["--model", "tensor", "--ridge", "nan"],
        ["--model", "tensor", "--rank", "0"],
        ["--model", "tensor", "--ridge", "-1"],
        ["--model", "pfa", "--l2", "-1"],
        ["--model", "pfa", "--l2", "nan"],
        ["--model", "sparfa", "--ranks=-2"],
    ], ids=lambda flags: " ".join(flags[1:]))
    def test_model_flag_out_of_range_exits_before_fold_0(self, sim_data, tmp_path, capsys, flags):
        out = tmp_path / "o"
        code = main(["cv", *flags, "--data", str(sim_data), "--k", "3", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "fold" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, named", [
        ("cv", ["--model", "pfa", "--rank", "3"], "--rank"),
        ("cv", ["--model", "pfa", "--n-trees", "5"], "--n-trees"),
        ("cv", ["--model", "pfa", "--individualized"], "--individualized"),
        ("cv", ["--model", "tensor", "--ranks", "2"], "--ranks"),
        ("cv", ["--model", "bkt", "--gbt-gamma", "0.1"], "--gbt-gamma"),
        ("cv", ["--model", "llm", "--mock", "--l2", "7"], "--l2"),
        ("cv", ["--model", "llm-gbt", "--mock", "--ridge", "1"], "--ridge"),
        ("fit", ["--model", "gbt", "--l2", "1"], "--l2"),
        ("predict", ["--model", "sparfa", "--rank", "2", "--targets", "{data}"], "--rank"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_model_flag_the_model_does_not_read_is_usage_error(
        self, sim_data, tmp_path, capsys, command, flags, named
    ):
        out = tmp_path / "o"
        argv = [command, *flags, "--data", "{data}", "--out", str(out)]
        assert main([arg.format(data=sim_data) for arg in argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: --model {flags[1]} does not read {named}\n"
        assert not out.exists()

    def test_llm_gbt_reads_the_gbt_and_pfa_flags(self, sim_data, tmp_path):
        assert main(["cv", "--model", "llm-gbt", "--mock", "--n-trees", "5", "--l2", "0.5",
                     "--data", str(sim_data), "--k", "3", "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize("flags", [
        ["--learning-rate", "0"],  # gbt, the model the mock client names
        ["--l2", "-1"],  # pfa, the other model a client can name
    ], ids=" ".join)
    def test_llm_gbt_flag_out_of_range_exits_before_any_client_call(
        self, sim_data, tmp_path, capsys, monkeypatch, flags
    ):
        import lppred.cli as cli_mod

        calls = []

        class CountingClient(MockHeuristicClient):
            def send(self, messages):
                calls.append(messages)
                return super().send(messages)

        monkeypatch.setattr(cli_mod, "MockHeuristicClient", CountingClient)
        out = tmp_path / "o"
        code = main(["cv", "--model", "llm-gbt", "--mock", *flags, "--data", str(sim_data),
                     "--k", "3", "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and "fold" not in captured.err
        assert "selected method" not in captured.out
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["predict", "--model", "sparfa", "--rank", "2", "--data", "{bad}"], "--model sparfa does not read --rank"),
        (["predict", "--model", "sparfa", "--rank", "2", "--data", "{data}"], "--model sparfa does not read --rank"),
        (["cv", "--model", "pfa", "--rank", "3", "--data", "{bad}"], "--model pfa does not read --rank"),
        (["fit", "--model", "gbt", "--n-trees", "-1", "--data", "{bad}"], "n_trees must be >= 0"),
        (["cv", "--model", "llm", "--data", "{bad}"], "llm mode needs --endpoint or --mock"),
        (["tune", "--method", "llm", "--data", "{bad}"], "llm mode needs --endpoint or --mock"),
        (["llm-run", "--train", "{bad}", "--test", "{bad}"], "llm mode needs --endpoint or --mock"),
        (["llm-run", "--train", "{bad}", "--test", "{missing}", "--endpoint", "notaurl", "--retries", "1"],
         "endpoint 'notaurl' is not an http:// or https:// URL with a host"),
    ], ids=["predict-malformed", "predict-fully-labeled", "cv", "fit", "cv-llm", "tune-llm", "llm-run",
            "llm-run-endpoint"])
    def test_flag_error_is_found_before_any_input_is_read(self, sim_data, tmp_path, capsys, argv, named):
        """A malformed file, or one with no row to predict, would be a data error if it were read first."""
        bad = tmp_path / "bad.csv"
        bad.write_text(sim_data.read_text(encoding="utf-8") + "LX,Q1,1,x\n", encoding="utf-8")
        out = tmp_path / "o"
        argv = [arg.format(bad=bad, data=sim_data, missing=tmp_path / "missing.csv") for arg in argv]
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["cv", "--model", "bkt", "--retries", "9"], "--model bkt does not read --retries"),
        (["cv", "--model", "bkt", "--mock"], "--model bkt does not read --mock"),
        (["cv", "--model", "bkt", "--mock", "--endpoint", "http://x", "--retries", "9"],
         "argument --endpoint: not allowed with argument --mock"),
        (["cv", "--model", "llm", "--mock", "--endpoint", "http://127.0.0.1:1"],
         "argument --endpoint: not allowed with argument --mock"),
        (["cv", "--model", "llm-gbt", "--mock", "--chat-model", "m"], "--mock does not read --chat-model"),
        (["tune", "--method", "grid", "--mock", "--temperature", "0.7"], "--method grid does not read --mock"),
        (["tune", "--method", "grid", "--budget", "3"], "--method grid does not read --budget"),
        (["tune", "--method", "llm", "--mock", "--temperature", "0.7"], "--mock does not read --temperature"),
        (["llm-run", "--train", "{data}", "--test", "{data}", "--mock", "--timeout", "5"],
         "--mock does not read --timeout"),
    ], ids=["cv-bkt-retries", "cv-bkt-mock", "cv-bkt-mock-endpoint", "cv-llm-mock-endpoint",
            "cv-llm-gbt-mock-chat-model", "tune-grid-mock", "tune-grid-budget", "tune-llm-mock-temperature",
            "llm-run-mock-timeout"])
    def test_client_flag_or_budget_the_run_does_not_read_is_usage_error(
        self, sim_data, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "o"
        argv = [arg.format(data=sim_data) for arg in argv]
        data = [] if argv[0] == "llm-run" else ["--data", str(sim_data)]
        assert main(argv + data + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_client_flag_left_off_takes_the_client_default(self):
        parse = build_parser().parse_args
        argv = ["llm-run", "--train", "a.csv", "--test", "b.csv", "--endpoint", "http://h"]
        assert cli._build_client(parse(argv)) == HttpChatClient(endpoint="http://h")
        given = parse(argv + ["--chat-model", "m", "--temperature", "0.5", "--timeout", "3", "--retries", "1"])
        assert cli._build_client(given) == HttpChatClient(
            endpoint="http://h", model="m", temperature=0.5, timeout=3.0, max_retries=1)

    def test_tune_budget_left_off_takes_the_loop_default(self, sim_data, tmp_path):
        out = tmp_path / "o"
        assert main(["tune", "--method", "llm", "--mock", "--k", "3", "--data", str(sim_data),
                     "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "tune.json").read_text())["n_evaluated"] == 10

    @pytest.mark.parametrize("kind", ["data", "meta", "grid", "report", "config"])
    def test_input_that_starts_with_a_byte_order_mark_reads(self, sim_data, tmp_path, capsys, kind):
        """A spreadsheet's "CSV UTF-8" export starts the file with U+FEFF, which is skipped."""
        def with_bom(name, text):
            path = tmp_path / name
            path.write_text("\ufeff" + text, encoding="utf-8")
            return str(path)

        out = str(tmp_path / "o")
        argv = {
            "data": lambda: ["ingest", "--data", with_bom("d.csv", sim_data.read_text(encoding="utf-8"))],
            "meta": lambda: ["ingest", "--data", str(sim_data), "--meta",
                             with_bom("m.json", json.dumps({"lesson_name": "Minor Burns"}))],
            "grid": lambda: ["tune", "--data", str(sim_data), "--grid", with_bom("g.json", json.dumps(SMALL_GRID)),
                             "--k", "3", "--workers", "1", "--out", out],
            "report": lambda: ["report", "--inputs", with_bom("r.json", '{"bkt": {"fold_rmse": [0.4, 0.5]}}'),
                               "--out", out],
            "config": lambda: ["ingest", "--config", with_bom("c.cfg", f"data = {sim_data}\n")],
        }[kind]()
        assert main(argv) == EXIT_OK, capsys.readouterr().err

    def test_llm_run_partly_labeled_test_is_data_error(self, train_test_files, tmp_path, capsys, monkeypatch):
        """Scoring only the labeled rows, or none, would hide the gap; no client call is made."""
        calls = []

        class CountingClient(MockHeuristicClient):
            def send(self, messages):
                calls.append(messages)
                return super().send(messages)

        monkeypatch.setattr(cli, "MockHeuristicClient", CountingClient)
        train, test = train_test_files
        with test.open("a", encoding="utf-8") as fh:
            fh.write("LX,QX,1,\n")
        labeled = len(test.read_text(encoding="utf-8").splitlines()) - 2
        out = tmp_path / "o"
        assert main(["llm-run", "--mock", "--train", str(train), "--test", str(test), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == (f"data error: test rows must be all labeled or all unlabeled; "
                                           f"{labeled} are labeled and 1 have no obs\n")
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["cv", "fit"])
    def test_non_integer_ranks_is_usage_error(self, sim_data, tmp_path, command):
        code = main(
            [command, "--model", "sparfa", "--ranks", "1,x", "--data", str(sim_data),
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--data", "--meta", "--targets", "--grid", "--train",
                                      "--test", "--inputs"])
    def test_missing_input_file_is_data_error(self, train_test_files, tmp_path, capsys, flag):
        train, test = train_test_files
        missing = str(tmp_path / "nope.csv")
        argv = {
            "--data": ["cv", "--model", "bkt", "--data", missing],
            "--meta": ["cv", "--model", "bkt", "--data", str(train), "--meta", missing],
            "--targets": ["predict", "--model", "gbt", "--data", str(train), "--targets", missing],
            "--grid": ["tune", "--data", str(train), "--grid", missing],
            "--train": ["llm-run", "--mock", "--train", missing, "--test", str(test)],
            "--test": ["llm-run", "--mock", "--train", str(train), "--test", missing],
            "--inputs": ["report", "--inputs", missing],
        }[flag]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_DATA
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--data", "--meta", "--targets", "--grid", "--train",
                                      "--test", "--inputs"])
    def test_input_file_not_utf8_is_data_error(self, train_test_files, tmp_path, capsys, flag):
        train, test = train_test_files
        bad = tmp_path / "bad.txt"
        bad.write_bytes({
            "--meta": b'{"lesson_name": "Minor \xff Burns"}',
            "--grid": json.dumps(SMALL_GRID).encode()[:-1] + b', "x": "\xff"}',
            "--inputs": b'{"bkt": {"fold_rmse": [0.4], "dataset": "\xff"}}',
        }.get(flag, train.read_bytes() + b"L\xff,Q1,1,1\n"))
        argv = {
            "--data": ["cv", "--model", "bkt", "--data", str(bad)],
            "--meta": ["cv", "--model", "bkt", "--data", str(train), "--meta", str(bad)],
            "--targets": ["predict", "--model", "gbt", "--data", str(train), "--targets", str(bad)],
            "--grid": ["tune", "--data", str(train), "--grid", str(bad)],
            "--train": ["llm-run", "--mock", "--train", str(bad), "--test", str(test)],
            "--test": ["llm-run", "--mock", "--train", str(train), "--test", str(bad)],
            "--inputs": ["report", "--inputs", str(bad)],
        }[flag]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: not UTF-8 text") and "0xff" in err

    def test_config_file_not_utf8_is_usage_error(self, sim_data, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"model = bkt\nk = \xff\n")
        argv = ["cv", "--config", str(config), "--data", str(sim_data), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_USAGE
        assert f"cannot read config file {config}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        (json.dumps({**SMALL_GRID, "n_trees": 5}), "'n_trees' must be a non-empty list, got 5"),
        (json.dumps({**SMALL_GRID, "ntrees": [5]}), "unknown grid key 'ntrees'"),
        (json.dumps(SMALL_GRID)[:-1], "invalid JSON"),
        (json.dumps({**SMALL_GRID, "n_trees": []}), "'n_trees' must be a non-empty list, got []"),
        (json.dumps({**SMALL_GRID, "n_trees": [-1]}), "'n_trees': -1 is invalid"),
        (json.dumps({**SMALL_GRID, "max_depth": [2.5]}), "'max_depth': 2.5 is not an integer"),
    ], ids=["scalar", "unknown-key", "malformed-json", "empty-list", "negative", "fractional"])
    def test_bad_grid_file_is_data_error(self, sim_data, tmp_path, capsys, text, named):
        grid = tmp_path / "grid.json"
        grid.write_text(text, encoding="utf-8")
        code = main(["tune", "--data", str(sim_data), "--grid", str(grid), "--workers", "1",
                     "--k", "3", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(grid) in err and named in err

    @pytest.mark.parametrize("command", ["cv", "tune"])
    def test_unlabeled_rows_in_cv_data_is_data_error(self, sim_data, tmp_path, capsys, command):
        data = tmp_path / "partly.csv"
        data.write_text(sim_data.read_text(encoding="utf-8") + "LX,Q1,1,\n", encoding="utf-8")
        argv = {"cv": ["cv", "--model", "bkt"], "tune": ["tune", "--workers", "1"]}[command]
        assert main(argv + ["--data", str(data), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert "1 rows have no obs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--method", "grid", "--workers", "1"],
        ["--method", "grid", "--workers", "2"],
        ["--method", "llm", "--mock", "--budget", "3"],
    ], ids=["grid-workers-1", "grid-workers-2", "llm-mock"])
    def test_tune_k_beyond_the_labeled_rows_is_data_error(self, sim_data, tmp_path, capsys, monkeypatch, argv):
        """Every configuration would meet the same split error, so it stops the sweep at the first."""
        from lppred.tuner import CyclingProposalClient

        clients = []  # the counting client: each keeps the requests it was sent

        def counted():
            clients.append(CyclingProposalClient())
            return clients[-1]

        monkeypatch.setattr(cli, "CyclingProposalClient", counted)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({**SMALL_GRID, "max_depth": [2, 3]}), encoding="utf-8")  # two groups
        labeled = len(parse_dataset(sim_data).labeled_positions())
        out = tmp_path / "o"
        assert main(["tune", *argv, "--k", "500", "--grid", str(grid), "--data", str(sim_data),
                     "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: cannot split {labeled} labeled records into 500 folds\n"
        assert [len(client.calls) for client in clients] == ([1] if "llm" in argv else [])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_fit_on_data_without_a_labeled_row_is_data_error(self, tmp_path, capsys, command):
        data = tmp_path / "unlabeled.csv"
        data.write_text("learner_id,question_id,attempt,obs\nL1,Q1,1,\nL1,Q1,2,\n", encoding="utf-8")
        assert main([command, "--model", "pfa", "--data", str(data), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {data}: no row is labeled, so there is nothing to fit\n"

    @pytest.mark.parametrize("where", ["cv-fold", "summarize"])
    def test_an_unlisted_exception_is_a_model_error(self, sim_data, tmp_path, capsys, monkeypatch, where):
        """A failure of no listed class exits 3, inside a fold or outside any; nothing escapes ``main``."""

        def synthetic(*args, **kwargs):
            raise TypeError("synthetic")

        if where == "cv-fold":
            monkeypatch.setattr(PfaModel, "fit", synthetic)
            argv, shown = ["cv", "--model", "pfa", "--k", "3"], "fold 0: synthetic"
        else:
            monkeypatch.setattr(cli, "summarize", synthetic)
            argv, shown = ["summarize"], "synthetic"
        assert main(argv + ["--data", str(sim_data), "--out", str(tmp_path / "o")]) == EXIT_MODEL
        assert capsys.readouterr().err == f"model error: {shown}\n"

    def test_malformed_report_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text('{"bkt": {"fold_rmse": [0.4,', encoding="utf-8")
        assert main(["report", "--inputs", str(bad), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert "invalid JSON" in capsys.readouterr().err

    def test_report_nan_fold_rmse_is_data_error(self, tmp_path, capsys):
        """NaN would reach report.json as a bare NaN, which strict JSON parsers reject."""
        bad = tmp_path / "report.json"
        bad.write_text('{"bkt": {"fold_rmse": [0.4, NaN]}}', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["report", "--inputs", str(bad), "--out", str(out)]) == EXIT_DATA
        assert f"{bad}: not a cv report" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_report_boolean_fold_rmse_is_data_error(self, tmp_path, capsys):
        """JSON true and false compare as 1 and 0, but they are not RMSE values."""
        bad = tmp_path / "report.json"
        bad.write_text('{"bkt": {"fold_rmse": [true, false], "dataset": "x"}}', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["report", "--inputs", str(bad), "--out", str(out)]) == EXIT_DATA
        assert (f"{bad}: not a cv report (ValueError: fold RMSE values must be numbers in [0, 1])"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("dataset", [5, ["a"], None, {"a": 1}, True], ids=json.dumps)
    def test_report_non_string_dataset_is_data_error(self, tmp_path, capsys, dataset):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"bkt": {"fold_rmse": [0.4, 0.5], "dataset": dataset}}), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["report", "--inputs", str(bad), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}: not a cv report" in err and f"dataset of 'bkt' is {json.dumps(dataset)}, not a string" in err
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(payload=st.one_of(
        st.dictionaries(
            st.text(max_size=4),
            st.fixed_dictionaries({"fold_rmse": st.lists(st.floats(0, 1), min_size=1, max_size=3)},
                                  optional={"dataset": JSON_VALUES}),
            max_size=3,
        ),
        JSON_VALUES,
    ))
    def test_report_on_any_json_input_exits_0_or_2(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            assert main(["report", "--inputs", str(path), "--out", str(Path(tmp) / "o")]) in (EXIT_OK, EXIT_DATA)

    def test_report_pair_given_twice_is_data_error(self, sim_data, tmp_path, capsys):
        """Two runs of one model on one dataset would fill one table cell; neither is dropped silently."""
        inputs = []
        for name, flags in (("a", ["--seed", "1"]), ("b", ["--seed", "2", "--l2", "10"])):
            out = tmp_path / name
            assert main(["cv", "--model", "pfa", "--data", str(sim_data), "--k", "3", "--out", str(out),
                         *flags]) == EXIT_OK
            inputs.append(str(out / "report.json"))
        capsys.readouterr()
        assert main(["report", "--inputs", *inputs, "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert f"pfa on data is reported in both {inputs[0]} and {inputs[1]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_tune_takes_only_gbt(self, sim_data, tmp_path, capsys):
        code = main(["tune", "--model", "pfa", "--data", str(sim_data), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "argument --model: invalid choice: 'pfa'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["summarize", "simulate", "cv"])
    @pytest.mark.parametrize("where", ["out-is-a-file", "out-under-a-file", "output-is-a-directory"])
    def test_unusable_out_is_usage_error(self, sim_data, tmp_path, capsys, command, where):
        argv, first_output = {
            "summarize": (["summarize", "--data", str(sim_data)], "summary.json"),
            "simulate": (["simulate", "--shape", "4x2x2"], "data.csv"),
            "cv": (["cv", "--model", "pfa", "--k", "2", "--data", str(sim_data)], "report.json"),
        }[command]
        taken = tmp_path / "taken"
        if where == "output-is-a-directory":
            (taken / first_output).mkdir(parents=True)
            out, named = taken, taken / first_output
        else:
            taken.write_text("", encoding="utf-8")
            out = named = taken if where == "out-is-a-file" else taken / "sub"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert f"usage error: cannot write {named}: " in capsys.readouterr().err

    def test_unreachable_endpoint_in_cv_fold_is_client_error(self, sim_data, tmp_path, capsys):
        code = main(
            ["cv", "--model", "llm", "--endpoint", "http://127.0.0.1:1", "--retries", "0",
             "--data", str(sim_data), "--k", "3", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CLIENT
        assert capsys.readouterr().err.startswith("client error: fold 0:")

    def test_unreachable_endpoint_is_client_error(self, train_test_files, tmp_path):
        train, test = train_test_files
        code = main(
            [
                "llm-run", "--train", str(train), "--test", str(test),
                "--endpoint", "http://127.0.0.1:1", "--retries", "0",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CLIENT


    @pytest.mark.parametrize("obs, expected", [("1", EXIT_DATA), ("", EXIT_OK)],
                             ids=["labeled", "unlabeled"])
    def test_test_row_repeating_a_training_row(self, train_test_files, tmp_path, obs, expected):
        """A labeled training copy would show the client the outcome; an unlabeled one is dropped."""
        train, test = train_test_files
        learner, question, attempt, _ = test.read_text(encoding="utf-8").splitlines()[1].split(",")
        with train.open("a", encoding="utf-8") as fh:
            fh.write(f"{learner},{question},{attempt},{obs}\n")
        code = main(["llm-run", "--mock", "--train", str(train), "--test", str(test),
                     "--out", str(tmp_path / "o")])
        assert code == expected

    @pytest.mark.parametrize("value", [
        '{"p_init": 0.3, "p_learn": 0.2, "p_slip": 0.1, "p_guess": 0.2, "p_forget": 0.1}',
        '{"p_init": 0.3, "p_learn": 0.2, "p_slip": 0.1}',
        '{"p_init": 0.3,',
        '{"p_init": 2, "p_learn": 0.2, "p_slip": 0.1, "p_guess": 0.2}',
    ], ids=["unknown-key", "missing-key", "malformed-json", "p_init-out-of-range"])
    def test_bad_bkt_params_is_usage_error(self, tmp_path, capsys, value):
        code = main(["simulate", "--shape", "4x2x2", "--bkt-params", value, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "argument --bkt-params: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--generator", "bkt-process", "--mask", "0.5"],
        ["--generator", "low-rank-matrix", "--stop-on-correct"],
        ["--generator", "low-rank-tensor", "--bkt-params",
         '{"p_init": 0.3, "p_learn": 0.2, "p_slip": 0.1, "p_guess": 0.2}'],
        ["--generator", "bkt-process", "--rank", "3"],
    ], ids=["bkt-mask", "matrix-stop-on-correct", "tensor-bkt-params", "bkt-rank"])
    def test_simulate_flag_its_generator_ignores_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert main(["simulate", "--shape", "4x3x2", *flags, "--out", str(out)]) == EXIT_USAGE
        field = {"--mask": "mask_fraction", "--stop-on-correct": "stop_on_correct", "--bkt-params": "bkt",
                 "--rank": "rank"}
        err = capsys.readouterr().err
        assert field[flags[2]] in err and flags[1] in err
        assert not out.exists()

    @pytest.mark.parametrize("generator, shape, rank", [
        ("low-rank-tensor", "4x3x2", "0"),
        ("low-rank-tensor", "4x3x2", "-1"),
        ("low-rank-matrix", "4x3x1", "-1"),
        ("low-rank-matrix", "4x3x1", "0"),
        ("low-rank-matrix", "5x3x1", "4"),
        ("low-rank-matrix", "1x1x1", "2"),
    ])
    def test_simulate_rank_out_of_range_is_usage_error(self, tmp_path, capsys, generator, shape, rank):
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--generator", generator, "--shape", shape, "--rank", rank,
                         "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: rank {rank} ")
        assert caught == [] and not out.exists()

    def test_simulate_default_rank_out_of_range_says_it_is_the_default(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "--generator", "low-rank-matrix", "--shape", "5x1x1", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: rank 2 ") and "default" in err and "= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("ingest", "--seed"), ("ingest", "--out"), ("ingest", "--workers"),
        ("summarize", "--seed"), ("summarize", "--workers"),
        ("fit", "--workers"), ("predict", "--workers"), ("simulate", "--workers"),
        ("report", "--seed"), ("report", "--workers"),
    ])
    def test_flag_the_command_never_reads_is_usage_error(self, sim_data, tmp_path, capsys, command, flag):
        out = tmp_path / "o"
        argv = {
            "ingest": ["ingest", "--data", str(sim_data)],
            "summarize": ["summarize", "--data", str(sim_data), "--out", str(out)],
            "fit": ["fit", "--model", "pfa", "--data", str(sim_data), "--out", str(out)],
            "predict": ["predict", "--model", "pfa", "--data", str(sim_data), "--out", str(out)],
            "simulate": ["simulate", "--shape", "4x2x2", "--out", str(out)],
            "report": ["report", "--inputs", str(tmp_path / "report.json"), "--out", str(out)],
        }[command]
        value = str(out) if flag == "--out" else "1"
        assert main(argv + [flag, value]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--shape", "0x8x9"],
        ["simulate", "--shape", "4x2x2", "--mask", "1.5"],
        ["llm-run", "--train", "{train}", "--test", "{test}", "--mock", "--repeats", "0"],
        ["llm-run", "--train", "{train}", "--test", "{test}", "--mock", "--workers", "0"],
        ["llm-run", "--train", "{train}", "--test", "{test}", "--mock", "--rows-per-chunk", "-1"],
        ["llm-run", "--train", "{train}", "--test", "{test}", "--endpoint", "http://127.0.0.1:1",
         "--retries", "-1"],
        ["tune", "--method", "llm", "--mock", "--budget", "0", "--data", "{data}"],
        ["cv", "--model", "bkt", "--k", "1", "--data", "{data}"],
        ["cv", "--model", "gbt", "--n-trees", "-1", "--data", "{data}"],
        ["llm-run", "--train", "{train}", "--test", "{test}", "--endpoint", "http://127.0.0.1:1",
         "--timeout", "-1"],
        ["llm-run", "--train", "{train}", "--test", "{test}", "--endpoint", "http://127.0.0.1:1",
         "--timeout", "nan"],
        ["llm-run", "--train", "{train}", "--test", "{test}", "--endpoint", "http://127.0.0.1:1",
         "--timeout", "0"],
        ["tune", "--method", "llm", "--mock", "--temperature", "nan", "--data", "{data}"],
        ["tune", "--method", "llm", "--mock", "--temperature", "inf", "--data", "{data}"],
    ], ids=["shape", "mask", "repeats", "workers", "rows-per-chunk", "retries", "budget", "k",
            "n-trees", "timeout-negative", "timeout-nan", "timeout-zero", "temperature-nan",
            "temperature-inf"])
    def test_out_of_range_count_flag_is_usage_error(self, train_test_files, sim_data, tmp_path, argv):
        train, test = train_test_files
        argv = [arg.format(train=train, test=test, data=sim_data) for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_USAGE


# Per local model: its wrapper class, flags that set every hyperparameter the
# CLI exposes to a non-default value, and the same values as constructor arguments.
MODEL_FLAGS = {
    "bkt": (BktModel, ["--individualized"], {"individualized": True}),
    "pfa": (PfaModel, ["--l2", "0.7"], {"l2": 0.7}),
    "sparfa": (SparfaModel, ["--ranks", "1"], {"rank_candidates": (1,)}),
    "tensor": (TensorFactorizationModel, ["--rank", "2", "--ridge", "0.4"], {"rank": 2, "ridge": 0.4}),
    "gbt": (
        GbtModel,
        ["--n-trees", "7", "--learning-rate", "0.3", "--max-depth", "2", "--subsample", "0.8",
         "--colsample-bytree", "0.67", "--gbt-gamma", "0.05", "--min-child-weight", "2"],
        {"config": GbtConfig(n_trees=7, learning_rate=0.3, max_depth=2, subsample=0.8,
                             colsample_bytree=0.67, gamma=0.05, min_child_weight=2.0)},
    ),
}


@pytest.mark.parametrize("model", MODEL_FLAGS)
def test_fit_export_matches_library_model(tmp_path, model):
    """No model flag: the wrapper's defaults; every flag: its constructor argument."""
    # low-rank data, so that sparfa picks a positive rank and its export shows the candidates
    assert main(["simulate", "--generator", "low-rank-matrix", "--shape", "40x8x1", "--rank", "2",
                 "--seed", "5", "--out", str(tmp_path / "sim")]) == EXIT_OK
    data = tmp_path / "sim" / "data.csv"
    cls, flags, kwargs = MODEL_FLAGS[model]
    ds = parse_dataset(data)
    train = ds.subset(ds.labeled_positions())
    seed = derive_seed(0, "fit", model)
    written = {}
    for name, argv, given in (("default", [], {}), ("flagged", flags, kwargs)):
        out = tmp_path / name
        assert main(["fit", "--model", model, "--data", str(data), "--out", str(out), *argv]) == EXIT_OK
        written[name] = (out / f"{model}-model.json").read_text(encoding="utf-8")
        assert written[name] == json.dumps(cls(seed=seed, **given).fit(train).export_json(), indent=2)
    assert written["flagged"] != written["default"]


@pytest.mark.parametrize("code", [EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_MODEL, EXIT_CLIENT])
def test_process_exits_with_the_documented_code_and_no_traceback(sim_data, train_test_files, tmp_path, code):
    """``python -m lppred.cli`` as a process: an escaped exception would show as a traceback and exit 1."""
    train, test = train_test_files
    bad_report = tmp_path / "report.json"
    bad_report.write_text('{"bkt": {"fold_rmse": [0.4, 0.5], "dataset": 5}}', encoding="utf-8")
    argv = {
        EXIT_OK: ["summarize", "--data", str(sim_data)],
        EXIT_USAGE: ["cv", "--model", "nope", "--data", str(sim_data)],
        EXIT_DATA: ["report", "--inputs", str(bad_report)],
        EXIT_MODEL: ["cv", "--model", "tensor", "--rank", "999", "--k", "3", "--data", str(sim_data)],
        EXIT_CLIENT: ["llm-run", "--endpoint", "http://127.0.0.1:1", "--retries", "0",
                      "--train", str(train), "--test", str(test)],
    }[code]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "lppred.cli", *argv, "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr


class TestWorkersDefault:
    ARGV = (["cv", "--model", "gbt", "--data", "d.csv"],
            ["tune", "--model", "gbt", "--data", "d.csv"],
            ["llm-run", "--train", "a.csv", "--test", "b.csv", "--mock"])

    def test_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        for argv in self.ARGV:
            assert build_parser().parse_args(argv).workers == 3, argv[0]

    def test_falls_back_to_the_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        for argv in self.ARGV:
            assert build_parser().parse_args(argv).workers == 5, argv[0]


class TestCommands:
    def test_ingest_ok(self, sim_data, tmp_path, capsys):
        assert main(["ingest", "--data", str(sim_data)]) == EXIT_OK
        assert "records" in capsys.readouterr().out

    def test_summarize_writes_json(self, sim_data, tmp_path):
        out = tmp_path / "o"
        assert main(["summarize", "--data", str(sim_data), "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "summary.json").read_text())
        assert payload["n_learners"] == 14

    def test_simulate_lesson1_shape(self, tmp_path):
        out = tmp_path / "sim1"
        code = main(["simulate", "--generator", "bkt-process", "--shape", "66x8x9", "--out", str(out)])
        assert code == EXIT_OK
        ds = parse_dataset(out / "data.csv")
        assert ds.n_learners == 66
        assert ds.n_questions == 8
        assert ds.max_attempt == 9
        assert (out / "truth.json").exists()

    def test_cv_writes_five_fold_report(self, sim_data, tmp_path):
        out = tmp_path / "cv"
        code = main(
            [
                "cv", "--model", "gbt", "--data", str(sim_data), "--k", "5",
                "--seed", "7", "--out", str(out), "--n-trees", "20",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["gbt"]["fold_rmse"]) == 5
        assert "_{" in (out / "report.txt").read_text()

    def test_cv_shows_a_fitter_warning_once_per_fold(self, tmp_path):
        """Four of the five tensor folds run out of ALS sweeps; each shows, named by its fold."""
        sim = tmp_path / "sim"
        assert main(["simulate", "--shape", "66x8x9", "--seed", "1", "--stop-on-correct",
                     "--out", str(sim)]) == EXIT_OK
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("default")  # show each message text once per location
            assert main(["cv", "--model", "tensor", "--k", "5", "--seed", "0", "--data", str(sim / "data.csv"),
                         "--out", str(tmp_path / "o")]) == EXIT_OK
        assert [str(w.message) for w in shown] == [
            f"fold {fold}: tensor_fit_als: ALS stopped at max_sweeps=200 before TOL" for fold in (1, 2, 3, 4)
        ]

    def test_cv_llm_shows_each_folds_rejected_records(self, sim_data, tmp_path, monkeypatch):
        import lppred.cli as cli_mod

        class OutOfRangeClient(MockHeuristicClient):
            """Answers as the mock does, plus one record whose prediction is out of range."""

            def send(self, messages):
                return super().send(messages) + (
                    "\n{'learner ID': 'L1', 'Question ID': 'Q1', 'Attempt': 1, 'Prediction': 1.5, 'Assessment': ''}"
                )

        monkeypatch.setattr(cli_mod, "MockHeuristicClient", OutOfRangeClient)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("default")
            assert main(["cv", "--model", "llm", "--mock", "--k", "5", "--data", str(sim_data),
                         "--out", str(tmp_path / "o")]) == EXIT_OK
        assert [str(w.message) for w in shown] == [
            f"fold {fold}: LlmPredictor: the reply held 1 rejected records (first: prediction out of range)"
            for fold in range(5)
        ]

    def test_cv_deterministic_artifacts(self, sim_data, tmp_path):
        args = ["cv", "--model", "bkt", "--data", str(sim_data), "--k", "3", "--seed", "5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "report.json").read_text() == (out2 / "report.json").read_text()

    def test_cv_mock_llm_offline(self, sim_data, tmp_path):
        out = tmp_path / "llmcv"
        code = main(
            ["cv", "--model", "llm", "--mock", "--data", str(sim_data), "--k", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "llm" in json.loads((out / "report.json").read_text())

    def test_cv_llm_gbt_selects_and_runs_locally(self, sim_data, tmp_path, capsys):
        out = tmp_path / "lg"
        code = main(
            [
                "cv", "--model", "llm-gbt", "--mock", "--data", str(sim_data),
                "--k", "3", "--out", str(out), "--n-trees", "10",
            ]
        )
        assert code == EXIT_OK
        assert "selected method: gbt" in capsys.readouterr().out

    def test_llm_gbt_selects_from_training_split_only(self, sim_data, tmp_path, monkeypatch):
        import lppred.cli as cli_mod

        calls = []

        class RecordingClient(MockHeuristicClient):
            def send(self, messages):
                calls.append("\n".join(m["content"] for m in messages))
                return super().send(messages)

        monkeypatch.setattr(cli_mod, "MockHeuristicClient", RecordingClient)
        code = main(["cv", "--model", "llm-gbt", "--mock", "--data", str(sim_data), "--k", "3",
                     "--seed", "4", "--out", str(tmp_path / "o"), "--n-trees", "5"])
        assert code == EXIT_OK
        ds = parse_dataset(sim_data)
        split = make_folds(ds, 3, 4)
        assert len(calls) == 3  # one method selection per fold
        for fold, text in enumerate(calls):
            shown = {(m[1], m[2], int(m[3])) for m in _RECORD_SENTENCE.finditer(text) if m[4] is not None}
            held_out = set(ds.keys(split.fold_positions(fold)))
            train = set(ds.keys(split.train_positions(fold)))
            assert shown == train and not shown & held_out

    def test_fit_then_predict(self, sim_data, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", "--model", "gbt", "--data", str(sim_data), "--out", str(out),
                     "--n-trees", "10"]) == EXIT_OK
        assert (out / "gbt-model.json").exists()

        targets = tmp_path / "targets.csv"
        targets.write_text(
            "learner_id,question_id,attempt,obs\nL1,Q1,1,\nL2,Q2,2,\n", encoding="utf-8"
        )
        out2 = tmp_path / "pred"
        code = main(
            [
                "predict", "--model", "gbt", "--data", str(sim_data), "--targets", str(targets),
                "--out", str(out2), "--n-trees", "10",
            ]
        )
        assert code == EXIT_OK
        lines = (out2 / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "learner_id,question_id,attempt,prediction"
        assert len(lines) == 3

    def test_predictions_csv_quotes_ids_with_commas_and_quotes(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(
            'learner_id,question_id,attempt,obs\n"L,1",Q1,1,1\n"L,1",Q1,2,0\n'
            'L2,"Q""2",1,1\nL2,Q1,1,0\n"L,1","Q""2",1,\n',
            encoding="utf-8",
        )
        out = tmp_path / "pred"
        assert main(["predict", "--model", "pfa", "--data", str(data), "--out", str(out)]) == EXIT_OK
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["learner_id", "question_id", "attempt", "prediction"]
        assert [row[:3] for row in rows] == [["L,1", 'Q"2', "1"]]
        assert all(len(row) == 4 for row in rows)

    def test_predictions_csv_quotes_ids_with_a_carriage_return(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes(b'learner_id,question_id,attempt,obs\nL1,Q1,1,1\nL2,Q1,1,0\nL1,"Q1\rx",2,\n')
        out = tmp_path / "pred"
        assert main(["predict", "--model", "pfa", "--data", str(data), "--out", str(out)]) == EXIT_OK
        written = (out / "predictions.csv").read_bytes()
        assert b"\r\n" not in written and written.count(b"\n") == 2  # header and one row, \n ends
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert [row[:3] for row in rows] == [["L1", "Q1\rx", "2"]]
        assert all(len(row) == 4 for row in rows)

    def test_tune_grid_file(self, sim_data, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(
            json.dumps(
                {
                    "n_trees": [5, 10], "learning_rate": [0.1], "max_depth": [2],
                    "subsample": [1.0], "colsample_bytree": [1.0], "gamma": [0.0],
                    "min_child_weight": [1.0],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "tune"
        code = main(
            [
                "tune", "--model", "gbt", "--data", str(sim_data), "--grid", str(grid_file),
                "--k", "3", "--out", str(out), "--workers", "1",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((out / "tune.json").read_text())
        assert payload["n_evaluated"] == 2
        assert "Median" in (out / "tune.txt").read_text()

    def test_tune_llm_mock(self, sim_data, tmp_path):
        out = tmp_path / "tunellm"
        code = main(
            [
                "tune", "--model", "gbt", "--data", str(sim_data), "--method", "llm",
                "--mock", "--budget", "3", "--k", "3", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert json.loads((out / "tune.json").read_text())["n_evaluated"] == 3

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), repeats=st.integers(2, 4), rows_per_chunk=st.sampled_from([0, 3, 7]))
    def test_llm_run_mock_files_do_not_depend_on_workers(self, seed, repeats, rows_per_chunk):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            assert main(["simulate", "--shape", "8x3x3", "--seed", str(seed), "--out", str(tmp / "sim")]) == EXIT_OK
            rows = (tmp / "sim" / "data.csv").read_text().splitlines()
            (tmp / "train.csv").write_text("\n".join(rows[:1] + rows[1::2]) + "\n", encoding="utf-8")
            (tmp / "test.csv").write_text("\n".join(rows[:1] + rows[2::2]) + "\n", encoding="utf-8")
            written = []
            for workers in ("1", "2"):
                out = tmp / f"w{workers}"
                assert main(["llm-run", "--mock", "--train", str(tmp / "train.csv"), "--test", str(tmp / "test.csv"),
                             "--repeats", str(repeats), "--rows-per-chunk", str(rows_per_chunk),
                             "--workers", workers, "--out", str(out)]) == EXIT_OK
                written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert written[0] == written[1]
            assert set(written[0]) >= {"report.json", "script.txt", "predictions.csv"}

    def test_llm_run_mock(self, train_test_files, tmp_path):
        train, test = train_test_files
        out = tmp_path / "run"
        code = main(
            [
                "llm-run", "--train", str(train), "--test", str(test),
                "--mock", "--repeats", "2", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert payload["repeats"] == 2
        assert payload["coverage"] == 1.0
        assert (out / "predictions.csv").exists()

    def test_llm_run_mock_reads_back_ids_with_quotes_and_separators(self, tmp_path, capsys):
        learners, questions = ["O'Brien", "Smith, J", "a:b", "L 1"], ["Q'1", "Q, 2", "Q:3 x"]
        train = Dataset.from_records(
            (lid, qid, 1, (i + j) % 2) for i, lid in enumerate(learners) for j, qid in enumerate(questions)
        )
        test = Dataset.from_records((lid, qid, 2, 1) for lid in learners for qid in questions)
        write_dataset(train, tmp_path / "train.csv")
        write_dataset(test, tmp_path / "test.csv")
        out = tmp_path / "run"
        code = main(["llm-run", "--mock", "--train", str(tmp_path / "train.csv"),
                     "--test", str(tmp_path / "test.csv"), "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads((out / "report.json").read_text())["coverage"] == 1.0
        assert "warning" not in capsys.readouterr().err

    def test_llm_run_warns_of_rejected_records(self, train_test_files, tmp_path, capsys, monkeypatch):
        class RejectingMock(MockHeuristicClient):
            def send(self, messages):
                bad = "{'learner ID': 'L1', 'Question ID': 'Q1', 'Attempt': one, 'Prediction': 0.5}"
                return super().send(messages) + f"\n{bad}\n{bad}"

        monkeypatch.setattr(cli, "MockHeuristicClient", RejectingMock)
        train, test = train_test_files
        out = tmp_path / "run"
        code = main(["llm-run", "--mock", "--train", str(train), "--test", str(test), "--repeats", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert ("warning: 3 of 3 replies held rejected records, 6 in all (first: attempt not an integer)"
                in capsys.readouterr().err)
        assert set(json.loads((out / "report.json").read_text())) == {
            "repeats", "coverage", "imputed_per_run", "run_rmse", "mean_rmse", "std_error"}

    def test_report_merges_lessons(self, sim_data, tmp_path):
        outs = []
        for model in ("bkt", "gbt"):
            out = tmp_path / f"cv-{model}"
            flags = ["--n-trees", "10"] if model == "gbt" else []
            assert main(
                ["cv", "--model", model, "--data", str(sim_data), "--k", "3", "--out", str(out), *flags]
            ) == EXIT_OK
            outs.append(str(out / "report.json"))
        merged = tmp_path / "merged"
        assert main(["report", "--inputs", *outs, "--out", str(merged)]) == EXIT_OK
        table = (merged / "report.txt").read_text()
        assert "bkt" in table and "gbt" in table and "*" in table

    def test_config_file_flags_win(self, sim_data, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("model = bkt\nk = 3\nseed = 9\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main(
            ["cv", "--config", str(config), "--data", str(sim_data), "--out", str(out), "--k", "2"]
        )
        assert code == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["bkt"]["fold_rmse"]) == 2  # explicit --k 2 beat config k=3

    def test_config_file_joined_form_is_read(self, sim_data, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("model = bkt\nk = 3\n", encoding="utf-8")
        argv = ["cv", "--data", str(sim_data)]
        assert main(argv + [f"--config={config}", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(argv + ["--config", str(config), "--out", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a" / "report.json").read_text() == (tmp_path / "b" / "report.json").read_text()

    @pytest.mark.parametrize("line", ["individualized = false", "mock = no", "individualized = OFF"])
    def test_config_file_false_switch_is_left_out(self, sim_data, tmp_path, line):
        config = tmp_path / "run.conf"
        config.write_text(f"model = bkt\nk = 3\n{line}\n", encoding="utf-8")
        argv = ["cv", "--data", str(sim_data)]
        assert main(argv + ["--config", str(config), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(argv + ["--model", "bkt", "--k", "3", "--out", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a" / "report.json").read_text() == (tmp_path / "b" / "report.json").read_text()


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"^```bash\n(.*?)^```", readme, flags=re.S | re.M)
        for line in block.splitlines()
        if line.startswith("lppred ")
    ]
    assert lines
    for argv in lines:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: lppred {shlex.join(argv)}")


def test_readme_model_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("`cv`, `fit` and `predict` share one set of model flags", 1)[1]
    table = re.search(r"^\|.*?(?=^[^|])", after, flags=re.S | re.M).group(0)
    documented = {
        model: sorted(re.findall(r"`(--[\w-]+)`", flags))
        for model, flags in re.findall(r"^\| `([\w-]+)`\s*\|(.*)\|$", table, flags=re.M)
    }
    actions = _model_flags()._actions
    assert documented == {
        model: sorted(opt for action in actions if action.dest in names for opt in action.option_strings)
        for model, (_, names) in LOCAL_MODELS.items()
    }


def test_readme_shared_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("Each command accepts only the shared flags it reads", 1)[1]
    table = re.search(r"^\|.*?(?=^[^|])", after, flags=re.S | re.M).group(0)
    header, _, *rows = ([cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines())
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    shared = {"--data", "--meta", "--seed", "--out", "--workers"}
    documented = {}
    for commands, *cells in rows:
        # a filled cell names its column's flags, unless it names its own in parentheses
        flags = {flag for column, cell in zip(header[1:], cells) if cell
                 for flag in re.findall(r"`(--[\w-]+)`", cell if cell.startswith("(") else column)}
        documented.update(dict.fromkeys(re.findall(r"`([\w-]+)`", commands), flags))
    assert documented == {name: shared & set(p._option_string_actions) for name, p in subcommands.items()}
