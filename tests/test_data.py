import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lppred.data import (
    DataError,
    Dataset,
    LessonMeta,
    encode_keys,
    make_folds,
    parse_dataset,
    parse_meta,
    summarize,
    write_dataset,
)
from lppred.simulate import SimSpec, simulate

from conftest import make_records, random_dataset, rows_of


def write_csv(path, body):
    path.write_text(body, encoding="utf-8")
    return path


def records_with_ids(ids):
    """Rows with unique keys; the csv writer must quote commas, quotes and line breaks in ids."""
    return st.lists(
        st.tuples(ids, ids, st.integers(1, 2**63 - 1), st.sampled_from([0, 1, None])),
        min_size=1, max_size=12, unique_by=lambda r: r[:3],
    )


def _write_and_parse(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        write_dataset(ds, path)
        return parse_dataset(path)


class TestParse:
    def test_direct_readback(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "learner_id,question_id,attempt,obs\nL1,Q1,1,1\nL1,Q1,2,0\n")
        ds = parse_dataset(f)
        assert ds.n_records == 2
        assert ds.n_learners == 1
        assert ds.n_questions == 1
        assert ds.max_attempt == 2
        assert ds.obs.tolist() == [1, 0]

    def test_absent_obs_flagged(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "learner_id,question_id,attempt,obs\nL1,Q1,1,1\nL2,Q1,1,\n")
        ds = parse_dataset(f)
        assert ds.unlabeled_positions() == [1]

    def test_bad_obs_names_line(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "learner_id,question_id,attempt,obs\nL1,Q1,1,2\n")
        with pytest.raises(DataError, match=r"line 2.*obs must be 0 or 1"):
            parse_dataset(f)

    def test_bad_attempt(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "learner_id,question_id,attempt,obs\nL1,Q1,0,1\n")
        with pytest.raises(DataError, match=r"line 2.*attempt"):
            parse_dataset(f)

    @pytest.mark.parametrize("cell", ["1_0", "\uff13", "\u0663", "+-1", "1.0", ""])
    def test_attempt_cell_is_plain_decimal(self, tmp_path, cell):
        f = write_csv(tmp_path / "d.csv", f"learner_id,question_id,attempt,obs\nL1,Q1,1,1\nL1,Q1,{cell},0\n")
        with pytest.raises(DataError, match=re.escape(f"line 3: attempt must be an integer, got {cell!r}")):
            parse_dataset(f)

    @pytest.mark.parametrize("cell, attempt", [("7", 7), ("+2", 2), ("007", 7)])
    def test_signed_decimal_attempt_parses(self, tmp_path, cell, attempt):
        f = write_csv(tmp_path / "d.csv", f"learner_id,question_id,attempt,obs\nL1,Q1,{cell},1\n")
        assert parse_dataset(f).keys() == [("L1", "Q1", attempt)]

    def test_negative_attempt_gets_the_range_message(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "learner_id,question_id,attempt,obs\nL1,Q1,-1,1\n")
        with pytest.raises(DataError, match=r"line 2: attempt must be in 1\.\.2\^63-1, got -1"):
            parse_dataset(f)

    def test_attempt_past_int64_is_data_error(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "learner_id,question_id,attempt,obs\nL1,Q1,9223372036854775808,1\n")
        with pytest.raises(DataError, match=r"line 2.*attempt"):
            parse_dataset(f)
        with pytest.raises(DataError, match="attempt"):
            Dataset.from_records([("L1", "Q1", 2**63, 1)])

    def test_wrong_column_count(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "learner_id,question_id,attempt,obs\nL1,Q1,1\n")
        with pytest.raises(DataError, match=r"line 2.*4 columns"):
            parse_dataset(f)

    def test_duplicate_key(self, tmp_path):
        f = write_csv(
            tmp_path / "d.csv",
            "learner_id,question_id,attempt,obs\nL1,Q1,1,1\nL1,Q1,1,0\n",
        )
        with pytest.raises(DataError, match="duplicate"):
            parse_dataset(f)

    def test_missing_header(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "L1,Q1,1,1\n")
        with pytest.raises(DataError, match="header"):
            parse_dataset(f)

    def test_round_trip_preserves_multiset(self, tmp_path, rng):
        ds = random_dataset(rng, n_rows=60)
        out = tmp_path / "rt.csv"
        write_dataset(ds, out)
        back = parse_dataset(out)
        assert sorted(rows_of(back)) == sorted(rows_of(ds))

    @settings(max_examples=60, deadline=None)
    @given(records=records_with_ids(st.text(max_size=6).filter(lambda s: s == s.strip())))
    def test_write_parse_round_trip(self, records):
        ds = Dataset.from_records(records)
        assert rows_of(ds) == records
        assert ds.keys() == [r[:3] for r in records]
        assert rows_of(_write_and_parse(ds)) == records
        positions = list(range(len(records)))[::-2]
        assert rows_of(ds.subset(positions)) == [records[i] for i in positions]

    @settings(max_examples=60, deadline=None)
    @given(records=records_with_ids(st.text(max_size=6)))
    @example(records=[(" L1", "Q1", 1, 1)])
    @example(records=[("L1", "Q1\r", 1, 1)])
    @example(records=[("L1", "Q1", 1, 0), ("\x1c", "Q1", 1, 1)])
    def test_ids_with_surrounding_whitespace_are_rejected(self, records):
        padded = [r for r in records if any(i != i.strip() for i in r[:2])]
        if not padded:
            ds = Dataset.from_records(records)
            assert rows_of(_write_and_parse(ds)) == rows_of(ds)
            return
        with pytest.raises(DataError, match="surrounding whitespace") as info:
            Dataset.from_records(records)
        assert any(repr(r[:3]) in str(info.value) for r in padded)

    def test_space_or_tab_beside_a_comma_still_parses(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "learner_id, question_id,attempt,obs\nL1, Q1,\t2 , 1\n")
        assert rows_of(parse_dataset(f)) == [("L1", "Q1", 2, 1)]

    def test_other_whitespace_around_an_id_is_a_data_error(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "learner_id,question_id,attempt,obs\nL1,Q1,1,1\nL2\xa0,Q1,1,0\n")
        with pytest.raises(DataError, match=r"d\.csv.*'L2\\xa0'.*surrounding whitespace"):
            parse_dataset(f)

    def test_meta_file(self, tmp_path):
        meta = tmp_path / "meta.json"
        meta.write_text(
            '{"lesson_name": "Minor Burns", "questions": '
            '{"Q1": {"text": "What is the topic?", "options": ["a", "b"], "answer": "a"}}}',
            encoding="utf-8",
        )
        f = write_csv(tmp_path / "d.csv", "learner_id,question_id,attempt,obs\nL1,Q1,1,1\n")
        ds = parse_dataset(f, meta_path=meta)
        assert ds.meta.lesson_name == "Minor Burns"
        assert ds.meta.questions["Q1"].text == "What is the topic?"
        lesson = parse_meta(meta)
        assert lesson.lesson_name == "Minor Burns" and lesson.questions["Q1"].answer == "a"

    def test_parse_keeps_no_copy_of_the_rows(self, tmp_path):
        # a lesson-sized log (42,315 rows): the parse may hold little beyond
        # the Dataset it returns, so no list of row tuples or parsed cells
        path = tmp_path / "data.csv"
        spec = SimSpec(600, 30, 9, generator="bkt-process", seed=1, stop_on_correct=True)
        write_dataset(simulate(spec).dataset, path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = parse_dataset(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n_records == 42315
        assert peak - before <= 3 * (held - before)


class TestDatasetInvariants:
    def test_index_density(self, rng):
        ds = random_dataset(rng, n_rows=50)
        assert sorted(ds.learner_index.values()) == list(range(ds.n_learners))
        assert sorted(ds.question_index.values()) == list(range(ds.n_questions))

    def test_meta_matches_records(self, rng):
        ds = random_dataset(rng, n_rows=50)
        keys = ds.keys()
        assert ds.n_learners == len({lid for lid, _, _ in keys})
        assert ds.n_questions == len({qid for _, qid, _ in keys})
        assert ds.max_attempt == max(attempt for _, _, attempt in keys)

    def test_first_repeated_key_is_named(self):
        rows = [("L1", "Q1", 1, 1), ("L2", "Q1", 1, 0), ("L2", "Q1", 1, 1), ("L1", "Q1", 1, 0)]
        with pytest.raises(DataError, match=r"duplicate .* \('L2', 'Q1', 1\)"):
            Dataset.from_records(make_records(rows))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            Dataset.from_records([])

    def test_subset_revalidates(self, rng):
        ds = random_dataset(rng, n_rows=30)
        sub = ds.subset(range(10))
        assert sub.n_records == 10
        assert sub.n_learners == len({lid for lid, _, _ in sub.keys()})


class TestColumns:
    def test_columns_follow_records(self, rng):
        full = random_dataset(rng, n_rows=40)
        full_rows = rows_of(full)
        positions = range(full.n_records - 1, 0, -2)
        for ds, rows in ((full, full_rows), (full.subset(positions), [full_rows[i] for i in positions])):
            assert ds.keys() == [r[:3] for r in rows]
            assert ds.keys(range(1, len(rows), 3)) == [r[:3] for r in rows[1::3]]
            for i, (lid, qid, attempt, obs) in enumerate(rows):
                assert ds.learner[i] == ds.learner_index[lid]
                assert ds.question[i] == ds.question_index[qid]
                assert ds.attempt[i] == attempt
                assert ds.obs[i] == (-1 if obs is None else obs)

    def test_encode_keys_maps_unseen_ids_to_minus_one(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1), ("L2", "Q2", 3, None)]))
        learner, question, attempt = encode_keys(
            [("L2", "Q1", 4), ("LX", "Q2", 1), ("L1", "QX", 2), ("LX", "QX", 7)],
            ds.learner_index,
            ds.question_index,
        )
        assert learner.tolist() == [1, -1, 0, -1]
        assert question.tolist() == [0, 1, -1, -1]
        assert attempt.tolist() == [4, 1, 2, 7]

    def test_encode_keys_of_no_rows(self):
        assert [a.size for a in encode_keys([], {}, {})] == [0, 0, 0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_subset_equals_rebuild_from_records(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n_rows = data.draw(st.integers(1, 40))
        labeled = data.draw(st.booleans())
        ds = random_dataset(np.random.default_rng(seed), n_rows=n_rows, labeled=labeled)
        ds = Dataset.from_records(rows_of(ds), LessonMeta("lesson", {}))
        positions = data.draw(
            st.lists(st.integers(0, ds.n_records - 1), min_size=1, max_size=ds.n_records, unique=True)
        )
        sub = ds.subset(positions)
        rebuilt = Dataset.from_records([rows_of(ds)[i] for i in positions], LessonMeta("lesson", {}))
        assert rows_of(sub) == rows_of(rebuilt)
        assert sub.meta == rebuilt.meta
        assert (sub.n_learners, sub.n_questions, sub.max_attempt) == (
            rebuilt.n_learners, rebuilt.n_questions, rebuilt.max_attempt
        )
        assert list(sub.learner_index.items()) == list(rebuilt.learner_index.items())
        assert list(sub.question_index.items()) == list(rebuilt.question_index.items())
        for name in ("learner", "question", "attempt", "obs"):
            assert np.array_equal(getattr(sub, name), getattr(rebuilt, name)), name


class TestFolds:
    def test_even_split(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", a, 1) for a in range(1, 11)]))
        split = make_folds(ds, 5, seed=0)
        sizes = [len(split.fold_positions(f)) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_remainder_split(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", a, 1) for a in range(1, 12)]))
        split = make_folds(ds, 5, seed=3)
        sizes = sorted(len(split.fold_positions(f)) for f in range(5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self, rng):
        ds = random_dataset(rng, n_rows=37)
        a = make_folds(ds, 5, seed=42)
        b = make_folds(ds, 5, seed=42)
        assert a.assignments == b.assignments

    def test_k_exceeds_labeled(self):
        ds = Dataset.from_records(make_records([("L1", "Q1", 1, 1), ("L1", "Q1", 2, None)]))
        with pytest.raises(DataError):
            make_folds(ds, 2, seed=0)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_partition_properties(self, k):
        master = np.random.default_rng(999)
        for trial in range(50):
            rng = np.random.default_rng(master.integers(2**32))
            ds = random_dataset(rng, n_rows=int(rng.integers(k, 60)))
            split = make_folds(ds, k, seed=trial)
            folds = [split.fold_positions(f) for f in range(k)]
            union = sorted(p for fold in folds for p in fold)
            assert union == ds.labeled_positions()
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            for f in range(k):
                assert set(folds[f]).isdisjoint(set(split.train_positions(f)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_folds_partition_the_labeled_rows(self, data):
        n_rows = data.draw(st.integers(2, 40))
        ds = random_dataset(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n_rows=n_rows)
        unlabeled = data.draw(st.sets(st.integers(0, n_rows - 1), max_size=n_rows - 2))
        ds = Dataset.from_records(
            [(*r[:3], None) if i in unlabeled else r for i, r in enumerate(rows_of(ds))]
        )
        k = data.draw(st.integers(2, n_rows - len(unlabeled)))
        split = make_folds(ds, k, seed=data.draw(st.integers(0, 2**32 - 1)))
        folds = [split.fold_positions(f) for f in range(k)]
        assert sorted(p for fold in folds for p in fold) == ds.labeled_positions()
        sizes = [len(fold) for fold in folds]
        assert max(sizes) - min(sizes) <= 1
        assert all(split.assignments[p] == -1 for p in ds.unlabeled_positions())

    def test_unlabeled_never_assigned(self):
        rows = [("L1", "Q1", a, 1 if a % 2 else None) for a in range(1, 9)]
        ds = Dataset.from_records(make_records(rows))
        split = make_folds(ds, 2, seed=0)
        for pos in ds.unlabeled_positions():
            assert split.assignments[pos] == -1


class TestSummarize:
    def test_all_correct_rates(self):
        ds = Dataset.from_records(
            make_records([("L1", "Q1", 1, 1), ("L2", "Q1", 1, 1), ("L1", "Q2", 1, 1)])
        )
        s = summarize(ds)
        assert all(rate == 1.0 for rate in s.question_correct_rate.values())

    def test_histogram_conservation(self):
        ds = Dataset.from_records(
            make_records(
                [("L1", "Q1", 1, 1), ("L1", "Q1", 2, 0), ("L1", "Q2", 1, 0), ("L1", "Q2", 2, 1)]
            )
        )
        s = summarize(ds)
        assert sum(s.attempts_histogram.values()) == 4

    def test_lesson_shaped_counts(self):
        # dimensions mirroring the third benchmark lesson: 86 learners,
        # 11 questions, up to 5 attempts
        from lppred.simulate import SimSpec, simulate_bkt

        res = simulate_bkt(SimSpec(n_learners=86, n_questions=11, max_attempt=5, seed=0))
        s = summarize(res.dataset)
        assert s.n_learners == 86
        assert s.n_questions == 11
        assert s.max_attempt == 5

    def test_text_and_json_render(self, rng):
        ds = random_dataset(rng, n_rows=25)
        s = summarize(ds)
        assert "learners" in s.to_text()
        assert s.to_dict()["n_records"] == 25
