"""Self time, worker aggregation and install/uninstall of the benchmark's spans."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans
from lppred import cli, data, gbt


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    tracer = spans.Tracer()

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5
        traced_leaf()

    def outer():
        clock.now += 3.0
        traced_middle()
        clock.now += 4.0

    traced_leaf = spans.wrap(tracer, "leaf", leaf)
    traced_middle = spans.wrap(tracer, "middle", middle)
    spans.wrap(tracer, "outer", outer)()

    assert tracer.agg.total_s == {"leaf": 4.0, "middle": 5.5, "outer": 12.5}
    assert tracer.agg.self_s == {"leaf": 4.0, "middle": 1.5, "outer": 7.0}
    assert tracer.agg.calls == {"leaf": 2, "middle": 1, "outer": 1}
    # Self times partition the root span.
    assert sum(tracer.agg.self_s.values()) == tracer.agg.total_s["outer"]


def test_raised_exceptions_are_counted_and_the_stack_unwinds():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("no")

    traced = spans.wrap(tracer, "boom", boom)
    for _ in range(2):
        try:
            traced()
        except ValueError:
            pass
    assert tracer.agg.errors == {"boom:ValueError": 2}
    assert tracer._stack() == []


def test_worker_records_merge_back(tmp_path):
    tracer = spans.Tracer(worker_dir=tmp_path)
    worker = spans.Aggregate()
    worker.self_s["gbt.fit"] = 1.5
    worker.counts["tuner.configs"] = 1
    worker.samples["tuner.config_s"] = [0.25]
    line = spans.json.dumps(worker.to_dict())
    (tmp_path / "worker-1.jsonl").write_text(line + "\n" + line + "\n")
    tracer.gather_workers()
    assert tracer.workers.self_s["gbt.fit"] == 3.0
    assert tracer.workers.counts["tuner.configs"] == 2
    assert tracer.workers.samples["tuner.config_s"] == [0.25, 0.25]
    assert not list(tmp_path.iterdir())


def test_install_wraps_call_sites_and_uninstall_restores_them():
    originals = (cli.parse_dataset, data.Dataset.__dict__["from_records"], gbt.GbtModel.fit)
    uninstall = spans.install(spans.Tracer())
    try:
        assert cli.parse_dataset is data.parse_dataset is not originals[0]
        assert cli.parse_dataset.__wrapped__ is originals[0]
        assert gbt.GbtModel.fit is not originals[2]
    finally:
        uninstall()
    assert (cli.parse_dataset, data.Dataset.__dict__["from_records"], gbt.GbtModel.fit) == originals
    assert data.parse_dataset is originals[0]
