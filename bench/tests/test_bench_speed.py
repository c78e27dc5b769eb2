"""The reference clock: probe samples, interval medians, pinning and clean stops."""

import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest

import harness
import speed


def test_reference_is_the_median_inside_the_interval_or_of_the_nearest_samples():
    meter = speed.Speedometer([0, 1])
    meter.samples[0] = [(float(t), 1.0 + t) for t in range(20)]
    meter.samples[1] = [(float(t), 100.0) for t in range(20)]
    # 11 samples inside [4, 14] on CPU 0: durations 5..15
    assert meter.reference(4.0, 14.0, [0]) == 10.0
    # fewer than MIN_SAMPLES inside: the 9 nearest to the midpoint 10.25, durations 7..15
    assert meter.reference(10.0, 10.5, [0]) == 11.0
    # several CPUs pool their samples
    assert meter.reference(0.0, 19.0, [0, 1]) == 60.0


def test_probes_report_and_stop():
    cpus = speed.usable_cpus()
    with speed.Speedometer(cpus) as meter:
        time.sleep(0.2)
        start = time.perf_counter()
        time.sleep(0.6)
        ref = meter.reference(start, time.perf_counter(), cpus)
    assert 0 < ref < 0.1
    assert all(len(s) >= speed.MIN_SAMPLES for s in meter.samples.values())
    assert all(p.poll() is not None for p in meter._procs)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_pinned_restores_the_affinity():
    before = os.sched_getaffinity(0)
    with harness.pinned([min(before)]):
        assert os.sched_getaffinity(0) == {min(before)}
    assert os.sched_getaffinity(0) == before
