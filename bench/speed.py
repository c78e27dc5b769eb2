"""A reference clock for the host's current speed, read alongside each command.

On a shared host the same code runs 20-50% slower or faster from one minute
to the next, and the slow stretches follow the CPU the code runs on. A
probe pinned to each usable CPU wakes every ``PERIOD`` seconds and times a
short fixed kernel (interpreted loop plus small numpy calls) that does not
touch ``lppred``. A command's time divided by the probe's median kernel
time on the same CPU over the same interval is then a time in units of
that kernel: host drift cancels, a faster program still reads lower.

Run as a script, this file is one probe:

    python3 bench/speed.py --cpu 0

It prints ``end duration`` (``time.perf_counter`` seconds) per kernel run
until its standard output is closed.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

PERIOD = 0.05
MIN_SAMPLES = 9  # a short command is judged by the nearest samples instead
_VECTOR = np.random.default_rng(7).standard_normal(256)


def kernel() -> float:
    acc = 0.0
    for i in range(6000):
        acc += (i * 7919 % 10007) * 1e-6
    v = _VECTOR
    for _ in range(100):
        v = np.tanh(v * 0.5 + 0.1)
    return acc + float(v[0])


def usable_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]


class Speedometer:
    """One probe process per CPU; ``reference`` reads them over an interval."""

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.samples: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in cpus}
        self._procs: list[subprocess.Popen] = []
        self._readers: list[threading.Thread] = []

    def __enter__(self) -> "Speedometer":
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    [sys.executable, __file__, "--cpu", str(cpu)],
                    stdout=subprocess.PIPE, text=True)
                self._procs.append(proc)
                reader = threading.Thread(target=self._read, args=(proc, self.samples[cpu]), daemon=True)
                reader.start()
                self._readers.append(reader)
            deadline = time.perf_counter() + 30
            while any(len(s) < MIN_SAMPLES for s in self.samples.values()):
                if time.perf_counter() > deadline or any(p.poll() is not None for p in self._procs):
                    raise RuntimeError("speed probe did not start")
                time.sleep(PERIOD)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()
        for reader in self._readers:
            reader.join()

    @staticmethod
    def _read(proc: subprocess.Popen, out: list) -> None:
        for line in proc.stdout:
            end, duration = line.split()
            out.append((float(end), float(duration)))
        proc.stdout.close()

    def reference(self, start: float, end: float, cpus: list[int]) -> float:
        """Median kernel time on ``cpus`` between ``start`` and ``end``."""
        durations = []
        for cpu in cpus:
            inside = [d for t, d in self.samples[cpu] if start <= t <= end]
            if len(inside) < MIN_SAMPLES:
                mid = (start + end) / 2
                nearest = sorted(self.samples[cpu], key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
                inside = [d for _, d in nearest]
            durations += inside
        return statistics.median(durations)


def probe(cpu: int) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    kernel()
    try:
        while True:
            time.sleep(PERIOD)
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            sys.stdout.write(f"{end:.6f} {end - start:.7f}\n")
            sys.stdout.flush()
    except (BrokenPipeError, KeyboardInterrupt):
        pass


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    probe(args.cpu)
