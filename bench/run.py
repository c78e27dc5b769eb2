"""Run one workload of the lppred benchmark and print its metrics.

    python3 bench/run.py --workload cv-lesson --seed 1 --seconds 35 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("cv-lesson", "tune-slice", "bulk-log")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lppred" / "__init__.py").is_file():
        print(f"error: lppred sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    import harness  # needs lppred on the path
    import workloads

    return harness.main(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
