"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,eval,gen} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
first repeats that untraced measurement, then measures again with every
public hoitg function wrapped in a span, and reports the per-layer metrics
plus the tracing overhead (traced minus untraced unit time). The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Exit codes: 0 all checks passed, 1 a check failed, 2 the run could not start.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# single-threaded BLAS: steadier on a shared machine, and the same on any core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "eval", "gen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "hoitg", "__init__.py")):
        print(f"perfbench: no hoitg package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # a terminated run unwinds like an exception, so the preparation child
    # is killed and reaped and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, SRC)
    import report  # imports hoitg, so only once src/ is on the path

    return report.run_and_print(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
