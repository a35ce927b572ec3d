"""Write one workload's inputs: the untimed preparation step of a run.

    python3 perfbench/prepare.py < pickled (workload name, Setting, work dir, seed)

``bench.prepare`` starts this as a child process and waits for it, so the
memory preparation takes is not in the measuring process's peak RSS.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import bench  # noqa: E402  (needs src/ on the path)


def main() -> int:
    name, setting, work_dir, seed = pickle.load(sys.stdin.buffer)
    # the measuring run's stdout ends in its result line; keep it clean
    with contextlib.redirect_stdout(sys.stderr):
        bench.WORKLOADS[name](setting, work_dir, seed).prepare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
