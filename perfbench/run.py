"""Benchmark entry point for polystress.

    python3 perfbench/run.py --workload tables-100 --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 1

Each workload runs in a fresh child process with one BLAS thread, against
the library sources in ``src/`` next to this directory; nothing is built or
installed.  The child prints a human-readable report and, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The exit code is 0 only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tables-100", "scale-900", "euler-100")
CHILD_TIMEOUT_S = 170
# single-threaded BLAS: the baseline the measurements are defined on, and a
# 2-core box has no spare core for a second thread anyway
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="keys the right-hand sides and the Lanczos start vector")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum measured time of the workload's operation loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def sources_missing() -> bool:
    if (SRC / "polystress" / "__init__.py").is_file():
        return False
    print(f"polystress sources not found under {SRC}", file=sys.stderr)
    return True


def run_child(args) -> int:
    if sources_missing():
        return 2
    sys.path.insert(0, str(SRC))
    import polystress
    if Path(polystress.__file__).resolve().parent.parent != SRC:
        print(f"imported polystress from {polystress.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    return workloads.main(args.workload, args.seed, args.seconds, bool(args.trace))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return run_child(args)
    if sources_missing():
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, env={**os.environ, **BLAS_ENV},
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"workload {name} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
