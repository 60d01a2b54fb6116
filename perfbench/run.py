#!/usr/bin/env python3
"""Run one workload of the trustmerge benchmark.

    python3 perfbench/run.py --workload {train,analyze,cli} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run it from the root of a checkout: it measures the package under ``src/``
of that checkout, never an installed copy, and fails with exit code 2 when
``src/trustmerge`` is missing.  The last line of standard output is the JSON
result; the lines above it give each metric with its unit and sample count,
the machine and provenance, and the sha256 of every artifact.  Work files go
to ``.perfbench_work/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "analyze", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size inputs and repeats, for the benchmark's own tests")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trustmerge" / "__init__.py").is_file():
        print(f"error: no trustmerge sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Tiny matrices: BLAS threads add only noise.  Set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import bench

    if args.setup_probe:
        bench.setup_probe(args.workload, args.seed, args.setup_probe, args.smoke)
        return 0
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
