#!/usr/bin/env python3
"""Benchmark of sosdw: cross-checked partition functions and identity suites.

Run from the root of a checkout:

    python3 bench/run.py --workload crosscheck_L5 --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
jobs once more under tracing and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.
"""

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv=None) -> int:
    root = Path(__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    src = root / "src"
    if not (src / "sosdw" / "__init__.py").is_file():
        print(f"error: no sosdw sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads; children inherit it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import harness

    return harness.main(args, declared)


if __name__ == "__main__":
    sys.exit(main())
