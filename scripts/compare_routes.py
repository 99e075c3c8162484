#!/usr/bin/env python3
"""Compare all computation routes on seeded random parameter draws.

Unlike `sosdw compute`, which evaluates one fixed parameter set from a
config file, this script draws admissible random parameters for a range
of system sizes and reports the worst pairwise relative deviation per
size, which is a quick health check of the whole stack.

Example:
    python scripts/compare_routes.py --lmin 1 --lmax 4 --draws 5 --seed 0
"""

from __future__ import annotations

import argparse
import random
import sys

from sosdw.cli import DEFAULT_TOLERANCES, pairwise_deviations
from sosdw.core import ROUTE_TABLE
from sosdw.sampling import draw_model

# The routes that are exact up to rounding; quadrature stops at its own
# convergence threshold, so it is left out of the comparison.
EXACT_ROUTES = tuple(r for r in ROUTE_TABLE if r != "quadrature")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lmin", type=int, default=1)
    ap.add_argument("--lmax", type=int, default=4)
    ap.add_argument("--draws", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    # A sweep that compares nothing must not read as a pass.
    if args.lmin < 1:
        ap.error("--lmin must be at least 1")
    if args.lmax < args.lmin:
        ap.error("--lmax must be at least --lmin")
    if args.draws < 1:
        ap.error("--draws must be at least 1")
    sizes = {L: [r for r in EXACT_ROUTES if L <= ROUTE_TABLE[r].cap]
             for L in range(args.lmin, args.lmax + 1)}
    if all(len(routes) < 2 for routes in sizes.values()):
        ap.error(f"no size in L = {args.lmin}..{args.lmax} has two exact "
                 f"routes to compare")

    tol = DEFAULT_TOLERANCES["route_agreement"]
    overall = 0.0
    for L, routes in sizes.items():
        if len(routes) < 2:
            print(f"L={L}: fewer than two routes available, skipping")
            continue
        rng = random.Random(args.seed * 1000 + L)
        worst = 0.0
        for _ in range(args.draws):
            params, lams = draw_model(rng, L, routes=tuple(routes))
            values = {r: ROUTE_TABLE[r].evaluate(params, lams, None)[0]
                      for r in routes}
            for dev in pairwise_deviations(values, tol):
                worst = max(worst, dev["relative"])
        print(f"L={L}: routes {','.join(routes)}  draws {args.draws}  "
              f"worst relative deviation {worst:.3g}")
        overall = max(overall, worst)

    ok = overall < tol
    print(f"overall worst deviation {overall:.3g} -> "
          f"{'PASS' if ok else 'FAIL'} (tolerance {tol:.3g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
