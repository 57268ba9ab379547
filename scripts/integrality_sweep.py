#!/usr/bin/env python3
"""Sweep random instances and measure how often the LP relaxation of the
mean-cost problem fails to be integral (gap > 1e-6 vs the exact optimum).

The observed rate for the default parameters is recorded in docs/numerics.md.
"""

import argparse
import random

from deskfair import solvers
from deskfair.generators import gen_random
from deskfair.reports import audit_to_dict


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-m", type=int, default=12)
    parser.add_argument("--max-x", type=int, default=4)
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--verbose", action="store_true", help="print every counterexample")
    args = parser.parse_args()
    for flag, least in (("count", 1), ("max_n", 2), ("max_m", 2), ("max_x", 1)):
        value = getattr(args, flag)
        if value < least:
            parser.error(f"--{flag.replace('_', '-')} must be at least {least}, got {value}")

    rng = random.Random(args.seed)
    hits = 0
    max_gap = 0.0
    for trial in range(args.count):
        n = rng.randint(2, args.max_n)
        m = rng.randint(2, args.max_m)
        x = rng.randint(1, args.max_x)
        density = rng.choice([0.3, 0.6])
        inst = gen_random(n, m, x, density, trial)
        record = solvers.solve_group_exact(inst)
        audit = audit_to_dict(record)
        if audit["counterexample"]:
            hits += 1
            max_gap = max(max_gap, audit["gap"])
            if args.verbose:
                print(f"counterexample: n={n} m={m} x={x} density={density} seed={trial} "
                      f"lp={audit['lp_objective']:.6f} ilp={record.objective} gap={audit['gap']:.6f}")
    print(f"instances={args.count} counterexamples={hits} "
          f"rate={hits / args.count:.3f} max_gap={max_gap:.6f}")


if __name__ == "__main__":
    main()
