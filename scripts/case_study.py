#!/usr/bin/env python3
"""Reproduce the headline case studies: policy comparison tables plus the
exact roulette expectations, on the shipped named instances."""

import argparse

from deskfair.cli import POLICIES, run_policy
from deskfair.generators import case_study_names, gen_case_study
from deskfair.instance import SolverStopped
from deskfair.metrics import format_rational
from deskfair.policies import roulette_expectation
from deskfair.reports import comparison_table, comparison_to_text


def show(name, policies, seed):
    inst = gen_case_study(name)
    print(f"=== {name}  (authors={inst.n}, papers={inst.m}, x={inst.x}) ===")
    records = [run_policy(inst, p, seed=seed) for p in policies]
    print(comparison_to_text(comparison_table(inst, records)))
    try:
        e_ind, e_group = roulette_expectation(inst)
        print(f"roulette expectation: E[worst-case cost] = {format_rational(e_ind)}, "
              f"E[mean cost] = {format_rational(e_group)}")
    except SolverStopped as exc:
        print(f"roulette expectation skipped: {exc}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", action="append", choices=case_study_names(),
                        help="case to run (repeatable); default: all")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cases = args.case or list(case_study_names())
    for name in cases:
        show(name, POLICIES, args.seed)


if __name__ == "__main__":
    main()
