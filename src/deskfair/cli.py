"""Command-line entry point.

Subcommands: solve, compare, check-ideal, audit-integrality, gen,
reduce-setcover. Exit codes: 0 success, 1 input error, 2 requested outcome
infeasible, 3 solver stopped without a result (node limit, stall or
numerical breakdown). All commands are deterministic given input and
--seed; roulette without --seed uses seed 0.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace

from . import policies
from .generators import (
    case_study_names,
    gen_case_study,
    gen_leave_one_out,
    gen_random,
    gen_triangle,
)
from .instance import (
    Instance,
    InstanceError,
    SolverStopped,
    instance_to_dict,
    load_instance,
    load_json,
)
from .jsontext import dumps_indented
from .policies import RunRecord
from .reports import (
    audit_to_dict,
    comparison_table,
    comparison_to_csv,
    comparison_to_text,
    printable,
    run_record_to_dict,
    split_papers,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 is reserved for "infeasible"
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _solvers():
    """The `solvers` module, imported on first use: it loads numpy, which
    the baseline policies, `gen` and a malformed instance do without."""
    from . import solvers

    return solvers


def _group_lp(inst: Instance, seed: int | None) -> RunRecord:
    record = _solvers().solve_group_exact(inst)
    note = ("relaxation optimum integral; certified exactly" if record.diagnostics.lp_integral
            else "relaxation optimum fractional; fell back to exact search")
    return replace(record, policy="group-lp", note=note)


# Each runner looks its entry point up through the module at call time, so a
# wrapper patched onto the module attribute (a tracer, a test spy) sees the call.
_RUNNERS = {
    "conventional": lambda inst, seed: policies.conventional_desk_reject(inst),
    "roulette": lambda inst, seed: policies.roulette_reject(inst, 0 if seed is None else seed),
    "group-lp": _group_lp,
    "group-exact": lambda inst, seed: _solvers().solve_group_exact(inst),
    "individual-exact": lambda inst, seed: _solvers().solve_individual_exact(inst),
    "ideal": lambda inst, seed: _solvers().solve_ideal_feasibility(inst),
}
POLICIES = tuple(_RUNNERS)


def _check_policy(policy: str) -> str:
    """`policy`, if it names one; raises :class:`InstanceError` otherwise."""
    if policy not in _RUNNERS:
        raise InstanceError(f"unknown policy {policy!r}; choose from {', '.join(POLICIES)}")
    return policy


def run_policy(inst: Instance, policy: str, seed: int | None = None) -> RunRecord:
    """Run one policy and time it; a record with keep=None means the outcome
    does not exist."""
    runner = _RUNNERS[_check_policy(policy)]
    t0 = time.perf_counter()
    record = runner(inst, seed)
    return replace(record, runtime_ms=(time.perf_counter() - t0) * 1000.0)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _write_json(path: str | None, payload: dict):
    _write_text(path, dumps_indented(payload))


def _load_input(args) -> Instance:
    if not args.input:
        raise InstanceError("--input is required")
    inst = load_instance(args.input)
    if args.limit is not None:
        inst = inst.with_cap(args.limit)
    return inst


def cmd_solve(args) -> int:
    inst = _load_input(args)
    policy = _check_policy(args.policy or "group-exact")
    if args.dump_lp:  # the relaxation depends on the instance only
        from .lp import to_mps

        _write_text(args.dump_lp, to_mps(_solvers().build_group_relaxation(inst)))
    record = run_policy(inst, policy, seed=args.seed)
    _write_json(args.output, run_record_to_dict(record, inst))
    if record.keep is None:
        print(f"INFEASIBLE: {record.note}", file=sys.stderr)
        return 2
    return 0


def cmd_compare(args) -> int:
    inst = _load_input(args)
    requested = args.policy or [p for p in POLICIES if p != "ideal"]
    names: list[str] = []
    for chunk in requested:
        names.extend(_check_policy(p.strip()) for p in chunk.split(",") if p.strip())
    if not names:
        raise InstanceError("--policy names no policy")
    records = [run_policy(inst, p, seed=args.seed) for p in names]
    table = comparison_table(inst, records)
    if args.output:
        base = args.output
        for suffix in (".json", ".csv"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        _write_json(base + ".json", table)
        _write_text(base + ".csv", comparison_to_csv(table))
    print(comparison_to_text(table))
    return 0


def cmd_check_ideal(args) -> int:
    inst = _load_input(args)
    witness = run_policy(inst, "ideal").keep
    if witness is None:
        if args.output:
            _write_json(args.output, {"feasible": False})
        print("INFEASIBLE")
        return 2
    kept, rejected = split_papers(inst, witness)
    if args.output:
        _write_json(args.output, {
            "feasible": True, "kept_papers": kept, "rejected_papers": rejected,
        })
    print("IDEAL FEASIBLE")
    print("keep:   " + (" ".join(map(printable, kept)) if kept else "(none)"))
    print("reject: " + (" ".join(map(printable, rejected)) if rejected else "(none)"))
    return 0


def cmd_audit_integrality(args) -> int:
    if args.input:
        _reject_unread(args, "--input", ())
        _write_json(args.output, audit_to_dict(_solvers().solve_group_exact(_load_input(args))))
        return 0
    if not args.family:
        raise InstanceError("audit-integrality needs --input or --family")
    details = []
    for label, inst in _sweep_instances(args, 1 if args.count is None else args.count):
        entry = audit_to_dict(_solvers().solve_group_exact(inst))
        entry["instance"] = label
        details.append(entry)
    counterexamples = sum(entry["counterexample"] for entry in details)
    payload = {
        "instances": len(details),
        "counterexamples": counterexamples,
        "counterexample_rate": counterexamples / len(details),
        "details": details,
    }
    _write_json(args.output, payload)
    return 0


# The family flags each family reads besides --limit, which every family reads.
_FAMILY_READS = {"random": ("seed", "n", "m", "density", "count"), "triangle": (),
                 "leave-one-out": ("n",), "case-study": ("case",)}


def _reject_unread(args, source: str, reads) -> None:
    """Raise :class:`InstanceError` naming every family flag given that `source` does not read."""
    unread = [f for f in ("family", "case", "seed", "n", "m", "density", "count")
              if f not in reads and getattr(args, f, None) is not None]
    if unread:
        raise InstanceError(f"{source} does not read --{', --'.join(unread)}")


def _sweep_instances(args, count: int):
    """`count` instances of the `--family` family, each labelled with its cap
    (`--limit`, if given); only the random family has more than one, and it
    builds each as the caller reads it. The flags given and `count` are
    checked before this returns, the random family's values by `gen_random`
    as it builds the first instance."""
    family = args.family
    if family not in _FAMILY_READS:
        raise InstanceError(f"unknown family {family!r}")
    _reject_unread(args, f"--family {family}", ("family", *_FAMILY_READS[family]))
    if family == "random":
        if count < 1:
            raise InstanceError(f"--count must be at least 1, got {count}")
        missing = [f for f in ("n", "m", "density", "limit") if getattr(args, f) is None]
        if missing:
            raise InstanceError(f"--family random needs --{', --'.join(missing)}")
        base = args.seed if args.seed is not None else 0
        return (
            (f"random(n={args.n},m={args.m},x={args.limit},density={args.density},seed={base + i})",
             gen_random(args.n, args.m, args.limit, args.density, base + i))
            for i in range(count)
        )
    params = ""
    if family == "triangle":
        name, inst = "triangle", gen_triangle()
    elif family == "leave-one-out":
        if args.n is None:
            raise InstanceError("--family leave-one-out needs --n")
        name, inst, params = "leave_one_out", gen_leave_one_out(args.n), f"n={args.n},"
    else:
        if not args.case:
            raise InstanceError("--family case-study needs --case")
        name, inst = args.case, gen_case_study(args.case)
    if args.limit is not None:
        inst = inst.with_cap(args.limit)
    return [(f"{name}({params}x={inst.x})", inst)]


def cmd_gen(args) -> int:
    if not args.family:
        raise InstanceError("gen needs --family")
    [(_, inst)] = _sweep_instances(args, 1)
    _write_json(args.output, instance_to_dict(inst))
    return 0


def cmd_reduce_setcover(args) -> int:
    if not args.input:
        raise InstanceError("--input is required")
    solvers = _solvers()
    sc = solvers.set_cover_from_json(load_json(args.input), budget=args.budget)
    inst = solvers.reduce_set_cover(sc)
    payload = {"instance": instance_to_dict(inst), "budget": sc.budget}
    if args.decide:
        answer, witness = solvers.decide_cover(inst)
        payload["decision"] = {
            "coverable": answer,
            "witness_sets": [inst.paper_ids[j] for j in witness] if witness is not None else None,
        }
    _write_json(args.output, payload)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use; parsing leaves no
    state in it."""
    parser = _Parser(prog="deskfair", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    shared = {
        "--input": {"help": "instance JSON file"},
        "--output": {"help": "write the result here instead of stdout"},
        "--seed": {"type": int, "help": "seed for roulette or the random family (default 0)"},
        "--limit": {"type": int, "help": "override the submission cap x"},
        "--family": {"help": "instance family: triangle, leave-one-out, case-study, random"},
        "--case": {"help": f"case-study name: {', '.join(case_study_names())}"},
        "--n": {"type": int},
        "--m": {"type": int},
        "--density": {"type": float},
    }
    family = ("--family", "--case", "--n", "--m", "--density")

    def add(name, summary, func, *flags):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    p = add("solve", "run one policy on an instance", cmd_solve,
            "--input", "--output", "--seed", "--limit")
    p.add_argument("--policy", help=f"one of: {', '.join(POLICIES)}")
    p.add_argument("--dump-lp", help="also write the full group relaxation in MPS layout (any policy)")

    p = add("compare", "run several policies and tabulate", cmd_compare,
            "--input", "--output", "--seed", "--limit")
    p.add_argument("--policy", action="append",
                   help="policy to include (repeat or comma-separate); default: all but ideal")

    add("check-ideal", "witness or refute a collateral-free rejection", cmd_check_ideal,
        "--input", "--output", "--limit")

    p = add("audit-integrality", "compare relaxation vs exact optimum", cmd_audit_integrality,
            "--input", "--output", "--seed", "--limit", *family)
    p.add_argument("--count", type=int, help="number of random instances to sweep")

    add("gen", "emit an instance from a named family", cmd_gen,
        "--output", "--seed", "--limit", *family)

    p = add("reduce-setcover", "encode a set-cover question as an instance", cmd_reduce_setcover,
            "--input", "--output")
    p.add_argument("--budget", type=int, help="max number of sets in the cover (overrides input)")
    p.add_argument("--decide", action="store_true", help="also decide coverability")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # bad flags exit 1 (via _Parser), --help exits 0
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (InstanceError, OSError) as exc:
        print(f"deskfair: error: {exc}", file=sys.stderr)
        return 1
    except SolverStopped as exc:
        print(f"deskfair: error: solver stopped without a result: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
