"""deskfair benchmark: exact-checked solves, end to end and layer by layer.

    python3 bench/run.py --workload conference --seed 0 --seconds 30 --trace 0

Each workload is a fixed batch of (instance, policy) solves, run as a
single-process, single-thread closed loop with one client: every solve is
``deskfair.cli.main(["solve", "--input", I, "--policy", P, "--output", O])``
in-process, and the next starts when it returns. The batch repeats until
``--seconds`` would be exceeded. After every batch, outside the timed region,
each output is checked exactly by ``verify.py``; a wrong answer prints a
result with ``"correct": false`` and exits 1.

Times are reported in reference-CPU seconds (see ``calibrate.py``), and
each solve's time in a run is its lower-quartile repetition.

``--trace 0`` reports the end-to-end metrics from untraced batches.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics (see ``tracing.py``), the per-policy solve times and the
tracing overhead. The last stdout line is the JSON result; the raw numbers
(every repetition, raw and calibrated, and the spans) go to ``.bench_run/``
in the checkout.

A solve fails when it raises or returns an unexpected exit code; failures
are counted, tallied by class and kept in the batch time, but are not
verified. Every solve runs with ``DESKFAIR_NODE_LIMIT=1000000``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
NODE_LIMIT = "1000000"
SETUP_SAMPLES = 11

sys.path.insert(0, str(HERE))

from calibrate import Calibrator  # noqa: E402
from inputs import WORKLOADS, build_inputs  # noqa: E402
from tracing import Tracer  # noqa: E402
from verify import Problem, WrongAnswer, check_output  # noqa: E402

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import deskfair.cli; print(time.perf_counter() - t)"
)
FAILURE_CLASSES = ("RecursionError", "NodeLimitExceeded", "SolverStalled", "NumericalBreakdown")
POLICY_TIMES = {
    "group_exact_s": ("group-exact",),
    "group_lp_s": ("group-lp",),
    "individual_exact_s": ("individual-exact",),
    "ideal_s": ("ideal",),
    "heuristic_s": ("conventional", "roulette"),
}


def pin_environment() -> None:
    """One thread for numpy's BLAS, and the same node budget on every commit."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["DESKFAIR_NODE_LIMIT"] = NODE_LIMIT
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_cli():
    import deskfair.cli

    if Path(deskfair.cli.__file__).resolve().parent != SRC / "deskfair":
        raise ImportError(f"deskfair was imported from {deskfair.cli.__file__}, not from {SRC}")
    return deskfair.cli


def measure_setup(samples: int) -> tuple[list[float], float]:
    """Seconds to import deskfair.cli (numpy included) in fresh processes,
    and the calibration scale measured in between."""
    calibrator = Calibrator(share=0.5)  # few, short samples: calibrate more densely
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], env=os.environ.copy(),
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
        calibrator.after(out[-1])
    return out, calibrator.scale


@dataclass(frozen=True)
class Job:
    index: int        # instance position in the workload
    policy: str
    input: Path
    output: Path

    @property
    def argv(self) -> list[str]:
        return ["solve", "--input", str(self.input), "--policy", self.policy, "--output", str(self.output)]

    @property
    def expected_codes(self) -> tuple[int, ...]:
        return (0, 2) if self.policy == "ideal" else (0,)


@dataclass
class Solve:
    job: Job
    raw_seconds: float  # wall time on this machine
    code: int | None
    error: str | None  # exception class, or "ExitCode<k>" for an unexpected exit code
    seconds: float = 0.0  # in reference-CPU seconds, set once the batch's calibration is known

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class Batch:
    traced: bool
    scale: float  # reference-CPU seconds per second measured in this batch
    solves: list[Solve]
    layers: dict = field(default_factory=dict)  # tracer summary, traced batches only
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    bytes_out: int = 0

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.solves)


def run_batch(cli, jobs: list[Job], traced: bool) -> Batch:
    for job in jobs:
        job.output.unlink(missing_ok=True)
    tracer = Tracer() if traced else None
    calibrator = Calibrator()
    solves = []
    with contextlib.redirect_stderr(io.StringIO()), (tracer or contextlib.nullcontext()):
        for job in jobs:
            # Start every solve from an empty heap, as a fresh `deskfair solve`
            # process would, so no solve pays for collecting another's garbage.
            gc.collect()
            t0 = perf_counter()
            try:
                code = cli.main(job.argv)
                error = None if code in job.expected_codes else f"ExitCode{code}"
            except Exception as exc:  # a failed solve is counted, not fatal
                code, error = None, type(exc).__name__
            solves.append(Solve(job, perf_counter() - t0, code, error))
            calibrator.after(solves[-1].raw_seconds)
    batch = Batch(traced, calibrator.scale, solves)
    for s in solves:
        s.seconds = s.raw_seconds * batch.scale
    if tracer:
        batch.layers, batch.spans, batch.missing = tracer.summary(), tracer.spans, tracer.missing
        batch.bytes_out = sum(j.output.stat().st_size for j in jobs if j.output.exists())
    return batch


def verify_batch(batch: Batch, problems: list[Problem], refs: list[dict]) -> None:
    for s in batch.solves:
        if s.failed:
            continue
        out = json.loads(s.job.output.read_text())
        try:
            check_output(problems[s.job.index], s.job.policy, s.code, out, refs[s.job.index])
        except WrongAnswer as exc:
            raise WrongAnswer(f"{s.job.input.name} {s.job.policy}: {exc}") from None


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def lower_quartile(batches: list[Batch]) -> list[Solve]:
    """Each job's lower-quartile repetition across the batches.

    Calibration removes most of the machine's speed changes, but a solve
    slowed by a burst shorter than the batch still reads long; the lower
    quartile skips those without trusting one lucky repetition.
    """
    return [sorted(reps, key=lambda s: s.seconds)[len(reps) // 4] for reps in zip(*(b.solves for b in batches))]


def end_to_end(untraced: list[Batch], setup: list[float], setup_scale: float) -> dict[str, tuple[float, str]]:
    solves = lower_quartile(untraced)
    return {
        "batch_s": (sum(s.seconds for s in solves), "s"),
        "solve_p50_s": (median(s.seconds for s in solves if not s.failed), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (median(setup) * setup_scale, "s"),
    }


def layer_values(batch: Batch) -> dict[str, float]:
    """Per-layer numbers of one traced batch, times in reference-CPU seconds."""
    L = batch.layers

    def self_s(*names):
        return sum(L[n]["self_s"] for n in names if n in L) * batch.scale

    def calls(*names):
        return sum(L[n]["calls"] for n in names if n in L)

    def count(name, key):
        return L.get(name, {}).get("counts", {}).get(key, 0)

    lp_solve_s, pivots = self_s("lp.solve"), count("lp.solve", "pivots")
    bnb_nodes, dfs_nodes, dfs_s = count("solvers.bnb", "nodes"), count("solvers.dfs", "nodes"), self_s("solvers.dfs")
    errors = [s.error for s in batch.solves if s.failed]
    values = {
        "instance.load_s": self_s("instance.load"),
        "instance.incidence_s": self_s("instance.incidence"),
        "instance.incidence_cells": count("instance.incidence", "cells"),
        "lp.build_s": self_s("lp.build"),
        "lp.tableau_mb": count("lp.solve", "tableau_mb"),
        "lp.solve_s": lp_solve_s,
        "lp.calls": calls("lp.solve"),
        "lp.pivots": pivots,
        "lp.s_per_pivot": lp_solve_s / pivots if pivots else 0.0,
        "solvers.bnb_nodes": bnb_nodes,
        "solvers.bnb_self_s": self_s("solvers.bnb"),
        "solvers.bnb_pruned_ratio": count("solvers.bnb", "pruned") / bnb_nodes if bnb_nodes else 0.0,
        "solvers.dfs_nodes": dfs_nodes,
        "solvers.dfs_s": dfs_s,
        "solvers.dfs_nodes_per_s": dfs_nodes / dfs_s if dfs_s else 0.0,
        "policies.conventional_s": self_s("policies.conventional"),
        "policies.roulette_s": self_s("policies.roulette"),
        "metrics.evaluate_s": self_s("metrics.evaluate"),
        "metrics.certify_s": self_s("metrics.group_objective", "metrics.is_feasible"),
        "metrics.calls": calls("metrics.evaluate", "metrics.group_objective", "metrics.is_feasible"),
        "reports.serialize_s": self_s("reports.serialize"),
        "reports.bytes_out": batch.bytes_out,
        "cli.self_s": self_s("cli.main"),
    }
    for name in FAILURE_CLASSES:
        values[f"solvers.failures.{name}"] = errors.count(name)
    values["solvers.failures.other"] = sum(e not in FAILURE_CLASSES for e in errors)
    return values


LAYER_UNITS = {"_per_s": "1/s", "_per_pivot": "s", "_s": "s", "_mb": "MB", "_ratio": "1", "bytes_out": "B"}


def layer_unit(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def per_layer(untraced: list[Batch], traced: list[Batch]) -> dict[str, tuple[float, str]]:
    best_traced = min(traced, key=lambda b: b.seconds)
    values = layer_values(best_traced)
    solves = lower_quartile(untraced)
    for name, policies in POLICY_TIMES.items():
        values[name] = median(s.seconds for s in solves if not s.failed and s.job.policy in policies)
    everything = [s for b in untraced + traced for s in b.solves]
    values["fail_ratio"] = sum(s.failed for s in everything) / len(everything)
    values["trace.batch_s"] = best_traced.seconds
    values["trace.overhead_s"] = best_traced.seconds - min(b.seconds for b in untraced)
    return {name: (value, layer_unit(name)) for name, value in values.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deskfair" / "cli.py").is_file():
        print(f"bench: no deskfair sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    setup, setup_scale = measure_setup(SETUP_SAMPLES) if not args.trace else ([], 1.0)
    cli = import_cli()

    workload = WORKLOADS[args.workload]
    fixtures = json.loads((HERE / "fixtures.json").read_text())[workload.name]
    inputs = build_inputs(workload, args.seed)
    for inp, ref in zip(inputs, fixtures, strict=True):
        if (inp.structure_sha256, inp.seed0_sha256) != (ref["structure_sha256"], ref["seed0_sha256"]):
            print(f"bench: input drift in {inp.label}: generated digests differ from fixtures.json",
                  file=sys.stderr)
            return 3

    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    jobs = []
    for k, inp in enumerate(inputs):
        path = run_dir / f"in-{k:02d}.json"
        path.write_bytes(inp.data)
        jobs += [Job(k, p, path, run_dir / f"out-{k:02d}-{p}.json") for p in workload.policies]
    problems = [Problem(json.loads(inp.data)) for inp in inputs]

    cycle = (False, True) if args.trace else (False,)
    batches: list[Batch] = []
    cost = {}  # seconds of the last batch of each kind, verification included
    deadline = perf_counter() + args.seconds
    correct, message = True, None
    while True:
        traced = cycle[len(batches) % len(cycle)]
        if len(batches) >= len(cycle) and perf_counter() + cost[traced] > deadline:
            break
        t0 = perf_counter()
        batch = run_batch(cli, jobs, traced)
        batches.append(batch)
        try:
            verify_batch(batch, problems, fixtures)
        except WrongAnswer as exc:
            correct, message = False, str(exc)
            break
        cost[traced] = perf_counter() - t0

    untraced = [b for b in batches if not b.traced]
    traced_batches = [b for b in batches if b.traced]
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = per_layer(untraced, traced_batches)
    else:
        metrics = end_to_end(untraced, setup, setup_scale)

    solves = [s for b in batches for s in b.solves]
    tally: dict[str, int] = {}
    for s in solves:
        if s.failed:
            tally[s.error] = tally.get(s.error, 0) + 1
    raw = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "node_limit": int(NODE_LIMIT), "correct": correct, "wrong_answer": message,
        "batches": [{"traced": b.traced, "scale": b.scale, "seconds": b.seconds} for b in batches],
        "solves": [
            {"input": reps[0].job.input.name, "policy": reps[0].job.policy,
             "seconds": [s.seconds for s in reps], "raw_seconds": [s.raw_seconds for s in reps],
             "errors": [s.error for s in reps]}
            for reps in zip(*(b.solves for b in batches))
        ],
        "setup": {"raw_seconds": setup, "scale": setup_scale},
        "failures": tally,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "untraced_targets": traced_batches[0].missing if traced_batches else [],
    }
    (run_dir / "result.json").write_text(json.dumps(raw, indent=1) + "\n")
    for k, b in enumerate(traced_batches):
        (run_dir / f"spans-{k}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "counts"], "spans": b.spans}) + "\n")

    if message:
        print(f"bench: WRONG ANSWER: {message}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {len(batches)} batches of "
          f"{len(jobs)} solves, failures {tally or 'none'}; raw numbers in {run_dir.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(solves),
        "failed": sum(s.failed for s in solves),
        "metrics": raw["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
