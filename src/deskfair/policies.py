"""Baseline rejection policies and the constructive ideal algorithm for n <= 2.

The conventional policy walks papers in submission order and drops any paper
whose coauthor already has the cap's worth of registered papers. The roulette
policy repeatedly rejects a uniformly random kept paper of the most over-cap
author. Both always terminate with a feasible keep set.

`RunRecord` is what every policy run returns, here and in `solvers`, and
`SolverDiagnostics` is what an exact solve of `solvers` adds to it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import metrics
from .instance import Instance, KeepVector, SolverStopped
from .metrics import FairnessReport

MAX_ROULETTE_OUTCOMES = 100_000


@dataclass(frozen=True)
class SolverDiagnostics:
    """How an exact solve got its answer, built from the one tally its
    searches write into. `lp_rows` and `lp_cols` are None exactly when
    `lp_calls` is 0."""

    node_count: int = 0
    nodes_pruned: int = 0              # nodes closed by the bound test, after their LP
    lp_calls: int = 0
    lp_pivots: int = 0                 # dual simplex pivots over all LP calls
    lp_bound_flips: int = 0            # long-step flips, not in lp_pivots
    lp_objective: float | None = None  # root relaxation value of the full LP
    lp_integral: bool | None = None    # was the root relaxation already 0/1
    lp_rows: int | None = None         # size of the last LP searched,
    lp_cols: int | None = None         # after presolve
    best_bound: float | None = None    # proven upper bound on the optimum
    incumbent_trace: tuple[Fraction, ...] = ()  # exact objective at each improvement


@dataclass(frozen=True)
class RunRecord:
    """One policy run on one instance: the keep set and its exact per-author
    costs, plus what the policy reports about how it got there."""

    policy: str
    keep: KeepVector | None  # None: the requested outcome does not exist
    report: FairnessReport | None
    runtime_ms: float | None = None  # set by `cli.run_policy`, which times the run
    seed: int | None = None
    # The exact optimum of the solved criterion: total kept fraction
    # (maximized) for `group-exact`, worst-case cost (minimized) for
    # `individual-exact`.
    objective: Fraction | None = None
    diagnostics: SolverDiagnostics | None = None
    trace: tuple[tuple[str, str, str], ...] | None = None  # (paper id, decision, reason)
    note: str | None = None


def _conventional(inst: Instance) -> tuple[KeepVector, tuple[int | None, ...]]:
    """The conventional keep rule: paper j is dropped iff, at its turn, some
    coauthor already has x registered (kept) papers. Also returns, per
    paper, the first such coauthor, or None for a kept paper."""
    registered = [0] * inst.n
    keep = [1] * inst.m
    blockers = []
    for j, authors in enumerate(inst.paper_authors):
        for i in authors:
            if registered[i] >= inst.x:
                keep[j] = 0
                blockers.append(i)
                break
        else:
            for i in authors:
                registered[i] += 1
            blockers.append(None)
    return KeepVector(keep), tuple(blockers)


def conventional_desk_reject(inst: Instance) -> RunRecord:
    """Order-based rejection: paper j is dropped iff, at its turn, some
    coauthor already has x registered (kept) papers."""
    kv, blockers = _conventional(inst)
    trace = tuple(
        (pid, "keep", "no coauthor at the cap") if blocker is None
        else (pid, "reject", f"author {inst.author_ids[blocker]} already at the cap")
        for pid, blocker in zip(inst.paper_ids, blockers)
    )
    return RunRecord("conventional", kv, metrics.evaluate(inst, kv), trace=trace)


def _victim(counts, x, over):
    """Most over-cap author, lowest index on ties; None when all fit. Only
    `over`, the authors over the cap at the start in ascending order, is
    scanned: counts only fall as papers are rejected, so no other author
    can go over later."""
    if not over:
        return None
    best = max(over, key=counts.__getitem__)  # the first of the largest
    return best if counts[best] > x else None


def roulette_reject(inst: Instance, seed: int = 0) -> RunRecord:
    """Randomized rejection: while someone is over the cap, drop one of the
    worst offender's kept papers uniformly at random. Deterministic per seed."""
    rng = random.Random(seed)
    keep = [1] * inst.m
    counts = [inst.paper_count(i) for i in range(inst.n)]
    over = [i for i, k in enumerate(counts) if k > inst.x]
    # only an author over the cap at the start can be drawn from: their kept
    # papers in ascending order, each rejection removed where it appears
    kept = {i: list(inst.author_papers[i]) for i in over}
    trace = []
    while True:
        victim = _victim(counts, inst.x, over)
        if victim is None:
            break
        candidates = kept[victim]
        j = candidates[rng.randrange(len(candidates))]
        keep[j] = 0
        for i in inst.paper_authors[j]:
            counts[i] -= 1
            if i in kept:
                kept[i].remove(j)
        trace.append(
            (inst.paper_ids[j], "reject",
             f"author {inst.author_ids[victim]} over the cap by {counts[victim] + 1 - inst.x}")
        )
    kv = KeepVector(keep)
    return RunRecord("roulette", kv, metrics.evaluate(inst, kv), seed=seed, trace=tuple(trace))


def roulette_expectation(inst: Instance):
    """Exact expectations of both fairness metrics under the roulette policy.

    Enumerates the full randomness tree, weighting each leaf by its path
    probability; one `metrics.evaluate` judges each leaf visit. Raises
    :class:`SolverStopped` once more than `MAX_ROULETTE_OUTCOMES` leaves
    are seen.
    """
    e_ind = Fraction(0)
    e_group = Fraction(0)
    leaves = 0
    start_counts = tuple(inst.paper_count(i) for i in range(inst.n))
    over = [i for i, k in enumerate(start_counts) if k > inst.x]
    stack = [((1,) * inst.m, start_counts, Fraction(1))]
    while stack:
        keep, counts, prob = stack.pop()
        victim = _victim(counts, inst.x, over)
        if victim is None:
            leaves += 1
            if leaves > MAX_ROULETTE_OUTCOMES:
                raise SolverStopped(f"more than {MAX_ROULETTE_OUTCOMES} roulette outcomes")
            report = metrics.evaluate(inst, KeepVector(keep))
            e_ind += prob * report.zeta_ind
            e_group += prob * report.zeta_group
            continue
        candidates = [j for j in inst.author_papers[victim] if keep[j]]
        share = prob / len(candidates)
        for j in candidates:
            child = list(keep)
            child[j] = 0
            child_counts = list(counts)
            for i in inst.paper_authors[j]:
                child_counts[i] -= 1
            stack.append((tuple(child), tuple(child_counts), share))
    return e_ind, e_group


def ideal_construct_small(inst: Instance) -> KeepVector:
    """Constructive keep set leaving every author at exactly min(x, own count).

    Only defined for one or two authors, where such a set always exists.
    Ties break toward rejecting the latest-submitted paper first.
    """
    if inst.n > 2:
        raise ValueError(f"constructive path covers n <= 2, got n = {inst.n}")
    keep = [1] * inst.m

    def reject_latest(papers, count):
        for j in reversed(papers):
            if count == 0:
                break
            keep[j] = 0
            count -= 1

    if inst.n == 1:
        reject_latest(inst.author_papers[0], max(0, inst.paper_count(0) - inst.x))
        return KeepVector(keep)

    shared = [j for j, authors in enumerate(inst.paper_authors) if len(authors) == 2]
    solo = [
        [j for j in inst.author_papers[i] if len(inst.paper_authors[j]) == 1]
        for i in (0, 1)
    ]
    if len(shared) <= inst.x:
        # Each author's overage fits inside their solo papers.
        for i in (0, 1):
            reject_latest(solo[i], max(0, inst.paper_count(i) - inst.x))
    else:
        # Both authors are over the cap through the shared papers alone:
        # drop every solo paper, then shared ones down to the cap.
        for i in (0, 1):
            reject_latest(solo[i], len(solo[i]))
        reject_latest(shared, len(shared) - inst.x)
    return KeepVector(keep)
