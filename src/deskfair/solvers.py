"""Exact optimization of the fairness metrics and set-cover reduction tools.

Mean-cost optimization runs LP relaxation first and falls back to depth-first
branch and bound with float LP bounds and exact-rational incumbents, so no
float value is ever reported as an optimum. Worst-case-cost optimization walks
the finite set of achievable cost levels with a feasibility search per level;
it is exponential in the worst case, which is expected: deciding small
worst-case cost encodes set cover.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import metrics
from .instance import Instance, KeepVector, validate_instance
from .lp import (
    FEAS_TOL,
    INT_TOL,
    Basis,
    LpStatus,
    integrality_check,
    presolve_group,
    slack_basis,
    snap_binary,
    solve_lp,
)
from .metrics import FairnessReport
from .policies import conventional_desk_reject

DEFAULT_NODE_LIMIT = 10**6


class NodeLimitExceeded(RuntimeError):
    pass


def _node_limit(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    return int(os.environ.get("DESKFAIR_NODE_LIMIT", DEFAULT_NODE_LIMIT))


@dataclass(frozen=True, eq=False)
class BranchNode:
    lo: np.ndarray   # bounds of the reduced LP's columns: fixed at one where
    hi: np.ndarray   # lo is 1, fixed at zero where hi is 0
    lp_bound: float  # inherited upper bound, valid for every completion
    depth: int
    basis: Basis     # start basis: all kept at the root, else the parent's optimum


@dataclass(frozen=True)
class SolverDiagnostics:
    node_count: int = 0
    nodes_pruned: int = 0              # nodes closed by the bound test
    lp_calls: int = 0
    lp_pivots: int = 0                 # simplex iterations over all LP calls
    lp_dual_pivots: int = 0            # the dual-phase share of lp_pivots
    lp_bound_flips: int = 0            # long-step flips, not in lp_pivots
    lp_objective: float | None = None  # root relaxation value of the full LP
    lp_integral: bool | None = None    # was the root relaxation already 0/1
    lp_rows: int | None = None         # size of the LP actually solved,
    lp_cols: int | None = None         # after presolve
    best_bound: float | None = None    # proven upper bound on the optimum
    incumbent_trace: tuple[Fraction, ...] = ()  # exact objective at each improvement


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one exact solve.

    `objective` is the exact optimum of the solved criterion: total kept
    fraction (maximized) for the group solver, worst-case cost (minimized)
    for the individual solver.
    """

    policy: str
    keep: KeepVector
    report: FairnessReport
    objective: Fraction | None
    diagnostics: SolverDiagnostics


def solve_group_exact(inst: Instance, node_limit: int | None = None) -> SolveResult:
    """Binary keep vector maximizing the total kept fraction subject to the cap.

    Equivalently minimizes the mean cost. The relaxation is first presolved
    (`lp.presolve_group`) to the over-cap authors' rows and papers; the fixed
    papers' objective is added to every float bound. LP-first: an integral
    relaxation optimum is expanded to a full keep vector, re-certified in
    exact rationals on the full instance and returned; otherwise branch and
    bound on the most fractional variable, pruning against the exact
    incumbent with a 1e-9 safety margin on the float LP bound. The root LP
    starts from the all-kept basis (`lp.slack_basis(lp, at_upper=True)`),
    which is dual feasible because every c_j > 0, so the dual simplex only
    repairs the over-cap rows; every child warm-starts from its parent's
    optimal basis.
    """
    limit = _node_limit(node_limit)
    pre = presolve_group(inst)
    lp0, offset = pre.lp, pre.offset
    rows, cols = lp0.A.shape

    seed = conventional_desk_reject(inst).keep
    best_keep = seed
    best_obj = metrics.group_objective(inst, seed)
    incumbents = [best_obj]

    node_count = nodes_pruned = 0
    lp_calls = lp_pivots = lp_dual_pivots = lp_bound_flips = 0
    root_objective = None
    root_integral = None

    stack = [BranchNode(lp0.lo, lp0.hi, float("inf"), 0, slack_basis(lp0, at_upper=True))]
    while stack:
        node = stack.pop()
        node_count += 1
        if node_count > limit:
            raise NodeLimitExceeded(f"branch and bound exceeded {limit} nodes")
        if node.lp_bound + FEAS_TOL <= float(best_obj):
            nodes_pruned += 1
            continue
        sol = solve_lp(lp0.with_bounds(node.lo, node.hi), start=node.basis)
        lp_calls += 1
        lp_pivots += sol.iteration_count
        lp_dual_pivots += sol.dual_pivots
        lp_bound_flips += sol.bound_flips
        bound = sol.objective_value + offset
        integral = sol.status is LpStatus.OPTIMAL and integrality_check(sol)
        if node.depth == 0:
            root_objective, root_integral = bound, integral
        if sol.status is not LpStatus.OPTIMAL:
            continue
        if bound + FEAS_TOL <= float(best_obj):
            nodes_pruned += 1
            continue
        if integral:
            keep = pre.expand(snap_binary(sol))
            exact = metrics.group_objective(inst, keep)
            certified = (
                metrics.is_feasible(inst, keep)
                and abs(bound - float(exact)) <= INT_TOL
            )
            if certified:
                if exact > best_obj:
                    best_obj, best_keep = exact, keep
                    incumbents.append(exact)
                continue
            # Uncertifiable vertex (numerics went sour): split on a free
            # variable instead of trusting or discarding the node.
            free = np.flatnonzero(node.lo < node.hi)
            if free.size == 0:
                continue
            j = free[0]
        else:
            j = int(np.argmax(np.minimum(sol.r, 1.0 - sol.r)))  # most fractional, first on ties
        zero_hi, one_lo = node.hi.copy(), node.lo.copy()
        zero_hi[j], one_lo[j] = 0.0, 1.0
        stack.append(BranchNode(node.lo, zero_hi, bound, node.depth + 1, sol.basis))
        stack.append(BranchNode(one_lo, node.hi, bound, node.depth + 1, sol.basis))

    return SolveResult(
        policy="group-exact",
        keep=best_keep,
        report=metrics.evaluate(inst, best_keep),
        objective=best_obj,
        diagnostics=SolverDiagnostics(
            node_count=node_count,
            nodes_pruned=nodes_pruned,
            lp_calls=lp_calls,
            lp_pivots=lp_pivots,
            lp_dual_pivots=lp_dual_pivots,
            lp_bound_flips=lp_bound_flips,
            lp_objective=root_objective,
            lp_integral=root_integral,
            lp_rows=rows,
            lp_cols=cols,
            best_bound=float(best_obj),  # the search closed: no open node is left
            incumbent_trace=tuple(incumbents),
        ),
    )


class _Budget:
    """Shared node counter for the feasibility searches."""

    def __init__(self, limit):
        self.limit = limit
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise NodeLimitExceeded(f"feasibility search exceeded {self.limit} nodes")


def _search_keep(inst, lower, upper, budget_nodes, max_kept=None):
    """Depth-first search for a binary keep vector with per-author kept counts
    in [lower_i, upper_i] and optionally at most `max_kept` papers kept.

    Papers are decided in submission order, keep tried before reject; prunes
    on cap overshoot and on authors that can no longer reach their floor.
    Returns the first witness found, or None.
    """
    n, m = inst.n, inst.m
    if any(inst.paper_count(i) < lower[i] for i in range(n)):
        return None
    # need[j]: (author, kept count that author must already have once paper j
    # is decided), one pair per author of j, so its later papers can still
    # lift it to its floor
    need = [()] * m
    later = [0] * n
    for j in range(m - 1, -1, -1):
        authors = inst.paper_authors[j]
        need[j] = tuple((i, lower[i] - later[i]) for i in authors)
        for i in authors:
            later[i] += 1

    kept = [0] * n
    choice = [0] * m

    def dfs(j, total):
        budget_nodes.tick()
        if j == m:
            return True
        authors = inst.paper_authors[j]
        can_keep = all(kept[i] < upper[i] for i in authors)
        if max_kept is not None and total >= max_kept:
            can_keep = False
        if can_keep:
            # no floor check: keeping j adds to kept[i] what it takes from
            # i's papers still open, and every floor held on entering j
            choice[j] = 1
            for i in authors:
                kept[i] += 1
            if dfs(j + 1, total + 1):
                return True
            for i in authors:
                kept[i] -= 1
        choice[j] = 0
        if all(kept[i] >= f for i, f in need[j]):
            if dfs(j + 1, total):
                return True
        return False

    if dfs(0, 0):
        return KeepVector.binary(choice)
    return None


def solve_individual_exact(inst: Instance, node_limit: int | None = None) -> SolveResult:
    """Binary keep vector minimizing the worst-case cost subject to the cap.

    The worst-case cost only takes values k/|papers of i|, so we binary-search
    that finite grid, testing each level with a feasibility search over keep
    vectors meeting the implied per-author floors.
    """
    budget = _Budget(_node_limit(node_limit))
    sizes = [inst.paper_count(i) for i in range(inst.n)]
    levels = sorted({Fraction(k, s) for s in sizes for k in range(s + 1)})

    def floors(t: Fraction):
        # smallest kept count keeping author i's cost at most t
        return [s - (s * t.numerator) // t.denominator for s in sizes]

    upper = [inst.x] * inst.n
    lo_idx, hi_idx = 0, len(levels) - 1
    witness = _search_keep(inst, floors(levels[hi_idx]), upper, budget)
    assert witness is not None  # the empty keep set meets level 1
    # Invariant: `witness` meets levels[hi_idx]; the loop ends at lo_idx == hi_idx.
    while lo_idx < hi_idx:
        mid = (lo_idx + hi_idx) // 2
        found = _search_keep(inst, floors(levels[mid]), upper, budget)
        if found is not None:
            witness, hi_idx = found, mid
        else:
            lo_idx = mid + 1

    report = metrics.evaluate(inst, witness)
    return SolveResult(
        policy="individual-exact",
        keep=witness,
        report=report,
        objective=levels[lo_idx],
        diagnostics=SolverDiagnostics(node_count=budget.nodes),
    )


def solve_ideal_feasibility(
    inst: Instance, node_limit: int | None = None
) -> KeepVector | None:
    """Witness keep vector giving every author exactly min(x, own count)
    papers, or None when no such vector exists."""
    budget = _Budget(_node_limit(node_limit))
    targets = [min(inst.x, inst.paper_count(i)) for i in range(inst.n)]
    return _search_keep(inst, targets, targets, budget)


@dataclass(frozen=True)
class IntegralityAudit:
    lp_objective: float
    ilp_objective: Fraction
    gap: float
    lp_integral: bool

    @property
    def is_counterexample(self) -> bool:
        return self.gap > INT_TOL


def integrality_audit(inst: Instance, node_limit: int | None = None) -> IntegralityAudit:
    """Compare the relaxation optimum against the exact binary optimum.

    A positive gap exhibits an instance where the relaxation is *not* exact,
    i.e. rounding the LP cannot be trusted on that instance. The relaxation
    figures are those of the exact solve's root LP.
    """
    exact = solve_group_exact(inst, node_limit=node_limit)
    diag = exact.diagnostics
    return IntegralityAudit(
        lp_objective=diag.lp_objective,
        ilp_objective=exact.objective,
        gap=diag.lp_objective - float(exact.objective),
        lp_integral=diag.lp_integral,
    )


@dataclass(frozen=True)
class SetCoverInstance:
    """Decision problem: can at most `budget` of the sets cover the universe
    {1, ..., universe_size}?"""

    universe_size: int
    sets: tuple[frozenset[int], ...]
    budget: int

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValueError("universe must be non-empty")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        universe = set(range(1, self.universe_size + 1))
        for k, s in enumerate(self.sets):
            if not s:
                raise ValueError(f"set #{k} is empty")
            if not s <= universe:
                raise ValueError(f"set #{k} leaves the universe")


def reduce_set_cover(sc: SetCoverInstance) -> Instance:
    """Encode set cover as a submission-limit instance: universe elements
    become authors, sets become papers, and the cap x = number of sets never
    binds. Covering every element with at most K = `sc.budget` sets is exactly
    finding a keep vector with every author's kept count >= 1 and at most K
    papers kept; the budget stays with `sc`, plain instances carry none.
    """
    authors = [f"e{i}" for i in range(1, sc.universe_size + 1)]
    papers = [
        {"id": f"s{j + 1}", "authors": [f"e{i}" for i in sorted(s)]}
        for j, s in enumerate(sc.sets)
    ]
    return validate_instance({"x": len(sc.sets), "authors": authors, "papers": papers})


def decide_set_cover(
    sc: SetCoverInstance, node_limit: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide the covering question; on success also return the 0-based
    indices of a witness subfamily."""
    covered = set().union(*sc.sets)
    if covered != set(range(1, sc.universe_size + 1)):
        return False, None
    inst = reduce_set_cover(sc)
    budget = _Budget(_node_limit(node_limit))
    witness = _search_keep(
        inst,
        lower=[1] * inst.n,
        upper=[inst.x] * inst.n,
        budget_nodes=budget,
        max_kept=sc.budget,
    )
    if witness is None:
        return False, None
    return True, witness.kept_indices()
