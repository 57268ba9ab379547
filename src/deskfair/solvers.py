"""Exact optimization of the fairness metrics and set-cover reduction tools.

Every exact question runs one depth-first LP branch and bound
(`_branch_and_bound`) over a presolved LP (`lp.presolve_group`), with float
LP bounds and keep vectors certified exactly, so no float value is ever
reported as an optimum. Mean-cost optimization maximizes over it from the
conventional keep set. Worst-case-cost optimization walks the finite set of
achievable cost levels up from an exact lower bound and asks a feasibility
question per level; collateral-free keep sets and set cover are one
feasibility question each. The search is exponential in the worst case,
which is expected: deciding small worst-case cost encodes set cover.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import metrics
from .instance import Instance, InstanceError, KeepVector, SolverStopped, require_int, validate_instance
from .lp import (
    FEAS_TOL,
    INT_TOL,
    Basis,
    GroupPresolve,
    presolve_group,
    snap_binary,
    solve_lp,
)
from .policies import RunRecord, _conventional

DEFAULT_NODE_LIMIT = 10**6


def _node_limit() -> int:
    """The node cap of one solve: `DESKFAIR_NODE_LIMIT`, if set, at least 1."""
    raw = os.environ.get("DESKFAIR_NODE_LIMIT", str(DEFAULT_NODE_LIMIT))
    try:
        limit = int(raw)
    except ValueError:
        raise InstanceError(f"DESKFAIR_NODE_LIMIT must be an integer, got {raw!r}") from None
    if limit < 1:
        raise InstanceError(f"DESKFAIR_NODE_LIMIT must be at least 1, got {raw!r}")
    return limit


@dataclass(frozen=True, eq=False)
class BranchNode:
    lo: np.ndarray   # bounds of the reduced LP's columns: fixed at one where
    hi: np.ndarray   # lo is 1, fixed at zero where hi is 0
    basis: Basis | None  # the parent's optimum; None at the root: the cold start


@dataclass(frozen=True)
class SolverDiagnostics:
    node_count: int = 0
    nodes_pruned: int = 0              # nodes closed by the bound test, after their LP
    lp_calls: int = 0
    lp_pivots: int = 0                 # dual simplex pivots over all LP calls
    lp_bound_flips: int = 0            # long-step flips, not in lp_pivots
    lp_objective: float | None = None  # root relaxation value of the full LP
    lp_integral: bool | None = None    # was the root relaxation already 0/1
    lp_rows: int | None = None         # size of the LP actually solved,
    lp_cols: int | None = None         # after presolve
    best_bound: float | None = None    # proven upper bound on the optimum
    incumbent_trace: tuple[Fraction, ...] = ()  # exact objective at each improvement


def _admits(inst: Instance, pre: GroupPresolve, keep: KeepVector) -> bool:
    """Exact, in integers: does `keep` meet the cap and the floors of the
    question `pre` was built for?"""
    counts = metrics.author_kept_counts(inst, keep)
    floors = pre.floors or (0,) * inst.n
    return all(f <= k <= inst.x for f, k in zip(floors, counts))


def _branch_and_bound(inst: Instance, pre: GroupPresolve, tally: Counter,
                      best: Fraction | None = None):
    """Depth-first LP branch and bound over the presolved LP; the one search
    loop of this module.

    The root LP takes `solve_lp`'s cold start, which keeps every paper
    because every c_j > 0 and is dual feasible whatever the signs of the
    rows; every child warm-starts from its parent's optimal basis. Each
    node's solution is snapped once (`snap_binary`); an infeasible node
    closes. A fractional node branches on its most fractional variable,
    first on ties, and explores r_j = 1 first. An integral vertex is
    expanded to a full keep vector and certified exactly: it must meet the
    question's cap and floors in integers (`_admits`). An
    uncertifiable vertex (numerics went sour) splits on a free variable
    instead of being trusted or dropped.

    - `best` None asks for feasibility: the search stops at the first
      certified vertex.
    - `best` an exact incumbent objective asks for the maximum of the group
      objective: a certified vertex's exact objective must also match its
      float bound within 1e-6, and a node whose float bound plus 1e-9 does
      not beat the incumbent is pruned after its own LP. A child's bound is
      at most its parent's, so this one test also closes every node whose
      parent's bound already fails it, at the cost of one warm LP.

    `tally` sums the node, pruning, LP and pivot counts (named as in
    `SolverDiagnostics`) over every search of one solve, and `_node_limit()`
    caps its node count. Returns the certified vertices, as (exact objective,
    keep vector) pairs: the improvements in order, or the one witness with
    objective None. Also returns the root LP's (bound, integral); integral
    is False when the root LP is infeasible.
    """
    limit = _node_limit()
    lp0 = pre.lp
    cut = float("-inf") if best is None else float(best)  # a node must beat it
    found = []
    root = None
    stack = [BranchNode(lp0.lo, lp0.hi, None)]
    while stack:
        node = stack.pop()
        tally["node_count"] += 1
        if tally["node_count"] > limit:
            raise SolverStopped(f"branch and bound exceeded {limit} nodes")
        sol = solve_lp(lp0.with_bounds(node.lo, node.hi), start=node.basis)
        tally["lp_calls"] += 1
        tally["lp_pivots"] += sol.iteration_count
        tally["lp_bound_flips"] += sol.bound_flips
        bound = sol.objective_value + pre.offset
        point = snap_binary(sol)
        if node.basis is None:
            root = (bound, point is not None)
        if sol.r is None:
            continue
        if bound + FEAS_TOL <= cut:
            tally["nodes_pruned"] += 1
            continue
        if point is not None:
            keep = pre.expand(point)
            exact = None if best is None else metrics.group_objective(inst, keep)
            if _admits(inst, pre, keep) and (exact is None or abs(bound - float(exact)) <= INT_TOL):
                if exact is None:
                    return [(None, keep)], root
                if exact > best:
                    best, cut = exact, float(exact)
                    found.append((exact, keep))
                continue
            free = np.flatnonzero(node.lo < node.hi)
            if free.size == 0:
                continue
            j = free[0]
        else:
            j = int(np.argmax(np.minimum(sol.r, 1.0 - sol.r)))  # most fractional, first on ties
        zero_hi, one_lo = node.hi.copy(), node.lo.copy()
        zero_hi[j], one_lo[j] = 0.0, 1.0
        stack.append(BranchNode(node.lo, zero_hi, sol.basis))
        stack.append(BranchNode(one_lo, node.hi, sol.basis))
    return found, root


def solve_group_exact(inst: Instance) -> RunRecord:
    """Binary keep vector maximizing the total kept fraction subject to the cap.

    Equivalently minimizes the mean cost. The relaxation is first presolved
    (`lp.presolve_group`) to the over-cap authors' rows and papers; the fixed
    papers' objective is added to every float bound. LP-first: an integral
    relaxation optimum is expanded to a full keep vector, re-certified in
    exact rationals on the full instance and returned; otherwise branch and
    bound (`_branch_and_bound`) from the conventional policy's keep vector
    as the first incumbent.
    """
    pre = presolve_group(inst)
    seed, _ = _conventional(inst)
    seed_obj = metrics.group_objective(inst, seed)
    tally = Counter()
    found, root = _branch_and_bound(inst, pre, tally, seed_obj)
    best_obj, best_keep = found[-1] if found else (seed_obj, seed)
    rows, cols = pre.lp.A.shape
    return RunRecord(
        policy="group-exact",
        keep=best_keep,
        report=metrics.evaluate(inst, best_keep),
        objective=best_obj,
        diagnostics=SolverDiagnostics(
            **tally,
            lp_objective=root[0],
            lp_integral=root[1],
            lp_rows=rows,
            lp_cols=cols,
            best_bound=float(best_obj),  # the search closed: no open node is left
            incumbent_trace=(seed_obj,) + tuple(e for e, _ in found),
        ),
    )


def solve_individual_exact(inst: Instance) -> RunRecord:
    """Binary keep vector minimizing the worst-case cost subject to the cap.

    The worst-case cost only takes values k/|papers of i|. A level t is met
    by the keep vectors giving each author i at least s_i - floor(s_i t) of
    their s_i papers, a feasibility question for `_branch_and_bound` over
    `presolve_group` with those floors. No keep vector goes below
    t_lb = max (s_i - x)/s_i over the over-cap authors, so the levels are
    walked up from t_lb and the first feasible one is the optimum. Node and
    LP counts are summed over the levels, and `DESKFAIR_NODE_LIMIT` caps
    their sum.
    """
    sizes = [inst.paper_count(i) for i in range(inst.n)]
    tally = Counter()
    t = max((Fraction(s - inst.x, s) for s in sizes if s > inst.x), default=Fraction(0))
    while True:
        floors = [s - (s * t.numerator) // t.denominator for s in sizes]
        pre = presolve_group(inst, floors)
        found, _ = _branch_and_bound(inst, pre, tally)
        if found:  # at the latest at t = 1, which sets no floor
            break
        # the next level: the smallest k/s above t
        t = min(Fraction((s * t.numerator) // t.denominator + 1, s) for s in set(sizes))
    witness = found[0][1]
    rows, cols = pre.lp.A.shape
    return RunRecord(
        policy="individual-exact",
        keep=witness,
        report=metrics.evaluate(inst, witness),
        objective=t,
        diagnostics=SolverDiagnostics(**tally, lp_rows=rows, lp_cols=cols),
    )


def solve_ideal_feasibility(inst: Instance) -> KeepVector | None:
    """Witness keep vector giving every author exactly min(x, own count)
    papers, or None when no such vector exists: a feasibility question
    for `_branch_and_bound` with floors min(x, own count) under the cap x."""
    floors = [min(inst.x, inst.paper_count(i)) for i in range(inst.n)]
    found, _ = _branch_and_bound(inst, presolve_group(inst, floors), Counter())
    return found[0][1] if found else None


@dataclass(frozen=True)
class IntegralityAudit:
    lp_objective: float
    ilp_objective: Fraction
    gap: float
    lp_integral: bool

    @property
    def is_counterexample(self) -> bool:
        return self.gap > INT_TOL


def integrality_audit(inst: Instance) -> IntegralityAudit:
    """Compare the relaxation optimum against the exact binary optimum.

    A positive gap exhibits an instance where the relaxation is *not* exact,
    i.e. rounding the LP cannot be trusted on that instance. The relaxation
    figures are those of the exact solve's root LP.
    """
    exact = solve_group_exact(inst)
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
            raise InstanceError("universe must be non-empty")
        if self.budget < 1:
            raise InstanceError("budget must be positive")
        for k, s in enumerate(self.sets):
            if not s:
                raise InstanceError(f"set #{k} is empty")
            if min(s) < 1 or max(s) > self.universe_size:
                raise InstanceError(f"set #{k} leaves the universe")


def set_cover_from_json(raw, budget: int | None = None) -> SetCoverInstance:
    """Build a SetCoverInstance from a parsed JSON-shaped mapping.

    Expects ``{"universe_size": int, "sets": [[int...]...], "budget": int}``;
    a ``budget`` argument replaces the field. As in
    :func:`~deskfair.instance.validate_instance`, nothing is coerced: a
    bool, a float or a numeric string is not an integer. Raises
    :class:`InstanceError` on the first wrong type or value found.
    """
    if not isinstance(raw, dict):
        raise InstanceError(f"set-cover description must be an object, got {type(raw).__name__}")
    try:
        universe_size = raw["universe_size"]
        sets = raw["sets"]
    except KeyError as e:
        raise InstanceError(f"missing required field {e.args[0]!r}") from None
    if budget is None:
        if "budget" not in raw:
            raise InstanceError("budget missing: supply --budget or a 'budget' field")
        budget = raw["budget"]
    require_int(universe_size, "'universe_size'")
    require_int(budget, "'budget'")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise InstanceError("'sets' must be an array of arrays")
    for k, s in enumerate(sets):
        for e in s:
            require_int(e, f"an element of set #{k}")
    return SetCoverInstance(universe_size, tuple(frozenset(s) for s in sets), budget)


def _uncovered(sc: SetCoverInstance) -> int | None:
    """The smallest element of the universe in no set, or None."""
    covered = set().union(*sc.sets)
    return next((e for e in range(1, sc.universe_size + 1) if e not in covered), None)


def reduce_set_cover(sc: SetCoverInstance) -> Instance:
    """Encode set cover as a submission-limit instance: universe elements
    become authors `e1..en`, sets become papers `s1..sm`, one more author
    `budget` writes every paper, and the cap is x = K = `sc.budget`. The
    budget author's cap is then the budget, at most K papers kept, and an
    element author's cap never binds before it. So at most K sets cover the
    universe exactly when some keep vector leaves every author a paper,
    that is, when the least worst-case cost is below 1. Raises
    :class:`InstanceError` when some element lies in no set.
    """
    missing = _uncovered(sc)
    if missing is not None:
        raise InstanceError(f"element {missing} lies in no set")
    authors = [f"e{i}" for i in range(1, sc.universe_size + 1)] + ["budget"]
    papers = [
        {"id": f"s{j + 1}", "authors": [f"e{i}" for i in sorted(s)] + ["budget"]}
        for j, s in enumerate(sc.sets)
    ]
    return validate_instance({"x": sc.budget, "authors": authors, "papers": papers})


def decide_set_cover(sc: SetCoverInstance) -> tuple[bool, tuple[int, ...] | None]:
    """`decide_cover` of the reduced instance; (False, None) if an element is in no set."""
    if _uncovered(sc) is not None:
        return False, None
    return decide_cover(reduce_set_cover(sc))


def decide_cover(inst: Instance) -> tuple[bool, tuple[int, ...] | None]:
    """The covering question a `reduce_set_cover` instance poses, decided as
    floors 1 under its cap: (True, 0-based witness set indices) or (False, None)."""
    found, _ = _branch_and_bound(inst, presolve_group(inst, floors=[1] * inst.n), Counter())
    return (True, found[0][1].kept_indices()) if found else (False, None)
