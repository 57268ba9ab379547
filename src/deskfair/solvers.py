"""Exact optimization of the fairness metrics and set-cover reduction tools.

Every exact question is one keep-vector question: a cap of x kept papers
per author and, for individual fairness, a floor per author. Its LP
relaxation maximizes the total kept fraction over 0 <= r <= 1
(`build_group_relaxation`, the full relaxation that `--dump-lp` writes).
`presolve_group` reduces it to the rows that can bind (`GroupPresolve`)
and, with floors, propagates the bounds in integers (`_propagate`).

Every question runs one depth-first branch and bound (`_branch_and_bound`)
over its presolved LP, solved by `lp.solve_lp`, with float LP bounds and
keep vectors certified exactly, so no float value is ever reported as an
optimum. Mean-cost optimization maximizes over it from the
conventional keep set. Worst-case-cost optimization walks the finite set of
achievable cost levels up from an exact lower bound and asks a feasibility
question per level; collateral-free keep sets and set cover are one
feasibility question each. Every feasibility question goes through
`_decide`, which settles it before any LP when integer bound propagation
refutes it or a greedy witness is certified, and searches otherwise. The
search is exponential in the worst case, which is expected: deciding small
worst-case cost encodes set cover.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from . import metrics
from .instance import Instance, InstanceError, KeepVector, SolverStopped, require_int, validate_instance
from .lp import (
    FEAS_TOL,
    INT_TOL,
    LinearProgram,
    SparseMatrix,
    snap_binary,
    solve_lp,
)
from .policies import RunRecord, SolverDiagnostics, _conventional, _victim

DEFAULT_NODE_LIMIT = 10**6


def _node_limit() -> int:
    """The node cap of one solve: `DESKFAIR_NODE_LIMIT`, if set, at least 1.
    Every exact solve reads it once, at its start, so a bad value is an
    input error even when no search runs."""
    raw = os.environ.get("DESKFAIR_NODE_LIMIT", str(DEFAULT_NODE_LIMIT))
    try:
        limit = int(raw)
    except ValueError:
        raise InstanceError(f"DESKFAIR_NODE_LIMIT must be an integer, got {raw!r}") from None
    if limit < 1:
        raise InstanceError(f"DESKFAIR_NODE_LIMIT must be at least 1, got {raw!r}")
    return limit


def _group_coefficients(inst: Instance) -> np.ndarray:
    """c_j: the sum of 1/|papers of i| over paper j's authors i, so c.r is
    the total kept fraction of keep vector r. `bincount` adds each paper's
    terms in author-list order, the order of a Python `sum` over the list."""
    sizes = np.fromiter(map(len, inst.paper_authors), np.intp, inst.m)
    authors = np.fromiter(chain.from_iterable(inst.paper_authors), np.intp, int(sizes.sum()))
    inv_sizes = 1.0 / np.fromiter(map(len, inst.author_papers), float, inst.n)
    return np.bincount(np.repeat(np.arange(inst.m), sizes), weights=inv_sizes[authors],
                       minlength=inst.m)


def _rows_lp(c: np.ndarray, cols, rows) -> LinearProgram:
    """The LP maximizing c.r over the ascending paper indices `cols` subject
    to `rows`, each a (papers, sign, rhs) row sign * sum_{j in papers} r_j <=
    rhs whose papers ascend and all lie in `cols`."""
    cols = list(cols)
    sizes = [len(papers) for papers, _, _ in rows]
    papers = np.fromiter(chain.from_iterable(p for p, _, _ in rows), np.intp, sum(sizes))
    A = SparseMatrix((len(rows), len(cols)), np.repeat(np.arange(len(rows)), sizes),
                     np.searchsorted(cols, papers), np.repeat([s for _, s, _ in rows], sizes))
    b = np.array([rhs for _, _, rhs in rows], dtype=float)
    return LinearProgram(c[cols], A, b, lo=np.zeros(len(cols)), hi=np.ones(len(cols)))


def build_group_relaxation(inst: Instance) -> LinearProgram:
    """LP relaxation of mean-cost minimization, phrased as maximizing the
    total kept fraction: c_j sums 1/|papers of i| over paper j's authors,
    rows cap each author's kept papers at x, and 0 <= r <= 1. A cap row's
    right-hand side is min(x, m): no author has more than m papers, so the
    LP is the same, and a cap too large for a float, or for the MPS dump's
    12 digits, never reaches it."""
    rhs = min(inst.x, inst.m)
    rows = [(papers, 1.0, rhs) for papers in inst.author_papers]
    return _rows_lp(_group_coefficients(inst), range(inst.m), rows)


FREE = -1  # a paper that is a column of the reduced LP, not fixed


@dataclass(frozen=True, eq=False)
class GroupPresolve:
    """The relaxation of one keep-vector question, reduced to the rows that
    can bind.

    Every question caps each author at x papers, and may also ask author i
    to keep at least `floors[i]` papers. A cap row holds for every r in
    [0, 1]^m when its author has at most x papers, so it is not kept. A
    paper in no kept cap row then only raises kept counts and c.r
    (c_j > 0), so some optimum, and some feasible point if there is one,
    keeps it: it is fixed at r_j = 1 and dropped, and each floor is taken
    net of the author's fixed papers. The group relaxation is the question
    with no floors. A question with floors is then propagated
    (`_propagate`): papers its rows force to one value are fixed too, and
    a question whose rows no point meets is `refuted`.

    The columns, the rows, the LP and the offset are built on first use, so
    a question settled without them builds none of them.
    """

    inst: Instance
    value: tuple[int, ...]  # per paper: 1 fixed kept, 0 fixed rejected, FREE a column
    floors: tuple[int, ...] | None = None
    refuted: bool = False   # no 0/1 point, and no LP point, meets the rows

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Paper index of each reduced column, ascending."""
        return tuple([j for j, v in enumerate(self.value) if v == FREE])

    @cached_property
    def _relaxation(self) -> tuple[LinearProgram, float]:
        """Over the free papers, a row kept count <= x - (fixed kept) for
        each author with more than x papers whose row can still bind, then
        -(kept count) <= -(net floor) for each author whose floor net of the
        fixed kept papers stays positive; and the offset."""
        inst, value = self.inst, self.value
        cap_rows, floor_rows = [], []
        for i, papers in enumerate(inst.author_papers):
            capped = len(papers) > inst.x
            if not capped and self.floors is None:
                continue
            values = [value[j] for j in papers]
            free = [j for j, v in zip(papers, values) if v == FREE]
            if not free:
                continue
            kept = values.count(1)
            if capped and inst.x - kept < len(free):
                cap_rows.append((free, 1.0, inst.x - kept))
            if self.floors is not None and self.floors[i] > kept:
                floor_rows.append((free, -1.0, kept - self.floors[i]))
        c = _group_coefficients(inst)
        fixed_kept = np.fromiter(value, np.intp, inst.m) == 1
        return _rows_lp(c, self.cols, cap_rows + floor_rows), float(c[fixed_kept].sum())

    @property
    def lp(self) -> LinearProgram:
        return self._relaxation[0]

    @property
    def offset(self) -> float:
        """c.r of the papers fixed as kept."""
        return self._relaxation[1]

    def expand(self, reduced: np.ndarray) -> KeepVector:
        """Full-length binary keep vector: fixed papers at their value, the
        rest from the reduced 0/1 array (see `snap_binary`)."""
        values = np.array(self.value, dtype=int)
        values[list(self.cols)] = reduced
        return KeepVector(values.tolist())


def _propagate(inst: Instance, floors, value: list[int]) -> bool:
    """Bound propagation to a fixpoint, in place on `value`, in integers.

    With k_i of author i's papers fixed as kept (at 1; a paper fixed at 0
    counts in neither) and f_i free, the cap row leaves x - k_i for the
    free papers and the floor row asks for floors[i] - k_i of them:
    - a cap right-hand side below 0, or a net floor above f_i, meets no
      point in [0, 1]^m: returns False;
    - a net floor equal to f_i fixes the free papers at 1;
    - a cap right-hand side of 0 fixes them at 0.
    Each fixing is implied by the rows themselves, for every LP point as for
    every 0/1 one. A fixed paper updates its authors' counts and queues
    them again. Each author fixes its papers at most once, so the whole
    propagation is O(slots)."""
    x = inst.x
    kept = [0] * inst.n
    free = [0] * inst.n
    for i, papers in enumerate(inst.author_papers):
        for j in papers:
            if value[j] == FREE:
                free[i] += 1
            elif value[j] == 1:
                kept[i] += 1
    queue = list(range(inst.n))
    while queue:
        i = queue.pop()
        net = floors[i] - kept[i]
        if kept[i] > x or net > free[i]:
            return False
        if free[i] and (kept[i] == x or net == free[i]):
            v = 0 if kept[i] == x else 1
            for j in inst.author_papers[i]:
                if value[j] == FREE:
                    value[j] = v
                    for a in inst.paper_authors[j]:
                        free[a] -= 1
                        kept[a] += v
                        queue.append(a)
    return True


def presolve_group(inst: Instance, floors: list[int] | None = None) -> GroupPresolve:
    """Reduced relaxation (see `GroupPresolve`), built straight from the
    paper lists without the full n x m matrix: the papers of the authors
    with more than x papers are the free columns, and every other paper is
    fixed as kept. With floors, `_propagate` then fixes more papers, or
    refutes the question, in O(slots)."""
    value = [1] * inst.m
    for papers in inst.author_papers:
        if len(papers) > inst.x:
            for j in papers:
                value[j] = FREE
    refuted = floors is not None and not _propagate(inst, floors, value)
    return GroupPresolve(inst, tuple(value), None if floors is None else tuple(floors), refuted)



def _admits(floors, report: metrics.FairnessReport) -> bool:
    """Exact, in integers: does the evaluated keep vector meet the cap and
    `floors` (None: no floors)?"""
    return report.feasible and all(f <= k for f, k in zip(floors or (), report.kept_counts))


def _greedy_witness(inst: Instance, floors: list[int]) -> KeepVector | None:
    """A keep vector within the cap that meets `floors`, by a deterministic
    repair of keep-all, or None when the repair gets stuck (which proves
    nothing). While some author is over the cap, it takes the most over-cap
    author (lowest index on ties), sorts their kept papers once, by most
    over-cap authors, then most slack above the floors (the least of
    kept - floor over the paper's authors), then index, and rejects them in
    that order, skipping any paper with an author already at their floor,
    until that author fits. Counts only fall, so each author is taken at
    most once; it gives up when one stays over the cap."""
    x = inst.x
    keep = [1] * inst.m
    counts = [len(papers) for papers in inst.author_papers]
    over = [i for i, k in enumerate(counts) if k > x]
    paper_authors = inst.paper_authors

    def order(j):
        hit, slack = 0, inst.m
        for i in paper_authors[j]:
            hit += counts[i] > x
            if counts[i] - floors[i] < slack:
                slack = counts[i] - floors[i]
        return -hit, -slack, j

    while (victim := _victim(counts, x, over)) is not None:
        for j in sorted((j for j in inst.author_papers[victim] if keep[j]), key=order):
            if counts[victim] <= x:
                break
            if all(counts[i] > floors[i] for i in paper_authors[j]):
                keep[j] = 0
                for i in paper_authors[j]:
                    counts[i] -= 1
        if counts[victim] > x:
            return None
        over = [i for i in over if counts[i] > x]
    return KeepVector(keep)


def _decide(inst: Instance, floors: list[int], limit: int, tally: Counter):
    """The one feasibility question of this module: is there a keep vector
    within the cap x that gives each author i at least `floors[i]` papers?

    Three steps, each exact; only the last builds an LP:
    1. `presolve_group` propagates the bounds in integers, and a refuted
       question is a "no";
    2. else `_greedy_witness` repairs keep-all, and a witness that
       `metrics.evaluate` and `_admits` certify is a "yes";
    3. else `_branch_and_bound` searches the propagated LP, under `limit`
       nodes, into `tally`, and its first certified vertex is the answer.
       The search is dropped there, with its open nodes.

    Returns the (keep vector, report) witness, or None for a "no".
    """
    pre = presolve_group(inst, floors)
    if pre.refuted:
        return None
    keep = _greedy_witness(inst, floors)
    if keep is not None:
        report = metrics.evaluate(inst, keep)
        if _admits(floors, report):
            return keep, report
    found = next(_branch_and_bound(pre, limit, tally), None)
    return found[1:] if found else None


def _branch_and_bound(pre: GroupPresolve, limit: int, tally: Counter,
                      incumbent: tuple[Fraction, KeepVector, metrics.FairnessReport] | None = None):
    """Depth-first LP branch and bound over the presolved LP; the one search
    loop of this module. A generator: it yields each certified vertex that
    beats the best so far, as an (exact objective, keep vector, report)
    triple, and its caller decides when to stop. The best so far starts as
    `incumbent`, a certified triple, or None: nothing to beat.

    The root LP takes `solve_lp`'s cold start, which keeps every paper
    because every c_j > 0 and is dual feasible whatever the signs of the
    rows; every child warm-starts from its parent's optimal basis. Each
    node's solution is snapped once (`snap_binary`); an infeasible node
    closes. A fractional node branches on the column that carries the most
    objective, the largest c_j * min(r_j, 1 - r_j) over the columns
    `snap_binary` calls fractional, first on ties, and explores r_j = 1
    first. An integral vertex is expanded to a full keep vector and
    evaluated once (`metrics.evaluate`; a vertex equal to the best reuses
    its report). It is certified when that report meets the question's cap
    and floors in integers (`_admits`) and its exact group objective, the
    total kept fraction n(1 - zeta_group), matches its float bound within
    1e-6. An uncertifiable vertex (numerics went sour) splits on a free
    variable instead of being trusted or dropped. A node whose float bound
    plus 1e-9 does not beat the best is pruned. A child's LP takes the best
    as its cutoff and closes as soon as its dual bound fails that test,
    often long before its optimum; the root's LP runs to its optimum, and
    the test follows it. A child's bound is at most its parent's, so the
    cutoff also closes every node whose parent's bound already fails it,
    on its warm start, without a pivot.

    `tally` is the solve's `SolverDiagnostics` in the making, keyed by its
    fields: it sums the node, pruning, LP and pivot counts over every search
    of one solve, and `limit` caps its node count. Each search writes the
    size of its LP (`lp_rows`, `lp_cols`), so the tally keeps the last LP
    searched; a question with no floors also writes its root LP's bound and
    whether that LP was integral.
    """
    inst, lp0 = pre.inst, pre.lp
    tally["lp_rows"], tally["lp_cols"] = lp0.A.shape
    best = incumbent or (float("-inf"), None, None)  # nothing to beat
    cut = float(best[0])  # a node must beat it
    stack = [(lp0.lo, lp0.hi, None)]  # column bounds and the parent's optimal basis
    while stack:
        lo, hi, basis = stack.pop()
        tally["node_count"] += 1
        if tally["node_count"] > limit:
            raise SolverStopped(f"branch and bound exceeded {limit} nodes")
        # the root LP runs to its optimum: its value is the reported relaxation bound
        cutoff = float("-inf") if basis is None else cut - pre.offset
        sol = solve_lp(lp0.with_bounds(lo, hi), start=basis, cutoff=cutoff)
        tally["lp_calls"] += 1
        tally["lp_pivots"] += sol.iteration_count
        tally["lp_bound_flips"] += sol.bound_flips
        bound = sol.objective_value + pre.offset
        point = snap_binary(sol)
        if pre.floors is None and basis is None:  # the group root
            tally["lp_objective"], tally["lp_integral"] = bound, point is not None
        if sol.r is None and np.isnan(bound):  # infeasible
            continue
        if sol.r is None or bound + FEAS_TOL <= cut:  # cut off in its LP, or after it
            tally["nodes_pruned"] += 1
            continue
        if point is not None:
            keep = pre.expand(point)
            if keep == best[1]:
                exact, _, report = best
            else:
                report = metrics.evaluate(inst, keep)
                exact = inst.n * (1 - report.zeta_group)
            if _admits(pre.floors, report) and abs(bound - float(exact)) <= INT_TOL:
                if exact > best[0]:
                    best, cut = (exact, keep, report), float(exact)
                    yield best
                continue
            free = np.flatnonzero(lo < hi)
            if free.size == 0:
                continue
            j = free[0]
        else:
            frac = np.minimum(sol.r, 1.0 - sol.r)  # c_j-weighted, over snap_binary's fractional columns
            j = int(np.argmax(np.where(frac > INT_TOL, lp0.c * frac, -1.0)))
        zero_hi, one_lo = hi.copy(), lo.copy()
        zero_hi[j], one_lo[j] = 0.0, 1.0
        stack.append((lo, zero_hi, sol.basis))
        stack.append((one_lo, hi, sol.basis))


def solve_group_exact(inst: Instance) -> RunRecord:
    """Binary keep vector maximizing the total kept fraction subject to the cap.

    Equivalently minimizes the mean cost. The relaxation is first presolved
    (`presolve_group`) to the over-cap authors' rows and papers; the fixed
    papers' objective is added to every float bound. LP-first: an integral
    relaxation optimum is expanded to a full keep vector, re-certified in
    exact rationals on the full instance and returned; otherwise branch and
    bound (`_branch_and_bound`) from the conventional policy's keep vector
    as the first incumbent, whose last yield is the optimum.
    """
    limit = _node_limit()
    pre = presolve_group(inst)
    seed, _ = _conventional(inst)
    report = metrics.evaluate(inst, seed)
    incumbent = (inst.n * (1 - report.zeta_group), seed, report)
    tally = Counter()
    found = [incumbent, *_branch_and_bound(pre, limit, tally, incumbent)]
    best_obj, best_keep, best_report = found[-1]
    return RunRecord(
        policy="group-exact",
        keep=best_keep,
        report=best_report,
        objective=best_obj,
        diagnostics=SolverDiagnostics(
            **tally,
            best_bound=float(best_obj),  # the search closed: no open node is left
            incumbent_trace=tuple(e for e, _, _ in found),
        ),
    )


def solve_individual_exact(inst: Instance) -> RunRecord:
    """Binary keep vector minimizing the worst-case cost subject to the cap.

    The worst-case cost only takes values k/|papers of i|. A level t is met
    by the keep vectors giving each author i at least s_i - floor(s_i t) of
    their s_i papers, one feasibility question (`_decide`) with those
    floors. No keep vector goes below t_lb = max (s_i - x)/s_i over the
    over-cap authors, so the levels are walked up from t_lb and the first
    feasible one is the optimum. Node and LP counts are summed over the
    levels, and `DESKFAIR_NODE_LIMIT` caps their sum; `lp_rows` and
    `lp_cols` give the last level LP searched, None when no level needed one.
    """
    limit = _node_limit()
    sizes = [inst.paper_count(i) for i in range(inst.n)]
    distinct = set(sizes)  # a level's floor depends on the paper count alone
    tally = Counter()
    t = max((Fraction(s - inst.x, s) for s in distinct if s > inst.x), default=Fraction(0))
    while True:
        num, den = t.numerator, t.denominator
        floor_of = {s: s - (s * num) // den for s in distinct}
        found = _decide(inst, list(map(floor_of.__getitem__, sizes)), limit, tally)
        if found:  # at the latest at t = 1, which sets no floor
            break
        # the next level: the smallest k/s above t
        t = min(Fraction((s * num) // den + 1, s) for s in distinct)
    return RunRecord("individual-exact", *found, objective=t, diagnostics=SolverDiagnostics(**tally))


def solve_ideal_feasibility(inst: Instance) -> RunRecord:
    """A witness keep vector giving every author exactly min(x, own count)
    papers, or a record with keep None when no such vector exists: one
    feasibility question (`_decide`) with floors min(x, own count) under
    the cap x. `lp_rows` and `lp_cols` are None when it needed no LP."""
    limit = _node_limit()
    floors = [min(inst.x, inst.paper_count(i)) for i in range(inst.n)]
    tally = Counter()
    found = _decide(inst, floors, limit, tally)
    diagnostics = SolverDiagnostics(**tally)
    if not found:
        return RunRecord("ideal", None, None, diagnostics=diagnostics,
                         note="no keep set leaves every author at exactly min(x, own count)")
    return RunRecord("ideal", *found, diagnostics=diagnostics)


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
    covered = set().union(*sc.sets)
    missing = next((e for e in range(1, sc.universe_size + 1) if e not in covered), None)
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
    try:
        inst = reduce_set_cover(sc)
    except InstanceError:  # a valid SetCoverInstance reduces unless an element is in no set
        return False, None
    return decide_cover(inst)


def decide_cover(inst: Instance) -> tuple[bool, tuple[int, ...] | None]:
    """The covering question a `reduce_set_cover` instance poses, decided as
    floors 1 under its cap: (True, 0-based witness set indices) or (False, None)."""
    found = _decide(inst, [1] * inst.n, _node_limit(), Counter())
    return (True, found[0].kept_indices()) if found else (False, None)
