"""Bounded-variable dual simplex, the mean-cost relaxation and the presolve.

The solver is deliberately self-contained and vertex-based: basic feasible
solutions land on extreme points of the polytope, which is exactly what the
per-instance integrality audit needs to see. The pivot rules (the row
farthest outside its bounds leaves, the first row on ties; the smallest
column index enters on ratio ties) make the pivot sequence deterministic.

`solve_lp` is one bounded dual simplex for every start. A is held by its
nonzeros (`SparseMatrix`; the paper's relaxations are 0/+-1, one entry per
(paper, author) pair). The loop works on one dense array, the tableau
B^-1 [A | I | b] with the basic values x_B as one more column and the
reduced costs d as one more row, so a pivot is one division of the pivot
row and one rank-1 update; pricing and the ratio test read it with numpy,
and the ratio walk and the per-pivot bookkeeping run on Python floats and
lists. An optimal solve returns `r` and its final
`Basis`; an infeasible one returns `r` None. Every structural column is
boxed (finite `lo` and `hi`) and every slack has cost 0 and lower bound 0,
so a basis that puts every nonbasic column at the bound its cost favours is
dual feasible, and the dual loop alone reaches the optimum. There are two
starts:

- Cold (`start=None`): the tableau [A | I | b], scattered from A's
  nonzeros, with the slacks basic and each structural column at `hi` where
  c_j >= 0 and at `lo` elsewhere. Its reduced costs are d = c, so it is
  dual feasible whatever the signs of A. For the package LPs (every c_j > 0)
  it keeps every paper, and the dual loop repairs only the rows that point
  breaks: the over-cap authors' caps. Every floor row holds there unless no
  point in the bounds meets it.
- Warm (`start=` an optimal basis of an LP differing only in its bounds,
  in branch and bound the parent node's): the basis stays dual feasible, so
  the dual loop restores primal feasibility, or proves there is none, in a
  few pivots.

The dual ratio test takes long steps (bound flipping): the columns that can
move the leaving row toward its bound are walked in order of their dual
ratio, and each one whose whole range cannot close the row's gap flips to
its other bound without a pivot. From the cold start, a row k papers over
its cap then takes one pivot and k - 1 flips where a short step takes k
pivots. A final check of the reduced costs makes sure no basis is reported
optimal unless it is dual feasible. The reduced costs d = c - c_B B^-1 A
are computed once per solve and carried across pivots by the pivot row;
that final check recomputes them in full, so rounding in the carried d can
reorder tied ratios but never pass a basis that is not dual feasible.

Solutions are float arrays; `snap_binary`, the one integrality test, rounds
an integral one to 0/1, which `GroupPresolve.expand` turns into a `KeepVector`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .instance import Instance, KeepVector, SolverStopped

FEAS_TOL = 1e-9     # feasibility / optimality
INT_TOL = 1e-6      # integrality snap
PIVOT_TOL = 1e-12   # pivot degeneracy


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """A (rows, columns) matrix held by its nonzeros, value[k] at (row[k],
    col[k]) in strictly increasing row-major order, checked once on build."""

    shape: tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        rows, cols = self.shape
        if not len(self.row) == len(self.col) == len(self.value):
            raise ValueError("row, col and value must have equal lengths")
        inside = (0 <= self.row) & (self.row < rows) & (0 <= self.col) & (self.col < cols)
        key = self.row * cols + self.col  # strictly increasing: row-major, no cell twice
        if not inside.all() or np.any(key[1:] <= key[:-1]):
            raise ValueError(f"nonzeros must lie inside {self.shape} in row-major order")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Maximize c.r subject to A r <= b and lo <= r <= hi (elementwise).

    The bounds must be finite, so every LP is bounded."""

    c: np.ndarray
    A: SparseMatrix
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        rows, cols = self.A.shape
        if self.c.shape != (cols,) or self.b.shape != (rows,):
            raise ValueError(f"c and b must have shapes ({cols},) and ({rows},)")
        if self.lo.shape != (cols,) or self.hi.shape != (cols,):
            raise ValueError(f"lo and hi must have shape ({cols},)")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError("bounds must be finite")
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound")

    def with_bounds(self, lo, hi) -> "LinearProgram":
        return replace(self, lo=np.asarray(lo, float), hi=np.asarray(hi, float))


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex start: the final state of an optimal solve, to warm-start a
    related LP.

    `T` is the tableau B^-1 [A | I | b]: structural columns, slack columns and
    the right-hand-side column. `basic` holds the variable basic in each row,
    `at_upper` marks the nonbasic variables sitting at their upper bound. The
    bounds themselves are not part of it: a warm solve takes them from its own
    LP. Never mutated; a warm solve works on a copy.
    """

    T: np.ndarray
    basic: np.ndarray
    at_upper: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    r: np.ndarray | None        # clipped to [lo, hi]; None iff the LP is infeasible
    objective_value: float      # nan when infeasible
    iteration_count: int        # pivots, infeasible solves included
    basis: Basis | None = None  # set on every optimal solve
    bound_flips: int = 0        # long-step flips: no pivot, not in iteration_count


def _group_coefficients(inst: Instance) -> np.ndarray:
    """c_j: the sum of 1/|papers of i| over paper j's authors i, so c.r is
    the total kept fraction of keep vector r."""
    inv_sizes = [1.0 / inst.paper_count(i) for i in range(inst.n)]
    return np.array([sum(inv_sizes[i] for i in authors) for authors in inst.paper_authors])


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
    rows cap each author's kept papers at x, and 0 <= r <= 1."""
    rows = [(papers, 1.0, inst.x) for papers in inst.author_papers]
    return _rows_lp(_group_coefficients(inst), range(inst.m), rows)


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
    with no floors.
    """

    lp: LinearProgram      # cap rows, then floor rows (-1 entries)
    cols: tuple[int, ...]  # paper index of each reduced column
    offset: float          # c.r of the fixed papers, all kept
    m: int                 # paper count of the full instance
    floors: tuple[int, ...] | None = None

    def expand(self, reduced: np.ndarray) -> KeepVector:
        """Full-length binary keep vector: fixed papers kept, the rest from
        the reduced 0/1 array (see `snap_binary`)."""
        values = np.ones(self.m, dtype=int)
        values[list(self.cols)] = reduced
        return KeepVector.binary(values.tolist())


def presolve_group(inst: Instance, floors: list[int] | None = None) -> GroupPresolve:
    """Reduced relaxation (see `GroupPresolve`), built straight from the
    paper lists without the full n x m matrix: a row kept count <= x for
    each author with more than x papers, whose papers are the columns, and
    -(kept count) <= -(net floor) for each author whose floor net of the
    fixed papers stays positive."""
    capped = [i for i in range(inst.n) if inst.paper_count(i) > inst.x]
    rows = [(inst.author_papers[i], 1.0, inst.x) for i in capped]
    cols = sorted({j for i in capped for j in inst.author_papers[i]})
    fixed = np.ones(inst.m, dtype=bool)
    fixed[cols] = False
    is_fixed = fixed.tolist()
    for i, floor in enumerate(floors or ()):
        free = [j for j in inst.author_papers[i] if not is_fixed[j]]
        net = floor - (inst.paper_count(i) - len(free))
        if net > 0:
            rows.append((free, -1.0, -net))
    c = _group_coefficients(inst)
    return GroupPresolve(
        _rows_lp(c, cols, rows), tuple(cols), float(c[fixed].sum()), inst.m,
        None if floors is None else tuple(floors),
    )


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Bounded dual simplex, deterministic, from the cold start or a warm one.

    `start` is a dual feasible basis of an LP with the same c, A and b, in
    practice an optimal one of an LP differing only in its bounds, or None
    for the cold start: [A | I | b], one scatter of A's nonzeros into zeros,
    with the slacks basic and each structural column at `hi` where c_j >= 0
    and at `lo` elsewhere. A warm start's tableau and statuses are copied
    and its basic values are recomputed under this LP's bounds. The dual
    simplex then restores primal feasibility. Its pricing is Dantzig's: the
    leaving row is the row farthest outside its FEAS_TOL-widened bounds,
    the largest max(lo - FEAS_TOL - x_B, x_B - hi - FEAS_TOL), first row on
    ties. Its long-step ratio test walks the columns that move the row
    toward its bound in (|d_j / alpha_j|, j) order, flipping each column
    whose range leaves more than FEAS_TOL of the row's gap open and entering
    the first that closes it; when all of them flip and the row is still out
    of bounds, the LP is infeasible. The reduced costs d and the basic
    values are computed once and carried by the rank-1 update of each pivot.
    A primal feasible basis is optimal if it is dual feasible, which the
    start must be; the check recomputes d in full, and a movable nonbasic
    column whose reduced cost has the wrong sign by more than FEAS_TOL
    raises `SolverStopped`. So does a pivot past the iteration cap,
    50 * (variables + rows), which counts pivots; flips are counted apart
    in `bound_flips`.
    """
    n_rows, n_struct = lp.A.shape
    n_all = n_struct + n_rows
    last = n_all + 1  # W's x_B column

    lo = np.concatenate([lp.lo, np.zeros(n_rows)])
    hi = np.concatenate([lp.hi, np.full(n_rows, np.inf)])
    c = np.concatenate([lp.c, np.zeros(n_rows)])
    movable = hi - lo > PIVOT_TOL

    # The one working array W: rows 0..n_rows-1 hold B^-1 [A | I | b | x_B],
    # row n_rows holds the reduced costs d = c - c_B B^-1 A under [A | I].
    W = np.zeros((n_rows + 1, n_all + 2))
    if start is None:
        W[lp.A.row, lp.A.col] = lp.A.value
        W[np.arange(n_rows), np.arange(n_struct, n_all)] = 1.0
        W[:n_rows, n_all] = lp.b
        basic = np.arange(n_struct, n_all)
        at_upper = np.concatenate([lp.c >= 0, np.zeros(n_rows, dtype=bool)])
    else:
        W[:n_rows, :last] = start.T
        basic, at_upper = start.basic.copy(), start.at_upper.copy()
    T = W[:n_rows]
    nonbasic = np.where(at_upper, hi, lo)
    nonbasic[basic] = 0.0
    T[:, last] = T[:, n_all] - T[:, :n_all] @ nonbasic
    W[n_rows, :n_all] = c - c[basic] @ T[:, :n_all]
    xB, d = T[:, last], W[n_rows, :n_all]

    # Per-row and per-column state, written in place on each pivot: the basic
    # rows' FEAS_TOL-shifted bounds, and each column's direction, +1 (-1) for
    # a movable nonbasic column at its lower (upper) bound and 0 otherwise.
    # The ratio walk reads Python lists.
    lo_tol, hi_tol = lo[basic] - FEAS_TOL, hi[basic] + FEAS_TOL
    direction = np.where(at_upper, -1.0, 1.0) * movable
    direction[basic] = 0.0
    lo_l, hi_l, span = lo.tolist(), hi.tolist(), (hi - lo).tolist()
    basic = basic.tolist()
    max_iter = 50 * (n_struct + n_rows)
    iteration = bound_flips = 0

    # Dual simplex: pivot until every basic value is back within its bounds
    # (an LP without rows has none).
    while n_rows:
        # Dantzig pricing: the row farthest outside its bounds leaves.
        violation = np.maximum(lo_tol - xB, xB - hi_tol)
        row = int(violation.argmax())
        if violation[row] <= 0.0:
            break
        x_row = float(xB[row])
        leaving = basic[row]
        below = x_row < lo_l[leaving]
        target = lo_l[leaving] if below else hi_l[leaving]
        # A unit step of nonbasic j in its feasible direction moves x_B[row]
        # by -direction_j * alpha_j: up toward lo where that product is
        # negative, down toward hi where it is positive.
        alpha = T[row, :n_all]
        move = direction * alpha
        candidates = (move < -PIVOT_TOL if below else move > PIVOT_TOL).nonzero()[0]
        # Long step: a column whose whole range cannot close the row's gap
        # flips to its other bound; the first that can enters. When none can,
        # no point within the bounds fits the row.
        order = candidates[abs(d[candidates] / alpha[candidates]).argsort(kind="stable")]
        entering = -1
        for j, a, sign in zip(order.tolist(), alpha[order].tolist(), direction[order].tolist()):
            if abs(x_row - target) <= abs(a) * span[j] + FEAS_TOL:
                entering = j
                break
            step = sign * span[j]
            xB -= step * T[:, j]
            x_row -= step * a
            at_upper[j] = not at_upper[j]
            direction[j] = -direction[j]
            bound_flips += 1
        if entering < 0:
            return LpSolution(None, float("nan"), iteration, bound_flips=bound_flips)
        iteration += 1
        if iteration > max_iter:
            raise SolverStopped(f"no optimum after {max_iter} pivots")
        p = float(T[row, entering])
        if abs(p) < PIVOT_TOL:
            raise SolverStopped(f"pivot magnitude {abs(p):.3e} below tolerance")
        # One rank-1 update moves x_B with the basis: the pivot row's x_B
        # cell holds its gap, which the division turns into the entering
        # column's step, and that step from its bound is its value.
        xB[row] = x_row - target
        W[row] /= p
        col = W[:, entering].copy()
        col[row] = 0.0
        others = col.nonzero()[0]
        W[others] -= col[others, None] * W[row]
        xB[row] += (hi_l if at_upper[entering] else lo_l)[entering]
        at_upper[leaving] = not below
        direction[leaving] = (1.0 if below else -1.0) if movable[leaving] else 0.0
        direction[entering] = 0.0
        basic[row] = entering
        lo_tol[row], hi_tol[row] = lo_l[entering] - FEAS_TOL, hi_l[entering] + FEAS_TOL

    # d drifts by rounding across pivots, so the optimality check recomputes it.
    basic = np.array(basic, dtype=np.intp)
    in_basis = np.zeros(n_all, dtype=bool)
    in_basis[basic] = True
    d = c - c[basic] @ T[:, :n_all]
    wrong = movable & ~in_basis & np.where(at_upper, d < -FEAS_TOL, d > FEAS_TOL)
    if wrong.any():
        j = int(np.argmax(wrong))
        raise SolverStopped(
            f"basis is not dual feasible: column {j} has reduced cost {d[j]:.3e}")

    x = np.where(at_upper, hi, lo)
    x[basic] = xB
    r = np.clip(x[:n_struct], lp.lo, lp.hi)
    return LpSolution(
        r=r,
        objective_value=float(lp.c @ r),
        iteration_count=iteration,
        basis=Basis(T[:, :last], basic, at_upper),
        bound_flips=bound_flips,
    )


def snap_binary(sol: LpSolution) -> np.ndarray | None:
    """The one integrality test: the 0/1 int array of a solution whose every
    variable is within INT_TOL of 0 or 1, or None for a fractional or
    infeasible one."""
    if sol.r is None or not np.all(np.minimum(sol.r, 1.0 - sol.r) <= INT_TOL):
        return None
    return (sol.r > 0.5).astype(int)


def to_mps(lp: LinearProgram) -> str:
    """Fixed-layout MPS dump (ROWS/COLUMNS/RHS/BOUNDS) for external solvers.

    Emits OBJSENSE MAX; tools that ignore it minimize by default, so negate
    the objective there before comparing. Each column lists the objective,
    then A's nonzeros in it, rows ascending: a stable sort by column keeps
    the row-major order within each column.
    """
    order = np.argsort(lp.A.col, kind="stable")
    rows, values = lp.A.row[order], lp.A.value[order]
    starts = np.searchsorted(lp.A.col[order], np.arange(lp.A.shape[1] + 1)).tolist()
    lines = ["NAME          DESKFAIR", "OBJSENSE", "    MAX", "ROWS", " N  OBJ"]
    lines += [f" L  R{i + 1}" for i in range(lp.A.shape[0])]
    lines.append("COLUMNS")
    for j, (cj, s, e) in enumerate(zip(lp.c.tolist(), starts, starts[1:])):
        nonzeros = zip(rows[s:e].tolist(), values[s:e].tolist())
        entries = [("OBJ", cj)] + [(f"R{i + 1}", value) for i, value in nonzeros]
        for k in range(0, len(entries), 2):
            fields = "".join(f"  {rn:<8}  {val:.12g}" for rn, val in entries[k:k + 2])
            lines.append(f"    X{j + 1:<7}{fields}")
    lines.append("RHS")
    lines += [f"    RHS       R{i + 1:<7}  {bi:.12g}" for i, bi in enumerate(lp.b.tolist())]
    lines.append("BOUNDS")
    for j, (lo_j, hi_j) in enumerate(zip(lp.lo.tolist(), lp.hi.tolist())):
        lines.append(f" LO BND       X{j + 1:<7}  {lo_j:.12g}")
        lines.append(f" UP BND       X{j + 1:<7}  {hi_j:.12g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
