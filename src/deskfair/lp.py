"""Bounded-variable dual simplex over sparse, boxed LPs, and an MPS writer.

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
lists. An optimal solve returns `r` and its final `Basis`; a closed one
returns `r` None: infeasible, or cut off at a caller's `cutoff` (the
objective limit of branch and bound). Every structural column is boxed
(finite `lo` and `hi`) and every slack has cost 0 and lower bound 0, so a
basis that puts every nonbasic column at the bound its cost favours is
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
optimal, or closes a solve at the cutoff, unless it is dual feasible. The
reduced costs d = c - c_B B^-1 A
are computed once per solve and carried across pivots by the pivot row;
that final check recomputes them in full, so rounding in the carried d can
reorder tied ratios but never pass a basis that is not dual feasible.

Solutions are float arrays; `snap_binary`, the one integrality test, rounds
an integral one to a 0/1 array. The LPs of the keep-set question, the
relaxation and its presolve, are built in `solvers`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import SolverStopped

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
        return LinearProgram(self.c, self.A, self.b, np.asarray(lo, float), np.asarray(hi, float))


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
    """The result of one `solve_lp`. `r` is None iff the solve closed without
    an optimum: either the LP is infeasible, with `objective_value` NaN, or
    the solve was cut off, with `objective_value` the bound it closed at."""

    r: np.ndarray | None        # clipped to [lo, hi]
    objective_value: float      # c.r; nan when infeasible, the dual bound when cut off
    iteration_count: int        # pivots, closed solves included
    basis: Basis | None = None  # set on every optimal solve
    bound_flips: int = 0        # long-step flips: no pivot, not in iteration_count


def solve_lp(lp: LinearProgram, start: Basis | None = None,
             cutoff: float = float("-inf")) -> LpSolution:
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
    of bounds, the LP is infeasible. The reduced costs d, the basic values
    and the dual objective c.x of the basic solution are computed once and
    carried by the rank-1 update of each pivot (and each flip's d_j * step).
    A primal feasible basis is optimal if it is dual feasible, which the
    start must be; the check recomputes d in full, and a movable nonbasic
    column whose reduced cost has the wrong sign by more than FEAS_TOL
    raises `SolverStopped`. So does a pivot past the iteration cap,
    50 * (variables + rows), which counts pivots; flips are counted apart
    in `bound_flips`.

    `cutoff` is the objective limit of branch and bound: the dual objective
    of every basis the loop reaches bounds the optimum from above, so once
    it is at most cutoff - FEAS_TOL, recomputed from the basic solution,
    the solve runs the same dual feasibility check and closes with `r`
    None and that bound as its objective, optimal or not.
    """
    n_rows, n_struct = lp.A.shape
    n_all = n_struct + n_rows
    last = n_all + 1  # W's x_B column
    limit = cutoff - FEAS_TOL

    lo = np.concatenate([lp.lo, np.zeros(n_rows)])
    hi = np.concatenate([lp.hi, np.full(n_rows, np.inf)])
    c = np.concatenate([lp.c, np.zeros(n_rows)])
    movable = hi - lo > PIVOT_TOL

    # The one working array W: rows 0..n_rows-1 hold B^-1 [A | I | b | x_B],
    # row n_rows holds the reduced costs d = c - c_B B^-1 A under [A | I] and,
    # in its x_B cell, -c.x of the basic solution x.
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
    W[n_rows, last] = -(c @ nonbasic + c[basic] @ xB)

    # Per-row and per-column state, written in place on each pivot: the basic
    # rows' FEAS_TOL-shifted bounds, and each column's direction, +1 (-1) for
    # a movable nonbasic column at its lower (upper) bound and 0 otherwise.
    # The ratio walk reads Python lists, and the statuses stay lists until
    # the loop ends.
    lo_tol, hi_tol = lo[basic] - FEAS_TOL, hi[basic] + FEAS_TOL
    direction = np.where(at_upper, -1.0, 1.0) * movable
    direction[basic] = 0.0
    lo_l, hi_l, span = lo.tolist(), hi.tolist(), (hi - lo).tolist()
    basic, at_upper = basic.tolist(), at_upper.tolist()
    max_iter = 50 * (n_struct + n_rows)
    iteration = bound_flips = 0
    bound = float("nan")

    def basic_solution() -> np.ndarray:
        """x: each nonbasic column at its bound, each basic one at its x_B."""
        x = np.where(at_upper, hi, lo)
        x[basic] = xB
        return x

    # Dual simplex: pivot until every basic value is back within its bounds
    # (an LP without rows has none), or until the cutoff closes the solve.
    while True:
        if -W[n_rows, last] <= limit:
            # The carried objective drifts by rounding, so the cutoff reads
            # it recomputed, and refreshes it when it does not close.
            bound = float(lp.c @ basic_solution()[:n_struct])
            if bound <= limit:
                break
            W[n_rows, last] = -bound
        if not n_rows:
            break
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
        flipped, steps = [], []
        for j, a in zip(order.tolist(), alpha[order].tolist()):
            if abs(x_row - target) <= abs(a) * span[j] + FEAS_TOL:
                entering = j
                break
            step = -span[j] if at_upper[j] else span[j]  # a candidate's direction times its span
            xB -= step * T[:, j]
            x_row -= step * a
            at_upper[j] = not at_upper[j]
            flipped.append(j)
            steps.append(step)
        if entering < 0:
            return LpSolution(None, float("nan"), iteration, bound_flips=bound_flips + len(flipped))
        if flipped:
            direction[flipped] = -direction[flipped]
            W[n_rows, last] -= d[flipped] @ steps
            bound_flips += len(flipped)
        iteration += 1
        if iteration > max_iter:
            raise SolverStopped(f"no optimum after {max_iter} pivots")
        # |p| > PIVOT_TOL: entering is a candidate, and flips write only x_B
        p = float(T[row, entering])
        # One rank-1 update moves x_B and c.x with the basis: the pivot row's
        # x_B cell holds its gap, which the division turns into the entering
        # column's step, and that step from its bound is its value. When the
        # entering column has an entry in more than half of W's rows, all of
        # W takes the update in one call, where a row without an entry takes
        # x - 0 * y, its own values; else only the rows with one, whose
        # gather and scatter cost about twice as much per row.
        xB[row] = x_row - target
        W[row] /= p
        col = W[:, entering].copy()
        col[row] = 0.0
        others = col.nonzero()[0]
        if 2 * len(others) > len(W):
            W -= col[:, None] * W[row]
        else:
            W[others] -= col[others, None] * W[row]
        xB[row] += (hi_l if at_upper[entering] else lo_l)[entering]
        at_upper[leaving] = not below
        direction[leaving] = (1.0 if below else -1.0) if movable[leaving] else 0.0
        direction[entering] = 0.0
        basic[row] = entering
        lo_tol[row], hi_tol[row] = lo_l[entering] - FEAS_TOL, hi_l[entering] + FEAS_TOL

    # d drifts by rounding across pivots, so the optimality check recomputes
    # it; a cut-off basis passes the same check before its bound is trusted.
    basic = np.array(basic, dtype=np.intp)
    at_upper = np.array(at_upper, dtype=bool)
    in_basis = np.zeros(n_all, dtype=bool)
    in_basis[basic] = True
    d = c - c[basic] @ T[:, :n_all]
    wrong = movable & ~in_basis & np.where(at_upper, d < -FEAS_TOL, d > FEAS_TOL)
    if wrong.any():
        j = int(np.argmax(wrong))
        raise SolverStopped(
            f"basis is not dual feasible: column {j} has reduced cost {d[j]:.3e}")
    if bound <= limit:
        return LpSolution(None, bound, iteration, bound_flips=bound_flips)

    r = np.clip(basic_solution()[:n_struct], lp.lo, lp.hi)
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
