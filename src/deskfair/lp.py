"""Dense bounded-variable dual simplex, the mean-cost relaxation and the presolve.

The solver is deliberately self-contained and vertex-based: basic feasible
solutions land on extreme points of the polytope, which is exactly what the
per-instance integrality audit needs to see. The pivot rules (smallest
basic index to leave, smallest column index on ratio ties) make the pivot
sequence deterministic.

`solve_lp` is one bounded dual simplex for every start. Pricing, the ratio
test and the row elimination are numpy operations on a dense tableau that
also carries the right-hand side B^-1 b. An optimal solve returns `r` and
its final `Basis`; an infeasible one returns `r` None. Every structural
column is boxed (finite `lo` and `hi`) and every slack has cost 0 and lower
bound 0, so a basis that puts every nonbasic column at the bound its cost
favours is dual feasible, and the dual loop alone reaches the optimum.
There are two starts:

- Cold (`start=None`): the tableau [A | I | b] with the slacks basic and each
  structural column at `hi` where c_j >= 0 and at `lo` elsewhere. Its
  reduced costs are d = c, so it is dual feasible whatever the signs of A.
  For the package LPs (every c_j > 0) it keeps every paper, and the dual loop
  repairs only the rows that point breaks: the over-cap authors' caps and
  the budget row. Every floor row holds there unless no point in the bounds
  meets it.
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
optimal unless it is dual feasible.

Solutions are float arrays; `snap_binary`, the one integrality test, rounds
an integral one to 0/1, which `GroupPresolve.expand` turns into a `KeepVector`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .instance import Instance, KeepVector

FEAS_TOL = 1e-9     # feasibility / optimality
INT_TOL = 1e-6      # integrality snap
PIVOT_TOL = 1e-12   # pivot degeneracy


class SolverStalled(RuntimeError):
    pass


class NumericalBreakdown(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Maximize c.r subject to A r <= b and lo <= r <= hi (elementwise).

    The bounds must be finite, so every LP is bounded."""

    c: np.ndarray
    A: np.ndarray
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
    """The LP maximizing c.r over the columns `cols` (paper indices) subject
    to `rows`, each a (papers, sign, rhs) row sign * sum_{j in papers} r_j <=
    rhs whose papers all lie in `cols`."""
    column = {j: k for k, j in enumerate(cols)}
    A = np.zeros((len(rows), len(cols)))
    for k, (papers, sign, _) in enumerate(rows):
        A[k, [column[j] for j in papers]] = sign
    return LinearProgram(
        c=c[list(cols)],
        A=A,
        b=np.array([rhs for _, _, rhs in rows], dtype=float),
        lo=np.zeros(len(cols)),
        hi=np.ones(len(cols)),
    )


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

    Every question caps each author at x papers. It may also ask author i
    to keep at least `floors[i]` papers, and the keep set to hold at most
    `max_kept` papers. A cap row holds for every r in [0, 1]^m when its
    author has at most x papers, and so does the budget row when
    max_kept >= m; neither is kept. A paper in no kept cap row then only
    raises kept counts and c.r (c_j > 0), so some optimum, and some feasible
    point if there is one, keeps it: it is fixed at r_j = 1 and dropped, and
    each floor is taken net of the author's fixed papers. The group
    relaxation is the question with no floors and no budget.
    """

    lp: LinearProgram      # cap rows, the budget row, floor rows (-1 entries)
    cols: tuple[int, ...]  # paper index of each reduced column
    offset: float          # c.r of the fixed papers, all kept
    m: int                 # paper count of the full instance
    floors: tuple[int, ...] | None = None
    max_kept: int | None = None  # None when the budget row was dropped

    def expand(self, reduced: np.ndarray) -> KeepVector:
        """Full-length binary keep vector: fixed papers kept, the rest from
        the reduced 0/1 array (see `snap_binary`)."""
        values = np.ones(self.m, dtype=int)
        values[list(self.cols)] = reduced
        return KeepVector.binary(values.tolist())


def presolve_group(
    inst: Instance, floors: list[int] | None = None, max_kept: int | None = None
) -> GroupPresolve:
    """Reduced relaxation (see `GroupPresolve`), built straight from the
    paper lists without the full n x m matrix: a row kept count <= x for
    each author with more than x papers, total kept <= `max_kept` when that
    is below m, and -(kept count) <= -(net floor) for each author whose
    floor net of the fixed papers stays positive."""
    capped = [i for i in range(inst.n) if inst.paper_count(i) > inst.x]
    rows = [(inst.author_papers[i], 1.0, inst.x) for i in capped]
    if max_kept is not None and max_kept < inst.m:
        cols = range(inst.m)
        rows.append((cols, 1.0, max_kept))
    else:
        max_kept = None
        cols = sorted({j for i in capped for j in inst.author_papers[i]})
    fixed = np.ones(inst.m, dtype=bool)
    fixed[list(cols)] = False
    is_fixed = fixed.tolist()
    for i, floor in enumerate(floors or ()):
        free = [j for j in inst.author_papers[i] if not is_fixed[j]]
        net = floor - (inst.paper_count(i) - len(free))
        if net > 0:
            rows.append((free, -1.0, -net))
    c = _group_coefficients(inst)
    return GroupPresolve(
        _rows_lp(c, cols, rows), tuple(cols), float(c[fixed].sum()), inst.m,
        None if floors is None else tuple(floors), max_kept,
    )


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Bounded dual simplex, deterministic, from the cold start or a warm one.

    `start` is a dual feasible basis of an LP with the same c, A and b, in
    practice an optimal one of an LP differing only in its bounds, or None
    for the cold start: [A | I | b] with the slacks basic and each structural
    column at `hi` where c_j >= 0 and at `lo` elsewhere. A warm start's
    tableau and statuses are copied and its basic values are recomputed
    under this LP's bounds. The dual simplex then restores primal
    feasibility: the leaving row is the out-of-bounds row with the smallest
    basic index, and its long-step ratio test walks the columns that move
    the row toward its bound in (|d_j / alpha_j|, j) order, flipping each
    column whose range leaves more than FEAS_TOL of the row's gap open and
    entering the first that closes it; when all of them flip and the row is
    still out of bounds, the LP is infeasible. A primal feasible basis is
    optimal if it is dual feasible, which the start must be; a movable
    nonbasic column whose reduced cost has the wrong sign by more than
    FEAS_TOL raises `NumericalBreakdown`. The iteration cap,
    50 * (variables + rows), counts pivots; flips are counted apart in
    `bound_flips`.
    """
    n_rows, n_struct = lp.A.shape
    n_all = n_struct + n_rows

    lo = np.concatenate([lp.lo, np.zeros(n_rows)])
    hi = np.concatenate([lp.hi, np.full(n_rows, np.inf)])
    c = np.concatenate([lp.c, np.zeros(n_rows)])
    movable = hi - lo > PIVOT_TOL

    if start is None:
        T = np.hstack([lp.A.astype(float), np.eye(n_rows), lp.b.reshape(-1, 1)])
        basic = np.arange(n_struct, n_all)
        at_upper = np.concatenate([lp.c >= 0, np.zeros(n_rows, dtype=bool)])
    else:
        T, basic, at_upper = start.T.copy(), start.basic.copy(), start.at_upper.copy()
    nonbasic = np.where(at_upper, hi, lo)
    nonbasic[basic] = 0.0
    xB = T[:, n_all] - T[:, :n_all] @ nonbasic

    in_basis = np.zeros(n_all, dtype=bool)
    in_basis[basic] = True
    max_iter = 50 * (n_struct + n_rows)
    iteration = bound_flips = 0

    def reduced_costs():
        return c - c[basic] @ T[:, :n_all]

    # Dual simplex: pivot until every basic value is back within its bounds.
    while True:
        lo_b, hi_b = lo[basic], hi[basic]
        out = np.flatnonzero((xB < lo_b - FEAS_TOL) | (xB > hi_b + FEAS_TOL))
        if out.size == 0:
            break
        row = out[np.argmin(basic[out])]
        below = xB[row] < lo_b[row]
        target = lo_b[row] if below else hi_b[row]
        # x_B[row] moves by -alpha_j per unit step of nonbasic j in its own
        # feasible direction (up from lower, down from upper).
        alpha = T[row, :n_all]
        gain = np.where(at_upper, alpha, -alpha)
        toward = gain > PIVOT_TOL if below else gain < -PIVOT_TOL
        candidates = np.flatnonzero(toward & movable & ~in_basis)
        # Long step: a column whose whole range cannot close the row's gap
        # flips to its other bound; the first that can enters. When none can,
        # no point within the bounds fits the row.
        ratio = np.abs(reduced_costs()[candidates] / alpha[candidates])
        entering = -1
        for j in candidates[np.argsort(ratio, kind="stable")]:
            span = hi[j] - lo[j]
            if abs(xB[row] - target) <= abs(alpha[j]) * span + FEAS_TOL:
                entering = j
                break
            xB -= (-span if at_upper[j] else span) * T[:, j]
            at_upper[j] = not at_upper[j]
            bound_flips += 1
        if entering < 0:
            return LpSolution(None, float("nan"), iteration, bound_flips=bound_flips)
        iteration += 1
        if iteration > max_iter:
            raise SolverStalled(f"no optimum after {max_iter} pivots")
        p = T[row, entering]
        if abs(p) < PIVOT_TOL:
            raise NumericalBreakdown(f"pivot magnitude {abs(p):.3e} below tolerance")
        delta = (xB[row] - target) / p
        entering_value = (hi if at_upper[entering] else lo)[entering] + delta
        xB -= delta * T[:, entering]
        leaving = basic[row]
        in_basis[leaving] = False
        at_upper[leaving] = not below
        basic[row] = entering
        in_basis[entering] = True
        T[row] /= p
        col = T[:, entering].copy()
        col[row] = 0.0
        others = np.flatnonzero(col)
        T[others] -= np.outer(col[others], T[row])
        xB[row] = entering_value

    d = reduced_costs()
    wrong = movable & ~in_basis & np.where(at_upper, d < -FEAS_TOL, d > FEAS_TOL)
    if wrong.any():
        j = int(np.argmax(wrong))
        raise NumericalBreakdown(
            f"basis is not dual feasible: column {j} has reduced cost {d[j]:.3e}")

    x = np.where(at_upper, hi, lo)
    x[basic] = xB
    r = np.clip(x[:n_struct], lp.lo, lp.hi)
    return LpSolution(
        r=r,
        objective_value=float(lp.c @ r),
        iteration_count=iteration,
        basis=Basis(T, basic, at_upper),
        bound_flips=bound_flips,
    )


def snap_binary(sol: LpSolution) -> np.ndarray | None:
    """The one integrality test: the 0/1 int array of a solution whose every
    variable is within INT_TOL of 0 or 1, or None for a fractional or
    infeasible one."""
    if sol.r is None or not np.all(np.minimum(sol.r, 1.0 - sol.r) <= INT_TOL):
        return None
    return (sol.r > 0.5).astype(int)


MPS_NAME = "DESKFAIR"


def to_mps(lp: LinearProgram) -> str:
    """Fixed-layout MPS dump (ROWS/COLUMNS/RHS/BOUNDS) for external solvers.

    Emits OBJSENSE MAX; tools that ignore it minimize by default, so negate
    the objective there before comparing. Walks only the nonzeros of A.
    """
    rows, cols = lp.A.shape
    lines = [f"NAME          {MPS_NAME}", "OBJSENSE", "    MAX", "ROWS", " N  OBJ"]
    lines += [f" L  R{i + 1}" for i in range(rows)]
    lines.append("COLUMNS")
    by_column = [[("OBJ", c)] for c in lp.c.tolist()]
    row_of, col_of = np.nonzero(lp.A)  # row-major, so rows ascend within each column
    for j, i, value in zip(col_of.tolist(), row_of.tolist(), lp.A[row_of, col_of].tolist()):
        by_column[j].append((f"R{i + 1}", value))
    for j, entries in enumerate(by_column):
        for k in range(0, len(entries), 2):
            pair = entries[k:k + 2]
            fields = "".join(f"  {rn:<8}  {val:.12g}" for rn, val in pair)
            lines.append(f"    X{j + 1:<7}{fields}")
    lines.append("RHS")
    for i in range(rows):
        lines.append(f"    RHS       R{i + 1:<7}  {lp.b[i]:.12g}")
    lines.append("BOUNDS")
    for j in range(cols):
        lines.append(f" LO BND       X{j + 1:<7}  {lp.lo[j]:.12g}")
        lines.append(f" UP BND       X{j + 1:<7}  {lp.hi[j]:.12g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
