"""Dense bounded-variable simplex, the mean-cost relaxation and the presolve.

The solver is deliberately self-contained and vertex-based: basic feasible
solutions land on extreme points of the polytope, which is exactly what the
per-instance integrality audit needs to see. Bland's smallest-index rule makes
the pivot sequence deterministic and cycle-free.

`solve_lp` is the one simplex for every start. Pricing, the ratio test and
the row elimination are numpy operations on a dense tableau that also
carries the right-hand side B^-1 b, and every optimal solve returns its
final `Basis`. Every solve copies a start basis, recomputes its basic values
under the LP's bounds and runs a dual simplex, then the primal simplex.
`slack_basis` builds the two starts from scratch, [A | I | b] with the
slacks basic:

- Slack start (`start=None`): every structural column at its lower bound.
  On a nonnegative matrix, such as the cap rows of `build_group_relaxation`
  and of the floor-free presolve, that point is feasible whenever the
  program is, and the dual loop has nothing to do; when that point breaks
  a row, no column can lower it, and the dual loop reports infeasibility
  after 0 pivots. The floor rows of `presolve_group` carry -1 entries, so
  this argument does not cover them, and no solve path starts them here.
- All-kept start (`slack_basis(lp, at_upper=True)`, the root of every
  search in `solvers`): every structural column at its upper bound. With
  c >= 0 it is dual feasible whatever the signs of A, so the dual loop only
  repairs the rows it breaks: the over-cap authors' caps and the budget
  row. Every floor row holds there unless no point in the bounds meets it.
- Warm (`start=` an optimal basis of an LP differing only in its bounds,
  in branch and bound the parent node's): the basis stays dual feasible, so a
  dual simplex restores primal feasibility, or proves there is none, in a few
  pivots, and the primal loop then confirms optimality.

The dual ratio test takes long steps (bound flipping): the columns that can
move the leaving row toward its bound are walked in order of their dual
ratio, and each one whose whole range cannot close the row's gap flips to
its other bound without a pivot. From the all-kept start, a row k papers
over its cap then takes one pivot and k - 1 flips where a short step takes
k pivots.

Solutions are float arrays; `GroupPresolve.expand` turns an integral one
into a binary `KeepVector`.
"""

from __future__ import annotations

import enum
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


class NotOptimal(ValueError):
    pass


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Maximize c.r subject to A r <= b and lo <= r <= hi (elementwise)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        rows, cols = self.A.shape
        assert self.c.shape == (cols,) and self.b.shape == (rows,)
        assert self.lo.shape == (cols,) and self.hi.shape == (cols,)
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound")

    def with_bounds(self, lo, hi) -> "LinearProgram":
        return replace(self, lo=np.asarray(lo, float), hi=np.asarray(hi, float))


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex start: the final state of an optimal solve, to warm-start a
    related LP, or one of the two `slack_basis` starts.

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
    status: LpStatus
    r: np.ndarray | None  # clipped to [0, 1]
    objective_value: float
    iteration_count: int        # pivots of both phases, primal bound flips included
    basis: Basis | None = None  # set on every optimal solve
    dual_pivots: int = 0        # dual-phase pivots, part of iteration_count
    bound_flips: int = 0        # long-step flips of the dual phase: no pivot,
                                # not in iteration_count


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


def _leaving_row(limit: np.ndarray, basic: np.ndarray, step: float) -> tuple[int, float]:
    """Bland's ratio test as a scan in row order: a row takes over when its
    limit undercuts the current step by PIVOT_TOL, or ties it within PIVOT_TOL
    with a smaller basic index (the first row within reach of the initial
    step always takes over). Returns (row, step); row -1 means a bound flip.

    After the first row the step starts from (its limit if it takes over,
    else the initial step), and each later take-over raises it by less than
    PIVOT_TOL, so no row beyond that start plus (rows + 1) * PIVOT_TOL can
    ever win: only the rows within that reach are scanned.
    """
    rows = np.flatnonzero(limit < np.inf)
    if rows.size == 0:
        return -1, step
    first = limit[rows[0]]
    reach = (first if first < step + PIVOT_TOL else step) + (rows.size + 1) * PIVOT_TOL
    leave = -1
    for i in rows[limit[rows] < reach]:
        if limit[i] < step - PIVOT_TOL or (
            limit[i] < step + PIVOT_TOL and (leave < 0 or basic[i] < basic[leave])
        ):
            leave, step = int(i), limit[i]
    return leave, step


def slack_basis(lp: LinearProgram, at_upper: bool = False) -> Basis:
    """The tableau [A | I | b] with the slacks basic and every structural
    column nonbasic at its lower bound, or at its upper bound with
    `at_upper`. The lower start is the cold start of `solve_lp`. The upper
    start is dual feasible whenever c >= 0; for the group LP it keeps every
    paper, so only the over-cap rows are left to repair."""
    n_rows, n_struct = lp.A.shape
    tableau = np.hstack([lp.A.astype(float), np.eye(n_rows), lp.b.reshape(-1, 1)])
    upper = np.zeros(n_struct + n_rows, dtype=bool)
    upper[:n_struct] = at_upper
    return Basis(tableau, np.arange(n_struct, n_struct + n_rows), upper)


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Bounded-variable simplex, deterministic, from any start basis.

    `start` is a basis of an LP with the same c, A and b (an optimal one, or
    `slack_basis(lp, at_upper=True)` when c >= 0), or None for the slack
    basis ([A | I | b], slacks basic, nothing at its upper bound). Its
    tableau and statuses are copied and the basic values are recomputed
    under this LP's bounds. A dual simplex then restores primal feasibility:
    the leaving row is the out-of-bounds row with the smallest basic index,
    and its long-step ratio test walks the columns that move the row toward
    its bound in (|d_j / alpha_j|, j) order, flipping each column whose
    range leaves more than FEAS_TOL of the row's gap open and entering the
    first that closes it; when all of them flip and the row is still out of
    bounds, the LP is infeasible. The primal simplex with Bland's rule then
    runs to optimality. The iteration cap, 50 * (variables + rows), counts
    the pivots of both phases; flips are counted apart in `bound_flips`.
    """
    n_rows, n_struct = lp.A.shape
    n_all = n_struct + n_rows

    lo = np.concatenate([lp.lo, np.zeros(n_rows)])
    hi = np.concatenate([lp.hi, np.full(n_rows, np.inf)])
    c = np.concatenate([lp.c, np.zeros(n_rows)])
    movable = hi - lo > PIVOT_TOL

    if start is None:
        start = slack_basis(lp)
    T, basic, at_upper = start.T.copy(), start.basic.copy(), start.at_upper.copy()
    nonbasic = np.where(at_upper, hi, lo)
    nonbasic[basic] = 0.0
    xB = T[:, n_all] - T[:, :n_all] @ nonbasic

    in_basis = np.zeros(n_all, dtype=bool)
    in_basis[basic] = True
    max_iter = 50 * (n_struct + n_rows)
    iteration = dual_pivots = bound_flips = 0

    def reduced_costs():
        return c - c[basic] @ T[:, :n_all]

    def count_iteration():
        nonlocal iteration
        iteration += 1
        if iteration > max_iter:
            raise SolverStalled(f"no optimum after {max_iter} pivots")

    def pivot(row, entering, entering_value, leaving_to_upper):
        p = T[row, entering]
        if abs(p) < PIVOT_TOL:
            raise NumericalBreakdown(f"pivot magnitude {abs(p):.3e} below tolerance")
        leaving = basic[row]
        in_basis[leaving] = False
        at_upper[leaving] = leaving_to_upper
        basic[row] = entering
        in_basis[entering] = True
        T[row] /= p
        col = T[:, entering].copy()
        col[row] = 0.0
        others = np.flatnonzero(col)
        T[others] -= np.outer(col[others], T[row])
        xB[row] = entering_value

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
            return LpSolution(LpStatus.INFEASIBLE, None, float("nan"), iteration,
                              dual_pivots=dual_pivots, bound_flips=bound_flips)
        delta = (xB[row] - target) / alpha[entering]
        entering_value = (hi if at_upper[entering] else lo)[entering] + delta
        count_iteration()
        dual_pivots += 1
        xB -= delta * T[:, entering]
        pivot(row, entering, entering_value, not below)

    # Primal simplex, Bland's rule: the first improving column enters.
    while True:
        d = reduced_costs()
        improving = movable & ~in_basis & np.where(at_upper, d < -FEAS_TOL, d > FEAS_TOL)
        if not improving.any():
            break
        entering = int(np.argmax(improving))
        count_iteration()

        sigma = -1.0 if at_upper[entering] else 1.0
        y = T[:, entering]
        # Each basic value moves at rate -sigma*y_i per unit step of the
        # entering variable; the step is capped by the first bound hit.
        rate = -sigma * y
        lo_b, hi_b = lo[basic], hi[basic]
        down = rate < -PIVOT_TOL
        up = (rate > PIVOT_TOL) & np.isfinite(hi_b)
        limit = np.full(n_rows, np.inf)
        limit[down] = (xB[down] - lo_b[down]) / -rate[down]
        limit[up] = (hi_b[up] - xB[up]) / rate[up]
        leave_row, step = _leaving_row(limit, basic, hi[entering] - lo[entering])
        if not np.isfinite(step):
            return LpSolution(LpStatus.UNBOUNDED, None, float("inf"), iteration,
                              dual_pivots=dual_pivots, bound_flips=bound_flips)

        step = max(step, 0.0)
        xB -= sigma * step * y
        if leave_row < 0:
            at_upper[entering] = not at_upper[entering]  # bound flip
            continue
        entering_value = (hi if at_upper[entering] else lo)[entering] + sigma * step
        pivot(leave_row, entering, entering_value, bool(up[leave_row]))

    x = np.where(at_upper, hi, lo)
    x[basic] = xB
    r = np.clip(x[:n_struct], 0.0, 1.0)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        r=r,
        objective_value=float(lp.c @ r),
        iteration_count=iteration,
        basis=Basis(T, basic, at_upper),
        dual_pivots=dual_pivots,
        bound_flips=bound_flips,
    )


def integrality_check(sol: LpSolution) -> bool:
    """True iff every variable of an optimal solution is within 1e-6 of 0 or 1."""
    if sol.status is not LpStatus.OPTIMAL:
        raise NotOptimal(f"integrality is only defined for optimal solutions, got {sol.status}")
    return bool(np.all(np.minimum(sol.r, 1.0 - sol.r) <= INT_TOL))


def snap_binary(sol: LpSolution) -> np.ndarray:
    """Round an integral LP solution to a 0/1 int array."""
    if not integrality_check(sol):
        raise ValueError("solution is fractional; nothing to snap")
    return (sol.r > 0.5).astype(int)


def to_mps(lp: LinearProgram, name: str = "DESKFAIR") -> str:
    """Fixed-layout MPS dump (ROWS/COLUMNS/RHS/BOUNDS) for external solvers.

    Emits OBJSENSE MAX; tools that ignore it minimize by default, so negate
    the objective there before comparing.
    """
    rows, cols = lp.A.shape
    lines = [f"NAME          {name}", "OBJSENSE", "    MAX", "ROWS", " N  OBJ"]
    lines += [f" L  R{i + 1}" for i in range(rows)]
    lines.append("COLUMNS")
    for j in range(cols):
        entries = [("OBJ", lp.c[j])]
        entries += [(f"R{i + 1}", lp.A[i, j]) for i in range(rows) if lp.A[i, j] != 0.0]
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
