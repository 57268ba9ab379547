"""Dense bounded-variable primal simplex and the mean-cost relaxation builder.

The solver is deliberately self-contained and vertex-based: basic feasible
solutions land on extreme points of the polytope, which is exactly what the
per-instance integrality audit needs to see. Bland's smallest-index rule makes
the pivot sequence deterministic and cycle-free.

All constraint matrices built here are nonnegative (incidence rows), so the
all-lower-bound point is feasible whenever the program is; the solver relies
on that and reports infeasibility when the starting point violates a row.
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


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    r: KeepVector | None
    objective_value: float
    iteration_count: int


def _group_coefficients(inst: Instance) -> np.ndarray:
    """c_j: the sum of 1/|papers of i| over paper j's authors i, so c.r is
    the total kept fraction of keep vector r."""
    inv_sizes = [1.0 / inst.paper_count(i) for i in range(inst.n)]
    return np.array([sum(inv_sizes[i] for i in authors) for authors in inst.paper_authors])


def _cap_rows(inst: Instance, c: np.ndarray, authors, papers) -> LinearProgram:
    """Cap rows of `authors` over the columns `papers`, which must hold every
    paper of those authors; scattered straight from `inst.author_papers`."""
    column = {j: k for k, j in enumerate(papers)}
    A = np.zeros((len(authors), len(papers)))
    for k, i in enumerate(authors):
        A[k, [column[j] for j in inst.author_papers[i]]] = 1.0
    return LinearProgram(
        c=c[list(papers)],
        A=A,
        b=np.full(len(authors), float(inst.x)),
        lo=np.zeros(len(papers)),
        hi=np.ones(len(papers)),
    )


def build_group_relaxation(inst: Instance) -> LinearProgram:
    """LP relaxation of mean-cost minimization, phrased as maximizing the
    total kept fraction: c_j sums 1/|papers of i| over paper j's authors,
    rows cap each author's kept papers at x, and 0 <= r <= 1."""
    return _cap_rows(inst, _group_coefficients(inst), range(inst.n), range(inst.m))


@dataclass(frozen=True, eq=False)
class GroupPresolve:
    """The group relaxation reduced to the rows that can bind.

    A row whose author has at most x papers holds for every r in [0, 1]^m,
    so only over-cap authors keep a row. A paper with no over-cap author then
    sits in no row and has c_j > 0, so some optimum (of the LP and of the
    binary problem alike) keeps it: it is fixed at r_j = 1 and dropped.
    """

    lp: LinearProgram      # over-cap authors x the papers they touch
    cols: tuple[int, ...]  # paper index of each reduced column
    offset: float          # c.r of the fixed papers, all kept
    m: int                 # paper count of the full instance

    def expand(self, reduced: KeepVector) -> KeepVector:
        """Full-length binary keep vector: fixed papers kept, the rest from
        the reduced binary vector."""
        values = [1] * self.m
        for j, v in zip(self.cols, reduced.values):
            values[j] = v
        return KeepVector.binary(values)


def presolve_group(inst: Instance) -> GroupPresolve:
    """Reduced group relaxation; never allocates the full n x m matrix."""
    rows = [i for i in range(inst.n) if inst.paper_count(i) > inst.x]
    cols = sorted({j for i in rows for j in inst.author_papers[i]})
    c = _group_coefficients(inst)
    fixed = np.ones(inst.m, dtype=bool)
    fixed[cols] = False
    return GroupPresolve(_cap_rows(inst, c, rows, cols), tuple(cols), float(c[fixed].sum()), inst.m)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Bounded-variable primal simplex, Bland's rule, deterministic.

    Structural variables start nonbasic at their lower bounds with slacks
    basic; the iteration cap is 50 * (variables + rows).
    """
    n_rows, n_struct = lp.A.shape
    n_all = n_struct + n_rows

    lo = np.concatenate([lp.lo, np.zeros(n_rows)])
    hi = np.concatenate([lp.hi, np.full(n_rows, np.inf)])
    c = np.concatenate([lp.c, np.zeros(n_rows)])

    T = np.hstack([lp.A.astype(float), np.eye(n_rows)])
    basis = list(range(n_struct, n_all))
    at_upper = np.zeros(n_all, dtype=bool)
    xB = lp.b - lp.A @ lp.lo
    if np.any(xB < -FEAS_TOL):
        # A >= 0 here, so the all-lower point minimizes every row: no point fits.
        return LpSolution(LpStatus.INFEASIBLE, None, float("nan"), 0)

    in_basis = np.zeros(n_all, dtype=bool)
    in_basis[basis] = True
    max_iter = 50 * (n_struct + n_rows)
    iteration = 0

    def nonbasic_value(j):
        return hi[j] if at_upper[j] else lo[j]

    while True:
        cB = c[basis]
        d = c - cB @ T
        entering = -1
        for j in range(n_all):
            if in_basis[j] or hi[j] - lo[j] <= PIVOT_TOL:
                continue
            if (not at_upper[j] and d[j] > FEAS_TOL) or (at_upper[j] and d[j] < -FEAS_TOL):
                entering = j
                break
        if entering < 0:
            break

        iteration += 1
        if iteration > max_iter:
            raise SolverStalled(f"no optimum after {max_iter} pivots")

        sigma = -1.0 if at_upper[entering] else 1.0
        y = T[:, entering]
        # Each basic value moves at rate -sigma*y_i per unit step of the
        # entering variable; the step is capped by the first bound hit.
        step = hi[entering] - lo[entering]
        leave_row = -1
        leave_to_upper = False
        for i in range(n_rows):
            rate = -sigma * y[i]
            if rate < -PIVOT_TOL:
                limit = (xB[i] - lo[basis[i]]) / -rate
                hits_upper = False
            elif rate > PIVOT_TOL and np.isfinite(hi[basis[i]]):
                limit = (hi[basis[i]] - xB[i]) / rate
                hits_upper = True
            else:
                continue
            if limit < step - PIVOT_TOL or (
                limit < step + PIVOT_TOL
                and leave_row >= 0
                and basis[i] < basis[leave_row]
            ):
                step = limit
                leave_row = i
                leave_to_upper = hits_upper
            elif limit < step + PIVOT_TOL and leave_row < 0:
                step = limit
                leave_row = i
                leave_to_upper = hits_upper
        if not np.isfinite(step):
            return LpSolution(LpStatus.UNBOUNDED, None, float("inf"), iteration)

        step = max(step, 0.0)
        xB -= sigma * step * y
        if leave_row < 0:
            at_upper[entering] = not at_upper[entering]  # bound flip
            continue

        pivot = T[leave_row, entering]
        if abs(pivot) < PIVOT_TOL:
            raise NumericalBreakdown(f"pivot magnitude {abs(pivot):.3e} below tolerance")
        leaving = basis[leave_row]
        in_basis[leaving] = False
        at_upper[leaving] = leave_to_upper
        entering_value = nonbasic_value(entering) + sigma * step
        basis[leave_row] = entering
        in_basis[entering] = True
        T[leave_row] /= pivot
        for i in range(n_rows):
            if i != leave_row and abs(T[i, entering]) > 0.0:
                T[i] -= T[i, entering] * T[leave_row]
        xB[leave_row] = entering_value

    x = np.array([nonbasic_value(j) for j in range(n_all)])
    x[basis] = xB
    r = np.clip(x[:n_struct], 0.0, 1.0)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        r=KeepVector.fractional(tuple(float(v) for v in r)),
        objective_value=float(lp.c @ r),
        iteration_count=iteration,
    )


def integrality_check(sol: LpSolution) -> bool:
    """True iff every variable of an optimal solution is within 1e-6 of 0 or 1."""
    if sol.status is not LpStatus.OPTIMAL:
        raise NotOptimal(f"integrality is only defined for optimal solutions, got {sol.status}")
    return all(min(v, 1.0 - v) <= INT_TOL for v in sol.r.values)


def snap_binary(sol: LpSolution) -> KeepVector:
    """Round an integral LP solution to an exact binary keep vector."""
    if not integrality_check(sol):
        raise ValueError("solution is fractional; nothing to snap")
    return KeepVector.binary(1 if v > 0.5 else 0 for v in sol.r.values)


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
