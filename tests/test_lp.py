import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from deskfair.generators import gen_case_study, gen_random, gen_triangle
from deskfair.instance import SolverStopped, validate_instance
from deskfair.lp import (
    FEAS_TOL,
    Basis,
    LinearProgram,
    SparseMatrix,
    _rank1,
    snap_binary,
    solve_lp,
    to_mps,
)
from deskfair.metrics import zeta_group
from deskfair.oracle import enumerate_optimal
from deskfair.solvers import build_group_relaxation, presolve_group

from conftest import dense, instances, pre_lp_off, random_instance


def ones_row(cols):
    """The 1 x `cols` matrix of ones."""
    return SparseMatrix((1, cols), np.zeros(cols, dtype=np.intp), np.arange(cols), np.ones(cols))


def test_relaxation_triangle(triangle):
    lp = build_group_relaxation(triangle)
    assert np.allclose(lp.c, [1.0, 1.0, 1.0])  # each paper splits two authors' halves
    assert lp.A.shape == (3, 3)
    assert np.allclose(lp.b, [1.0, 1.0, 1.0])
    assert np.allclose(lp.lo, 0.0) and np.allclose(lp.hi, 1.0)
    # each row caps the two papers of one author
    assert np.allclose(dense(lp.A).sum(axis=1), 2.0)


def test_relaxation_single_author():
    inst = validate_instance({
        "x": 2,
        "authors": ["a1"],
        "papers": [{"id": "p1", "authors": ["a1"]}, {"id": "p2", "authors": ["a1"]}],
    })
    lp = build_group_relaxation(inst)
    assert np.allclose(lp.c, [0.5, 0.5])
    assert np.allclose(dense(lp.A), [[1.0, 1.0]])
    assert np.allclose(lp.b, [2.0])


def test_relaxation_case_study(cvpr26):
    lp = build_group_relaxation(cvpr26)
    assert np.allclose(lp.c[:25], 1 / 26)
    assert np.isclose(lp.c[25], 1 / 26 + 1.0)


def test_solve_triangle_fractional_vertex(triangle):
    sol = solve_lp(build_group_relaxation(triangle))
    assert sol.r is not None
    assert np.isclose(sol.objective_value, 1.5, atol=1e-9)
    assert np.allclose(sol.r, 0.5, atol=1e-9)
    assert snap_binary(sol) is None


def test_solve_slack_cap_keeps_everything():
    inst = gen_random(3, 5, 2, 0.5, 4).with_cap(5)
    sol = solve_lp(build_group_relaxation(inst))
    assert np.allclose(sol.r, 1.0, atol=1e-9)
    assert np.isclose(sol.objective_value, inst.n, atol=1e-9)
    assert snap_binary(sol) is not None


def test_solve_case_study_integral(cvpr26):
    sol = solve_lp(build_group_relaxation(cvpr26))
    assert sol.r is not None
    assert np.isclose(sol.objective_value, 1 + 25 / 26, atol=1e-9)
    assert snap_binary(sol) is not None
    values = sol.r
    assert np.isclose(values[25], 1.0, atol=1e-6)  # the shared paper survives
    assert np.isclose(values[:25].sum(), 24.0, atol=1e-6)  # one solo paper drops


def test_snap_binary(cvpr26):
    sol = solve_lp(build_group_relaxation(cvpr26))
    keep = snap_binary(sol)
    assert keep.dtype.kind == "i" and set(keep.tolist()) == {0, 1}
    assert keep.sum() == 25
    assert snap_binary(solve_lp(build_group_relaxation(gen_triangle()))) is None  # r = 1/2


def test_snap_binary_of_infeasible_is_none():
    lp = LinearProgram(
        c=np.array([1.0]),
        A=ones_row(1),
        b=np.array([-1.0]),
        lo=np.array([0.0]),
        hi=np.array([1.0]),
    )
    sol = solve_lp(lp)
    assert sol.r is None and sol.basis is None and np.isnan(sol.objective_value)
    assert snap_binary(sol) is None


def test_fixed_bounds_steer_the_solution(triangle):
    lp = build_group_relaxation(triangle)
    forced = lp.with_bounds([1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    sol = solve_lp(forced)
    assert sol.r is not None
    assert np.allclose(sol.r, [1.0, 0.0, 0.0], atol=1e-9)
    assert np.isclose(sol.objective_value, 1.0, atol=1e-9)


def test_fixed_bounds_can_be_infeasible(triangle):
    lp = build_group_relaxation(triangle)
    # keeping p1 and p2 gives a1 two papers under cap 1
    sol = solve_lp(lp.with_bounds([1.0, 1.0, 0.0], [1.0, 1.0, 1.0]))
    assert sol.r is None
    # the cold start breaks a1's row and no column can lower it: no pivot
    assert sol.iteration_count == 0 and sol.basis is None


def highs(lp):
    """Reference solve of `lp` by HiGHS: (optimal, objective)."""
    ref = linprog(-lp.c, A_ub=dense(lp.A), b_ub=lp.b, bounds=list(zip(lp.lo, lp.hi)), method="highs")
    assert ref.status in (0, 2)  # optimal or infeasible
    return ref.status == 0, (-ref.fun if ref.status == 0 else None)


@given(instances(max_n=6, max_m=10),
       st.lists(st.tuples(st.integers(0, 9), st.sampled_from([0.0, 1.0])), max_size=4))
@settings(max_examples=150, deadline=None)
def test_warm_start_matches_cold_solve(inst, fixings):
    lp = build_group_relaxation(inst)
    lo, hi = lp.lo.copy(), lp.hi.copy()
    parent = solve_lp(lp)
    for j, value in fixings:
        j %= inst.m
        if lo[j] == hi[j]:
            continue
        lo[j] = hi[j] = value
        child = lp.with_bounds(lo, hi)
        tableau = parent.basis.T.copy()
        warm = solve_lp(child, start=parent.basis)
        optimal, objective = highs(child)
        assert np.array_equal(parent.basis.T, tableau)  # siblings share the start
        assert (warm.r is not None) == optimal
        if not optimal:
            return
        assert warm.objective_value == pytest.approx(objective, abs=FEAS_TOL)
        r = warm.r
        assert np.all(dense(lp.A) @ r <= lp.b + FEAS_TOL)
        assert np.all(r >= lo - FEAS_TOL) and np.all(r <= hi + FEAS_TOL)
        parent = warm


def check_cold_and_warm(lp, fixings):
    """Solve `lp` cold, then warm after each fixing in turn, against HiGHS."""
    cols = lp.A.shape[1]
    if cols == 0:
        return
    lo, hi = lp.lo.copy(), lp.hi.copy()
    start = None  # the cold start, then each solve's optimum
    for j, value in [(None, None)] + fixings:
        if j is not None:
            lo[j % cols] = hi[j % cols] = value
        node = lp.with_bounds(lo, hi)
        sol = solve_lp(node, start=start)
        optimal, objective = highs(node)
        assert (sol.r is not None) == optimal
        if not optimal:
            return
        assert sol.objective_value == pytest.approx(objective, abs=FEAS_TOL)
        assert np.all(dense(lp.A) @ sol.r <= lp.b + FEAS_TOL)
        start = sol.basis


@given(instances(max_n=6, max_m=10), st.data(),
       st.lists(st.tuples(st.integers(0, 9), st.sampled_from([0.0, 1.0])), max_size=4))
@settings(max_examples=150, deadline=None)
def test_floor_lps_match_highs_cold_and_warm(inst, data, fixings):
    # floor rows (-1 entries) beside the cap rows; a floor of x + 1 on an
    # over-cap author makes the LP infeasible. Every fixing of the bound
    # propagation is implied by the rows, so a refuted question has an
    # infeasible LP, and otherwise the propagated LP has the same optimum
    # as the unpropagated one, offsets included.
    floors = [data.draw(st.integers(0, min(inst.x + 1, inst.paper_count(i)))) for i in range(inst.n)]
    with pre_lp_off():
        full = presolve_group(inst, floors)
    pre = presolve_group(inst, floors)
    optimal, objective = highs(full.lp) if full.lp.A.shape[1] else (True, 0.0)
    if pre.refuted:
        assert not optimal
    else:
        propagated_optimal, propagated = highs(pre.lp) if pre.lp.A.shape[1] else (True, 0.0)
        assert propagated_optimal == optimal
        if optimal:
            assert propagated + pre.offset == pytest.approx(objective + full.offset, abs=1e-7)
        check_cold_and_warm(pre.lp, fixings)
    check_cold_and_warm(full.lp, fixings)


def fixed_child(inst, fixings):
    """The relaxation of `inst`, its cold optimum, and the child LP with the
    papers of `fixings` fixed, or None when HiGHS finds that child
    infeasible; with the child's HiGHS optimum."""
    lp = build_group_relaxation(inst)
    lo, hi = lp.lo.copy(), lp.hi.copy()
    for j, value in fixings:
        lo[j % inst.m] = hi[j % inst.m] = value
    child = lp.with_bounds(lo, hi)
    optimal, objective = highs(child)
    return solve_lp(lp), (child if optimal else None), objective


def same_solution(a, b):
    return (np.array_equal(a.r, b.r) and a.objective_value == b.objective_value
            and np.array_equal(a.basis.T, b.basis.T) and np.array_equal(a.basis.basic, b.basis.basic)
            and np.array_equal(a.basis.at_upper, b.basis.at_upper)
            and (a.iteration_count, a.bound_flips) == (b.iteration_count, b.bound_flips))


def recomputed_d(lp, basis):
    """c - c_B B^-1 A over [A | I], from the basis's own tableau."""
    c = np.concatenate([lp.c, np.zeros(lp.A.shape[0])])
    return c - c[basis.basic] @ basis.T[:, :-1]


@given(instances(max_n=6, max_m=10),
       st.lists(st.tuples(st.integers(0, 9), st.sampled_from([0.0, 1.0])), max_size=4))
@settings(max_examples=150, deadline=None)
def test_a_basis_hands_on_its_checked_reduced_costs(inst, fixings):
    # every optimal solve hands on the d row its closing check recomputed,
    # and a warm child from it takes the path of one whose row is recomputed
    lp = build_group_relaxation(inst)
    lo, hi = lp.lo.copy(), lp.hi.copy()
    sol = solve_lp(lp)
    for j, value in [*fixings, (None, None)]:
        assert np.array_equal(sol.basis.W[-1, :-2], recomputed_d(lp, sol.basis))
        if j is None:
            return
        lo[j % inst.m] = hi[j % inst.m] = value
        child = lp.with_bounds(lo, hi)
        W = sol.basis.W.copy()
        W[-1, :-2] = recomputed_d(lp, sol.basis)
        carried = solve_lp(child, start=sol.basis)
        rebuilt = solve_lp(child, start=Basis(W, sol.basis.basic, sol.basis.at_upper))
        if carried.r is None:
            assert rebuilt.r is None and carried.iteration_count == rebuilt.iteration_count
            return
        assert same_solution(carried, rebuilt)
        sol = carried


@pytest.mark.parametrize("seed", range(40))
def test_both_rank1_updates_leave_equal_arrays(seed):
    # the whole update and the one over the rows with an entry
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 20)), int(rng.integers(1, 60))
    W = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < 0.4)
    row = int(rng.integers(rows))
    W[row] /= 1.0 + rng.random()
    col = W[:, rng.integers(cols)].copy()
    col[row] = 0.0
    whole, gathered = W.copy(), W.copy()
    _rank1(whole, row, col, None)
    _rank1(gathered, row, col, col.nonzero()[0])
    assert np.array_equal(whole, gathered)


@given(instances(max_n=6, max_m=10),
       st.lists(st.tuples(st.integers(0, 9), st.sampled_from([0.0, 1.0])), max_size=4),
       st.floats(0.0, 5.0))
@settings(max_examples=150, deadline=None)
def test_cutoff_below_the_optimum_changes_nothing(inst, fixings, margin):
    # every dual bound the loop passes is at least the optimum, so a cutoff
    # at or below optimum - FEAS_TOL never closes: the same path, cold and warm
    root, child, objective = fixed_child(inst, fixings)
    if child is None:
        return
    cutoff = objective - FEAS_TOL - margin
    for start in (None, root.basis):
        assert same_solution(solve_lp(child, start=start, cutoff=cutoff), solve_lp(child, start=start))


@given(instances(max_n=6, max_m=10),
       st.lists(st.tuples(st.integers(0, 9), st.sampled_from([0.0, 1.0])), max_size=4),
       st.floats(2 * FEAS_TOL, 5.0))
@settings(max_examples=150, deadline=None)
def test_cutoff_above_the_optimum_closes_at_a_valid_bound(inst, fixings, margin):
    # the solve closes, at the latest at the optimum, with a dual bound that
    # is at least the optimum and at most cutoff - FEAS_TOL, and never after
    # more pivots than the full solve
    root, child, objective = fixed_child(inst, fixings)
    if child is None:
        return
    cutoff = objective + FEAS_TOL + margin
    for start in (None, root.basis):
        sol = solve_lp(child, start=start, cutoff=cutoff)
        assert sol.r is None and sol.basis is None
        assert objective - 1e-9 <= sol.objective_value <= cutoff - FEAS_TOL
        assert sol.iteration_count <= solve_lp(child, start=start).iteration_count


def test_cutoff_closes_a_warm_child_without_a_pivot(triangle):
    # the triangle's root is r = 1/2 at 3/2, every paper basic; fixing p1
    # at 1 leaves the parent's basic solution, whose dual bound 3/2 is
    # already below a cutoff of 2: the child closes on its start
    lp = build_group_relaxation(triangle)
    root = solve_lp(lp)
    child = lp.with_bounds([1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    sol = solve_lp(child, start=root.basis, cutoff=2.0)
    assert sol.r is None and (sol.iteration_count, sol.bound_flips) == (0, 0)
    assert sol.objective_value == pytest.approx(1.5, abs=1e-12)
    assert solve_lp(child, start=root.basis).objective_value == pytest.approx(1.0, abs=FEAS_TOL)


def test_warm_start_detects_infeasible_child(triangle):
    lp = build_group_relaxation(triangle)
    root = solve_lp(lp)
    # keeping p1 and p2 gives a1 two papers under cap 1
    sol = solve_lp(lp.with_bounds([1.0, 1.0, 0.0], [1.0, 1.0, 1.0]), start=root.basis)
    assert sol.r is None and sol.basis is None


@given(instances(max_n=6, max_m=10),
       st.lists(st.tuples(st.integers(0, 9), st.sampled_from([0.0, 1.0])), max_size=4),
       st.lists(st.integers(0, 9), max_size=3))
@settings(max_examples=150, deadline=None)
def test_all_kept_start_matches_cold_solve(inst, fixings, negated):
    # a negated c_j starts its column at the lower bound, the rest at the upper
    lp = build_group_relaxation(inst)
    c = lp.c.copy()
    c[[j % inst.m for j in negated]] *= -1
    lo, hi = lp.lo.copy(), lp.hi.copy()
    for j, value in fixings:
        lo[j % inst.m] = hi[j % inst.m] = value
    fixed = replace(lp, c=c).with_bounds(lo, hi)
    sol = solve_lp(fixed)
    optimal, objective = highs(fixed)
    assert (sol.r is not None) == optimal
    if not optimal:
        return
    assert sol.objective_value == pytest.approx(objective, abs=FEAS_TOL)
    r = sol.r
    assert np.all(dense(lp.A) @ r <= lp.b + FEAS_TOL)
    assert np.all(r >= lo - FEAS_TOL) and np.all(r <= hi + FEAS_TOL)


def test_long_step_flips_every_candidate_then_reports_infeasible():
    inst = validate_instance({"x": 1, "authors": ["a"],
                              "papers": [{"id": f"p{k}", "authors": ["a"]} for k in range(3)]})
    lp = build_group_relaxation(inst).with_bounds([1.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    sol = solve_lp(lp)
    # all kept, the row is 2 over its cap; the one free paper flips to 0,
    # which leaves it 1 over with no column to lower it
    assert sol.r is None and sol.basis is None
    assert (sol.iteration_count, sol.bound_flips) == (0, 1)


def test_dual_infeasible_start_raises():
    # r = 0 fits the row, so the dual loop has nothing to repair; only the
    # reduced cost of r (1, at its lower bound) shows the start is not optimal
    lp = LinearProgram(c=np.array([1.0]), A=ones_row(1), b=np.array([5.0]),
                       lo=np.array([0.0]), hi=np.array([1.0]))
    # W: the tableau row [A | I | b | x_B] over the reduced costs d = c, the slack basic
    start = Basis(np.array([[1.0, 1.0, 5.0, 0.0], [1.0, 0.0, 0.0, 0.0]]), np.array([1]),
                  np.array([False, False]))
    with pytest.raises(SolverStopped, match="basis is not dual feasible"):
        solve_lp(lp, start=start)


def test_solution_is_clipped_to_the_lp_bounds_not_the_unit_box():
    lp = LinearProgram(c=np.array([1.0]), A=ones_row(1), b=np.array([5.0]),
                       lo=np.array([0.0]), hi=np.array([2.0]))
    sol = solve_lp(lp)
    assert sol.r is not None
    assert sol.r.tolist() == [2.0] and sol.objective_value == 2.0


@pytest.mark.parametrize("lp, counts", [
    (build_group_relaxation(gen_triangle()), (3, 0)),
    (build_group_relaxation(gen_case_study("cvpr26")), (1, 0)),
    (build_group_relaxation(gen_random(20, 40, 3, 0.12, 0)), (19, 31)),
    (build_group_relaxation(gen_random(20, 40, 3, 0.12, 1)), (14, 24)),
    (build_group_relaxation(gen_random(20, 40, 3, 0.12, 2)), (20, 27)),
    (presolve_group(gen_triangle()).lp, (3, 0)),
    (presolve_group(gen_case_study("cvpr26")).lp, (1, 0)),
    (presolve_group(gen_random(20, 40, 3, 0.12, 0)).lp, (19, 31)),
    (presolve_group(gen_random(20, 40, 3, 0.12, 1)).lp, (14, 24)),
    (presolve_group(gen_random(20, 40, 3, 0.12, 2)).lp, (20, 27)),
    (presolve_group(gen_random(25, 50, 3, 0.1, 114)).lp, (24, 55)),
], ids=["full-triangle", "full-cvpr26", "full-random0", "full-random1", "full-random2",
        "triangle", "cvpr26", "random0", "random1", "random2", "tie-chain"])
def test_all_kept_root_path_is_pinned(lp, counts):
    # (pivots, long-step flips) from the cold start, the root of every search
    sol = solve_lp(lp)
    assert (sol.iteration_count, sol.bound_flips) == counts
    assert sol.objective_value == pytest.approx(highs(lp)[1], abs=FEAS_TOL)


def test_bound_sanity():
    bad = [
        ([1.0], [0.0]),            # lo > hi
        ([-np.inf], [1.0]),
        ([0.0], [np.inf]),
        ([0.0], [np.nan]),
    ]
    for lo, hi in bad:
        with pytest.raises(ValueError):
            LinearProgram(c=np.array([1.0]), A=ones_row(1), b=np.array([1.0]),
                          lo=np.array(lo), hi=np.array(hi))
    with pytest.raises(ValueError):  # lo and hi must match A's two columns
        LinearProgram(c=np.ones(2), A=ones_row(2), b=np.ones(1),
                      lo=np.zeros(3), hi=np.ones(3))
    for c, b in [(np.ones(3), np.ones(1)), (np.ones(2), np.ones(2))]:  # c: A's 2 columns, b: its 1 row
        with pytest.raises(ValueError, match="c and b must have shapes"):
            LinearProgram(c=c, A=ones_row(2), b=b, lo=np.zeros(2), hi=np.ones(2))
    for row, col, value in [
        ([0], [1], [1.0]),             # column 1 of a 1 x 1 matrix
        ([0, 0], [0, 0], [1.0, 1.0]),  # one cell twice
        ([0], [0], [1.0, 2.0]),        # lengths differ
    ]:
        with pytest.raises(ValueError):
            SparseMatrix((1, 1), np.array(row), np.array(col), np.array(value))


def test_determinism(triangle):
    lp = build_group_relaxation(triangle)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.iteration_count == b.iteration_count
    assert np.array_equal(a.r, b.r)
    assert a.objective_value == b.objective_value


def test_solution_respects_constraints_on_randoms():
    for seed in range(60):
        inst = random_instance(seed)
        lp = build_group_relaxation(inst)
        sol = solve_lp(lp)
        assert sol.r is not None
        r = sol.r
        assert np.all(dense(lp.A) @ r <= lp.b + 1e-9)
        assert np.all(r >= -1e-9) and np.all(r <= 1 + 1e-9)


def test_lp_upper_bounds_exact_optimum_on_randoms():
    for seed in range(40):
        inst = random_instance(seed, max_m=9)
        sol = solve_lp(build_group_relaxation(inst))
        best = enumerate_optimal(inst)
        ilp = float(inst.n * (1 - zeta_group(inst, best.best_group_witness)))
        assert sol.objective_value >= ilp - 1e-9


def test_against_reference_solver_on_randoms():
    for seed in range(40):
        inst = random_instance(seed)
        lp = build_group_relaxation(inst)
        ours = solve_lp(lp)
        ref = linprog(-lp.c, A_ub=dense(lp.A), b_ub=lp.b, bounds=[(0, 1)] * inst.m, method="highs")
        assert ref.status == 0
        assert abs(ours.objective_value - (-ref.fun)) < 1e-7


def test_presolve_is_a_restriction_of_the_full_relaxation():
    for seed in range(40):
        inst = random_instance(seed, max_x=3)
        full = build_group_relaxation(inst)
        pre = presolve_group(inst)
        rows = [i for i in range(inst.n) if inst.paper_count(i) > inst.x]
        cols = list(pre.cols)
        assert cols == sorted({j for i in rows for j in inst.author_papers[i]})
        assert np.array_equal(dense(pre.lp.A), dense(full.A)[rows][:, cols])
        assert np.array_equal(pre.lp.c, full.c[cols])
        assert np.array_equal(pre.lp.b, full.b[rows])
        fixed = [j for j in range(inst.m) if j not in pre.cols]
        assert pre.offset == pytest.approx(full.c[fixed].sum(), abs=1e-12)
        assert pre.expand(np.zeros(len(cols), dtype=int)).kept_indices() == tuple(fixed)


def test_presolve_floor_rows():
    # a1 is over the cap of 2; p4 has no over-cap author
    inst = validate_instance({"x": 2, "authors": ["a1", "a2", "a3"], "papers": [
        {"id": "p1", "authors": ["a1"]}, {"id": "p2", "authors": ["a1"]},
        {"id": "p3", "authors": ["a1", "a2"]}, {"id": "p4", "authors": ["a2", "a3"]}]})
    floors = [0, 2, 1]
    # p4 is fixed as kept: a2's floor drops to 1 on p3, a3's to 0 (no row)
    with pre_lp_off():
        pre = presolve_group(inst, floors)
    assert pre.cols == (0, 1, 2)
    assert dense(pre.lp.A).tolist() == [[1, 1, 1], [0, 0, -1]]
    assert pre.lp.b.tolist() == [2, -1]
    # propagated, a2's net floor of 1 on its one free paper fixes p3 as
    # kept, which leaves a1 one more paper, of p1 and p2, and no floor row
    pre = presolve_group(inst, floors)
    assert not pre.refuted and pre.value == (-1, -1, 1, 1) and pre.cols == (0, 1)
    assert dense(pre.lp.A).tolist() == [[1, 1]] and pre.lp.b.tolist() == [1]


def test_mps_dump_layout(triangle):
    text = to_mps(build_group_relaxation(triangle))
    for section in ("NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    assert " N  OBJ" in text and " L  R1" in text
    assert text.count("UP BND") == 3 and text.count("LO BND") == 3
    assert text.endswith("ENDATA\n")


def dense_column_scan(lp):
    """The COLUMNS lines of `lp`'s MPS, from a scan of every cell of the
    dense A, column by column."""
    A = dense(lp.A)
    lines = []
    for j in range(A.shape[1]):
        entries = [("OBJ", lp.c[j])]
        entries += [(f"R{i + 1}", A[i, j]) for i in range(A.shape[0]) if A[i, j] != 0.0]
        for k in range(0, len(entries), 2):
            fields = "".join(f"  {rn:<8}  {val:.12g}" for rn, val in entries[k:k + 2])
            lines.append(f"    X{j + 1:<7}{fields}")
    return lines


def mps_columns(text):
    return text[text.index("COLUMNS\n") + len("COLUMNS\n"):text.index("RHS\n")].splitlines()


REVERSED_AUTHORS = validate_instance({"x": 1, "authors": ["a1", "a2", "a3"], "papers": [
    {"id": "p1", "authors": ["a3", "a1"]}, {"id": "p2", "authors": ["a2", "a1"]},
    {"id": "p3", "authors": ["a3", "a2"]}]})


@pytest.mark.parametrize("inst", [gen_triangle(), gen_case_study("cvpr26"), gen_random(20, 40, 3, 0.12, 0),
                                  REVERSED_AUTHORS], ids=["triangle", "cvpr26", "random0", "reversed"])
def test_relaxation_mps_is_the_dense_relaxation_dump(inst):
    # the --dump-lp text; a paper may list its authors in any order, and
    # its rows still ascend
    lp = build_group_relaxation(inst)
    text = to_mps(lp)
    assert mps_columns(text) == dense_column_scan(lp)
    assert text.count(" L  R") == inst.n and text.count(" LO BND ") == inst.m


def test_relaxation_mps_never_builds_a_dense_matrix():
    # two authors a paper: A has 8,000 nonzeros, where a dense A would take
    # 4,000 x 4,000 float64 cells, 122 MiB
    n = m = 4000
    authors = [f"a{i}" for i in range(n)]
    inst = validate_instance({"x": 1, "authors": authors, "papers": [
        {"id": f"p{j}", "authors": [authors[j], authors[(j + 1) % n]]} for j in range(m)]})
    assert len(inst.author_papers) == n  # built and cached before tracing
    tracemalloc.start()
    try:
        text = to_mps(build_group_relaxation(inst))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count(" L  R") == n
    assert peak < n * m * 8 / 10


@pytest.mark.parametrize("seed", range(3))
def test_mps_columns_list_every_nonzero_in_row_order(seed):
    # floor rows put -1 entries next to the +1 cap rows
    inst = gen_random(5, 9, 2, 0.5, seed)
    lp = presolve_group(inst, [1] * inst.n).lp
    columns = mps_columns(to_mps(lp))
    assert columns == dense_column_scan(lp)
    assert any("-1" in line for line in columns)
