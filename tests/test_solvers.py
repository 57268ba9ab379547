import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from deskfair import solvers
from deskfair.cli import main
from deskfair.generators import gen_case_study, gen_leave_one_out, gen_random, gen_triangle
from deskfair.instance import InstanceError, SolverStopped, dump_instance, validate_instance
from deskfair.lp import FEAS_TOL, build_group_relaxation, presolve_group, solve_lp
from deskfair.metrics import group_objective, is_feasible, is_ideal, zeta_ind
from deskfair.oracle import enumerate_optimal
from deskfair.solvers import (
    SetCoverInstance,
    decide_set_cover,
    integrality_audit,
    reduce_set_cover,
    solve_group_exact,
    solve_ideal_feasibility,
    solve_individual_exact,
)

from conftest import dense, random_instance


def rejected_ids(inst, keep):
    return [inst.papers[j].id for j in keep.rejected_indices()]


def test_group_exact_case_study(cvpr26):
    res = solve_group_exact(cvpr26)
    assert res.report.zeta_group == Fraction(1, 52)
    assert res.report.ideal
    assert res.objective == Fraction(51, 26)
    rej = rejected_ids(cvpr26, res.keep)
    assert len(rej) == 1 and rej[0] != "p26"
    assert res.diagnostics.lp_integral
    assert res.diagnostics.lp_calls >= 1


def test_group_exact_triangle(triangle):
    res = solve_group_exact(triangle)
    assert res.objective == 1
    assert res.report.zeta_group == Fraction(2, 3)
    assert sum(res.keep.values) == 1
    assert not res.diagnostics.lp_integral
    assert res.diagnostics.node_count > 1  # root was fractional, so it branched


def test_group_exact_named_cases():
    appc1 = gen_case_study("appc1")
    res1 = solve_group_exact(appc1)
    assert rejected_ids(appc1, res1.keep) == ["p1", "p2"]
    appc2 = gen_case_study("appc2")
    res2 = solve_group_exact(appc2)
    assert rejected_ids(appc2, res2.keep) == ["p1", "p2"]
    assert res2.report.zeta_group == Fraction(3, 10)


def test_individual_exact_case_study(cvpr26):
    res = solve_individual_exact(cvpr26)
    assert res.objective == Fraction(1, 26)
    assert res.report.zeta_ind == Fraction(1, 26)


def test_individual_exact_appc2_divergence():
    inst = gen_case_study("appc2")
    res = solve_individual_exact(inst)
    assert res.objective == Fraction(1, 2)
    rej = set(rejected_ids(inst, res.keep))
    assert len(rej & {"p1", "p2"}) == 1 and len(rej & {"p3", "p4"}) == 1


def test_individual_exact_under_cap_keeps_all():
    inst = gen_random(4, 5, 2, 0.3, 9).with_cap(5)
    res = solve_individual_exact(inst)
    assert res.objective == 0
    assert res.keep.values == (1,) * inst.m


@pytest.mark.parametrize("inst, counts", [
    (gen_random(12, 24, 3, 0.2, 0), (1, 1, 8)),
    (gen_random(12, 24, 3, 0.2, 1), (3, 3, 21)),
    (gen_random(12, 24, 3, 0.2, 2), (1, 1, 5)),
    (gen_leave_one_out(6), (8, 8, 22)),
], ids=["random0", "random1", "random2", "leave-one-out6"])
def test_individual_search_path_is_pinned(inst, counts):
    # (node_count, lp_calls, lp_pivots) of the level walk, summed over levels
    d = solve_individual_exact(inst).diagnostics
    assert (d.node_count, d.lp_calls, d.lp_pivots) == counts


def test_thousand_paper_author_solves_without_recursion(tmp_path):
    # one level LP at t_lb = 1075/1100: a cap row and a floor row, no branching
    inst = validate_instance({"x": 25, "authors": ["a1"],
                              "papers": [{"id": f"p{j}", "authors": ["a1"]} for j in range(1100)]})
    res = solve_individual_exact(inst)
    assert res.objective == Fraction(43, 44) == res.report.zeta_ind
    assert res.diagnostics.node_count == 1
    witness = solve_ideal_feasibility(inst)
    assert witness is not None and is_ideal(inst, witness)
    path = tmp_path / "big.json"
    dump_instance(inst, path)
    assert main(["solve", "--input", str(path), "--policy", "individual-exact",
                 "--output", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("solve", [solve_ideal_feasibility, solve_individual_exact],
                         ids=["ideal", "individual"])
def test_uncertifiable_vertex_is_split_not_trusted(monkeypatch, cvpr26, solve):
    # the first integral vertex comes back as all kept, which breaks the cap:
    # the exact check must reject it and the search must branch on
    real, snapped = solvers.snap_binary, []

    def all_kept_first(sol):
        r = real(sol)
        if r is None:
            return None
        snapped.append(sol)
        return np.ones_like(r) if len(snapped) == 1 else r

    monkeypatch.setattr(solvers, "snap_binary", all_kept_first)
    result = solve(cvpr26)
    keep = getattr(result, "keep", result)
    assert len(snapped) > 1 and is_feasible(cvpr26, keep)
    assert zeta_ind(cvpr26, keep) == Fraction(1, 26)


def test_ideal_feasibility_hard_families(triangle):
    assert solve_ideal_feasibility(triangle) is None
    assert solve_ideal_feasibility(gen_leave_one_out(4)) is None
    assert solve_ideal_feasibility(gen_leave_one_out(6)) is None


def test_ideal_feasibility_two_authors():
    for n, seed in itertools.product((1, 2), range(40)):
        inst = gen_random(n, 1 + seed % 12, 1 + seed % 4, 0.5, seed)
        witness = solve_ideal_feasibility(inst)
        assert witness is not None
        assert is_ideal(inst, witness)


def test_ideal_feasibility_matches_oracle():
    for seed in range(60):
        inst = random_instance(seed, max_m=10)
        witness = solve_ideal_feasibility(inst)
        assert (witness is not None) == enumerate_optimal(inst).ideal_exists
        if witness is not None:
            assert is_ideal(inst, witness)


def test_solvers_match_oracle_exactly():
    for seed in range(60):
        inst = random_instance(seed, max_m=10)
        best = enumerate_optimal(inst)
        g = solve_group_exact(inst)
        assert g.report.zeta_group == best.best_group
        assert is_feasible(inst, g.keep)
        i = solve_individual_exact(inst)
        assert i.objective == best.best_individual
        assert zeta_ind(inst, i.keep) == best.best_individual


def test_metric_chain_between_solvers():
    for seed in range(30):
        inst = random_instance(seed, max_m=9)
        g = solve_group_exact(inst)
        i = solve_individual_exact(inst)
        assert i.report.zeta_ind >= g.report.zeta_group


def test_group_bound_dominates_exact():
    for seed in range(30):
        inst = random_instance(seed, max_m=9)
        res = solve_group_exact(inst)
        assert res.diagnostics.lp_objective >= float(res.objective) - 1e-9


def _instance(x, papers):
    authors = sorted({a for _, names in papers for a in names})
    return validate_instance({"x": x, "authors": authors,
                              "papers": [{"id": p, "authors": names} for p, names in papers]})


PRESOLVE_CASES = {
    # a2 sits exactly at the cap on a1's papers: a degenerate row, dropped
    "at-cap": (_instance(2, [("p1", ["a1", "a2"]), ("p2", ["a1", "a2"]), ("p3", ["a1"])]), (1, 3)),
    # p3 and p4 have no over-cap author: fixed at r_j = 1 and dropped
    "uncapped-papers": (_instance(1, [("p1", ["a1"]), ("p2", ["a1", "a2"]), ("p3", ["a3"]),
                                      ("p4", ["a4", "a5"])]), (1, 2)),
    # nobody is over the cap: the reduced LP is empty and everything is kept
    "no-over-cap": (gen_random(4, 6, 2, 0.5, 1).with_cap(6), (0, 0)),
    "appc1": (gen_case_study("appc1"), (1, 4)),
    "ex52": (gen_case_study("ex52"), (1, 11)),
}


@pytest.mark.parametrize("name", sorted(PRESOLVE_CASES))
def test_presolve_matches_oracle_and_full_relaxation(name):
    inst, shape = PRESOLVE_CASES[name]
    res = solve_group_exact(inst)
    diag = res.diagnostics
    assert (diag.lp_rows, diag.lp_cols) == shape
    assert res.report.zeta_group == enumerate_optimal(inst).best_group
    full = solve_lp(build_group_relaxation(inst)).objective_value
    assert abs(diag.lp_objective - full) <= FEAS_TOL
    if shape == (0, 0):
        assert res.keep.values == (1,) * inst.m
        assert diag.lp_integral and res.objective == inst.n


def test_presolve_solves_only_binding_rows(cvpr26, lp_calls):
    res = solve_group_exact(cvpr26)
    # the one-paper author's row cannot bind; the full relaxation is (2, 26)
    assert [lp.A.shape for (lp,) in lp_calls] == [(1, 26)]
    assert (res.diagnostics.lp_rows, res.diagnostics.lp_cols) == (1, 26)


def test_integrality_audit_triangle(triangle):
    audit = integrality_audit(triangle)
    assert audit.lp_objective == pytest.approx(1.5, abs=1e-9)
    assert audit.ilp_objective == 1
    assert audit.gap == pytest.approx(0.5, abs=1e-6)
    assert not audit.lp_integral
    assert audit.is_counterexample


def test_integrality_audit_case_study(cvpr26):
    audit = integrality_audit(cvpr26)
    assert audit.gap == pytest.approx(0.0, abs=1e-6)
    assert audit.lp_integral
    assert not audit.is_counterexample


def test_integrality_audit_reuses_exact_root(triangle, lp_calls):
    exact_calls = solve_group_exact(triangle).diagnostics.lp_calls
    lp_calls.clear()
    integrality_audit(triangle)
    assert len(lp_calls) == exact_calls


def test_integrality_audit_slack_cap():
    inst = gen_random(3, 4, 2, 0.5, 3).with_cap(4)
    audit = integrality_audit(inst)
    assert audit.gap == pytest.approx(0.0, abs=1e-6)


# two disjoint triangles: the LP covers them with six halves within the
# budget of 3, so the search branches before it proves no cover exists
TWO_TRIANGLES = SetCoverInstance(
    6, tuple(map(frozenset, ({1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}))), budget=3)


@pytest.mark.parametrize("solve, problem, nodes", [
    (solve_group_exact, gen_triangle(), 3),
    (solve_individual_exact, gen_triangle(), 5),
    (solve_ideal_feasibility, gen_triangle(), 3),
    (decide_set_cover, TWO_TRIANGLES, 3),
], ids=["group", "individual", "ideal", "set-cover"])
def test_node_limit_exceeded(solve, problem, nodes, monkeypatch):
    # individual-exact spends 3 nodes on level 1/2 and 2 on level 1: the
    # limit caps their sum, not each level
    monkeypatch.setenv("DESKFAIR_NODE_LIMIT", str(nodes))
    solve(problem)
    monkeypatch.setenv("DESKFAIR_NODE_LIMIT", str(nodes - 1))
    with pytest.raises(SolverStopped, match=f"branch and bound exceeded {nodes - 1} nodes"):
        solve(problem)


def test_node_limit_env_override(monkeypatch, triangle):
    monkeypatch.setenv("DESKFAIR_NODE_LIMIT", "1")
    with pytest.raises(SolverStopped, match="branch and bound exceeded 1 nodes"):
        solve_group_exact(triangle)
    monkeypatch.setenv("DESKFAIR_NODE_LIMIT", "100000")
    assert solve_group_exact(triangle).objective == 1


def test_reduce_set_cover_shape():
    sc = SetCoverInstance(3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({3})), budget=2)
    inst = reduce_set_cover(sc)
    assert inst.x == 2
    assert inst.author_ids == ("e1", "e2", "e3", "budget")
    assert inst.author_papers == ((0,), (0, 1), (1, 2), (0, 1, 2))
    # the budget author's cap row is the only one that can bind: sum r_j <= K
    pre = presolve_group(inst)
    assert pre.cols == (0, 1, 2)
    assert dense(pre.lp.A).tolist() == [[1, 1, 1]] and pre.lp.b.tolist() == [2]


def test_reduce_single_covering_set():
    sc = SetCoverInstance(3, (frozenset({1, 2, 3}),), budget=1)
    inst = reduce_set_cover(sc)
    assert inst.m == 1 and inst.x == 1
    assert inst.papers[0].authors == ("e1", "e2", "e3", "budget")


def test_reduce_diagonal():
    sc = SetCoverInstance(2, (frozenset({1}), frozenset({2})), budget=2)
    inst = reduce_set_cover(sc)
    assert inst.x == 2
    assert inst.author_papers == ((0,), (1,), (0, 1))


def test_reduced_instance_poses_the_covering_question():
    # the least worst-case cost is below 1 exactly when at most K sets cover
    rng = random.Random(1972)
    checked = 0
    while checked < 200:
        u = rng.randint(1, 8)
        m = rng.randint(1, 8)
        sets = tuple(frozenset(rng.sample(range(1, u + 1), rng.randint(1, u))) for _ in range(m))
        if set().union(*sets) != set(range(1, u + 1)):
            continue  # the reduction has no author for an uncovered element
        sc = SetCoverInstance(u, sets, budget=rng.randint(1, m))
        inst = reduce_set_cover(sc)
        objective = solve_individual_exact(inst).objective
        assert (objective < 1) == brute_force_cover(sc)
        assert enumerate_optimal(inst).best_individual == objective
        checked += 1


def test_decide_set_cover_examples():
    sets = (frozenset({1, 2}), frozenset({2, 3}), frozenset({3}))
    yes, witness = decide_set_cover(SetCoverInstance(3, sets, budget=2))
    assert yes and witness == (0, 1)
    no, none = decide_set_cover(SetCoverInstance(3, sets, budget=1))
    assert not no and none is None


def test_decide_set_cover_uncoverable_universe():
    yes, witness = decide_set_cover(SetCoverInstance(3, (frozenset({1}),), budget=3))
    assert not yes and witness is None


def test_set_cover_validation():
    with pytest.raises(ValueError):
        SetCoverInstance(2, (frozenset(),), budget=1)
    with pytest.raises(ValueError):
        SetCoverInstance(2, (frozenset({5}),), budget=1)
    with pytest.raises(ValueError):
        SetCoverInstance(2, (frozenset({1}),), budget=0)
    # the universe is checked by each set's min and max, never built
    huge = 10**12
    for outside in (0, huge + 1):
        with pytest.raises(InstanceError, match="set #1 leaves the universe"):
            SetCoverInstance(huge, (frozenset({1}), frozenset({2, outside})), budget=1)
    sc = SetCoverInstance(huge, (frozenset({1}), frozenset({huge})), budget=1)
    with pytest.raises(InstanceError, match="element 2 lies in no set"):
        reduce_set_cover(sc)
    assert decide_set_cover(sc) == (False, None)


def brute_force_cover(sc: SetCoverInstance):
    universe = set(range(1, sc.universe_size + 1))
    for k in range(0, sc.budget + 1):
        for combo in itertools.combinations(range(len(sc.sets)), k):
            if set().union(*(sc.sets[j] for j in combo), set()) == universe:
                return True
    return False


def test_decide_set_cover_matches_brute_force():
    rng = random.Random(13)
    for _ in range(60):
        u = rng.randint(1, 6)
        m = rng.randint(1, 6)
        sets = []
        for _ in range(m):
            size = rng.randint(1, u)
            sets.append(frozenset(rng.sample(range(1, u + 1), size)))
        sc = SetCoverInstance(u, tuple(sets), budget=rng.randint(1, m))
        expected = brute_force_cover(sc)
        got, witness = decide_set_cover(sc)
        assert got == expected
        if got:
            covered = set().union(*(sc.sets[j] for j in witness))
            assert covered == set(range(1, u + 1))
            assert len(witness) <= sc.budget


def test_search_counts_pruned_nodes_and_dual_pivots():
    d = solve_group_exact(gen_random(12, 24, 2, 0.2, 22)).diagnostics
    assert (d.node_count, d.nodes_pruned, d.lp_calls) == (17, 6, 17)
    assert (d.lp_pivots, d.lp_bound_flips) == (73, 27)


def test_incumbent_trace_strictly_improves():
    for seed in (3, 17, 29):
        inst = random_instance(seed, max_m=9)
        res = solve_group_exact(inst)
        trace = res.diagnostics.incumbent_trace
        assert trace[-1] == res.objective == group_objective(inst, res.keep)
        assert res.diagnostics.best_bound == float(res.objective)
        assert all(a < b for a, b in zip(trace, trace[1:]))
