"""The pre-LP stage of every feasibility question: bound propagation and the
greedy witness, against brute force over every keep vector (m <= 20)."""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskfair import solvers
from deskfair.cli import main
from deskfair.instance import KeepVector, dump_instance, validate_instance
from deskfair.metrics import evaluate
from deskfair.oracle import enumerate_optimal
from deskfair.solvers import (
    FREE,
    decide_cover,
    presolve_group,
    solve_ideal_feasibility,
    solve_individual_exact,
)

from conftest import instances, spy_on


class BruteForce:
    """Every keep vector of an instance at once: bit j of keep mask k is
    paper j, and `kept[i, k]` is author i's kept count under mask k."""

    def __init__(self, inst):
        self.inst = inst
        masks = np.arange(1 << inst.m, dtype=np.int64)
        self.bits = [((masks >> j) & 1).astype(np.int8) for j in range(inst.m)]
        self.kept = np.zeros((inst.n, masks.size), dtype=np.int8)
        for j, authors in enumerate(inst.paper_authors):
            for i in authors:
                self.kept[i] += self.bits[j]
        self.within_cap = (self.kept <= inst.x).all(axis=0)

    def meets(self, floors) -> np.ndarray:
        """The masks within the cap that give every author its floor."""
        return self.within_cap & (self.kept >= np.array(floors)[:, None]).all(axis=0)

    def best_individual(self) -> Fraction:
        """The least worst-case cost, scaled to integers as in the oracle."""
        sizes = [self.inst.paper_count(i) for i in range(self.inst.n)]
        scale = math.lcm(*sizes)
        scaled = np.zeros(self.kept.shape[1], dtype=np.int64)
        for i, s in enumerate(sizes):
            np.maximum(scaled, (s - self.kept[i].astype(np.int64)) * (scale // s), out=scaled)
        return Fraction(int(scaled[self.within_cap].min()), scale)

    def ideal_exists(self) -> bool:
        return bool(self.meets([min(self.inst.x, self.inst.paper_count(i))
                                for i in range(self.inst.n)]).any())


def floors_of(data, inst):
    """Random floors up to x + 1, as in the floor-LP cross-checks."""
    return [data.draw(st.integers(0, min(inst.x + 1, inst.paper_count(i)))) for i in range(inst.n)]


@given(instances(max_n=6, max_m=20), st.data())
@settings(max_examples=150, deadline=None)
def test_pre_lp_stage_matches_brute_force(inst, data):
    brute = BruteForce(inst)
    if inst.m <= 10:  # the brute force is the oracle's enumeration
        best = enumerate_optimal(inst)
        assert brute.best_individual() == best.best_individual
        assert brute.ideal_exists() == best.ideal_exists
    floors = floors_of(data, inst)
    feasible = brute.meets(floors)
    # a paper with no over-cap author is kept when anything is feasible;
    # over the feasible keep vectors that keep all of them, propagation fixes
    # a paper only at the value every one gives it, and it refutes only a
    # question with none
    uncapped = [j for j, authors in enumerate(inst.paper_authors)
                if all(inst.paper_count(i) <= inst.x for i in authors)]
    dominant = feasible.copy()
    for j in uncapped:
        dominant &= brute.bits[j] == 1
    assert dominant.any() == feasible.any()
    pre = presolve_group(inst, floors)
    if pre.refuted:
        assert not feasible.any()
    else:
        for j, v in enumerate(pre.value):
            if v != FREE:
                assert (brute.bits[j][dominant] == v).all()
    # a greedy witness meets the cap and every floor
    witness = solvers._greedy_witness(inst, floors)
    if witness is not None:
        kept = evaluate(inst, witness).kept_counts
        assert all(f <= k <= inst.x for f, k in zip(floors, kept))
    # the whole question, and the solvers that ask it, equal brute force
    found = solvers._decide(inst, floors, solvers.DEFAULT_NODE_LIMIT, Counter())
    assert (found is not None) == feasible.any()
    if found is not None:
        assert all(f <= k <= inst.x for f, k in zip(floors, found[1].kept_counts))
    ind = solve_individual_exact(inst)
    assert ind.objective == ind.report.zeta_ind == brute.best_individual()
    ideal = solve_ideal_feasibility(inst).keep
    assert (ideal is not None) == brute.ideal_exists()
    assert ideal is None or evaluate(inst, ideal).ideal
    covered, papers = decide_cover(inst)
    assert covered == brute.meets([1] * inst.n).any()
    if covered:
        kept = evaluate(inst, KeepVector([int(j in papers) for j in range(inst.m)])).kept_counts
        assert min(kept) >= 1 and max(kept) <= inst.x


@given(instances(max_n=6, max_m=12), st.data())
@settings(max_examples=150, deadline=None)
def test_propagation_from_fixed_zeros_matches_brute_force(inst, data):
    # a start with papers already fixed at 0 (and some at 1): a paper at 0
    # counts as neither kept nor free, so over the keep vectors that agree
    # with the start, propagation refutes only when none meets the cap and
    # floors, and fixes a paper only at the value every one gives it
    value = data.draw(st.lists(st.sampled_from([FREE, 0, 1]), min_size=inst.m, max_size=inst.m)
                      .filter(lambda v: 0 in v))
    floors = floors_of(data, inst)
    brute = BruteForce(inst)
    agree = brute.meets(floors)
    for j, v in enumerate(value):
        if v != FREE:
            agree &= brute.bits[j] == v
    propagated = list(value)
    if not solvers._propagate(inst, floors, propagated):
        assert not agree.any()
        return
    for j, v in enumerate(propagated):
        assert value[j] == FREE or v == value[j]
        if v != FREE:
            assert (brute.bits[j][agree] == v).all()


def test_thousand_paper_author_settles_without_lp(lp_calls, monkeypatch):
    # the greedy witness certifies t_lb = 1075/1100 = 43/44 and the ideal
    builds = spy_on(monkeypatch, solvers._rows_lp)
    inst = validate_instance({"x": 25, "authors": ["a1"],
                              "papers": [{"id": f"p{j}", "authors": ["a1"]} for j in range(1100)]})
    res = solve_individual_exact(inst)
    assert res.objective == Fraction(43, 44) == res.report.zeta_ind
    d = res.diagnostics
    assert (d.node_count, d.lp_calls, d.lp_rows, d.lp_cols) == (0, 0, None, None)
    ideal = solve_ideal_feasibility(inst)
    assert evaluate(inst, ideal.keep).ideal
    assert (ideal.diagnostics.node_count, ideal.diagnostics.lp_calls) == (0, 0)
    assert lp_calls == [] and builds == []


# a1 has p1 and p2 over the cap of 1, and each is a2's or a3's only paper:
# the ideal keeps both for a2 and a3, which gives a1 two papers
SHARED_PAIR = validate_instance({"x": 1, "authors": ["a1", "a2", "a3"], "papers": [
    {"id": "p1", "authors": ["a1", "a2"]}, {"id": "p2", "authors": ["a1", "a3"]}]})


def test_propagation_refutes_ideal_without_lp(lp_calls, monkeypatch, tmp_path):
    builds = spy_on(monkeypatch, solvers._rows_lp)
    floors = [1, 1, 1]
    pre = presolve_group(SHARED_PAIR, floors)
    assert pre.refuted
    assert not enumerate_optimal(SHARED_PAIR).ideal_exists
    path = tmp_path / "pair.json"
    dump_instance(SHARED_PAIR, path)
    out = tmp_path / "out.json"
    assert main(["solve", "--input", str(path), "--policy", "ideal", "--output", str(out)]) == 2
    diag = json.loads(out.read_text())["diagnostics"]
    assert (diag["node_count"], diag["lp_calls"], diag["lp_rows"], diag["lp_cols"]) == (0, 0, None, None)
    assert lp_calls == [] and builds == []


@pytest.mark.parametrize("floors, value", [
    ([0, 0, 0], (FREE, FREE)),  # a1's cap of 1 over two free papers binds
    ([1, 1, 0], (1, 0)),        # a2 needs p1, so a1's cap fixes p2 at 0
    ([0, 0, 1], (0, 1)),        # a3 needs p2, so a1's cap fixes p1 at 0
])
def test_propagation_fixes_to_a_fixpoint(floors, value):
    pre = presolve_group(SHARED_PAIR, floors)
    assert not pre.refuted and pre.value == value


def test_one_paper_coauthors_prove_cost_one_without_lp(lp_calls):
    # a1's three papers each carry a one-paper author, whose floor is its
    # paper below t = 1: propagation keeps all three, over a1's cap of 2, at
    # every level below 1, and the greedy witness settles t = 1
    inst = validate_instance({"x": 2, "authors": ["a1", "b1", "b2", "b3"], "papers": [
        {"id": f"p{k}", "authors": ["a1", f"b{k}"]} for k in (1, 2, 3)]})
    res = solve_individual_exact(inst)
    assert res.objective == 1 == enumerate_optimal(inst).best_individual
    assert (res.diagnostics.node_count, res.diagnostics.lp_calls) == (0, 0)
    assert lp_calls == []
