"""Acceptance gate: every release criterion, one test each, exact tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. Exact-value checks compare rationals with zero tolerance; the only
float tolerances are the LP-side 1e-6 in the integrality audit and the
3-standard-error band of the Monte-Carlo cross-check.
"""

import itertools
import json
import random
from contextlib import contextmanager
from fractions import Fraction

from deskfair.cli import main as cli_main
from deskfair.generators import (
    SetCoverInstance,
    gen_case_study,
    gen_leave_one_out,
    gen_random,
    gen_triangle,
)
from deskfair.instance import dump_instance, instance_to_dict, validate_instance
from deskfair.metrics import evaluate, zeta_group, zeta_ind
from deskfair.oracle import enumerate_optimal, remaining_counts_table
from deskfair.policies import (
    conventional_desk_reject,
    ideal_construct_small,
    roulette_expectation,
    roulette_reject,
)
from deskfair.solvers import (
    decide_set_cover,
    solve_group_exact,
    solve_ideal_feasibility,
    solve_individual_exact,
)

from conftest import random_feasible_keep


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {label}")


def test_criterion_01_case_study_exact_reproduction():
    with criterion(1, "case-study exact reproduction (conventional vs group-exact)"):
        inst = gen_case_study("cvpr26")
        conv = conventional_desk_reject(inst)
        assert conv.report.zeta_ind == Fraction(1)
        assert conv.report.zeta_group == Fraction(27, 52)
        fair = solve_group_exact(inst)
        assert fair.report.zeta_ind == Fraction(1, 26)
        assert fair.report.zeta_group == Fraction(1, 52)
        assert fair.report.ideal is True


def test_criterion_02_roulette_expectation():
    with criterion(2, "roulette expectation: exact enumeration + Monte-Carlo band"):
        inst = gen_case_study("cvpr26")
        e_ind, e_group = roulette_expectation(inst)
        assert e_ind == Fraction(51, 676)
        assert e_group == Fraction(1, 26)
        runs = 10_000
        ind_samples, group_samples = [], []
        for seed in range(runs):
            rep = roulette_reject(inst, seed).report
            ind_samples.append(float(rep.zeta_ind))
            group_samples.append(float(rep.zeta_group))
        for samples, exact in ((ind_samples, e_ind), (group_samples, e_group)):
            mean = sum(samples) / runs
            var = sum((s - mean) ** 2 for s in samples) / (runs - 1)
            se = (var / runs) ** 0.5
            assert abs(mean - float(exact)) <= 3 * se


def test_criterion_03_appc1_exact():
    with criterion(3, "appc1 case: group optimum rejects {p1,p2}, 1/2 and 1/6 exactly"):
        inst = gen_case_study("appc1")
        res = solve_group_exact(inst)
        rejected = [inst.paper_ids[j] for j in res.keep.rejected_indices()]
        assert rejected == ["p1", "p2"]
        assert res.report.zeta_ind == Fraction(1, 2)
        assert res.report.zeta_group == Fraction(1, 6)


def test_criterion_04_appc2_divergence():
    with criterion(4, "appc2 case: mean-cost and worst-case optima diverge"):
        inst = gen_case_study("appc2")
        grp = solve_group_exact(inst)
        grp_rejected = {inst.paper_ids[j] for j in grp.keep.rejected_indices()}
        assert grp_rejected == {"p1", "p2"}
        assert grp.report.zeta_group == Fraction(3, 10)  # mean over all n=5 authors
        ind = solve_individual_exact(inst)
        assert ind.report.zeta_ind == Fraction(1, 2)
        ind_rejected = {inst.paper_ids[j] for j in ind.keep.rejected_indices()}
        assert ind_rejected != grp_rejected


TRIANGLE_TABLE = [
    ((), (2, 2, 2)),
    (("p1",), (1, 1, 2)),
    (("p2",), (1, 2, 1)),
    (("p3",), (2, 1, 1)),
    (("p1", "p2"), (0, 1, 1)),
    (("p1", "p3"), (1, 0, 1)),
    (("p2", "p3"), (1, 1, 0)),
    (("p1", "p2", "p3"), (0, 0, 0)),
]


def test_criterion_05_impossibility_suite():
    with criterion(5, "collateral-free rejection impossible on the hard families"):
        assert solve_ideal_feasibility(gen_triangle()).keep is None
        for n in range(3, 9):
            assert solve_ideal_feasibility(gen_leave_one_out(n)).keep is None
        assert remaining_counts_table(gen_triangle()) == TRIANGLE_TABLE


def test_criterion_06_constructive_small_n():
    with criterion(6, "constructive n<=2 always lands exactly on the per-author targets"):
        rng = random.Random(2024)
        for trial in range(500):
            n = rng.randint(1, 2)
            m = rng.randint(1, 15)
            x = rng.randint(1, 5)
            density = rng.choice([0.3, 0.5, 0.8, 1.0])
            inst = gen_random(n, m, x, density, trial)
            keep = ideal_construct_small(inst)
            assert evaluate(inst, keep).ideal
            assert enumerate_optimal(inst).ideal_exists


def test_criterion_07_oracle_equivalence():
    with criterion(7, "exact solvers equal the enumeration oracle on 200 random instances"):
        rng = random.Random(7777)
        for trial in range(200):
            n = rng.randint(1, 6)
            m = rng.randint(1, 12)
            x = rng.randint(1, 4)
            density = rng.choice([0.3, 0.6])
            inst = gen_random(n, m, x, density, trial)
            best = enumerate_optimal(inst)
            grp = solve_group_exact(inst)
            assert grp.report.zeta_group == best.best_group
            ind = solve_individual_exact(inst)
            assert ind.objective == best.best_individual
            assert zeta_ind(inst, ind.keep) == best.best_individual


def test_criterion_08_metric_order_property():
    with criterion(8, "mean cost never exceeds worst-case cost on 1000 random pairs"):
        rng = random.Random(88)
        for trial in range(1000):
            n = rng.randint(1, 6)
            m = rng.randint(1, 12)
            x = rng.randint(1, 4)
            inst = gen_random(n, m, x, rng.choice([0.2, 0.4, 0.7]), trial)
            keep = random_feasible_keep(inst, rng)
            assert evaluate(inst, keep).feasible
            assert zeta_group(inst, keep) <= zeta_ind(inst, keep)


def test_criterion_09_integrality_audit(tmp_path):
    with criterion(9, "relaxation exactness is instance-dependent (audit CLI)"):
        tri = tmp_path / "triangle.json"
        dump_instance(gen_triangle(), tri)
        out = tmp_path / "audit.json"
        assert cli_main(["audit-integrality", "--input", str(tri), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["gap"] - 0.5) <= 1e-6
        assert doc["ilp_objective"]["rational"] == "1/1"
        assert doc["lp_integral"] is False and doc["counterexample"] is True

        cv = tmp_path / "cvpr26.json"
        dump_instance(gen_case_study("cvpr26"), cv)
        assert cli_main(["audit-integrality", "--input", str(cv), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["gap"]) <= 1e-6
        assert doc["lp_integral"] is True and doc["counterexample"] is False


def _brute_force_cover(sc: SetCoverInstance) -> bool:
    universe = set(range(1, sc.universe_size + 1))
    for k in range(sc.budget + 1):
        for combo in itertools.combinations(range(len(sc.sets)), k):
            if set().union(set(), *(sc.sets[j] for j in combo)) == universe:
                return True
    return False


def test_criterion_10_set_cover_path():
    with criterion(10, "covering decisions match brute force; threshold test agrees"):
        rng = random.Random(1010)
        for _ in range(100):
            u = rng.randint(1, 8)
            m = rng.randint(1, 8)
            sets = tuple(
                frozenset(rng.sample(range(1, u + 1), rng.randint(1, u)))
                for _ in range(m)
            )
            sc = SetCoverInstance(u, sets, budget=rng.randint(1, m))
            got, witness = decide_set_cover(sc)
            assert got == _brute_force_cover(sc)
            if got:
                assert len(witness) <= sc.budget
                assert set().union(*(sc.sets[j] for j in witness)) == set(range(1, u + 1))

        # the worst-case cost stays within 1 - 1/max_i |P_i| exactly when
        # every author keeps at least one paper, for any binary keep vector
        # (kept counts are integers, so a positive kept fraction means >= 1);
        # the stricter 1 - 1/min_i |P_i| threshold still implies full coverage
        for trial in range(1000):
            n = rng.randint(1, 6)
            m = rng.randint(1, 8)
            inst = gen_random(n, m, m, rng.choice([0.3, 0.6]), trial)
            keep = [rng.randint(0, 1) for _ in range(m)]
            kept = [sum(keep[j] for j in papers) for papers in inst.author_papers]
            sizes = [inst.paper_count(i) for i in range(n)]
            worst = max(Fraction(s - k, s) for s, k in zip(sizes, kept))
            assert (worst <= 1 - Fraction(1, max(sizes))) == (min(kept) >= 1)
            if worst <= 1 - Fraction(1, min(sizes)):
                assert min(kept) >= 1


def test_criterion_11_order_sensitivity_regression():
    with criterion(11, "submission order flips the conventional outcome, not the optimum"):
        inst = gen_case_study("cvpr26")
        assert conventional_desk_reject(inst).report.zeta_group == Fraction(27, 52)

        raw = instance_to_dict(inst)
        shared_first = validate_instance(
            dict(raw, papers=[raw["papers"][25]] + raw["papers"][:25])
        )
        assert conventional_desk_reject(shared_first).report.zeta_group == Fraction(1, 52)

        base_costs = sorted(evaluate(inst, solve_group_exact(inst).keep).per_author_cost)
        orders = [
            [25] + list(range(25)),
            list(reversed(range(26))),
            random.Random(11).sample(range(26), 26),
        ]
        for order in orders:
            permuted = validate_instance(
                dict(raw, papers=[raw["papers"][j] for j in order])
            )
            costs = sorted(evaluate(permuted, solve_group_exact(permuted).keep).per_author_cost)
            assert costs == base_costs
