from fractions import Fraction

import pytest

from deskfair.generators import gen_case_study, gen_random
from deskfair.instance import validate_instance
from deskfair.metrics import evaluate, zeta_group, zeta_ind
from deskfair.oracle import enumerate_optimal, remaining_counts_table
from deskfair.policies import conventional_desk_reject, roulette_reject

from conftest import random_instance

# Full enumeration of the triangle's 8 subsets: only the empty set and the
# three singletons are feasible; singletons give costs (1/2, 1/2, 1).
def test_oracle_triangle(triangle):
    res = enumerate_optimal(triangle)
    assert res.best_group == Fraction(2, 3)
    assert res.best_individual == 1
    assert not res.ideal_exists and res.ideal_witness is None
    assert res.feasible_count == 4
    # lowest-bitmask witness: keep {p1} is mask 1, the first improving mask
    assert res.best_group_witness.values == (1, 0, 0)


def test_oracle_single_paper_case():
    inst = validate_instance({"x": 1, "authors": ["a1"], "papers": [{"id": "p1", "authors": ["a1"]}]})
    res = enumerate_optimal(inst)
    assert res.best_group == 0 and res.best_individual == 0
    assert res.ideal_exists
    assert res.best_group_witness.values == (1,)


def test_oracle_prolific_author_pattern():
    # same structure as the 26-paper case study, shrunk inside the cap
    inst = gen_case_study("ex52")
    res = enumerate_optimal(inst)
    assert res.best_group == Fraction(1, 22)
    assert res.best_individual == Fraction(1, 11)
    assert res.ideal_exists


def test_oracle_appc1_case():
    res = enumerate_optimal(gen_case_study("appc1"))
    assert res.best_group == Fraction(1, 6)
    assert res.best_individual == Fraction(1, 2)
    assert res.ideal_exists


def test_oracle_witnesses_are_feasible():
    for seed in range(30):
        inst = random_instance(seed, max_m=9)
        res = enumerate_optimal(inst)
        assert evaluate(inst, res.best_group_witness).feasible
        assert evaluate(inst, res.best_individual_witness).feasible
        assert zeta_group(inst, res.best_group_witness) == res.best_group
        assert zeta_ind(inst, res.best_individual_witness) == res.best_individual
        if res.ideal_exists:
            assert evaluate(inst, res.ideal_witness).ideal


def test_oracle_size_cap():
    inst = gen_random(2, 21, 3, 0.5, 0)
    with pytest.raises(ValueError, match="^enumeration capped at 20 papers, got 21"):
        enumerate_optimal(inst)
    with pytest.raises(ValueError, match="^table enumeration capped at 12 papers, got 13"):
        remaining_counts_table(gen_random(2, 13, 3, 0.5, 0))


def test_oracle_lower_bounds_policies():
    for seed in range(40):
        inst = random_instance(seed, max_m=9)
        res = enumerate_optimal(inst)
        for outcome in (conventional_desk_reject(inst), roulette_reject(inst, seed)):
            assert outcome.report.zeta_group >= res.best_group
            assert outcome.report.zeta_ind >= res.best_individual


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


def test_remaining_counts_table_row_for_row(triangle):
    assert remaining_counts_table(triangle) == TRIANGLE_TABLE
