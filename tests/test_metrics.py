import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from deskfair.generators import gen_case_study, gen_triangle
from deskfair.instance import KeepVector
from deskfair.metrics import (
    FairnessReport,
    author_kept_counts,
    evaluate,
    format_rational,
    rational_decimal,
    rational_field,
    report_to_dict,
    zeta_group,
    zeta_ind,
)

from conftest import instances_with_keep, random_feasible_keep, random_instance


def keep_all_but(inst, *paper_ids):
    drop = set(paper_ids)
    return KeepVector(0 if pid in drop else 1 for pid in inst.paper_ids)


def test_cost_case_study(cvpr26):
    reject_last = evaluate(cvpr26, keep_all_but(cvpr26, "p26")).per_author_cost
    assert reject_last == (Fraction(1, 26), 1)
    reject_first = evaluate(cvpr26, keep_all_but(cvpr26, "p1")).per_author_cost
    assert reject_first == (Fraction(1, 26), 0)


def test_cost_keep_all_is_zero(cvpr26, triangle):
    for inst in (cvpr26, triangle):
        full = KeepVector([1] * inst.m)
        assert all(c == 0 for c in evaluate(inst, full).per_author_cost)


def test_zeta_ind_case_study(cvpr26):
    assert zeta_ind(cvpr26, keep_all_but(cvpr26, "p26")) == 1
    assert zeta_ind(cvpr26, keep_all_but(cvpr26, "p1")) == Fraction(1, 26)


def test_zeta_ind_appc1_case():
    inst = gen_case_study("appc1")
    assert zeta_ind(inst, keep_all_but(inst, "p1", "p2")) == Fraction(1, 2)


def test_zeta_group_case_study(cvpr26):
    assert zeta_group(cvpr26, keep_all_but(cvpr26, "p1")) == Fraction(1, 52)
    assert zeta_group(cvpr26, keep_all_but(cvpr26, "p26")) == Fraction(27, 52)


def test_zeta_group_appc1_case():
    inst = gen_case_study("appc1")
    assert zeta_group(inst, keep_all_but(inst, "p1", "p2")) == Fraction(1, 6)


def test_feasibility_triangle(triangle):
    assert not evaluate(triangle, KeepVector([1, 1, 1])).feasible
    assert evaluate(triangle, KeepVector([1, 0, 0])).feasible
    assert evaluate(triangle, KeepVector([0, 0, 0])).feasible


def test_ideal_case_study(cvpr26):
    assert evaluate(cvpr26, keep_all_but(cvpr26, "p1")).ideal
    assert not evaluate(cvpr26, keep_all_but(cvpr26, "p26")).ideal


def test_ideal_triangle_never(triangle):
    for mask in range(8):
        keep = KeepVector((mask >> j) & 1 for j in range(3))
        assert not evaluate(triangle, keep).ideal


def test_ideal_trivially_when_under_cap():
    inst = random_instance(3)
    roomy = inst.with_cap(inst.m)
    assert evaluate(roomy, KeepVector([1] * roomy.m)).ideal


def test_rejects_fractional_and_mismatched(triangle):
    # a fractional keep vector cannot be built, so metrics never see one
    with pytest.raises(ValueError):
        KeepVector([0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="keep vector length 2 != paper count 3"):
        zeta_group(triangle, KeepVector([1, 0]))


@given(instances_with_keep())
@settings(max_examples=200)
def test_cost_bounds_and_metric_order(pair):
    inst, keep = pair
    costs = evaluate(inst, keep).per_author_cost
    assert all(0 <= c <= 1 for c in costs)
    assert zeta_group(inst, keep) <= zeta_ind(inst, keep)


@given(instances_with_keep())
@settings(max_examples=200)
def test_cost_antitone_in_keep_set(pair):
    inst, keep = pair
    rejected = keep.rejected_indices()
    if not rejected:
        return
    wider = list(keep.values)
    wider[rejected[0]] = 1
    wider = evaluate(inst, KeepVector(wider)).per_author_cost
    assert all(w <= c for w, c in zip(wider, evaluate(inst, keep).per_author_cost))


@given(instances_with_keep())
@settings(max_examples=200)
def test_ideal_implies_feasible(pair):
    inst, keep = pair
    report = evaluate(inst, keep)
    if report.ideal:
        assert report.feasible


@given(instances_with_keep())
@settings(max_examples=200)
def test_metrics_match_the_per_author_reference(pair):
    # the literal definitions: one Fraction per author, then max and mean
    inst, keep = pair
    kept = tuple(sum(keep.values[j] for j in papers) for papers in inst.author_papers)
    costs = tuple(Fraction(len(papers) - k, len(papers))
                  for papers, k in zip(inst.author_papers, kept))
    assert author_kept_counts(inst, keep) == kept
    assert zeta_ind(inst, keep) == max(costs)
    assert zeta_group(inst, keep) == sum(costs) / inst.n
    report = evaluate(inst, keep)
    assert report == FairnessReport(
        per_author_cost=costs,
        zeta_ind=max(costs),
        zeta_group=sum(costs) / inst.n,
        feasible=all(k <= inst.x for k in kept),
        ideal=all(k == min(inst.x, len(p)) for k, p in zip(kept, inst.author_papers)),
        kept_counts=kept,
    )
    # the solvers' group objective, the total kept fraction
    assert inst.n * (1 - report.zeta_group) == sum(1 - c for c in costs)
    assert all(type(v) is Fraction for v in (*report.per_author_cost, report.zeta_ind,
                                              report.zeta_group))
    assert report_to_dict(report)["per_author_cost"] == [rational_field(c) for c in costs]


@given(instances_with_keep())
@settings(max_examples=200)
def test_one_cost_object_and_one_field_per_distinct_pair(pair):
    # the serializer renders and encodes each distinct cost once, by identity
    inst, keep = pair
    report = evaluate(inst, keep)
    pairs = {(len(papers) - k, len(papers))
             for papers, k in zip(inst.author_papers, report.kept_counts)}
    assert len({id(c) for c in report.per_author_cost}) == len(pairs)
    fields = report_to_dict(report)["per_author_cost"]
    links = {(id(c), id(f)) for c, f in zip(report.per_author_cost, fields)}
    assert len(links) == len({id(f) for f in fields}) == len(pairs)


def test_metric_order_on_repaired_random_pairs():
    rng = random.Random(0)
    for seed in range(300):
        inst = random_instance(seed)
        keep = random_feasible_keep(inst, rng)
        assert evaluate(inst, keep).feasible
        assert zeta_group(inst, keep) <= zeta_ind(inst, keep)


def test_report_consistency(cvpr26):
    rep = evaluate(cvpr26, keep_all_but(cvpr26, "p1"))
    assert rep.zeta_ind == max(rep.per_author_cost)
    assert rep.zeta_group == Fraction(sum(rep.per_author_cost), cvpr26.n)
    assert rep.feasible and rep.ideal
    assert rep.kept_counts == (25, 1)


def test_rationals_in_lowest_terms():
    inst = gen_triangle()
    rep = evaluate(inst, KeepVector([1, 0, 0]))
    for c in rep.per_author_cost + (rep.zeta_ind, rep.zeta_group):
        assert math.gcd(c.numerator, c.denominator) == 1
        assert c.denominator > 0


def test_rational_formatting_round_trip():
    for f in (Fraction(27, 52), Fraction(0), Fraction(1), Fraction(51, 676)):
        assert Fraction(format_rational(f)) == f


def test_rational_decimal_half_even_12_digits():
    assert rational_decimal(Fraction(1, 3)) == "0.333333333333"
    assert rational_decimal(Fraction(2, 3)) == "0.666666666667"
    assert rational_decimal(Fraction(27, 52)) == "0.519230769231"
    # exact half at the 12th significant digit rounds to even
    assert rational_decimal(Fraction(1234567890125, 10**13)) == "0.123456789012"
