import random
from fractions import Fraction

import pytest

from deskfair import metrics, policies
from deskfair.generators import gen_case_study, gen_random
from deskfair.instance import (
    AuthorCategory,
    KeepVector,
    SolverStopped,
    author_categories,
    instance_to_dict,
    validate_instance,
)
from deskfair.metrics import evaluate, zeta_group, zeta_ind
from deskfair.oracle import enumerate_optimal
from deskfair.policies import (
    conventional_desk_reject,
    ideal_construct_small,
    roulette_expectation,
    roulette_reject,
)
from deskfair.solvers import solve_group_exact

from conftest import random_instance, spy_on


def permute_papers(inst, order):
    raw = instance_to_dict(inst)
    raw["papers"] = [raw["papers"][j] for j in order]
    return validate_instance(raw)


def rejected_ids(inst, keep):
    return [inst.paper_ids[j] for j in keep.rejected_indices()]


def test_conventional_case_study(cvpr26):
    out = conventional_desk_reject(inst := cvpr26)
    assert rejected_ids(inst, out.keep) == ["p26"]
    assert out.report.zeta_ind == 1
    assert out.report.zeta_group == Fraction(27, 52)
    assert out.report.feasible


def test_conventional_triangle(triangle):
    out = conventional_desk_reject(triangle)
    assert out.keep.values == (1, 0, 0)
    assert rejected_ids(triangle, out.keep) == ["p2", "p3"]


def test_conventional_keeps_everything_under_cap():
    inst = gen_random(4, 6, 3, 0.4, 11).with_cap(6)
    out = conventional_desk_reject(inst)
    assert out.keep.values == (1,) * inst.m


def test_conventional_trace_covers_every_paper(cvpr26):
    out = conventional_desk_reject(cvpr26)
    assert [t[0] for t in out.trace] == list(cvpr26.paper_ids)
    assert out.trace[-1] == ("p26", "reject", "author a1 already at the cap")


def test_conventional_never_hits_all_safe_papers():
    for seed in range(60):
        inst = random_instance(seed)
        out = conventional_desk_reject(inst)
        cats = author_categories(inst)
        for j in out.keep.rejected_indices():
            assert any(cats[i] is not AuthorCategory.SAFE for i in inst.paper_authors[j])


def test_conventional_order_sensitivity(cvpr26):
    # moving the shared paper to the front flips the outcome entirely
    moved = permute_papers(cvpr26, [25] + list(range(25)))
    out = conventional_desk_reject(moved)
    assert out.report.zeta_group == Fraction(1, 52)
    assert conventional_desk_reject(cvpr26).report.zeta_group == Fraction(27, 52)


def test_roulette_no_overage_keeps_all():
    inst = gen_random(3, 4, 2, 0.4, 5).with_cap(4)
    for seed in (0, 1, 99):
        out = roulette_reject(inst, seed)
        assert out.keep.values == (1,) * inst.m
        assert out.trace == ()


def test_roulette_deterministic_per_seed(triangle):
    a = roulette_reject(triangle, 42)
    b = roulette_reject(triangle, 42)
    assert a.keep == b.keep and a.trace == b.trace
    assert any(roulette_reject(triangle, s).keep != a.keep for s in range(10))


def test_roulette_always_feasible_and_targeted():
    for seed in range(80):
        inst = random_instance(seed)
        over = {i for i in range(inst.n) if inst.paper_count(i) > inst.x}
        over_papers = {j for i in over for j in inst.author_papers[i]}
        out = roulette_reject(inst, seed)
        assert out.report.feasible
        assert set(out.keep.rejected_indices()) <= over_papers


def test_roulette_marginal_law(cvpr26):
    hits = sum(
        1 for seed in range(2000)
        if "p26" in rejected_ids(cvpr26, roulette_reject(cvpr26, seed).keep)
    )
    # P(shared paper rejected) = 1/26; 2000 draws, 3 sigma band
    p = 1 / 26
    sigma = (p * (1 - p) / 2000) ** 0.5
    assert abs(hits / 2000 - p) < 3 * sigma


def test_roulette_expectation_case_study(cvpr26):
    e_ind, e_group = roulette_expectation(cvpr26)
    assert e_ind == Fraction(51, 676)
    assert e_group == Fraction(1, 26)


def test_roulette_expectation_triangle(triangle):
    # hand enumeration: every path ends keeping exactly one paper, so costs
    # are (1/2, 1/2, 1) in some order at every leaf
    e_ind, e_group = roulette_expectation(triangle)
    assert e_ind == 1
    assert e_group == Fraction(2, 3)


def test_roulette_expectation_no_overage():
    inst = gen_random(3, 4, 2, 0.4, 5).with_cap(4)
    assert roulette_expectation(inst) == (0, 0)


@pytest.mark.parametrize("case, leaves", [("cvpr26", 26), ("appc1", 12), ("appc2", 12),
                                           ("ex52", 11)])
def test_roulette_expectation_counts_each_leaf_once(case, leaves, monkeypatch):
    # one evaluate per leaf visit, and so one kept-count pass
    passes = spy_on(monkeypatch, metrics.author_kept_counts)
    roulette_expectation(gen_case_study(case))
    assert len(passes) == leaves


def test_roulette_expectation_outcome_cap(cvpr26, monkeypatch):
    monkeypatch.setattr(policies, "MAX_ROULETTE_OUTCOMES", 10)
    with pytest.raises(SolverStopped, match="more than 10 roulette outcomes"):
        roulette_expectation(cvpr26)


def test_roulette_expectation_matches_sampling(triangle):
    inst = gen_random(3, 6, 1, 0.5, 2)
    e_ind, e_group = roulette_expectation(inst)
    n = 4000
    mean_ind = sum(float(roulette_reject(inst, s).report.zeta_ind) for s in range(n)) / n
    assert abs(mean_ind - float(e_ind)) < 0.03


def full_scan_victim(counts, x):
    """The victim rule scanning every author: most over the cap, lowest
    index on ties."""
    best = None
    for i, k in enumerate(counts):
        if k > x and (best is None or k > counts[best]):
            best = i
    return best


def reference_roulette(inst, seed):
    rng = random.Random(seed)
    keep = [1] * inst.m
    counts = [inst.paper_count(i) for i in range(inst.n)]
    trace = []
    while (victim := full_scan_victim(counts, inst.x)) is not None:
        candidates = [j for j in inst.author_papers[victim] if keep[j]]
        j = candidates[rng.randrange(len(candidates))]
        keep[j] = 0
        for i in inst.paper_authors[j]:
            counts[i] -= 1
        trace.append((inst.paper_ids[j], "reject",
                      f"author {inst.author_ids[victim]} over the cap by {counts[victim] + 1 - inst.x}"))
    return tuple(keep), tuple(trace)


def reference_expectation(inst, keep=None, counts=None, prob=Fraction(1)):
    keep = keep or (1,) * inst.m
    counts = counts or tuple(inst.paper_count(i) for i in range(inst.n))
    victim = full_scan_victim(counts, inst.x)
    if victim is None:
        kv = KeepVector(keep)
        return prob * zeta_ind(inst, kv), prob * zeta_group(inst, kv)
    candidates = [j for j in inst.author_papers[victim] if keep[j]]
    e_ind = e_group = Fraction(0)
    for j in candidates:
        child = tuple(0 if k == j else v for k, v in enumerate(keep))
        child_counts = tuple(c - (i in inst.paper_authors[j]) for i, c in enumerate(counts))
        a, b = reference_expectation(inst, child, child_counts, prob / len(candidates))
        e_ind, e_group = e_ind + a, e_group + b
    return e_ind, e_group


def test_roulette_matches_the_full_scan_victim_rule():
    # a and b, both over the cap, share p1, p2 and p5: a draw for one victim
    # takes the paper off the other's kept list (under rng seeds 7 and
    # 12345, the draws then switch victim)
    shared = validate_instance({"x": 1, "authors": ["a", "b", "c"], "papers": [
        {"id": "p1", "authors": ["a", "b"]}, {"id": "p2", "authors": ["b", "a", "c"]},
        {"id": "p3", "authors": ["a"]}, {"id": "p4", "authors": ["b"]},
        {"id": "p5", "authors": ["a", "b"]},
    ]})
    cases = [shared] + [random_instance(seed, max_n=10, max_m=30, max_x=3) for seed in range(120)]
    for inst in cases:
        for rng_seed in (0, 1, 7, 12345):
            out = roulette_reject(inst, rng_seed)
            assert (out.keep.values, out.trace) == reference_roulette(inst, rng_seed)


def test_roulette_expectation_matches_the_full_scan_victim_rule():
    for seed in range(100):
        inst = random_instance(seed, max_n=5, max_m=6, max_x=2)
        assert roulette_expectation(inst) == reference_expectation(inst)


def test_group_exact_seeds_from_the_conventional_keep_set(triangle, cvpr26):
    cases = [triangle, cvpr26] + [random_instance(seed, max_n=8, max_m=16) for seed in range(30)]
    for inst in cases:
        seed_obj = inst.n * (1 - zeta_group(inst, conventional_desk_reject(inst).keep))
        assert solve_group_exact(inst).diagnostics.incumbent_trace[0] == seed_obj


def test_ideal_construct_single_author():
    inst = validate_instance({
        "x": 3,
        "authors": ["a1"],
        "papers": [{"id": f"p{j}", "authors": ["a1"]} for j in range(1, 6)],
    })
    keep = ideal_construct_small(inst)
    assert evaluate(inst, keep).ideal
    assert rejected_ids(inst, keep) == ["p4", "p5"]  # latest first


def test_ideal_construct_shared_overflow():
    # both authors over the cap purely through shared papers: all solos go,
    # then shared papers down to the cap
    inst = validate_instance({
        "x": 2,
        "authors": ["a1", "a2"],
        "papers": [
            {"id": "p1", "authors": ["a1"]},
            {"id": "p2", "authors": ["a1"]},
            {"id": "p3", "authors": ["a1"]},
            {"id": "p4", "authors": ["a1", "a2"]},
            {"id": "p5", "authors": ["a1", "a2"]},
            {"id": "p6", "authors": ["a1", "a2"]},
        ],
    })
    keep = ideal_construct_small(inst)
    assert evaluate(inst, keep).ideal
    assert rejected_ids(inst, keep) == ["p1", "p2", "p3", "p6"]
    assert keep.values == (0, 0, 0, 1, 1, 0)


def test_ideal_construct_case_study(cvpr26):
    keep = ideal_construct_small(cvpr26)
    assert evaluate(cvpr26, keep).ideal
    assert rejected_ids(cvpr26, keep) == ["p25"]  # one of the solo papers


def test_ideal_construct_rejects_three_authors(triangle):
    with pytest.raises(ValueError, match="constructive path covers n <= 2, got n = 3"):
        ideal_construct_small(triangle)


def test_ideal_construct_matches_oracle_on_randoms():
    rng = random.Random(7)
    for trial in range(120):
        n = rng.randint(1, 2)
        m = rng.randint(1, 10)
        x = rng.randint(1, 4)
        inst = gen_random(n, m, x, rng.choice([0.3, 0.6, 1.0]), trial)
        keep = ideal_construct_small(inst)
        report = evaluate(inst, keep)
        assert report.ideal and report.feasible
        assert enumerate_optimal(inst).ideal_exists
