import pytest

from deskfair.generators import (
    gen_case_study,
    gen_leave_one_out,
    gen_random,
    gen_triangle,
)
from deskfair.instance import (
    AuthorCategory,
    InstanceError,
    author_categories,
    instance_to_dict,
    validate_instance,
)


def test_triangle_shape():
    inst = gen_triangle()
    assert [inst.paper_count(i) for i in range(inst.n)] == [2, 2, 2]
    assert inst.x == 1
    assert author_categories(inst) == (AuthorCategory.NON_COMPLIANT,) * 3


def test_leave_one_out_counts():
    inst = gen_leave_one_out(5)
    assert inst.x == 3
    assert [inst.paper_count(i) for i in range(inst.n)] == [4, 4, 4, 4, 4]
    # every author is exactly one paper over the cap
    assert all(inst.paper_count(i) == inst.n - 1 > inst.x for i in range(inst.n))


def test_leave_one_out_matches_triangle_up_to_relabeling():
    loo = gen_leave_one_out(3)
    tri = gen_triangle()
    assert loo.x == tri.x
    loo_sets = sorted(sorted(p["authors"]) for p in instance_to_dict(loo)["papers"])
    tri_sets = sorted(sorted(p["authors"]) for p in instance_to_dict(tri)["papers"])
    assert loo_sets == tri_sets


def test_leave_one_out_rejects_small_n():
    with pytest.raises(InstanceError, match="leave-one-out needs n >= 3, got 2"):
        gen_leave_one_out(2)


def test_case_studies():
    cvpr = gen_case_study("cvpr26")
    assert [cvpr.paper_count(i) for i in range(cvpr.n)] == [26, 1] and cvpr.x == 25
    appc1 = gen_case_study("appc1")
    assert appc1.x == 2
    assert appc1.author_papers == ((0, 1, 2, 3), (2, 4), (3, 5))
    ex52 = gen_case_study("ex52")
    assert [ex52.paper_count(i) for i in range(ex52.n)] == [11, 1] and ex52.x == 10
    appc2 = gen_case_study("appc2")
    assert appc2.n == 5 and appc2.m == 4 and appc2.x == 2
    with pytest.raises(InstanceError, match="unknown case 'nope'"):
        gen_case_study("nope")


def test_random_full_density_is_complete():
    inst = gen_random(3, 4, 2, 1.0, 0)
    assert all(len(authors) == 3 for authors in inst.paper_authors)


def test_random_deterministic():
    a = gen_random(5, 9, 2, 0.4, 123)
    b = gen_random(5, 9, 2, 0.4, 123)
    assert a == b
    assert gen_random(5, 9, 2, 0.4, 124) != a


GOLDEN_RANDOM = {
    "x": 2,
    "authors": ["a1", "a2", "a3", "a4"],
    "papers": [
        {"id": "p1", "authors": ["a1", "a2", "a4"]},
        {"id": "p2", "authors": ["a1", "a4"]},
        {"id": "p3", "authors": ["a2", "a4"]},
        {"id": "p4", "authors": ["a1", "a2", "a3"]},
        {"id": "p5", "authors": ["a4"]},
        {"id": "p6", "authors": ["a1", "a3"]},
        {"id": "p7", "authors": ["a1", "a2"]},
        {"id": "p8", "authors": ["a2", "a3", "a4"]},
    ],
}


def test_random_golden_instance_frozen():
    assert instance_to_dict(gen_random(4, 8, 2, 0.4, 7)) == GOLDEN_RANDOM


def test_random_parameter_validation():
    with pytest.raises(InstanceError, match="need n >= 1 and m >= 1, got n=0, m=3"):
        gen_random(0, 3, 1, 0.5, 0)
    with pytest.raises(InstanceError, match="density must be in .*, got 0.0"):
        gen_random(3, 3, 1, 0.0, 0)
    with pytest.raises(InstanceError, match="density must be in .*, got 1.5"):
        gen_random(3, 3, 1, 1.5, 0)
    with pytest.raises(InstanceError, match="cap must be >= 1, got 0"):
        gen_random(3, 3, 0, 0.5, 0)


def test_all_generated_instances_validate():
    for seed in range(50):
        inst = gen_random(1 + seed % 6, 1 + seed % 11, 1 + seed % 4, 0.3, seed)
        assert validate_instance(instance_to_dict(inst)) == inst

