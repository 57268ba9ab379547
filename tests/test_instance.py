import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskfair.instance import (
    AuthorCategory,
    InstanceError,
    KeepVector,
    author_categories,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    validate_instance,
)

from conftest import instances

TRIANGLE_RAW = {
    "x": 1,
    "authors": ["a1", "a2", "a3"],
    "papers": [
        {"id": "p1", "authors": ["a1", "a2"]},
        {"id": "p2", "authors": ["a1", "a3"]},
        {"id": "p3", "authors": ["a2", "a3"]},
    ],
}


def test_validate_triangle_text():
    inst = validate_instance(TRIANGLE_RAW)
    assert inst.n == 3 and inst.m == 3 and inst.x == 1
    assert inst.author_papers == ((0, 1), (0, 2), (1, 2))


def test_validate_unknown_author():
    raw = {"x": 1, "authors": ["a1"], "papers": [{"id": "p1", "authors": ["a9"]}]}
    with pytest.raises(InstanceError, match="paper 'p1' lists undeclared author 'a9'"):
        validate_instance(raw)


def test_validate_nonpositive_cap():
    raw = dict(TRIANGLE_RAW, x=0)
    with pytest.raises(InstanceError, match="submission cap must be >= 1, got 0"):
        validate_instance(raw)


def test_validate_duplicate_ids():
    with pytest.raises(InstanceError, match="duplicate author id 'a1'"):
        validate_instance({"x": 1, "authors": ["a1", "a1"], "papers": [{"id": "p1", "authors": ["a1"]}]})
    with pytest.raises(InstanceError, match="duplicate paper id 'p1'"):
        validate_instance({"x": 1, "authors": ["a1"], "papers": [
            {"id": "p1", "authors": ["a1"]}, {"id": "p1", "authors": ["a1"]}]})


def test_validate_duplicate_author_on_paper_is_error():
    raw = {"x": 1, "authors": ["a1"], "papers": [{"id": "p1", "authors": ["a1", "a1"]}]}
    with pytest.raises(InstanceError, match="paper 'p1' lists an author more than once"):
        validate_instance(raw)


def test_validate_empty_author_list():
    raw = {"x": 1, "authors": ["a1"], "papers": [{"id": "p1", "authors": []}]}
    with pytest.raises(InstanceError, match="paper 'p1' has no authors"):
        validate_instance(raw)


def test_validate_author_with_no_papers():
    raw = {"x": 1, "authors": ["a1", "a2"], "papers": [{"id": "p1", "authors": ["a1"]}]}
    with pytest.raises(InstanceError, match="author 'a2' appears on no paper"):
        validate_instance(raw)


# Inputs that break two rules at once on one paper: the message names the
# rule the validator checks first.
FIRST_VIOLATION = {
    "duplicate-before-undeclared": (
        {"x": 1, "authors": ["a1"], "papers": [{"id": "p1", "authors": ["a1", "a9", "a1"]}]},
        "paper 'p1' lists an author more than once",
    ),
    "undeclared-before-on-no-paper": (
        {"x": 1, "authors": ["a1", "a2"], "papers": [{"id": "p1", "authors": ["a1", "a9"]}]},
        "paper 'p1' lists undeclared author 'a9'",
    ),
    "first-undeclared-named": (
        {"x": 1, "authors": ["a1"], "papers": [{"id": "p1", "authors": ["a1", "a8", "a9"]}]},
        "paper 'p1' lists undeclared author 'a8'",
    ),
}


@pytest.mark.parametrize("name", sorted(FIRST_VIOLATION))
def test_validate_reports_the_first_violation(name):
    raw, message = FIRST_VIOLATION[name]
    with pytest.raises(InstanceError) as err:
        validate_instance(raw)
    assert str(err.value) == message


def test_validate_checks_one_rule_at_a_time():
    # p1 lists an undeclared author and p2 lists none: the empty-list rule
    # is checked before membership, so the later paper is named
    raw = {"x": 1, "authors": ["a1"], "papers": [
        {"id": "p1", "authors": ["a1", "a9"]}, {"id": "p2", "authors": []}]}
    with pytest.raises(InstanceError) as err:
        validate_instance(raw)
    assert str(err.value) == "paper 'p2' has no authors"


# Each planting breaks one rule at the papers (or author positions) it is
# given, ascending, and returns the message naming the first of them.
def _plant_paper_shape(raw, ks):
    for k in ks:
        raw["papers"][k] = {"id": raw["papers"][k]["id"]}
    return f"paper #{ks[0]} must be an object with 'id' and 'authors'"


def _plant_paper_id_type(raw, ks):
    for k in ks:
        raw["papers"][k]["id"] = k
    return f"paper #{ks[0]} id must be a string, got {ks[0]}"


def _plant_duplicate_paper_id(raw, ks):
    papers = raw["papers"]
    papers.extend({"id": papers[k]["id"], "authors": ["a1"]} for k in ks)
    return f"duplicate paper id {papers[ks[0]]['id']!r}"


def _plant_author_list_type(raw, ks):
    for k in ks:
        raw["papers"][k]["authors"] = "".join(raw["papers"][k]["authors"])
    return f"paper {raw['papers'][ks[0]]['id']!r} 'authors' must be an array, got str"


def _plant_author_id_type(raw, ks):
    for k in ks:
        raw["papers"][k]["authors"].insert(k % 2, 7)
    return f"author id must be a string, got 7 in paper {raw['papers'][ks[0]]['id']!r} 'authors'"


def _plant_empty_author_list(raw, ks):
    for k in ks:
        raw["papers"][k]["authors"] = []
    return f"paper {raw['papers'][ks[0]]['id']!r} has no authors"


def _plant_repeated_author(raw, ks):
    for k in ks:
        names = raw["papers"][k]["authors"]
        names.append(names[0])
    return f"paper {raw['papers'][ks[0]]['id']!r} lists an author more than once"


def _plant_undeclared_author(raw, ks):
    for k in ks:
        raw["papers"][k]["authors"].insert(k % 2, f"zz{k}")
    return f"paper {raw['papers'][ks[0]]['id']!r} lists undeclared author 'zz{ks[0]}'"


def _plant_paper_id_utf8(raw, ks):
    for k in ks:
        raw["papers"][k]["id"] += "\ud800"
    return f"paper id {raw['papers'][ks[0]]['id']!r} is not encodable as UTF-8"


def _plant_duplicate_author_id(raw, ks):
    authors = raw["authors"]
    authors.extend(authors[i] for i in ks)
    return f"duplicate author id {authors[ks[0]]!r}"


def _plant_author_id_utf8(raw, ks):
    bad = [f"\udc00{i}" for i in ks]
    for i, a in reversed(list(zip(ks, bad))):
        raw["authors"].insert(i, a)
    raw["papers"][-1]["authors"].extend(bad)
    return f"author id {bad[0]!r} is not encodable as UTF-8"


def _plant_author_on_no_paper(raw, ks):
    for i in reversed(ks):
        raw["authors"].insert(i, f"zz{i}")
    return f"author 'zz{ks[0]}' appears on no paper"


PLANTED_PAPER_RULES = (
    _plant_paper_shape, _plant_paper_id_type, _plant_duplicate_paper_id,
    _plant_author_list_type, _plant_author_id_type, _plant_empty_author_list,
    _plant_repeated_author, _plant_undeclared_author, _plant_paper_id_utf8,
)
PLANTED_AUTHOR_RULES = (
    _plant_duplicate_author_id, _plant_author_id_utf8, _plant_author_on_no_paper,
)


@given(instances(), st.sampled_from(PLANTED_PAPER_RULES + PLANTED_AUTHOR_RULES), st.data())
@settings(max_examples=300)
def test_validate_names_the_first_violator_of_a_planted_rule(inst, plant, data):
    raw = instance_to_dict(inst)
    size = inst.m if plant in PLANTED_PAPER_RULES else inst.n
    ks = sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=2)))
    message = plant(raw, ks)
    with pytest.raises(InstanceError) as err:
        validate_instance(raw)
    assert str(err.value) == message


@pytest.mark.parametrize("cap", [2.5, True, "3"])
def test_with_cap_requires_an_integer(cvpr26, cap):
    with pytest.raises(InstanceError) as err:
        cvpr26.with_cap(cap)
    assert str(err.value) == f"submission cap must be an integer, got {cap!r}"


def test_with_cap_hands_on_the_index(cvpr26):
    capped = cvpr26.with_cap(3)
    assert capped.x == 3
    assert capped.paper_ids is cvpr26.paper_ids
    assert capped.paper_authors is cvpr26.paper_authors
    assert capped.author_papers is cvpr26.author_papers


def _raw(authors, paper_authors, paper_id="p", papers=None):
    papers = [{"id": paper_id, "authors": paper_authors}] if papers is None else papers
    return {"x": 1, "authors": authors, "papers": papers}


# Each of these once escaped as a TypeError traceback or was coerced through
# str() into another instance ("ab" became the authors a and b, 1 became "1").
NOT_ARRAYS_OF_STRINGS = {
    "authors-int": _raw(3, ["a"]),
    "authors-string": _raw("ab", ["a", "b"]),
    "author-id-int": _raw(["a", 1], ["a", "1"]),
    "author-id-nested": _raw(["a", ["b"]], ["a", "['b']"]),
    "papers-int": _raw(["a"], None, papers=1),
    "papers-string": _raw(["a"], None, papers="p"),
    "paper-id-int": _raw(["a"], ["a"], paper_id=1),
    "paper-id-nested": _raw(["a"], ["a"], paper_id=["p"]),
    "paper-authors-int": _raw(["a"], 2),
    "paper-authors-string": _raw(["a", "b"], "ab"),
    "paper-author-int": _raw(["a", "1"], ["a", 1]),
    "paper-author-nested": _raw(["a", "['b']"], ["a", ["b"]]),
}


@pytest.mark.parametrize("name", sorted(NOT_ARRAYS_OF_STRINGS))
def test_validate_requires_arrays_of_string_ids(name):
    with pytest.raises(InstanceError) as err:
        validate_instance(NOT_ARRAYS_OF_STRINGS[name])
    assert "\n" not in str(err.value)


def test_incidence_triangle(triangle):
    assert triangle.author_papers == ((0, 1), (0, 2), (1, 2))
    assert triangle.paper_authors == ((0, 1), (0, 2), (1, 2))
    assert [triangle.paper_count(i) for i in range(3)] == [2, 2, 2]


def test_incidence_single_author_single_paper():
    inst = validate_instance({"x": 1, "authors": ["a1"], "papers": [{"id": "p1", "authors": ["a1"]}]})
    assert inst.author_papers == ((0,),) and inst.paper_authors == ((0,),)


def test_incidence_case_study_row_sums(cvpr26):
    assert [cvpr26.paper_count(i) for i in range(cvpr26.n)] == [26, 1]


def test_classify_case_study(cvpr26):
    assert author_categories(cvpr26) == (AuthorCategory.NON_COMPLIANT, AuthorCategory.VULNERABLE)


def test_classify_triangle(triangle):
    assert author_categories(triangle) == (AuthorCategory.NON_COMPLIANT,) * 3


def test_classify_disjoint_solo_authors_safe():
    inst = validate_instance({
        "x": 1,
        "authors": ["a1", "a2"],
        "papers": [{"id": "p1", "authors": ["a1"]}, {"id": "p2", "authors": ["a2"]}],
    })
    assert author_categories(inst) == (AuthorCategory.SAFE, AuthorCategory.SAFE)


def test_keepvector_modes():
    # any iterable of 0/1 values, a generator included
    assert KeepVector(v for v in (1, 0, 1)).values == (1, 0, 1)
    with pytest.raises(ValueError):
        KeepVector([0, 2])
    # raw values are checked before int() could truncate them
    with pytest.raises(ValueError):
        KeepVector([0.5])
    with pytest.raises(ValueError):
        KeepVector([2])
    # an unhashable value is refused like any other, not with a TypeError
    with pytest.raises(ValueError):
        KeepVector([[1]])
    keep = KeepVector([0.0, 1.0, True, False])
    assert keep.values == (0, 1, 1, 0) and all(type(v) is int for v in keep.values)
    assert KeepVector([1.0, True, 0]).values == (1, 1, 0)


@given(instances())
@settings(max_examples=150)
def test_incidence_matches_membership(inst):
    papers = instance_to_dict(inst)["papers"]
    for i in range(inst.n):
        for j in range(inst.m):
            listed = inst.author_ids[i] in papers[j]["authors"]
            assert listed == (j in inst.author_papers[i]) == (i in inst.paper_authors[j])
    assert all(inst.paper_count(i) >= 1 for i in range(inst.n))
    assert all(list(papers) == sorted(papers) for papers in inst.author_papers)
    assert all(len(authors) >= 1 for authors in inst.paper_authors)


@given(instances())
@settings(max_examples=150)
def test_category_partition_total_and_exclusive(inst):
    cats = author_categories(inst)
    assert len(cats) == inst.n
    for i, cat in enumerate(cats):
        over = inst.paper_count(i) > inst.x
        coauthors = {k for j in inst.author_papers[i] for k in inst.paper_authors[j]} - {i}
        risky = any(inst.paper_count(k) > inst.x for k in coauthors)
        expected = (
            AuthorCategory.NON_COMPLIANT if over
            else AuthorCategory.VULNERABLE if risky
            else AuthorCategory.SAFE
        )
        assert cat is expected


@given(instances())
@settings(max_examples=150)
def test_json_round_trip(inst):
    again = instance_from_json(instance_to_json(inst))
    assert again == inst
    assert again.author_papers == inst.author_papers


def test_json_round_trip_case_study(cvpr26):
    text = instance_to_json(cvpr26)
    assert json.loads(text)["x"] == 25
    assert instance_from_json(text) == cvpr26
