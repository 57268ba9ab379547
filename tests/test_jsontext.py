import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskfair.jsontext import dumps_indented

STRINGS = st.text() | st.text(st.characters(max_codepoint=0x1F)) | st.sampled_from(["", '"\\/', " ", "\U0001F600"])
INTS = st.integers() | st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-(2**64), min_value=-(2**200))
FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324])
LEAVES = STRINGS | INTS | FLOATS | st.booleans() | st.none()

JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(STRINGS, inner, max_size=4)
        | st.lists(INTS, max_size=5)
        | st.lists(STRINGS, max_size=5)
        | st.lists(st.one_of(INTS, STRINGS, st.booleans()), max_size=5)
        # rows of one width, as a solve's trace: the one-layout path
        | st.integers(1, 3).flatmap(lambda k: st.lists(
            st.lists(STRINGS, min_size=k, max_size=k) | st.tuples(*[STRINGS] * k), max_size=4))
    ),
    max_leaves=20,
)


@given(JSON_VALUES)
@example(float("inf"))  # the random draws may never reach it
@settings(max_examples=400)
def test_matches_json_dumps_indent_two(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


SHARED_DICT = {"rational": "1/3", "decimal": "0.333333333333"}
SHARED_LIST = [1, "a", None]


# One object several times in a list is encoded once per list; the same
# object at another depth has another indent.
@pytest.mark.parametrize("value", [
    [SHARED_DICT] * 1000,
    [SHARED_LIST, SHARED_LIST, [SHARED_LIST]],
    {"top": [SHARED_DICT, SHARED_DICT], "deeper": [[SHARED_DICT], {"k": SHARED_DICT}]},
    [SHARED_DICT, [SHARED_DICT, [SHARED_DICT]], SHARED_DICT],
], ids=["one dict 1000 times", "one list repeated", "dict at two depths", "dict at three depths"])
def test_shared_objects_match_json_dumps(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


ROW = ("p1", "reject", "author a1 over the cap by 1")


# A list of rows of one width holding only strings is laid out once; every
# other list of lists goes through the general path.
@pytest.mark.parametrize("value", [
    [["a", "b"], ["c", "d"], ["e", "f"]],
    [["a", "b"], ["c"], ["d", "e", "f"]],
    [["a", 1], ["b", "c"]],
    [["a", None], ["b", "c"]],
    [["a", ["b"]], ["c", "d"]],
    [["a"], [], ["b"]],
    [[], []],
    [["only", "row"]],
    {"trace": [ROW]},
    [["a", "b"], ("c", "d"), ["e", "f"]],
    [ROW] * 5,
    {"trace": [["100%", "%s", "%(k)s"], ['"quoted"', "two\nlines", "caf\u00e9 \U0001F600"]]},
], ids=["equal width", "unequal width", "int cell", "None cell", "nested list cell",
        "empty row among others", "only empty rows", "single row", "single row in a dict",
        "lists and tuples mixed", "one row repeated", "percent, quote, newline, non-ASCII"])
def test_rows_match_json_dumps(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), {1, 2}, {1: "a"}, [Fraction(1, 3)], {"k": {"x"}}, [1, b"x"],
], ids=["fraction", "set", "int key", "fraction in list", "set in dict", "bytes in int list"])
def test_unsupported_types_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps_indented(value)
