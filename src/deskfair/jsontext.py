"""JSON text in the layout of ``json.dumps(obj, indent=2)``, byte for byte.

Every JSON file deskfair writes has that layout (see ``docs/formats.md``).
The standard library serves ``indent=2`` with its pure-Python encoder, since
its C encoder only handles ``indent=None``. This writer walks dicts and
lists in Python, like that encoder, but hands every string and number to the
C-level functions the encoder itself ends in, and encodes a list of only
ints or only strings in one pass. A list of rows, lists or tuples of one
width k >= 1 that hold only strings (a solve's ``trace``), is laid out once:
one ``%`` layout spells a row's brackets, line breaks and indents, and the
list's text, that layout once per row, takes every encoded cell in one pass.
Within any other list, each distinct object (by ``id``) is encoded once and
its text repeated, so a report whose authors share one cost dict renders
that dict once. The memo lives for one list only: the same object at
another depth has another indent.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "
_INF = float("inf")
_ROWS = {list, tuple}


def dumps_indented(obj) -> str:
    """``json.dumps(obj, indent=2)`` for str-keyed dicts, lists, tuples, str,
    int, float, bool and None; anything else raises ``TypeError``."""
    return _encode(obj, "\n")


def _encode(value, newline: str) -> str:
    """``value`` as JSON text; ``newline`` is a line break plus the indent
    of the line that opens ``value``. The checks run in ``json``'s order."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + _INDENT
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(_string, value)
        elif kinds <= _ROWS and (layout := _row_layout(value, inner)):
            # the layout once per row, filled with every cell in one pass
            text = "[" + inner + ("," + inner).join([layout] * len(value)) + newline + "]"
            return text % tuple(map(_string, chain.from_iterable(value)))
        else:
            # every item of a list has one indent: encode each object once
            memo = {}
            items = []
            for v in value:
                text = memo.get(id(v))
                if text is None:
                    text = memo[id(v)] = _encode(v, inner)
                items.append(text)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + _INDENT
        items = []
        for key, v in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            items.append(_string(key) + ": " + _encode(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _row_layout(rows, newline: str) -> str | None:
    """The text of one row of `rows` with a ``%s`` for each cell, when every
    row has the same width k >= 1 and every cell is a str; None otherwise.
    ``newline`` is a line break plus the indent of the line a row opens on."""
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths or set(map(type, chain.from_iterable(rows))) != {str}:
        return None
    inner = newline + _INDENT
    return "[" + inner + ("," + inner).join(["%s"] * widths.pop()) + newline + "]"


def _float(value: float) -> str:
    # json's spellings for the values JSON has no literal for
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)
