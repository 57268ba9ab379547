"""Core data model: authors, papers, who wrote what, author categories.

Everything downstream (metrics, policies, solvers) consumes the immutable
:class:`Instance` that :func:`validate_instance` builds here. Identifiers
are opaque strings, read only for output; all math uses the dense 0-based
indices of who wrote what. Paper list order is the submission order.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from itertools import chain, compress, repeat
from operator import itemgetter, not_

from .jsontext import dumps_indented


class InstanceError(ValueError):
    """Malformed input: an instance or set-cover description, a command-line
    argument or an environment setting. `deskfair` prints it on one line
    and exits 1."""


class SolverStopped(RuntimeError):
    """A search or an LP stopped without a result: the node limit, the
    simplex pivot cap or a numerical check; the message names which.
    `deskfair` prints it on one line and exits 3."""


def require_int(value, what: str) -> None:
    """Raise :class:`InstanceError` unless `value` is an int; a bool is not."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceError(f"{what} must be an integer, got {value!r}")


def _require_cap(x) -> None:
    """Raise :class:`InstanceError` unless the submission cap `x` is an int, at least 1."""
    require_int(x, "submission cap")
    if x < 1:
        raise InstanceError(f"submission cap must be >= 1, got {x}")


class AuthorCategory(enum.Enum):
    NON_COMPLIANT = "non-compliant"  # more than x papers
    VULNERABLE = "vulnerable"        # within cap but has a non-compliant coauthor
    SAFE = "safe"                    # within cap, as is every author of their papers


@dataclass(frozen=True)
class Instance:
    """A submission-limit problem: who wrote what, and the per-author cap.

    Construct via :func:`validate_instance` (or the generators), which enforce
    all invariants and build every field; the constructor itself does not
    re-validate. `paper_authors` holds the author indices of each paper in
    listed order, `author_papers` the paper indices of each author in
    ascending (submission) order.
    """

    author_ids: tuple[str, ...]
    paper_ids: tuple[str, ...]
    paper_authors: tuple[tuple[int, ...], ...]
    author_papers: tuple[tuple[int, ...], ...]
    x: int

    @property
    def n(self) -> int:
        return len(self.author_ids)

    @property
    def m(self) -> int:
        return len(self.paper_ids)

    def paper_count(self, author: int) -> int:
        return len(self.author_papers[author])

    def with_cap(self, x: int) -> "Instance":
        """The same instance under cap `x`; every index tuple is shared."""
        _require_cap(x)
        return replace(self, x=x)


def validate_instance(raw) -> Instance:
    """Build a well-formed Instance from a parsed JSON-shaped mapping.

    Expects ``{"x": int, "authors": [str...], "papers": [{"id": str,
    "authors": [str...]}...]}``; the arrays must be lists and every id a
    string, nothing is coerced. Never repairs input. The rules are checked
    one at a time, in the order docs/formats.md lists them, each in one
    bulk pass over the papers or the author slots; the first rule broken
    raises :class:`InstanceError` naming its first violator in file order.
    The membership check also builds the index the returned Instance
    carries.
    """
    if not isinstance(raw, dict):
        raise InstanceError(f"instance description must be an object, got {type(raw).__name__}")
    try:
        x = raw["x"]
        authors = raw["authors"]
        papers_raw = raw["papers"]
    except KeyError as e:
        raise InstanceError(f"missing required field {e.args[0]!r}") from None

    _require_cap(x)

    author_ids = _id_list(authors, "'authors'", "author id")
    _require_array(papers_raw, "'papers'")
    author_index = dict(zip(author_ids, range(len(author_ids))))
    if len(author_index) < len(author_ids):
        raise InstanceError(f"duplicate author id {_first_repeat(author_ids)!r}")

    try:
        ids = list(map(itemgetter("id"), papers_raw))
        lists = list(map(itemgetter("authors"), papers_raw))
    except (TypeError, KeyError):
        k = next(k for k, p in enumerate(papers_raw) if not _has_id_and_authors(p))
        raise InstanceError(f"paper #{k} must be an object with 'id' and 'authors'") from None
    if not all(map(isinstance, ids, repeat(str))):
        k, pid = next((k, i) for k, i in enumerate(ids) if not isinstance(i, str))
        raise InstanceError(f"paper #{k} id must be a string, got {pid!r}")
    if len(set(ids)) < len(ids):
        raise InstanceError(f"duplicate paper id {_first_repeat(ids)!r}")
    if not all(map(isinstance, lists, repeat(list))):
        pid, names = next((i, a) for i, a in zip(ids, lists) if not isinstance(a, list))
        _require_array(names, f"paper {pid!r} 'authors'")
    slots = list(chain.from_iterable(lists))
    if not all(map(isinstance, slots, repeat(str))):
        pid, names = next((i, a) for i, a in zip(ids, lists)
                          if not all(map(isinstance, a, repeat(str))))
        _id_list(names, f"paper {pid!r} 'authors'", "author id")
    if not all(lists):
        pid = next(i for i, a in zip(ids, lists) if not a)
        raise InstanceError(f"paper {pid!r} has no authors")
    if sum(map(len, map(set, lists))) < len(slots):
        pid = next(i for i, a in zip(ids, lists) if len(set(a)) < len(a))
        raise InstanceError(f"paper {pid!r} lists an author more than once")
    try:
        paper_authors = tuple(map(tuple, map(map, repeat(author_index.__getitem__), lists)))
    except KeyError:
        pid, a = next((i, a) for i, names in zip(ids, lists)
                      for a in names if a not in author_index)
        raise InstanceError(f"paper {pid!r} lists undeclared author {a!r}") from None
    author_papers: list[list[int]] = [[] for _ in author_ids]
    for k, row in enumerate(paper_authors):
        for i in row:
            author_papers[i].append(k)

    _require_utf8(author_ids, "author id")
    _require_utf8(ids, "paper id")

    if not all(author_papers):
        a = next(a for a, js in zip(author_ids, author_papers) if not js)
        raise InstanceError(f"author {a!r} appears on no paper")
    if not author_ids:  # and so no paper either: every cost and mean is undefined
        raise InstanceError("instance has no authors and no papers")

    return Instance(author_ids, tuple(ids), paper_authors, tuple(map(tuple, author_papers)), x)


def _require_array(value, field: str) -> None:
    if not isinstance(value, list):
        raise InstanceError(f"{field} must be an array, got {type(value).__name__}")


def _has_id_and_authors(paper) -> bool:
    try:
        paper["id"], paper["authors"]
    except (TypeError, KeyError):
        return False
    return True


def _first_repeat(ids):
    """The first id in `ids` that an earlier one equals."""
    seen = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)


def _require_utf8(ids, what: str) -> None:
    """Ids reach text output (the `check-ideal` listing, the `compare` CSV)
    as UTF-8, which cannot encode a lone surrogate such as the JSON string
    "\\ud800". Python encodes no surrogate code point, paired or not, so
    the joined ids fail to encode exactly when one of them does."""
    try:
        "".join(ids).encode("utf-8")
    except UnicodeEncodeError:
        for i in ids:
            try:
                i.encode("utf-8")
            except UnicodeEncodeError:
                raise InstanceError(f"{what} {i!r} is not encodable as UTF-8") from None


def _id_list(value, field: str, what: str) -> tuple[str, ...]:
    """The ids of a JSON array of strings, in order."""
    _require_array(value, field)
    if not all(map(isinstance, value, repeat(str))):
        v = next(v for v in value if not isinstance(v, str))
        raise InstanceError(f"{what} must be a string, got {v!r} in {field}")
    return tuple(value)


def instance_to_dict(inst: Instance) -> dict:
    names = inst.author_ids
    return {
        "x": inst.x,
        "authors": list(inst.author_ids),
        "papers": [{"id": pid, "authors": [names[i] for i in row]}
                   for pid, row in zip(inst.paper_ids, inst.paper_authors)],
    }


def instance_to_json(inst: Instance) -> str:
    return dumps_indented(instance_to_dict(inst))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:  # the C parser recurses once per nested array or object
        raise InstanceError("input JSON is nested too deeply") from None
    except ValueError as exc:  # not JSON, or an integer past Python's digit limit
        raise InstanceError(str(exc)) from None


def load_json(path):
    """The parsed contents of a UTF-8 JSON input file; text that is not
    UTF-8, not JSON or nested too deeply for the parser is an
    :class:`InstanceError`, like any other malformed input."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(str(exc)) from None
    return _parse_json(text)


def instance_from_json(text: str) -> Instance:
    return validate_instance(_parse_json(text))


def load_instance(path) -> Instance:
    return validate_instance(load_json(path))


def dump_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(instance_to_json(inst))
        fh.write("\n")


@dataclass(frozen=True)
class KeepVector:
    """Per-paper keep decision as exact 0/1 ints; r_j = 1 keeps paper j,
    r_j = 0 rejects it. Relaxation values never get here: the LP layer
    snaps them first."""

    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(self.values)  # a generator would be spent by the check
        # check the raw values before int() could truncate 0.5 or 1.7; an
        # equality test, unlike a set, also refuses an unhashable value
        if not all(map((0, 1).__contains__, values)):
            raise ValueError("keep vector must contain only 0/1")
        object.__setattr__(self, "values", tuple(map(int, values)))

    def __len__(self) -> int:
        return len(self.values)

    def kept_indices(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.values)), self.values))

    def rejected_indices(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.values)), map(not_, self.values)))


def author_categories(inst: Instance) -> tuple[AuthorCategory, ...]:
    """Every author's category, from one pass over the papers: an author
    over the cap is non-compliant, one within it is vulnerable when a paper
    they wrote has an author over the cap, and safe otherwise."""
    over = [len(papers) > inst.x for papers in inst.author_papers]
    exposed = [False] * inst.n
    for authors in inst.paper_authors:
        if any(over[i] for i in authors):
            for i in authors:
                exposed[i] = True
    return tuple(
        AuthorCategory.NON_COMPLIANT if o
        else AuthorCategory.VULNERABLE if e
        else AuthorCategory.SAFE
        for o, e in zip(over, exposed)
    )
