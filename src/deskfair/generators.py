"""Instance families: hard instances, case studies, seeded random corpora,
and the set-cover reduction behind the hardness of individual fairness.

Every generator routes through :func:`validate_instance`, so anything produced
here satisfies the full data-model contract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .instance import Instance, InstanceError, require_int, validate_instance


def _make(authors, papers, x) -> Instance:
    return validate_instance(
        {"x": x, "authors": authors, "papers": [{"id": pid, "authors": al} for pid, al in papers]}
    )


def gen_triangle() -> Instance:
    """Three pairwise-coauthored papers, cap 1: the smallest instance where
    rejecting only excess papers is impossible."""
    return _make(
        ["a1", "a2", "a3"],
        [("p1", ["a1", "a2"]), ("p2", ["a1", "a3"]), ("p3", ["a2", "a3"])],
        x=1,
    )


def gen_leave_one_out(n: int) -> Instance:
    """n papers, paper i authored by everyone except author i, cap n-2.

    Every author is one paper over the cap, yet no rejection plan leaves all
    of them exactly at it.
    """
    if n < 3:
        raise InstanceError(f"leave-one-out needs n >= 3, got {n}")
    authors = [f"a{i}" for i in range(1, n + 1)]
    papers = [
        (f"p{j}", [a for k, a in enumerate(authors, start=1) if k != j])
        for j in range(1, n + 1)
    ]
    return _make(authors, papers, x=n - 2)


_CASES = {
    # One prolific author at cap 25 with 26 papers, the last shared with a
    # single-paper coauthor.
    "cvpr26": lambda: _make(
        ["a1", "a2"],
        [(f"p{j}", ["a1"]) for j in range(1, 26)] + [("p26", ["a1", "a2"])],
        x=25,
    ),
    # Cap 2; a1 is two over, its shared papers carry the only paper-slack of
    # a2 and a3.
    "appc1": lambda: _make(
        ["a1", "a2", "a3"],
        [
            ("p1", ["a1"]),
            ("p2", ["a1"]),
            ("p3", ["a1", "a2"]),
            ("p4", ["a1", "a3"]),
            ("p5", ["a2"]),
            ("p6", ["a3"]),
        ],
        x=2,
    ),
    # Cap 2; a1 on all four papers, a2 on the first two, a3-a5 on the last
    # two. Mean-cost and worst-case-cost optima pick different rejections.
    "appc2": lambda: _make(
        ["a1", "a2", "a3", "a4", "a5"],
        [
            ("p1", ["a1", "a2"]),
            ("p2", ["a1", "a2"]),
            ("p3", ["a1", "a3", "a4", "a5"]),
            ("p4", ["a1", "a3", "a4", "a5"]),
        ],
        x=2,
    ),
    # Cap 10; eleven papers by a1, the last shared with single-paper a2.
    "ex52": lambda: _make(
        ["a1", "a2"],
        [(f"p{j}", ["a1"]) for j in range(1, 11)] + [("p11", ["a1", "a2"])],
        x=10,
    ),
}


def gen_case_study(name: str) -> Instance:
    try:
        build = _CASES[name]
    except KeyError:
        raise InstanceError(f"unknown case {name!r}; choose from {sorted(_CASES)}") from None
    return build()


def case_study_names() -> tuple[str, ...]:
    return tuple(sorted(_CASES))


def gen_random(n: int, m: int, x: int, density: float, seed: int) -> Instance:
    """Independent (author, paper) links with the given probability.

    Repaired minimally afterwards: an authorless paper gets the lowest-index
    author, then a paperless author joins the lowest-index paper. Identical
    parameters and seed give an identical instance.
    """
    if n < 1 or m < 1:
        raise InstanceError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not 0 < density <= 1:
        raise InstanceError(f"density must be in (0, 1], got {density}")
    rng = random.Random(seed)
    links = [[rng.random() < density for _ in range(m)] for _ in range(n)]
    for j in range(m):
        if not any(links[i][j] for i in range(n)):
            links[0][j] = True
    for i in range(n):
        if not any(links[i]):
            links[i][0] = True
    authors = [f"a{i}" for i in range(1, n + 1)]
    papers = [
        (f"p{j + 1}", [authors[i] for i in range(n) if links[i][j]])
        for j in range(m)
    ]
    return _make(authors, papers, x)


@dataclass(frozen=True)
class SetCoverInstance:
    """Decision problem: can at most `budget` of the sets cover the universe
    {1, ..., universe_size}?"""

    universe_size: int
    sets: tuple[frozenset[int], ...]
    budget: int

    def __post_init__(self):
        if self.universe_size < 1:
            raise InstanceError("universe must be non-empty")
        if self.budget < 1:
            raise InstanceError("budget must be positive")
        for k, s in enumerate(self.sets):
            if not s:
                raise InstanceError(f"set #{k} is empty")
            if min(s) < 1 or max(s) > self.universe_size:
                raise InstanceError(f"set #{k} leaves the universe")


def set_cover_from_json(raw, budget: int | None = None) -> SetCoverInstance:
    """Build a SetCoverInstance from a parsed JSON-shaped mapping.

    Expects ``{"universe_size": int, "sets": [[int...]...], "budget": int}``;
    a ``budget`` argument replaces the field. As in
    :func:`~deskfair.instance.validate_instance`, nothing is coerced: a
    bool, a float or a numeric string is not an integer. Raises
    :class:`InstanceError` on the first wrong type or value found.
    """
    if not isinstance(raw, dict):
        raise InstanceError(f"set-cover description must be an object, got {type(raw).__name__}")
    try:
        universe_size = raw["universe_size"]
        sets = raw["sets"]
    except KeyError as e:
        raise InstanceError(f"missing required field {e.args[0]!r}") from None
    if budget is None:
        if "budget" not in raw:
            raise InstanceError("budget missing: supply --budget or a 'budget' field")
        budget = raw["budget"]
    require_int(universe_size, "'universe_size'")
    require_int(budget, "'budget'")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise InstanceError("'sets' must be an array of arrays")
    for k, s in enumerate(sets):
        for e in s:
            require_int(e, f"an element of set #{k}")
    return SetCoverInstance(universe_size, tuple(frozenset(s) for s in sets), budget)


def reduce_set_cover(sc: SetCoverInstance) -> Instance:
    """Encode set cover as a submission-limit instance: universe elements
    become authors `e1..en`, sets become papers `s1..sm`, one more author
    `budget` writes every paper, and the cap is x = K = `sc.budget`. The
    budget author's cap is then the budget, at most K papers kept, and an
    element author's cap never binds before it. So at most K sets cover the
    universe exactly when some keep vector leaves every author a paper,
    that is, when the least worst-case cost is below 1. Raises
    :class:`InstanceError` when some element lies in no set.
    """
    covered = set().union(*sc.sets)
    missing = next((e for e in range(1, sc.universe_size + 1) if e not in covered), None)
    if missing is not None:
        raise InstanceError(f"element {missing} lies in no set")
    authors = [f"e{i}" for i in range(1, sc.universe_size + 1)] + ["budget"]
    papers = [(f"s{j + 1}", [f"e{i}" for i in sorted(s)] + ["budget"]) for j, s in enumerate(sc.sets)]
    return _make(authors, papers, sc.budget)
