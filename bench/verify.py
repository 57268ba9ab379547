"""Independent checker for ``deskfair solve`` outputs.

Uses nothing from the package. From the instance file and the output JSON it
recomputes kept counts, feasibility, per-author costs, ``zeta_ind`` and
``zeta_group`` as ``Fraction``s, and compares them, and the outcome itself,
with the stored references in ``fixtures.json``:

- exact policies: the rational optimum of their objective;
- ``ideal``: whether a collateral-free keep set exists;
- deterministic heuristics: a fingerprint of the keep vector, which the
  reference implementations below reproduce from the policies' definitions.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

GROUP_POLICIES = ("group-exact", "group-lp")


class WrongAnswer(AssertionError):
    pass


class Problem:
    """Integer view of an instance: cap, paper count per author, authors per paper."""

    def __init__(self, instance: dict):
        self.x = instance["x"]
        self.author_ids = list(instance["authors"])
        self.paper_ids = [p["id"] for p in instance["papers"]]
        index = {a: i for i, a in enumerate(self.author_ids)}
        self.paper_authors = [[index[a] for a in p["authors"]] for p in instance["papers"]]
        self.sizes = [0] * len(self.author_ids)
        for authors in self.paper_authors:
            for i in authors:
                self.sizes[i] += 1

    @property
    def n(self) -> int:
        return len(self.author_ids)

    @property
    def m(self) -> int:
        return len(self.paper_ids)

    def kept_counts(self, keep) -> list[int]:
        counts = [0] * self.n
        for j, authors in enumerate(self.paper_authors):
            if keep[j]:
                for i in authors:
                    counts[i] += 1
        return counts

    def targets(self) -> list[int]:
        return [min(self.x, s) for s in self.sizes]


def fingerprint(keep) -> str:
    return hashlib.sha256(bytes(keep)).hexdigest()


def group_value(p: Problem, counts) -> Fraction:
    """Total kept fraction; maximizing it minimizes the mean cost."""
    return sum((Fraction(k, s) for k, s in zip(counts, p.sizes)), Fraction(0))


def conventional_keep(p: Problem) -> list[int]:
    """Walk papers in order; drop one whose coauthor already keeps x papers."""
    registered = [0] * p.n
    keep = [1] * p.m
    for j, authors in enumerate(p.paper_authors):
        if any(registered[i] >= p.x for i in authors):
            keep[j] = 0
        else:
            for i in authors:
                registered[i] += 1
    return keep


def roulette_keep(p: Problem, seed: int = 0) -> list[int]:
    """While an author is over the cap, drop a uniformly random kept paper of
    the most over-cap author (lowest index on ties), drawn by
    ``random.Random(seed).randrange`` over that author's kept papers in order."""
    rng = random.Random(seed)
    keep = [1] * p.m
    counts = list(p.sizes)
    author_papers = [[] for _ in range(p.n)]
    for j, authors in enumerate(p.paper_authors):
        for i in authors:
            author_papers[i].append(j)
    while True:
        victim = max(range(p.n), key=lambda i: (counts[i] - p.x, -i))
        if counts[victim] <= p.x:
            return keep
        candidates = [j for j in author_papers[victim] if keep[j]]
        j = candidates[rng.randrange(len(candidates))]
        keep[j] = 0
        for i in p.paper_authors[j]:
            counts[i] -= 1


HEURISTICS = {"conventional": conventional_keep, "roulette": roulette_keep}


def _rational(field) -> Fraction:
    num, _, den = field["rational"].partition("/")
    return Fraction(int(num), int(den or 1))


def _require(ok: bool, what: str):
    if not ok:
        raise WrongAnswer(what)


def check_output(p: Problem, policy: str, exit_code: int, out: dict, ref: dict) -> None:
    """Raise :class:`WrongAnswer` unless ``out`` is exactly right for ``policy``."""
    _require(out.get("policy") == policy, f"policy field {out.get('policy')!r} != {policy!r}")
    _require(out.get("instance") == {"authors": p.n, "papers": p.m, "x": p.x}, "instance summary differs")
    if not out.get("feasible_outcome"):
        _require(policy == "ideal", f"{policy} reported no outcome")
        _require(exit_code == 2, f"no ideal outcome but exit code {exit_code}")
        _require(not ref["ideal"], "ideal reported infeasible, but a collateral-free keep set exists")
        return
    _require(exit_code == 0, f"outcome present but exit code {exit_code}")

    keep = out["keep"]
    _require(len(keep) == p.m and all(v in (0, 1) for v in keep), "keep is not a 0/1 vector of length m")
    kept_ids = [pid for pid, v in zip(p.paper_ids, keep) if v]
    rejected_ids = [pid for pid, v in zip(p.paper_ids, keep) if not v]
    _require(out["kept_papers"] == kept_ids, "kept_papers does not match keep")
    _require(out["rejected_papers"] == rejected_ids, "rejected_papers does not match keep")

    counts = p.kept_counts(keep)
    _require(all(k <= p.x for k in counts), "an author keeps more than x papers")
    costs = [Fraction(s - k, s) for s, k in zip(p.sizes, counts)]
    z_ind = max(costs)
    z_group = sum(costs, Fraction(0)) / p.n
    ideal = counts == p.targets()

    report = out["report"]
    _require(report["kept_counts"] == counts, "kept_counts differ")
    _require([_rational(c) for c in report["per_author_cost"]] == costs, "per-author costs differ")
    _require(_rational(report["zeta_ind"]) == z_ind, "zeta_ind differs from recomputation")
    _require(_rational(report["zeta_group"]) == z_group, "zeta_group differs from recomputation")
    _require(report["feasible"] is True, "report says infeasible")
    _require(report["ideal"] is ideal, "ideal flag differs")

    objective = out.get("objective")
    if policy in GROUP_POLICIES:
        _require(objective is not None and _rational(objective) == group_value(p, counts),
                 "objective is not the keep set's total kept fraction")
        _require(z_group == Fraction(ref["group_opt"]), f"zeta_group {z_group} is not the optimum {ref['group_opt']}")
    elif policy == "individual-exact":
        _require(objective is not None and _rational(objective) == z_ind, "objective is not the keep set's zeta_ind")
        _require(z_ind == Fraction(ref["ind_opt"]), f"zeta_ind {z_ind} is not the optimum {ref['ind_opt']}")
    elif policy == "ideal":
        _require(ideal, "ideal keep set is not collateral-free")
        _require(ref["ideal"], "a collateral-free keep set was reported where none exists")
    elif policy in HEURISTICS:
        _require(fingerprint(keep) == ref[policy], f"{policy} keep vector fingerprint differs")
    else:
        raise WrongAnswer(f"no check for policy {policy!r}")
