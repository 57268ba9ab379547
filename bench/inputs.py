"""Workload inputs, generated by the benchmark's own code.

The package's ``deskfair.generators`` is deliberately not used: a change to the
program must not be able to change a workload.

Every workload is a fixed list of instance *structures* (who wrote which
paper, in which order, under which cap), built from fixed generator seeds.
Solver effort on these structures is heavy-tailed: branch-and-bound node
counts differ a hundredfold between neighbouring generator seeds. The run's
``--seed`` therefore does not pick new structures; it relabels every author
and paper of the fixed structures with fresh seeded identifiers, keeping all
positions. Each seed gives the program different files and identical work,
so runs with different seeds measure the same thing.

Structures are fingerprinted by the sha256 of their canonical JSON, and the
relabelled files of seed 0 by the sha256 of their bytes; both digests are
stored in ``fixtures.json`` and checked on every run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

CAP = 25  # CVPR and ICCV 2025


def conference_structure(m: int, seed: int, x: int = CAP) -> dict:
    """Heavy-tailed conference: Zipf-like author productivity, 3-7 authors
    per paper, cap ``x``, about 1.5% of authors over the cap.

    Paper sizes cycle through 3..7 and productivities are the quantiles of a
    Pareto law (exponent 1.8) scaled so that 1.7% of them exceed ``x``; the
    profile is trimmed to fill the paper slots exactly. Only the wiring, the
    paper sizes' order and the author order are random.
    """
    rng = random.Random(seed)
    sizes = [3 + j % 5 for j in range(m)]
    rng.shuffle(sizes)
    productivity = _pareto_profile(sum(sizes), x, alpha=1.8, over_share=0.017)

    room = list(sizes)
    members: list[list[int]] = [[] for _ in range(m)]
    for author, count in enumerate(productivity):  # most productive first
        open_papers = [j for j in range(m) if room[j]]
        for j in rng.sample(open_papers, count):
            room[j] -= 1
            members[j].append(author)

    n = len(productivity)
    rank_to_row = list(range(n))
    rng.shuffle(rank_to_row)  # file order is unrelated to productivity
    names = [f"a{row:05d}" for row in rank_to_row]
    papers = []
    for j, authors in enumerate(members):
        rng.shuffle(authors)
        papers.append({"id": f"p{j:05d}", "authors": [names[a] for a in authors]})
    return {"x": x, "authors": [f"a{row:05d}" for row in range(n)], "papers": papers}


def _pareto_profile(slots: int, x: int, alpha: float, over_share: float) -> list[int]:
    """Descending per-author paper counts summing to ``slots``."""
    pmin = x * over_share ** (1 / alpha)

    def profile(n):
        return [max(1, int(pmin * (n / r) ** (1 / alpha))) for r in range(1, n + 1)]

    lo, hi = 1, slots
    while lo < hi:  # fewest authors whose profile fills every slot
        mid = (lo + hi) // 2
        if sum(profile(mid)) >= slots:
            hi = mid
        else:
            lo = mid + 1
    counts = profile(lo)
    excess = sum(counts) - slots
    r = len(counts) - 1
    while excess:  # trim from the least productive end, never below 1
        if counts[r] > 1:
            counts[r] -= 1
            excess -= 1
        r = r - 1 if r else len(counts) - 1
    return counts


def uniform_structure(n: int, m: int, x: int, density: float, seed: int) -> dict:
    """Independent (author, paper) links with probability ``density``.

    Same draw order and minimal repair as the package's random family: an
    authorless paper gets the first author, then a paperless author joins the
    first paper.
    """
    rng = random.Random(seed)
    links = [[rng.random() < density for _ in range(m)] for _ in range(n)]
    for j in range(m):
        if not any(links[i][j] for i in range(n)):
            links[0][j] = True
    for i in range(n):
        if not any(links[i]):
            links[i][0] = True
    authors = [f"a{i + 1}" for i in range(n)]
    papers = [
        {"id": f"p{j + 1}", "authors": [authors[i] for i in range(n) if links[i][j]]}
        for j in range(m)
    ]
    return {"x": x, "authors": authors, "papers": papers}


def relabel(structure: dict, seed: int, index: int) -> dict:
    """Same structure under fresh, seeded, fixed-width author and paper ids."""
    rng = random.Random(f"relabel:{seed}:{index}")
    authors = structure["authors"]
    papers = structure["papers"]
    new_author = dict(zip(authors, (f"a{v:08x}" for v in rng.sample(range(1 << 32), len(authors)))))
    paper_ids = rng.sample(range(1 << 32), len(papers))
    return {
        "x": structure["x"],
        "authors": [new_author[a] for a in authors],
        "papers": [
            {"id": f"p{v:08x}", "authors": [new_author[a] for a in p["authors"]]}
            for v, p in zip(paper_ids, papers)
        ],
    }


def to_bytes(instance: dict) -> bytes:
    return json.dumps(instance, separators=(",", ":")).encode() + b"\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    policies: tuple[str, ...]
    structures: tuple[tuple[str, Callable[[], dict]], ...]  # (label, builder)

    def build_structures(self) -> list[tuple[str, dict]]:
        return [(label, build()) for label, build in self.structures]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conference",
            ("conventional", "roulette", "group-exact", "individual-exact"),
            tuple((f"conference-m1000-s{s}", partial(conference_structure, 1000, s)) for s in range(2)),
        ),
        Workload(
            "uniform-bnb",
            ("group-exact", "group-lp"),
            tuple((f"uniform-n25-m50-s{s}", partial(uniform_structure, 25, 50, 3, 0.1, s)) for s in range(6)),
        ),
        Workload(
            "uniform-dfs",
            ("individual-exact", "ideal"),
            tuple((f"uniform-n12-m24-s{s}", partial(uniform_structure, 12, 24, 3, 0.2, s)) for s in range(10)),
        ),
    )
}


@dataclass(frozen=True)
class Input:
    label: str
    structure_sha256: str
    seed0_sha256: str  # digest of this structure's file under seed 0
    data: bytes        # the instance file for the requested seed


def build_inputs(workload: Workload, seed: int) -> list[Input]:
    return [
        Input(label, sha256(to_bytes(structure)), sha256(to_bytes(relabel(structure, 0, k))),
              to_bytes(relabel(structure, seed, k)))
        for k, (label, structure) in enumerate(workload.build_structures())
    ]
