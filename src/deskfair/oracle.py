"""Brute-force ground truth for small instances.

Scans every keep subset by bitmask. Comparisons run on integers (costs scaled
by the lcm of the per-author paper counts), so the optima are exact; they are
converted to ``Fraction`` only at the end. Deliberately naive: this module is
the reference the real solvers are tested against, so clarity beats speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .instance import Instance, KeepVector


MAX_PAPERS = 20
MAX_TABLE_PAPERS = 12


def _author_masks(inst: Instance) -> list[int]:
    masks = [0] * inst.n
    for j, authors in enumerate(inst.paper_authors):
        for i in authors:
            masks[i] |= 1 << j
    return masks


@dataclass(frozen=True)
class OracleResult:
    best_group: Fraction
    best_group_witness: KeepVector
    best_individual: Fraction
    best_individual_witness: KeepVector
    ideal_exists: bool
    ideal_witness: KeepVector | None
    feasible_count: int


def enumerate_optimal(inst: Instance) -> OracleResult:
    """Exact optima of both fairness metrics over all feasible keep subsets.

    Witnesses are deterministic: the lowest bitmask attaining each optimum
    (papers ordered by submission index, paper 0 in the lowest bit).
    """
    if inst.m > MAX_PAPERS:
        raise ValueError(f"enumeration capped at {MAX_PAPERS} papers, got {inst.m}")
    masks = _author_masks(inst)
    sizes = [inst.paper_count(i) for i in range(inst.n)]
    scale = math.lcm(*sizes)
    weights = [scale // s for s in sizes]
    targets = [min(inst.x, s) for s in sizes]

    feasible_count = 0
    best_group_score = -1  # maximize sum of kept fractions, scaled
    best_group_mask = 0
    best_ind_score = None  # minimize max scaled cost
    best_ind_mask = 0
    ideal_mask = None

    for mask in range(1 << inst.m):
        kept = [(mask & am).bit_count() for am in masks]
        if any(k > inst.x for k in kept):
            continue
        feasible_count += 1
        group_score = sum(k * w for k, w in zip(kept, weights))
        if group_score > best_group_score:
            best_group_score = group_score
            best_group_mask = mask
        ind_score = max((s - k) * w for s, k, w in zip(sizes, kept, weights))
        if best_ind_score is None or ind_score < best_ind_score:
            best_ind_score = ind_score
            best_ind_mask = mask
        if ideal_mask is None and kept == targets:
            ideal_mask = mask

    def to_keep(mask: int) -> KeepVector:
        return KeepVector((mask >> j) & 1 for j in range(inst.m))

    best_group = Fraction(inst.n * scale - best_group_score, inst.n * scale)
    return OracleResult(
        best_group=best_group,
        best_group_witness=to_keep(best_group_mask),
        best_individual=Fraction(best_ind_score, scale),
        best_individual_witness=to_keep(best_ind_mask),
        ideal_exists=ideal_mask is not None,
        ideal_witness=to_keep(ideal_mask) if ideal_mask is not None else None,
        feasible_count=feasible_count,
    )


def remaining_counts_table(inst: Instance):
    """Per-author remaining counts for every rejected subset.

    Rows are ordered by subset size, then lexicographically by paper index;
    each row is (rejected paper ids, remaining count per author).
    """
    if inst.m > MAX_TABLE_PAPERS:
        raise ValueError(f"table enumeration capped at {MAX_TABLE_PAPERS} papers, got {inst.m}")
    sizes = [inst.paper_count(i) for i in range(inst.n)]
    rows = []
    for k in range(inst.m + 1):
        for rejected in combinations(range(inst.m), k):
            rej = set(rejected)
            counts = tuple(
                sizes[i] - sum(1 for j in inst.author_papers[i] if j in rej)
                for i in range(inst.n)
            )
            rows.append((tuple(inst.paper_ids[j] for j in rejected), counts))
    return rows
