"""Exact-rational fairness metrics for keep sets.

Per-author cost is the rejected fraction of that author's papers; the
worst-case cost (max) and mean cost are the two headline metrics.
`evaluate` is the one judgement of a keep set and the only code that
turns kept counts into costs: the solvers certify keep sets from its
report, and `zeta_ind` and `zeta_group` each read one field of it. All
arithmetic is ``fractions.Fraction`` so reported values are exact; floats
appear nowhere in this module. Every quantity starts from integer kept
counts, and a rational is built once per distinct value, not once per
author: many authors share a paper count and a rejected count.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from .instance import Instance, KeepVector


def author_kept_counts(inst: Instance, keep: KeepVector) -> tuple[int, ...]:
    """Kept papers per author: each author's paper count, less one along the
    author list of every rejected paper. Every evaluation starts here, so
    this is where a keep vector of the wrong length is refused."""
    if len(keep) != inst.m:
        raise ValueError(f"keep vector length {len(keep)} != paper count {inst.m}")
    counts = [len(papers) for papers in inst.author_papers]
    for j, v in enumerate(keep.values):
        if not v:
            for i in inst.paper_authors[j]:
                counts[i] -= 1
    return tuple(counts)


@dataclass(frozen=True)
class FairnessReport:
    per_author_cost: tuple[Fraction, ...]
    zeta_ind: Fraction
    zeta_group: Fraction
    feasible: bool
    ideal: bool
    kept_counts: tuple[int, ...]


def evaluate(inst: Instance, keep: KeepVector) -> FairnessReport:
    """Full report for a binary keep vector, from one loop over the authors.
    With s papers and k kept, an author's cost is the Fraction (s - k)/s,
    built once per distinct (s - k, s) pair and shared by its authors. The
    mean is the sum over distinct s of R_s/s, where the integer R_s totals
    the rejected papers of the authors with s papers. The keep set is ideal
    when every k equals min(x, s)."""
    counts = author_kept_counts(inst, keep)
    x = inst.x
    shared = {}
    costs = []
    rejected = {}
    ideal = True
    for papers, k in zip(inst.author_papers, counts):
        s = len(papers)
        c = shared.get((s - k, s))
        if c is None:
            c = shared[s - k, s] = Fraction(s - k, s)
        costs.append(c)
        if k < s:
            rejected[s] = rejected.get(s, 0) + s - k
            if k != x:  # min(x, s) = k < s only when x = k
                ideal = False
        elif k > x:  # all s kept, and min(x, s) = s only when s <= x
            ideal = False
    return FairnessReport(
        per_author_cost=tuple(costs),
        zeta_ind=max(shared.values()),
        zeta_group=sum((Fraction(r, s) for s, r in rejected.items()), start=Fraction(0)) / inst.n,
        feasible=max(counts) <= x,
        ideal=ideal,
        kept_counts=counts,
    )


def zeta_ind(inst: Instance, keep: KeepVector) -> Fraction:
    """Worst-case (egalitarian) fairness: the maximum per-author cost."""
    return evaluate(inst, keep).zeta_ind


def zeta_group(inst: Instance, keep: KeepVector) -> Fraction:
    """Aggregate (utilitarian) fairness: the mean per-author cost."""
    return evaluate(inst, keep).zeta_group


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


_DECIMAL = Context(prec=12, rounding=ROUND_HALF_EVEN)


def rational_decimal(value: Fraction) -> str:
    """Informational decimal rendering: 12 significant digits, round-half-even."""
    return str(_DECIMAL.divide(Decimal(value.numerator), Decimal(value.denominator)))


def rational_field(value: Fraction) -> dict:
    """JSON form of an exact value: the rational is authoritative, the decimal a convenience."""
    return {"rational": format_rational(value), "decimal": rational_decimal(value)}


def report_to_dict(report: FairnessReport) -> dict:
    """JSON form of a report. Each distinct cost object is rendered once,
    keyed by identity (`evaluate` shares one Fraction per distinct value),
    and every author with that cost holds the same field dict: callers
    must not mutate the fields of `per_author_cost`."""
    fields = {}
    per_author = []
    for c in report.per_author_cost:
        field = fields.get(id(c))
        if field is None:
            field = fields[id(c)] = rational_field(c)
        per_author.append(field)
    return {
        "per_author_cost": per_author,
        "zeta_ind": rational_field(report.zeta_ind),
        "zeta_group": rational_field(report.zeta_group),
        "feasible": report.feasible,
        "ideal": report.ideal,
        "kept_counts": list(report.kept_counts),
    }
