"""Exact-rational fairness metrics for keep sets.

Per-author cost is the rejected fraction of that author's papers; the
worst-case cost (max) and mean cost are the two headline metrics. All
arithmetic is ``fractions.Fraction`` so reported values are exact; floats
appear nowhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from .instance import DimensionMismatch, Instance, KeepVector


def _check_length(inst: Instance, keep: KeepVector) -> None:
    if len(keep) != inst.m:
        raise DimensionMismatch(f"keep vector length {len(keep)} != paper count {inst.m}")


def author_kept_counts(inst: Instance, keep: KeepVector) -> tuple[int, ...]:
    _check_length(inst, keep)
    return tuple(sum(keep.values[j] for j in papers) for papers in inst.author_papers)


def cost(inst: Instance, keep: KeepVector, author: int) -> Fraction:
    """Fraction of the author's papers rejected under the keep set, in [0, 1]."""
    _check_length(inst, keep)
    papers = inst.author_papers[author]
    kept = sum(keep.values[j] for j in papers)
    return Fraction(len(papers) - kept, len(papers))


def per_author_costs(inst: Instance, keep: KeepVector) -> tuple[Fraction, ...]:
    _check_length(inst, keep)
    return tuple(
        Fraction(len(papers) - sum(keep.values[j] for j in papers), len(papers))
        for papers in inst.author_papers
    )


def zeta_ind(inst: Instance, keep: KeepVector) -> Fraction:
    """Worst-case (egalitarian) fairness: the maximum per-author cost."""
    return max(per_author_costs(inst, keep))


def zeta_group(inst: Instance, keep: KeepVector) -> Fraction:
    """Aggregate (utilitarian) fairness: the mean per-author cost."""
    costs = per_author_costs(inst, keep)
    return Fraction(sum(costs), inst.n)


def is_feasible(inst: Instance, keep: KeepVector) -> bool:
    """True iff every author keeps at most x papers."""
    return all(k <= inst.x for k in author_kept_counts(inst, keep))


def is_ideal(inst: Instance, keep: KeepVector) -> bool:
    """True iff every author keeps exactly min(x, own paper count)."""
    counts = author_kept_counts(inst, keep)
    return all(counts[i] == min(inst.x, inst.paper_count(i)) for i in range(inst.n))


def group_objective(inst: Instance, keep: KeepVector) -> Fraction:
    """Sum over authors of kept fraction; maximizing it minimizes the mean cost."""
    counts = author_kept_counts(inst, keep)
    return sum(
        (Fraction(counts[i], inst.paper_count(i)) for i in range(inst.n)),
        start=Fraction(0),
    )


@dataclass(frozen=True)
class FairnessReport:
    per_author_cost: tuple[Fraction, ...]
    zeta_ind: Fraction
    zeta_group: Fraction
    feasible: bool
    ideal: bool
    kept_counts: tuple[int, ...]


def evaluate(inst: Instance, keep: KeepVector) -> FairnessReport:
    """Full report for a binary keep vector."""
    costs = per_author_costs(inst, keep)
    counts = author_kept_counts(inst, keep)
    return FairnessReport(
        per_author_cost=costs,
        zeta_ind=max(costs),
        zeta_group=Fraction(sum(costs), inst.n),
        feasible=all(k <= inst.x for k in counts),
        ideal=all(counts[i] == min(inst.x, inst.paper_count(i)) for i in range(inst.n)),
        kept_counts=counts,
    )


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def rational_decimal(value: Fraction) -> str:
    """Informational decimal rendering: 12 significant digits, round-half-even."""
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(value.numerator) / Decimal(value.denominator)
    return str(d)


def rational_field(value: Fraction) -> dict:
    """JSON form of an exact value: the rational is authoritative, the decimal a convenience."""
    return {"rational": format_rational(value), "decimal": rational_decimal(value)}


def report_to_dict(report: FairnessReport) -> dict:
    return {
        "per_author_cost": [rational_field(c) for c in report.per_author_cost],
        "zeta_ind": rational_field(report.zeta_ind),
        "zeta_group": rational_field(report.zeta_group),
        "feasible": report.feasible,
        "ideal": report.ideal,
        "kept_counts": list(report.kept_counts),
    }
