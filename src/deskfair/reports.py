"""Serialization of solve runs, integrality audit entries and policy
comparison tables.

Exact rationals travel as "num/den" strings (authoritative) with a 12-digit
decimal alongside for humans. CSV output is bit-stable: UTF-8, LF endings,
"." decimal separator, fixed header, and a cell quoted only when it holds a
comma, a double quote or a line break.
"""

from __future__ import annotations

import io
from dataclasses import fields
from itertools import compress
from operator import not_

from .instance import Instance, KeepVector
from .metrics import format_rational, rational_decimal, rational_field, report_to_dict
from .policies import RunRecord, SolverDiagnostics

CSV_HEADER = (
    "policy,kept_count,rejected_papers,zeta_ind,zeta_ind_decimal,"
    "zeta_group,zeta_group_decimal,ideal,runtime_ms,node_count,lp_calls"
)


def _diagnostics_to_dict(diag: SolverDiagnostics) -> dict:
    # every field but the trace is a scalar: no deep copy, one trace render
    out = {f.name: getattr(diag, f.name) for f in fields(diag)}
    out["incumbent_trace"] = [rational_field(v) for v in diag.incumbent_trace]
    return out


def split_papers(inst: Instance, keep: KeepVector) -> tuple[list[str], list[str]]:
    """The ids of the papers `keep` keeps and of those it rejects, each in
    paper order."""
    values = keep.values
    return list(compress(inst.paper_ids, values)), list(compress(inst.paper_ids, map(not_, values)))


def run_record_to_dict(record: RunRecord, inst: Instance) -> dict:
    out = {
        "policy": record.policy,
        "instance": {"authors": inst.n, "papers": inst.m, "x": inst.x},
        "seed": record.seed,
        "feasible_outcome": record.keep is not None,
    }
    if record.keep is not None:
        out["keep"] = list(record.keep.values)
        out["kept_papers"], out["rejected_papers"] = split_papers(inst, record.keep)
        out["report"] = report_to_dict(record.report)
    out["objective"] = rational_field(record.objective) if record.objective is not None else None
    out["diagnostics"] = _diagnostics_to_dict(record.diagnostics) if record.diagnostics else None
    out["runtime_ms"] = record.runtime_ms
    if record.trace is not None:
        out["trace"] = record.trace
    if record.note is not None:
        out["note"] = record.note
    return out


def audit_to_dict(record: RunRecord) -> dict:
    """The relaxation-integrality audit entry of a `group-exact` record: its
    root LP optimum against its exact optimum. A gap above INT_TOL marks a
    counterexample, an instance whose relaxation is not exact."""
    from .lp import INT_TOL  # at module level it would load numpy with `reports`

    diag = record.diagnostics
    gap = diag.lp_objective - float(record.objective)
    return {
        "lp_objective": diag.lp_objective,
        "ilp_objective": rational_field(record.objective),
        "gap": gap,
        "lp_integral": diag.lp_integral,
        "counterexample": gap > INT_TOL,
    }


def comparison_table(inst: Instance, records: list[RunRecord]) -> dict:
    """Per-policy outcomes on one shared instance: the instance summary and
    one row per record, keyed and ordered by `CSV_HEADER`, every cell a
    string. A record with no outcome has blank metric cells."""
    rows = []
    for rec in records:
        row = dict.fromkeys(CSV_HEADER.split(","), "")
        row.update(
            policy=rec.policy,
            ideal="INFEASIBLE",
            runtime_ms=f"{rec.runtime_ms:.3f}",
            node_count=_diag_cell(rec, "node_count"),
            lp_calls=_diag_cell(rec, "lp_calls"),
        )
        if rec.keep is not None:
            rep = rec.report
            row.update(
                kept_count=str(sum(rec.keep.values)),
                rejected_papers=";".join(split_papers(inst, rec.keep)[1]),
                zeta_ind=format_rational(rep.zeta_ind),
                zeta_ind_decimal=rational_decimal(rep.zeta_ind),
                zeta_group=format_rational(rep.zeta_group),
                zeta_group_decimal=rational_decimal(rep.zeta_group),
                ideal="yes" if rep.ideal else "no",
            )
        rows.append(row)
    return {"instance": {"authors": inst.n, "papers": inst.m, "x": inst.x}, "rows": rows}


def _diag_cell(rec: RunRecord, field: str) -> str:
    return str(getattr(rec.diagnostics, field)) if rec.diagnostics else ""


def _csv_cell(text: str) -> str:
    # RFC 4180 quoting. `csv.writer` with LF line endings leaves a lone CR
    # unquoted (Python 3.10 and 3.11), which `csv.reader` then rejects.
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def comparison_to_csv(table: dict) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    columns = CSV_HEADER.split(",")
    for row in table["rows"]:
        buf.write(",".join(_csv_cell(row[col]) for col in columns) + "\n")
    return buf.getvalue()


def printable(text: str) -> str:
    """`text` for a terminal: each non-printable character (a line break, a
    tab, a control or format character) written as its Python escape, such
    as \\n or \\x85; printable text is left as it is."""
    if text.isprintable():
        return text
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)


def comparison_to_text(table: dict) -> str:
    """Fixed-width rendering for terminals, every cell through `printable`."""
    cols = ["policy", "kept_count", "rejected_papers", "zeta_ind", "zeta_group", "ideal"]
    rows = [[printable(row[c]) for c in cols] for row in table["rows"]]
    widths = [max(len(c), *(len(r[k]) for r in rows)) if rows else len(c)
              for k, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
