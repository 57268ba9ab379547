"""Spans around calls into the package's layers, recorded from outside it.

:class:`Tracer` wraps each target function and rebinds the wrapper under
every name that refers to the original in any loaded ``deskfair`` module
(``deskfair.lp.solve_lp`` and ``deskfair.solvers.solve_lp`` alike), so calls
between modules are seen too. Spans (name, start, end, parent) and the counts
read from return values stay in memory until the run writes them out.

Per-layer times are *self* times: a span's duration minus the time covered by
its child spans, so the layers add up to the traced batch.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _tableau_mb(args, kwargs, result, before):
    rows, cols = args[0].A.shape  # dense tableau: rows x (structural + slack) float64
    return {"pivots": result.iteration_count, "tableau_mb": rows * (rows + cols) * 8 / 2**20}


def _incidence(args, kwargs, result, before):
    return {"cells": result.rows * result.cols}


def _bnb(args, kwargs, result, before):
    diag = result.diagnostics
    return {"nodes": diag.node_count, "pruned": diag.node_count - diag.lp_calls}


def _dfs_before(args, kwargs):
    budget = kwargs.get("budget_nodes", args[3] if len(args) > 3 else None)
    return budget, budget.nodes


def _dfs(args, kwargs, result, before):
    budget, start = before
    return {"nodes": budget.nodes - start}


@dataclass(frozen=True)
class Target:
    span: str        # span name
    module: str      # module that defines the function
    attr: str
    count: Callable | None = None
    before: Callable | None = None


TARGETS = (
    Target("cli.main", "deskfair.cli", "main"),
    Target("instance.load", "deskfair.instance", "load_instance"),
    Target("instance.incidence", "deskfair.instance", "build_incidence", _incidence),
    Target("lp.build", "deskfair.lp", "build_group_relaxation"),
    Target("lp.solve", "deskfair.lp", "solve_lp", _tableau_mb),
    Target("solvers.bnb", "deskfair.solvers", "solve_group_exact", _bnb),
    # No metric of their own: these spans keep the solvers' own work out of
    # `cli.self_s`, and parent the DFS spans.
    Target("solvers.individual", "deskfair.solvers", "solve_individual_exact"),
    Target("solvers.ideal", "deskfair.solvers", "solve_ideal_feasibility"),
    # The feasibility DFS has no public entry point; its node count is read
    # from the budget object it is handed. Skipped (and listed as missing)
    # once the function no longer exists.
    Target("solvers.dfs", "deskfair.solvers", "_search_keep", _dfs, _dfs_before),
    Target("policies.conventional", "deskfair.policies", "conventional_desk_reject"),
    Target("policies.roulette", "deskfair.policies", "roulette_reject"),
    Target("metrics.evaluate", "deskfair.metrics", "evaluate"),
    Target("metrics.group_objective", "deskfair.metrics", "group_objective"),
    Target("metrics.is_feasible", "deskfair.metrics", "is_feasible"),
    Target("reports.serialize", "deskfair.reports", "run_record_to_dict"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = target.before(args, kwargs) if target.before else None
            span = [target.span, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                open_.pop()
                # Counts read from a return value need one; a count taken as
                # a difference from `before` holds even when the call raised.
                if target.count and (result is not None or target.before):
                    span[4] = target.count(args, kwargs, result, before)

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "deskfair" or name.startswith("deskfair."))]
        for target in TARGETS:
            original = getattr(sys.modules.get(target.module), target.attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, start, end, parent, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[k]
            for key, value in (counts or {}).items():
                if key == "tableau_mb":
                    agg["counts"][key] = max(agg["counts"].get(key, 0.0), value)
                else:
                    agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out
