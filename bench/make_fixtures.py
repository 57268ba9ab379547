"""Regenerate ``fixtures.json``: input digests and reference answers.

    python3 bench/make_fixtures.py

For every workload structure it stores the structure's sha256, the sha256 of
its seed-0 relabelled file, and the references the verifier compares with:

- ``group_opt`` / ``ind_opt``: the optimal ``zeta_group`` / ``zeta_ind``.
  Instances with at most 20 papers use ``deskfair.oracle.enumerate_optimal``;
  larger ones use HiGHS through ``scipy.optimize.milp`` with
  ``mip_rel_gap=0``, snapped to the objective's rational grid (below);
- ``ideal``: whether a collateral-free keep set exists (oracle, or a HiGHS
  feasibility problem);
- ``conventional`` / ``roulette``: keep-vector fingerprints from the reference
  implementations in ``verify.py``.

Snapping: the MILP's 0/1 solution is re-evaluated in exact rationals. For
``zeta_ind`` the optimum lies on the finite grid {k/s}; the exact value is
accepted only if no other grid point lies within the solver tolerance of the
float optimum. For ``zeta_group`` the grid spacing is 1/(n * lcm(s_i)); when
that is finer than the tolerance the value is also cross-checked against the
program's ``group-exact`` answer, and any disagreement stops the script.

scipy is a benchmark-only dependency: the runs themselves only read the
stored references.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from inputs import WORKLOADS, build_inputs  # noqa: E402
from verify import HEURISTICS, Problem, fingerprint, group_value  # noqa: E402

TOL = 1e-6
ORACLE_MAX_PAPERS = 20


def incidence(p: Problem) -> csr_matrix:
    rows = [i for authors in p.paper_authors for i in authors]
    cols = [j for j, authors in enumerate(p.paper_authors) for _ in authors]
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(p.n, p.m))


def _check(ok: bool, what) -> None:
    if not ok:
        raise RuntimeError(f"reference check failed: {what}")


def _milp(c, constraints, integrality):
    return milp(c, constraints=constraints, integrality=integrality, bounds=Bounds(0, 1),
                options={"mip_rel_gap": 0.0})


def milp_group(p: Problem) -> Fraction:
    """Optimal zeta_group: maximize the total kept fraction under the cap."""
    W = incidence(p)
    weights = W.T @ np.array([1.0 / s for s in p.sizes])
    res = _milp(-weights, [LinearConstraint(W, -np.inf, p.x)], np.ones(p.m))
    _check(res.status == 0, res.message)
    exact = group_value(p, p.kept_counts([round(v) for v in res.x]))
    _check(abs(float(exact) + res.fun) <= TOL, (exact, -res.fun))
    return (p.n - exact) / p.n


def milp_individual(p: Problem) -> Fraction:
    """Optimal zeta_ind: minimize t subject to kept_i + s_i t >= s_i, kept_i <= x."""
    W = incidence(p).toarray()
    sizes = np.array(p.sizes, float)
    floors = LinearConstraint(np.hstack([W, sizes[:, None]]), sizes, np.inf)
    caps = LinearConstraint(np.hstack([W, np.zeros((p.n, 1))]), -np.inf, p.x)
    c = np.zeros(p.m + 1)
    c[-1] = 1.0
    res = _milp(c, [floors, caps], np.append(np.ones(p.m), 0))
    _check(res.status == 0, res.message)
    counts = p.kept_counts([round(v) for v in res.x[:p.m]])
    _check(all(k <= p.x for k in counts), "cap violated")
    exact = max(Fraction(s - k, s) for s, k in zip(p.sizes, counts))
    grid = {Fraction(k, s) for s in set(p.sizes) for k in range(s + 1)}
    near = [g for g in grid if abs(float(g) - res.fun) <= 10 * TOL]
    _check(near == [exact], (exact, res.fun, near))  # no other grid point within tolerance
    return exact


def milp_ideal(p: Problem) -> bool:
    """Whether some keep set leaves every author at exactly min(x, own count)."""
    t = np.array(p.targets(), float)
    res = _milp(np.zeros(p.m), [LinearConstraint(incidence(p), t, t)], np.ones(p.m))
    if res.status == 2:  # proved infeasible
        return False
    _check(res.status == 0, res.message)
    _check(p.kept_counts([round(v) for v in res.x]) == p.targets(), "witness is not ideal")
    return True


def oracle_refs(data: bytes) -> dict:
    from deskfair.instance import instance_from_json
    from deskfair.oracle import enumerate_optimal

    res = enumerate_optimal(instance_from_json(data.decode()))
    return {"group_opt": str(res.best_group), "ind_opt": str(res.best_individual),
            "ideal": res.ideal_exists}


def program_group_opt(data: bytes) -> Fraction:
    from deskfair import metrics, solvers
    from deskfair.instance import instance_from_json

    inst = instance_from_json(data.decode())
    return metrics.zeta_group(inst, solvers.solve_group_exact(inst).keep)


def references(policies, data: bytes) -> dict:
    p = Problem(json.loads(data))
    ref = {name: fingerprint(fn(p)) for name, fn in HEURISTICS.items() if name in policies}
    needs_group = bool({"group-exact", "group-lp"} & set(policies))
    needs_ind, needs_ideal = "individual-exact" in policies, "ideal" in policies
    if p.m <= ORACLE_MAX_PAPERS:
        ref["method"] = "oracle.enumerate_optimal"
        full = oracle_refs(data)
    else:
        ref["method"] = "scipy.optimize.milp (HiGHS, mip_rel_gap=0)"
        full = {}
        if needs_group:
            opt = milp_group(p)
            if Fraction(1, p.n * math.lcm(*p.sizes)) < 100 * TOL:  # grid finer than the tolerance
                _check(program_group_opt(data) == opt, "program and HiGHS disagree on zeta_group")
            full["group_opt"] = str(opt)
        if needs_ind:
            full["ind_opt"] = str(milp_individual(p))
        if needs_ideal:
            full["ideal"] = milp_ideal(p)
    for key, needed in (("group_opt", needs_group), ("ind_opt", needs_ind), ("ideal", needs_ideal)):
        if needed:
            ref[key] = full[key]
    return ref


def main() -> int:
    fixtures = {}
    for name, workload in WORKLOADS.items():
        entries = []
        for seed0 in build_inputs(workload, 0):
            entry = {"label": seed0.label, "structure_sha256": seed0.structure_sha256,
                     "seed0_sha256": seed0.seed0_sha256}
            entry.update(references(workload.policies, seed0.data))
            entries.append(entry)
            print(name, {k: v for k, v in entry.items() if not k.endswith("sha256")},
                  file=sys.stderr, flush=True)
        fixtures[name] = entries
    (HERE / "fixtures.json").write_text(json.dumps(fixtures, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
