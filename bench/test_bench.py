"""Self-checks of the benchmark: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from inputs import WORKLOADS, build_inputs, uniform_structure
from verify import (Problem, WrongAnswer, check_output, conventional_keep, fingerprint, group_value,
                    roulette_keep)

run.pin_environment()
FIXTURES = json.loads((run.HERE / "fixtures.json").read_text())
COUNTERS = ("lp.pivots", "solvers.bnb_nodes", "solvers.dfs_nodes", "instance.incidence_cells")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_gives_byte_identical_inputs(name):
    first, again, other = (build_inputs(WORKLOADS[name], s) for s in (7, 7, 8))
    assert [i.data for i in first] == [i.data for i in again]
    assert all(a.data != b.data for a, b in zip(first, other))
    for inp, ref in zip(first, FIXTURES[name], strict=True):
        assert inp.structure_sha256 == ref["structure_sha256"]
        assert inp.seed0_sha256 == ref["seed0_sha256"]


def _jobs(tmp_path, picks):
    """Jobs for (workload, instance index, policy) triples, plus their references."""
    jobs, problems, refs = [], [], []
    for name, k, policy in picks:
        inp = build_inputs(WORKLOADS[name], 5)[k]
        path = tmp_path / f"{name}-{k}.json"
        path.write_bytes(inp.data)
        jobs.append(run.Job(len(problems), policy, path, tmp_path / f"{name}-{k}-{policy}.out.json"))
        problems.append(Problem(json.loads(inp.data)))
        refs.append(FIXTURES[name][k])
    return jobs, problems, refs


def test_counters_repeat_exactly(tmp_path):
    jobs, problems, refs = _jobs(tmp_path, [
        ("conference", 0, "group-exact"),
        ("uniform-bnb", 0, "group-exact"),
        ("uniform-bnb", 1, "group-lp"),
        ("uniform-dfs", 0, "individual-exact"),
        ("uniform-dfs", 8, "ideal"),
    ])
    cli = run.import_cli()
    seen = []
    for _ in range(2):
        batch = run.run_batch(cli, jobs, traced=True)
        run.verify_batch(batch, problems, refs)
        values = run.layer_values(batch)
        seen.append({name: values[name] for name in COUNTERS})
    assert seen[0] == seen[1]
    assert all(seen[0][name] > 0 for name in COUNTERS)


def test_verifier_rejects_tampered_outputs(tmp_path):
    jobs, problems, refs = _jobs(tmp_path, [
        ("uniform-bnb", 0, "group-exact"),
        ("uniform-dfs", 8, "ideal"),
        ("uniform-dfs", 0, "individual-exact"),
        ("uniform-bnb", 0, "conventional"),
    ])
    refs[3] = dict(refs[3], conventional=fingerprint(conventional_keep(problems[3])))
    batch = run.run_batch(run.import_cli(), jobs, traced=False)
    run.verify_batch(batch, problems, refs)
    codes = [s.code for s in batch.solves]
    outputs = [json.loads(j.output.read_text()) for j in jobs]

    def rejects(k, tamper, code=None):
        out = json.loads(json.dumps(outputs[k]))
        tamper(out)
        with pytest.raises(WrongAnswer):
            check_output(problems[k], jobs[k].policy, codes[k] if code is None else code, out, refs[k])

    def flip_first_keep_bit(out):
        out["keep"][0] ^= 1

    def bump_zeta_group(out):
        out["report"]["zeta_group"]["rational"] = "0/1"

    rejects(0, flip_first_keep_bit)
    rejects(0, bump_zeta_group)
    rejects(1, flip_first_keep_bit)
    rejects(1, lambda out: out.update(feasible_outcome=False), code=2)  # a witness exists
    rejects(2, lambda out: out["objective"].update(rational="1/2"))
    rejects(3, flip_first_keep_bit)

    # The conventional keep set is consistent but not optimal: passed off as
    # a group-exact answer, only the reference optimum can catch it.
    heuristic = json.loads(json.dumps(outputs[3]))
    heuristic["policy"] = "group-exact"
    heuristic["objective"] = {"rational": str(group_value(problems[3], heuristic["report"]["kept_counts"]))}
    with pytest.raises(WrongAnswer, match="not the optimum"):
        check_output(problems[3], "group-exact", 0, heuristic, refs[0])


@pytest.mark.parametrize("seed", range(20))
def test_reference_heuristics_match_the_program(seed):
    from deskfair import policies
    from deskfair.instance import validate_instance

    raw = uniform_structure(6 + seed % 5, 14, 1 + seed % 3, 0.4, seed)
    inst, p = validate_instance(raw), Problem(raw)
    assert conventional_keep(p) == list(policies.conventional_desk_reject(inst).keep.values)
    assert roulette_keep(p, seed) == list(policies.roulette_reject(inst, seed).keep.values)


@pytest.mark.parametrize("seed", range(12))
def test_milp_references_agree_with_the_oracle(seed):
    pytest.importorskip("scipy")
    import make_fixtures

    rng = random.Random(seed)
    raw = uniform_structure(rng.randint(3, 7), rng.randint(6, 14), rng.randint(1, 3), 0.45, seed)
    data = json.dumps(raw).encode()
    p = Problem(raw)
    oracle = make_fixtures.oracle_refs(data)
    assert str(make_fixtures.milp_group(p)) == oracle["group_opt"]
    assert str(make_fixtures.milp_individual(p)) == oracle["ind_opt"]
    assert make_fixtures.milp_ideal(p) == oracle["ideal"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "uniform-dfs",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
