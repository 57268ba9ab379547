"""The two scripts under scripts/, each run end to end in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def launch(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_script(name, *args):
    done = launch(name, *args)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_integrality_sweep_counts_the_recorded_counterexamples():
    # the default parameters' count, as recorded in docs/numerics.md
    assert " counterexamples=8 " in run_script("integrality_sweep.py")


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--count", "-2"), ("--max-n", "1"),
                                         ("--max-m", "1"), ("--max-x", "0")])
def test_integrality_sweep_rejects_flags_out_of_range(flag, value):
    done = launch("integrality_sweep.py", flag, value)
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert errors == [f"integrality_sweep.py: error: {flag} must be at least "
                      f"{1 if flag in ('--count', '--max-x') else 2}, got {value}"]
    assert done.stderr.startswith("usage: integrality_sweep.py ")


def test_case_study_prints_the_group_exact_row_and_the_roulette_expectation():
    lines = run_script("case_study.py", "--case", "cvpr26").splitlines()
    assert lines[0].startswith("=== cvpr26 ")
    [row] = [line for line in lines if line.startswith("group-exact ")]
    assert row.split()[3:5] == ["1/26", "1/52"]
    assert "roulette expectation: E[worst-case cost] = 51/676, E[mean cost] = 1/26" in lines
