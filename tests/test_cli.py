import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskfair import generators, lp, policies, solvers
from deskfair.cli import _FAMILIES, POLICIES, build_parser, main, run_policy
from deskfair.generators import gen_case_study, gen_leave_one_out, gen_random, gen_triangle
from deskfair.instance import dump_instance, instance_to_dict
from deskfair.policies import RunRecord
from deskfair.reports import CSV_HEADER

from conftest import instances, spy_on

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def cvpr_file(tmp_path):
    path = tmp_path / "cvpr26.json"
    dump_instance(gen_case_study("cvpr26"), path)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    dump_instance(gen_triangle(), path)
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_solve_conventional(cvpr_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", "--input", cvpr_file, "--policy", "conventional",
                 "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["report"]["zeta_group"]["rational"] == "27/52"
    assert doc["rejected_papers"] == ["p26"]
    assert [t[0] for t in doc["trace"]] == [f"p{j}" for j in range(1, 27)]


def test_solve_group_exact(cvpr_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", "--input", cvpr_file, "--policy", "group-exact",
                 "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["report"]["zeta_group"]["rational"] == "1/52"
    assert doc["report"]["ideal"] is True
    assert doc["diagnostics"]["lp_integral"] is True
    assert (doc["diagnostics"]["lp_rows"], doc["diagnostics"]["lp_cols"]) == (1, 26)
    assert doc["instance"] == {"authors": 2, "papers": 26, "x": 25}


def test_solve_round_trips_exact_rationals(cvpr_file, tmp_path):
    out = tmp_path / "out.json"
    main(["solve", "--input", cvpr_file, "--policy", "conventional", "--output", str(out)])
    doc = read_json(out)
    assert Fraction(doc["report"]["zeta_group"]["rational"]) == Fraction(27, 52)
    assert Fraction(doc["report"]["zeta_ind"]["rational"]) == Fraction(1)
    costs = [Fraction(c["rational"]) for c in doc["report"]["per_author_cost"]]
    assert costs == [Fraction(1, 26), Fraction(1)]


def test_solve_ideal_infeasible_exit_code(triangle_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", "--input", triangle_file, "--policy", "ideal",
                 "--output", str(out)]) == 2
    assert read_json(out)["feasible_outcome"] is False


def test_solve_ideal_feasible(cvpr_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", "--input", cvpr_file, "--policy", "ideal",
                 "--output", str(out)]) == 0
    assert read_json(out)["report"]["ideal"] is True


def test_solve_limit_override(cvpr_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", "--input", cvpr_file, "--policy", "conventional",
                 "--limit", "26", "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["rejected_papers"] == []
    assert doc["report"]["zeta_group"]["rational"] == "0/1"


def test_solve_stdout_when_no_output(cvpr_file, capsys):
    assert main(["solve", "--input", cvpr_file, "--policy", "conventional"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["policy"] == "conventional"


def test_roulette_defaults_to_seed_zero(cvpr_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["solve", "--input", cvpr_file, "--policy", "roulette", "--output", str(a)])
    main(["solve", "--input", cvpr_file, "--policy", "roulette", "--seed", "0",
          "--output", str(b)])
    da, db = read_json(a), read_json(b)
    assert da["keep"] == db["keep"] and da["seed"] == 0


def test_input_errors_exit_one(tmp_path, capsys):
    assert main(["solve", "--input", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--input", str(bad)]) == 1
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"x": 0, "authors": ["a"], "papers": [{"id": "p", "authors": ["a"]}]}))
    assert main(["solve", "--input", str(invalid)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["solve"], "--input is required"),
    (["compare"], "--input is required"),
    (["check-ideal"], "--input is required"),
    (["reduce-setcover"], "--input is required"),
    (["audit-integrality"], "audit-integrality needs --input or --family"),
    (["gen"], "gen needs --family"),
    (["gen", "--family", "random", "--n", "3"], "--family random needs --m, --density, --limit"),
    (["gen", "--family", "case-study"], "--family case-study needs --case"),
    (["gen", "--family", "case-study", "--case", ""], "--family case-study needs --case"),
    (["gen", "--family", "leave-one-out", "--n", "0"], "leave-one-out needs n >= 3, got 0"),
    (["audit-integrality", "--family", "random", "--count", "0", "--m", "6", "--density", "0.5",
      "--limit", "2"], "--count must be at least 1, got 0"),
    (["audit-integrality", "--family", "random", "--count", "3", "--n", "4", "--m", "6",
      "--density", "1.5", "--limit", "2"], "density must be in (0, 1], got 1.5"),
    (["solve", "--input", "{cvpr}", "--limit", "0"], "submission cap must be >= 1, got 0"),
    (["reduce-setcover", "--input", "{no_universe}"], "missing required field 'universe_size'"),
    (["reduce-setcover", "--input", "{no_budget}"],
     "budget missing: supply --budget or a 'budget' field"),
], ids=["solve-no-input", "compare-no-input", "check-ideal-no-input", "reduce-setcover-no-input",
        "audit-no-source", "gen-no-family", "random-missing-flags", "case-study-no-case",
        "case-study-empty-case", "leave-one-out-n-0", "random-count-0-before-missing-n",
        "audit-random-bad-density",
        "limit-zero", "setcover-no-universe", "setcover-no-budget"])
def test_missing_or_bad_arguments_exit_one_with_one_line(argv, message, cvpr_file, tmp_path,
                                                         capsys):
    no_universe, no_budget = tmp_path / "no_universe.json", tmp_path / "no_budget.json"
    no_universe.write_text('{"sets": [[1]], "budget": 1}')
    no_budget.write_text('{"universe_size": 1, "sets": [[1]]}')
    argv = [a.format(cvpr=cvpr_file, no_universe=no_universe, no_budget=no_budget) for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"deskfair: error: {message}\n"


def test_no_subcommand_prints_the_help_and_exits_one(capsys):
    assert main([]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("usage: deskfair") and err == ""


def test_non_string_ids_exit_one_with_one_line(tmp_path, capsys):
    path = tmp_path / "int_authors.json"
    path.write_text(json.dumps({"x": 1, "authors": [1, 2], "papers": [{"id": "p", "authors": [1, 2]}]}))
    assert main(["solve", "--input", str(path), "--policy", "group-exact"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("deskfair: error: ") and err.count("\n") == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def malformed_instances(draw):
    """A valid instance description with one defect: a wrong type, a missing
    key, a nested array, a non-string id, or a duplicate or unknown author."""
    raw = instance_to_dict(draw(instances()))
    papers = raw["papers"]
    paper = papers[draw(st.integers(0, len(papers) - 1))]
    mutation = draw(st.sampled_from([
        "not an object", "cap", "authors", "papers", "paper", "paper authors",
        "missing key", "missing paper key", "nested", "non-string id",
        "duplicate author", "duplicate author on paper", "duplicate paper",
        "unknown author", "author on no paper", "empty",
    ]))
    ids = draw(st.sampled_from(["author", "paper author", "paper id"]))
    where = {"author": (raw["authors"], draw(st.integers(0, len(raw["authors"]) - 1))),
             "paper author": (paper["authors"], draw(st.integers(0, len(paper["authors"]) - 1))),
             "paper id": (paper, "id")}
    holder, key = where[ids]
    if mutation == "not an object":
        return draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    if mutation == "cap":
        raw["x"] = draw(JSON_VALUES.filter(lambda v: type(v) is not int or v < 1))
    elif mutation in ("authors", "papers"):
        raw[mutation] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, list)))
    elif mutation == "paper":
        papers[papers.index(paper)] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    elif mutation == "paper authors":
        paper["authors"] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, list)))
    elif mutation == "missing key":
        del raw[draw(st.sampled_from(["x", "authors", "papers"]))]
    elif mutation == "missing paper key":
        del paper[draw(st.sampled_from(["id", "authors"]))]
    elif mutation == "nested":
        holder[key] = [holder[key]]
    elif mutation == "non-string id":
        holder[key] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, str)))
    elif mutation == "duplicate author":
        raw["authors"].append(draw(st.sampled_from(raw["authors"])))
    elif mutation == "duplicate author on paper":
        paper["authors"].append(paper["authors"][0])
    elif mutation == "duplicate paper":
        papers.append(dict(paper))
    elif mutation == "unknown author":
        paper["authors"].append("".join(raw["authors"]) + "?")
    elif mutation == "author on no paper":
        raw["authors"].append("".join(raw["authors"]) + "?")
    else:
        raw["authors"], raw["papers"] = [], []
    return raw


def assert_input_error(path, policy):
    """The solve exits 1, prints nothing to stdout and one error line to
    stderr; returns that line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--input", str(path), "--policy", policy])
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith("deskfair: error: ") and err.getvalue().count("\n") == 1
    return err.getvalue()


@given(malformed_instances(), st.sampled_from(POLICIES))
@settings(max_examples=150, deadline=None)
def test_malformed_instances_exit_one_with_one_line(tmp_path_factory, raw, policy):
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(json.dumps(raw))
    assert_input_error(path, policy)


@pytest.mark.parametrize("text, message", [
    # valid shapes, but no author: every cost and the mean are 0/0
    ('{"x": 1, "authors": [], "papers": []}', "no authors and no papers"),
    ('{"authors": [], "papers": []}', "missing required field 'x'"),
    # nested past the JSON parser's recursion limit
    ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
    # an integer literal past Python's digit limit for int parsing
    pytest.param('{"x": ' + "1" * 5000 + ', "authors": ["a"], "papers": [{"id": "p", "authors": ["a"]}]}',
                 "Exceeds the limit", marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")),
    # valid JSON strings, but lone surrogates that no UTF-8 output can encode
    (r'{"x": 1, "authors": ["a"], "papers": [{"id": "\ud800", "authors": ["a"]}]}',
     "paper id '\\ud800' is not encodable as UTF-8"),
    (r'{"x": 1, "authors": ["\udc00"], "papers": [{"id": "p", "authors": ["\udc00"]}]}',
     "author id '\\udc00' is not encodable as UTF-8"),
], ids=["empty", "no cap", "deep", "long int", "surrogate paper id", "surrogate author id"])
def test_malformed_instance_cases(tmp_path, text, message):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    for policy in POLICIES:
        assert message in assert_input_error(path, policy)


def test_non_utf8_instance_exits_one(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"x": 1}'.encode("utf-16-le"))
    for policy in POLICIES:
        assert "'utf-8' codec can't decode byte 0xff" in assert_input_error(path, policy)


def test_node_limit_exits_three_with_one_line(triangle_file, monkeypatch, capsys):
    monkeypatch.setenv("DESKFAIR_NODE_LIMIT", "1")  # the triangle's root is fractional
    assert main(["solve", "--input", triangle_file, "--policy", "group-exact"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("deskfair: error: solver stopped without a result: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("error, detail", [
    (MemoryError("Unable to allocate 1.15 GiB for an array with shape (8006, 19200)"),
     "Unable to allocate 1.15 GiB for an array with shape (8006, 19200)"),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_four_with_one_line(error, detail, triangle_file, tmp_path, monkeypatch,
                                                capsys):
    def exhausted(inst):
        raise error

    monkeypatch.setattr(solvers, "solve_individual_exact", exhausted)
    out_path = tmp_path / "out.json"
    code = main(["solve", "--input", triangle_file, "--policy", "individual-exact", "--output", str(out_path)])
    out, err = capsys.readouterr()
    assert code == 4 and out == "" and not out_path.exists()
    assert err == f"deskfair: error: out of memory: {detail}\n"


def assert_node_limit_rejected(cvpr_file, capsys, message):
    # every exact solve reads the limit at its start, even on cvpr26, where
    # individual-exact and ideal are settled before any search
    for policy in POLICIES:
        code = main(["solve", "--input", cvpr_file, "--policy", policy])
        out, err = capsys.readouterr()
        if policy in ("conventional", "roulette"):  # no search: the limit is not read
            assert code == 0 and err == ""
        else:
            assert code == 1 and out == "", policy
            assert err == f"deskfair: error: DESKFAIR_NODE_LIMIT {message}\n"


def test_bad_node_limit_names_the_variable(cvpr_file, monkeypatch, capsys):
    monkeypatch.setenv("DESKFAIR_NODE_LIMIT", "abc")
    assert_node_limit_rejected(cvpr_file, capsys, "must be an integer, got 'abc'")


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_node_limit_below_one_names_the_variable(limit, cvpr_file, monkeypatch, capsys):
    monkeypatch.setenv("DESKFAIR_NODE_LIMIT", limit)
    assert_node_limit_rejected(cvpr_file, capsys, f"must be at least 1, got '{limit}'")


@pytest.mark.parametrize("bug", [KeyError(7), ValueError("keep vector must contain only 0/1")],
                         ids=["KeyError", "ValueError"])
def test_a_bug_is_not_reported_as_an_input_error(bug, triangle_file, monkeypatch, capsys):
    def broken(inst):
        raise bug

    monkeypatch.setattr(solvers, "solve_group_exact", broken)
    with pytest.raises(type(bug)):
        main(["solve", "--input", triangle_file, "--policy", "group-exact"])
    assert "deskfair: error:" not in capsys.readouterr().err


def test_unknown_policy_exits_one(cvpr_file, monkeypatch, capsys):
    runs = spy_on(monkeypatch, policies.conventional_desk_reject)
    for argv in (["solve", "--policy", "bogus"], ["compare", "--policy", "conventional,bogus"]):
        assert main(argv + ["--input", cvpr_file]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("deskfair: error: unknown policy 'bogus'; choose from ")
    assert runs == []  # compare checks every name before it runs any


ENTRY_POINTS = {
    "conventional": (policies, "conventional_desk_reject"),
    "roulette": (policies, "roulette_reject"),
    "group-lp": (solvers, "solve_group_lp"),
    "group-exact": (solvers, "solve_group_exact"),
    "individual-exact": (solvers, "solve_individual_exact"),
    "ideal": (solvers, "solve_ideal_feasibility"),
}


@pytest.mark.parametrize("policy", POLICIES)
def test_run_policy_reaches_its_entry_point_once(policy, cvpr26, monkeypatch):
    module, attr = ENTRY_POINTS[policy]
    calls = spy_on(monkeypatch, getattr(module, attr))
    record = run_policy(cvpr26, policy)
    assert len(calls) == 1
    assert isinstance(record, RunRecord) and record.policy == policy
    assert record.runtime_ms > 0


def test_bad_flag_exits_one(capsys):
    assert main(["solve", "--bogus"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["check-ideal", "--input", "{cvpr}", "--seed", "1"], "--seed"),
    (["gen", "--family", "triangle", "--input", "{cvpr}"], "--input"),
    (["gen", "--family", "triangle", "--count", "1"], "--count"),
    (["reduce-setcover", "--input", "{setcover}", "--seed", "1"], "--seed"),
    (["reduce-setcover", "--input", "{setcover}", "--limit", "2"], "--limit"),
], ids=["check-ideal-seed", "gen-input", "gen-count", "reduce-setcover-seed", "reduce-setcover-limit"])
def test_unread_flags_are_rejected(argv, flag, cvpr_file, tmp_path, capsys):
    setcover = tmp_path / "sc.json"
    setcover.write_text('{"universe_size": 3, "sets": [[1, 2], [2, 3], [3]], "budget": 2}')
    argv = [a.format(cvpr=cvpr_file, setcover=setcover) for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("usage:") == 1
    assert err.endswith(f"deskfair: error: unrecognized arguments: {flag} {argv[-1]}\n")


@pytest.mark.parametrize("argv, flags", [
    (["gen", "--family", "triangle", "--n", "7", "--m", "3", "--density", "0.5", "--seed", "9"],
     "--seed, --n, --m, --density"),
    (["gen", "--family", "case-study", "--case", "cvpr26", "--n", "3"], "--n"),
    (["gen", "--family", "random", "--n", "3", "--m", "4", "--density", "0.5", "--limit", "1",
      "--case", "cvpr26"], "--case"),
    (["audit-integrality", "--family", "leave-one-out", "--n", "5", "--m", "9", "--count", "4"],
     "--m, --count"),
    (["audit-integrality", "--input", "{cvpr}", "--family", "triangle"], "--family"),
    (["audit-integrality", "--input", "{cvpr}", "--count", "2"], "--count"),
    (["audit-integrality", "--input", "{cvpr}", "--count", "0"], "--count"),
    (["audit-integrality", "--family", "triangle", "--count", "0"], "--count"),
    (["audit-integrality", "--input", "{cvpr}", "--n", "4"], "--n"),
], ids=["gen-triangle", "gen-case-study", "gen-random", "audit-leave-one-out",
        "audit-input-family", "audit-input-count", "audit-input-count-0",
        "audit-triangle-count-0", "audit-input-n"])
def test_family_flags_the_family_does_not_read_are_rejected(argv, flags, cvpr_file, tmp_path,
                                                             capsys):
    out = tmp_path / "out.json"
    argv = [a.format(cvpr=cvpr_file) for a in argv] + ["--output", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    stdout, err = capsys.readouterr()
    source = "--input" if "--input" in argv else f"--family {argv[2]}"
    assert stdout == "" and err == f"deskfair: error: {source} does not read {flags}\n"


# a value for each family flag and --limit that every family accepts
FAMILY_FLAG_VALUES = {"case": "cvpr26", "seed": "1", "n": "5", "m": "6", "density": "0.5",
                      "count": "2", "limit": "2"}


@pytest.mark.parametrize("family", _FAMILIES)
def test_each_family_needs_its_flags_and_rejects_the_rest(family, tmp_path, capsys):
    reads, needs, _ = _FAMILIES[family]
    out = tmp_path / "out.json"

    def run(*flags):
        argv = ["audit-integrality", "--family", family, "--output", str(out)]
        for flag in flags:
            argv += [f"--{flag}", FAMILY_FLAG_VALUES[flag]]
        code = main(argv)
        stdout, err = capsys.readouterr()
        assert stdout == ""
        return code, err

    assert run(*needs) == (0, "")
    out.unlink()
    for flag in needs:
        assert run(*(f for f in needs if f != flag)) == (
            1, f"deskfair: error: --family {family} needs --{flag}\n")
    for flag in FAMILY_FLAG_VALUES.keys() - {"limit", *reads}:
        assert run(*needs, flag) == (1, f"deskfair: error: --family {family} does not read --{flag}\n")
    assert not out.exists()


def test_compare_outputs(cvpr_file, tmp_path, capsys):
    base = tmp_path / "cmp"
    assert main(["compare", "--input", cvpr_file, "--output", str(base)]) == 0
    doc = read_json(tmp_path / "cmp.json")
    rows = {r["policy"]: r for r in doc["rows"]}
    assert rows["conventional"]["zeta_group"] == "27/52"
    assert rows["group-exact"]["zeta_group"] == "1/52"
    assert rows["group-exact"]["ideal"] == "yes"
    csv_text = (tmp_path / "cmp.csv").read_text(encoding="utf-8")
    lines = csv_text.split("\n")
    assert lines[0] == CSV_HEADER
    assert "\r" not in csv_text
    conv = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
    assert conv["policy"] == "conventional"
    assert conv["rejected_papers"] == "p26"
    assert conv["zeta_group_decimal"] == "0.519230769231"
    capsys.readouterr()


def test_compare_csv_quotes_ids_with_commas_quotes_and_line_breaks(tmp_path, capsys):
    odd = ["p;2\nq", 'x,"y', "a\rb"]
    papers = [{"id": "p1", "authors": ["a1"]}, {"id": odd[0], "authors": ["a1", "a2"]},
              {"id": odd[1], "authors": ["a1"]}, {"id": odd[2], "authors": ["a1"]},
              {"id": "p5", "authors": ["a2"]}]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"x": 1, "authors": ["a1", "a2"], "papers": papers}))
    assert main(["compare", "--input", str(path), "--policy", ",".join(POLICIES),
                 "--output", str(tmp_path / "cmp")]) == 0
    rows = read_json(tmp_path / "cmp.json")["rows"]
    assert all(any(i in row["rejected_papers"] for row in rows) for i in odd)
    with open(tmp_path / "cmp.csv", encoding="utf-8", newline="") as fh:
        cells = list(csv.reader(fh))
    columns = CSV_HEADER.split(",")
    assert cells == [columns] + [[row[col] for col in columns] for row in rows]
    capsys.readouterr()


def test_compare_table_escapes_line_breaks_in_ids(tmp_path, capsys):
    papers = [{"id": "p1", "authors": ["a1"]}, {"id": "p;2\nq", "authors": ["a1", "a2"]},
              {"id": "a\rb", "authors": ["a1"]}, {"id": "p5", "authors": ["a2"]}]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"x": 1, "authors": ["a1", "a2"], "papers": papers}))
    assert main(["compare", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    lines = out.splitlines()
    assert len(lines) == 1 + 5
    assert len({len(line) for line in lines}) == 1  # widths of the escaped cells
    assert "p;2\\nq" in out and "a\\rb" in out


def test_check_ideal_escapes_line_breaks_in_ids(tmp_path, capsys):
    papers = [{"id": i, "authors": ["a"]} for i in ("p\n1", "q\r2", "p3")]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"x": 2, "authors": ["a"], "papers": papers}))
    assert main(["check-ideal", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "IDEAL FEASIBLE"
    listed = " ".join(lines[1:]).split()
    assert sorted(listed) == ["keep:", "p3", "p\\n1", "q\\r2", "reject:"]


def test_compare_output_with_a_suffix_names_both_files(cvpr_file, tmp_path, capsys):
    assert main(["compare", "--input", cvpr_file, "--policy", "conventional",
                 "--output", str(tmp_path / "cmp.json")]) == 0
    assert sorted(p.name for p in tmp_path.glob("cmp*")) == ["cmp.csv", "cmp.json"]
    assert [r["policy"] for r in read_json(tmp_path / "cmp.json")["rows"]] == ["conventional"]
    capsys.readouterr()


def test_compare_selected_policies(cvpr_file, tmp_path, capsys):
    base = tmp_path / "two"
    assert main(["compare", "--input", cvpr_file, "--policy", "conventional,group-exact",
                 "--output", str(base)]) == 0
    doc = read_json(tmp_path / "two.json")
    assert [r["policy"] for r in doc["rows"]] == ["conventional", "group-exact"]
    capsys.readouterr()


@pytest.mark.parametrize("policies", [[","], [" , ", ""]], ids=["comma", "blank"])
def test_compare_policy_list_naming_no_policy_exits_one(policies, triangle_file, tmp_path, capsys):
    base = tmp_path / "none"
    argv = ["compare", "--input", triangle_file, "--output", str(base)]
    for p in policies:
        argv += ["--policy", p]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "deskfair: error: --policy names no policy\n"
    assert not list(tmp_path.glob("none.*"))


def test_compare_divergent_optima(tmp_path, capsys):
    path = tmp_path / "appc2.json"
    dump_instance(gen_case_study("appc2"), path)
    base = tmp_path / "div"
    assert main(["compare", "--input", str(path),
                 "--policy", "group-exact", "--policy", "individual-exact",
                 "--output", str(base)]) == 0
    rows = {r["policy"]: r for r in read_json(tmp_path / "div.json")["rows"]}
    assert rows["group-exact"]["rejected_papers"] != rows["individual-exact"]["rejected_papers"]
    assert rows["group-exact"]["rejected_papers"] == "p1;p2"
    capsys.readouterr()


def test_compare_no_overage_all_policies_agree(tmp_path, capsys):
    path = tmp_path / "roomy.json"
    dump_instance(gen_case_study("appc1").with_cap(6), path)
    base = tmp_path / "same"
    assert main(["compare", "--input", str(path), "--output", str(base)]) == 0
    rows = read_json(tmp_path / "same.json")["rows"]
    assert {r["zeta_ind"] for r in rows} == {"0/1"}
    assert {r["zeta_group"] for r in rows} == {"0/1"}
    assert {r["rejected_papers"] for r in rows} == {""}
    capsys.readouterr()


def test_check_ideal_matches_solve_ideal(cvpr_file, tmp_path, capsys):
    out, solved = tmp_path / "w.json", tmp_path / "s.json"
    assert main(["check-ideal", "--input", cvpr_file, "--output", str(out)]) == 0
    assert main(["solve", "--input", cvpr_file, "--policy", "ideal", "--output", str(solved)]) == 0
    doc, witness = read_json(out), read_json(solved)
    assert doc["rejected_papers"] == witness["rejected_papers"] and len(doc["rejected_papers"]) == 1
    assert doc == {"feasible": True, "kept_papers": witness["kept_papers"],
                   "rejected_papers": witness["rejected_papers"]}
    assert capsys.readouterr().out.splitlines()[0] == "IDEAL FEASIBLE"


def test_check_ideal_infeasible(tmp_path, capsys):
    path = tmp_path / "loo5.json"
    dump_instance(gen_leave_one_out(5), path)
    assert main(["check-ideal", "--input", str(path)]) == 2
    assert "INFEASIBLE" in capsys.readouterr().out


def test_check_ideal_infeasible_writes_its_output(triangle_file, tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["check-ideal", "--input", triangle_file, "--output", str(out)]) == 2
    assert read_json(out) == {"feasible": False}
    assert capsys.readouterr().out == "INFEASIBLE\n"


def test_check_ideal_all_compliant_keeps_all(tmp_path, capsys):
    path = tmp_path / "roomy.json"
    dump_instance(gen_case_study("cvpr26").with_cap(26), path)
    out = tmp_path / "w.json"
    assert main(["check-ideal", "--input", str(path), "--output", str(out)]) == 0
    assert read_json(out)["rejected_papers"] == []
    capsys.readouterr()


def test_audit_single_instances(triangle_file, cvpr_file, tmp_path):
    out = tmp_path / "audit.json"
    assert main(["audit-integrality", "--input", triangle_file, "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["counterexample"] is True
    assert abs(doc["gap"] - 0.5) < 1e-6
    assert doc["ilp_objective"]["rational"] == "1/1"
    assert main(["audit-integrality", "--input", cvpr_file, "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["counterexample"] is False
    assert abs(doc["gap"]) < 1e-6


@pytest.mark.parametrize("count", ["-3", "0"])
def test_audit_count_below_one_exits_one(count, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["audit-integrality", "--family", "random", "--count", count, "--n", "4",
                 "--m", "6", "--density", "0.5", "--limit", "2", "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"deskfair: error: --count must be at least 1, got {count}\n"
    assert main(["audit-integrality", "--family", "random", "--n", "4", "--m", "6",
                 "--density", "0.5", "--limit", "2", "--output", str(out)]) == 0
    assert read_json(out)["instances"] == 1


def test_audit_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["audit-integrality", "--family", "random", "--count", "6", "--n", "4",
                 "--m", "6", "--density", "0.5", "--limit", "2", "--seed", "3",
                 "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["instances"] == 6
    assert 0.0 <= doc["counterexample_rate"] <= 1.0
    assert len(doc["details"]) == 6


# the two sweeps whose counts docs/numerics.md records and CI checks
@pytest.mark.parametrize("flags, counterexamples", [
    ("--n 25 --m 50 --density 0.1 --limit 3", 88),
    ("--n 6 --m 12 --density 0.5 --limit 2", 16),
], ids=["n25", "n6"])
def test_audit_sweep_counts_the_recorded_counterexamples(flags, counterexamples, tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["audit-integrality", "--family", "random", "--count", "200", *flags.split(),
                 "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["instances"] == len(doc["details"]) == 200
    assert doc["counterexamples"] == counterexamples


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--family", "random", "--n", "4", "--m", "6", "--density", "0.4",
            "--limit", "2", "--seed", "9"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_families(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "--family", "triangle", "--output", str(out)]) == 0
    assert read_json(out)["x"] == 1
    assert main(["gen", "--family", "leave-one-out", "--n", "5", "--output", str(out)]) == 0
    assert read_json(out)["x"] == 3
    assert main(["gen", "--family", "case-study", "--case", "appc1", "--output", str(out)]) == 0
    assert len(read_json(out)["papers"]) == 6
    assert main(["gen", "--family", "case-study", "--case", "zzz", "--output", str(out)]) == 1
    assert main(["gen", "--family", "leave-one-out", "--output", str(out)]) == 1
    assert main(["gen", "--family", "mystery", "--output", str(out)]) == 1


@pytest.mark.parametrize("family", [
    ["triangle"], ["leave-one-out", "--n", "5"], ["case-study", "--case", "cvpr26"],
], ids=["triangle", "leave-one-out", "case-study"])
def test_limit_sets_the_cap_of_every_family(family, tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "--family", *family, "--limit", "5", "--output", str(out)]) == 0
    assert read_json(out)["x"] == 5


def test_audit_triangle_under_a_raised_cap(tmp_path):
    out = tmp_path / "audit.json"
    assert main(["audit-integrality", "--family", "triangle", "--limit", "5",
                 "--output", str(out)]) == 0
    assert read_json(out)["counterexamples"] == 0  # 0 rejections: LP and exact optimum agree


@pytest.mark.parametrize("family, label", [
    (["triangle"], "triangle(x=1)"),
    (["triangle", "--limit", "5"], "triangle(x=5)"),
    (["leave-one-out", "--n", "5"], "leave_one_out(n=5,x=3)"),
    (["leave-one-out", "--n", "5", "--limit", "2"], "leave_one_out(n=5,x=2)"),
    (["case-study", "--case", "cvpr26", "--limit", "3"], "cvpr26(x=3)"),
], ids=["triangle", "triangle-limit", "leave-one-out", "leave-one-out-limit", "case-study-limit"])
def test_audit_labels_carry_the_cap(family, label, tmp_path):
    out = tmp_path / "audit.json"
    assert main(["audit-integrality", "--family", *family, "--output", str(out)]) == 0
    assert [d["instance"] for d in read_json(out)["details"]] == [label]


def test_reduce_setcover(tmp_path):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"universe_size": 3, "sets": [[1, 2], [2, 3], [3]], "budget": 2}))
    out = tmp_path / "red.json"
    assert main(["reduce-setcover", "--input", str(sc), "--decide", "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["budget"] == doc["instance"]["x"] == 2
    assert doc["instance"]["authors"] == ["e1", "e2", "e3", "budget"]
    assert [p["authors"][-1] for p in doc["instance"]["papers"]] == ["budget"] * 3
    assert doc["decision"] == {"coverable": True, "witness_sets": ["s1", "s3"]}  # the greedy witness
    assert main(["reduce-setcover", "--input", str(sc), "--budget", "1", "--decide",
                 "--output", str(out)]) == 0
    assert read_json(out)["decision"]["coverable"] is False


def test_reduce_setcover_decides_on_the_emitted_instance(tmp_path, monkeypatch):
    builds = spy_on(monkeypatch, generators.reduce_set_cover)
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"universe_size": 3, "sets": [[1, 2], [2, 3], [3]], "budget": 2}))
    out = tmp_path / "red.json"
    assert main(["reduce-setcover", "--input", str(sc), "--decide", "--output", str(out)]) == 0
    assert len(builds) == 1
    assert read_json(out)["decision"]["coverable"] is True


@pytest.mark.parametrize("text, message", [
    ("[1]", "must be an object"),
    ('{"universe_size": 2, "sets": [[1], 5], "budget": 1}', "array of arrays"),
    ('{"universe_size": 2, "sets": "12", "budget": 1}', "array of arrays"),
    ('{"universe_size": 1, "sets": [["1"]], "budget": 1}', "must be an integer"),
    ('{"universe_size": 1, "sets": [[1.7]], "budget": 1}', "must be an integer"),
    ('{"universe_size": 1, "sets": [[true]], "budget": 1}', "must be an integer"),
    ('{"universe_size": true, "sets": [[1]], "budget": 1}', "'universe_size' must be an integer"),
    ('{"universe_size": "1", "sets": [[1]], "budget": 1}', "'universe_size' must be an integer"),
    ('{"universe_size": 1, "sets": [[1]], "budget": 1.5}', "'budget' must be an integer"),
    ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
    ('{"universe_size": 3, "sets": [[1], [2]], "budget": 2}', "element 3 lies in no set"),
    ('{"universe_size": 0, "sets": [[1]], "budget": 1}', "universe must be non-empty"),
    ('{"universe_size": 1, "sets": [[1]], "budget": 0}', "budget must be positive"),
    ('{"universe_size": 2, "sets": [[1], [2], []], "budget": 1}', "set #2 is empty"),
    ('{"universe_size": 2, "sets": [[1], [3]], "budget": 1}', "set #1 leaves the universe"),
    ('{"universe_size": 1000000000000, "sets": [[1]], "budget": 1}', "element 2 lies in no set"),
], ids=["not an object", "set not an array", "sets a string", "string element", "float element",
        "bool element", "bool universe", "string universe", "float budget", "deep", "uncovered",
        "empty universe", "zero budget", "empty set", "element outside", "huge universe"])
def test_reduce_setcover_malformed_input_exits_one(tmp_path, text, message):
    path = tmp_path / "sc.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["reduce-setcover", "--input", str(path), "--decide"])
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith("deskfair: error: ") and err.getvalue().count("\n") == 1
    assert message in err.getvalue()


def test_dump_lp(cvpr_file, tmp_path, monkeypatch):
    builds = spy_on(monkeypatch, solvers.build_group_relaxation)
    mps = tmp_path / "relax.mps"
    out = tmp_path / "out.json"
    assert main(["solve", "--input", cvpr_file, "--policy", "group-lp",
                 "--dump-lp", str(mps), "--output", str(out)]) == 0
    assert len(builds) == 1  # the dump's full relaxation; the solve builds only its presolved LP
    text = mps.read_text()
    assert "OBJSENSE" in text and "ENDATA" in text
    assert " L  R2" in text  # the full LP: the under-cap author keeps its row
    doc = read_json(out)
    assert doc["note"].startswith("relaxation optimum integral")


def test_a_dash_names_a_file_like_any_other_path(triangle_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--input", triangle_file, "--output", "-"]) == 0
    assert capsys.readouterr().out == ""
    text = (tmp_path / "-").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert main(["solve", "--input", triangle_file, "--dump-lp", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["policy"] == "group-exact"  # the solve JSON alone
    assert (tmp_path / "-").read_text() == lp.to_mps(solvers.build_group_relaxation(gen_triangle()))


def test_dump_lp_for_any_policy(cvpr_file, tmp_path):
    dumps = {}
    for policy in ("conventional", "group-exact"):
        dumps[policy] = tmp_path / f"{policy}.mps"
        assert main(["solve", "--input", cvpr_file, "--policy", policy,
                     "--dump-lp", str(dumps[policy]), "--output", str(tmp_path / "out.json")]) == 0
    assert dumps["conventional"].read_bytes() == dumps["group-exact"].read_bytes()


@pytest.mark.parametrize("cap", [10**400, 123456789012345], ids=["past-a-float", "past-12-digits"])
def test_dump_lp_of_a_cap_above_the_paper_count_is_the_dump_at_that_count(cap, tmp_path):
    dumps = []
    for x in (cap, 3):  # the triangle has 3 papers
        doc = instance_to_dict(gen_triangle())
        doc["x"] = x
        path = tmp_path / f"triangle-{len(dumps)}.json"
        path.write_text(json.dumps(doc))
        dumps.append(tmp_path / f"triangle-{len(dumps)}.mps")
        assert main(["solve", "--input", str(path), "--dump-lp", str(dumps[-1]),
                     "--output", str(tmp_path / "out.json")]) == 0
    assert dumps[0].read_bytes() == dumps[1].read_bytes()


@pytest.mark.parametrize("inst", [gen_triangle(), gen_case_study("cvpr26")], ids=["triangle", "cvpr26"])
def test_group_lp_solves_no_extra_lp(inst, lp_calls):
    record = run_policy(inst, "group-lp")
    assert len(lp_calls) == record.diagnostics.lp_calls


def test_solve_json_reports_pivots_incumbents_and_closed_bound(tmp_path, monkeypatch):
    pivots = []

    def counting(lp_, **kwargs):
        sol = lp.solve_lp(lp_, **kwargs)
        pivots.append(sol.iteration_count)
        return sol

    monkeypatch.setattr(solvers, "solve_lp", counting)
    path = tmp_path / "branching.json"
    dump_instance(gen_random(4, 4, 1, 0.5, 9), path)  # root LP 11/6, optimum 3/2
    out = tmp_path / "out.json"
    assert main(["solve", "--input", str(path), "--policy", "group-exact",
                 "--output", str(out)]) == 0
    doc = read_json(out)
    diag = doc["diagnostics"]
    assert diag["node_count"] > 1 and len(pivots) == diag["lp_calls"]
    assert diag["lp_pivots"] == sum(pivots) > 0
    assert diag["lp_bound_flips"] >= 0
    assert 0 <= diag["nodes_pruned"] < diag["node_count"]
    objective = Fraction(doc["objective"]["rational"])
    trace = [Fraction(v["rational"]) for v in diag["incumbent_trace"]]
    assert len(trace) >= 2 and all(a < b for a, b in zip(trace, trace[1:]))
    assert trace[-1] == objective == Fraction(3, 2)
    assert diag["best_bound"] == float(objective)
    assert diag["lp_objective"] == pytest.approx(11 / 6)


def test_group_lp_fallback_note(triangle_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", "--input", triangle_file, "--policy", "group-lp",
                 "--output", str(out)]) == 0
    doc = read_json(out)
    assert "fell back" in doc["note"]
    assert doc["report"]["zeta_group"]["rational"] == "2/3"


@pytest.mark.parametrize("argv", [
    *[["solve", "--input", "{cvpr}", "--policy", p, "--output", "{out}.json"] for p in POLICIES],
    ["compare", "--input", "{cvpr}", "--output", "{out}"],
    ["check-ideal", "--input", "{cvpr}", "--output", "{out}.json"],
    ["audit-integrality", "--input", "{cvpr}", "--output", "{out}.json"],
    ["audit-integrality", "--family", "random", "--count", "3", "--n", "4", "--m", "6",
     "--density", "0.5", "--limit", "2", "--output", "{out}.json"],
    ["gen", "--family", "random", "--n", "4", "--m", "6", "--density", "0.4", "--limit", "2",
     "--output", "{out}.json"],
    ["reduce-setcover", "--input", "{setcover}", "--decide", "--output", "{out}.json"],
], ids=[*(f"solve-{p}" for p in POLICIES), "compare", "check-ideal", "audit-input",
        "audit-family", "gen", "reduce-setcover"])
def test_json_files_have_the_indent_two_layout(argv, cvpr_file, tmp_path, capsys):
    setcover = tmp_path / "sc.json"
    setcover.write_text('{"universe_size": 3, "sets": [[1, 2], [2, 3], [3]], "budget": 2}')
    out = tmp_path / "out"
    assert main([a.format(cvpr=cvpr_file, setcover=setcover, out=out) for a in argv]) == 0
    capsys.readouterr()
    text = (tmp_path / "out.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_parser_is_built_once_and_keeps_no_state(cvpr_file, capsys):
    assert build_parser() is build_parser()
    assert main(["compare", "--input", cvpr_file, "--policy", "conventional"]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["conventional"]
    assert main(["compare", "--input", cvpr_file]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]] == [
        "conventional", "roulette", "group-lp", "group-exact", "individual-exact"]
    assert main(["solve", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert err.count("usage:") == 1
    assert err.endswith("deskfair: error: unrecognized arguments: --bogus\n")


def test_cli_import_loads_no_scipy(triangle_file, tmp_path):
    # import scipy.optimize raises peak RSS from 29 MB to 77 MB, so no scipy
    # module may reach the runtime path; this process has scipy loaded by
    # the LP cross-checks, so a fresh interpreter looks. numpy loads with
    # the first exact solve or set-cover decision: the baseline policies,
    # gen, a malformed instance and reduce-setcover without --decide run
    # without it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    bad = tmp_path / "malformed.json"
    bad.write_text('{"x": 1,')
    setcover = tmp_path / "sc.json"
    setcover.write_text('{"universe_size": 3, "sets": [[1, 2], [2, 3], [3]], "budget": 2}')
    out = str(tmp_path / "out.json")
    script = textwrap.dedent("""\
        import json, sys
        from deskfair.cli import main
        triangle, bad, setcover, out = sys.argv[1:]
        codes = [main(["solve", "--input", triangle, "--policy", p, "--output", out])
                 for p in ("conventional", "roulette")]
        codes.append(main(["gen", "--family", "triangle", "--output", out]))
        codes.append(main(["solve", "--input", bad]))
        codes.append(main(["reduce-setcover", "--input", setcover, "--output", out]))
        before = "numpy" in sys.modules
        codes.append(main(["reduce-setcover", "--input", setcover, "--decide", "--output", out]))
        decided = "numpy" in sys.modules
        codes.append(main(["solve", "--input", triangle, "--policy", "group-exact", "--output", out]))
        print(json.dumps([codes, before, decided,
                          sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]))
    """)
    done = subprocess.run([sys.executable, "-c", script, triangle_file, str(bad), str(setcover), out],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    codes, numpy_before, numpy_after_decide, scipy = json.loads(done.stdout)
    assert codes == [0, 0, 0, 1, 0, 0, 0]
    assert not numpy_before and numpy_after_decide
    assert scipy == []


@pytest.mark.parametrize("module", ["cli", "generators", "instance", "jsontext", "lp", "metrics",
                                    "oracle", "policies", "reports", "solvers"])
def test_every_module_imports_on_its_own(module):
    # the package namespace imports nothing, so an import cycle shows only
    # when a module of the cycle is the first one imported; only the LP
    # layer and the exact solvers load numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import json, sys, deskfair.{module}; "
         "print(json.dumps([sorted(m for m in sys.modules if m.startswith('deskfair.')), "
         "'numpy' in sys.modules]))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    loaded, numpy = json.loads(done.stdout)
    if module == "lp":
        assert set(loaded) <= {"deskfair.lp", "deskfair.instance", "deskfair.jsontext"}
    assert numpy == (module in ("lp", "solvers"))
