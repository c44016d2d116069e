"""Exit-code contract, output document shape, and replay determinism."""

import argparse
import contextlib
import io
import itertools
import json
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jumpfree.cli
import jumpfree.predicates
import jumpfree.subsetsum
from jumpfree.cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION, _parser, main
from jumpfree.families import FAMILY_KINDS, build_universe, iter_family, iter_universe
from jumpfree.intsets import IntMultiset
from jumpfree.predicates import Family, FiniteFunction
from oracles import literal_load_function, literal_read_document, render_json as stdlib_render


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, *argv):
    status, out = run_cli(capsys, *argv)
    return status, json.loads(out)


@pytest.fixture
def family_file(tmp_path):
    fam = {
        "k": 2,
        "members": [
            {
                "id": "max-000",
                "k": 2,
                "entries": [[[2, 2], 2], [[2, 5], 5], [[5, 2], 5], [[5, 5], 5]],
            }
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam))
    return str(path)


def _function_cube_doc(values, elements=(2, 5)):
    points = itertools.product(elements, repeat=2)
    return {
        "function": {"id": "f0", "k": 2, "entries": [[list(x), v] for x, v in zip(points, values)]},
        "cube": {"elements": list(elements), "k": 2},
    }


@pytest.fixture
def function_cube_file(tmp_path):
    path = tmp_path / "fc.json"
    path.write_text(json.dumps(_function_cube_doc([2, 2, 2, 3])))
    return str(path)


def test_gen_emits_family_document(capsys):
    status, doc = run_json(capsys, "gen", "--grid", "3", "--max-domain", "9", "--samples", "2")
    assert status == EXIT_OK
    assert doc["command"] == "gen"
    assert doc["violation"] is None
    assert doc["config"]["seed"] == 0
    assert doc["report"]["members"] == len(doc["report"]["family"]["members"])
    assert doc["report"]["universe"]["gridBound"] == 3


@pytest.mark.parametrize(
    "argv, document",
    [
        (["gen", "--k", "1", "--grid", "5", "--samples", "8"], None),
        (["gen", "--family", "predmin", "--grid", "4", "--samples", "20"], None),
        (["gen", "--k", "3", "--grid", "3", "--max-domain", "27", "--samples", "10"], None),
        (["gen", "--k", "4", "--grid", "2", "--max-domain", "16", "--samples", "3"], None),
        (["check-jumpfree", "--family", "constmin"], None),
        (["check-full", "--samples", "5"], None),
        (["search", "--grid", "5", "--p", "3", "--max-domain", "25"], None),
        (["experiment", "--grid", "4"], None),
        # The (0,0) class holds 2 and 3, so its conflictPair is a pair.
        (["check-rr"], _function_cube_doc([2, 2, 2, 3])),
        # The (0,0) class is constant 3, not below min(E) = 2: conflictPair null.
        (["check-rr"], _function_cube_doc([3, 2, 2, 3])),
        (["check-rr"], _function_cube_doc([2, 5, 5, 5])),
        (["sets"], _function_cube_doc([2, 5, 5, 5])),
        (["solve"], [[-3, 1], [1, 2], [2, 1], [5, 1]]),
    ],
    ids=[
        "gen-k1", "gen-predmin", "gen-k3", "gen-k4", "check-jumpfree", "check-full", "search",
        "experiment", "check-rr-conflict-pair", "check-rr-no-conflict-pair", "check-rr-regular",
        "sets", "solve",
    ],
)
def test_output_is_the_stdlib_rendering(capsys, tmp_path, argv, document):
    if document is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(document))
        argv = argv + ["--input", str(path)]
    _, out = run_cli(capsys, *argv)
    assert out == stdlib_render(json.loads(out)) + "\n"


def test_check_jumpfree_clean_family(capsys):
    status, doc = run_json(capsys, "check-jumpfree", "--family", "max", "--samples", "10")
    assert status == EXIT_OK
    assert doc["report"]["jumpFree"] is True
    assert doc["report"]["witness"] is None


def test_check_jumpfree_constmin_violates(capsys):
    status, doc = run_json(capsys, "check-jumpfree", "--family", "constmin")
    assert status == EXIT_VIOLATION
    witness = doc["report"]["witness"]
    assert witness is not None
    assert doc["violation"] == witness
    assert witness["valueA"] < witness["valueB"]


def test_check_full_generated_family(capsys):
    status, doc = run_json(capsys, "check-full", "--family", "min", "--samples", "5")
    assert status == EXIT_OK
    assert doc["report"]["full"] is True
    assert doc["report"]["universe"]["sampleCount"] == 5


@pytest.mark.parametrize("source", ["generated", "input"])
def test_check_full_builds_the_universe_once(capsys, monkeypatch, family_file, source):
    calls = []

    def counting_build_universe(spec):
        calls.append(spec)
        return build_universe(spec)

    monkeypatch.setattr(jumpfree.cli, "build_universe", counting_build_universe)
    argv = ["check-full", "--family", "min", "--samples", "5"]
    if source == "input":
        argv = ["check-full", "--input", family_file, "--samples", "5"]
    status, doc = run_json(capsys, *argv)
    assert status in (EXIT_OK, EXIT_VIOLATION)
    assert len(calls) == 1
    assert doc["report"]["universe"] == calls[0].to_json_dict()


def test_check_full_detects_uncovered_domain(capsys, tmp_path):
    fam = {"k": 2, "members": [{"id": "only", "k": 2, "entries": [[[0, 0], 0]]}]}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(fam))
    status, doc = run_json(
        capsys, "check-full", "--input", str(path), "--grid", "3", "--samples", "0"
    )
    assert status == EXIT_VIOLATION
    assert doc["report"]["full"] is False
    assert doc["violation"]["kind"] == "uncoveredDomain"


def test_check_rr_violated_exits_2(capsys, function_cube_file):
    status, doc = run_json(capsys, "check-rr", "--input", function_cube_file)
    assert status == EXIT_VIOLATION
    assert doc["report"]["report"]["overall"] is False
    assert doc["violation"]["kind"] == "irregularClass"
    assert doc["violation"]["signature"] == "(0,0)"


def test_only_check_rr_builds_violation_details(capsys, monkeypatch, tmp_path, function_cube_file):
    # The search reads a violated class's verdict and moves on; offender and
    # conflictPair are built for the check-rr report alone.
    def refuse(*args):
        raise AssertionError("violation details built")

    # Every 3-cube of the grid, and each of their prefixes that begins more
    # than one, has a violated class.
    entries = [[list(x), max(min(x) - 1, 0)] for x in itertools.product(range(6), repeat=2)]
    path = tmp_path / "no-witness.json"
    path.write_text(json.dumps({"k": 2, "members": [{"id": "f", "k": 2, "entries": entries}]}))
    with monkeypatch.context() as patched:
        patched.setattr(jumpfree.predicates, "_violation", refuse)
        status, doc = run_json(capsys, "search", "--input", str(path), "--p", "3")
        assert (status, doc["report"]["found"]) == (EXIT_OK, False)
        # Each 4-element full power valued by predmin fails at its first class.
        argv = ["--family", "predmin", "--p", "4", "--grid", "8", "--max-domain", "16"]
        status, doc = run_json(capsys, "search", *argv, "--samples", "0")
        assert (status, doc["report"]["found"]) == (EXIT_OK, False)
        with pytest.raises(AssertionError, match="violation details built"):
            main(["check-rr", "--input", function_cube_file])
    status, doc = run_json(capsys, "check-rr", "--input", function_cube_file)
    assert doc["violation"]["verdict"] == {
        "kind": "violated",
        "offender": [5, 5],
        "offenderValue": 3,
        "conflictPair": [[[2, 2], 2], [[5, 5], 3]],
    }


def test_check_rr_regular_exits_0(capsys, tmp_path):
    doc_in = {
        "function": {
            "id": "f0",
            "k": 2,
            "entries": [[[2, 2], 0], [[2, 5], 0], [[5, 2], 0], [[5, 5], 0]],
        },
        "cube": {"elements": [2, 5], "k": 2},
    }
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(doc_in))
    status, doc = run_json(capsys, "check-rr", "--input", str(path))
    assert status == EXIT_OK
    assert doc["report"]["report"]["overall"] is True


def test_search_finds_first_witness(capsys):
    status, doc = run_json(capsys, "search", "--family", "max", "--grid", "3", "--samples", "0")
    assert status == EXIT_OK
    assert doc["report"]["found"] is True
    assert doc["report"]["witness"]["functionId"] == "max-000"
    assert doc["report"]["witness"]["cube"] == {"elements": [0, 1], "k": 2}


def test_search_not_found_still_exits_0(capsys, tmp_path):
    fam = {"k": 2, "members": [{"id": "flat", "k": 2, "entries": [[[0, 1], 0]]}]}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(fam))
    status, doc = run_json(capsys, "search", "--input", str(path))
    assert status == EXIT_OK
    assert doc["report"]["found"] is False
    assert doc["report"]["witness"] is None


def test_sets_builds_pair(capsys, function_cube_file):
    status, doc = run_json(capsys, "sets", "--input", function_cube_file)
    assert status == EXIT_OK
    assert doc["report"]["F"] == [[-1, 3], [2, 1]]
    assert doc["report"]["H"] == [[-1, 3]]
    assert doc["report"]["fh_equal"] is False


def test_solve_reports_certificate(capsys, tmp_path):
    path = tmp_path / "ms.json"
    path.write_text(json.dumps([[3, 1], [-1, 1], [-2, 1]]))
    for method in ("exhaustive", "dp"):
        status, doc = run_json(capsys, "solve", "--input", str(path), "--method", method)
        assert status == EXIT_OK
        assert doc["report"]["solvable"] is True
        assert doc["report"]["certificate"]["sum"] == 0


def test_solve_unsolvable_still_exits_0(capsys, tmp_path):
    path = tmp_path / "ms.json"
    path.write_text(json.dumps([[1, 1], [2, 1]]))
    status, doc = run_json(capsys, "solve", "--input", str(path))
    assert status == EXIT_OK
    assert doc["report"]["solvable"] is False
    assert doc["report"]["certificate"] is None


def test_experiment_pinned_run(capsys, family_file):
    status, doc = run_json(capsys, "experiment", "--input", family_file)
    assert status == EXIT_OK
    report = doc["report"]
    assert report["outcome"] == "ok"
    assert report["fh_equal"] is True
    assert report["f_multiset"] == [[-1, 1], [3, 3]]
    assert report["solvable_F"] is False
    assert report["solvable_H"] is False
    assert report["agreement"] is True
    assert report["cardinality_ok"] is True


def test_experiment_replay_is_byte_identical(capsys, family_file):
    argv = ("experiment", "--input", family_file, "--method", "dp")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    a, b = json.loads(first), json.loads(second)
    del a["report"]["timings_ms"], b["report"]["timings_ms"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_experiment_reports_a_solvability_mismatch(capsys, monkeypatch, family_file):
    # F holds a zero and H does not, so the two answers disagree.
    pair = (IntMultiset.from_pairs([[0, 1]]), IntMultiset.from_pairs([[1, 1]]))
    monkeypatch.setattr(jumpfree.subsetsum, "build_fh", lambda *a, **kw: pair)
    status, out = run_cli(capsys, "experiment", "--input", family_file)
    assert status == EXIT_VIOLATION
    assert out == stdlib_render(json.loads(out)) + "\n"
    doc = json.loads(out)
    assert doc["command"] == "experiment"
    report, violation = doc["report"], doc["violation"]
    assert (report["outcome"], report["solvable_F"], report["solvable_H"]) == ("ok", True, False)
    checks = ("fh_equal", "agreement", "cardinality_ok")
    assert violation == {"kind": "solvabilityMismatch", **{key: report[key] for key in checks}}
    assert violation["agreement"] is False


def test_generated_commands_replay_identically(capsys):
    argv = ("check-jumpfree", "--family", "constmin", "--seed", "7")
    status1, first = run_cli(capsys, *argv)
    status2, second = run_cli(capsys, *argv)
    assert status1 == status2
    assert first == second


def test_csv_output_flattens_scalars(capsys, family_file):
    status, out = run_cli(capsys, "experiment", "--input", family_file, "--format", "csv")
    assert status == EXIT_OK
    header, row = out.strip().split("\n")
    columns = header.split(",")
    assert columns == sorted(columns)
    values = dict(zip(columns, row.split(",")))
    assert values["fh_equal"] == "true"
    assert values["solvable_F"] == "false"
    assert "witness" not in values


def test_usage_errors_exit_1(capsys):
    assert main(["sets"]) == EXIT_ERROR
    assert "requires --input" in capsys.readouterr().err
    assert main(["solve", "--input", "/nonexistent/ms.json"]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--k", "0"], "--k must be >= 1"),
        (["search", "--k", "0"], "--k must be >= 1"),
        (["solve"], "solve requires --input with a [[value, multiplicity], ...] document"),
    ],
    ids=["gen-k0", "search-k0", "solve-no-input"],
)
def test_refusal_before_any_work_exits_1_with_one_error_line(capsys, argv, message):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"jumpfree: error: {message}\n"


def test_bad_flag_value_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "bogus"])
    assert exc.value.code == EXIT_ERROR


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--family", "constmin"],
        ["check-rr", "--k", "3"],
        ["sets", "--method", "dp"],
        ["gen", "--p", "3"],
        ["check-jumpfree", "--gamma", "zigzag,zigzag,zigzag"],
        ["search", "--semantics", "set"],
        ["experiment", "--grid", "4", "extra"],
    ],
)
def test_flag_the_command_does_not_read_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    captured = capsys.readouterr()
    # The refusal is the top-level parser's, as argparse makes it.
    assert captured.out == ""
    assert captured.err.startswith("usage: jumpfree [-h]")
    last = captured.err.splitlines()[-1]
    assert last.startswith("jumpfree: error: unrecognized arguments: ")
    assert last.endswith(argv[-1])


def test_solve_config_echoes_every_default(capsys, tmp_path):
    path = tmp_path / "ms.json"
    path.write_text(json.dumps([[1, 1]]))
    status, doc = run_json(capsys, "solve", "--input", str(path))
    assert status == EXIT_OK
    assert doc["config"] == {
        "command": "solve",
        "k": 2,
        "p": 2,
        "gridBound": 4,
        "maxDomainSize": 8,
        "sampleCount": 50,
        "seed": 0,
        "includeAllCubes": True,
        "family": "max",
        "gamma": "zigzag,zigzag,zigzag",
        "semantics": "multiset",
        "method": "dp",
        "format": "json",
        "input": str(path),
    }


_UNIVERSE_FLAGS = {"--k", "--grid", "--max-domain", "--samples", "--seed", "--cubes", "--no-cubes"}
_FAMILY_FLAGS = _UNIVERSE_FLAGS | {"--family", "--input"}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("gen", _FAMILY_FLAGS),
        ("check-jumpfree", _FAMILY_FLAGS),
        ("check-full", _FAMILY_FLAGS),
        ("check-rr", {"--input"}),
        ("search", _FAMILY_FLAGS | {"--p"}),
        ("sets", {"--input", "--gamma", "--semantics"}),
        ("solve", {"--input", "--method"}),
        ("experiment", _FAMILY_FLAGS | {"--p", "--gamma", "--method"}),
    ],
)
def test_help_lists_exactly_the_command_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == EXIT_OK
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == flags | {"--format", "--help"}


def _parse_outcome(parse, argv):
    """Exit code (None when parsing returns), stdout, stderr and result of
    parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result, code = parse(argv), None
        except SystemExit as exc:
            result, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), result


def _config_main_runs(argv):
    """The RunConfig main builds from argv, with the command not run."""
    configs = []

    def record(cfg):
        configs.append(cfg)
        return "", EXIT_OK

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jumpfree.cli, "run", record)
        main(argv)
    return configs[0]


def _config_top_level_parses(argv):
    return jumpfree.cli.RunConfig(**vars(_parser().parse_args(argv)))


_ALL_FLAGS = sorted(_FAMILY_FLAGS | {"--p", "--gamma", "--semantics", "--method", "--format"})
# Spellings argparse refuses that a flag table could wrongly take: abbreviations,
# "_" for "-", "--" before a command's flag.
_NEAR_MISSES = ["-h", "--help", "--he", "--gri", "--s", "--max", "--no", "--fam", "--inp"]
_NEAR_MISSES += ["--max_domain", "--no_cubes", "--bogus", "-x", "--"]
# Values of every flag, values no flag takes, and spellings int reads.
_VALUES = ["3", "0", "-3", "abc", "1.5", "max", "constmin", "dp", "csv", "set", "zigzag"]
_VALUES += ["extra", "", " 3", "07", "1_0"]
_EQUALS_TOKENS = st.tuples(
    st.sampled_from(_ALL_FLAGS + ["--gri", "--bogus"]), st.sampled_from(["3", "abc", "max", ""])
).map("=".join)
# Single tokens, or a flag with a value after it.
_CHUNKS = (
    st.sampled_from(_ALL_FLAGS + _NEAR_MISSES + _VALUES + list(jumpfree.cli.COMMANDS)).map(
        lambda token: [token]
    )
    | _EQUALS_TOKENS.map(lambda token: [token])
    | st.tuples(st.sampled_from(_ALL_FLAGS + _NEAR_MISSES), st.sampled_from(_VALUES)).map(list)
    | st.just(["--format", "csv"])
)
# A flag, or "_" for its "-", with a value it takes, so that runs of flags
# well formed for the command but for one spelling are drawn often.
_GOOD_VALUES = {
    "--family": ["max", "constmin"],
    "--gamma": ["zigzag,zigzag,zigzag", "shifted:-5,zigzag,zigzag"],
    "--semantics": ["set"],
    "--method": ["exhaustive"],
    "--format": ["csv", "json"],
    "--input": ["in.json", ""],
}


def _with_value(flag):
    if flag in ("--cubes", "--no-cubes", "--no_cubes"):
        return st.just([flag])
    values = _GOOD_VALUES.get(flag, ["3", "0", " 3", "07", "1_0"])
    return st.sampled_from(values).map(lambda value: [flag, value])


_FLAG_CHUNKS = st.sampled_from(_ALL_FLAGS + ["--max_domain", "--no_cubes"]).flatmap(_with_value)
_COMMAND_NAMES = list(jumpfree.cli.COMMANDS)
# A command name first, or none, or an unknown one; then anything.
_ARGVS = st.tuples(
    st.sampled_from([[]] + [[name] for name in _COMMAND_NAMES] + [["bogus"]]),
    st.lists(_CHUNKS | _FLAG_CHUNKS | _FLAG_CHUNKS, max_size=6),
).map(lambda parts: parts[0] + [token for chunk in parts[1] for token in chunk])


# The one refusal of a leading "--" before more argv, on every Python release.
_DASHES = (
    "jumpfree: error: argument command: invalid choice: '--' (choose from 'gen', "
    "'check-jumpfree', 'check-full', 'check-rr', 'search', 'sets', 'solve', 'experiment')"
)


@settings(max_examples=400, deadline=None)
@given(_ARGVS)
@example(["experiment", "--grid", "4", "extra"])
@example(["gen", "--he"])
@example(["-h"])
@example(["-h", "gen"])
@example(["--", "gen"])
@example(["--"])
@example(["gen", "--", "--k", "3"])
@example(["search", "--grid=5", "--no-cubes", "--p", "3"])
@example([])
@example(["experiment", "--grid", "4", "--max_domain", "4"])
@example(["gen", "--no_cubes"])
@example(["solve", "--cubes"])
@example(["sets", "--no-cubes", "--input", "in.json"])
@example(["check-rr", "--input", "in.json", "--cubes"])
@example(["gen", "--k", "", "--grid", " 3", "--samples", "07", "--seed", "1_0"])
@example(["search", "--p", "3", "--format", "csv", "--k", "3", "--k", "2"])
@example(["gen", "--input", "--no-cubes"])
@example(["experiment", "--k", "-3", "--gamma", "-1"])
# One argv of each shape perfbench runs.
@example(
    "experiment --family predmin --p 3 --gamma shifted:-105,shifted:10,shifted:147 --k 2 "
    "--grid 8 --max-domain 64 --samples 183 --seed 383071".split()
)
@example("gen --family max --k 2 --grid 5 --max-domain 9 --samples 97 --seed 303489".split())
@example(["check-jumpfree", "--input", "family.json"])
@example(
    "check-full --input family.json --k 2 --grid 5 --max-domain 9 --samples 97 --seed 303489".split()
)
@example(
    "check-jumpfree --family constmin --k 2 --grid 5 --max-domain 9 --samples 96 --seed 733131".split()
)
@example(["solve", "--input", "multiset.json"])
def test_main_parses_as_the_top_level_parser(argv):
    # A leading "--" before more is refused by main itself (see the test
    # below): newer argparse releases drop it and parse the rest.
    main_outcome = _parse_outcome(_config_main_runs, argv)
    if argv[:1] == ["--"] and argv[1:]:
        code, out, err, result = main_outcome
        assert (code, out, err.splitlines()[-1], result) == (EXIT_ERROR, "", _DASHES, None)
    else:
        assert main_outcome == _parse_outcome(_config_top_level_parses, argv)


@pytest.mark.parametrize(
    "argv", [["--", "search", "--grid", "3", "--samples", "0"], ["--", "--help"], ["--", "--"]]
)
def test_leading_double_dash_is_refused_with_the_top_level_usage(capsys, monkeypatch, argv):
    # The same refusal on every Python release: argparse 3.10 to 3.13.0
    # refuses a leading "--" as an invalid command, later releases drop it,
    # so main refuses it before argparse reads argv.  A lone "--" still gets
    # the top-level parser's "required: command".
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", lambda *a: pytest.fail("parsed"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("usage: jumpfree [-h]")
    assert captured.err.splitlines()[-1] == _DASHES


@pytest.mark.parametrize("argv", [["search", "--grid", "3", "--samples", "0"], ["--help"]])
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, argv):
    outcomes = []
    for given_argv in (argv, None):
        monkeypatch.setattr(sys, "argv", ["jumpfree"] + (argv if given_argv is None else ["bogus"]))
        try:
            status = main(given_argv)
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        outcomes.append((status, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == EXIT_OK and outcomes[0][1]


def test_theorem_commands_reject_k1(capsys, monkeypatch):
    # The witness search refuses k < 2 and p < 2 before it pulls a member;
    # p = 0 is a cube side too, so the loader streams the members for it.
    built = []
    monkeypatch.setattr(FiniteFunction, "_trusted", lambda *a: built.append(a))
    refusals = (
        ("--k", "1", "arity k >= 2"),
        ("--p", "1", "cube size p >= 2"),
        ("--p", "0", "cube size p >= 2"),
    )
    for command in ("search", "experiment"):
        for flag, value, message in refusals:
            assert main([command, flag, value]) == EXIT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"jumpfree: error: witness search requires {message}\n"
    assert built == []


def test_capacity_error_exits_1(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[1, 30]]))
    assert main(["solve", "--input", str(path), "--method", "exhaustive"]) == EXIT_ERROR
    assert "capacity" in capsys.readouterr().err


def test_running_out_of_memory_is_a_capacity_error(capsys, monkeypatch):
    def exhausted(family):
        raise MemoryError()

    monkeypatch.setattr(jumpfree.cli, "is_jump_free_family", exhausted)
    assert main(["check-jumpfree", "--grid", "3", "--samples", "0"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jumpfree: capacity: out of memory\n"


def test_an_error_while_writing_exits_1(capsys, monkeypatch, tmp_path):
    # A csv field keeps the function id as it is, and ASCII cannot encode
    # it: the write fails, and that is an error like any other.
    doc = _function_cube_doc([2, 2, 2, 3])
    doc["function"]["id"] = "f\u4e00"
    path = tmp_path / "fc.json"
    path.write_text(json.dumps(doc))
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["check-rr", "--input", str(path), "--format", "csv"]) == EXIT_ERROR
    stdout.flush()
    assert stdout.buffer.getvalue() == b""
    with pytest.raises(UnicodeEncodeError) as refusal:
        "functionId\nf\u4e00\n".encode("ascii")
    assert capsys.readouterr().err == f"jumpfree: error: {refusal.value}\n"


@pytest.mark.parametrize("command", ["gen", "check-jumpfree", "check-full", "search", "experiment"])
@pytest.mark.parametrize("source", ["input", "generated"])
def test_a_family_command_builds_at_most_one_family(
    capsys, monkeypatch, family_file, source, command
):
    # An --input family is built, with Family's checks, once, as it loads;
    # a generated one once for the commands that hold it whole, and never
    # for search and experiment, which stream its members.
    builds = []
    real_init = Family.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Family, "__init__", counting_init)
    argv = ["--input", family_file] if source == "input" else ["--grid", "3", "--samples", "2"]
    assert main([command, *argv]) in (EXIT_OK, EXIT_VIOLATION)
    assert capsys.readouterr().err == ""
    streamed = source == "generated" and command in ("search", "experiment")
    assert len(builds) == (0 if streamed else 1)


def test_exhaustive_answers_a_small_multiset_of_large_values(capsys, tmp_path):
    # dp's table grows with the values, so it refuses two items that
    # exhaustive decides at once: the reason --method exhaustive stays.
    path = tmp_path / "ms.json"
    path.write_text(json.dumps([[1000000000, 1], [-1000000000, 1]]))
    assert main(["solve", "--input", str(path), "--method", "dp"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jumpfree: capacity: dp prefixes capped at 268435456 bits, got 4000000002\n"
    status, doc = run_json(capsys, "solve", "--input", str(path), "--method", "exhaustive")
    assert status == EXIT_OK
    assert doc["report"]["certificate"] == {
        "chosen": [[-1000000000, 1], [1000000000, 1]],
        "sum": 0,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--grid", "100000", "--samples", "1", "--no-cubes"],
        ["gen", "--k", "1000000000"],
        ["check-jumpfree", "--samples", "1000000000000"],
        ["search", "--grid", "4000", "--samples", "1"],
        ["search", "--k", "1000000000", "--p", "3"],
        ["experiment", "--k", "1000000000", "--p", "3"],
    ],
)
def test_universe_guard_trips_before_allocation(capsys, argv):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jumpfree: capacity: universe")


@pytest.mark.parametrize("command", ["search", "experiment"])
def test_search_past_its_work_budget_exits_1_with_one_capacity_line(
    capsys, monkeypatch, tmp_path, command
):
    # Every 3-cube of the grid is examined and none is a witness.
    grid = itertools.product(range(6), repeat=2)
    entries = [[list(x), max(min(x) - 1, 0)] for x in grid]
    path = tmp_path / "no-witness.json"
    path.write_text(json.dumps({"k": 2, "members": [{"id": "f", "k": 2, "entries": entries}]}))
    monkeypatch.setattr(jumpfree.families, "UNIVERSE_MAX_POINTS", 100)
    assert main([command, "--input", str(path), "--p", "3"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jumpfree: capacity: witness search capped at 100 points of work\n"


def test_check_full_refuses_a_family_of_another_arity(capsys, tmp_path):
    fam = {"k": 3, "members": [{"id": "f", "k": 3, "entries": [[[0, 0, 0], 0]]}]}
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(fam))
    assert main(["check-full", "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "jumpfree: error: family arity 3 does not match the universe arity 2 (--k)\n"
    )
    status, doc = run_json(capsys, "check-full", "--input", str(path), "--k", "3")
    assert status == EXIT_VIOLATION
    assert len(doc["violation"]["domain"][0]) == 3


@pytest.mark.parametrize(
    "gamma",
    [
        "shifted:1_0",
        "shifted:+3",
        "shifted: 5",
        "shifted:5 ",
        "shifted:\u0663",
        "shifted:\uff15",
        "shifted:",
        "shifted:-",
        " zigzag",
        "ZIGZAG",
        "Shifted:3",
    ],
)
@pytest.mark.parametrize("command", ["sets", "experiment"])
def test_gamma_outside_the_documented_spellings_exits_1(
    capsys, function_cube_file, command, gamma
):
    argv = [command, "--gamma", f"zigzag,{gamma},zigzag"]
    if command == "sets":
        argv += ["--input", function_cube_file]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"jumpfree: error: cannot parse bijection {gamma!r}\n"


def test_universe_cap_counts_one_member_per_built_cube_class(capsys):
    # The C(20, 10) = 184,756 members of 100 points in the size-10 class are
    # its first member and images of it: the cap counts the one it builds,
    # which is the witness, after the 431,889 smaller members left unbuilt.
    argv = ["--family", "max", "--k", "2", "--grid", "20", "--max-domain", "100"]
    status, doc = run_json(capsys, "search", *argv, "--samples", "0", "--p", "10")
    assert status == EXIT_OK
    witness = doc["report"]["witness"]
    assert witness["functionId"] == "max-431889"
    assert witness["cube"]["elements"] == list(range(10))
    assert witness["searchStats"] == {"functionsExamined": 431890, "cubesExamined": 1}


def test_lookup_path_counts_the_cubes_below_a_cut_prefix(capsys, tmp_path):
    # The 16x16 grid valued 0, less (15, 0), is not a full power, so its
    # cubes are looked up.  Every prefix (0, e) has a violated class, and the
    # cubes below it are backtracked over and counted, never classified.
    grid = itertools.product(range(16), repeat=2)
    entries = [[list(x), 0] for x in grid if x != (15, 0)]
    path = tmp_path / "zero16_lookup.json"
    path.write_text(json.dumps({"k": 2, "members": [{"id": "m", "k": 2, "entries": entries}]}))
    status, doc = run_json(capsys, "search", "--input", str(path), "--p", "8")
    assert status == EXIT_OK
    witness = doc["report"]["witness"]
    assert witness["cube"]["elements"] == list(range(1, 9))
    assert witness["searchStats"] == {"functionsExamined": 1, "cubesExamined": 3433}


def test_universe_without_samples_counts_no_grid_points(capsys):
    # 358,800 cube points and no samples: the grid is never built, so the
    # cap must not count its 300^3 points.
    status, doc = run_json(
        capsys, "search", "--k", "3", "--grid", "300", "--max-domain", "8", "--samples", "0"
    )
    assert status == EXIT_OK
    assert doc["report"]["found"] is True


def test_experiment_generates_members_only_up_to_the_witness(capsys, monkeypatch):
    # Generated members are built at one point, FiniteFunction._trusted.
    members, draws = [], []
    real_trusted, real_bits = FiniteFunction._trusted, random.Random.getrandbits

    def counting_trusted(*args):
        members.append(real_trusted(*args))
        return members[-1]

    def counting_bits(self, width):
        draws.append(width)
        return real_bits(self, width)

    monkeypatch.setattr(FiniteFunction, "_trusted", counting_trusted)
    monkeypatch.setattr(random.Random, "getrandbits", counting_bits)
    argv = ["experiment", "--family", "max", "--p", "3", "--grid", "8", "--max-domain", "64"]
    status, doc = run_json(capsys, *argv, "--samples", "300")
    assert status == EXIT_OK
    assert doc["report"]["witness"]["functionId"] == "max-028"
    assert doc["report"]["witness"]["searchStats"]["functionsExamined"] == 29
    # The 28 members before it have fewer than 3^2 points and stay unbuilt.
    assert len(members) == 1
    assert draws == []


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILY_KINDS),
    k=st.integers(1, 3),
    grid_bound=st.integers(2, 5),
    max_domain_size=st.integers(1, 64),
    sample_count=st.sampled_from([0, 0, 1, 5, 30]),
    seed=st.integers(0, 10**6),
    include_all_cubes=st.booleans(),
    p=st.sampled_from([None, None, 2, 3]),
    built=st.booleans(),
)
def test_generated_members_pass_the_checks_they_skip(built, p, **universe_flags):
    # The commands build generated members unchecked: every one must equal
    # the member the checking constructor builds from the same fields, and
    # the one iter_family builds, with its checks, from the same domain.
    cfg = jumpfree.cli.RunConfig("gen", **universe_flags)
    spec = cfg.universe_spec()
    universe = build_universe(spec) if built and p is None else None
    checked = iter_family(cfg.family, iter_universe(spec, p))
    try:
        # With p unset the loader builds the whole Family, so it refuses an
        # empty universe itself; given p, the stream refuses it when drained.
        family, _ = jumpfree.cli._load_family(cfg, universe, p)
        members = family if p is not None else family.members
        pairs = list(zip(members, checked, strict=True))
    except ValueError as refusal:
        assert str(refusal) == "cannot generate a family over an empty universe"
        return
    for m, want in pairs:
        if not isinstance(m, int):
            assert type(m) is FiniteFunction and m.k == spec.k
            assert m == FiniteFunction(m.id, m.k, m.entries) == want
        else:
            assert m == want


@pytest.mark.parametrize("command", ["search", "experiment"])
def test_empty_universe_exits_1(capsys, command):
    assert main([command, "--samples", "0", "--no-cubes"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jumpfree: error: cannot generate a family over an empty universe\n"


@pytest.mark.parametrize(
    "command, key, value", [("search", "found", False), ("experiment", "outcome", "no_witness")]
)
def test_universe_of_only_small_domains_exits_0(capsys, command, key, value):
    # The grid's 2x2 cubes and every draw have fewer than 3^2 points: the
    # universe is not empty, it just holds no 3-cube.
    argv = ["--k", "2", "--grid", "3", "--max-domain", "4", "--samples", "0", "--p", "3"]
    status, doc = run_json(capsys, command, *argv)
    assert status == EXIT_OK
    assert doc["report"][key] == value
    assert doc["violation"] is None


def test_no_witness_experiment_report_has_the_ok_key_set(capsys):
    argv = ["--k", "2", "--grid", "3", "--max-domain", "4", "--samples", "0", "--p", "3"]
    status, doc = run_json(capsys, "experiment", *argv)
    assert status == EXIT_OK
    report = doc["report"]
    status, ok = run_json(capsys, "experiment", "--grid", "4")
    assert status == EXIT_OK and ok["report"]["outcome"] == "ok"
    assert report.keys() == ok["report"].keys()
    # The CLI adds the universe it searched to the library's report.
    assert report.pop("universe")["gridBound"] == 3
    assert {key: report.pop(key) for key in ("outcome", "method", "p", "timings_ms")} == {
        "outcome": "no_witness",
        "method": "dp",
        "p": 3,
        "timings_ms": {},
    }
    assert set(report.values()) == {None}


_NOT_JSON = {"empty": b"", "truncated": b'{"k": 2,', "not_utf8": b'{"k": \xff}'}


@pytest.mark.parametrize("document", ["empty", "truncated", "not_utf8", "directory", "missing"])
@pytest.mark.parametrize(
    "command", ["check-jumpfree", "check-full", "search", "check-rr", "sets", "solve"]
)
def test_document_that_is_not_json_exits_1(capsys, tmp_path, command, document):
    path = tmp_path / document
    if document == "directory":
        path.mkdir()
    elif document in _NOT_JSON:
        path.write_bytes(_NOT_JSON[document])
    assert main([command, "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jumpfree: error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    if document in _NOT_JSON:  # the line names the file
        assert captured.err.startswith(f"jumpfree: error: {path}: not JSON: ")


_LF_MULTISET = b"[[3, 1],\n [-1, 1],\n [4, 2],\n [-2, 1]]\n"

# Raw documents whose lines end in CRLF or CR, or that are not UTF-8 text;
# each must be read as text mode reads it.  The malformed ones fail some
# lines down, where the line, column and char of the parser's message
# depend on how line endings were read.
_RAW_DOCUMENTS = {
    "crlf": _LF_MULTISET.replace(b"\n", b"\r\n"),
    "cr": _LF_MULTISET.replace(b"\n", b"\r"),
    "crlf_missing_comma": b"[[3, 1],\r\n [-1, 1],\r\n [4, 2]\r\n [-2, 1]]\r\n",
    "cr_missing_comma": b"[[3, 1],\r [-1, 1],\r [4, 2]\r [-2, 1]]\r",
    "crlf_cr_in_string": b'[[3, 1],\r\n [-1, 1],\r\n ["a\rb", 1]]\r\n',
    "cr_cr_in_string": b'[[3, 1],\r [-1, 1],\r ["a\rb", 1]]\r',
    # Past the 8,192-byte chunks a text-mode reader decodes in.
    "not_utf8_at_20010": b"[" + b" " * 20009 + b"\xff]",
    "bom": b"\xef\xbb\xbf" + _LF_MULTISET,
    "utf16": _LF_MULTISET.decode().encode("utf-16"),
    "empty": b"",
}


@pytest.mark.parametrize("name", _RAW_DOCUMENTS)
def test_document_is_read_as_text_mode_reads_it(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(_RAW_DOCUMENTS[name])
    if name in ("crlf", "cr"):
        assert literal_read_document(path) == json.loads(_LF_MULTISET)
        lf = tmp_path / "lf.json"
        lf.write_bytes(_LF_MULTISET)
        status, doc = run_json(capsys, "solve", "--input", str(path))
        assert status == EXIT_OK
        assert doc["report"] == run_json(capsys, "solve", "--input", str(lf))[1]["report"]
        return
    with pytest.raises(ValueError) as refusal:
        literal_read_document(path)
    assert main(["solve", "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"jumpfree: error: {path}: not JSON: {refusal.value}\n"


@pytest.mark.parametrize("command", ["solve", "check-jumpfree", "check-rr"])
def test_deeply_nested_document_exits_1(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main([command, "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jumpfree: error:")
    assert "Traceback" not in captured.err


def test_wrapped_family_document_accepted(capsys, tmp_path):
    status, doc = run_json(capsys, "gen", "--family", "min", "--grid", "3", "--samples", "0")
    assert status == EXIT_OK
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps(doc))
    status, doc2 = run_json(capsys, "check-jumpfree", "--input", str(path))
    assert status == EXIT_OK
    assert doc2["report"]["members"] == doc["report"]["members"]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jumpfree", "search", "--grid", "3", "--samples", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["found"] is True


def _member(entries, k=2):
    return {"id": "a", "k": k, "entries": entries}


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"k": 2, "members": [_member([[[1, 2], 1.7]])]}, id="float-value"),
        pytest.param({"k": 2, "members": [_member([[[1, 2], True]])]}, id="bool-value"),
        pytest.param({"k": 2, "members": [_member([[[1, 2], "1"]])]}, id="str-value"),
        pytest.param({"k": 2, "members": [_member([[[0, "1"], 0]])]}, id="str-coordinate"),
        pytest.param({"k": 2, "members": [_member([[[1.0, 2], 1]])]}, id="float-coordinate"),
        pytest.param(
            {"k": 2, "members": [_member([[[1, 2], 1], [[1, 2], 2]])]}, id="duplicate-point"
        ),
        pytest.param({"k": 2, "members": [_member([[[1, 2], 1]], k="2")]}, id="str-member-k"),
        pytest.param({"k": 2, "members": [_member([[[1, 2], 1]], k=2.0)]}, id="float-member-k"),
        pytest.param({"k": "2", "members": [_member([[[1, 2], 1]])]}, id="str-family-k"),
        pytest.param({"k": True, "members": [_member([[[1], 1]], k=1)]}, id="bool-family-k"),
        pytest.param({"k": 2, "members": [_member(5)]}, id="entries-not-a-list"),
        pytest.param(
            {"k": 2, "members": [_member([[[1, 2], 1.7], [[1, 2], True], [[0, "1"], 0]])]},
            id="every-former-coercion",
        ),
    ],
)
def test_malformed_family_document_exits_1(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check-jumpfree", "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jumpfree: error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "entries",
    [[[[0, 0], -1], [[0, 1], 0], [[0, 1], 1]], [[[0, 0], -1], [[0, 1], 0], [[0, 1]]]],
    ids=["bad-value-then-duplicate", "bad-value-then-short-entry"],
)
def test_loaded_member_is_refused_as_the_literal_loader_refuses_it(capsys, tmp_path, entries):
    # The later fault wins: a point listed twice, or a wrong structure.
    member = _member(entries)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"k": 2, "members": [member]}))
    with pytest.raises((TypeError, ValueError)) as refusal:
        literal_load_function(member)
    if refusal.type is TypeError:
        want = f"jumpfree: error: {path}: not a family document\n"
    else:
        want = f"jumpfree: error: {refusal.value}\n"
    assert main(["check-jumpfree", "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", want)


_CUBE_FUNCTION = {"id": "f", "k": 2, "entries": [[[2, 2], 2], [[2, 5], 5], [[5, 2], 5], [[5, 5], 5]]}


@pytest.mark.parametrize(
    "command, doc",
    [
        pytest.param("solve", [[1, "2"], [-1, 1.5]], id="str-and-float-multiplicity"),
        pytest.param("solve", [[1, True], [-1, 1]], id="bool-multiplicity"),
        pytest.param("solve", [[1.0, 1], [-1, 1]], id="float-multiset-value"),
        pytest.param(
            "check-rr",
            {"function": _CUBE_FUNCTION, "cube": {"elements": [2.9, "5"], "k": 2}},
            id="float-and-str-cube-elements",
        ),
        pytest.param(
            "check-rr",
            {"function": _CUBE_FUNCTION, "cube": {"elements": [2, 5], "k": "2"}},
            id="str-cube-k",
        ),
        pytest.param(
            "check-rr",
            {"function": _CUBE_FUNCTION, "cube": {"elements": [2, 5], "k": True}},
            id="bool-cube-k",
        ),
    ],
)
def test_malformed_multiset_or_cube_document_exits_1(capsys, tmp_path, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jumpfree: error:")
    assert "Traceback" not in captured.err


_PAIRS_DOC = "expected a [[value, multiplicity], ...] document"
_FUNCTION_CUBE_DOC = 'expected {"function": ..., "cube": ...}'


@pytest.mark.parametrize(
    "command, doc, expected",
    [
        pytest.param(
            "check-rr",
            {"function": dict(_CUBE_FUNCTION, entries=5), "cube": {"elements": [2, 5], "k": 2}},
            _FUNCTION_CUBE_DOC,
            id="entries-not-a-list",
        ),
        pytest.param("solve", [[1, 2], 3], _PAIRS_DOC, id="pair-not-a-list"),
        pytest.param(
            "check-jumpfree", {"report": "family"}, "not a family document", id="report-a-string"
        ),
        pytest.param("solve", [[1]], _PAIRS_DOC, id="pair-too-short"),
        pytest.param("solve", [[1, 2, 3]], _PAIRS_DOC, id="pair-too-long"),
        pytest.param("solve", ["ab"], _PAIRS_DOC, id="pair-a-string"),
        pytest.param(
            "check-jumpfree",
            {"k": 2, "members": [_member([[[1, 2]]])]},
            "not a family document",
            id="entry-without-value",
        ),
        pytest.param(
            "check-jumpfree",
            {"k": 2, "members": [_member(["ab"])]},
            "not a family document",
            id="entry-a-string",
        ),
        pytest.param(
            "check-rr",
            {"function": _CUBE_FUNCTION, "cube": {"elements": "ab", "k": 2}},
            _FUNCTION_CUBE_DOC,
            id="elements-a-string",
        ),
        pytest.param(
            "check-rr",
            {
                "function": dict(_CUBE_FUNCTION, entries=[[[1, 2], 1, 5]]),
                "cube": {"elements": [2, 5], "k": 2},
            },
            _FUNCTION_CUBE_DOC,
            id="entry-too-long",
        ),
    ],
)
def test_wrong_structure_names_the_file_and_document(capsys, tmp_path, command, doc, expected):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"jumpfree: error: {path}: {expected}\n"


@pytest.mark.parametrize(
    "ids", [[None], [7], [True], [["a"]], [7, "7"]], ids=["null", "int", "bool", "list", "int-str"]
)
def test_non_string_member_id_exits_1(capsys, tmp_path, ids):
    doc = {"k": 2, "members": [dict(_member([[[1, 2], 2]]), id=i) for i in ids]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["check-jumpfree", "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"jumpfree: error: function id must be a string, got {ids[0]!r}\n"


def _huge_arity_document(k):
    return {"function": {"id": "f", "k": k, "entries": []}, "cube": {"elements": [0, 1], "k": k}}


@pytest.mark.parametrize("k", [10**9, 3 * 10**7])
@pytest.mark.parametrize("command", ["check-rr", "sets"])
def test_huge_cube_arity_exits_1_with_one_short_line(capsys, tmp_path, command, k):
    # A 2^k cube power cannot lie in an empty domain; it is refused before
    # a single k-tuple is built.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_huge_arity_document(k)))
    assert main([command, "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"jumpfree: error: cube power not contained in domain of f: 2^{k} points, domain has 0\n"
    )


@pytest.mark.parametrize("command", ["check-rr", "sets"])
def test_missing_cube_point_exits_1_naming_the_first_in_lexicographic_order(
    capsys, tmp_path, command
):
    # (2, 5) and (5, 2) are both missing; the refusal names (2, 5), the
    # first in the power's lexicographic order, and looks no further.
    entries = [[[x, x], x] for x in (9, 5, 2, 1, 0)]
    doc = {"function": {"id": "f", "k": 2, "entries": entries}, "cube": {"elements": [2, 5], "k": 2}}
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "jumpfree: error: cube power not contained in domain of f: missing (2, 5)\n"
    )


@pytest.mark.parametrize("command", ["check-rr", "sets"])
def test_cube_of_another_arity_exits_1(capsys, tmp_path, command):
    doc = _function_cube_doc([2, 2, 2, 3])
    doc["cube"]["k"] = 3
    path = tmp_path / "arity.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jumpfree: error: cube arity 3 does not match function arity 2\n"


# Leaves of every JSON type, ints on both sides of every guard.
_LEAF = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([-(10**9), 10**9, 2**70]),
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
_NAT = st.integers(0, 6)


def _mostly(valid):
    """valid nine times in ten, else any leaf, so most documents parse
    and the checks behind the parser run too."""
    return st.integers(0, 9).flatmap(lambda i: _LEAF if i == 0 else valid)


def _function(entries, k):
    return st.fixed_dictionaries(
        {"id": _mostly(st.sampled_from("abcd")), "k": _mostly(st.just(k)), "entries": entries}
    )


_POINT = _mostly(st.lists(_mostly(_NAT), min_size=1, max_size=3))
_ENTRIES = _mostly(st.lists(_mostly(st.tuples(_POINT, _mostly(_NAT)).map(list)), max_size=5))
_FAMILY = st.fixed_dictionaries(
    {"k": _mostly(st.just(2)), "members": _mostly(st.lists(_function(_ENTRIES, 2), max_size=3))}
)


@st.composite
def _function_cube(draw):
    # Every point of a small cube power, valued, plus stray entries; one
    # point is sometimes dropped.
    k = draw(st.integers(1, 3))
    elements = draw(st.lists(_NAT, min_size=1, max_size=3, unique=True).map(sorted))
    entries = [[list(x), draw(_mostly(_NAT))] for x in itertools.product(elements, repeat=k)]
    entries += draw(st.lists(st.tuples(_POINT, _mostly(_NAT)).map(list), max_size=2))
    if draw(st.booleans()):
        del entries[0]
    function = draw(_function(_mostly(st.just(entries)), k))
    cube = {"elements": _mostly(st.just(elements)), "k": _mostly(st.just(k))}
    return {"function": function, "cube": draw(st.fixed_dictionaries(cube))}


_PAIR = st.tuples(_mostly(st.integers(-9, 9)), _mostly(st.integers(1, 3))).map(list)
_MULTISET = _mostly(st.lists(_mostly(_PAIR), max_size=6))
_FAMILY_COMMANDS = ["gen", "check-jumpfree", "check-full", "search", "experiment"]
_CASES = st.one_of(
    st.tuples(st.sampled_from(_FAMILY_COMMANDS), _FAMILY),
    st.tuples(st.sampled_from(["check-rr", "sets"]), _function_cube()),
    st.tuples(st.just("solve"), _MULTISET),
)


@settings(max_examples=150, deadline=None)
@given(case=_CASES)
@example(case=("check-rr", _huge_arity_document(10**9)))
@example(case=("sets", _huge_arity_document(10**9)))
def test_malformed_documents_keep_the_exit_contract(tmp_path_factory, case):
    command, doc = case
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([command, "--input", str(path)])
    assert status in (EXIT_OK, EXIT_ERROR, EXIT_VIOLATION)
    assert "Traceback" not in err.getvalue()
    if status == EXIT_ERROR:
        assert out.getvalue() == ""
    else:
        assert out.getvalue() == stdlib_render(json.loads(out.getvalue())) + "\n"
