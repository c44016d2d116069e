"""Exit-code contract, output document shape, and replay determinism."""

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
from jumpfree.cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION, build_parser, main
from jumpfree.families import build_universe
from oracles import render_json as stdlib_render


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
    ],
)
def test_flag_the_command_does_not_read_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


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
    assert build_parser() is build_parser()


def test_theorem_commands_reject_k1(capsys, monkeypatch):
    # The witness search refuses k < 2 and p < 2 before it pulls a member.
    built = []
    monkeypatch.setattr(jumpfree.families, "FiniteFunction", lambda *a, **kw: built.append(a))
    for command in ("search", "experiment"):
        for flag, message in (("--k", "arity k >= 2"), ("--p", "cube size p >= 2")):
            assert main([command, flag, "1"]) == EXIT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"jumpfree: error: witness search requires {message}\n"
    assert built == []


def test_capacity_error_exits_1(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[1, 30]]))
    assert main(["solve", "--input", str(path), "--method", "exhaustive"]) == EXIT_ERROR
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--grid", "100000", "--samples", "1", "--no-cubes"],
        ["gen", "--k", "1000000000"],
        ["check-jumpfree", "--samples", "1000000000000"],
        ["search", "--grid", "3000", "--samples", "0"],
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


def test_universe_without_samples_counts_no_grid_points(capsys):
    # 358,800 cube points and no samples: the grid is never built, so the
    # cap must not count its 300^3 points.
    status, doc = run_json(
        capsys, "search", "--k", "3", "--grid", "300", "--max-domain", "8", "--samples", "0"
    )
    assert status == EXIT_OK
    assert doc["report"]["found"] is True


def test_experiment_generates_members_only_up_to_the_witness(capsys, monkeypatch):
    members, draws = [], []
    real_function, real_sample = jumpfree.families.FiniteFunction, random.Random.sample

    def counting_function(*args, **kwargs):
        members.append(real_function(*args, **kwargs))
        return members[-1]

    def counting_sample(self, *args, **kwargs):
        draws.append(args)
        return real_sample(self, *args, **kwargs)

    monkeypatch.setattr(jumpfree.families, "FiniteFunction", counting_function)
    monkeypatch.setattr(random.Random, "sample", counting_sample)
    argv = ["experiment", "--family", "max", "--p", "3", "--grid", "8", "--max-domain", "64"]
    status, doc = run_json(capsys, *argv, "--samples", "300")
    assert status == EXIT_OK
    assert doc["report"]["witness"]["functionId"] == "max-028"
    assert doc["report"]["witness"]["searchStats"]["functionsExamined"] == 29
    # The 28 members before it have fewer than 3^2 points and stay unbuilt.
    assert len(members) == 1
    assert draws == []


@pytest.mark.parametrize("command", ["search", "experiment"])
def test_empty_universe_exits_1(capsys, command):
    assert main([command, "--samples", "0", "--no-cubes"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "jumpfree: error: cannot generate a family over an empty universe\n"


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
