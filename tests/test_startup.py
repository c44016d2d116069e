"""What a run builds at start-up, each checked in a fresh interpreter: no
module the program does not use, and no parser for an argv the flag table
reads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jumpfree
from jumpfree.cli import COMMANDS

SRC = str(Path(jumpfree.__file__).resolve().parent.parent)


def run_python(code, *argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, jumpfree.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert run_python(code) == "[]\n"


# Runs main on argv, its output swallowed, then prints its exit status and
# which of the modules only some runs use it loaded.
_LOADED = """
import contextlib, io, json, sys
from jumpfree import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = cli.main(sys.argv[1:])
    except SystemExit as exc:
        status = exc.code
print(json.dumps([status, sorted({"argparse", "gettext", "csv"} & set(sys.modules))]))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["--input", "ms.json"], []),
        (["--input", "ms.json", "--format", "csv"], ["csv"]),
        (["--inp", "ms.json"], ["argparse"]),
        (["--help"], ["argparse"]),
    ],
)
def test_a_run_loads_argparse_and_csv_only_when_it_uses_them(tmp_path, argv, loaded):
    path = tmp_path / "ms.json"
    path.write_text("[[3, 1], [-1, 1], [-2, 1]]")
    argv = [str(path) if arg == "ms.json" else arg for arg in argv]
    status, modules = json.loads(run_python(_LOADED, "solve", *argv))
    # argparse brings gettext on some releases; a run with neither loads none.
    assert status == 0
    assert [m for m in modules if m != "gettext"] == loaded
    if not loaded:
        assert modules == []


# Counts every argparse parser built while main parses argv, then prints
# their progs and the config fields argv set; the command does not run.
_COUNT_PARSERS = """
import argparse, contextlib, io, json, sys
from jumpfree import cli

progs, configs = [], []
build = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    progs.append(kwargs.get("prog"))
    build(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
cli.run = lambda cfg: configs.append(cfg) or ("", cli.EXIT_OK)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = cli.main(sys.argv[1:])
    except SystemExit as exc:
        status = exc.code
default = cli.RunConfig(sys.argv[1])
fields = [f for cfg in configs for f in cfg._fields if getattr(cfg, f) != getattr(default, f)]
print(json.dumps([status, progs, fields]))
"""

# A value of each flag that is not its default; the switch is given both ways.
_NOT_DEFAULT = {
    "k": "3",
    "p": "3",
    "grid": "3",
    "max_domain": "4",
    "samples": "0",
    "seed": "1",
    "family": "min",
    "gamma": "zigzag,zigzag,shifted:10",
    "semantics": "set",
    "method": "exhaustive",
    "input": "in.json",
}


def canonical_argv(name):
    argv = [name, "--format", "csv"]
    for flag in COMMANDS[name].flags:
        option = "--" + flag.replace("_", "-")
        argv += ["--cubes", "--no-cubes"] if flag == "cubes" else [option, _NOT_DEFAULT[flag]]
    return argv


@pytest.mark.parametrize("name", COMMANDS)
def test_a_canonical_argv_builds_no_parser(name):
    status, progs, fields = json.loads(run_python(_COUNT_PARSERS, *canonical_argv(name)))
    # Every flag the command takes set its field: --format and one per flag.
    assert (status, progs, len(fields)) == (0, [], len(COMMANDS[name].flags) + 1)


_TOP_LEVEL = ["jumpfree"] + [f"jumpfree {name}" for name in COMMANDS]


@pytest.mark.parametrize(
    "argv, status",
    [
        # An abbreviation, read by argparse alone.
        (["solve", "--inp", "in.json"], 0),
        # A leftover argument, refused by the top-level parser.
        (["solve", "--input", "in.json", "extra"], 1),
    ],
)
def test_other_argv_builds_the_top_level_parser_once(argv, status):
    assert json.loads(run_python(_COUNT_PARSERS, *argv))[:2] == [status, _TOP_LEVEL]
