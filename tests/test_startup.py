"""What a run builds at start-up, each checked in a fresh interpreter: no
module the program does not use, and only the parser its argv needs."""

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


# Counts every _Parser built while main runs, then prints their progs.
_COUNT_PARSERS = """
import contextlib, io, json, sys
from jumpfree import cli

progs = []
build = cli._Parser.__init__

def counting(self, *args, **kwargs):
    progs.append(kwargs.get("prog"))
    build(self, *args, **kwargs)

cli._Parser.__init__ = counting
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = cli.main(sys.argv[1:])
    except SystemExit as exc:
        status = exc.code
print(json.dumps([status, progs]))
"""


@pytest.mark.parametrize(
    "extra, status, progs",
    [
        ([], 0, ["jumpfree solve"]),
        # A leftover argument is refused by the top-level parser, built only then.
        (["extra"], 1, ["jumpfree solve", "jumpfree"] + [f"jumpfree {c}" for c in COMMANDS]),
    ],
)
def test_a_command_builds_only_its_own_parser(tmp_path, extra, status, progs):
    path = tmp_path / "ms.json"
    path.write_text("[[3, 1], [-1, 1], [-2, 1]]")
    out = run_python(_COUNT_PARSERS, "solve", "--input", str(path), *extra)
    assert json.loads(out) == [status, progs]
