"""The scripts under scripts/ run against the package and print their summaries."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_scripts_run_and_summarize():
    sweep = run_script("family_sweep.py", "--seeds", "1", "--samples", "5")
    assert sweep[0] == "universe: k=2 grid=4 max_domain=8 samples=5, witness search at p=2"
    assert sweep[-4:] == [
        "max: jump-free violations on 0/1 seeds",
        "min: jump-free violations on 0/1 seeds",
        "predmin: jump-free violations on 0/1 seeds",
        "constmin: jump-free violations on 1/1 seeds",
    ]
    census = run_script("order_type_census.py", "--max-k", "3")
    # k, classes, expected (ordered set partitions) and the k^k bound.
    assert [row.split()[:4] for row in census[1:]] == [
        ["1", "1", "1", "1"],
        ["2", "3", "3", "4"],
        ["3", "13", "13", "27"],
    ]
    assert not any("MISMATCH" in row for row in census)


def test_readme_library_example_runs():
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n") :]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_ab_of_a_checkout_against_itself_finds_no_difference():
    root = str(SCRIPTS.parent)
    lines = run_script("ab.py", "solve", root, root, "--rounds", "1")
    assert lines[0].startswith("round 1: 168 ops, parent ")
    assert lines[-1].startswith("solve: median change/parent ")
    assert lines[-1].endswith(" over 1 rounds; 0 failed checks, 0 differing outputs")
