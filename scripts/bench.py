"""Run the benchmark on the working tree and write its medians to BENCH_<label>.json.

Usage: python scripts/bench.py LABEL

Runs `perfbench/run.py --trace 0` once per workload named in
BENCHMARK.json and per seed in SEEDS, for the run length BENCHMARK.json
sets, one run at a time, then writes BENCH_<LABEL>.json at the root of
the checkout: per workload, the median of each end-to-end metric over
the seeds and every run's own values with its attempted and failed op
counts, plus the Python version, os.cpu_count() and `git rev-parse HEAD`
(with whether the working tree differed from it).  A `search` block
times each of SEARCH_CASES through cli.main in this process: witness
searches, and generation and jump-free checks over a sampled universe,
all past the pinned pools' sizes.  Each records the median of 3 wall
times, the exit code and the sha256 of stdout with the solve timings
zeroed, so a digest that moves between two BENCH files marks a changed
output.  A `startup` block records the median wall time of STARTUP_RUNS
fresh interpreters for each of STARTUP_CASES, with src/ on PYTHONPATH, and
whether PYTHONDONTWRITEBYTECODE was set (then every run compiles src/).
perfbench re-imports only the program's own modules, so only this block
shows start-up costs paid once per process, such as stdlib imports.
Exits 1 without writing when any run fails.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fixed, so that BENCH_*.json files of different commits are comparable.
SEEDS = (1, 2, 3)

# One-member k = 2 documents on the n x n grid: name -> (n, value, points left out).
SEARCH_DOCS = {
    "grid20.json": (20, lambda x: max(min(x) - 1, 0), ()),
    "grid16.json": (16, lambda x: max(min(x) - 1, 0), ()),
    "zero16.json": (16, lambda x: 0, ()),
    "zero16_lookup.json": (16, lambda x: 0, ((15, 0),)),
}
SEARCH_CASES = {
    # C(20, 10) cubes and no witness: the work budget refuses it.
    "grid20_refusal": ["search", "--input", "grid20.json", "--p", "10"],
    "grid16_no_witness": ["search", "--input", "grid16.json", "--p", "8"],
    # Witness (1, ..., 8) after every cube holding 0: a full power, then the
    # lookup path.
    "zero16": ["search", "--input", "zero16.json", "--p", "8"],
    "zero16_lookup": ["search", "--input", "zero16_lookup.json", "--p", "8"],
    # Universes whose cube classes too small for a p-cube are never built.
    "max_grid18_p16": (
        "experiment --family max --k 2 --samples 0 --grid 18 --max-domain 256 --p 16".split()
    ),
    "max_grid20_p20": (
        "experiment --family max --k 2 --samples 0 --grid 20 --max-domain 400 --p 20".split()
    ),
    "min_grid24_p24": (
        "experiment --family min --k 2 --samples 0 --grid 24 --max-domain 576 --p 24".split()
    ),
    # The 12,870 members of the size-8 class hold no witness; the first of
    # size 9 is it.
    "predmin_grid16_p8": (
        "search --family predmin --k 2 --grid 16 --max-domain 256 --samples 0 --p 8".split()
    ),
    "constmin_grid16_p8": (
        "search --family constmin --k 2 --grid 16 --max-domain 256 --samples 0 --p 8".split()
    ),
    # The 6,780-member universe of 3,000 draws: predmin is jump free (exit 0);
    # constmin is not, with witness constmin-3785 / constmin-011 at (2, 2).
    "gen_predmin_6780": (
        "gen --family predmin --k 2 --grid 12 --max-domain 64 --samples 3000".split()
    ),
    "jumpfree_predmin_6780": (
        "check-jumpfree --family predmin --k 2 --grid 12 --max-domain 64 --samples 3000".split()
    ),
    "jumpfree_constmin_6780": (
        "check-jumpfree --family constmin --k 2 --grid 12 --max-domain 64 --samples 3000".split()
    ),
}

STARTUP_RUNS = 11
STARTUP_CASES = {
    "python_pass": ["-c", "pass"],
    "import_cli": ["-c", "import jumpfree.cli"],
    "experiment_grid4": ["-m", "jumpfree", "experiment", "--grid", "4"],
}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def write_search_docs(directory) -> None:
    """Write each document of SEARCH_DOCS into directory, under its name."""
    for name, (n, value, left_out) in SEARCH_DOCS.items():
        points = [(a, b) for a in range(n) for b in range(n) if (a, b) not in left_out]
        member = {"id": "m", "k": 2, "entries": [[list(x), value(x)] for x in points]}
        Path(directory, name).write_text(json.dumps({"k": 2, "members": [member]}))


def run_search_cases() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from jumpfree import cli

    block, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_search_docs(tmp)
        os.chdir(tmp)  # the documents are named relative to it, as the output echoes them
        try:
            for case, argv in SEARCH_CASES.items():
                times = []
                for _ in range(3):
                    out, err = io.StringIO(), io.StringIO()
                    start = time.perf_counter()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        status = cli.main(argv)
                    times.append((time.perf_counter() - start) * 1000)
                text = re.sub(r'("solve_[FH]": )[-0-9.e]+', r"\g<1>0", out.getvalue())
                block[case] = {
                    "argv": argv,
                    "median_ms": statistics.median(times),
                    "exit": status,
                    "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
                }
                summary = f"{block[case]['median_ms']:.1f} ms, exit {status}"
                print(f"search {case}: {summary}", file=sys.stderr)
        finally:
            os.chdir(cwd)
    return block


def run_startup_cases() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    block = {"dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}
    for case, argv in STARTUP_CASES.items():
        times = []
        for _ in range(STARTUP_RUNS):
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=env, check=True, capture_output=True)
            times.append((time.perf_counter() - start) * 1000)
        block[case] = {"argv": argv, "runs": STARTUP_RUNS, "median_ms": statistics.median(times)}
        print(f"startup {case}: {block[case]['median_ms']:.1f} ms", file=sys.stderr)
    return block


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="the output file is BENCH_<label>.json")
    args = parser.parse_args()
    seconds = benchmark["run_seconds"]

    metrics = [m["name"] for m in benchmark["end_to_end"]]
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for seed in SEEDS:
            try:
                runs.append(run_once(workload, seed, seconds))
            except RuntimeError as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        workloads[workload] = {
            "median": {m: statistics.median(r["metrics"][m] for r in runs) for m in metrics},
            "runs": runs,
        }
    record = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_head": git("rev-parse", "HEAD"),
        "worktree_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
        "search": run_search_cases(),
        "startup": run_startup_cases(),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
