"""Run the benchmark on the working tree and write its medians to BENCH_<label>.json.

Usage: python scripts/bench.py LABEL

Runs `perfbench/run.py --trace 0` once per workload named in
BENCHMARK.json and per seed in SEEDS, for the run length BENCHMARK.json
sets, one run at a time, then writes BENCH_<LABEL>.json at the root of
the checkout: per workload, the median of each end-to-end metric over
the seeds and every run's own values with its attempted and failed op
counts, plus the Python version, os.cpu_count() and `git rev-parse HEAD`
(with whether the working tree differed from it).  Exits 1 without
writing when any run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fixed, so that BENCH_*.json files of different commits are comparable.
SEEDS = (1, 2, 3)


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
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
