"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts one child interpreter for the
workload (perfbench/child.py) with PYTHONHASHSEED fixed and the checkout's
src/ first on the path, waits for it, adds its peak resident memory, and
prints the result as the last line of stdout.  The run record, with raw
wall-clock times, is written to perfbench/out/.  Exits 1 without a result
when the program cannot be imported or any step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "jumpfree" / "cli.py").is_file():
        print(f"perfbench: no program at {src}/jumpfree; run from a checkout", file=sys.stderr)
        return 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = HERE / "out" / f"{tag}.json"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--record", str(record),
        "--workdir", str(HERE / ".work" / f"{tag}-{os.getpid()}"),
    ]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("perfbench: child run timed out", file=sys.stderr)
            return 1
    if child.returncode != 0:
        print(f"perfbench: child run exited {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the child is the only process waited for.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
