"""In-process A/B of two checkouts on one benchmark workload.

Usage: python scripts/ab.py WORKLOAD PARENT CHANGE [--rounds N]

WORKLOAD is one of perfbench's four workloads (experiment, audit, refute,
solve) or `search`, the SEARCH_CASES of scripts/bench.py.  PARENT and
CHANGE are checkout directories.  Each checkout's src/jumpfree is copied
into a temporary directory under its own package name, jf_parent or
jf_change, and both are imported into this one interpreter, so that they
share its state: the process-to-process spread of perfbench runs, a few
per cent on audit and solve, does not enter the ratio.

Each round takes the workload's op list for seed = the round's number
(the pinned pool in a seeded order, or for solve freshly drawn
instances) and runs every op through both programs, in a random order
per op, timing only the CLI calls.  Every output is checked with the
workload's own check (search has none; its cases are only compared), and
the two programs' outputs must be equal once their timings_ms blocks are
masked.  Prints each round's ms per op for both sides, then the median
over rounds of change/parent, and the number of failed checks and of
differing outputs.  Exits 1 if either is not 0.

The op lists and checks are read from perfbench/ and scripts/bench.py of
the checkout holding this script; nothing is written under perfbench/.
Only per-op time is measured: the set-up time (setup_s) and peak memory
(peak_rss_mb) of a perfbench run cannot be seen from one shared process.
"""

import argparse
import gc
import importlib
import json
import random
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/ or scripts/
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]

import bench  # noqa: E402
from child import MODULES  # noqa: E402
from workloads import WORKLOADS, CheckFailed, run_cli  # noqa: E402

SIDES = ("parent", "change")
TIMINGS = re.compile(r'"timings_ms": \{[^{}]*\}')


class Search:
    """scripts/bench.py's SEARCH_CASES, one op each, on documents written to workdir."""

    warmup_op = None

    def ops(self, seed: int, workdir: Path) -> list[dict]:
        bench.write_search_docs(workdir)
        return [
            {"case": case, "argv": [str(workdir / a) if a in bench.SEARCH_DOCS else a for a in argv]}
            for case, argv in bench.SEARCH_CASES.items()
        ]

    def execute(self, op: dict, jf) -> list[tuple[int, str]]:
        return [run_cli(jf, op["argv"])]

    def check(self, op: dict, outputs) -> None:
        pass


def load_program(checkout: Path, package: str, tmp: Path):
    """The program of a checkout, imported under another package name."""
    shutil.copytree(checkout / "src" / "jumpfree", tmp / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    return type("Program", (), mods)


def masked(outputs) -> list:
    return [(rc, TIMINGS.sub('"timings_ms": {}', out)) for rc, out in outputs]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS) + ["search"])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    if args.workload == "search":
        workload = Search()
    else:
        with open(ROOT / "perfbench" / "pinned.json", encoding="utf-8") as fh:
            workload = WORKLOADS[args.workload](json.load(fh))
    ratios, failed, differing = [], 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        programs = {
            side: load_program(checkout, f"jf_{side}", tmp)
            for side, checkout in zip(SIDES, (args.parent, args.change))
        }
        order = random.Random(0)
        for r in range(1, args.rounds + 1):
            workdir = tmp / f"round{r}"
            workdir.mkdir()
            ops = workload.ops(r, workdir)
            if workload.warmup_op is not None:
                for jf in programs.values():
                    workload.execute(workload.warmup_op, jf)
            total = dict.fromkeys(SIDES, 0.0)
            for op in ops:
                outputs = {}
                for side in order.sample(SIDES, 2):
                    gc.collect()
                    t0 = time.perf_counter()
                    outputs[side] = workload.execute(op, programs[side])
                    total[side] += time.perf_counter() - t0
                    try:
                        workload.check(op, outputs[side])
                    except (CheckFailed, LookupError, TypeError, ValueError) as exc:
                        failed += 1
                        print(f"{side}: check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                if masked(outputs["parent"]) != masked(outputs["change"]):
                    differing += 1
                    print(f"outputs differ on {json.dumps(op)[:200]}", file=sys.stderr)
            ms = {side: total[side] * 1000.0 / len(ops) for side in SIDES}
            ratios.append(ms["change"] / ms["parent"])
            print(f"round {r}: {len(ops)} ops, parent {ms['parent']:.3f} ms/op, "
                  f"change {ms['change']:.3f} ms/op, change/parent {ratios[-1]:.3f}")
    print(f"{args.workload}: median change/parent {statistics.median(ratios):.3f} "
          f"over {len(ratios)} rounds; {failed} failed checks, {differing} differing outputs")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
