"""Build the op pools of the pinned workloads and record their outputs.

    PYTHONPATH=src python3 perfbench/pin.py

Draws the experiment, audit and refute pools from a fixed seed, runs every
entry through the CLI of the checked-out program, and writes the outputs
the benchmark checks (witnesses, verdicts, decisions, multisets) to
perfbench/pinned.json.  Run it on the commit whose outputs are the
reference; the benchmark never rewrites the file.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import jumpfree.cli

from workloads import experiment_argv, experiment_expectation, run_cli, universe_flags

POOL_SEED = 20240401
HERE = Path(__file__).resolve().parent

SHIFTED = "shifted"
EXPERIMENT_PER_STRATUM = 12
AUDIT_PER_STRATUM = 24
REFUTE_PER_STRATUM = 40

# (k, grid, max_domain, samples low, samples high)
AUDIT_SHAPES = ((2, 5, 9, 80, 120), (3, 4, 8, 120, 180))
REFUTE_SHAPES = (
    (2, 5, 9, 80, 120),
    (2, 5, 16, 80, 120),
    (2, 6, 16, 100, 160),
    (3, 4, 27, 100, 150),
)


def gamma(kind: str, rng: random.Random) -> str:
    if kind != SHIFTED:
        return "zigzag,zigzag,zigzag"
    # Offsets larger than any zigzag image of a grid-8 value keep zero out.
    low, mid, high = -rng.randint(100, 800), rng.randint(5, 20), rng.randint(100, 800)
    return f"shifted:{low},shifted:{mid},shifted:{high}"


def universe(rng: random.Random, k: int, grid: int, max_domain: int, lo: int, hi: int) -> dict:
    return {"k": k, "grid": grid, "max_domain": max_domain,
            "samples": rng.randint(lo, hi), "seed": rng.randrange(10**6)}


def experiment_pool(rng):
    for family in ("max", "min", "predmin"):
        for p in (3, 4, 5):
            for kind in ("zigzag", SHIFTED):
                for _ in range(EXPERIMENT_PER_STRATUM):
                    yield {"stratum": f"{family}-{p}-{kind}", "family": family, "p": p,
                           "gamma": gamma(kind, rng), **universe(rng, 2, 8, 64, 150, 300)}


def audit_pool(rng):
    for family in ("max", "min", "predmin"):
        for shape in AUDIT_SHAPES:
            for _ in range(AUDIT_PER_STRATUM):
                yield {"stratum": f"{family}-k{shape[0]}", "family": family, **universe(rng, *shape)}


def refute_pool(rng):
    for i, shape in enumerate(REFUTE_SHAPES):
        for _ in range(REFUTE_PER_STRATUM):
            yield {"stratum": f"shape{i}", **universe(rng, *shape)}


def pin_experiment(jf, e):
    rc, out = run_cli(jf, experiment_argv(e))
    return experiment_expectation(rc, out)


def pin_audit(jf, e):
    flags = ["--family", e["family"]] + universe_flags(e)
    gen = json.loads(run_cli(jf, ["gen"] + flags)[1])["report"]
    full = json.loads(run_cli(jf, ["check-full"] + flags)[1])["report"]
    return {"members": gen["members"], "domains": full["domainsChecked"]}


def pin_refute(jf, e):
    rc, out = run_cli(jf, ["check-jumpfree", "--family", "constmin"] + universe_flags(e))
    if rc != 2:
        raise SystemExit(f"refute entry {e} exited {rc}")
    return {"witness": json.loads(out)["report"]["witness"]}


def main() -> None:
    jf = SimpleNamespace(cli=jumpfree.cli)
    rng = random.Random(POOL_SEED)
    pinned = {"warmup": {}}
    for name, pool, pin in (
        ("experiment", experiment_pool, pin_experiment),
        ("audit", audit_pool, pin_audit),
        ("refute", refute_pool, pin_refute),
    ):
        entries = list(pool(rng))
        for e in entries:
            e["expect"] = pin(jf, e)
        # One extra entry of the last, heaviest stratum warms up; never timed.
        warmup = list(pool(rng))[-1]
        warmup["expect"] = pin(jf, warmup)
        pinned[name], pinned["warmup"][name] = entries, warmup
        print(f"{name}: {len(entries)} entries", file=sys.stderr)
    with open(HERE / "pinned.json", "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
