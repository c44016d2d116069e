"""One benchmark run of one workload, in its own interpreter.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --record FILE

run.py starts this with a fixed PYTHONHASHSEED and src/ of the checkout on
the path.  It sets the workload up three times, then calls ops in a closed
loop, one at a time, for S seconds.  A fixed reference loop runs between
every two timed calls, and each timing is scaled by REF_MS / (mean of the
loop times before and after it): a slower or faster host moves the loop
and the op alike, so the ratio stays.  With --trace 1 each op is also
replayed call by call through the public API, and the per-layer means are
reported instead.

Prints one JSON object on stdout; the full run record, with the raw
times, goes to FILE.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from workloads import TOP_LAYERS, WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
MODULES = ("cli", "core", "families", "intsets", "predicates", "subsetsum")
SETUP_REPEATS = 3

# Time of reference_loop() on the reference host, in ms: a round value
# within the 15-27 ms the loop took on the 2-vCPU VM (Python 3.11.7) the
# benchmark was written on, whose speed moved between those levels.
# Fixed, so a normalised time reads as the time the op would take there.
REF_MS = 20.0
# Two loop times further apart than this share mean the host changed speed.
STEADY_REF_CHANGE = 0.1
MAX_ATTEMPTS = 2

_REF_POINTS = tuple((a, b) for a in range(12) for b in range(12))
_REF_ROUNDS = 130


def reference_loop() -> int:
    """Dict, set and tuple work of the kind the program does: build a map
    over points, take level sets, test membership and subsets, sort."""
    total = 0
    for r in range(_REF_ROUNDS):
        level = r % 12
        values = {x: max(x) for x in _REF_POINTS}
        low = {x for x, v in values.items() if v < level}
        high = {x for x in _REF_POINTS if min(x) >= level}
        total += (low <= high) + len(sorted(low | high))
        for x in _REF_POINTS:
            if x in low and (x[1], x[0]) in values:
                total += values[x]
    return total


def reference_ms() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - t0) * 1000.0


def import_program():
    """Import (again) every module of the program, so set-up pays for it."""
    for name in [n for n in sys.modules if n == "jumpfree" or n.startswith("jumpfree.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module("jumpfree." + m) for m in MODULES}
    return type("Program", (), mods)


class Tracer:
    """Spans and counters of one replayed op, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.op = None

    @contextmanager
    def span(self, name: str, parent: dict | None = None):
        span = {"op": self.op, "name": name, "parent": None if parent is None else parent["name"]}
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            span["start_s"] = t0
            span["ms"] = (time.perf_counter() - t0) * 1000.0
            self.spans.append(span)

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def timed(fn, ref: float, deadline: float = float("inf")):
    """Run fn between two reference loops; return (fn's value, timing, loop time after).

    `ref` is the loop time measured right before.  When the loop after
    differs from it by more than STEADY_REF_CHANGE, the host changed speed
    during the call, and fn runs again, up to MAX_ATTEMPTS times and not
    past the deadline.  The loop time after serves as the next call's `ref`.
    """
    for attempt in range(1, MAX_ATTEMPTS + 1):
        ref_before = ref
        gc.collect()
        t0 = time.perf_counter()
        value = fn()
        raw = (time.perf_counter() - t0) * 1000.0
        ref = reference_ms()
        if abs(ref - ref_before) <= STEADY_REF_CHANGE * min(ref, ref_before):
            break
        if time.perf_counter() > deadline:
            break
    scale = REF_MS / ((ref_before + ref) / 2)
    timing = {"raw_ms": raw, "ref_before_ms": ref_before, "ref_after_ms": ref,
              "ms": raw * scale, "scale": scale, "attempts": attempt}
    return value, timing, ref


def execute(workload, op, jf, failures: list):
    try:
        return workload.execute(op, jf)
    except Exception:  # a crash in the program is a failed op, not an abort
        failures.append(traceback.format_exc())
        return None


def passes(workload, op, outputs, failures: list) -> bool:
    if outputs is None:
        return False
    try:
        workload.check(op, outputs)
    except (CheckFailed, LookupError, TypeError, ValueError) as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
        return False
    return True


def run_op(workload, op, jf, ref: float, deadline: float, trace: Tracer | None, failures: list):
    """Time one op, check its outputs, and with tracing on replay it.

    Returns the op's result and the loop time that serves as the next `ref`.
    """
    outputs, result, ref = timed(lambda: execute(workload, op, jf, failures), ref, deadline)
    result["ok"] = passes(workload, op, outputs, failures)
    if trace is not None:
        result["output_bytes"] = sum(len(out) for _, out in outputs) if result["ok"] else 0
        first = len(trace.spans)

        def replay_once():
            del trace.spans[first:]
            trace.counts = {}
            workload.replay(op, jf, trace)

        _, replay, ref = timed(replay_once, ref, deadline)
        layers: dict[str, float] = {}
        for span in trace.spans[first:]:
            span["ms_norm"] = span["ms"] * replay["scale"]
            layers[span["name"]] = layers.get(span["name"], 0.0) + span["ms_norm"]
        result["layers"], result["counts"] = layers, trace.counts
    return result, ref


def setup(workload, seed: int, workdir: Path, ref: float, failures: list):
    """Import the program, generate and write the inputs, run the warm-up op.

    Returns the program, the op list, the timing, whether the warm-up op
    passed its check, and the next `ref`.
    """

    def once():
        jf = import_program()
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        ops = workload.ops(seed, workdir)
        return jf, ops, execute(workload, workload.warmup_op, jf, failures)

    (jf, ops, outputs), timing, ref = timed(once, ref)
    ok = passes(workload, workload.warmup_op, outputs, failures)
    return jf, ops, timing, ok, ref


def end_to_end(results: list[dict], setups: list[dict]) -> dict:
    ms = [r["ms"] for r in results]
    done = sum(r["ok"] for r in results)
    return {
        "ops_per_s": {"value": done / (sum(ms) / 1000.0), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(ms, n=10, method="inclusive")[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(s["ms"] for s in setups) / 1000.0, "unit": "s"},
    }


COUNT_UNITS = {
    "families.members": "count",
    "families.functions_examined": "count",
    "families.cubes_examined": "count",
    "core.cubes_found": "count",
    "predicates.pairs_scanned": "count",
    "predicates.pairs_total": "count",
    "intsets.multiset_total": "count",
    "subsetsum.items": "count",
    "subsetsum.weight": "count",
}
LAYER_TIMES = TOP_LAYERS + ("core.cubes_in_ms", "predicates.rr_ms", "subsetsum.mitm_ms")


def per_layer(results: list[dict]) -> dict:
    """Mean per op of every layer time and counter; zero where the workload
    never enters the layer."""
    n = len(results)
    metrics = {"cli.op_ms": {"value": sum(r["ms"] for r in results) / n, "unit": "ms"}}
    for name in LAYER_TIMES:
        metrics[name] = {"value": sum(r["layers"].get(name, 0.0) for r in results) / n, "unit": "ms"}
    overhead = sum(r["ms"] - sum(r["layers"].get(l, 0.0) for l in TOP_LAYERS) for r in results)
    metrics["cli.overhead_ms"] = {"value": overhead / n, "unit": "ms"}
    metrics["cli.output_bytes"] = {"value": sum(r["output_bytes"] for r in results) / n, "unit": "bytes"}
    for name, unit in COUNT_UNITS.items():
        metrics[name] = {"value": sum(r["counts"].get(name, 0) for r in results) / n, "unit": unit}
    solved = sum(r["counts"].get("subsetsum.solved", 0) for r in results)
    solvable = sum(r["counts"].get("subsetsum.solvable", 0) for r in results)
    metrics["subsetsum.solvable_ratio"] = {"value": solvable / solved if solved else 0.0, "unit": "ratio"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    with open(HERE / "pinned.json", encoding="utf-8") as fh:
        workload = WORKLOADS[args.workload](json.load(fh))
    workdir = Path(args.workdir)
    failures: list[str] = []
    setups = []
    warmups_failed = 0
    ref = reference_ms()
    for _ in range(SETUP_REPEATS):
        jf, ops, timing, warmup_ok, ref = setup(workload, args.seed, workdir, ref, failures)
        setups.append(timing)
        warmups_failed += not warmup_ok

    trace = Tracer() if args.trace else None
    results = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(results) < 2:
        op = ops[len(results) % len(ops)]
        if trace is not None:
            trace.op = len(results)
        result, ref = run_op(workload, op, jf, ref, deadline, trace, failures)
        results.append(result)
    shutil.rmtree(workdir)

    # Warm-up ops are checked and counted too, though never timed.
    failed = sum(not r["ok"] for r in results) + warmups_failed
    metrics = per_layer(results) if trace else end_to_end(results, setups)
    summary = {"correct": failed == 0, "attempted": len(results) + SETUP_REPEATS,
               "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "ref_ms_constant": REF_MS,
        "summary": summary, "setups": setups, "failures": failures[:20],
        "ops": [{k: v for k, v in r.items() if k not in ("layers", "counts")} for r in results],
    }
    Path(args.record).parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    if trace is not None:
        with open(Path(args.record).with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in trace.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
