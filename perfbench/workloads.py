"""The four benchmark workloads: seeded op lists, the CLI calls each op
makes, the output checks, and the traced replay through the public API.

An op is a dict.  `execute` runs it through `cli.main` and returns the
captured (exit code, stdout) of each command; only that call is timed.
`check` raises CheckFailed when an output disagrees with the pinned or
oracle value.  `replay` repeats the op as the sequence of public calls the
CLI handler makes, timing each under a layer name (traced run only).

The experiment, audit and refute ops come from the pool in pinned.json,
whose expected outputs were recorded on the seed commit by pin.py.  The
workload seed picks the order in which the pool is visited.  The solve
instances are generated from the seed, with the decision taken from the
sumset oracle below, which does not use the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

# Layers whose spans sum to the work of one op; cli.overhead_ms is the rest.
# core.cubes_in and predicates.rr are children of families.search, and
# subsetsum.mitm is not run by the CLI, so none of them enters the sum.
TOP_LAYERS = (
    "families.universe_ms",
    "families.gen_ms",
    "families.search_ms",
    "intsets.build_ms",
    "subsetsum.solve_ms",
    "predicates.family_load_ms",
    "predicates.jumpfree_ms",
    "predicates.full_ms",
    "intsets.multiset_load_ms",
)


class CheckFailed(Exception):
    """An op's output disagrees with its expected value."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def run_cli(jf, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = jf.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue()


def valid_certificate(cert, pairs) -> bool:
    """Nonempty, within the source multiplicities, and summing to zero."""
    counts = {v: m for v, m in pairs}
    chosen = cert["chosen"]
    return (
        bool(chosen)
        and all(1 <= m <= counts.get(v, 0) for v, m in chosen)
        and sum(v * m for v, m in chosen) == 0
        and cert["sum"] == 0
    )


GOLDEN = (5**0.5 - 1) / 2


def visit_order(entries: list[dict], rng: random.Random, size=lambda e: e["samples"]) -> list[dict]:
    """Pool entries in blocks holding one entry of every stratum.

    Every prefix of the list then has the same mix of op kinds, whatever
    the seed.  Within a stratum, entries are taken in a golden-ratio
    sequence over their rank by input size, from a seeded start, so any
    prefix also spans small and large inputs evenly.  Both keep a run's
    medians from depending on which entries the seed drew.
    """
    strata: dict[str, list[dict]] = {}
    for e in entries:
        strata.setdefault(e["stratum"], []).append(e)
    keys = sorted(strata)
    for key in keys:
        by_size = sorted(strata[key], key=size)
        start = rng.random()
        points = [(start + i * GOLDEN) % 1.0 for i in range(len(by_size))]
        rank = {p: r for r, p in enumerate(sorted(points))}
        strata[key] = [by_size[rank[p]] for p in points]
    order = []
    for i in range(max(len(v) for v in strata.values())):
        block = [strata[key][i] for key in keys if i < len(strata[key])]
        rng.shuffle(block)
        order.extend(block)
    return order


def universe_flags(e: dict) -> list[str]:
    return [
        "--k", str(e["k"]), "--grid", str(e["grid"]), "--max-domain", str(e["max_domain"]),
        "--samples", str(e["samples"]), "--seed", str(e["seed"]),
    ]


def universe_spec(jf, e: dict):
    return jf.families.UniverseSpec(
        k=e["k"], grid_bound=e["grid"], max_domain_size=e["max_domain"],
        sample_count=e["samples"], seed=e["seed"], include_all_cubes=True,
    )


def pair_index(fam, witness) -> int:
    """1-based position of the witness pair in member-pair scan order."""
    ids = [m.id for m in fam.members]
    return ids.index(witness.id_a) * len(ids) + ids.index(witness.id_b) + 1


# ---------------------------------------------------------------- experiment


def experiment_argv(e: dict) -> list[str]:
    return ["experiment", "--family", e["family"], "--p", str(e["p"]), "--gamma", e["gamma"]] + (
        universe_flags(e)
    )


def experiment_expectation(rc: int, out: str) -> dict:
    """The fields of an experiment report that pin.py records."""
    report = json.loads(out)["report"]
    return {
        "rc": rc,
        "functionId": report["witness"]["functionId"],
        "cube": report["witness"]["cube"]["elements"],
        "solvable_F": report["solvable_F"],
        "solvable_H": report["solvable_H"],
        "f_multiset": report["f_multiset"],
        "h_multiset": report["h_multiset"],
    }


class Experiment:
    name = "experiment"

    def __init__(self, pinned: dict):
        self.pool = pinned["experiment"]
        self.warmup_op = pinned["warmup"]["experiment"]

    def ops(self, seed: int, workdir: Path) -> list[dict]:
        return visit_order(self.pool, random.Random(seed))

    def execute(self, op: dict, jf) -> list[tuple[int, str]]:
        return [run_cli(jf, experiment_argv(op))]

    def check(self, op: dict, outputs) -> None:
        rc, out = outputs[0]
        want = op["expect"]
        expect(rc == want["rc"], f"exit {rc}, expected {want['rc']}")
        report = json.loads(out)["report"]
        got = experiment_expectation(rc, out)
        for key in ("functionId", "cube", "solvable_F", "solvable_H", "f_multiset", "h_multiset"):
            expect(got[key] == want[key], f"{key}: {got[key]!r} != pinned {want[key]!r}")
        for side, ms in (("F", "f_multiset"), ("H", "h_multiset")):
            cert = report["certificate_" + side]
            expect((cert is not None) == want["solvable_" + side], f"certificate_{side} presence")
            if cert is not None:
                expect(valid_certificate(cert, want[ms]), f"certificate_{side} invalid")

    def replay(self, op: dict, jf, tr) -> None:
        fam_mod, core, pred, intsets = jf.families, jf.core, jf.predicates, jf.intsets
        with tr.span("families.universe_ms"):
            universe = fam_mod.build_universe(universe_spec(jf, op))
        with tr.span("families.gen_ms"):
            fam = fam_mod.gen_family(op["family"], universe)
        tr.count("families.members", len(fam))
        with tr.span("families.search_ms") as search:
            witness = fam_mod.find_regressively_regular_witness(fam, op["p"])
        stats = witness.search_stats
        tr.count("families.functions_examined", stats.functions_examined)
        tr.count("families.cubes_examined", stats.cubes_examined)
        # The search again, call by call, to split it into its two layers.
        left = stats.cubes_examined
        for f in fam.members[: stats.functions_examined]:
            with tr.span("core.cubes_in_ms", parent=search):
                cubes = core.cubes_in(f.entries.keys(), op["p"])
            tr.count("core.cubes_found", len(cubes))
            for cube in cubes[:left]:
                with tr.span("predicates.rr_ms", parent=search):
                    pred.regressive_regularity(f, cube)
            left -= min(left, len(cubes))
        f = fam.member(witness.function_id)
        gammas = intsets.GammaTriple.parse(op["gamma"])
        with tr.span("intsets.build_ms"):
            pair = intsets.build_fh(f, witness.cube, gammas=gammas, semantics="multiset")
        tr.count("intsets.multiset_total", sum(ms.total for ms in pair))
        solve_replay(jf, tr, pair)


# --------------------------------------------------------------------- audit


class Audit:
    """gen, then check-jumpfree and check-full on the written document."""

    name = "audit"

    def __init__(self, pinned: dict):
        self.pool = pinned["audit"]
        self.warmup_op = pinned["warmup"]["audit"]
        self.doc = None

    def ops(self, seed: int, workdir: Path) -> list[dict]:
        self.doc = str(workdir / "family.json")
        return visit_order(self.pool, random.Random(seed))

    def execute(self, op: dict, jf) -> list[tuple[int, str]]:
        flags = universe_flags(op)
        gen = run_cli(jf, ["gen", "--family", op["family"]] + flags)
        with open(self.doc, "w", encoding="utf-8") as fh:
            fh.write(gen[1])
        return [
            gen,
            run_cli(jf, ["check-jumpfree", "--input", self.doc]),
            run_cli(jf, ["check-full", "--input", self.doc] + flags),
        ]

    def check(self, op: dict, outputs) -> None:
        expect([rc for rc, _ in outputs] == [0, 0, 0], f"exits {[rc for rc, _ in outputs]}")
        gen, jumpfree, full = (json.loads(out)["report"] for _, out in outputs)
        want = op["expect"]
        expect(gen["members"] == want["members"], f"members {gen['members']} != {want['members']}")
        expect(len(gen["family"]["members"]) == want["members"], "family document size")
        expect(jumpfree["jumpFree"] is True and jumpfree["witness"] is None, "jump-free verdict")
        expect(jumpfree["members"] == want["members"], "check-jumpfree member count")
        expect(full["full"] is True and full["uncovered"] is None, "fullness verdict")
        expect(full["domainsChecked"] == want["domains"], "domains checked")

    def replay(self, op: dict, jf, tr) -> None:
        fam_mod, pred = jf.families, jf.predicates
        spec = universe_spec(jf, op)
        with tr.span("families.universe_ms"):
            universe = fam_mod.build_universe(spec)
        with tr.span("families.gen_ms"):
            fam = fam_mod.gen_family(op["family"], universe)
        tr.count("families.members", len(fam))
        doc = json.loads(json.dumps(fam.to_json_dict()))
        with tr.span("predicates.family_load_ms"):
            fam = pred.Family.from_json_dict(doc)
        jumpfree_replay(jf, tr, fam)
        with tr.span("predicates.family_load_ms"):
            fam = pred.Family.from_json_dict(doc)
        with tr.span("families.universe_ms"):
            universe = fam_mod.build_universe(spec)
        with tr.span("predicates.full_ms"):
            pred.is_full_over(fam, universe)


def jumpfree_replay(jf, tr, fam):
    with tr.span("predicates.jumpfree_ms"):
        witness = jf.predicates.is_jump_free_family(fam)
    total = len(fam) ** 2
    tr.count("predicates.pairs_total", total)
    tr.count("predicates.pairs_scanned", total if witness is None else pair_index(fam, witness))
    return witness


# -------------------------------------------------------------------- refute


class Refute:
    """check-jumpfree on constmin families, which must exit 2."""

    name = "refute"

    def __init__(self, pinned: dict):
        self.pool = pinned["refute"]
        self.warmup_op = pinned["warmup"]["refute"]

    def ops(self, seed: int, workdir: Path) -> list[dict]:
        return visit_order(self.pool, random.Random(seed))

    def execute(self, op: dict, jf) -> list[tuple[int, str]]:
        return [run_cli(jf, ["check-jumpfree", "--family", "constmin"] + universe_flags(op))]

    def check(self, op: dict, outputs) -> None:
        rc, out = outputs[0]
        expect(rc == 2, f"exit {rc}, expected 2")
        doc = json.loads(out)
        want = op["expect"]["witness"]
        expect(doc["report"]["witness"] == want, f"witness {doc['report']['witness']} != {want}")
        expect(doc["violation"] == want, "violation object")

    def replay(self, op: dict, jf, tr) -> None:
        with tr.span("families.universe_ms"):
            universe = jf.families.build_universe(universe_spec(jf, op))
        with tr.span("families.gen_ms"):
            fam = jf.families.gen_family("constmin", universe)
        tr.count("families.members", len(fam))
        jumpfree_replay(jf, tr, fam)


# --------------------------------------------------------------------- solve

VALUE_BOUND = 10**5
SOLVE_SIZES = range(8, 15)
SOLVE_PER_STRATUM = 12
# Target of sum(|v|), the dp table width, per value; met within WEIGHT_SLACK.
# The dp does about n * width steps, so every instance of one size costs
# the same, and the op mix does not change with the seed.
WEIGHT_PER_VALUE = 15_000
WEIGHT_SLACK = 0.05


def zero_sum_exists(pairs) -> bool:
    """Sumset oracle: some nonempty positive-part subset sum equals some
    nonempty negative-part magnitude (or a zero element exists)."""
    pos, neg = {0}, {0}
    for v, m in pairs:
        if v == 0:
            return True
        side = pos if v > 0 else neg
        for _ in range(m):
            side |= {s + abs(v) for s in side}
    return bool((pos & neg) - {0})


def draw_value(rng: random.Random) -> int:
    # Magnitudes log-uniform in [10^2, 10^5], so each instance mixes small
    # and large values across the whole range.
    return rng.choice((-1, 1)) * int(math.exp(rng.uniform(math.log(100), math.log(VALUE_BOUND))))


def draw_instance(rng: random.Random, n: int, planted: bool) -> list[list[int]]:
    """n distinct nonzero values in ±10^5 with no ±v pair and sum(|v|)
    within WEIGHT_SLACK of n * WEIGHT_PER_VALUE, as [value, 1] pairs.
    A planted instance holds a 2-6 element zero-sum subset; an unplanted
    one is redrawn until the oracle finds no zero-sum subset at all."""
    target = n * WEIGHT_PER_VALUE
    while True:
        values: list[int] = []
        if planted:
            values = [draw_value(rng) for _ in range(rng.randint(1, 5))]
            values.append(-sum(values))
        while len(values) < n:
            values.append(draw_value(rng))
        if abs(sum(abs(v) for v in values) - target) > WEIGHT_SLACK * target:
            continue
        if any(v == 0 or abs(v) > VALUE_BOUND for v in values):
            continue
        if len({abs(v) for v in values}) != n:
            continue
        pairs = sorted([v, 1] for v in values)
        if zero_sum_exists(pairs) == planted:
            return pairs


class Solve:
    """solve --input on hard multisets, half of them solvable."""

    name = "solve"

    def __init__(self, pinned: dict):
        self.warmup_op = None

    def ops(self, seed: int, workdir: Path) -> list[dict]:
        rng = random.Random(seed)
        pool = []
        for n in SOLVE_SIZES:
            for planted in (False, True):
                for _ in range(SOLVE_PER_STRATUM):
                    pairs = draw_instance(rng, n, planted)
                    pool.append({"stratum": f"{n}-{planted}", "pairs": pairs, "solvable": planted})
        ops = visit_order(pool, rng, size=lambda e: sum(abs(v) for v, _ in e["pairs"]))
        for i, op in enumerate(ops):
            op["path"] = str(workdir / f"ms{i:04d}.json")
            with open(op["path"], "w", encoding="utf-8") as fh:
                json.dump(op["pairs"], fh)
        # A fixed instance, the same for every seed, warms up.
        pairs = draw_instance(random.Random(0), 11, True)
        self.warmup_op = {"pairs": pairs, "solvable": True, "path": str(workdir / "warmup.json")}
        with open(self.warmup_op["path"], "w", encoding="utf-8") as fh:
            json.dump(pairs, fh)
        return ops

    def execute(self, op: dict, jf) -> list[tuple[int, str]]:
        return [run_cli(jf, ["solve", "--input", op["path"]])]

    def check(self, op: dict, outputs) -> None:
        rc, out = outputs[0]
        expect(rc == 0, f"exit {rc}, expected 0")
        report = json.loads(out)["report"]
        expect(report["solvable"] == op["solvable"], f"decision {report['solvable']}")
        cert = report["certificate"]
        expect((cert is not None) == op["solvable"], "certificate presence")
        if cert is not None:
            expect(valid_certificate(cert, op["pairs"]), "certificate invalid")

    def replay(self, op: dict, jf, tr) -> None:
        with tr.span("intsets.multiset_load_ms"):
            ms = jf.intsets.IntMultiset.from_pairs(op["pairs"])
        solve_replay(jf, tr, (ms,))


def solve_replay(jf, tr, multisets) -> None:
    ss = jf.subsetsum
    with tr.span("subsetsum.solve_ms"):
        decisions = [ss.solve_subset_sum(ms) is not None for ms in multisets]
    for ms in multisets:
        tr.count("subsetsum.items", ms.total)
        tr.count("subsetsum.weight", sum(abs(v) * m for v, m in ms.items()))
    tr.count("subsetsum.solved", len(decisions))
    tr.count("subsetsum.solvable", sum(decisions))
    if "mitm" in ss.METHODS:
        with tr.span("subsetsum.mitm_ms"):
            for ms in multisets:
                ss.solve_subset_sum(ms, "mitm")


WORKLOADS = {cls.name: cls for cls in (Experiment, Audit, Refute, Solve)}
