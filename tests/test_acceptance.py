"""Acceptance gate: six checks, each printing one PASS/FAIL line with its
runtime and failing when it exceeds its budget.  Run with -s to see the
lines on success; pytest -v also shows one verdict per criterion."""

import itertools
import json
import random
import time

from jumpfree.cli import EXIT_OK, main as cli_main
from jumpfree.core import Cube, enumerate_order_types, order_signature
from jumpfree.families import (
    UniverseSpec,
    build_universe,
    find_regressively_regular_witness,
    gen_family,
)
from jumpfree.intsets import IntMultiset, build_fh
from jumpfree.predicates import (
    VIOLATED,
    FiniteFunction,
    is_jump_free_family,
    regressive_regularity,
)
from jumpfree.subsetsum import solve_subset_sum
from oracles import is_valid_certificate, literal_order_types, order_equivalent


class Criterion:
    """Times one acceptance check and prints its verdict line."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed <= self.budget_s
        print(f"[acceptance {self.number}] {self.label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
        if exc_type is None and elapsed > self.budget_s:
            raise AssertionError(
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget_s}s"
            )
        return False


def test_criterion_1_order_type_suite():
    with Criterion(1, "order-type suite", 10.0):
        small = list(itertools.product(range(3), repeat=3))
        for x in small:
            for y in small:
                assert order_equivalent(x, y) == (order_signature(x) == order_signature(y))

        # Pool of 27^3 = 19,683 arity-3 tuples, sampled pairwise.
        pool = list(itertools.product(range(27), repeat=3))
        assert len(pool) == 19_683
        rng = random.Random(0)
        equivalent_seen = 0
        for _ in range(100_000):
            x, y = rng.choice(pool), rng.choice(pool)
            same = order_equivalent(x, y)
            assert same == (order_signature(x) == order_signature(y))
            equivalent_seen += same
        assert equivalent_seen > 0

        for k, expected in [(1, 1), (2, 3), (3, 13), (4, 75)]:
            assert len(enumerate_order_types(k)) == expected
        for k in range(1, 6):
            assert enumerate_order_types(k) == literal_order_types(k)
            assert len(enumerate_order_types(k)) <= k**k


def test_criterion_2_jump_free_fixtures():
    with Criterion(2, "jump-free fixtures", 30.0):
        universe = build_universe(
            UniverseSpec(
                k=2,
                grid_bound=4,
                max_domain_size=8,
                sample_count=50,
                seed=0,
                include_all_cubes=True,
            )
        )
        for kind in ("max", "min", "predmin"):
            assert is_jump_free_family(gen_family(kind, universe)) is None, kind
        assert is_jump_free_family(gen_family("constmin", universe)) is not None

        hand_pair = gen_family("constmin", [((1, 2), (0, 9)), ((1, 2),)])
        witness = is_jump_free_family(hand_pair)
        assert witness is not None
        assert witness.x == (1, 2)
        assert (witness.value_a, witness.value_b) == (0, 1)


def _classify_brute(values_by_point, min_e):
    by_class = {}
    for x, v in values_by_point.items():
        by_class.setdefault(order_signature(x), []).append((x, v))
    verdicts = {}
    for sig, pts in by_class.items():
        vals = {v for _, v in pts}
        if len(vals) == 1 and next(iter(vals)) < min_e:
            verdicts[sig] = "case1"
        elif all(v >= min(x) for x, v in pts):
            verdicts[sig] = "case2"
        else:
            verdicts[sig] = VIOLATED
    return verdicts


def _label(sig):
    return "(" + ",".join(map(str, sig)) + ")"


def test_criterion_3_regularity_oracle():
    with Criterion(3, "regularity oracle", 5.0):
        rng = random.Random(0)
        for i in range(500):
            p = rng.choice((2, 3))
            elements = tuple(sorted(rng.sample(range(10), p)))
            cube = Cube(elements=elements, k=2)
            values = {x: rng.randint(0, 9) for x in cube.points()}
            f = FiniteFunction(id=f"r{i}", k=2, entries=values)
            report = regressive_regularity(f, cube)
            expected = _classify_brute(values, cube.min_element)
            got = {sig: v["kind"] for sig, v in report["perClass"].items()}
            expected = {_label(sig): kind for sig, kind in expected.items()}
            assert got == expected, (elements, values)
            assert report["overall"] == all(v != VIOLATED for v in expected.values())


def test_criterion_4_set_version_chain():
    with Criterion(4, "set-version chain", 10.0):
        universe = build_universe(
            UniverseSpec(
                k=2,
                grid_bound=4,
                max_domain_size=16,
                sample_count=50,
                seed=0,
                include_all_cubes=True,
            )
        )
        for kind in ("max", "min", "predmin"):
            fam = gen_family(kind, universe)
            for p in (2, 3):
                witness = find_regressively_regular_witness(fam, p)
                assert witness is not None, (kind, p)
                f = witness.function
                f_ms, h_ms = build_fh(f, witness.cube)
                assert f_ms == h_ms, (kind, p)
                assert f_ms.total == p**2, (kind, p)

                # One value forced into the middle interval must split the
                # multisets: the diagonal top point has room below its own
                # minimum and above the cube minimum.
                cube = witness.cube
                top = (cube.elements[-1],) * 2
                broken = dict(f.entries)
                broken[top] = cube.min_element
                f2 = FiniteFunction(id="broken", k=2, entries=broken)
                f2_ms, h2_ms = build_fh(f2, cube)
                assert f2_ms != h2_ms, (kind, p)


def test_criterion_5_solver_oracle():
    with Criterion(5, "solver oracle", 20.0):
        rng = random.Random(0)
        for _ in range(2000):
            size = rng.randint(0, 12)
            ms = IntMultiset.from_values(rng.randint(-9, 9) for _ in range(size))
            oracle = solve_subset_sum(ms, "exhaustive")
            cert = solve_subset_sum(ms, "dp")
            assert (cert is None) == (oracle is None), ms
            if cert is not None:
                assert is_valid_certificate(cert, ms), ms
            if oracle is not None:
                assert is_valid_certificate(oracle, ms), ms


def test_criterion_6_corollary_experiment(tmp_path, capsys):
    with Criterion(6, "corollary experiment", 5.0):
        family = {
            "k": 2,
            "members": [
                {
                    "id": "max-000",
                    "k": 2,
                    "entries": [[[2, 2], 2], [[2, 5], 5], [[5, 2], 5], [[5, 5], 5]],
                }
            ],
        }
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family))
        argv = ["experiment", "--input", str(path), "--p", "2"]

        status = cli_main(argv)
        first = capsys.readouterr().out
        assert status == EXIT_OK
        report = json.loads(first)["report"]
        assert report["fh_equal"] is True
        assert report["f_multiset"] == [[-1, 1], [3, 3]]
        assert report["solvable_F"] is False
        assert report["solvable_H"] is False
        assert report["agreement"] is True

        # Independent oracle confirmation of the pinned decision.
        ms = IntMultiset.from_pairs(report["f_multiset"])
        assert solve_subset_sum(ms, "exhaustive") is None

        status = cli_main(argv)
        second = capsys.readouterr().out
        assert status == EXIT_OK
        a, b = json.loads(first), json.loads(second)
        del a["report"]["timings_ms"], b["report"]["timings_ms"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
