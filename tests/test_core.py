"""Order-type machinery: signatures, equivalence, fields, cubes."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpfree.core import (
    Cube,
    cubes_in,
    enumerate_order_types,
    iter_cubes,
    order_layout,
    order_signature,
    render_json,
)
from oracles import literal_cubes_in, order_equivalent, render_json as stdlib_render

ktuples = st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=5).map(tuple)


@pytest.mark.parametrize(
    "x, expected",
    [((5, 2, 2), (1, 0, 0)), ((7, 7, 7), (0, 0, 0)), ((0, 1, 2), (0, 1, 2))],
)
def test_order_signature_examples(x, expected):
    assert order_signature(x) == expected


@given(ktuples)
def test_order_signature_is_dense(x):
    sig = order_signature(x)
    assert set(sig) == set(range(len(set(x))))


@given(ktuples)
def test_order_signature_idempotent(x):
    assert order_signature(order_signature(x)) == order_signature(x)


@pytest.mark.parametrize(
    "x, y, expected",
    [
        ((1, 3, 3), (0, 9, 9), True),
        ((1, 2), (2, 1), False),
        ((4, 4), (4, 4), True),
    ],
)
def test_order_equivalent_examples(x, y, expected):
    assert order_equivalent(x, y) is expected


def test_order_equivalent_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        order_equivalent((1, 2), (1, 2, 3))


def test_order_equivalent_matches_signature_exhaustively():
    # Two independent formulations must agree on every ordered pair.
    tuples = list(itertools.product(range(3), repeat=3))
    for x in tuples:
        for y in tuples:
            assert order_equivalent(x, y) == (order_signature(x) == order_signature(y))


@given(ktuples, ktuples)
def test_order_equivalent_matches_signature_random(x, y):
    if len(x) != len(y):
        x, y = x[: min(len(x), len(y))], y[: min(len(x), len(y))]
    assert order_equivalent(x, y) == (order_signature(x) == order_signature(y))


def _fubini(k: int) -> int:
    # Ordered-set-partition counts by direct recurrence: choose the block
    # of lowest rank, then arrange the rest.
    if k == 0:
        return 1
    return sum(math.comb(k, j) * _fubini(k - j) for j in range(1, k + 1))


@pytest.mark.parametrize("k, count", [(1, 1), (2, 3), (3, 13), (4, 75), (5, 541)])
def test_enumerate_order_types_counts(k, count):
    classes = enumerate_order_types(k)
    assert len(classes) == count
    assert count == _fubini(k)
    assert len(classes) <= k**k


@given(
    k=st.integers(1, 4),
    elements=st.sets(st.integers(0, 50), min_size=1, max_size=4).map(sorted),
)
def test_order_layout_matches_grouping_by_signature(k, elements):
    points = list(Cube(tuple(elements), k).points())
    grouped = {}
    for x in points:
        grouped.setdefault(order_signature(x), []).append(x)
    layout = order_layout(len(elements), k)
    assert layout is order_layout(len(elements), k)
    classes = [[points[i] for i in positions] for _, _, positions in layout]
    signatures = [order_signature(xs[0]) for xs in classes]
    assert list(zip(signatures, classes)) == sorted(grouped.items())
    for (label, zero, _), sig in zip(layout, signatures):
        assert label == "(" + ",".join(map(str, sig)) + ")"
        assert zero == sig.index(0)
    assert sorted(i for _, _, positions in layout for i in positions) == list(range(len(points)))
    firsts = [xs[0] for xs in classes]
    for xs in classes:
        assert all(order_equivalent(x, xs[0]) for x in xs)
        assert [order_equivalent(xs[0], y) for y in firsts].count(True) == 1


def test_enumerate_order_types_small_cases():
    assert enumerate_order_types(1) == [(0,)]
    assert enumerate_order_types(2) == [(0, 0), (0, 1), (1, 0)]


def test_enumerate_order_types_are_canonical():
    for k in range(1, 5):
        classes = enumerate_order_types(k)
        assert len(set(classes)) == len(classes)
        for sig in classes:
            assert order_signature(sig) == sig


def test_cube_basics():
    cube = Cube(elements=(2, 5), k=2)
    assert cube.p == 2
    assert cube.min_element == 2
    assert list(cube.points()) == [(2, 2), (2, 5), (5, 2), (5, 5)]


def test_cube_points_count_and_order():
    cube = Cube(elements=(0, 1, 3), k=3)
    pts = list(cube.points())
    assert len(pts) == 3**3
    assert pts == sorted(pts)


@pytest.mark.parametrize("elements", [(), (5, 2), (2, 2)])
def test_cube_rejects_bad_elements(elements):
    with pytest.raises(ValueError):
        Cube(elements=elements, k=2)


def test_cube_json_round_trip():
    cube = Cube(elements=(1, 4, 6), k=2)
    data = cube.to_json_dict()
    assert data == {"elements": [1, 4, 6], "k": 2}
    assert Cube.from_json_dict(data) == cube


def test_cubes_in_examples():
    full = list(itertools.product((0, 1), repeat=2))
    assert [c.elements for c in cubes_in(full, 2)] == [(0, 1)]
    assert [c.elements for c in cubes_in(full + [(5, 5)], 2)] == [(0, 1)]
    assert cubes_in([(0, 0), (0, 1), (1, 1)], 2) == []


def test_cubes_in_full_grid():
    grid = list(itertools.product(range(3), repeat=2))
    found = [c.elements for c in cubes_in(grid, 2)]
    assert found == [(0, 1), (0, 2), (1, 2)]
    assert [c.elements for c in cubes_in(grid, 3)] == [(0, 1, 2)]


def test_cubes_in_matches_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        k = rng.choice((1, 2, 3))
        n_points = rng.randint(0, 12)
        domain = list({tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(n_points)})
        for p in (1, 2, 3):
            got = [c.elements for c in cubes_in(domain, p)]
            assert got == literal_cubes_in(domain, p)
            assert got == sorted(got)


def _multipartite(n, parts):
    # (a, b) with a = b or a, b in different classes mod parts: a complete
    # multipartite graph with loops, whose cubes hold at most parts elements.
    return [(a, b) for a in range(n) for b in range(n) if a == b or (a - b) % parts]


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 3),
    domain=st.sets(st.tuples(*[st.integers(0, 5)] * 3), max_size=60),
    p=st.integers(1, 4),
)
@example(2, {(a, b, 0) for a, b in _multipartite(14, 6)}, 6)
@example(2, {(a, b, 0) for a, b in _multipartite(14, 6)}, 7)
def test_iter_cubes_matches_subset_enumeration(k, domain, p):
    # Points are drawn as triples and cut to arity k.
    domain = {tuple(t[:k]) for t in domain}
    assert [c.elements for c in iter_cubes(domain, p)] == literal_cubes_in(domain, p)


def test_first_cube_of_a_large_grid_is_made_alone():
    # All C(22, 11) = 705,432 cubes of the 22x22 grid would take well over
    # 100 MB; the first one needs only the domain and one element path.
    grid = list(itertools.product(range(22), repeat=2))
    tracemalloc.start()
    try:
        first = next(iter_cubes(grid, 11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == Cube(tuple(range(11)), 2)
    assert peak < 500_000


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**60), 10**60)
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({"b": {}, "a": [[], {}, ()], "": [None, True, False]})
@example([math.nan, math.inf, -math.inf, -0.0, 1e300, -(10**100)])
@example(["\u00e9\u2028\ud83d\x00\x1f\"\\/", "\U0001f600"])
def test_render_json_matches_the_stdlib(value):
    assert render_json(value) == stdlib_render(value)
