"""Universe generation, rule families, and the regularity witness search."""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpfree import families
from jumpfree.core import CapacityError
from jumpfree.families import (
    FAMILY_KINDS,
    UniverseSpec,
    build_universe,
    find_regressively_regular_witness,
    gen_family,
    iter_family,
    iter_universe,
)
from jumpfree.predicates import (
    Family,
    FiniteFunction,
    is_full_over,
    is_jump_free_family,
    jump_free_violation,
    regressive_regularity,
)
from oracles import is_reflexive, literal_gen_family, literal_search_work, literal_universe


def spec(**overrides):
    base = dict(
        k=2, grid_bound=3, max_domain_size=9, sample_count=0, seed=0, include_all_cubes=True
    )
    base.update(overrides)
    return UniverseSpec(**base)


def test_universe_spec_validation():
    with pytest.raises(ValueError):
        spec(k=0)
    with pytest.raises(ValueError):
        spec(grid_bound=1)
    with pytest.raises(ValueError):
        spec(max_domain_size=0)
    with pytest.raises(ValueError):
        spec(sample_count=-1)


def test_universe_spec_json_round_trip():
    s = spec(sample_count=5, seed=3)
    data = s.to_json_dict()
    assert data == {
        "k": 2,
        "gridBound": 3,
        "maxDomainSize": 9,
        "sampleCount": 5,
        "seed": 3,
        "includeAllCubes": True,
    }


def test_build_universe_all_cubes_small_grid():
    universe = build_universe(spec(max_domain_size=4))
    expected = [
        tuple(itertools.product(e, repeat=2)) for e in [(0, 1), (0, 2), (1, 2)]
    ]
    assert universe == expected


def test_build_universe_includes_full_cube_when_it_fits():
    universe = build_universe(spec(max_domain_size=9))
    assert len(universe) == 4
    assert universe[-1] == tuple(itertools.product(range(3), repeat=2))


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"k": 3, "grid_bound": 4, "max_domain_size": 27, "sample_count": 20},
        {"grid_bound": 6, "max_domain_size": 16, "sample_count": 40, "seed": 5},
        {"k": 1, "grid_bound": 9, "max_domain_size": 4, "sample_count": 7},
    ],
)
def test_universe_guard_bounds_the_points_built(monkeypatch, overrides):
    s = spec(**overrides)
    grid_points = s.grid_bound**s.k if s.sample_count else 0  # the grid is built to sample from
    points = grid_points + sum(map(len, build_universe(s)))
    monkeypatch.setattr(families, "UNIVERSE_MAX_POINTS", points - 1)
    with pytest.raises(CapacityError, match="universe"):
        build_universe(s)


def test_universe_with_huge_arity_never_builds_the_power():
    # 2^k passes max_domain_size after four factors, so no cube size fits
    # and 2^k is never computed in full.
    s = spec(k=10**8, grid_bound=4, max_domain_size=8)
    tracemalloc.start()
    try:
        assert list(iter_universe(s)) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_build_universe_empty_when_nothing_requested():
    assert build_universe(spec(sample_count=0, include_all_cubes=False)) == []


def test_build_universe_deterministic():
    s = spec(sample_count=20, seed=9, max_domain_size=6)
    assert build_universe(s) == build_universe(s)


def test_build_universe_sampled_domains_respect_bounds():
    universe = build_universe(spec(sample_count=30, seed=2, max_domain_size=5))
    for dom in universe:
        assert 1 <= len(dom) <= 5
        assert len(set(dom)) == len(dom)
        for t in dom:
            assert all(0 <= c < 3 for c in t)


def test_gen_family_rules_are_reflexive_and_deterministic():
    universe = build_universe(spec(sample_count=10, seed=1, max_domain_size=6))
    for kind in FAMILY_KINDS:
        fam = gen_family(kind, universe)
        assert len(fam) == len(universe)
        assert len({m.id for m in fam.members}) == len(fam)
        for m, dom in zip(fam.members, universe):
            assert set(m.entries) == set(dom)
            assert is_reflexive(m)
        again = gen_family(kind, universe)
        assert again == fam


def test_gen_family_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gen_family("bogus", [((0, 0),)])


def test_max_rule_values():
    fam = gen_family("max", [((0, 1), (2, 2), (1, 0))])
    f = fam.members[0]
    assert all(f(x) == max(x) for x in f.entries)


def test_predmin_rule_pinned_domain():
    dom = ((2, 2), (2, 5), (5, 2), (5, 5))
    f = gen_family("predmin", [dom]).members[0]
    assert f((5, 5)) == 2
    assert f((2, 2)) == 2
    assert f((2, 5)) == 2


def test_constmin_rule_hand_pair_violates():
    fam = gen_family("constmin", [((1, 2), (0, 9)), ((1, 2),)])
    fa, fb = fam.members
    assert fa((1, 2)) == 0
    assert fb((1, 2)) == 1
    w = jump_free_violation(fa, fb)
    assert w is not None
    assert w.x == (1, 2)
    assert (w.value_a, w.value_b) == (0, 1)
    assert is_jump_free_family(fam) is not None


def test_max_min_predmin_jump_free_on_seeded_universe():
    universe = build_universe(spec(sample_count=20, seed=0, max_domain_size=6))
    for kind in ("max", "min", "predmin"):
        assert is_jump_free_family(gen_family(kind, universe)) is None


def test_generated_family_is_full_over_its_universe():
    universe = build_universe(spec(sample_count=8, seed=4, max_domain_size=5))
    fam = gen_family("min", universe)
    assert is_full_over(fam, universe) is None
    pruned = Family(k=fam.k, members=fam.members[1:])
    assert is_full_over(pruned, universe) == universe[0]


def test_find_witness_max_family_first_member():
    fam = gen_family("max", build_universe(spec()))
    result = find_regressively_regular_witness(fam, 2)
    assert result is not None
    assert result.function_id == "max-000"
    assert result.cube.elements == (0, 1)
    assert result.report["overall"]
    assert result.search_stats.functions_examined == 1
    assert result.search_stats.cubes_examined == 1


def test_find_witness_min_family():
    fam = gen_family("min", build_universe(spec()))
    result = find_regressively_regular_witness(fam, 2)
    assert result is not None
    assert result.report["overall"]


def test_find_witness_none_for_predmin_on_lone_cubes():
    # Domains that are single two-element cubes force the predecessor-min
    # rule into a constant equal to min(E), which fails both cases on the
    # diagonal class, so no cube in this universe is a witness.
    doms = [
        tuple(itertools.product((2, 5), repeat=2)),
        tuple(itertools.product((1, 3), repeat=2)),
    ]
    fam = gen_family("predmin", doms)
    assert find_regressively_regular_witness(fam, 2) is None


def test_find_witness_predmin_full_grid():
    # Over the full grid the predecessor-min rule is constant zero, which
    # is regular over any cube avoiding coordinate zero.
    universe = build_universe(spec(grid_bound=4, max_domain_size=16))
    fam = gen_family("predmin", universe)
    result = find_regressively_regular_witness(fam, 2)
    assert result is not None
    assert result.cube.min_element > 0
    result3 = find_regressively_regular_witness(fam, 3)
    assert result3 is not None
    assert result3.cube.elements == (1, 2, 3)


def test_find_witness_validates_args():
    fam = gen_family("max", [((0, 0),)])
    with pytest.raises(ValueError):
        find_regressively_regular_witness(fam, 1)
    # p is checked before k, and both before any member is pulled.
    with pytest.raises(ValueError, match="cube size"):
        find_regressively_regular_witness(iter_family("max", iter([])), 1, 1)
    with pytest.raises(ValueError, match="arity"):
        find_regressively_regular_witness(iter_family("max", iter([])), 2, 1)


def test_witness_json_shape():
    fam = gen_family("max", build_universe(spec()))
    result = find_regressively_regular_witness(fam, 2)
    data = result.to_json_dict()
    assert data["functionId"] == "max-000"
    assert data["cube"] == {"elements": [0, 1], "k": 2}
    assert data["report"]["overall"] is True
    assert data["searchStats"] == {"functionsExamined": 1, "cubesExamined": 1}


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(FAMILY_KINDS),
    k=st.integers(2, 3),
    grid_bound=st.integers(2, 4),
    max_domain_size=st.integers(1, 27),
    sample_count=st.integers(0, 25),
    seed=st.integers(0, 10**6),
    include_all_cubes=st.booleans(),
    p=st.integers(2, 3),
)
@example("predmin", 2, 3, 4, 0, 0, True, 2)  # no witness
@example("max", 2, 3, 9, 0, 0, False, 2)  # empty universe
def test_streamed_search_matches_search_over_whole_family(
    kind, k, grid_bound, max_domain_size, sample_count, seed, include_all_cubes, p
):
    s = UniverseSpec(k, grid_bound, max_domain_size, sample_count, seed, include_all_cubes)
    universe = build_universe(s)
    assert universe == literal_universe(s)
    stream = iter_family(kind, iter_universe(s))
    if not universe:
        with pytest.raises(ValueError, match="empty universe"):
            find_regressively_regular_witness(stream, p, k)
        return
    whole = find_regressively_regular_witness(gen_family(kind, universe).members, p, k)
    assert find_regressively_regular_witness(stream, p, k) == whole


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(FAMILY_KINDS),
    k=st.integers(2, 3),
    grid_bound=st.integers(2, 5),
    max_domain_size=st.integers(1, 64),
    sample_count=st.integers(1, 40),
    seed=st.integers(0, 10**6),
    include_all_cubes=st.booleans(),
    p=st.integers(2, 4),
)
@example("max", 2, 4, 16, 30, 0, True, 4)  # the 4x4 grid is the witness
def test_search_over_size_filtered_stream_matches_search_over_whole_family(
    kind, k, grid_bound, max_domain_size, sample_count, seed, include_all_cubes, p
):
    s = UniverseSpec(k, grid_bound, max_domain_size, sample_count, seed, include_all_cubes)
    members = gen_family(kind, build_universe(s)).members
    filtered = list(iter_family(kind, iter_universe(s), p))
    assert filtered == [None if len(f.entries) < p**k else f for f in members]
    whole = find_regressively_regular_witness(members, p, k)
    assert find_regressively_regular_witness(iter(filtered), p, k) == whole


def _hand_made_universes(k):
    # Points listed in any order, repeats allowed.
    domain = st.lists(st.tuples(*[st.integers(0, 4)] * k), min_size=1, max_size=8)
    return st.lists(domain.map(tuple), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(FAMILY_KINDS), universe=st.integers(1, 3).flatmap(_hand_made_universes))
@example("predmin", [((2, 5), (0, 0), (2, 5), (1, 3)), ((1, 1),)])
def test_gen_family_over_hand_made_domains_matches_normalising_oracle(kind, universe):
    fam = gen_family(kind, universe)
    want = literal_gen_family(kind, universe)
    assert fam == want
    assert fam.to_json_dict() == want.to_json_dict()


_GOOD = ((0, 0), (1, 1), (0, 1))


class _Point(tuple):
    pass


@pytest.mark.parametrize(
    "bad, message",
    [
        (((1, 1), (-1, 0)), "coordinates must be nonnegative integers, got -1"),
        (((True, 1),), "coordinates must be nonnegative integers, got True"),
        (((1, 1.0),), "coordinates must be nonnegative integers, got 1.0"),
        (((0, 0), (0, 0, 1)), "max-001: domain point (0, 0, 1) has arity 3, expected 2"),
        (((1,),), "max-001: domain point (1,) has arity 1, expected 2"),
        (("ab",), "max-001: domain point 'ab' must be a tuple"),
        ((_Point((0, 1)),), "max-001: domain point (0, 1) must be a tuple"),
    ],
    ids=["negative", "bool", "float", "mixed-arity", "short", "string", "tuple-subclass"],
)
def test_bad_domain_fails_at_its_member_with_the_constructors_message(bad, message):
    # The bool, float and tuple-subclass points equal points of the first
    # domain, so a test by equality alone would let them through.
    with pytest.raises(ValueError) as info:
        gen_family("max", [_GOOD, bad, _GOOD])
    assert str(info.value) == message


def _member(name, points, rule):
    return FiniteFunction(id=name, k=2, entries={x: rule(x) for x in points})


# No cube: the points (a, b) with a = b or a, b in different classes mod 3
# form a complete 3-partite graph with loops, which holds no 4 elements.
_MULTIPARTITE = _member(
    "multipartite",
    [(a, b) for a in range(9) for b in range(9) if a == b or a % 3 != b % 3],
    max,
)
# Every cube, and no witness: in the diagonal class the largest element e
# gives (e, e) the value e - 1, below its own minimum, and the class is not
# constant below min(E), so it fails both cases.
_NO_WITNESS = _member(
    "no-witness", list(itertools.product(range(6), repeat=2)), lambda x: max(min(x) - 1, 0)
)


@pytest.mark.parametrize(
    "members, p",
    [([_MULTIPARTITE], 4), ([_NO_WITNESS], 3), ([_MULTIPARTITE, _NO_WITNESS], 4)],
    ids=["no-cube", "no-witness", "both"],
)
def test_search_budget_raises_at_one_point_short_of_its_work(monkeypatch, members, p):
    work = literal_search_work(members, p)
    assert work > 0
    monkeypatch.setattr(families, "UNIVERSE_MAX_POINTS", work - 1)
    with pytest.raises(CapacityError, match=f"witness search capped at {work - 1} points"):
        find_regressively_regular_witness(members, p, 2)
    monkeypatch.setattr(families, "UNIVERSE_MAX_POINTS", work)
    assert find_regressively_regular_witness(members, p, 2) is None


def test_search_budget_is_charged_before_the_work(monkeypatch):
    # One cube short of the budget for classifying all 20 cubes of the
    # no-witness grid: the last cube is refused before it is classified.
    classified = []

    def counting_regularity(f, cube):
        classified.append(cube)
        return regressive_regularity(f, cube)

    monkeypatch.setattr(families, "regressive_regularity", counting_regularity)
    work = literal_search_work([_NO_WITNESS], 3)
    monkeypatch.setattr(families, "UNIVERSE_MAX_POINTS", work - 9)
    with pytest.raises(CapacityError):
        find_regressively_regular_witness([_NO_WITNESS], 3, 2)
    assert len(classified) == 19
