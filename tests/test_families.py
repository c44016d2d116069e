"""Universe generation, rule families, and the regularity witness search."""

import itertools
import math
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpfree import families
from jumpfree.core import CapacityError, Cube, power_exceeds
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
    iter_class_verdicts,
    jump_free_violation,
    regressive_regularity,
)
from oracles import (
    floor_walk_predmin,
    is_reflexive,
    literal_cubes_in,
    literal_gen_family,
    literal_regressive_regularity,
    literal_rule,
    literal_search_work,
    literal_universe,
    unpruned_search,
)


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
        {"grid_bound": 6, "max_domain_size": 36, "p": 4},
        {"k": 3, "grid_bound": 4, "max_domain_size": 64, "p": 3},
        {"grid_bound": 5, "max_domain_size": 16, "sample_count": 30, "seed": 2, "p": 3},
    ],
)
def test_universe_guard_bounds_the_points_built(monkeypatch, overrides):
    # Given p, the cube size classes too small for a p-cube are not built
    # and not counted; sampled domains are counted at full size either way.
    # A built class is its first domain and an _Images run, which builds
    # nothing and counts 0 points.
    overrides = dict(overrides)
    p = overrides.pop("p", None)
    s = spec(**overrides)
    grid_points = s.grid_bound**s.k if s.sample_count else 0  # the grid is built to sample from
    built = [d for d in iter_universe(s, p) if not isinstance(d, int)]
    points = grid_points + sum(map(len, built))
    monkeypatch.setattr(families, "UNIVERSE_MAX_POINTS", points - 1)
    with pytest.raises(CapacityError, match="universe"):
        next(iter_universe(s, p))
    if not s.sample_count:  # the bound is exact
        monkeypatch.setattr(families, "UNIVERSE_MAX_POINTS", points)
        assert [d for d in iter_universe(s, p) if not isinstance(d, int)] == built


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


def _grid_shapes(k):
    """(k, grid_bound) with at most 400 grid points."""
    return st.tuples(st.just(k), st.integers(2, {1: 400, 2: 20, 3: 7}[k]))


# random.sample picks from a pool when n grid points take no more room than
# a set of the size drawn: n <= 21 for sizes up to 5, 85 for 6 to 21 and
# 277 for 22 to 85.  A k = 1 grid has n points, so the examples meet each
# step from both sides, with sizes capped at the top of the step's range.
# The later examples draw sizes on both sides of where one universe's choice
# flips: sets up to size 5 and pools from 6 on the refute shapes' 25, 36 and
# 64 points, sets up to 85 and pools from 86 on 300 points.
@settings(max_examples=150, deadline=None)
@given(
    shape=st.integers(1, 3).flatmap(_grid_shapes),
    max_domain_size=st.integers(1, 400),
    sample_count=st.integers(1, 30),
    seed=st.integers(0, 10**6),
)
@example((1, 21), 5, 30, 0)
@example((1, 22), 5, 30, 0)
@example((1, 85), 21, 30, 0)
@example((1, 86), 21, 30, 0)
@example((1, 277), 85, 30, 0)
@example((1, 278), 85, 30, 0)
@example((2, 5), 9, 30, 0)
@example((2, 6), 16, 30, 0)
@example((3, 4), 27, 30, 0)
@example((1, 300), 400, 30, 0)
def test_sampled_domains_are_random_sample_draws(shape, max_domain_size, sample_count, seed):
    s = UniverseSpec(*shape, max_domain_size, sample_count, seed, include_all_cubes=False)
    assert build_universe(s) == literal_universe(s)


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
    assert result.cube.elements[0] > 0
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


@dataclass(frozen=True)
class _Image:
    of: object


def _expand_runs(stream):
    """The stream with each int n, a run of n unbuilt domains or members,
    spelled out as n Nones, or as n _Image(x) for an _Images run after x."""
    out = []
    for item in stream:
        if isinstance(item, families._Images):
            out += [_Image(out[-1])] * item
        else:
            out += [None] * item if isinstance(item, int) else [item]
    return out


def _ranks(points):
    fld = sorted(set().union(*points))
    return dict(zip(fld, range(len(fld))))


def _order_type(dom):
    """The domain with each coordinate replaced by its rank among them."""
    rank = _ranks(dom)
    return tuple(tuple(map(rank.get, x)) for x in dom)


def _member_order_type(f):
    """The entries with each coordinate and value replaced by its rank among
    the coordinates."""
    rank = _ranks(f.entries)
    return {tuple(map(rank.get, x)): rank[v] for x, v in f.entries.items()}


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
@example("max", 2, 2, 4, 20, 0, True, 2)  # four draws repeat the 2x2 grid
@example("max", 2, 2, 4, 20, 0, False, 2)  # the same draws, none a repeat
@example("min", 1, 5, 4, 20, 3, True, 3)  # k = 1: every draw of 2 to 4 points is a cube
def test_search_over_size_filtered_stream_matches_search_over_whole_family(
    kind, k, grid_bound, max_domain_size, sample_count, seed, include_all_cubes, p
):
    s = UniverseSpec(k, grid_bound, max_domain_size, sample_count, seed, include_all_cubes)
    runs = list(iter_universe(s, p))
    domains = _expand_runs(runs)
    literal = [None if power_exceeds(p, k, len(d)) else d for d in literal_universe(s)]
    assert len(domains) == len(literal)
    for d, want in zip(domains, literal):
        if isinstance(d, _Image):  # the class's first domain, relabelled in order
            assert _order_type(want) == _order_type(d.of)
        else:
            assert d == want
    # Each cube size class too small for a p-cube is one int, its C(grid, size)
    # element sets; each built class is its first domain, the power of
    # 0..size-1, and an _Images run of the rest.  A small draw is 1.
    shape = []
    for size in range(2, grid_bound + 1):
        if include_all_cubes and size**k <= max_domain_size:
            n = math.comb(grid_bound, size)
            first = tuple(itertools.product(range(size), repeat=k))
            shape += [n] if size < p else [first, families._Images(n - 1)]
    assert runs[: len(shape)] == shape
    assert list(map(type, runs[: len(shape)])) == list(map(type, shape))
    assert all(type(run) is int and run == 1 for run in runs[len(shape) :] if isinstance(run, int))
    filtered = _expand_runs(iter_family(kind, iter(runs)))
    members = gen_family(kind, build_universe(s)).members
    assert len(filtered) == len(members)
    for d, f, want in zip(domains, filtered, members):
        if isinstance(d, _Image):  # the rule commutes with the relabelling
            assert _member_order_type(want) == _member_order_type(f.of)
        else:
            assert f == (None if d is None else want)
    if k < 2:
        return
    whole = find_regressively_regular_witness(members, p, k)
    assert find_regressively_regular_witness(iter_family(kind, iter(runs)), p, k) == whole


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


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(FAMILY_KINDS), universe=st.integers(1, 3).flatmap(_hand_made_universes))
@example("predmin", [((3, 3), (0, 4), (1, 1), (4, 0), (3, 3), (2, 2))])
@example("predmin", [tuple(itertools.product((1, 3, 4), repeat=2))])
@example("predmin", [((3, 4), (1, 3), (4, 1), (3, 4), (2, 2), (1, 1))])
# No (least, least), and (3, 3) above level 2, the lowest holding 0: 1, 0, 0, 0.
@example("predmin", [((1, 1), (0, 2), (2, 0), (3, 3))])
def test_rules_give_the_literal_entries_in_domain_order(kind, universe):
    for dom in universe:
        got = gen_family(kind, [dom]).members[0].entries
        assert list(got.items()) == list(literal_rule(kind, dom).items())


@st.composite
def _domains_and_increasing_maps(draw):
    k = draw(st.integers(1, 3))
    points = st.lists(st.tuples(*[st.integers(0, 6)] * k), min_size=1, max_size=10, unique=True)
    dom = tuple(draw(points))
    fld = sorted(set().union(*dom))
    image = draw(st.sets(st.integers(0, 50), min_size=len(fld), max_size=len(fld)))
    return dom, dict(zip(fld, sorted(image)))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(families._RULES)), case=_domains_and_increasing_maps())
# The 3x3 power less its least diagonal point, onto {1, 4, 6}.
@example("predmin", (tuple(itertools.product(range(3), repeat=2))[1:], {0: 1, 1: 4, 2: 6}))
def test_rules_commute_with_increasing_maps(kind, case):
    # The witness search counts the images of a class's first member as
    # copies of it, which holds only while every rule commutes with them.
    dom, sigma = case
    rule = families._RULES[kind]
    moved = tuple(tuple(map(sigma.get, x)) for x in dom)
    assert rule(moved) == {tuple(map(sigma.get, x)): sigma[v] for x, v in rule(dom).items()}


def _signed_domains(k):
    # Points in any order, repeats allowed; full powers hold (least, ..., least).
    coords = st.integers(-3, 4)
    listed = st.lists(st.tuples(*[coords] * k), min_size=1, max_size=8)
    powers = st.sets(coords, min_size=1, max_size=3).map(
        lambda fld: list(itertools.product(sorted(fld), repeat=k))
    )
    return (listed | powers.flatmap(st.permutations)).map(tuple)


def _outcome(make):
    try:
        return list(make().entries.items())
    except ValueError as refusal:
        return type(refusal), str(refusal)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(_signed_domains))
@example(((-1, -1), (2, 0), (-1, 3), (-1, -1)))
@example(((0, 0), (3, 1), (1, 0)))
@example(((1, 1), (0, 2), (2, 0), (3, 3)))  # entries 1, 0, 0, 0
def test_predmin_gives_the_floor_walk_entries_or_the_same_refusal(dom):
    want = _outcome(lambda: FiniteFunction("predmin-000", len(dom[0]), floor_walk_predmin(dom)))
    assert _outcome(lambda: gen_family("predmin", [dom]).members[0]) == want


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
        ((), "universe domains must be nonempty"),
    ],
    ids=["negative", "bool", "float", "mixed-arity", "short", "string", "tuple-subclass", "empty"],
)
def test_bad_domain_fails_at_its_member_with_the_constructors_message(bad, message):
    # The bool, float and tuple-subclass points equal points of the first
    # domain, so a test by equality alone would let them through.
    with pytest.raises(ValueError) as info:
        gen_family("max", [_GOOD, bad, _GOOD])
    assert str(info.value) == message


def _member(name, points, rule):
    return FiniteFunction(id=name, k=len(points[0]), entries={x: rule(x) for x in points})


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
# The same rule on a full power of arity 3: C(5, 3) = 10 cubes, no witness.
_NO_WITNESS_K3 = _member(
    "no-witness-k3", list(itertools.product(range(5), repeat=3)), lambda x: max(min(x) - 1, 0)
)
# The same rule on the 4x4 grid, a full power, and on the grid less (3, 0),
# a lookup domain.  The violated prefix (1, 2), and on the full power also
# (0, 2), begins exactly one cube, its only completion by 3, so it is cut
# after that cube with 0 cubes left below it.
_NO_WITNESS_4 = _member(
    "no-witness-4", list(itertools.product(range(4), repeat=2)), lambda x: max(min(x) - 1, 0)
)
_NO_WITNESS_4_LOOKUP = _member(
    "no-witness-4-lookup",
    [x for x in itertools.product(range(4), repeat=2) if x != (3, 0)],
    lambda x: max(min(x) - 1, 0),
)


@pytest.mark.parametrize(
    "members, p",
    [
        ([_MULTIPARTITE], 4),
        ([_NO_WITNESS], 3),
        ([_MULTIPARTITE, _NO_WITNESS], 4),
        ([_NO_WITNESS_K3], 3),
    ],
    ids=["no-cube", "no-witness", "both", "no-witness-k3"],
)
def test_search_budget_raises_at_one_point_short_of_its_work(monkeypatch, members, p):
    work, k = literal_search_work(members, p), members[0].k
    assert work > 0
    monkeypatch.setattr(families, "UNIVERSE_MAX_POINTS", work - 1)
    with pytest.raises(CapacityError, match=f"witness search capped at {work - 1} points"):
        find_regressively_regular_witness(members, p, k)
    monkeypatch.setattr(families, "UNIVERSE_MAX_POINTS", work)
    assert find_regressively_regular_witness(members, p, k) is None


def test_search_budget_is_charged_before_the_work(monkeypatch):
    # One cube short of the budget for classifying all 20 cubes of the
    # no-witness grid: the last cube is refused before it is classified.
    # A prefix is checked after the first cube below it, and if it has a
    # violated class, the rest are charged but never classified.
    classified = []

    def counting_verdicts(f, cube):
        if len(cube) == 3:  # not a prefix
            classified.append(cube)
        return iter_class_verdicts(f, cube)

    monkeypatch.setattr(families, "iter_class_verdicts", counting_verdicts)
    work = literal_search_work([_NO_WITNESS], 3)
    monkeypatch.setattr(families, "UNIVERSE_MAX_POINTS", work - 9)
    with pytest.raises(CapacityError):
        find_regressively_regular_witness([_NO_WITNESS], 3, 2)
    cubes = literal_cubes_in(_NO_WITNESS.entries, 3)

    def cut(cube):
        below = [c for c in cubes if c[:2] == cube[:2]]
        report = literal_regressive_regularity(_NO_WITNESS, Cube(cube[:2], 2))
        return cube != below[0] and not report["overall"]

    kept = [c for c in cubes if not cut(c)]
    assert classified == kept[:-1]


def _searched_function(draw, name, k):
    # A full power of up to 7 elements (5 for k = 3), less up to two points
    # for the lookup path, valued near its points' minima or at one low
    # constant, so that prefixes are violated, cut, or neither.
    fld = draw(st.sets(st.integers(0, 9), min_size=1, max_size=7 if k == 2 else 5))
    points = list(itertools.product(sorted(fld), repeat=k))
    dropped = draw(st.sets(st.sampled_from(points), max_size=2)) if draw(st.booleans()) else set()
    low = draw(st.integers(0, 3))

    def value(x):
        return draw(st.sampled_from((low, max(min(x) - 1, 0), min(x), min(x) + 1, max(x))))

    return FiniteFunction(name, k, {x: value(x) for x in points if x not in dropped})


@st.composite
def _searches(draw):
    k, p = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    members = [_searched_function(draw, f"f{i}", k) for i in range(draw(st.integers(1, 3)))]
    budget = draw(st.integers(10, 3000) | st.sampled_from([10**e for e in range(2, 8)]))
    return members, p, k, budget


def _search_outcome(search, members, p, k, budget):
    with mock.patch.object(families, "UNIVERSE_MAX_POINTS", budget):
        try:
            return search(members, p, k)
        except CapacityError as refusal:
            return str(refusal)


@settings(max_examples=400, deadline=None)
@given(_searches())
@example(([_NO_WITNESS], 3, 2, 10**7))
@example(([_NO_WITNESS], 3, 2, literal_search_work([_NO_WITNESS], 3) - 9))
@example(([_NO_WITNESS_K3], 3, 3, 10**7))
@example(([_MULTIPARTITE, _NO_WITNESS], 4, 2, 10**7))
@example(([_NO_WITNESS_4], 3, 2, 10**7))
@example(([_NO_WITNESS_4_LOOKUP], 3, 2, 10**7))
@example(([_NO_WITNESS_4_LOOKUP], 3, 2, literal_search_work([_NO_WITNESS_4_LOOKUP], 3) - 1))
def test_pruned_search_matches_the_unpruned_search(case):
    members, p, k, budget = case
    want = _search_outcome(unpruned_search, members, p, k, budget)
    assert _search_outcome(find_regressively_regular_witness, members, p, k, budget) == want


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(FAMILY_KINDS),
    k=st.integers(2, 3),
    grid_bound=st.integers(2, 6),
    max_domain_size=st.integers(8, 125),  # room for the 2-cube at k = 3
    sample_count=st.sampled_from([0, 0, 3, 10]),
    seed=st.integers(0, 10**6),
    p=st.integers(2, 4),
    budget=st.integers(10, 3000) | st.sampled_from([10**e for e in range(2, 6)]),
)
@example("predmin", 2, 6, 36, 0, 0, 3, 200)  # refused inside the size-3 images
@example("predmin", 2, 6, 36, 0, 0, 3, 1000)  # the first size-4 member is the witness
@example("constmin", 3, 5, 125, 0, 0, 2, 100)  # refused inside the size-2 images
def test_search_over_class_images_matches_the_member_by_member_search(
    kind, k, grid_bound, max_domain_size, sample_count, seed, p, budget
):
    # An _Images run is counted and charged in one step: the outcome, a
    # refusal included, is the one the search over every member reaches.
    s = UniverseSpec(k, grid_bound, max_domain_size, sample_count, seed, True)
    runs = list(iter_universe(s, p))  # listed before the budget is made small
    members = gen_family(kind, build_universe(s)).members
    want = _search_outcome(find_regressively_regular_witness, members, p, k, budget)
    stream = iter_family(kind, iter(runs))
    assert _search_outcome(find_regressively_regular_witness, stream, p, k, budget) == want
