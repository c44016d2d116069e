"""The fast jump-free checks return exactly the literal scan's witness."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfree.families import FAMILY_KINDS, UniverseSpec, build_universe, gen_family
from jumpfree.predicates import (
    Family,
    FiniteFunction,
    is_jump_free_family,
    jump_free_violation,
)
from oracles import literal_is_jump_free_family, literal_jump_free_violation


@st.composite
def families(draw):
    """1-8 members with k 1-3, coordinates below a grid of at most 4, and
    values 0-3, so many members are non-reflexive.  Drawing domains from a
    small grid makes shared points, and hence real witnesses, common."""
    k = draw(st.integers(1, 3))
    grid = draw(st.integers(1, 4))
    points = list(itertools.product(range(grid), repeat=k))
    entries = st.dictionaries(st.sampled_from(points), st.integers(0, 3), min_size=1)
    members = draw(st.lists(entries, min_size=1, max_size=8))
    return Family(
        k=k,
        members=tuple(FiniteFunction(f"m{i}", k, e) for i, e in enumerate(members)),
    )


@settings(max_examples=200, deadline=None)
@given(families())
def test_family_witness_matches_literal_scan(fam):
    assert is_jump_free_family(fam) == literal_is_jump_free_family(fam)


@settings(max_examples=200, deadline=None)
@given(families())
def test_pair_witness_matches_literal_scan(fam):
    for fa, fb in itertools.product(fam.members, repeat=2):
        assert jump_free_violation(fa, fb) == literal_jump_free_violation(fa, fb)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(FAMILY_KINDS),
    k=st.integers(1, 3),
    grid=st.integers(2, 4),
    samples=st.integers(1, 30),
    seed=st.integers(0, 10**6),
)
def test_generated_family_witness_matches_literal_scan(kind, k, grid, samples, seed):
    spec = UniverseSpec(
        k=k,
        grid_bound=grid,
        max_domain_size=grid**k,
        sample_count=samples,
        seed=seed,
        include_all_cubes=True,
    )
    fam = gen_family(kind, build_universe(spec))
    assert is_jump_free_family(fam) == literal_is_jump_free_family(fam)


def test_rival_behind_a_harmless_member_with_the_same_value():
    # At (1, 1) both c and b hold 1 > a's 0.  c lacks a's (0, 0), so the
    # hypothesis fails below level 1 and (a, c) holds; (a, b) violates.
    a = FiniteFunction("a", 2, {(0, 0): 0, (1, 1): 0})
    c = FiniteFunction("c", 2, {(1, 1): 1})
    b = FiniteFunction("b", 2, {(0, 0): 0, (1, 1): 1})
    fam = Family(k=2, members=(a, c, b))
    witness = is_jump_free_family(fam)
    assert (witness.id_a, witness.id_b, witness.x) == ("a", "b", (1, 1))
    assert witness == literal_is_jump_free_family(fam)


@pytest.mark.parametrize(
    "members, expected",
    [
        # m1 disagrees with m0 at level 1 (it lacks (1, 0)), so m1's
        # larger value at level 2 is past the hypothesis: jump free.
        (
            [{(0, 0): 0, (1, 0): 1, (2, 2): 0}, {(0, 0): 0, (2, 2): 2}],
            None,
        ),
        # m1 lacks m0's lexicographically first point on level 1 but holds
        # a larger value at the other one: the first disagreement is at
        # level 1 either way, so (m0, m1) violates at (1, 0).
        (
            [{(0, 1): 1, (1, 0): 0}, {(1, 0): 1}],
            ("m0", "m1", (1, 0)),
        ),
    ],
)
def test_larger_value_counts_only_at_the_first_disagreement_level(members, expected):
    fam = Family(k=2, members=tuple(FiniteFunction(f"m{i}", 2, e) for i, e in enumerate(members)))
    witness = is_jump_free_family(fam)
    assert witness == literal_is_jump_free_family(fam)
    got = None if witness is None else (witness.id_a, witness.id_b, witness.x)
    assert got == expected


def test_later_rival_wins_over_one_that_disagrees_lower():
    # c holds the larger value at (1, 1) too, but c first disagrees with a
    # at level 0, where a's value is higher, so (a, c) holds; b agrees at
    # level 0 and is the witness although it comes after c.
    a = FiniteFunction("a", 2, {(0, 0): 1, (1, 1): 0})
    c = FiniteFunction("c", 2, {(0, 0): 0, (1, 1): 1})
    b = FiniteFunction("b", 2, {(0, 0): 1, (1, 1): 1})
    fam = Family(k=2, members=(a, c, b))
    witness = is_jump_free_family(fam)
    assert (witness.id_a, witness.id_b, witness.x) == ("a", "b", (1, 1))
    assert witness == literal_is_jump_free_family(fam)


@st.composite
def wide_families(draw):
    """65-80 members, so member masks span more than one 64-bit word.
    Members valued by max are jump free among themselves; one to three
    members from index 64 on take arbitrary values, so a witness, when
    there is one, mostly names a member past bit 63."""
    points = list(itertools.product(range(3), repeat=2))
    m = draw(st.integers(65, 80))
    domains = draw(
        st.lists(st.sets(st.sampled_from(points), min_size=1, max_size=4), min_size=m, max_size=m)
    )
    tampered = draw(st.sets(st.integers(64, m - 1), min_size=1, max_size=3))
    members = []
    for i, dom in enumerate(domains):
        if i in tampered:
            entries = {x: draw(st.integers(0, 3)) for x in sorted(dom)}
        else:
            entries = {x: max(x) for x in dom}
        members.append(FiniteFunction(f"m{i}", 2, entries))
    return Family(k=2, members=tuple(members))


@settings(max_examples=15, deadline=None)
@given(wide_families())
def test_wide_family_witness_matches_literal_scan(fam):
    assert is_jump_free_family(fam) == literal_is_jump_free_family(fam)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize(
    "shape, samples",
    # Universe shapes (k, grid_bound, max_domain_size) of the refute pool, the
    # first also audit's; 99-125 members, so member masks span two words.
    [((2, 5, 9), 100), ((2, 6, 16), 75), ((3, 4, 27), 90)],
)
def test_benchmark_shaped_family_witness_matches_literal_scan(kind, shape, samples):
    fam = gen_family(kind, build_universe(UniverseSpec(*shape, samples, 29, True)))
    assert len(fam) >= 99
    witness = literal_is_jump_free_family(fam)
    assert (witness is None) == (kind != "constmin")
    assert is_jump_free_family(fam) == witness
    # Loaded members hold equal points as distinct tuples, keyed by value.
    loaded = Family.from_json_dict(fam.to_json_dict())
    assert is_jump_free_family(loaded) == witness
