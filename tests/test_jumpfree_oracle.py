"""The fast jump-free checks return exactly the literal scan's witness."""

import itertools

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
