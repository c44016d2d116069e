"""Integer encodings and the paired multisets, interval classification included."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfree.core import Cube
from jumpfree.intsets import (
    DEFAULT_GAMMAS,
    GammaTriple,
    IntMultiset,
    ZBijection,
    build_fh,
)
from jumpfree.predicates import FiniteFunction
from oracles import bijection_inverse, cube_points, literal_build_fh


def ff(entries, k=2):
    return FiniteFunction(id="f", k=k, entries=dict(entries))


def test_zigzag_pinned_values():
    z = ZBijection("zigzag")
    assert [z.apply(n) for n in range(5)] == [0, 1, -1, 2, -2]


def test_zigzagneg_mirrors_zigzag():
    z, n = ZBijection("zigzag"), ZBijection("zigzagneg")
    assert [n.apply(i) for i in range(6)] == [-z.apply(i) for i in range(6)]


def test_shifted_pinned_value():
    assert ZBijection("shifted", offset=10).apply(2) == 9


@pytest.mark.parametrize("kind", ["zigzag", "zigzagneg"])
def test_bijection_injective_prefix(kind):
    z = ZBijection(kind)
    seen = {z.apply(n) for n in range(10**4)}
    assert len(seen) == 10**4


def test_zigzag_covers_symmetric_range():
    z = ZBijection("zigzag")
    image = {z.apply(n) for n in range(10**4 + 1)}
    assert set(range(-5000, 5001)) <= image


@given(st.integers(min_value=0, max_value=10**6))
def test_bijection_round_trip(n):
    for b in (ZBijection("zigzag"), ZBijection("zigzagneg"), ZBijection("shifted", offset=-7)):
        assert bijection_inverse(b, b.apply(n)) == n


def test_bijection_rejects_negative_input():
    with pytest.raises(ValueError):
        ZBijection("zigzag").apply(-1)
    with pytest.raises(ValueError):
        ZBijection("bogus")
    with pytest.raises(ValueError, match="^zigzag takes no offset$"):
        ZBijection("zigzag", 5)


def test_bijection_spec_round_trip():
    for text in ("zigzag", "zigzagneg", "shifted:10", "shifted:-3"):
        assert ZBijection.parse(text).spec() == text
    with pytest.raises(ValueError):
        ZBijection.parse("shifted:x")


def test_bijection_parse_takes_only_ascii_decimal_offsets():
    assert ZBijection.parse("shifted:007") == ZBijection("shifted", 7)
    assert ZBijection.parse("shifted:-0") == ZBijection("shifted", 0)
    for text in ("shifted:1_0", "shifted:\u0663", "shifted:3\n", "zigzag\n", "Zigzag"):
        with pytest.raises(ValueError, match="cannot parse bijection"):
            ZBijection.parse(text)


def test_gamma_triple_parse_and_json():
    g = GammaTriple.parse("zigzag,zigzagneg,shifted:10")
    assert g[0].apply(1) == 1
    assert g[1].apply(1) == -1
    assert g[2].apply(2) == 9
    data = g.to_json_dict()
    assert data == {"g0": "zigzag", "g1": "zigzagneg", "g2": "shifted:10"}
    assert GammaTriple.parse(",".join(data[key] for key in ("g0", "g1", "g2"))) == g
    with pytest.raises(ValueError):
        GammaTriple.parse("zigzag,zigzag")


def test_multiset_basics():
    ms = IntMultiset.from_values([3, -1, 3, 3])
    assert ms.count(3) == 3
    assert ms.total == 4
    assert ms.items() == [(-1, 1), (3, 3)]
    assert ms.to_json() == [[-1, 1], [3, 3]]
    assert ms.count(3) == 3 and ms.count(0) == 0
    assert ms == IntMultiset.from_pairs([[3, 3], [-1, 1]])


def test_multiset_rejects_nonpositive_multiplicity():
    with pytest.raises(ValueError):
        IntMultiset.from_pairs([[3, 0]])
    ms = IntMultiset()
    with pytest.raises(ValueError):
        ms.add(1, 0)


def test_multiset_respects_multiplicity_in_equality():
    assert IntMultiset.from_values([0, 0]) != IntMultiset.from_values([0])
    # Another type is never equal, its own counts included.
    assert IntMultiset.from_values([0, 0]) != {0: 2}


@pytest.mark.parametrize(
    "x, value, expected",
    [((2, 5), 0, 0), ((5, 5), 3, 1), ((2, 5), 2, 2)],
)
def test_build_fh_names_each_interval(x, value, expected):
    # Offsets 0, 100 and 200 make every image name its interval: the
    # other points are valued 4, whose images are 198 and 98.
    cube = Cube(elements=(2, 5), k=2)
    entries = {pt: 4 for pt in cube_points(cube)}
    entries[x] = value
    gammas = GammaTriple.parse("shifted:0,shifted:100,shifted:200")
    f_ms, h_ms = build_fh(ff(entries), cube, gammas=gammas)
    image = ZBijection("zigzag").apply(value) + 100 * expected
    assert f_ms.count(image) == 1
    assert h_ms.count(image) == (0 if expected == 1 else 1)


def test_build_fh_max_rule_pinned():
    cube = Cube(elements=(2, 5), k=2)
    f = ff({x: max(x) for x in cube_points(cube)})
    f_ms, h_ms = build_fh(f, cube)
    assert f_ms.to_json() == [[-1, 1], [3, 3]]
    assert f_ms == h_ms
    assert f_ms.total == 2**2


def test_build_fh_constant_zero():
    cube = Cube(elements=(2, 5), k=2)
    f = ff({x: 0 for x in cube_points(cube)})
    f_ms, h_ms = build_fh(f, cube)
    assert f_ms == IntMultiset.from_pairs([[0, 4]])
    assert f_ms == h_ms


def test_build_fh_interval1_point_breaks_equality():
    # Only (5,5) has its own minimum above min(E), so its value 3 is the
    # lone middle-interval contribution; the value-2 points all clear
    # their own minimum and encode to zigzag(2) = -1.
    cube = Cube(elements=(2, 5), k=2)
    f = ff({(2, 2): 2, (2, 5): 2, (5, 2): 2, (5, 5): 3})
    f_ms, h_ms = build_fh(f, cube)
    assert f_ms.to_json() == [[-1, 3], [2, 1]]
    assert h_ms.to_json() == [[-1, 3]]
    assert f_ms != h_ms
    assert f_ms.count(DEFAULT_GAMMAS[1].apply(3)) == 1


def test_build_fh_set_semantics_dedups():
    cube = Cube(elements=(2, 5), k=2)
    f = ff({x: max(x) for x in cube_points(cube)})
    f_ms, h_ms = build_fh(f, cube, semantics="set")
    assert f_ms.to_json() == [[-1, 1], [3, 1]]
    assert f_ms == h_ms


def test_build_fh_set_semantics_merges_interval_collisions():
    # A shifted top encoder can land on a low-interval output: here
    # zigzag(1) = 1 from the low interval collides with zigzag(5)-2 = 1
    # from the top one.  Multisets keep both copies, sets keep one.
    cube = Cube(elements=(2, 5), k=2)
    f = ff({(2, 2): 1, (2, 5): 2, (5, 2): 2, (5, 5): 5})
    gammas = GammaTriple.parse("zigzag,zigzag,shifted:-2")
    f_ms, h_ms = build_fh(f, cube, gammas=gammas)
    assert f_ms.to_json() == [[-3, 2], [1, 2]]
    assert f_ms == h_ms
    f_set, h_set = build_fh(f, cube, gammas=gammas, semantics="set")
    assert f_set.to_json() == [[-3, 1], [1, 1]]
    assert f_set == h_set


def test_build_fh_validates_input():
    cube = Cube(elements=(2, 5), k=2)
    f = ff({x: max(x) for x in cube_points(cube)})
    with pytest.raises(ValueError):
        build_fh(f, cube, semantics="bag")
    with pytest.raises(ValueError):
        build_fh(ff({(2, 2): 0}), cube)


def test_fh_equal_pinned():
    a = IntMultiset.from_values([-1, 3, 3, 3])
    b = IntMultiset.from_values([3, 3, -1, 3])
    assert a == b
    assert IntMultiset.from_values([0, 0]) != IntMultiset.from_values([0])


_ENCODERS = st.sampled_from(["zigzag", "zigzagneg", "shifted:-3", "shifted:2"])


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    k=st.integers(2, 3),
    elements=st.lists(st.integers(0, 6), min_size=2, max_size=3, unique=True).map(sorted),
    gamma=st.tuples(_ENCODERS, _ENCODERS, _ENCODERS).map(",".join),
    semantics=st.sampled_from(["multiset", "set"]),
)
def test_build_fh_matches_per_point_oracle(data, k, elements, gamma, semantics):
    # Values around the cube minimum and the points' own minima reach all
    # three intervals; extra points lie off the cube, and a dropped point
    # takes the cube out of the domain.
    cube = Cube(tuple(elements), k)
    domain = set(cube_points(cube)) | set(
        data.draw(st.lists(st.tuples(*[st.integers(0, 7)] * k), max_size=4))
    )
    if data.draw(st.booleans()):
        domain.discard(data.draw(st.sampled_from(sorted(cube_points(cube)))))
    f = ff({x: data.draw(st.integers(0, 8)) for x in sorted(domain)}, k=k)
    gammas = GammaTriple.parse(gamma)
    if not set(cube_points(cube)) <= domain:
        with pytest.raises(ValueError, match="cube power not contained"):
            build_fh(f, cube, gammas, semantics)
        return
    assert build_fh(f, cube, gammas, semantics) == literal_build_fh(f, cube, gammas, semantics)
