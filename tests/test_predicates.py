"""Reflexivity, predecessor sets, jump-free checks, regressive regularity."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpfree.core import Cube, render_json
from jumpfree.predicates import (
    CASE1,
    CASE2,
    VIOLATED,
    Family,
    FiniteFunction,
    JumpFreeWitness,
    is_full_over,
    is_jump_free_family,
    iter_class_verdicts,
    jump_free_violation,
    regressive_regularity,
)
from oracles import (
    cube_points,
    is_reflexive,
    is_valid_function,
    literal_load_function,
    literal_regressive_regularity,
    predecessor_set,
    render_json as stdlib_render,
)


def ff(fid, entries, k=2):
    return FiniteFunction(id=fid, k=k, entries=dict(entries))


def test_finite_function_call_and_domain():
    f = ff("f0", {(1, 2): 1, (0, 0): 0})
    assert f((1, 2)) == 1


def test_finite_function_rejects_bad_entries():
    with pytest.raises(ValueError):
        ff("f0", {(1, 2, 3): 1})
    with pytest.raises(ValueError):
        ff("f0", {(1, 2): -1})
    with pytest.raises(ValueError):
        FiniteFunction(id="f0", k=0, entries={})


def test_finite_function_checks_k_before_it_reads_the_entries():
    # The arity is refused before entries, here not even a mapping, are copied.
    with pytest.raises(ValueError) as info:
        FiniteFunction("f", 0, 5)
    assert str(info.value) == "f: arity k must be an integer >= 1, got 0"


def test_finite_function_keeps_its_own_copy_of_valid_entries():
    entries = {(3, 0, 7): 3}
    f = FiniteFunction(id="f0", k=3, entries=entries)
    entries[(1, 1, 1)] = 1
    assert f.entries == {(3, 0, 7): 3}


@pytest.mark.parametrize(
    "bad, message",
    [
        ((), "a point needs arity k >= 1"),
        ((-1,), "coordinates must be nonnegative integers, got -1"),
        ((1.5, 2), "coordinates must be nonnegative integers, got 1.5"),
        ((True, 2), "coordinates must be nonnegative integers, got True"),
        # Iterable but not a tuple: no longer read as the point (1, 2).
        (b"\x01\x02", "f0: domain point b'\\x01\\x02' must be a tuple"),
    ],
    ids=["empty", "negative", "float", "bool", "bytes"],
)
def test_finite_function_rejects_invalid_points(bad, message):
    with pytest.raises(ValueError) as info:
        FiniteFunction(id="f0", k=2, entries={bad: 0})
    assert str(info.value) == message


class _Point(tuple):
    pass


_numbers = st.integers(-1, 4) | st.sampled_from([True, False, 1.0, 2.5])
_valid_points = st.tuples(st.integers(0, 4), st.integers(0, 4))
_points = st.one_of(
    _valid_points,
    st.lists(_numbers, max_size=3).map(tuple),
    _valid_points.map(_Point),
    st.just(b"\x01\x02"),
)


@settings(max_examples=300, deadline=None)
@given(
    valid=st.dictionaries(_valid_points, st.integers(0, 4), max_size=8),
    other=st.dictionaries(_points, st.integers(0, 4) | _numbers, max_size=2),
)
def test_finite_function_accepts_exactly_the_valid_entries(valid, other):
    entries = {**valid, **other}
    if is_valid_function(2, entries):
        assert FiniteFunction(id="f0", k=2, entries=entries).entries == entries
    else:
        with pytest.raises(ValueError):
            FiniteFunction(id="f0", k=2, entries=entries)


def test_finite_function_refuses_the_first_bad_point_among_many():
    entries = {(a, b): a for a in range(30) for b in range(30)}
    # A point equal to a valid one would only replace that one's value.
    entries[(3, 1.5)] = 0
    entries[(-1, 0)] = 0
    with pytest.raises(ValueError) as info:
        FiniteFunction(id="f0", k=2, entries=entries)
    assert str(info.value) == "coordinates must be nonnegative integers, got 1.5"


def test_finite_function_json_round_trip():
    f = ff("f0", {(1, 2): 1, (0, 0): 0})
    data = f.to_json_dict()
    assert data == {"id": "f0", "k": 2, "entries": [[[0, 0], 0], [[1, 2], 1]]}
    assert FiniteFunction.from_json_dict(data) == f


def _sometimes(valid, bad, one_in):
    """valid, except one time in one_in one of the bad leaves."""
    return st.integers(1, one_in).flatmap(lambda i: st.sampled_from(bad) if i == 1 else valid)


@st.composite
def _function_docs(draw):
    # Coordinates from 0..2, so points repeat often.
    k = draw(st.integers(1, 3))
    coordinate = _sometimes(st.integers(0, 2), [-1, True, False, 1.0, 1.5, "1", None, [1]], 8)
    # A well-formed point is sometimes a tuple, which the loader reads as a list.
    listed = st.lists(coordinate, min_size=k, max_size=k)
    point = _sometimes(
        st.one_of(listed, listed.map(tuple)),
        [[], [0] * (k + 1), [0] * (k - 1), "ab", 5, None, {"a": 1}, ()],
        8,
    )
    value = _sometimes(st.integers(0, 3), [-1, True, 2.0, "1", None], 8)
    entry = _sometimes(
        st.tuples(point, value).map(list),
        [[[0] * k], [[0] * k, 0, 0], "ab", "a", 5, None, {"a": 1, "b": 2}],
        12,
    )
    doc = {
        "id": draw(_sometimes(st.sampled_from("fg"), [1, None, ["f"]], 12)),
        "k": draw(_sometimes(st.just(k), [0, -1, True, float(k), str(k), None], 12)),
        "entries": draw(_sometimes(st.lists(entry, max_size=6), [5, "ab", None, {"a": 1}], 12)),
    }
    doc.pop(draw(st.sampled_from([None] * 15 + ["id", "k", "entries"])), None)
    return doc


def _load_outcome(load, data):
    try:
        return load(data)
    except (TypeError, KeyError, ValueError) as refusal:
        return type(refusal), str(refusal)


# A bad entry first, and a later fault that wins over it: a wrong structure,
# a point listed twice, or a bad or missing k.
_MIXED_FAULTS = [
    {"id": "f", "k": 2, "entries": [[[0, 0], -1], [[0, 1], 0], "ab"]},
    {"id": "f", "k": 2, "entries": [[[0, 0], -1], [[0, 1]]]},
    {"id": "f", "k": 2, "entries": [[[0, 0], -1], [[0, [1]], 0]]},
    {"id": "f", "k": 2, "entries": [[[0, 0], -1], [[0, 1], 0], [[0, 1], 1]]},
    {"id": "f", "k": 2, "entries": [[[True, 1], 0], [[1, 1], 0]]},
    {"id": "f", "k": 0, "entries": [[[0, 0], -1], [[0, 0], 1]]},
    {"id": "f", "entries": [[[0, 0], -1], [[0, 0], 1]]},
    {"id": "f", "entries": [[[0, 0], -1]]},
    {"id": "f", "k": True, "entries": [[[0, 0], -1]]},
    {"id": "f", "k": 2, "entries": [[[], 0], [[0, 0, 0], 1], [[0, 1.5], 0]]},
]


@settings(max_examples=400, deadline=None)
@given(_function_docs())
@example({"id": "f", "k": 2, "entries": []})
@example({"id": "f", "k": 2, "entries": [[(0, 1), 1], [(1, 1), 0]]})
@example({"id": "f", "k": 2, "entries": [["ab", 0]]})
@example({"id": "f", "k": 2, "entries": [[{"a": 1}, 0]]})
def test_loader_refuses_as_the_literal_loader(data):
    want = _load_outcome(literal_load_function, data)
    assert _load_outcome(FiniteFunction.from_json_dict, data) == want


@pytest.mark.parametrize("data", _MIXED_FAULTS)
def test_loader_keeps_the_order_of_mixed_faults(data):
    want = _load_outcome(literal_load_function, data)
    assert isinstance(want, tuple)
    assert _load_outcome(FiniteFunction.from_json_dict, data) == want


def _families(k):
    point = st.tuples(*[st.integers(0, 10**12)] * k)
    entries = st.dictionaries(point, st.integers(0, 10**30), max_size=6)
    members = st.lists(st.tuples(st.text(max_size=4), entries), max_size=4, unique_by=lambda m: m[0])
    return members.map(lambda ms: Family(k, tuple(FiniteFunction(i, k, e) for i, e in ms)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(_families))
@example(Family(1, (FiniteFunction("one", 1, {(0,): 0}),)))
@example(Family(4, (FiniteFunction("f\u00e9", 4, {(1, 2, 3, 4): 1, (0, 0, 0, 0): 0}),)))
# One point valued two ways, a member holding only entries met before, and
# one holding none: each entry text is found by its (point, value) pair.
@example(Family(2, (ff("a", {(0, 0): 0}), ff("b", {(0, 0): 1}))))
@example(Family(2, (ff("a", {(0, 0): 0, (1, 2): 1}), ff("b", {(1, 2): 1, (0, 0): 0}))))
@example(Family(2, (ff("a", {(0, 0): 0}), ff("e", {}))))
def test_family_renders_as_the_stdlib_renders_its_json_dict(fam):
    # At two depths, so that the entry template is made for two margins.
    def doc(family):
        return {"family": family, "nested": [{"family": family}], "n": len(fam)}

    assert render_json(doc(fam)) == stdlib_render(doc(fam.to_json_dict()))


def test_family_validates_members():
    a, b = ff("a", {(0, 0): 0}), ff("b", {(1, 1): 1})
    fam = Family(k=2, members=(a, b))
    assert len(fam) == 2
    assert fam.member("b") is b
    with pytest.raises(ValueError):
        Family(k=2, members=(a, ff("a", {(1, 1): 1})))
    with pytest.raises(ValueError):
        Family(k=3, members=(a,))
    with pytest.raises(KeyError):
        fam.member("missing")


@pytest.mark.parametrize(
    "entries, expected",
    [
        ({(1, 2): 2}, True),
        ({(1, 2): 3}, False),
        ({(0, 0): 5, (2, 5): 0}, True),
    ],
)
def test_is_reflexive(entries, expected):
    assert is_reflexive(ff("f", entries)) is expected


def test_predecessor_set_example():
    domain = [(1, 2), (3, 1), (0, 0)]
    assert predecessor_set(domain, (3, 1)) == {(1, 2), (0, 0)}


def test_predecessor_set_never_contains_x():
    rng = random.Random(3)
    for _ in range(50):
        domain = list({tuple(rng.randint(0, 4) for _ in range(2)) for _ in range(6)})
        x = rng.choice(domain)
        assert x not in predecessor_set(domain, x)


def test_predecessor_set_singleton_and_missing_x():
    assert predecessor_set([(0, 0)], (0, 0)) == set()
    with pytest.raises(ValueError):
        predecessor_set([(0, 0)], (1, 1))


def test_jump_free_violation_pinned_pair():
    fa = ff("a", {(1, 2): 1})
    fb = ff("b", {(0, 0): 0, (1, 2): 2})
    w = jump_free_violation(fa, fb)
    assert w == JumpFreeWitness(id_a="a", id_b="b", x=(1, 2), value_a=1, value_b=2)
    # Raising the low value to meet the other function removes the witness.
    assert jump_free_violation(ff("a", {(1, 2): 2}), fb) is None


def test_jump_free_violation_refuses_functions_of_two_arities():
    with pytest.raises(ValueError, match=r"^arity mismatch: a has k=2, b has k=3$"):
        jump_free_violation(ff("a", {(1, 2): 1}), ff("b", {(1, 2, 3): 2}, k=3))


def test_jump_free_violation_requires_contained_predecessors():
    # fa has an extra predecessor below x, so the containment hypothesis
    # fails and the value drop is not a violation.
    fa = ff("a", {(0, 0): 0, (1, 2): 1})
    fb = ff("b", {(1, 2): 2})
    assert jump_free_violation(fa, fb) is None
    # In the reverse orientation containment holds but values rise.
    assert jump_free_violation(fb, fa) is None


def test_jump_free_violation_requires_agreement():
    # Shared predecessor with differing values rules the pair out.
    fa = ff("a", {(0, 0): 1, (1, 2): 1})
    fb = ff("b", {(0, 0): 0, (1, 2): 2})
    assert jump_free_violation(fa, fb) is None


def test_jump_free_violation_self_pair_is_none():
    rng = random.Random(11)
    for _ in range(30):
        domain = list({tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(5)})
        f = ff("f", {x: rng.randint(0, 5) for x in domain})
        assert jump_free_violation(f, f) is None


def test_is_jump_free_family_finds_embedded_pair():
    fam = Family(
        k=2,
        members=(
            ff("ok", {(4, 4): 4}),
            ff("a", {(1, 2): 1}),
            ff("b", {(0, 0): 0, (1, 2): 2}),
        ),
    )
    w = is_jump_free_family(fam)
    assert w is not None
    assert (w.id_a, w.id_b, w.x) == ("a", "b", (1, 2))


def test_is_jump_free_family_none_on_max_rule():
    domains = [
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        [(2, 3), (0, 1)],
        [(1, 1)],
    ]
    members = tuple(
        ff(f"m{i}", {x: max(x) for x in dom}) for i, dom in enumerate(domains)
    )
    assert is_jump_free_family(Family(k=2, members=members)) is None


def test_is_full_over():
    universe = [[(0, 0)], [(1, 1), (0, 1)]]
    full = Family(
        k=2,
        members=(ff("a", {(0, 0): 0}), ff("b", {(1, 1): 1, (0, 1): 0})),
    )
    assert is_full_over(full, universe) is None
    missing = Family(k=2, members=(full.members[0],))
    assert is_full_over(missing, universe) == [(1, 1), (0, 1)]
    empty = Family(k=2, members=())
    assert is_full_over(empty, universe) == [(0, 0)]


def _cube_function(entries):
    return ff("f", entries)


def test_regressive_regularity_max_rule_all_case2():
    cube = Cube(elements=(2, 5), k=2)
    f = _cube_function({x: max(x) for x in cube_points(cube)})
    report = regressive_regularity(f, cube)
    assert report["overall"]
    assert {v["kind"] for v in report["perClass"].values()} == {CASE2}
    assert set(report["perClass"]) == {"(0,0)", "(0,1)", "(1,0)"}


def test_regressive_regularity_constant_zero_all_case1():
    cube = Cube(elements=(2, 5), k=2)
    f = _cube_function({x: 0 for x in cube_points(cube)})
    report = regressive_regularity(f, cube)
    assert report["overall"]
    assert all(v["kind"] == CASE1 and v["value"] == 0 for v in report["perClass"].values())


def test_regressive_regularity_pinned_violation():
    cube = Cube(elements=(2, 5), k=2)
    f = _cube_function({(2, 2): 2, (2, 5): 2, (5, 2): 2, (5, 5): 3})
    report = regressive_regularity(f, cube)
    assert not report["overall"]
    assert [sig for sig, v in report["perClass"].items() if v["kind"] == VIOLATED] == ["(0,0)"]
    verdict = report["perClass"]["(0,0)"]
    assert verdict["kind"] == VIOLATED
    assert verdict["offender"] == [5, 5]
    assert verdict["offenderValue"] == 3
    # The equal-coordinates class holds values {2, 3}, so the constant
    # low case fails with an explicit conflicting pair.
    assert verdict["conflictPair"] == [[[2, 2], 2], [[5, 5], 3]]
    # The mixed classes stay fine: 2 >= min(x) = 2 on both.
    assert report["perClass"]["(0,1)"]["kind"] == CASE2


def test_regressive_regularity_case1_beats_case2_check():
    # Constant below min(E) classifies as the constant case even though
    # every value also clears its own minimum on some points.
    cube = Cube(elements=(3, 4), k=2)
    f = _cube_function({x: 1 for x in cube_points(cube)})
    report = regressive_regularity(f, cube)
    assert all(v["kind"] == CASE1 for v in report["perClass"].values())


def test_regressive_regularity_requires_cube_in_domain():
    cube = Cube(elements=(2, 5), k=2)
    with pytest.raises(ValueError):
        regressive_regularity(ff("f", {(2, 2): 0}), cube)


def test_regressive_regularity_rejects_k1():
    cube = Cube(elements=(2, 5), k=1)
    with pytest.raises(ValueError):
        regressive_regularity(ff("f", {(2,): 0, (5,): 0}, k=1), cube)


def test_regressive_regularity_matches_brute_force():
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice((2, 3))
        elements = tuple(sorted(rng.sample(range(8), p)))
        cube = Cube(elements=elements, k=2)
        f = ff("f", {x: rng.randint(0, 9) for x in cube_points(cube)})
        got = regressive_regularity(f, cube)
        want = literal_regressive_regularity(f, cube)
        assert got == want and list(got["perClass"]) == list(want["perClass"])


@st.composite
def _cube_functions(draw):
    # Values lean toward one constant per function, which makes constant
    # classes below min(E) when it is low enough, and toward min(x) +- 1.
    k, p = draw(st.sampled_from((2, 3))), draw(st.integers(2, 4))
    elements = draw(st.lists(st.integers(0, 9), min_size=p, max_size=p, unique=True))
    cube = Cube(elements=tuple(sorted(elements)), k=k)
    low = draw(st.integers(0, 9))
    entries = {}
    for x in cube_points(cube):
        near = st.sampled_from((low, low, low, max(min(x) - 1, 0), min(x), min(x) + 1))
        entries[x] = draw(near | st.integers(0, 12))
    return ff("f", entries, k=k), cube


@settings(max_examples=300, deadline=None)
@given(_cube_functions())
@example((ff("f", {(2, 2): 2, (2, 5): 2, (5, 2): 2, (5, 5): 3}), Cube((2, 5), 2)))
@example((ff("f", {x: 1 for x in itertools.product((3, 4), repeat=3)}, k=3), Cube((3, 4), 3)))
@example((ff("f", {x: 3 for x in itertools.product((0, 2), repeat=2)}), Cube((0, 2), 2)))
def test_regressive_regularity_report_matches_literal_oracle(case):
    f, cube = case
    got = regressive_regularity(f, cube)
    want = literal_regressive_regularity(f, cube)
    assert got == want
    assert list(got["perClass"]) == list(want["perClass"])


@st.composite
def _cube_functions_in_wider_domains(draw):
    # f holds E^k and up to 6 more points, valued at random.
    f, cube = draw(_cube_functions())
    points = st.tuples(*[st.integers(0, 12)] * f.k)
    extra = draw(st.dictionaries(points, st.integers(0, 12), max_size=6))
    return ff("f", {**extra, **f.entries}, k=f.k), cube


@settings(max_examples=300, deadline=None)
@given(_cube_functions_in_wider_domains())
@example((ff("f", {(0, 7): 1, (2, 2): 2, (2, 5): 2, (5, 2): 2, (5, 5): 3}), Cube((2, 5), 2)))
@example((ff("f", {x: 1 for x in itertools.product((3, 4), repeat=3)}, k=3), Cube((3, 4), 3)))
def test_class_verdicts_up_to_the_first_violated_match_the_literal_oracle(case):
    # A violated class's verdict is None; regressive_regularity reports why.
    f, cube = case
    want = list(literal_regressive_regularity(f, cube)["perClass"].items())
    got = []
    for label, verdict in iter_class_verdicts(f, cube.elements):
        if verdict is None:
            assert (label, want[len(got)][1]["kind"]) == (want[len(got)][0], VIOLATED)
            assert regressive_regularity(f, cube)["perClass"][label] == want[len(got)][1]
            break
        got.append((label, verdict))
        assert got == want[: len(got)]
    else:
        assert got == want


def test_report_json_shape():
    cube = Cube(elements=(2, 5), k=2)
    f = _cube_function({(2, 2): 2, (2, 5): 2, (5, 2): 2, (5, 5): 3})
    data = regressive_regularity(f, cube)
    assert data["overall"] is False
    assert set(data["perClass"]) == {"(0,0)", "(0,1)", "(1,0)"}
    bad = data["perClass"]["(0,0)"]
    assert bad["kind"] == VIOLATED
    assert bad["offender"] == [5, 5]
    assert bad["offenderValue"] == 3
    assert bad["conflictPair"] == [[[2, 2], 2], [[5, 5], 3]]
