"""The public surface of every record: construction by position and by
keyword, equality, hashing, assignment, repr, to_json_dict keys, and the
refusals of the records that check their fields."""

import pytest

from jumpfree.cli import RunConfig
from jumpfree.core import Cube
from jumpfree.families import SearchStats, UniverseSpec, WitnessResult
from jumpfree.intsets import ZBijection
from jumpfree.predicates import Family, FiniteFunction, JumpFreeWitness
from jumpfree.subsetsum import SubsetCertificate

_F = FiniteFunction("f", 2, {(2, 2): 2, (2, 5): 2, (5, 2): 2, (5, 5): 5})
_CUBE = Cube((2, 5), 2)
_STATS = SearchStats(1, 1)
_REPORT = {"overall": True, "perClass": {}}

# name -> (class, positional args, the same fields by keyword, to_json_dict keys or None)
_RECORDS = {
    "Cube": (Cube, ((2, 5), 2), {"elements": (2, 5), "k": 2}, ["elements", "k"]),
    "UniverseSpec": (
        UniverseSpec,
        (2, 4, 8, 50, 0, True),
        {
            "k": 2,
            "grid_bound": 4,
            "max_domain_size": 8,
            "sample_count": 50,
            "seed": 0,
            "include_all_cubes": True,
        },
        ["k", "gridBound", "maxDomainSize", "sampleCount", "seed", "includeAllCubes"],
    ),
    "SearchStats": (
        SearchStats,
        (3, 7),
        {"functions_examined": 3, "cubes_examined": 7},
        ["functionsExamined", "cubesExamined"],
    ),
    "WitnessResult": (
        WitnessResult,
        (_F, _CUBE, _REPORT, _STATS),
        {"function": _F, "cube": _CUBE, "report": _REPORT, "search_stats": _STATS},
        ["functionId", "cube", "report", "searchStats"],
    ),
    "FiniteFunction": (
        FiniteFunction,
        ("f", 2, {(0, 1): 1}),
        {"id": "f", "k": 2, "entries": {(0, 1): 1}},
        ["id", "k", "entries"],
    ),
    "Family": (Family, (2, (_F,)), {"k": 2, "members": (_F,)}, ["k", "members"]),
    "JumpFreeWitness": (
        JumpFreeWitness,
        ("a", "b", (1, 2), 0, 1),
        {"id_a": "a", "id_b": "b", "x": (1, 2), "value_a": 0, "value_b": 1},
        ["idA", "idB", "x", "valueA", "valueB"],
    ),
    "ZBijection": (ZBijection, ("shifted", -3), {"kind": "shifted", "offset": -3}, None),
    "SubsetCertificate": (
        SubsetCertificate,
        (((-1, 1), (1, 1)), 0),
        {"chosen": ((-1, 1), (1, 1)), "sum": 0},
        ["chosen", "sum"],
    ),
    "RunConfig": (
        RunConfig,
        ("search", 3, 4),
        {"command": "search", "k": 3, "p": 4},
        [
            "command", "k", "p", "gridBound", "maxDomainSize", "sampleCount", "seed",
            "includeAllCubes", "family", "gamma", "semantics", "method", "format", "input",
        ],
    ),
}
# Function and family are mutable records, so neither is hashable.  A witness
# result is immutable but holds a dict, so hashing it still raises.
_UNHASHABLE = {"FiniteFunction", "Family", "WitnessResult"}
# The immutable records are NamedTuples: each compares equal to the plain
# tuple of its fields.  The two mutable ones are plain classes, never tuples.
_MUTABLE = {"FiniteFunction", "Family"}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_by_position_equals_record_by_keyword(name):
    cls, args, kwargs, _ = _RECORDS[name]
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert a is not b
    for field, value in kwargs.items():
        assert getattr(a, field) == value
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{name}({next(iter(kwargs))}=")


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_hash_and_assignment(name):
    cls, args, kwargs, _ = _RECORDS[name]
    a, b = cls(*args), cls(**kwargs)
    if name in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    if name not in _MUTABLE:
        with pytest.raises(AttributeError):
            setattr(a, next(iter(kwargs)), None)


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_equality_with_a_plain_tuple(name):
    cls, args, kwargs, _ = _RECORDS[name]
    record = cls(*args)
    fields = tuple(kwargs.values())
    if name in _MUTABLE:
        assert not isinstance(record, tuple)
        assert record != fields
    else:
        assert isinstance(record, tuple)
        assert record == tuple(getattr(record, field) for field in record._fields)
        assert record[: len(fields)] == fields


def test_records_of_different_classes_or_fields_differ():
    assert Cube((2, 5), 2) != Cube((2, 5), 3)
    assert SearchStats(3, 7) != SearchStats(3, 8)
    assert FiniteFunction("f", 2, {(0, 1): 1}) != FiniteFunction("f", 2, {(0, 1): 2})
    assert FiniteFunction("f", 2, {(0, 1): 1}) != FiniteFunction("g", 2, {(0, 1): 1})
    assert Family(2, (_F,)) != Family(2, ())
    assert (FiniteFunction("f", 2, {}) == object()) is False


@pytest.mark.parametrize("name", [n for n, r in _RECORDS.items() if r[3] is not None])
def test_record_json_keys(name):
    cls, args, _, keys = _RECORDS[name]
    assert list(cls(*args).to_json_dict()) == keys


def test_record_json_values():
    assert Cube([2, 5], 2).to_json_dict() == {"elements": [2, 5], "k": 2}
    assert SubsetCertificate(((-1, 1), (1, 1)), 0).to_json_dict() == {
        "chosen": [[-1, 1], [1, 1]],
        "sum": 0,
    }
    assert JumpFreeWitness("a", "b", (1, 2), 0, 1).to_json_dict()["x"] == [1, 2]
    result = WitnessResult(_F, _CUBE, _REPORT, _STATS)
    assert result.function_id == "f"
    assert result.to_json_dict()["searchStats"] == {"functionsExamined": 1, "cubesExamined": 1}


def test_defaults():
    assert RunConfig("gen") == RunConfig(
        command="gen",
        k=2,
        p=2,
        grid_bound=4,
        max_domain_size=8,
        sample_count=50,
        seed=0,
        include_all_cubes=True,
        family="max",
        gamma="zigzag,zigzag,zigzag",
        semantics="multiset",
        method="dp",
        format="json",
        input=None,
    )
    assert RunConfig("gen").universe_spec() == UniverseSpec(2, 4, 8, 50, 0, True)
    assert ZBijection("zigzag").offset == 0
    assert Cube([1, 4], 2).elements == (1, 4)
    assert FiniteFunction("f", 2, [((0, 1), 1)]).entries == {(0, 1): 1}
    assert Family(2, [_F]).members == (_F,)


@pytest.mark.parametrize(
    "elements, k, message",
    [
        ((), 2, "cube needs at least one element"),
        ((-1, 2), 2, "cube elements must be nonnegative integers"),
        ((True, 2), 2, "cube elements must be nonnegative integers"),
        ((1.0, 2), 2, "cube elements must be nonnegative integers"),
        ((5, 2), 2, "cube elements must be strictly increasing, got (5, 2)"),
        ([2, 2], 2, "cube elements must be strictly increasing, got (2, 2)"),
        ((1, 2), 0, "cube arity must be an integer >= 1, got 0"),
        ((1, 2), "2", "cube arity must be an integer >= 1, got '2'"),
        ((1, 2), True, "cube arity must be an integer >= 1, got True"),
    ],
)
def test_cube_refusals(elements, k, message):
    with pytest.raises(ValueError) as exc:
        Cube(elements, k)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"k": 0}, "arity k must be >= 1"),
        ({"grid_bound": 1}, "grid_bound must be >= 2"),
        ({"max_domain_size": 0}, "max_domain_size must be >= 1"),
        ({"sample_count": -1}, "sample_count must be >= 0"),
        ({"k": 0, "sample_count": -1}, "arity k must be >= 1"),
    ],
)
def test_universe_spec_refusals(changes, message):
    fields = dict(_RECORDS["UniverseSpec"][2], **changes)
    with pytest.raises(ValueError) as exc:
        UniverseSpec(**fields)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        UniverseSpec(*fields.values())
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        (("bogus",), "unknown bijection kind 'bogus'"),
        (("bogus", 3), "unknown bijection kind 'bogus'"),
        (("zigzag", 5), "zigzag takes no offset"),
        (("zigzagneg", -1), "zigzagneg takes no offset"),
    ],
)
def test_zbijection_refusals(args, message):
    with pytest.raises(ValueError) as exc:
        ZBijection(*args)
    assert str(exc.value) == message


def test_missing_fields_are_refused():
    for cls in (Cube, UniverseSpec, SearchStats, FiniteFunction, Family, RunConfig):
        with pytest.raises(TypeError):
            cls()
