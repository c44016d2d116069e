"""Decision procedures over finite functions on N^k.

Covers the pairwise and family-wide jump-free checks, universe-relative
fullness, and the per-order-type regressive-regularity classifier.  All
checks are pure; counterexamples are returned as explicit witness
records, and witness selection is canonical (enumeration order, then
lexicographic point order), so every run reports the same witness.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    Cube,
    JsonRecord,
    KTuple,
    Record,
    is_nat,
    json_items,
    order_layout,
    power_exceeds,
    render_json,
)

CASE1 = "case1"
CASE2 = "case2"
VIOLATED = "violated"


@functools.cache
def _entry_template(k: int, margin: str) -> str:
    """One [point, value] entry of arity k as core.render_json lays it out at
    margin, %d for each number: its brackets, separators and margins hold no -1."""
    return render_json([[-1] * k, -1], margin).replace("-1", "%d")


def _checked(id: str, k: int, entries: dict[KTuple, int], copy: bool = False) -> dict[KTuple, int]:
    """entries, copied if copy, once they pass the constructor's checks, which
    from_json_dict runs in place.  Refused, in this order: a k not an int >= 1,
    before entries is read; then, entry by entry, a point not a tuple, an empty
    point, a coordinate not a nonnegative int, a point of another arity, and a
    value not a nonnegative int."""
    if not is_nat(k) or k < 1:
        raise ValueError(f"{id}: arity k must be an integer >= 1, got {k!r}")
    entries = dict(entries) if copy else entries
    # is_nat written out: a call per number was about half the time of
    # this loop, which every checked and every loaded member runs.
    for t, v in entries.items():
        if type(t) is not tuple:
            raise ValueError(f"{id}: domain point {t!r} must be a tuple")
        if not t:
            raise ValueError("a point needs arity k >= 1")
        for c in t:
            if type(c) is not int or c < 0:
                raise ValueError(f"coordinates must be nonnegative integers, got {c!r}")
        if len(t) != k:
            raise ValueError(f"{id}: domain point {t} has arity {len(t)}, expected {k}")
        if type(v) is not int or v < 0:
            raise ValueError(f"{id}: value at {t} must be a nonnegative integer, got {v!r}")
    return entries


class FiniteFunction(Record):
    """A finite association from points of N^k to values in N.

    The domain is the set of entry keys, plain tuples of arity k; it is
    duplicate-free by construction.  Values may be arbitrary nonnegative
    integers: no check here assumes reflexivity (every value a coordinate
    of some domain point), so non-reflexive functions can serve as
    counterexamples.  Treat instances as immutable once built.
    """

    _fields = ("id", "k", "entries")

    def __init__(self, id: str, k: int, entries: dict[KTuple, int]) -> None:
        # Checked on its own copy; generated members are built by _trusted.
        self.id, self.k, self.entries = id, k, _checked(id, k, entries, copy=True)

    @classmethod
    def _trusted(cls, id: str, k: int, entries: dict[KTuple, int]) -> "FiniteFunction":
        """The function with these fields as given, neither copied nor checked."""
        f = object.__new__(cls)
        f.id, f.k, f.entries = id, k, entries
        return f

    def __call__(self, x: KTuple) -> int:
        return self.entries[x]

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "k": self.k,
            "entries": [[list(t), v] for t, v in sorted(self.entries.items())],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteFunction":
        """The function a document describes, its entries checked in place with the
        refusals, in order, of reading them into a dict and then calling __init__."""
        if type(data["id"]) is not str:
            raise ValueError(f"function id must be a string, got {data['id']!r}")
        try:
            items = json_items(data["entries"])
            entries = {tuple(t) if type(t) is list else json_items(t): v for t, v in items}
        except ValueError:  # an entry that does not unpack into [point, value]
            raise TypeError("entries must be [point, value] pairs") from None
        if len(entries) < len(data["entries"]):
            raise ValueError(f"{data['id']}: a domain point is listed more than once")
        return cls._trusted(data["id"], data["k"], _checked(data["id"], data["k"], entries))


class Family(Record):
    """An ordered collection of finite functions sharing one arity."""

    _fields = ("k", "members")

    def __init__(self, k: int, members: tuple[FiniteFunction, ...]) -> None:
        if not is_nat(k) or k < 1:
            raise ValueError(f"family arity k must be an integer >= 1, got {k!r}")
        self.k, self.members = k, tuple(members)
        ids = [m.id for m in self.members]
        if len(set(ids)) != len(ids):
            raise ValueError("family member ids must be unique")
        for m in self.members:
            if m.k != k:
                raise ValueError(f"member {m.id} has arity {m.k}, family expects {k}")

    def __len__(self) -> int:
        return len(self.members)

    def member(self, member_id: str) -> FiniteFunction:
        for m in self.members:
            if m.id == member_id:
                return m
        raise KeyError(member_id)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "members": [m.to_json_dict() for m in self.members]}

    def render_json(self, margin: str) -> str:
        """to_json_dict() as core.render_json renders it at margin.  The family
        renders its members' entries itself: texts, made for this call alone,
        maps each (point, value) to its text, filled into the one template of
        the family's arity at the entries' margin the first time it is met."""
        inner, at, texts, members = margin + "  ", margin + "    ", {}, []
        m_inner, m_at = at + "  ", at + "    "
        entry, k_tail = _entry_template(self.k, m_at), f',{m_inner}"k": {self.k!r}{at}}}'
        for m in self.members:
            entries = ("," + m_at).join([
                texts.get(item) or texts.setdefault(item, entry % (*item[0], item[1]))
                for item in sorted(m.entries.items())
            ])
            members.append("".join((
                "{", m_inner, '"entries": ', f"[{m_at}{entries}{m_inner}]" if entries else "[]",
                ",", m_inner, '"id": ', render_json(m.id), k_tail,
            )))
        body = "".join(("[", at, ("," + at).join(members), inner, "]")) if members else "[]"
        return f'{{{inner}"k": {self.k!r},{inner}"members": {body}{margin}}}'

    @classmethod
    def from_json_dict(cls, data: dict) -> "Family":
        members = tuple(FiniteFunction.from_json_dict(m) for m in data["members"])
        return cls(k=data["k"], members=members)


class JumpFreeWitness(NamedTuple):
    """A concrete refutation of the jump-free implication.

    At point x both functions are defined, the first one's predecessor set
    is contained in the second one's with matching values on it, and yet
    the first one's value drops below the second one's.
    """

    id_a: str
    id_b: str
    x: KTuple
    value_a: int
    value_b: int
    to_json_dict = JsonRecord.to_json_dict


def jump_free_violation(fa: FiniteFunction, fb: FiniteFunction) -> Optional[JumpFreeWitness]:
    """First violation of the directional jump-free implication, or None.

    At a shared x whose predecessor set in fa lies in fb's with equal values
    (vacuously when empty), fa(x) must not drop below fb(x).  That holds up
    to level top, the lowest max(z) of a point z that fb lacks or values
    differently, and a violating x is such a point, so the witness is the
    first of those at level top.  Only the (fa, fb) ordering is checked.
    """
    if fa.k != fb.k:
        raise ValueError(f"arity mismatch: {fa.id} has k={fa.k}, {fb.id} has k={fb.k}")
    b = fb.entries
    bad = [(max(z), z) for z, v in fa.entries.items() if b.get(z) != v]
    top = min(bad)[0] if bad else None
    x = min((z for level, z in bad if level == top and fa(z) < b.get(z, -1)), default=None)
    return None if x is None else JumpFreeWitness(fa.id, fb.id, x, fa(x), fb(x))


def is_jump_free_family(fam: Family) -> Optional[JumpFreeWitness]:
    """Decide every ordered member pair, self-pairs included.

    Returns the canonically first witness (pair order, then lexicographic
    point), or None.  Member sets are big-int masks, one bit 1 << j made per
    member j: eq[x][v] holds the members valuing x at v, greater[x][v] those
    valuing x above v, and walk, ORed in as greater is built, the members that
    value some point below another's value there.  Only they can be fa of a
    violating pair, so only they are walked; most jump-free members are not.
    The level table, level[x] = max(x), is taken once per distinct point x, by
    value.  Walking fa's points up the levels, below holds the members equal
    to fa on every lower level, so below & greater[x][fa(x)] is exactly the
    set of b that first disagree with fa on x's level, with fa lower at x:
    those with jump_free_violation(fa, b) non-null.  The lowest is the
    canonical b, and jump_free_violation builds its witness.
    The verdict covers all m^2 pairs, which the CLI reports as pairsChecked.
    """
    eq: dict[KTuple, dict[int, int]] = {}
    for j, f in enumerate(fam.members):
        bit = 1 << j
        for x, v in f.entries.items():
            if (held := eq.get(x)) is None:
                eq[x] = {v: bit}
            else:
                held[v] = held.get(v, 0) | bit
    level = {x: max(x) for x in eq}
    greater: dict[KTuple, dict[int, int]] = {}
    walk = 0
    for x, held in eq.items():
        above, greater[x] = 0, {}
        for v in sorted(held, reverse=True):
            greater[x][v] = above
            above |= held[v]
        walk |= above ^ held[max(held)]
    for fa in [f for j, f in enumerate(fam.members) if walk >> j & 1]:
        hits, agree, below, top = 0, (1 << len(fam)) - 1, 0, -1
        for level_x, x, v in sorted((level[x], x, v) for x, v in fa.entries.items()):
            if level_x > top:
                below, top = agree, level_x
            hits |= below & greater[x][v]
            agree &= eq[x][v]
        if hits:
            return jump_free_violation(fa, fam.members[(hits & -hits).bit_length() - 1])
    return None


def is_full_over(fam: Family, universe: Sequence[Iterable[KTuple]]):
    """First universe domain covered by no member, or None.

    Fullness is only decidable relative to an explicit finite universe of
    domains, so the universe parameter is the scope of the check and must
    be surfaced alongside any verdict.
    """
    covered = {frozenset(m.entries.keys()) for m in fam.members}
    for dom in universe:
        if frozenset(dom) not in covered:
            return dom
    return None


def _cube_power(f: FiniteFunction, cube: Cube) -> tuple[list[KTuple], list[int]]:
    """The points of the cube power E^k in lexicographic order and f's
    values on them.  Refused, in this order: a function of arity k < 2, a
    cube of another arity, a cube of fewer than 2 elements, a power larger
    than f's domain, and a point outside it, the first such in lexicographic
    order.  As p >= 2, p^k exceeds the domain size once 2^k does, so a huge
    k is refused before any k-tuple is built."""
    if f.k < 2:
        raise ValueError("regressive regularity is defined for arity k >= 2")
    if cube.k != f.k:
        raise ValueError(f"cube arity {cube.k} does not match function arity {f.k}")
    if len(cube.elements) < 2:
        raise ValueError("cube needs at least 2 elements")
    refusal = f"cube power not contained in domain of {f.id}"
    p, k, size = len(cube.elements), f.k, len(f.entries)
    if power_exceeds(p, k, size):
        raise ValueError(f"{refusal}: {p}^{k} points, domain has {size}")
    points = list(itertools.product(cube.elements, repeat=k))
    try:
        return points, list(map(f.entries.__getitem__, points))
    except KeyError as missing:
        raise ValueError(f"{refusal}: missing {missing.args[0]}") from None


def iter_class_verdicts(f: FiniteFunction, elements: KTuple) -> Iterator[tuple[str, dict | None]]:
    """(label, verdict) of each order-type class realized in E^k, for E the
    p >= 2 strictly increasing elements and k f's arity, in lexicographic
    signature order, each classified as it is asked for, so a consumer may
    stop at the first violated class.

    Each class must either be constant with a value below the cube's
    minimum element (verdict "case1", with that value), or have every
    point's value at least that point's own minimum coordinate ("case2").
    Otherwise it is violated, and its verdict is None: regressive_regularity
    alone reports why.  Values need not be reflexive here.  A class's
    points, from the (p, k) layout, and values are read only when it is
    classified.  E^k must lie in f's domain: iter_cubes yields only such
    cubes, and regressive_regularity checks.
    """
    for label, j, coordinates in order_layout(len(elements), f.k):
        coords = coordinates(elements)
        values = list(map(f.entries.__getitem__, zip(*[iter(coords)] * f.k)))
        first = values[0]
        # min(x) of a point in the class is x[j], where its signature is 0.
        # A constant class below min(E) has its first point below that, too.
        if first < elements[0] and values.count(first) == len(values):
            yield label, {"kind": CASE1, "value": first}
        elif all(map(operator.ge, values, coords[j::f.k])):
            yield label, {"kind": CASE2}
        else:
            yield label, None


def _violation(f: FiniteFunction, j: int, coords: tuple) -> dict:
    """The verdict of a violated class, from its points' coordinates laid end
    to end in lexicographic order, each point's minimum at j: offender is the
    first point valued below its own minimum, and conflictPair the first
    point and the first valued differently, or null when it is constant."""
    points = list(zip(*[iter(coords)] * f.k))
    values = list(map(f.entries.__getitem__, points))
    low = next(i for i, v in enumerate(values) if v < points[i][j])
    odd = next((i for i, v in enumerate(values) if v != values[0]), None)
    pair = None if odd is None else [[list(points[i]), values[i]] for i in (0, odd)]
    return {
        "kind": VIOLATED,
        "offender": list(points[low]),
        "offenderValue": values[low],
        "conflictPair": pair,
    }


def regressive_regularity(f: FiniteFunction, cube: Cube) -> dict:
    """Every verdict of iter_class_verdicts(f, cube), each violated one built
    by _violation, as {"overall": no class violated, "perClass": {label:
    verdict}}, classes in signature order, after the refusals of _cube_power."""
    _cube_power(f, cube)
    e, per_class = cube.elements, {}
    for (label, verdict), (_, j, at) in zip(iter_class_verdicts(f, e), order_layout(len(e), f.k)):
        per_class[label] = verdict or _violation(f, j, at(e))
    overall = all(v["kind"] != VIOLATED for v in per_class.values())
    return {"overall": overall, "perClass": per_class}
