"""Decision procedures over finite functions on N^k.

Covers the pairwise and family-wide jump-free checks, universe-relative
fullness, and the per-order-type regressive-regularity classifier.  All
checks are pure; counterexamples are returned as explicit witness
records, and witness selection is canonical (enumeration order, then
lexicographic point order), so every run reports the same witness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import (
    Cube,
    JsonRecord,
    KTuple,
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
    """One [point, value] entry of arity k laid out as core.render_json lays
    it out at margin, with %d for each coordinate and for the value."""
    m1, m2 = margin + "  ", margin + "    "
    point = "[" + m2 + ("," + m2).join(["%d"] * k) + m1 + "]"
    return "[" + m1 + point + "," + m1 + "%d" + margin + "]"


@dataclass
class FiniteFunction:
    """A finite association from points of N^k to values in N.

    The domain is the set of entry keys, plain tuples of arity k; it is
    duplicate-free by construction.  Values may be arbitrary nonnegative
    integers: no check here assumes reflexivity (every value a coordinate
    of some domain point), so non-reflexive functions can serve as
    counterexamples.  Treat instances as immutable once built.
    """

    id: str
    k: int
    entries: dict[KTuple, int]

    def __post_init__(self) -> None:
        if not is_nat(self.k) or self.k < 1:
            raise ValueError(f"{self.id}: arity k must be an integer >= 1, got {self.k!r}")
        self.entries = dict(self.entries)
        # is_nat written out: a call per number was about half the time of
        # this loop, which every generated and every loaded member runs.
        for t, v in self.entries.items():
            if type(t) is not tuple:
                raise ValueError(f"{self.id}: domain point {t!r} must be a tuple")
            if not t:
                raise ValueError("a point needs arity k >= 1")
            for c in t:
                if type(c) is not int or c < 0:
                    raise ValueError(f"coordinates must be nonnegative integers, got {c!r}")
            if len(t) != self.k:
                raise ValueError(f"{self.id}: domain point {t} has arity {len(t)}, expected {self.k}")
            if type(v) is not int or v < 0:
                raise ValueError(f"{self.id}: value at {t} must be a nonnegative integer, got {v!r}")

    def __call__(self, x: KTuple) -> int:
        return self.entries[x]

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "k": self.k,
            "entries": [[list(t), v] for t, v in sorted(self.entries.items())],
        }

    def render_json(self, margin: str) -> str:
        """to_json_dict() as core.render_json renders it at margin, with
        each entry filled into one template per (k, margin)."""
        inner, at = margin + "  ", margin + "    "
        entry = _entry_template(self.k, at)
        entries = ("," + at).join([entry % (*t, v) for t, v in sorted(self.entries.items())])
        return "".join((
            "{", inner, '"entries": ', "[" + at + entries + inner + "]" if entries else "[]",
            ",", inner, '"id": ', render_json(self.id),
            ",", inner, '"k": ', repr(self.k), margin, "}",
        ))

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteFunction":
        if type(data["id"]) is not str:
            raise ValueError(f"function id must be a string, got {data['id']!r}")
        try:
            entries = {json_items(t): v for t, v in json_items(data["entries"])}
        except ValueError:  # an entry that does not unpack into [point, value]
            raise TypeError("entries must be [point, value] pairs") from None
        if len(entries) < len(data["entries"]):
            raise ValueError(f"{data['id']}: a domain point is listed more than once")
        return cls(id=data["id"], k=data["k"], entries=entries)


@dataclass
class Family:
    """An ordered collection of finite functions sharing one arity."""

    k: int
    members: tuple[FiniteFunction, ...]

    def __post_init__(self) -> None:
        if not is_nat(self.k) or self.k < 1:
            raise ValueError(f"family arity k must be an integer >= 1, got {self.k!r}")
        self.members = tuple(self.members)
        ids = [m.id for m in self.members]
        if len(set(ids)) != len(ids):
            raise ValueError("family member ids must be unique")
        for m in self.members:
            if m.k != self.k:
                raise ValueError(f"member {m.id} has arity {m.k}, family expects {self.k}")

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
        """to_json_dict() as core.render_json renders it at margin."""
        return render_json({"k": self.k, "members": self.members}, margin)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Family":
        members = tuple(FiniteFunction.from_json_dict(m) for m in data["members"])
        return cls(k=data["k"], members=members)


@dataclass(frozen=True)
class JumpFreeWitness(JsonRecord):
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

    def __post_init__(self) -> None:
        if not self.value_a < self.value_b:
            raise ValueError("witness requires value_a < value_b")


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
    point), or None.  Member sets are big-int masks, bit j for member j:
    eq[x][v] holds the members valuing x at v, greater[x][v] those valuing
    x above v.  Walking fa's points up the levels (max(x)), below holds the
    members equal to fa on every lower level, so below & greater[x][fa(x)]
    is exactly the set of b that first disagree with fa on x's level, with
    fa lower at x: those with jump_free_violation(fa, b) non-null.  The
    lowest is the canonical b, and jump_free_violation builds its witness.
    The verdict covers all m^2 pairs, which the CLI reports as pairsChecked.
    """
    eq: dict[KTuple, dict[int, int]] = {}
    for j, f in enumerate(fam.members):
        for x, v in f.entries.items():
            held = eq.setdefault(x, {})
            held[v] = held.get(v, 0) | 1 << j
    greater: dict[KTuple, dict[int, int]] = {}
    for x, held in eq.items():
        above, greater[x] = 0, {}
        for v in sorted(held, reverse=True):
            greater[x][v] = above
            above |= held[v]
    for fa in fam.members:
        # Most members of a jump-free family hold no larger value anywhere.
        if not any(greater[x][v] for x, v in fa.entries.items()):
            continue
        hits, agree, below, top = 0, (1 << len(fam)) - 1, 0, -1
        for level, x, v in sorted((max(x), x, v) for x, v in fa.entries.items()):
            if level > top:
                below, top = agree, level
                if not below:
                    break
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


def _cube_power(f: FiniteFunction, cube: Cube) -> list[KTuple]:
    """The points of the cube power in lexicographic order, checked to lie in
    f's domain, for k >= 2, a cube of f's arity and p >= 2.  As p >= 2, p^k
    exceeds the domain size once 2^k does, so a huge k is refused before
    any k-tuple is built."""
    if f.k < 2:
        raise ValueError("regressive regularity is defined for arity k >= 2")
    if cube.k != f.k:
        raise ValueError(f"cube arity {cube.k} does not match function arity {f.k}")
    if cube.p < 2:
        raise ValueError("cube needs at least 2 elements")
    refusal = f"cube power not contained in domain of {f.id}"
    size = len(f.entries)
    if power_exceeds(cube.p, cube.k, size):
        raise ValueError(f"{refusal}: {cube.p}^{cube.k} points, domain has {size}")
    points = list(cube.points())
    for x in points:
        if x not in f.entries:
            raise ValueError(f"{refusal}: missing {x}")
    return points


def regressive_regularity(f: FiniteFunction, cube: Cube) -> dict:
    """Classify f over every order-type class realized in the cube's power.

    Each class must either be constant with a value below the cube's
    minimum element (verdict "case1", with that value), or have every
    point's value at least that point's own minimum coordinate ("case2").
    Otherwise it is "violated": offender is the first point valued below
    its own minimum, and conflictPair the first point and the first valued
    differently, or null when the class is constant.  Returns {"overall":
    no class violated, "perClass": {label: verdict}}, classes in
    lexicographic signature order.  Values need not be reflexive here.  The
    classes come from the cube's (p, k) layout, as positions into the
    cube's points and values, each read once.
    """
    points = _cube_power(f, cube)
    values = [f.entries[x] for x in points]
    per_class = {}
    overall = True
    for label, j, positions in order_layout(cube.p, cube.k):
        head = positions[0]
        first = values[head]
        # min(x) of a point in the class is x[j], where its signature is 0.
        # A constant class below min(E) has its first point below that, too.
        low = next((i for i in positions if values[i] < points[i][j]), None)
        if first < cube.min_element and all(values[i] == first for i in positions):
            per_class[label] = {"kind": CASE1, "value": first}
        elif low is None:
            per_class[label] = {"kind": CASE2}
        else:
            odd = next((i for i in positions if values[i] != first), None)
            per_class[label] = {
                "kind": VIOLATED,
                "offender": list(points[low]),
                "offenderValue": values[low],
                "conflictPair": None if odd is None else [
                    [list(points[head]), first], [list(points[odd]), values[odd]]
                ],
            }
            overall = False
    return {"overall": overall, "perClass": per_class}
