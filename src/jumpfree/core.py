"""Points of N^k, order signatures, and cube detection.

Everything here is finite and immutable: a point is a plain tuple of
nonnegative ints, a cube is a sorted element set plus the arity of the
Cartesian power it spans, and every operation is a pure function.  Arity
k = 1 is allowed throughout this module; the theorem-level searches add
their own k >= 2 guards.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional

KTuple = tuple[int, ...]


class CapacityError(Exception):
    """Input exceeds a guard on work or memory; distinct from a negative verdict."""


def is_nat(v: object) -> bool:
    """Whether v is a nonnegative plain int; bool, float and str never pass."""
    return type(v) is int and v >= 0


def json_items(v: object, length: Optional[int] = None) -> tuple:
    """The items of a list or tuple, of the given length if one is given.
    Anything else, a string or a mapping included, is a document of the
    wrong structure and raises TypeError."""
    if not isinstance(v, (list, tuple)) or length is not None and len(v) != length:
        raise TypeError("expected a list" + ("" if length is None else f" of {length} items"))
    return tuple(v)


@functools.cache
def _json_keys(cls: type) -> tuple[tuple[str, str], ...]:
    """(field name, JSON key) of each field of a dataclass, in field order."""
    keys = []
    for f in fields(cls):
        head, *words = f.name.split("_")
        keys.append((f.name, head + "".join(w.capitalize() for w in words)))
    return tuple(keys)


def _json_value(v: object) -> object:
    return [_json_value(e) for e in v] if isinstance(v, tuple) else v


class JsonRecord:
    """Mixin for a dataclass whose JSON object follows one rule: each
    snake_case field name becomes a camelCase key, and tuples become lists."""

    def to_json_dict(self) -> dict:
        return {key: _json_value(getattr(self, name)) for name, key in _json_keys(type(self))}


def render_json(value: object, margin: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) renders it.

    Dispatches on the exact type: str-keyed dicts, lists, tuples, str, int,
    float, bool and None.  Any other object renders itself through its
    render_json(margin) method.  margin is a newline plus the indentation
    of the line value starts on.  (Before CPython 3.13 the stdlib encoder
    runs in pure Python whenever it indents.)
    """
    t = type(value)
    if t is str:
        return encode_basestring_ascii(value)
    if t is int:
        return repr(value)
    if t is dict or t is list or t is tuple:
        if not value:
            return "{}" if t is dict else "[]"
        # One join per level: a chain of + would copy the text below, a
        # whole family for gen, once per operand.
        inner = margin + "  "
        if t is dict:
            items = [
                f"{encode_basestring_ascii(key)}: {render_json(value[key], inner)}"
                for key in sorted(value)
            ]
            return "".join(("{", inner, ("," + inner).join(items), margin, "}"))
        items = [render_json(v, inner) for v in value]
        return "".join(("[", inner, ("," + inner).join(items), margin, "]"))
    if value is None:
        return "null"
    if t is bool:
        return "true" if value else "false"
    if t is float:
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return repr(value)
    return value.render_json(margin)


def order_signature(x: KTuple) -> KTuple:
    """Dense-rank signature of a point.

    Position i carries the number of distinct coordinate values strictly
    below x[i].  Two points get equal signatures exactly when they are
    order equivalent: they have the same index pairs (i, j) with
    x[i] < x[j] and the same with x[i] = x[j].
    """
    ranks = {v: r for r, v in enumerate(sorted(set(x)))}
    return tuple(ranks[v] for v in x)


@functools.cache
def order_layout(p: int, k: int) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """Each order signature realized in E^k, in lexicographic order, as its
    label "(s0,s1,...)", the index of its 0, and the positions of its
    points in E^k's lexicographic order.  For any increasing E of p
    elements a point has its index tuple's order type, so this is
    computed once per (p, k)."""
    classes: dict[KTuple, list[int]] = {}
    for i, t in enumerate(itertools.product(range(p), repeat=k)):
        classes.setdefault(order_signature(t), []).append(i)
    return tuple(
        ("(" + ",".join(map(str, sig)) + ")", sig.index(0), tuple(classes[sig]))
        for sig in sorted(classes)
    )


def enumerate_order_types(k: int) -> list[KTuple]:
    """All order signatures of arity k, in lexicographic order.

    A signature's values are exactly range(r) for some r: it is grown one
    position at a time, in increasing value order, keeping prefixes whose
    missing ranks the positions left can fill.  The count is the number of
    ordered set partitions of k items; k^k is a coarse upper bound.
    """
    if k < 1:
        raise ValueError("arity k must be >= 1")
    sigs: list[KTuple] = [()]
    for left in reversed(range(k)):
        grown = (s + (v,) for s in sigs for v in range(k))
        sigs = [t for t in grown if max(t) + 1 - len(set(t)) <= left]
    return sigs


def power_exceeds(p: int, k: int, size: int) -> bool:
    """Whether p^k > size, for p >= 2; 2^k passes size before a huge power is computed."""
    return k >= size.bit_length() or p**k > size


@dataclass(frozen=True)
class Cube(JsonRecord):
    """A strictly increasing element set E plus the arity k of its power E^k."""

    elements: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("cube needs at least one element")
        if not all(map(is_nat, self.elements)):
            raise ValueError("cube elements must be nonnegative integers")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError(f"cube elements must be strictly increasing, got {self.elements}")
        if not is_nat(self.k) or self.k < 1:
            raise ValueError(f"cube arity must be an integer >= 1, got {self.k!r}")

    @property
    def p(self) -> int:
        return len(self.elements)

    @property
    def min_element(self) -> int:
        return self.elements[0]

    def points(self) -> Iterator[KTuple]:
        """All p^k points of the Cartesian power, in lexicographic order."""
        return itertools.product(self.elements, repeat=self.k)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Cube":
        return cls(json_items(data["elements"]), data["k"])


def iter_cubes(
    domain: Iterable[KTuple], p: int, charge: Optional[Callable[[int], None]] = None
) -> Iterator[Cube]:
    """Every cube of p elements whose full Cartesian power lies inside
    domain, made as the consumer asks for it.

    Backtracks over the sorted field of the domain; a partial element set is
    abandoned as soon as one of the points it requires is absent.  Results
    come in lexicographic order of the element sets, which keeps every
    downstream search deterministic.  charge, when given, is called with
    the number of points each extension may look up, before it looks.
    """
    if p < 1:
        raise ValueError("cube size p must be >= 1")
    points = set(domain)
    k = len(next(iter(points), ()))
    if not points or p > 1 and power_exceeds(p, k, len(points)):
        return  # no room for the p^k points of a cube
    fld = sorted(set().union(*points))

    def extend(partial: tuple[int, ...], start: int) -> Iterator[Cube]:
        if len(partial) == p:
            yield Cube(partial, k)
            return
        for i in range(start, len(fld) - p + len(partial) + 1):
            e = fld[i]
            cand = partial + (e,)
            if charge is not None:
                charge(len(cand) ** k - len(partial) ** k)
            # Points without e were checked when partial was built; a point
            # with e first at position j has partial before j and cand after.
            new = itertools.chain.from_iterable(
                itertools.product(*[partial] * j, (e,), *[cand] * (k - 1 - j)) for j in range(k)
            )
            if all(map(points.__contains__, new)):
                yield from extend(cand, i + 1)

    yield from extend((), 0)


def cubes_in(domain: Iterable[KTuple], p: int) -> list[Cube]:
    """Every cube iter_cubes makes, as a list."""
    return list(iter_cubes(domain, p))
