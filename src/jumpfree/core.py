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
from dataclasses import dataclass, fields
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
def order_layout(p: int, k: int) -> tuple[tuple[KTuple, tuple[int, ...]], ...]:
    """Each order signature realized in E^k, in lexicographic order, with
    the positions of its points in E^k's lexicographic order.  For any
    increasing E of p elements a point has its index tuple's order type,
    so this is computed once per (p, k)."""
    classes: dict[KTuple, list[int]] = {}
    for i, t in enumerate(itertools.product(range(p), repeat=k)):
        classes.setdefault(order_signature(t), []).append(i)
    return tuple((sig, tuple(classes[sig])) for sig in sorted(classes))


def enumerate_order_types(k: int) -> list[KTuple]:
    """All order signatures of arity k, in lexicographic order.

    k elements realize every order type of arity k, so these are the
    signatures of the (k, k) layout, built uncached so that its k^k points
    are not kept.  The count is the number of ordered set partitions of k
    items; k^k is a coarse upper bound.
    """
    if k < 1:
        raise ValueError("arity k must be >= 1")
    return [sig for sig, _ in order_layout.__wrapped__(k, k)]


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
            # Points without e were checked when partial was built.
            for t in itertools.product(cand, repeat=k):
                if e in t and t not in points:
                    break
            else:
                yield from extend(cand, i + 1)

    yield from extend((), 0)


def cubes_in(domain: Iterable[KTuple], p: int) -> list[Cube]:
    """Every cube iter_cubes makes, as a list."""
    return list(iter_cubes(domain, p))
