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
import operator
from collections.abc import Set
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

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
    """(field name, JSON key) of each field a record's class lists in _fields."""
    keys = []
    for name in cls._fields:
        head, *words = name.split("_")
        keys.append((name, head + "".join(w.capitalize() for w in words)))
    return tuple(keys)


def _json_value(v: object) -> object:
    return [_json_value(e) for e in v] if isinstance(v, tuple) else v


class JsonRecord:
    """Mixin for a record whose JSON object follows one rule: each snake_case
    field in _fields becomes a camelCase key, a tuple a list.  NamedTuples borrow to_json_dict."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {key: _json_value(getattr(self, name)) for name, key in _json_keys(type(self))}


class Record:
    """Base of a mutable record, whose class names its fields in _fields:
    equal to a record of its own class with equal fields, unhashable, and
    shown as Name(field=value, ...)."""

    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


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
def order_layout(p: int, k: int) -> tuple[tuple[str, int, operator.itemgetter], ...]:
    """Each order signature realized in E^k, in lexicographic order, as its
    label "(s0,s1,...)", the index of its 0, and an itemgetter that takes E
    to the coordinates of its points in lexicographic order, laid end to end
    (for p = k = 1, to the bare element).  For any increasing E of p
    elements a point has its index tuple's order type, so this is computed
    once per (p, k)."""
    classes: dict[KTuple, list[int]] = {}
    for t in itertools.product(range(p), repeat=k):
        classes.setdefault(order_signature(t), []).extend(t)
    return tuple(
        ("(" + ",".join(map(str, sig)) + ")", sig.index(0), operator.itemgetter(*classes[sig]))
        for sig in sorted(classes)
    )


def power_exceeds(p: int, k: int, size: int) -> bool:
    """Whether p^k > size, for p >= 2; 2^k passes size before a huge power is computed."""
    return k >= size.bit_length() or p**k > size


class Cube(NamedTuple("Cube", [("elements", KTuple), ("k", int)]), JsonRecord):
    """A strictly increasing element set E plus the arity k of its power E^k."""

    __slots__ = ()

    def __new__(cls, elements: Iterable[int], k: int) -> "Cube":
        elements = tuple(elements)
        if not elements:
            raise ValueError("cube needs at least one element")
        if not all(map(is_nat, elements)):
            raise ValueError("cube elements must be nonnegative integers")
        if any(a >= b for a, b in zip(elements, elements[1:])):
            raise ValueError(f"cube elements must be strictly increasing, got {elements}")
        if not is_nat(k) or k < 1:
            raise ValueError(f"cube arity must be an integer >= 1, got {k!r}")
        return super().__new__(cls, elements, k)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Cube":
        return cls(json_items(data["elements"]), data["k"])


def iter_cubes(
    domain: Iterable[KTuple],
    p: int,
    charge: Optional[Callable[[int], None]] = None,
    cut: Optional[Callable[[KTuple], bool]] = None,
) -> Iterator[tuple[int, ...] | int]:
    """The element tuple of every cube of p elements whose full Cartesian
    power lies inside domain, made as the consumer asks for it, in
    lexicographic order, which keeps every downstream search deterministic.

    The domain is backtracked over with linear set-up: a candidate is the
    next element whose diagonal point the domain holds, and an extension
    looks up its new points, unless the domain is the full power of its
    field, which holds every set.  charge, when given, is called with the
    points counted, not looked up, for the element sets S tried:
    |S|^k - (|S|-1)^k each, the points of S^k that hold S's last element,
    charged as they are tried.

    cut, when given, is called with each prefix of 2 to p - 1 elements, when
    the consumer asks for the cube after the first one below it; if it
    answers true, the int n stands for the n cubes left below it, which may
    be 0.  On a full power these and the sets tried below the prefix are
    binomials, charged in one sum; otherwise they are still backtracked over
    and charged.
    """
    if p < 1:
        raise ValueError("cube size p must be >= 1")
    points = domain if isinstance(domain, (dict, Set)) else set(domain)
    k = len(next(iter(points), ()))
    if not points or p > 1 and power_exceeds(p, k, len(points)):
        return  # no room for the p^k points of a cube
    fld = sorted(set().union(*points))
    n, charge = len(fld), charge or (lambda points: None)
    if n == p:  # the power of the whole field, which holds no cube but itself
        charge(p**k)
        yield tuple(fld)
        return
    full = not power_exceeds(n, k, len(points))
    on, check = bytes(48 + (full or (e,) * k in points) for e in fld), points.__contains__
    cost = [(m + 1) ** k - m**k for m in range(p)]
    # checked: the prefix sizes of the path asked about; skip: the size of the
    # cut prefix on it, if any, with skipped the cubes found below it.
    chosen, part, pos, checked, skip, skipped = [], (), 0, 0, 0, 0
    while True:
        hi = n - p + (m := len(chosen))
        if (j := on.find(49, pos, hi + 1)) < 0:  # no candidate left at depth m
            j = hi + 1
        charge((j - pos + (j <= hi)) * cost[m])  # the sets skipped, then j's
        if j > hi:  # every set left at depth m was tried
            if not chosen:
                break
            if m == skip:  # the cut subtree is done
                yield skipped
                skip = skipped = 0
            pos, part, checked = chosen.pop() + 1, part[:-1], min(checked, m - 1)
            continue
        pos, cand = j + 1, part + (e := (fld[j],))
        # The new points hold e, first at i; a full power holds them all.
        new = (itertools.product(*[part] * i, e, *[cand] * (k - 1 - i)) for i in range(k))
        if not full and not all(map(check, itertools.chain.from_iterable(new))):
            continue
        if m + 1 < p:
            chosen.append(j)
            part = cand
        elif skip:
            skipped += 1
        else:
            yield cand
            # The shortest cut prefix past those asked about.
            new_sizes = range(max(checked, 1) + 1, p)
            skip, checked = next((m for m in new_sizes if cut and cut(cand[:m])), 0), p - 1
            if skip and full:  # below the cut prefix, C(n - p + t - 1 - i, t - skip) sets of size t
                i, sizes = chosen[skip - 1], range(skip + 1, p + 1)
                below = sum(math.comb(n - p + t - 1 - i, t - skip) * cost[t - 1] for t in sizes)
                charge(below - p**k + skip**k)  # less the sets up to cand, charged
                yield math.comb(n - 1 - i, p - skip) - 1
                pos, part, checked, chosen[skip - 1 :] = i + 1, part[: skip - 1], skip - 1, []
                skip = 0


def cubes_in(domain: Iterable[KTuple], p: int) -> list[Cube]:
    """Every cube iter_cubes makes, as a checked Cube, in a list."""
    points = domain if isinstance(domain, (dict, Set)) else set(domain)
    k = len(next(iter(points), ()))
    return [Cube(elements, k) for elements in iter_cubes(points, p)]
