"""Interval classification of function values over a cube, parametric
bijections from N onto Z, and the paired integer multisets they induce.

For a point x of the cube power E^k, a value sits in exactly one of three
intervals: [0, min(E)), [min(E), min(x)), or [min(x), oo).  Pushing every
value through its interval's bijection yields the full multiset; omitting
middle-interval contributions yields its counterpart.  The two coincide
exactly when no value lands in the middle interval, which regressive
regularity guarantees.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, NamedTuple

from .core import Cube, json_items
from .predicates import FiniteFunction, _cube_power

ZIGZAG = "zigzag"
ZIGZAG_NEG = "zigzagneg"
SHIFTED = "shifted"

MULTISET = "multiset"
SET = "set"
SEMANTICS = (MULTISET, SET)


def _zigzag(n: int) -> int:
    # 0, 1, 2, 3, 4, ... -> 0, 1, -1, 2, -2, ...
    return -(n // 2) if n % 2 == 0 else (n + 1) // 2


class ZBijection(NamedTuple("ZBijection", [("kind", str), ("offset", int)])):
    """A parametric bijection from N onto Z.

    zigzag interleaves positives and negatives starting at 0; zigzagneg is
    its negation; shifted adds a constant offset to zigzag.
    """

    __slots__ = ()

    def __new__(cls, kind: str, offset: int = 0) -> "ZBijection":
        if kind not in (ZIGZAG, ZIGZAG_NEG, SHIFTED):
            raise ValueError(f"unknown bijection kind {kind!r}")
        if kind != SHIFTED and offset != 0:
            raise ValueError(f"{kind} takes no offset")
        return super().__new__(cls, kind, offset)

    def apply(self, n: int) -> int:
        if n < 0:
            raise ValueError("bijection domain is the nonnegative integers")
        if self.kind == ZIGZAG:
            return _zigzag(n)
        if self.kind == ZIGZAG_NEG:
            return -_zigzag(n)
        return _zigzag(n) + self.offset

    def spec(self) -> str:
        return f"{SHIFTED}:{self.offset}" if self.kind == SHIFTED else self.kind

    @classmethod
    def parse(cls, text: str) -> "ZBijection":
        """Parse "zigzag", "zigzagneg", or "shifted:<offset>", spelled
        exactly so, with an offset of ASCII digits and an optional minus."""
        if text in (ZIGZAG, ZIGZAG_NEG):
            return cls(text)
        shifted = re.fullmatch(SHIFTED + ":(-?[0-9]+)", text)
        if shifted is None:
            raise ValueError(f"cannot parse bijection {text!r}")
        return cls(SHIFTED, int(shifted[1]))


class GammaTriple(NamedTuple):
    """One bijection per interval index."""

    g0: ZBijection
    g1: ZBijection
    g2: ZBijection

    def to_json_dict(self) -> dict:
        return {name: g.spec() for name, g in zip(self._fields, self)}

    @classmethod
    def parse(cls, text: str) -> "GammaTriple":
        """Parse a comma-separated triple like "zigzag,zigzag,shifted:10"."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated bijections, got {text!r}")
        return cls(*(ZBijection.parse(p) for p in parts))


DEFAULT_GAMMAS = GammaTriple(ZBijection(ZIGZAG), ZBijection(ZIGZAG), ZBijection(ZIGZAG))


class IntMultiset:
    """Multiset of integers with explicit multiplicities.

    Equality compares support and multiplicities; total is the size
    counting repeats.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "IntMultiset":
        ms = cls()
        for v in values:
            ms.add(v)
        return ms

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "IntMultiset":
        ms = cls()
        for pair in pairs:
            ms.add(*json_items(pair, 2))
        return ms

    def add(self, value: int, multiplicity: int = 1) -> None:
        if type(value) is not int:
            raise ValueError(f"multiset values must be integers, got {value!r}")
        if type(multiplicity) is not int or multiplicity < 1:
            raise ValueError(f"multiplicity must be an integer >= 1, got {multiplicity!r}")
        self._counts[value] += multiplicity

    def count(self, value: int) -> int:
        return self._counts[value]

    def items(self) -> list[tuple[int, int]]:
        """Sorted (value, multiplicity) pairs."""
        return sorted(self._counts.items())

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def to_json(self) -> list[list[int]]:
        return [[v, m] for v, m in self.items()]

    def __eq__(self, other) -> bool:
        if isinstance(other, IntMultiset):
            return self._counts == other._counts
        return NotImplemented


def build_fh(
    f: FiniteFunction,
    cube: Cube,
    gammas: GammaTriple = DEFAULT_GAMMAS,
    semantics: str = MULTISET,
) -> tuple[IntMultiset, IntMultiset]:
    """The paired integer multisets induced by f over the cube power.

    Every point's value is pushed through its interval's bijection.  The
    first multiset collects all contributions; the second omits the middle
    interval.  Under multiset semantics each of the p^k points contributes
    once, so the first multiset always has total size p^k.  Under set
    semantics the values are deduplicated per interval and the images
    combined as plain sets, so coincidences between bijection ranges can
    mask middle-interval contributions.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}, expected one of {SEMANTICS}")
    # Interval 0, 1 or 2: each value lands in [0, min(E)), [min(E), min(x)) or [min(x), oo).
    low = cube.elements[0]
    full: list[int] = []
    partial: list[int] = []
    for x, v in zip(*_cube_power(f, cube)):
        interval = 0 if v < low else 1 if v < min(x) else 2
        image = gammas[interval].apply(v)
        full.append(image)
        if interval != 1:
            partial.append(image)
    if semantics == SET:
        full, partial = set(full), set(partial)
    return IntMultiset.from_values(full), IntMultiset.from_values(partial)
