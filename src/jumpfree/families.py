"""Deterministic generators of concrete function families over bounded
universes, plus the best-effort search for a regressively regular witness.

A universe is an explicit finite list of domains standing in for "every
finite subset of N^k", which no artifact can enumerate.  Four value rules
generate families over a universe: max, min, and predmin are jump free by
construction, while constmin deliberately is not and serves as the
checkers' negative control.  Universes and families are made as streams,
so the witness search, which scans members in family order and cubes in
lexicographic order, stops generation at its witness.  Absence of a
witness is a statement about the truncated universe only, never a
refutation of the existence claim for full families.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .core import CapacityError, Cube, JsonRecord, KTuple, iter_cubes, power_exceeds
from .predicates import Family, FiniteFunction, iter_class_verdicts

Domain = tuple[KTuple, ...]

UNIVERSE_MAX_POINTS = 10**7


class UniverseSpec(
    NamedTuple("UniverseSpec", [
        ("k", int), ("grid_bound", int), ("max_domain_size", int),
        ("sample_count", int), ("seed", int), ("include_all_cubes", bool),
    ]),
    JsonRecord,
):
    """Reproducible recipe for a finite universe of domains.

    Coordinates range over 0..grid_bound-1.  When include_all_cubes is
    set, every cube power that fits under max_domain_size comes first;
    sample_count seeded-random domains of size <= max_domain_size follow.
    Identical specs yield identical universes: each draw is CPython 3.10-3.13's
    randint then sample, made from random.Random(seed).getrandbits alone.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "UniverseSpec":
        spec = super().__new__(cls, *args, **kwargs)
        if spec.k < 1:
            raise ValueError("arity k must be >= 1")
        if spec.grid_bound < 2:
            raise ValueError("grid_bound must be >= 2")
        if spec.max_domain_size < 1:
            raise ValueError("max_domain_size must be >= 1")
        if spec.sample_count < 0:
            raise ValueError("sample_count must be >= 0")
        return spec


class _Images(int):
    """n members, each an order-preserving image of the member just before."""


def iter_universe(spec: UniverseSpec, p: Optional[int] = None) -> Iterator[Domain | int]:
    """The universe described by a spec, one domain at a time.

    Cube domains come ordered by element-set size then lexicographic
    element set; random domains follow in draw order, each drawn only when
    the consumer asks for it.  Duplicates are dropped, keeping first
    occurrence: a draw of a cube power's size repeats a cube domain exactly
    when it is the full power of its own elements.  Given a cube side p >= 2,
    domains of fewer than p^k points (no room for a p-cube) are not built,
    and the int n stands for n of them: a cube size class is one int,
    C(grid_bound, size), and a random domain, still drawn so that later
    draws do not change, is 1.  A built cube size class is then its first
    domain, the power of 0..size-1, and the _Images int C(grid_bound, size) - 1
    for the rest.  Raises CapacityError before yielding anything when what
    it builds may pass UNIVERSE_MAX_POINTS points: the grid and each draw at
    full size when samples are drawn, and each cube size class whole, or
    given p, its first domain or nothing.
    """
    k, cap, seen = spec.k, UNIVERSE_MAX_POINTS, set()
    small = (lambda size: False) if p is None else functools.partial(power_exceeds, p, k)
    # One walk of the cube sizes, stopped where size^k passes max_domain_size
    # (a huge k shows before any power is computed) or the bound passes cap.
    bound, powers = 0, {}  # size^k: size, for each cube size class walked
    if spec.sample_count:  # the grid is built only to sample from
        grid_points = cap + 1 if power_exceeds(spec.grid_bound, k, cap) else spec.grid_bound**k
        bound = grid_points + spec.sample_count * min(spec.max_domain_size, grid_points)
    for size in range(2, spec.grid_bound + 1 if spec.include_all_cubes else 2):
        if bound > cap or power_exceeds(size, k, spec.max_domain_size):
            break
        power = size**k
        powers[power] = size
        if p is None:
            bound += math.comb(spec.grid_bound, size) * power
        elif not small(power):
            bound += power
    if bound > cap:
        raise CapacityError(f"universe capped at {cap} points")
    for power, size in powers.items():
        if small(power):
            yield math.comb(spec.grid_bound, size)
            continue
        if p is not None:  # the class's first domain, then its images
            yield tuple(itertools.product(range(size), repeat=k))
            yield _Images(math.comb(spec.grid_bound, size) - 1)
            continue
        for elems in itertools.combinations(range(spec.grid_bound), size):
            yield tuple(itertools.product(elems, repeat=k))

    if spec.sample_count:  # draws index the grid in product's lexicographic order
        grid = list(itertools.product(range(spec.grid_bound), repeat=k))
        bits, n = random.Random(spec.seed).getrandbits, len(grid)
        widths = [i.bit_length() for i in range(1, n + 1)]  # widths[i]: bits drawn below i + 1
        m, indices = min(spec.max_domain_size, n), list(range(n))
        m_bits, n_bits = widths[m - 1], widths[n - 1]
        # sample's choice, once per size drawn: a pool if n points take no more room than a set
        pools = functools.cache(
            lambda s: n <= 21 + (4 ** math.ceil(math.log(3 * s, 4)) if s > 5 else 0))
        # Each while that calls bits is random.Random._randbelow_with_getrandbits.
        for _ in range(spec.sample_count):
            while (size := bits(m_bits) + 1) > m:  # randint(1, m)
                pass
            if pools(size):
                pool = indices.copy()  # sample's shrinking pool: picks collect at its end
                for i in range(n - 1, n - 1 - size, -1):
                    while (j := bits(widths[i])) > i:
                        pass
                    pool[i], pool[j] = pool[j], pool[i]
                picks = pool[n - size :]
            else:  # sample's set of all n indices, repeats redrawn
                picks = set()
                while len(picks) < size:
                    while (j := bits(n_bits)) >= n:
                        pass
                    picks.add(j)
            picks = tuple(sorted(picks))
            dom = tuple(map(grid.__getitem__, picks))
            if not (size in powers and len(set().union(*dom)) ** k == size) and picks not in seen:
                seen.add(picks)
                yield 1 if small(size) else dom


def build_universe(spec: UniverseSpec) -> list[Domain]:
    """Materialize the whole universe described by a spec (see iter_universe)."""
    return list(iter_universe(spec))


def _rule_max(dom: Domain) -> dict[KTuple, int]:
    return {x: max(x) for x in dom}


def _rule_min(dom: Domain) -> dict[KTuple, int]:
    return {x: min(x) for x in dom}


def _rule_predmin(dom: Domain) -> dict[KTuple, int]:
    # Minimum coordinate seen among x and all points below x's maximum.  A
    # held (least, ..., least) is below every other level, so all take least.
    # Else one floor runs up the levels: floors[h] is the least min(y) of the
    # points y below level h, and each point takes it or its own min(x).
    least = min(itertools.chain.from_iterable(dom))
    if (least,) * len(dom[0]) in dom:
        return dict.fromkeys(dom, least)
    highs, lows = list(map(max, dom)), list(map(min, dom))
    floors, floor = {}, math.inf
    for high, low in sorted(zip(highs, lows)):
        floors.setdefault(high, floor)
        floor = min(floor, low)
    return {x: min(floors[h], low) for x, h, low in zip(dom, highs, lows)}


def _rule_constmin(dom: Domain) -> dict[KTuple, int]:
    return dict.fromkeys(dom, min(itertools.chain.from_iterable(dom)))


# Each rule maps a domain to its entries, whatever the order of its points,
# and commutes with each increasing map s of N: rule(s.D)(s.x) = s(rule(D)(x)).
_RULES = {
    "max": _rule_max,
    "min": _rule_min,
    "predmin": _rule_predmin,
    "constmin": _rule_constmin,
}
FAMILY_KINDS = tuple(_RULES)


def iter_family(kind: str, universe: Iterable[Domain | int]) -> Iterator[FiniteFunction | int]:
    """One member per universe domain, valued by the named rule, made as
    the domains arrive, so a consumer that stops early stops generation.

    All four rules are reflexive by construction.  max, min, and predmin
    yield jump-free families; constmin does not, by design, so checkers
    have a guaranteed negative fixture.  Member i has id "{kind}-{i:03d}",
    and every member takes the arity of the first domain built.  An int n
    in the universe, a run of n domains iter_universe left unbuilt, as too
    small for a p-cube or as images of the domain before (an _Images int),
    is passed on as it is in their members' place, and the next member's id
    is n further on.  Every member is checked as FiniteFunction checks it.
    """
    return _iter_members(kind, universe, FiniteFunction)


def _iter_members(kind: str, universe: Iterable[Domain | int], make: Callable) -> Iterator:
    """iter_family, with each member built by make(id, k, entries)."""
    if kind not in _RULES:
        raise ValueError(f"unknown family kind {kind!r}, expected one of {FAMILY_KINDS}")
    rule = _RULES[kind]
    i, k = 0, None
    for dom in universe:
        if isinstance(dom, int):
            yield dom
            i += dom
            continue
        if not dom:
            raise ValueError("universe domains must be nonempty")
        k = k or len(dom[0])
        yield make(f"{kind}-{i:03d}", k, rule(dom))
        i += 1
    if not i:
        raise ValueError("cannot generate a family over an empty universe")


def gen_family(kind: str, universe: Iterable[Domain]) -> Family:
    """The whole family iter_family makes over a universe."""
    members = tuple(iter_family(kind, universe))
    return Family(k=members[0].k, members=members)


class SearchStats(NamedTuple):
    functions_examined: int
    cubes_examined: int
    to_json_dict = JsonRecord.to_json_dict


class WitnessResult(NamedTuple):
    """A member and cube over which the member is regressively regular,
    with the regularity report of the pair."""

    function: FiniteFunction
    cube: Cube
    report: dict
    search_stats: SearchStats

    @property
    def function_id(self) -> str:
        return self.function.id

    def to_json_dict(self) -> dict:
        return {
            "functionId": self.function_id,
            "cube": self.cube.to_json_dict(),
            "report": self.report,
            "searchStats": self.search_stats.to_json_dict(),
        }


def find_regressively_regular_witness(
    members: Iterable[FiniteFunction | int] | Family, p: int, k: Optional[int] = None
) -> Optional[WitnessResult]:
    """First (member, cube) pair that classifies as regressively regular.

    Members are scanned in order and candidate cubes of size p in
    lexicographic order, with no heuristics, so repeated runs return the
    identical witness.  members may be a stream such as iter_family's: it
    is pulled one member at a time and left at the witness, so a generated
    family is built only up to its first witness; an int n in it, a run of
    n members left unbuilt, counts n members examined and charges no work.
    An _Images n, as the rules commute with its maps, holds no witness and
    is counted and charged in one step as n times the member before, which
    passes the budget exactly when charging member by member would.
    k is the members' arity; left out, it is members.k and a whole Family
    is scanned.
    Returns None when the members are exhausted; over a truncated universe
    that outcome carries no meaning beyond the scanned scope.  Element sets
    tried for cubes (charged as iter_cubes says) and the p^k points of each
    cube (charged before it is classified) share one budget,
    UNIVERSE_MAX_POINTS, and CapacityError is raised when it is passed.
    No cube below a prefix E' with a violated class is regular: its class in
    E^k holds the class of E'^k, so a point valued below its own minimum and
    no one value below min(E) = min(E').  iter_cubes cuts such prefixes off,
    and the cubes below are counted and charged as if classified.
    """
    if p < 2:
        raise ValueError("witness search requires cube size p >= 2")
    if k is None:
        members, k = members.members, members.k
    if k < 2:
        raise ValueError("witness search requires arity k >= 2")
    functions_examined = cubes_examined = work = 0

    def charge(points: int) -> None:
        nonlocal work
        work += points
        if work > UNIVERSE_MAX_POINTS:
            raise CapacityError(f"witness search capped at {UNIVERSE_MAX_POINTS} points of work")

    def violated(prefix: KTuple) -> bool:
        return any(verdict is None for _, verdict in iter_class_verdicts(f, prefix))

    for f in members:
        if isinstance(f, int):
            functions_examined += f
            if isinstance(f, _Images):  # images of the member just searched
                cubes_examined += f * (cubes_examined - start[0])
                charge(f * (work - start[1]))
            continue
        functions_examined += 1
        start = (cubes_examined, work)
        for elements in iter_cubes(f.entries, p, charge, violated):
            if isinstance(elements, int):  # cubes below a violated prefix: none is regular
                cubes_examined += elements
                charge(elements * p**k)
                continue
            cubes_examined += 1
            charge(p**k)
            per_class = {}
            for label, verdict in iter_class_verdicts(f, elements):
                if verdict is None:
                    break
                per_class[label] = verdict
            else:
                stats = SearchStats(functions_examined, cubes_examined)
                report = {"overall": True, "perClass": per_class}
                return WitnessResult(f, Cube(elements, f.k), report, stats)
    return None
