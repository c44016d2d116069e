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

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import CapacityError, Cube, JsonRecord, KTuple, iter_cubes, power_exceeds
from .predicates import Family, FiniteFunction, regressive_regularity

Domain = tuple[KTuple, ...]

UNIVERSE_MAX_POINTS = 10**7


@dataclass(frozen=True)
class UniverseSpec(JsonRecord):
    """Reproducible recipe for a finite universe of domains.

    Coordinates range over 0..grid_bound-1.  When include_all_cubes is
    set, every cube power that fits under max_domain_size comes first;
    sample_count seeded-random domains of size <= max_domain_size follow.
    Identical specs yield identical universes.
    """

    k: int
    grid_bound: int
    max_domain_size: int
    sample_count: int
    seed: int
    include_all_cubes: bool

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("arity k must be >= 1")
        if self.grid_bound < 2:
            raise ValueError("grid_bound must be >= 2")
        if self.max_domain_size < 1:
            raise ValueError("max_domain_size must be >= 1")
        if self.sample_count < 0:
            raise ValueError("sample_count must be >= 0")


def _cube_sizes(spec: UniverseSpec) -> Iterator[tuple[int, int]]:
    """Each element-set size of the universe's cube domains, none unless
    include_all_cubes is set, with the size^k points of one such cube.
    Sizes stop where that power passes max_domain_size, which a huge k
    shows before any power is computed."""
    if not spec.include_all_cubes:
        return
    for size in range(2, spec.grid_bound + 1):
        if power_exceeds(size, spec.k, spec.max_domain_size):
            return
        yield size, size**spec.k


def _points_bound(spec: UniverseSpec, cap: int) -> int:
    """Upper bound on the points the universe materializes: the grid and
    every sampled domain at full size when samples are drawn, and every
    cube power.  Summing stops once the bound passes cap, so huge specs
    cost nothing to reject."""
    bound = 0
    if spec.sample_count:  # the grid is built only to sample from
        grid, k = spec.grid_bound, spec.k
        grid_points = cap + 1 if power_exceeds(grid, k, cap) else grid**k
        bound = grid_points + spec.sample_count * min(spec.max_domain_size, grid_points)
    for size, power in _cube_sizes(spec):
        if bound > cap:
            break
        bound += math.comb(spec.grid_bound, size) * power
    return bound


def iter_universe(spec: UniverseSpec) -> Iterator[Domain]:
    """The universe described by a spec, one domain at a time.

    Cube domains come ordered by element-set size then lexicographic
    element set; random domains follow in draw order, each drawn only when
    the consumer asks for it.  Duplicates are dropped, keeping first
    occurrence.  Raises CapacityError before yielding anything when the
    spec may need more than UNIVERSE_MAX_POINTS points.
    """
    if _points_bound(spec, UNIVERSE_MAX_POINTS) > UNIVERSE_MAX_POINTS:
        raise CapacityError(f"universe capped at {UNIVERSE_MAX_POINTS} points")
    seen: set[Domain] = set()

    for size, _ in _cube_sizes(spec):
        for elems in itertools.combinations(range(spec.grid_bound), size):
            dom = tuple(itertools.product(elems, repeat=spec.k))
            seen.add(dom)
            yield dom

    if spec.sample_count:  # draws index the grid in product's lexicographic order
        grid = list(itertools.product(range(spec.grid_bound), repeat=spec.k))
        rng = random.Random(spec.seed)
        for _ in range(spec.sample_count):
            size = rng.randint(1, min(spec.max_domain_size, len(grid)))
            dom = tuple(sorted(rng.sample(grid, size)))
            if dom not in seen:
                seen.add(dom)
                yield dom


def build_universe(spec: UniverseSpec) -> list[Domain]:
    """Materialize the whole universe described by a spec (see iter_universe)."""
    return list(iter_universe(spec))


def _rule_max(dom: Domain) -> dict[KTuple, int]:
    return {x: max(x) for x in dom}


def _rule_min(dom: Domain) -> dict[KTuple, int]:
    return {x: min(x) for x in dom}


def _rule_predmin(dom: Domain) -> dict[KTuple, int]:
    # Minimum coordinate seen among x and all points below x's maximum: one
    # pass up the levels keeps the running minimum below each, starting
    # from the largest coordinate, which no min(x) exceeds.
    floors, floor = {}, max(map(max, dom))
    for level, group in itertools.groupby(sorted(dom, key=max), key=max):
        floors[level] = floor
        floor = min(floor, *map(min, group))
    return {x: min(floors[max(x)], *x) for x in dom}


def _rule_constmin(dom: Domain) -> dict[KTuple, int]:
    low = min(map(min, dom))
    return {x: low for x in dom}


# Each rule maps a domain to its entries, whatever the order of its points.
_RULES = {
    "max": _rule_max,
    "min": _rule_min,
    "predmin": _rule_predmin,
    "constmin": _rule_constmin,
}
FAMILY_KINDS = tuple(_RULES)


def iter_family(
    kind: str, universe: Iterable[Domain], p: Optional[int] = None
) -> Iterator[Optional[FiniteFunction]]:
    """One member per universe domain, valued by the named rule, made as
    the domains arrive, so a consumer that stops early stops generation.

    All four rules are reflexive by construction.  max, min, and predmin
    yield jump-free families; constmin does not, by design, so checkers
    have a guaranteed negative fixture.  Member i has id "{kind}-{i:03d}",
    and every member takes the arity of the first domain.  Given a cube
    side p >= 2, a domain of fewer than p^k points, which holds no p-cube,
    yields None in its member's place, unbuilt and unchecked.
    """
    if kind not in _RULES:
        raise ValueError(f"unknown family kind {kind!r}, expected one of {FAMILY_KINDS}")
    rule = _RULES[kind]
    k = None
    for i, dom in enumerate(universe):
        if not dom:
            raise ValueError("universe domains must be nonempty")
        if k is None:
            k = len(dom[0])
        small = p is not None and power_exceeds(p, k, len(dom))
        yield None if small else FiniteFunction(id=f"{kind}-{i:03d}", k=k, entries=rule(dom))
    if k is None:
        raise ValueError("cannot generate a family over an empty universe")


def gen_family(kind: str, universe: Iterable[Domain]) -> Family:
    """The whole family iter_family makes over a universe."""
    members = tuple(iter_family(kind, universe))
    return Family(k=members[0].k, members=members)


@dataclass(frozen=True)
class SearchStats(JsonRecord):
    functions_examined: int
    cubes_examined: int


@dataclass
class WitnessResult:
    """A member and cube over which the member is regressively regular,
    with the regularity report of the pair."""

    function: FiniteFunction
    cube: Cube
    report: dict
    search_stats: SearchStats

    def __post_init__(self) -> None:
        if not self.report["overall"]:
            raise ValueError("witness requires an overall-regular report")

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
    members: Iterable[Optional[FiniteFunction]] | Family, p: int, k: Optional[int] = None
) -> Optional[WitnessResult]:
    """First (member, cube) pair that classifies as regressively regular.

    Members are scanned in order and candidate cubes of size p in
    lexicographic order, with no heuristics, so repeated runs return the
    identical witness.  members may be a stream such as iter_family's: it
    is pulled one member at a time and left at the witness, so a generated
    family is built only up to its first witness; a None in it, a member
    left unbuilt, is counted as examined.  k is the members' arity; left
    out, it is members.k and a whole Family is scanned.
    Returns None when the members are exhausted; over a truncated universe
    that outcome carries no meaning beyond the scanned scope.  Points looked
    up to enumerate cubes and the p^k classified per cube share one budget,
    UNIVERSE_MAX_POINTS; CapacityError is raised before work past it.
    """
    if p < 2:
        raise ValueError("witness search requires cube size p >= 2")
    if k is None:
        members, k = members.members, members.k
    if k < 2:
        raise ValueError("witness search requires arity k >= 2")
    cubes_examined = work = 0

    def charge(points: int) -> None:
        nonlocal work
        work += points
        if work > UNIVERSE_MAX_POINTS:
            raise CapacityError(f"witness search capped at {UNIVERSE_MAX_POINTS} points of work")

    for functions_examined, f in enumerate(members, 1):
        if f is None:
            continue
        for cube in iter_cubes(f.entries, p, charge):
            cubes_examined += 1
            charge(p**k)
            report = regressive_regularity(f, cube)
            if report["overall"]:
                stats = SearchStats(functions_examined, cubes_examined)
                return WitnessResult(f, cube, report, stats)
    return None
