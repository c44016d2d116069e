"""Literal brute-force versions of the fast checks, kept as test oracles.

Each follows its definition word for word, with no indexing or pruning,
so the fast implementations in src/ can be tested against them.
"""

import itertools
import json
import random
from collections import Counter

from jumpfree import families
from jumpfree.core import CapacityError, Cube, is_nat, iter_cubes, json_items, order_signature
from jumpfree.families import SearchStats, WitnessResult
from jumpfree.intsets import IntMultiset
from jumpfree.predicates import Family, FiniteFunction, JumpFreeWitness
from jumpfree.subsetsum import SubsetCertificate


def order_equivalent(x, y):
    """Whether two points of equal arity realize the same coordinate order.

    Compares the strict-inequality index set {(i,j) | x[i] < x[j]} and the
    equality index set {(i,j) | x[i] = x[j]} of both points literally.
    Deliberately independent of order_signature so the two implementations
    can cross-check each other.
    """
    if len(x) != len(y):
        raise ValueError(f"arity mismatch: {len(x)} vs {len(y)}")
    idx = range(len(x))
    lt_x = {(i, j) for i in idx for j in idx if x[i] < x[j]}
    lt_y = {(i, j) for i in idx for j in idx if y[i] < y[j]}
    if lt_x != lt_y:
        return False
    eq_x = {(i, j) for i in idx for j in idx if x[i] == x[j]}
    eq_y = {(i, j) for i in idx for j in idx if y[i] == y[j]}
    return eq_x == eq_y


def literal_order_types(k):
    """Every signature of a point of {0, ..., k-1}^k, sorted: k values
    realize every order type of arity k, so the k^k grid is exhaustive."""
    return sorted({order_signature(t) for t in itertools.product(range(k), repeat=k)})


def render_json(document):
    """The stdlib's indented rendering, which the CLI's output must match byte for byte."""
    return json.dumps(document, indent=2, sort_keys=True)


def cube_points(cube):
    """All p^k points of the cube's power E^k, in lexicographic order."""
    return itertools.product(cube.elements, repeat=cube.k)


def literal_cubes_in(domain, p):
    """Element sets of every p-subset of the domain's coordinates whose
    power lies inside the domain, in lexicographic order."""
    points = set(domain)
    if not points:
        return []
    k = len(next(iter(points)))
    field = sorted({c for t in points for c in t})
    return [
        elements
        for elements in itertools.combinations(field, p)
        if all(t in points for t in itertools.product(elements, repeat=k))
    ]


def literal_tried_sets(domain, p):
    """Every element set S the cube backtracking tries, in its order, the
    lexicographic order of element tuples.

    The backtracking tries S, whose last element is field[i], exactly when
    the power of S minus that element lies in the domain and p - |S|
    larger field elements are left; it tries nothing when p^k exceeds the
    domain size.
    """
    points = set(domain)
    if not points:
        return []
    k = len(next(iter(points)))
    if p**k > len(points):
        return []
    field = sorted({c for t in points for c in t})
    tried = []
    for size in range(1, p + 1):
        for elements in itertools.combinations(field, size):
            room = len(field) - field.index(elements[-1]) - 1
            head = itertools.product(elements[:-1], repeat=k)
            if room >= p - size and all(t in points for t in head):
                tried.append(elements)
    return sorted(tried)


def literal_search_work(members, p):
    """The work a witness search over members charges when no member has
    a witness: every element set S the cube backtracking tries costs the
    |S|^k - (|S|-1)^k points of its power that hold its last element, and
    every cube costs its p^k classified points.
    """
    work = 0
    for f in members:
        k = f.k
        work += sum(len(s) ** k - (len(s) - 1) ** k for s in literal_tried_sets(f.entries, p))
        work += p**k * len(literal_cubes_in(f.entries, p))
    return work


def literal_regressive_regularity(f, cube):
    """The JSON report of f over the cube, from the definitions.

    The points of E^k are grouped by order type (each coordinate replaced
    by its rank among the point's distinct coordinates), classes in
    signature order, points in lexicographic order.  A class is case1 when
    its values are one value below min(E), else case2 when every value is
    at least its point's own minimum, else violated: the offender is the
    first point whose value lies below its own minimum, and the conflict
    pair is the first point and the first point valued differently from it.
    """
    classes = {}
    for x in sorted(cube_points(cube)):
        sig = tuple(sorted(set(x)).index(c) for c in x)
        classes.setdefault(sig, []).append((x, f.entries[x]))
    per_class = {}
    for sig in sorted(classes):
        pts = classes[sig]
        values = [v for _, v in pts]
        if len(set(values)) == 1 and values[0] < min(cube.elements):
            verdict = {"kind": "case1", "value": values[0]}
        elif all(v >= min(x) for x, v in pts):
            verdict = {"kind": "case2"}
        else:
            offender, value = [(x, v) for x, v in pts if v < min(x)][0]
            differing = [[list(x), v] for x, v in pts if v != values[0]]
            verdict = {
                "kind": "violated",
                "offender": list(offender),
                "offenderValue": value,
                "conflictPair": [[list(pts[0][0]), values[0]], differing[0]] if differing else None,
            }
        per_class["(" + ",".join(map(str, sig)) + ")"] = verdict
    overall = all(v["kind"] != "violated" for v in per_class.values())
    return {"overall": overall, "perClass": per_class}


def unpruned_search(members, p, k):
    """The witness search with no prefix cut off: every cube iter_cubes makes
    is counted, charged its p^k points against families.UNIVERSE_MAX_POINTS
    and then classified in full by the literal report, in member order; an
    int n among the members counts n members examined."""
    functions_examined = cubes_examined = work = 0

    def charge(points):
        nonlocal work
        work += points
        if work > families.UNIVERSE_MAX_POINTS:
            cap = families.UNIVERSE_MAX_POINTS
            raise CapacityError(f"witness search capped at {cap} points of work")

    for f in members:
        if isinstance(f, int):
            functions_examined += f
            continue
        functions_examined += 1
        for elements in iter_cubes(f.entries, p, charge):
            cubes_examined += 1
            charge(p**k)
            cube = Cube(elements, k)
            report = literal_regressive_regularity(f, cube)
            if report["overall"]:
                stats = SearchStats(functions_examined, cubes_examined)
                return WitnessResult(f, cube, report, stats)
    return None


def is_reflexive(f):
    """Whether every value of f is a coordinate of some domain point."""
    return all(any(v in t for t in f.entries) for v in f.entries.values())


def is_valid_certificate(cert, ms):
    """Nonempty, within the source multiplicities, and sums to zero."""
    if not cert.chosen:
        return False
    if any(m < 1 or m > ms.count(v) for v, m in cert.chosen):
        return False
    return cert.sum == 0 and sum(v * m for v, m in cert.chosen) == 0


def is_valid_function(k, entries):
    """Whether every key is a plain tuple of k nonnegative plain ints and
    every value a nonnegative plain int, tested point by point."""
    return all(
        type(t) is tuple
        and len(t) == k
        and all(type(c) is int and c >= 0 for c in t)
        and type(v) is int
        and v >= 0
        for t, v in entries.items()
    )


def literal_load_function(data):
    """A function document read in two passes, as FiniteFunction.from_json_dict
    read it while it built the function through the constructor: the
    entries into a dict, then the constructor's copy of that dict and its
    checks, word for word.  Its refusals, with their exception types,
    messages and order, are the loader's."""
    if type(data["id"]) is not str:
        raise ValueError(f"function id must be a string, got {data['id']!r}")
    try:
        entries = {json_items(t): v for t, v in json_items(data["entries"])}
    except ValueError:  # an entry that does not unpack into [point, value]
        raise TypeError("entries must be [point, value] pairs") from None
    if len(entries) < len(data["entries"]):
        raise ValueError(f"{data['id']}: a domain point is listed more than once")
    fid, k = data["id"], data["k"]
    if not is_nat(k) or k < 1:
        raise ValueError(f"{fid}: arity k must be an integer >= 1, got {k!r}")
    entries = dict(entries)
    for t, v in entries.items():
        if type(t) is not tuple:
            raise ValueError(f"{fid}: domain point {t!r} must be a tuple")
        if not t:
            raise ValueError("a point needs arity k >= 1")
        for c in t:
            if type(c) is not int or c < 0:
                raise ValueError(f"coordinates must be nonnegative integers, got {c!r}")
        if len(t) != k:
            raise ValueError(f"{fid}: domain point {t} has arity {len(t)}, expected {k}")
        if type(v) is not int or v < 0:
            raise ValueError(f"{fid}: value at {t} must be a nonnegative integer, got {v!r}")
    return FiniteFunction(id=fid, k=k, entries=entries)


def predecessor_set(domain, x):
    """Points of the domain whose maximum coordinate is strictly below max(x)."""
    pts = set(domain)
    if x not in pts:
        raise ValueError(f"point {x} is not in the domain")
    mx = max(x)
    return {z for z in pts if max(z) < mx}


def literal_universe(spec):
    """Every cube power, then every draw, deduplicated in one pass at the end."""
    domains = []
    if spec.include_all_cubes:
        for size in range(2, spec.grid_bound + 1):
            if size**spec.k > spec.max_domain_size:
                break
            for elems in itertools.combinations(range(spec.grid_bound), size):
                domains.append(tuple(itertools.product(elems, repeat=spec.k)))
    grid = list(itertools.product(range(spec.grid_bound), repeat=spec.k))
    rng = random.Random(spec.seed)
    for _ in range(spec.sample_count):
        size = rng.randint(1, min(spec.max_domain_size, len(grid)))
        domains.append(tuple(sorted(rng.sample(grid, size))))
    return list(dict.fromkeys(domains))


def literal_rule(kind, dom):
    """The entries the named rule gives a domain, point by point in the
    domain's order, from the rule's definition: predmin takes the least of
    min(x) and min(z) over every z in x's predecessor set, constmin the
    least coordinate of the whole domain."""
    if kind == "predmin":
        return {x: min([min(x)] + [min(z) for z in predecessor_set(dom, x)]) for x in dom}
    if kind == "constmin":
        return {x: min(min(z) for z in dom) for x in dom}
    return {x: {"max": max, "min": min}[kind](x) for x in dom}


def floor_walk_predmin(dom):
    """The predmin rule's entries by its floor walk alone, with no one-step
    valuing of a domain that holds (least, ..., least): points above top,
    the lowest level holding the least coordinate, take it, and the floors
    run up the levels to top.  Coordinates may be negative here."""
    highs, lows = list(map(max, dom)), list(map(min, dom))
    least = min(lows)
    top = min(itertools.compress(highs, map(least.__eq__, lows)))
    floors, floor = {}, top
    for high, low in sorted(itertools.compress(zip(highs, lows), map(top.__ge__, highs))):
        floors.setdefault(high, floor)
        floor = min(floor, low)
    return {x: least if h > top else min(floors[h], low) for x, h, low in zip(dom, highs, lows)}


def literal_gen_family(kind, universe):
    """Copy each domain to tuples, deduplicate and sort it, then apply its rule."""
    members = []
    for i, dom in enumerate(universe):
        points = sorted(frozenset(tuple(t) for t in dom))
        entries = literal_rule(kind, points)
        members.append(FiniteFunction(id=f"{kind}-{i:03d}", k=len(points[0]), entries=entries))
    return Family(k=members[0].k, members=tuple(members))


def literal_interval(f, cube, x):
    """Index 0, 1 or 2 of the interval [0, min(E)), [min(E), min(x)) or
    [min(x), oo) holding f(x), after checking that x is a point of E^k in
    f's domain."""
    if len(x) != cube.k or not set(x) <= set(cube.elements):
        raise ValueError(f"point {x} lies outside the cube power")
    if x not in f.entries:
        raise ValueError(f"point {x} not in domain of {f.id}")
    if f(x) < min(cube.elements):
        return 0
    if f(x) < min(x):
        return 1
    return 2


def literal_build_fh(f, cube, gammas, semantics):
    """Classify and encode the points of E^k one at a time.

    Under multiset semantics every point adds its image; under set
    semantics each interval's values are deduplicated, encoded, and the
    images united as plain sets.  The second result drops interval 1.
    """
    points = list(cube_points(cube))
    if semantics == "multiset":
        full, partial = IntMultiset(), IntMultiset()
        for x in points:
            i = literal_interval(f, cube, x)
            full.add(gammas[i].apply(f(x)))
            if i != 1:
                partial.add(gammas[i].apply(f(x)))
        return full, partial
    values = [set(), set(), set()]
    for x in points:
        values[literal_interval(f, cube, x)].add(f(x))
    images = [{gammas[i].apply(v) for v in values[i]} for i in range(3)]
    full = IntMultiset.from_values(images[0] | images[1] | images[2])
    return full, IntMultiset.from_values(images[0] | images[2])


def bijection_inverse(b, z):
    """The unique n with b.apply(n) == z, for a ZBijection b."""
    z = {"zigzag": z, "zigzagneg": -z, "shifted": z - b.offset}[b.kind]
    return 2 * z - 1 if z > 0 else -2 * z


def literal_jump_free_violation(fa, fb):
    """Rebuild both predecessor sets at every shared point, in lexicographic order."""
    if fa.k != fb.k:
        raise ValueError(f"arity mismatch: {fa.id} has k={fa.k}, {fb.id} has k={fb.k}")
    shared = sorted(fa.entries.keys() & fb.entries.keys())
    for x in shared:
        mx = max(x)
        a_x = {z for z in fa.entries if max(z) < mx}
        b_x = {z for z in fb.entries if max(z) < mx}
        if a_x <= b_x and all(fa(y) == fb(y) for y in a_x):
            if fa(x) < fb(x):
                return JumpFreeWitness(fa.id, fb.id, x, fa(x), fb(x))
    return None


def literal_is_jump_free_family(fam):
    """Every ordered member pair, self-pairs included, in member order."""
    for fa in fam.members:
        for fb in fam.members:
            witness = literal_jump_free_violation(fa, fb)
            if witness is not None:
                return witness
    return None


def literal_dp_certificate(ms):
    """Reachable-sums table with parent links, walked back from sum 0.

    Index = sum + offset.  parents[i] is (previous index or None, item
    value) recorded when index i first became reachable, a single item
    winning a tie; each step of the walk consumes one item copy.
    """
    if ms.count(0) > 0:
        return SubsetCertificate(chosen=((0, 1),), sum=0)
    neg = sum(v * m for v, m in ms.items() if v < 0)
    pos = sum(v * m for v, m in ms.items() if v > 0)
    width = pos - neg + 1
    offset = -neg
    reached = bytearray(width)
    parents = [None] * width
    for v in [v for v, m in ms.items() for _ in range(m)]:
        additions = []
        if not reached[v + offset]:
            additions.append((v + offset, None, v))
        for i, hit in enumerate(reached):
            if hit and not reached[i + v]:
                additions.append((i + v, i, v))
        for j, prev, value in additions:
            if not reached[j]:
                reached[j] = 1
                parents[j] = (prev, value)
    if not reached[offset]:
        return None
    counts = Counter()
    i = offset
    while i is not None:
        i, v = parents[i]
        counts[v] += 1
    chosen = tuple(sorted(counts.items()))
    return SubsetCertificate(chosen=chosen, sum=sum(v * m for v, m in chosen))
