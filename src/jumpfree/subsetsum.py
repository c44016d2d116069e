"""Target-zero subset-sum deciders with certificates, plus the end-to-end
solvability-agreement experiment.

Convention: the empty subset does not count, otherwise target zero would
be trivially solvable.  Two methods are provided.  The exhaustive
enumerator is the oracle; the reachable-sums dp keeps one big-int bitset
per item prefix, offset so that negative sums get nonnegative bit
indices, and recovers a certificate from the prefixes.  Both methods
return a certificate, never just a yes/no, so their answers can be
validated independently of solver internals.
"""

from __future__ import annotations

import bisect
import itertools
import time
from typing import Iterable, NamedTuple, Optional

from .core import CapacityError, JsonRecord
from .families import Family, find_regressively_regular_witness
from .intsets import DEFAULT_GAMMAS, GammaTriple, IntMultiset, build_fh
from .predicates import FiniteFunction

EXHAUSTIVE_MAX_TOTAL = 24
DP_MAX_BITS = 2**28

METHODS = ("exhaustive", "dp")

OUTCOME_OK = "ok"
OUTCOME_NO_WITNESS = "no_witness"


class SubsetCertificate(NamedTuple):
    """A sub-multiset, as sorted (value, multiplicity-taken) pairs, and its sum."""

    chosen: tuple[tuple[int, int], ...]
    sum: int
    to_json_dict = JsonRecord.to_json_dict


def _certificate(counts: dict[int, int]) -> SubsetCertificate:
    chosen = tuple(sorted((v, m) for v, m in counts.items() if m > 0))
    return SubsetCertificate(chosen=chosen, sum=sum(v * m for v, m in chosen))


def solve_subset_sum(ms: IntMultiset, method: str = "dp") -> Optional[SubsetCertificate]:
    """A nonempty sub-multiset of ms summing to zero, or None.

    Methods may return different certificates for the same input; the
    decision is always the same.  Guard violations raise CapacityError.
    """
    if method == "exhaustive":
        return _solve_exhaustive(ms)
    if method == "dp":
        return _solve_dp(ms)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def _solve_exhaustive(ms: IntMultiset) -> Optional[SubsetCertificate]:
    """Oracle: enumerate every nonempty sub-multiset."""
    if ms.total > EXHAUSTIVE_MAX_TOTAL:
        raise CapacityError(
            f"exhaustive enumeration capped at total size {EXHAUSTIVE_MAX_TOTAL}, got {ms.total}"
        )
    pairs = ms.items()
    values = [v for v, _ in pairs]
    for take in itertools.product(*(range(m + 1) for _, m in pairs)):
        if not any(take):
            continue
        if sum(v * t for v, t in zip(values, take)) == 0:
            return _certificate(dict(zip(values, take)))
    return None


def _solve_dp(ms: IntMultiset) -> Optional[SubsetCertificate]:
    """Reachable-sums dp as one big-int bitset per item prefix.

    Bit i of a bitset stands for the sum i - offset.  prefixes[t] holds
    every sum of a nonempty sub-multiset of items[:t + 1].  A sum's parent
    is the item that first made it reachable, a single item winning a tie
    with a shifted sum; the certificate follows parents back from sum 0.
    """
    if ms.count(0) > 0:
        # A zero element is a certificate on its own.
        return SubsetCertificate(chosen=((0, 1),), sum=0)
    pairs = ms.items()
    weight = sum(abs(v) * m for v, m in pairs)
    bits = ms.total * (weight + 1)
    if bits > DP_MAX_BITS:
        raise CapacityError(f"dp prefixes capped at {DP_MAX_BITS} bits, got {bits}")
    offset = -sum(v * m for v, m in pairs if v < 0)
    items = [v for v, m in pairs for _ in range(m)]
    reach = 0
    prefixes = []
    for v in items:
        reach |= (reach << v if v > 0 else reach >> -v) | 1 << (v + offset)
        prefixes.append(reach)
    if not reach >> offset & 1:
        return None
    counts: dict[int, int] = {}
    i, t = offset, len(items)
    while True:
        t = bisect.bisect_left(prefixes, 1, hi=t, key=lambda r: r >> i & 1)
        v = items[t]
        counts[v] = counts.get(v, 0) + 1
        if i == v + offset:
            break
        i -= v
    return _certificate(counts)


def run_corollary_experiment(
    members: Iterable[FiniteFunction | int] | Family,
    p: int,
    gammas: GammaTriple = DEFAULT_GAMMAS,
    method: str = "dp",
    k: Optional[int] = None,
) -> dict:
    """Witness search, multiset construction, and paired solvability check.

    Finds the first regressively regular (member, cube) pair, pulling
    members only up to it (see find_regressively_regular_witness for ints
    among them): a Family is scanned whole at its own arity, any other
    iterable at arity k.  Builds the witness member's paired multisets
    under multiset semantics, solves both for target zero, and reports, as
    JSON, whether the decisions agree, with the p^k cardinality check and
    wall-clock solve timings, which are informational only (solve_H is
    near 0 when H equals F, whose certificate is then reused).  outcome is
    "no_witness", a defined result and not an error, when no member is
    regressively regular; every other field is then null and timings_ms empty.
    """
    witness = find_regressively_regular_witness(members, p, k)
    report = {"outcome": OUTCOME_NO_WITNESS, "method": method, "p": p, "timings_ms": {}}
    report |= dict.fromkeys((
        "witness", "fh_equal", "solvable_F", "solvable_H", "agreement",
        "cardinality_ok", "f_multiset", "h_multiset", "certificate_F", "certificate_H",
    ))
    if witness is None:
        return report

    f = witness.function
    f_ms, h_ms = build_fh(f, witness.cube, gammas=gammas, semantics="multiset")

    t0 = time.perf_counter()
    cert_f = solve_subset_sum(f_ms, method)
    t1 = time.perf_counter()
    cert_h = cert_f if f_ms == h_ms else solve_subset_sum(h_ms, method)
    t2 = time.perf_counter()

    return report | {
        "outcome": OUTCOME_OK,
        "witness": witness.to_json_dict(),
        "fh_equal": f_ms == h_ms,
        "solvable_F": cert_f is not None,
        "solvable_H": cert_h is not None,
        "agreement": (cert_f is None) == (cert_h is None),
        "cardinality_ok": f_ms.total == p**f.k,
        "f_multiset": f_ms.to_json(),
        "h_multiset": h_ms.to_json(),
        "certificate_F": None if cert_f is None else cert_f.to_json_dict(),
        "certificate_H": None if cert_h is None else cert_h.to_json_dict(),
        "timings_ms": {
            "solve_F": (t1 - t0) * 1000.0,
            "solve_H": (t2 - t1) * 1000.0,
        },
    }
