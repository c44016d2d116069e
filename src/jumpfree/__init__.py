"""Finite, testable fragments of regressive combinatorics.

Order-type machinery over nonnegative integer tuples, jump-free checks
for families of finite functions, regressive regularity over cubes, the
paired integer-multiset construction, and target-zero subset-sum
deciders, tied together by a reproducible experiment harness.
"""

from .core import (
    CapacityError,
    Cube,
    KTuple,
    as_ktuple,
    cubes_in,
    enumerate_order_types,
    field_of,
    order_signature,
)
from .families import (
    FAMILY_KINDS,
    SearchStats,
    UniverseSpec,
    WitnessResult,
    build_universe,
    find_regressively_regular_witness,
    gen_family,
)
from .intsets import (
    DEFAULT_GAMMAS,
    GammaTriple,
    IntMultiset,
    ZBijection,
    build_fh,
    classify_interval,
)
from .predicates import (
    ClassVerdict,
    Family,
    FiniteFunction,
    JumpFreeWitness,
    RegularityReport,
    is_full_over,
    is_jump_free_family,
    is_reflexive,
    jump_free_violation,
    regressive_regularity,
)
from .subsetsum import (
    ExperimentReport,
    SubsetCertificate,
    is_valid_certificate,
    run_corollary_experiment,
    solve_subset_sum,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ClassVerdict",
    "Cube",
    "DEFAULT_GAMMAS",
    "ExperimentReport",
    "FAMILY_KINDS",
    "Family",
    "FiniteFunction",
    "GammaTriple",
    "IntMultiset",
    "JumpFreeWitness",
    "KTuple",
    "RegularityReport",
    "SearchStats",
    "SubsetCertificate",
    "UniverseSpec",
    "WitnessResult",
    "ZBijection",
    "as_ktuple",
    "build_fh",
    "build_universe",
    "classify_interval",
    "cubes_in",
    "enumerate_order_types",
    "field_of",
    "find_regressively_regular_witness",
    "gen_family",
    "is_full_over",
    "is_jump_free_family",
    "is_reflexive",
    "is_valid_certificate",
    "jump_free_violation",
    "order_signature",
    "regressive_regularity",
    "run_corollary_experiment",
    "solve_subset_sum",
]
