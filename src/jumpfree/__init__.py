"""Finite, testable fragments of regressive combinatorics.

Order-type machinery over nonnegative integer tuples, jump-free checks
for families of finite functions, regressive regularity over cubes, the
paired integer-multiset construction, and target-zero subset-sum
deciders, tied together by a reproducible experiment harness.
"""

import types

from .core import (
    CapacityError,
    Cube,
    KTuple,
    cubes_in,
    enumerate_order_types,
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
    iter_family,
    iter_universe,
)
from .intsets import (
    DEFAULT_GAMMAS,
    GammaTriple,
    IntMultiset,
    ZBijection,
    build_fh,
)
from .predicates import (
    Family,
    FiniteFunction,
    JumpFreeWitness,
    is_full_over,
    is_jump_free_family,
    jump_free_violation,
    regressive_regularity,
)
from .subsetsum import (
    SubsetCertificate,
    run_corollary_experiment,
    solve_subset_sum,
)

__version__ = "0.1.0"

# Every name imported above, and nothing else.
__all__ = sorted(
    n for n, v in globals().items() if n[0] != "_" and not isinstance(v, types.ModuleType)
)
