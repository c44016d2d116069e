"""Sweep the four family rules across seeds and report their behavior.

For every (rule, seed) cell the script builds a seeded universe, checks
the family for a jump-free violation, and searches for a regressive
regularity witness at the requested cube size.  The three monotone rules
should stay clean in the jump-free column on every seed, while the
constant-minimum rule usually produces a violation once sampled domains
overlap.

Usage: python scripts/family_sweep.py [--seeds 10] [--p 2] [--grid 4] ...
"""

import argparse

from jumpfree import (
    FAMILY_KINDS,
    UniverseSpec,
    build_universe,
    find_regressively_regular_witness,
    gen_family,
    is_jump_free_family,
)


def sweep(base: UniverseSpec, seeds: int, p: int) -> None:
    """One row per (rule, seed), seeds 0..seeds-1 replacing base's seed."""
    print(
        f"universe: k={base.k} grid={base.grid_bound} max_domain={base.max_domain_size} "
        f"samples={base.sample_count}, witness search at p={p}"
    )
    header = f"{'rule':>9} {'seed':>5} {'domains':>8} {'jump-free':>10} {'witness':>24}"
    print(header)
    violations = {kind: 0 for kind in FAMILY_KINDS}
    for kind in FAMILY_KINDS:
        for seed in range(seeds):
            universe = build_universe(base._replace(seed=seed))
            fam = gen_family(kind, universe)
            bad = is_jump_free_family(fam)
            violations[kind] += bad is not None
            witness = find_regressively_regular_witness(fam, p)
            jf = "ok" if bad is None else f"x={bad.x}"
            found = (
                "none"
                if witness is None
                else f"{witness.function_id} E={witness.cube.elements}"
            )
            print(f"{kind:>9} {seed:>5} {len(universe):>8} {jf:>10} {found:>24}")
    print()
    for kind in FAMILY_KINDS:
        print(f"{kind}: jump-free violations on {violations[kind]}/{seeds} seeds")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--grid", type=int, default=4)
    parser.add_argument("--max-domain", type=int, default=8)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..n-1")
    parser.add_argument("--p", type=int, default=2)
    args = parser.parse_args()
    base = UniverseSpec(
        k=args.k,
        grid_bound=args.grid,
        max_domain_size=args.max_domain,
        sample_count=args.samples,
        seed=0,
        include_all_cubes=True,
    )
    sweep(base, args.seeds, args.p)


if __name__ == "__main__":
    main()
