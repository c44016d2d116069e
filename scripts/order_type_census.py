"""Census of order-type classes by arity.

Prints, for each arity k, the number of distinct order-type classes
realized by nonnegative integer k-tuples, the trivial k^k ceiling, and
the enumeration time.  The counts follow the ordered-set-partition
sequence, which the script recomputes independently as a sanity column.

Usage: python scripts/order_type_census.py [--max-k 6]
"""

import argparse
import math
import time


def enumerate_order_types(k: int) -> list[tuple[int, ...]]:
    """All order signatures of arity k, in lexicographic order.

    A signature's values are exactly range(r) for some r: it is grown one
    position at a time, in increasing value order, keeping prefixes whose
    missing ranks the positions left can fill.  The count is the number of
    ordered set partitions of k items; k^k is a coarse upper bound.
    """
    if k < 1:
        raise ValueError("arity k must be >= 1")
    sigs: list[tuple[int, ...]] = [()]
    for left in reversed(range(k)):
        grown = (s + (v,) for s in sigs for v in range(k))
        sigs = [t for t in grown if max(t) + 1 - len(set(t)) <= left]
    return sigs


def fubini(k: int) -> int:
    # Ordered-set-partition counts by direct recurrence: choose the block
    # of lowest rank, then arrange the rest.
    if k == 0:
        return 1
    return sum(math.comb(k, j) * fubini(k - j) for j in range(1, k + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=6, help="largest arity to enumerate")
    args = parser.parse_args()

    print(f"{'k':>3} {'classes':>10} {'expected':>10} {'k^k bound':>12} {'seconds':>9}")
    for k in range(1, args.max_k + 1):
        t0 = time.perf_counter()
        classes = enumerate_order_types(k)
        dt = time.perf_counter() - t0
        expected = fubini(k)
        marker = "" if len(classes) == expected else "  MISMATCH"
        print(f"{k:>3} {len(classes):>10} {expected:>10} {k**k:>12} {dt:>9.3f}{marker}")


if __name__ == "__main__":
    main()
