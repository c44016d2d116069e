"""Literal brute-force versions of the fast checks, kept as test oracles.

Each follows its definition word for word, with no indexing or pruning,
so the fast implementations in src/ can be tested against them.
"""

from jumpfree.predicates import JumpFreeWitness


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
