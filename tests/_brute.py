"""Deliberately naive reference implementations used only as test oracles.

Everything here enumerates instead of using closed forms, so agreement with
the package's fast paths is meaningful evidence.  Every helper takes and
returns plain exponent tuples and imports nothing from simplicial_ideals, so
no library helper (the antichain reduction, the membership tests) can hide
a bug that this route shares; the callers build any library object
themselves, and tests/test_routes.py checks the imports.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import le


def brute_symbolic_member(n, c, m, exps):
    """Check every c-subset of coordinates, no sorting shortcut."""
    return all(sum(exps[i] for i in sub) >= m
               for sub in combinations(range(n + 1), c))


def brute_symbolic_binding(n, c, exps):
    """The first c-subset in lexicographic order with the least exponent sum,
    and that sum, found by scanning every c-subset."""
    best = None
    for sub in combinations(range(n + 1), c):
        total = sum(exps[i] for i in sub)
        if best is None or total < best[1]:
            best = (list(sub), total)
    return best


def brute_capped_degree(r, exps):
    """Sum over the coordinates of min(a_i, r), by an explicit loop."""
    total = 0
    for e in exps:
        total += e if e < r else r
    return total


def _minimalize(vectors):
    """The minimal exponent tuples among ``vectors``, ascending in degree
    then exponents, by comparing each with every one kept before it."""
    kept = []
    for vec in sorted(vectors, key=lambda v: (sum(v), v)):
        if not any(all(map(le, other, vec)) for other in kept):
            kept.append(vec)
    return kept


def brute_symbolic_gens(n, c, m):
    """Minimal generators of the m-th symbolic power by full enumeration.

    Only vectors with entries <= m are scanned: capping an entry at m keeps
    every c-subset sum at or above m (the capped entry alone contributes m to
    any subset containing it), and the capped vector divides the original, so
    no minimal generator has an entry above m.
    """
    members = [vec for vec in product(range(m + 1), repeat=n + 1)
               if all(sum(vec[i] for i in sub) >= m
                      for sub in combinations(range(n + 1), c))]
    return _minimalize(members)


def _sorted_vectors(length, maxval):
    """All weakly decreasing vectors of the given length, entries in [0, maxval]."""
    if length == 0:
        yield ()
        return
    for first in range(maxval, -1, -1):
        for rest in _sorted_vectors(length - 1, first):
            yield (first,) + rest


def brute_symbolic_representatives(n, c, m):
    """Weakly decreasing minimal generators of the m-th symbolic power.

    Scans every weakly decreasing vector in [0, m]^(n+1) and keeps the
    members from which lowering any positive entry by one leaves the power.
    Membership sorts the vector and sums its c smallest entries.
    """
    def member(vec):
        return sum(sorted(vec)[:c]) >= m

    reps = []
    for vec in _sorted_vectors(n + 1, m):
        if member(vec) and not any(
                member(vec[:i] + (e - 1,) + vec[i + 1:])
                for i, e in enumerate(vec) if e):
            reps.append(vec)
    return reps


def brute_skeleton_gens(n, c):
    """Exponent tuples of the squarefree monomials of degree n-c+2, straight
    from the definition."""
    gens = []
    for sub in combinations(range(n + 1), n - c + 2):
        vec = [0] * (n + 1)
        for i in sub:
            vec[i] = 1
        gens.append(tuple(vec))
    return gens


def brute_face_prime_power(n, variables, m):
    """Exponent tuples of the degree-m monomials in ``variables``, the
    vanishing variables of a face prime of the ring x_0..x_n: every vector
    over them with entries in [0, m], kept when its entries sum to m."""
    gens = []
    for vals in product(range(m + 1), repeat=len(variables)):
        if sum(vals) == m:
            vec = [0] * (n + 1)
            for i, e in zip(variables, vals):
                vec[i] = e
            gens.append(tuple(vec))
    return gens


def brute_power_gens(n, c, r):
    """Minimal generators of I(n,c)^r by expanding all r-fold products."""
    base = brute_skeleton_gens(n, c)
    prods = {tuple(map(sum, zip(*combo)))
             for combo in combinations_with_replacement(base, r)}
    return _minimalize(prods)


def brute_ordinary_member(n, c, r, exps, gens=None):
    """Divisibility against the expanded generating set of I(n,c)^r."""
    if gens is None:
        gens = brute_power_gens(n, c, r)
    return any(all(map(le, g, exps)) for g in gens)


def brute_resurgence_sup(n, c, max_m, max_r, contained):
    """Largest m/r over the noncontained pairs of the box, by scanning every
    cell, m then r ascending; ``contained(n, c, m, r)`` decides each cell.

    Returns (sup, (m, r)) with the first pair attaining it, or (None, None).
    """
    best = argmax = None
    for m in range(1, max_m + 1):
        for r in range(1, max_r + 1):
            if contained(n, c, m, r):
                continue
            ratio = Fraction(m, r)
            if best is None or ratio > best:
                best, argmax = ratio, (m, r)
    return best, argmax
