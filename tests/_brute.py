"""Deliberately naive reference implementations used only as test oracles.

Everything here enumerates instead of using closed forms, so agreement with
the package's fast paths is meaningful evidence.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import le

from simplicial_ideals import Monomial, MonomialIdeal


def brute_symbolic_member(n, c, m, mono):
    """Check every c-subset of coordinates, no sorting shortcut."""
    return all(sum(mono.exps[i] for i in sub) >= m
               for sub in combinations(range(n + 1), c))


def brute_symbolic_binding(n, c, mono):
    """The first c-subset in lexicographic order with the least exponent sum,
    and that sum, found by scanning every c-subset."""
    best = None
    for sub in combinations(range(n + 1), c):
        total = sum(mono.exps[i] for i in sub)
        if best is None or total < best[1]:
            best = (list(sub), total)
    return best


def brute_capped_degree(r, mono):
    """Sum over the coordinates of min(a_i, r), by an explicit loop."""
    total = 0
    for e in mono.exps:
        total += e if e < r else r
    return total


def _minimalize(monos):
    """The minimal monomials among ``monos``, ascending in degree then
    exponents, by comparing each with every one kept before it."""
    kept = []
    for mono in sorted(monos, key=lambda x: (x.degree, x.exps)):
        if not any(all(map(le, other.exps, mono.exps)) for other in kept):
            kept.append(mono)
    return kept


def brute_symbolic_gens(n, c, m):
    """Minimal generators of the m-th symbolic power by full enumeration.

    Only vectors with entries <= m are scanned: capping an entry at m keeps
    every c-subset sum at or above m (the capped entry alone contributes m to
    any subset containing it), and the capped vector divides the original, so
    no minimal generator has an entry above m.
    """
    members = [Monomial(vec) for vec in product(range(m + 1), repeat=n + 1)
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
    """Squarefree monomials of degree n-c+2, straight from the definition."""
    gens = []
    for sub in combinations(range(n + 1), n - c + 2):
        vec = [0] * (n + 1)
        for i in sub:
            vec[i] = 1
        gens.append(Monomial(vec))
    return gens


def face_prime_ideal(prime):
    """The face prime <x_i : i in prime.variables>, one variable per
    generator, canonicalized by the general constructor."""
    gens = []
    for i in prime.variables:
        vec = [0] * (prime.n + 1)
        vec[i] = 1
        gens.append(Monomial(vec))
    return MonomialIdeal(prime.n, gens)


def brute_face_prime_power(prime, m):
    """Exponent tuples of the degree-m monomials in the variables of the
    face prime: every vector over them with entries in [0, m], kept when
    its entries sum to m."""
    gens = []
    for vals in product(range(m + 1), repeat=len(prime.variables)):
        if sum(vals) == m:
            vec = [0] * (prime.n + 1)
            for i, e in zip(prime.variables, vals):
                vec[i] = e
            gens.append(tuple(vec))
    return gens


def brute_power_gens(n, c, r):
    """Minimal generators of I(n,c)^r by expanding all r-fold products."""
    base = [g.exps for g in brute_skeleton_gens(n, c)]
    prods = {tuple(map(sum, zip(*combo)))
             for combo in combinations_with_replacement(base, r)}
    return _minimalize(map(Monomial, prods))


def brute_ordinary_member(n, c, r, mono, gens=None):
    """Divisibility against the expanded generating set of I(n,c)^r."""
    if gens is None:
        gens = brute_power_gens(n, c, r)
    return any(all(map(le, g.exps, mono.exps)) for g in gens)


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
