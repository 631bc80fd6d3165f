"""Skeleton ideals of the coordinate simplex and their powers.

For 1 <= c <= n let I(n,c) be the ideal of the union of all codimension-c
coordinate subspaces {x_{i_1} = ... = x_{i_c} = 0} of P^n.  These are
squarefree monomial ideals: I(n,c) is generated by the squarefree monomials
of degree n+2-c.  This module builds them and computes

* symbolic powers, by two independent routes: the exponent criterion
  (every c-subset of coordinates sums to at least m) and the intersection
  of the m-th powers of the codimension-c coordinate primes;
* ordinary powers, by the closed form for their minimal generators
  (total degree exactly (n-c+2)r with every exponent <= r).

Everything is exact integer combinatorics; enumerations are guarded by
candidate budgets that raise BudgetExceededError instead of returning a
truncated answer.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, DimensionError, ParameterError
from .ideals import MonomialIdeal, intersect_all
from .monomials import Monomial

#: Defaults sized so that n <= 6, m <= 12 runs comfortably; anything larger
#: should raise cleanly rather than stall.
DEFAULT_MAX_CANDIDATES = 2_000_000
DEFAULT_MAX_INTERSECTION_GENS = 500_000


@dataclass(frozen=True)
class SimplicialSpec:
    """Parameters (n, c) naming the ideal I(n,c), with 1 <= c <= n."""

    n: int
    c: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n={self.n} must be >= 1")
        if not 1 <= self.c <= self.n:
            raise ParameterError(f"c={self.c} must satisfy 1 <= c <= n={self.n}")


@dataclass(frozen=True)
class FacePrime:
    """A codimension-c coordinate subspace, named by the c vanishing variables."""

    n: int
    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ParameterError("face prime needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ParameterError(f"repeated variable in {self.variables}")
        if any(not 0 <= i <= self.n for i in self.variables):
            raise ParameterError(
                f"variable index out of range 0..{self.n} in {self.variables}")

    def ideal(self):
        """The prime <x_i : i in variables>."""
        gens = []
        for i in self.variables:
            exps = [0] * (self.n + 1)
            exps[i] = 1
            gens.append(Monomial(exps))
        return MonomialIdeal._from_minimal(self.n, gens)

    def power_ideal(self, m):
        """m-th power: generated by all degree-m monomials in the c variables."""
        if m < 1:
            raise ParameterError(f"m={m} must be >= 1")
        c = len(self.variables)
        gens = []
        # compositions of m into c parts, via bar positions
        for bars in combinations(range(m + c - 1), c - 1):
            exps = [0] * (self.n + 1)
            prev = -1
            for var, bar in zip(self.variables, bars + (m + c - 1,)):
                exps[var] = bar - prev - 1
                prev = bar
            gens.append(Monomial(exps))
        return MonomialIdeal._from_minimal(self.n, gens)


def simplicial_ideal(spec):
    """I(n,c): all squarefree monomials of degree n+2-c in x_0..x_n."""
    n, c = spec.n, spec.c
    deg = n + 2 - c
    gens = []
    for support in combinations(range(n + 1), deg):
        exps = [0] * (n + 1)
        for i in support:
            exps[i] = 1
        gens.append(Monomial(exps))
    return MonomialIdeal._from_minimal(n, gens)


def face_primes(spec):
    """All binomial(n+1, c) face primes, in lexicographic variable order."""
    return [FacePrime(spec.n, sub) for sub in combinations(range(spec.n + 1), spec.c)]


def _check_vector(spec, a):
    if a.n != spec.n:
        raise DimensionError(
            f"monomial has ambient n={a.n}, spec has n={spec.n}")


def symbolic_member(spec, m, a):
    """Membership of x^a in the m-th symbolic power of I(n,c).

    Holds iff every c-subset of coordinates of a sums to >= m.  The minimum
    over c-subsets is attained at the c smallest entries, so sorting once
    replaces the binomial(n+1, c) subset scan (symbolic_member_subsets keeps
    the exhaustive version for cross-checking).
    """
    if m < 1:
        raise ParameterError(f"m={m} must be >= 1")
    _check_vector(spec, a)
    return sum(sorted(a.exps)[:spec.c]) >= m


def symbolic_member_subsets(spec, m, a):
    """Exhaustive-subset variant of symbolic_member (debug oracle)."""
    if m < 1:
        raise ParameterError(f"m={m} must be >= 1")
    _check_vector(spec, a)
    return all(sum(a.exps[i] for i in sub) >= m
               for sub in combinations(range(spec.n + 1), spec.c))


def _sorted_vectors(length, maxval):
    """All weakly-decreasing vectors of the given length with entries in [0, maxval]."""
    if length == 0:
        yield ()
        return
    for first in range(maxval, -1, -1):
        for rest in _sorted_vectors(length - 1, first):
            yield (first,) + rest


def _distinct_permutations(values):
    """Each distinct permutation of a value multiset exactly once (lex order)."""
    seq = sorted(values)
    k = len(seq)
    while True:
        yield tuple(seq)
        i = k - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = k - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


def _tail_sum_ok(vec, c, m):
    # vec weakly decreasing, so its c smallest entries are the last c
    return sum(vec[-c:]) >= m


def symbolic_power(spec, m, max_candidates=None):
    """Canonical minimal generating set of the m-th symbolic power of I(n,c).

    Minimal generators have every exponent <= m: capping an exponent above m
    at exactly m keeps every c-subset sum >= m (subsets through the capped
    coordinate still contribute m alone), and the capped vector divides the
    original, so nothing with a larger exponent can be minimal.

    The membership condition is symmetric under coordinate permutation and
    upward closed, so it suffices to scan weakly-decreasing vectors in
    [0, m]^{n+1} and keep those where every single-coordinate decrement
    breaks some c-subset sum; their distinct permutations are then exactly
    the minimal generators (an antichain by construction).
    """
    if m < 1:
        raise ParameterError(f"m={m} must be >= 1")
    budget = DEFAULT_MAX_CANDIDATES if max_candidates is None else max_candidates
    n, c = spec.n, spec.c
    seen = 0
    gens = []
    for vec in _sorted_vectors(n + 1, m):
        seen += 1
        if seen > budget:
            raise BudgetExceededError(
                f"symbolic power enumeration for {spec} m={m} passed "
                f"{budget} candidates")
        if not _tail_sum_ok(vec, c, m):
            continue
        # minimality: decrementing the last occurrence of each distinct
        # positive value keeps the vector sorted; decrements at equal values
        # are permutations of each other, so one representative suffices
        minimal = True
        for idx in range(n, -1, -1):
            v = vec[idx]
            if v == 0 or (idx < n and vec[idx + 1] == v):
                continue
            lowered = vec[:idx] + (v - 1,) + vec[idx + 1:]
            if _tail_sum_ok(lowered, c, m):
                minimal = False
                break
        if not minimal:
            continue
        for perm in _distinct_permutations(vec):
            seen += 1
            if seen > budget:
                raise BudgetExceededError(
                    f"symbolic power enumeration for {spec} m={m} passed "
                    f"{budget} candidates")
            gens.append(Monomial._trusted(perm))
    return MonomialIdeal._from_minimal(n, gens)


def symbolic_power_oracle(spec, m, max_gens=None):
    """Symbolic power via its definition for a radical monomial ideal:
    the intersection over all face primes of their m-th ordinary powers.

    Independent of symbolic_power; the two must agree.
    """
    if m < 1:
        raise ParameterError(f"m={m} must be >= 1")
    budget = DEFAULT_MAX_INTERSECTION_GENS if max_gens is None else max_gens
    powers = [p.power_ideal(m) for p in face_primes(spec)]
    return intersect_all(powers, max_gens=budget)


def _bounded_compositions(total, parts, cap):
    """Vectors of the given number of parts, entries in [0, cap], summing to total."""
    if parts == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    lo = max(0, total - (parts - 1) * cap)
    for first in range(min(cap, total), lo - 1, -1):
        for rest in _bounded_compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def ordinary_power_min_gens(spec, r):
    """Minimal generators of I(n,c)^r in closed form.

    They are exactly the exponent vectors of total degree (n-c+2)*r with
    every entry <= r; equal total degree makes the set an antichain, so no
    reduction step is needed.  Must coincide with simplicial_ideal(spec)**r.
    """
    if r < 1:
        raise ParameterError(f"r={r} must be >= 1")
    n, c = spec.n, spec.c
    target = (n - c + 2) * r
    gens = [Monomial(vec) for vec in _bounded_compositions(target, n + 1, r)]
    return MonomialIdeal._from_minimal(n, gens)


def ordinary_member(spec, r, a):
    """Membership of x^a in I(n,c)^r without building the power.

    x^a lies in I^r iff sum_i min(a_i, r) >= (n-c+2)*r: a divisor with the
    generator degree pattern can be carved out of a exactly when the capped
    coordinate sum reaches the required total degree.
    """
    if r < 1:
        raise ParameterError(f"r={r} must be >= 1")
    _check_vector(spec, a)
    return sum(min(e, r) for e in a.exps) >= (spec.n - spec.c + 2) * r
