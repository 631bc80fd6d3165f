"""The face-prime route to the symbolic powers of I(n,c): the definition.

For a radical monomial ideal the m-th symbolic power is the intersection of
the m-th powers of its minimal primes, here the codimension-c coordinate
primes P_S = <x_i : i in S>, one for each c-subset S of the n+1 coordinates
(Cooper, Embree, Ha and Hoefel, "Symbolic powers of monomial ideals", Proc.
Edinb. Math. Soc. 2017).  ``symbolic_power_oracle`` takes that intersection
one prime at a time, by lifting each generator into the next prime's power
and deciding each lift's minimality on its own; ``FacePrime`` names one
prime and builds its powers.  The other route, the orbit enumeration of
``simplicial``, reads the exponent criterion instead, and the two must
agree.

So that a bug cannot hide in a helper the two routes share, this module
imports from the package only ``errors`` (the argument rule and the budget
count) and ``ideals`` (the ideal type, its divisibility rows and its
canonical order), never from ``simplicial``, whose code uses nothing from
here either: it binds ``FacePrime`` and ``symbolic_power_oracle`` only so
that the package root finds them there.  tests/test_routes.py checks both.
"""

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

from .errors import ParameterError, _orbit_size, budget_error, budget_limit, require_int
from .ideals import MonomialIdeal, _canonical, _le_masks


@dataclass(frozen=True)
class FacePrime:
    """A codimension-c coordinate subspace, named by the c vanishing variables."""

    n: int
    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        require_int("n", self.n, 1)
        if not self.variables:
            raise ParameterError("face prime needs at least one variable")
        for i in self.variables:
            require_int("variable", i)
        if len(set(self.variables)) != len(self.variables):
            raise ParameterError(f"repeated variable in {self.variables}")
        if any(not 0 <= i <= self.n for i in self.variables):
            raise ParameterError(
                f"variable index out of range 0..{self.n} in {self.variables}")

    def power_ideal(self, m):
        """m-th power: generated by all degree-m monomials in the c variables."""
        require_int("m", m, 1)
        gens = []
        for b in _compositions(m, len(self.variables)):
            exps = [0] * (self.n + 1)
            for var, e in zip(self.variables, b):
                exps[var] = e
            gens.append(tuple(exps))
        # one degree, so an antichain
        return MonomialIdeal._from_canonical(self.n, _canonical(gens))


def _compositions(k, c):
    """The compositions of k >= 1 into c parts, as c-tuples: the c - 1 bars
    of each choice from range(k + c - 1) cut it into the parts.  The one
    composition into one part, (k,), is formed directly: combinations
    stores its whole input even when it picks nothing, k entries here."""
    if c == 1:
        return [(k,)]
    end = (k + c - 1,)
    return [tuple(high - low - 1
                  for low, high in zip((-1,) + bars, bars + end))
            for bars in combinations(range(k + c - 1), c - 1)]


def symbolic_power_oracle(spec, m, max_candidates=None):
    """Symbolic power via its definition for a radical monomial ideal:
    the intersection over all face primes P_S of their m-th powers.
    Independent of symbolic_power; the two must agree.

    From the unit ideal, each c-subset S in lexicographic order turns the
    minimal generators G of the running ideal J into those of J meet P_S^m
    (_face_prime_step), building no P_S^m and no lcm.  A generator g whose
    entries over S sum to s_g >= m is kept; any other gives way to its
    lifts g + b, b a composition of m - s_g over S (_compositions).  Exact,
    as J meet P_S^m = sum over g of g * P_S^max(m - s_g, 0): x^(g+e) lies
    in P_S^m iff e sums to at least m - s_g over S.  A kept g is minimal:
    whatever in J meet P_S^m divides g lies in J, whose minimal generators
    form an antichain.  Each lift is kept or dropped on its own:

    Lemma.  A lift a = g + b is a minimal generator of J meet P_S^m iff no
    h in G has h <= a - e_j for some j outside S with g_j > 0.

    Proof.  x^a is minimal iff no x^(a - e_j) with a_j > 0 lies in the
    ideal.  The entries of a over S sum to exactly m, so lowering one of
    them leaves P_S^m.  Lowering a_j = g_j for j outside S stays in P_S^m,
    so x^(a - e_j) lies in the ideal iff it lies in J, that is iff some h
    in G divides it.

    So no step reduces its candidates: the lifts are deduplicated (two g
    may share one) and the generators are put in canonical order once, at
    the end (ideals._canonical).  A lift g + b never equals a kept g':
    then g < g', against G an antichain.

    The binomial(n+1, c) * binomial(m+c-1, c-1) generators of the
    face-prime powers, which bound the steps, are counted against
    ``max_candidates`` (see budget_limit) before anything is built, each
    factor by _orbit_size ("at least" once past the budget), and each
    step's candidates, the sum over g of binomial(max(m - s_g, 0) + c - 1,
    c - 1), before that step; each term of that sum is at most the second
    factor, which the first count bounds.
    """
    require_int("m", m, 1)
    n, c = spec.n, spec.c
    limit = budget_limit(max_candidates)
    # each factor is exact whenever the product is within the budget
    count = _orbit_size((c, n + 1 - c), limit) * _orbit_size((m, c - 1), limit)
    if count > limit:
        raise budget_error(f"the face-prime powers of I^({m})({n},{c}) have "
                           f"at least {count} generators", limit)
    gens = [(0,) * (n + 1)]
    compositions = {}
    for subset in combinations(range(n + 1), c):
        deficits = [m - sum(map(g.__getitem__, subset)) for g in gens]
        count = sum(comb(max(k, 0) + c - 1, c - 1) for k in deficits)
        if count > limit:
            raise budget_error(f"the face-prime step {subset} of "
                               f"I^({m})({n},{c}) forms {count} candidates",
                               limit)
        gens = _face_prime_step(gens, deficits, subset, compositions)
    return MonomialIdeal._from_canonical(n, _canonical(gens))


def _face_prime_step(gens, deficits, subset, compositions):
    """The minimal generators of J meet P_S^m, in no particular order, from
    the list ``gens`` of those of J, the deficit m - s_g of each, and the
    c-subset S, ``subset``; see symbolic_power_oracle for the lemma.
    ``compositions`` maps each deficit to its _compositions and is filled
    on demand, so a call forms each deficit's compositions once.

    Tuple k of ``gens`` owns bit k of one set of _le_masks rows.  For each
    lifted g, the witness mask holds the h of G with h <= g outside S and
    h_j < g_j for some j outside S, which is the lemma's test with the
    entries over S left out: h <= a - e_j needs h <= g off S, and
    h_j <= g_j - 1 at j.  A lift a = g + b is then kept iff the witness
    mask, ANDed with the rows of S at a's entries, is empty: c ANDs per
    lift, none when no h qualifies.  The rows' ``top`` bounds every entry
    of G and of the lifts, and _le_masks picks the row kind from it.
    """
    c = len(subset)
    top = max(chain.from_iterable(gens)) + max(0, *deficits)
    rows = _le_masks(gens, top)
    inner = [rows[i] for i in subset]
    outer = [(rows[j], j) for j in range(len(rows)) if j not in subset]
    kept, lifts = [], set()
    for g, k in zip(gens, deficits):
        if k <= 0:
            kept.append(g)
            continue
        # below: h <= g off S; lower: h_j < g_j for some j off S
        below, lower = -1, 0
        for row, j in outer:
            e = g[j]
            below &= row[e]
            if e:
                lower |= row[e - 1]
        witness = below & lower
        base = [g[i] for i in subset]
        parts = compositions.get(k)
        if parts is None:
            parts = compositions[k] = _compositions(k, c)
        for b in parts:
            if witness:
                test = witness
                for row, e, x in zip(inner, base, b):
                    test &= row[e + x]
                if test:
                    continue
            a = list(g)
            for i, x in zip(subset, b):
                a[i] += x
            lifts.add(tuple(a))
    kept += lifts
    return kept
