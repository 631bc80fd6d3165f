"""Monomial ideals in canonical minimal-generator form.

A monomial ideal is represented by the unique antichain (under divisibility)
of its minimal monomial generators, stored sorted in descending graded-lex
order so that equal ideals always serialize identically.  The empty generator
set is the zero ideal; the set {1} is the unit ideal.  All operations return
new canonical ideals.
"""

from operator import attrgetter, le

from .errors import BudgetExceededError, DimensionError, ParameterError
from .monomials import Monomial


def _has_divisor(divisors, exps):
    """True iff some exponent tuple in ``divisors`` is <= ``exps`` entrywise."""
    return any(all(map(le, d, exps)) for d in divisors)


def _reduce_to_antichain(gens):
    """Drop every monomial divisible by another; return descending graded-lex.

    Candidates are deduplicated on their exponent tuples and bucketed by total
    degree.  A strict divisor has strictly smaller total degree (distinct
    monomials of equal degree never divide one another), so the buckets are
    swept in ascending degree and each candidate is tested only against the
    generators kept from lower-degree buckets.  An equigenerated input, such as
    a power of an equigenerated ideal, therefore costs no divisibility test.
    Callers check that every candidate lies in the ideal's ring; the sweep
    compares raw tuples.
    """
    by_exps = {g.exps: g for g in gens}
    buckets = {}
    for exps in by_exps:
        buckets.setdefault(sum(exps), []).append(exps)
    lower = []
    kept = []
    for degree in sorted(buckets):
        bucket = sorted(buckets[degree])
        if lower:
            bucket = [e for e in bucket if not _has_divisor(lower, e)]
        lower.extend(bucket)
        kept.append(bucket)
    return tuple(by_exps[e] for bucket in reversed(kept) for e in reversed(bucket))


class MonomialIdeal:
    __slots__ = ("n", "gens")

    def __init__(self, n, gens=()):
        if n < 1:
            raise ParameterError(f"ambient dimension n={n} must be >= 1")
        gens = tuple(gens)
        for g in gens:
            if len(g.exps) != n + 1:
                raise DimensionError(
                    f"generator {g!r} has ambient n={g.n}, ideal has n={n}")
        self.n = n
        self.gens = _reduce_to_antichain(gens)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def unit(cls, n):
        return cls(n, (Monomial.unit(n),))

    @classmethod
    def _from_minimal(cls, n, gens):
        # trusted path: caller guarantees gens are distinct, of length n+1 and
        # pairwise indivisible, so the antichain sweep can be skipped.  Two
        # stable sorts on C-compared keys give descending graded-lex without
        # a Python-level Monomial.__lt__ call per comparison.
        ordered = sorted(gens, key=attrgetter("exps"), reverse=True)
        ordered.sort(key=attrgetter("degree"), reverse=True)
        self = object.__new__(cls)
        self.n = n
        self.gens = tuple(ordered)
        return self

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return len(self.gens) == 1 and self.gens[0].degree == 0

    def _check_same_ring(self, other):
        if self.n != other.n:
            raise DimensionError(f"ideals with ambient n={self.n} and n={other.n}")

    def contains(self, mono):
        """Monomial membership: some minimal generator divides mono."""
        if mono.n != self.n:
            raise DimensionError(
                f"monomial with ambient n={mono.n}, ideal has n={self.n}")
        return _has_divisor((g.exps for g in self.gens), mono.exps)

    __contains__ = contains

    def __add__(self, other):
        self._check_same_ring(other)
        return MonomialIdeal(self.n, self.gens + other.gens)

    def __mul__(self, other):
        self._check_same_ring(other)
        return MonomialIdeal(self.n, (g * h for g in self.gens for h in other.gens))

    def __pow__(self, r):
        if isinstance(r, bool) or not isinstance(r, int) or r < 1:
            raise ParameterError(f"ideal power r={r!r} must be an integer >= 1")
        # square-and-multiply; canonicalization inside __mul__ keeps the
        # intermediate generator sets reduced
        result = None
        base = self
        while r:
            if r & 1:
                result = base if result is None else result * base
            r >>= 1
            if r:
                base = base * base
        return result

    def intersect(self, other):
        self._check_same_ring(other)
        return MonomialIdeal(
            self.n, (g.lcm(h) for g in self.gens for h in other.gens))

    __and__ = intersect

    def __le__(self, other):
        """Containment self <= other: every generator of self lies in other."""
        self._check_same_ring(other)
        theirs = [h.exps for h in other.gens]
        return all(_has_divisor(theirs, g.exps) for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    # serialization -- both forms are byte-stable because gens are canonical

    def to_text(self):
        """One generator per line in canonical text form."""
        return "".join(f"{g}\n" for g in self.gens)

    def to_lists(self):
        """Generators as a list of exponent lists (JSON-ready)."""
        return [list(g.exps) for g in self.gens]

    @classmethod
    def from_lists(cls, n, lists):
        return cls(n, (Monomial(e) for e in lists))

    def __repr__(self):
        body = ", ".join(str(g) for g in self.gens)
        return f"MonomialIdeal(n={self.n}, <{body}>)"


def intersect_all(ideals, max_gens=None):
    """Intersection of a non-empty sequence of ideals in the same ring.

    Folds pairwise, canonicalizing after every fold so intermediate generator
    sets stay reduced.  ``max_gens`` caps the pre-reduction candidate count of
    any single fold (a BudgetExceededError is raised rather than grinding
    through an oversized lcm table).
    """
    ideals = list(ideals)
    if not ideals:
        raise ParameterError("intersect_all needs at least one ideal")
    acc = ideals[0]
    for other in ideals[1:]:
        if max_gens is not None:
            pairs = len(acc.gens) * len(other.gens)
            if pairs > max_gens:
                raise BudgetExceededError(
                    f"intersection fold would enumerate {pairs} lcm candidates "
                    f"(budget {max_gens})")
        acc = acc.intersect(other)
    return acc
