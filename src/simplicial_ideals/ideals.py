"""Monomial ideals in canonical minimal-generator form.

A monomial ideal is represented by the unique antichain (under divisibility)
of its minimal monomial generators, stored sorted in descending graded-lex
order, which ``_canonical`` alone writes, so that equal ideals always
serialize identically.  The empty generator set is the zero ideal; the set
{1} is the unit ideal.  All operations return new canonical ideals.

An ideal keeps its antichain as exponent tuples, and every operation works
on them from start to end: sum, product and intersection form their
candidates as tuples (the product column-wise), ``_reduce_to_antichain``
takes tuples and returns the minimal ones, and the ideal keeps those.
Only the validating constructor and the trusted ``_from_canonical`` build
an ideal.  ``gens`` wraps the tuples in ``Monomial`` only when someone asks
for them.

Every batch of divisibility tests -- reduction to the antichain and
containment ``<=`` -- builds one set of ``_le_masks`` rows over a fixed
list and asks ``_divisors`` of each query; ``contains``, a single query,
scans the generators.  The face-prime route of ``faceprime`` ANDs the rows
itself, as its test lowers one entry of a query at a time.  Tuple k of the
list owns bit k.  For each coordinate i and each value v up to ``top``, a
bound on every listed entry and every query entry, row i holds at v the
int whose set bits are the tuples with entry i <= v.  The AND over i of
those ints at a_i holds exactly the listed divisors of a vector a: n+1
C-level big-int ANDs per query, however many tuples are listed.  So
containment asks that it be nonzero at each query, and the reduction,
which lists its own candidates, that it be the candidate's own bit alone.
``_le_masks`` alone decides how a row is stored: as a list over v up to
``_DENSE_TOP``, past it as a ``_SparseLeMasks`` that holds one int per
distinct entry, so the masks never grow with the size of an exponent.
"""

from bisect import bisect_right
from collections import defaultdict
from functools import reduce
from itertools import accumulate, chain, repeat
from operator import add, and_, getitem, le, or_

from .errors import DimensionError, ParameterError, budget_error, budget_limit, require_int
from .monomials import Monomial, exps_lines, exps_text

# The largest top a row keeps one mask per value for: past it, a value axis
# of top+1 masks per coordinate would cost more than bisecting the column's
# distinct entries.
_DENSE_TOP = 256


class _SparseLeMasks:
    """One coordinate's row of _le_masks past _DENSE_TOP: ``row[v]`` is the
    int whose bit k is set iff entry k of the column is <= v, for any
    v >= 0, found by bisection among the column's distinct entries.  It is
    built from ``exact``, which maps each distinct entry to the bits of the
    tuples that have it."""

    __slots__ = ("values", "masks")

    def __init__(self, exact):
        self.values = sorted(exact)
        self.masks = [0, *accumulate(map(exact.__getitem__, self.values), or_)]

    def __getitem__(self, v):
        return self.masks[bisect_right(self.values, v)]


def _le_masks(tuples, top):
    """For each coordinate i, the row whose item v, for v in [0, top], is
    the int whose bit k is set iff tuples[k][i] <= v; every entry must be
    at most top.  One loop gathers each column's exact masks, the bits of
    the tuples with entry i == v: up to _DENSE_TOP into a list over v,
    whose running OR is the row, and past it into a dict over the distinct
    entries, which a _SparseLeMasks bisects and so answers any v >= 0."""
    dense = top <= _DENSE_TOP
    rows = []
    for column in zip(*tuples):
        exact = [0] * (top + 1) if dense else defaultdict(int)
        bit = 1
        for e in column:
            exact[e] |= bit
            bit <<= 1
        rows.append(list(accumulate(exact, or_)) if dense
                    else _SparseLeMasks(exact))
    return rows


def _divisors(rows, exps):
    """The int whose bit k is set iff tuple k of the list that ``rows``
    were built from (_le_masks) is <= ``exps`` entrywise: the AND over i of
    the rows at exps[i].  Every entry of ``exps`` must be at most the rows'
    top."""
    return reduce(and_, map(getitem, rows, exps))


def _canonical(tuples):
    """``tuples`` as a list in descending graded-lex order, the canonical
    order of an ideal's generators: a descending lex sort, then a stable
    descending sort by degree."""
    keys = sorted(tuples, reverse=True)
    keys.sort(key=sum, reverse=True)
    return keys


def _reduce_to_antichain(tuples):
    """The minimal exponent tuples of ``tuples`` under divisibility, as a
    list in descending graded-lex order.

    Tuples in, tuples out: callers form their candidates as raw exponent
    tuples, and the ideal keeps the minimal ones as they are
    (``MonomialIdeal._from_canonical``).

    Distinct tuples of equal degree never divide one another, so input of
    one degree, such as a power of an equigenerated ideal, is returned as
    it is, deduplicated and sorted, with no rows and no divisibility test.
    Otherwise the distinct candidates, in canonical order, get one set of
    ``_le_masks`` rows up to their largest entry, tuple k as bit k, and
    tuple k is kept iff ``_divisors`` of it is ``1 << k``: the only
    candidate that divides it is itself.  Callers check that every tuple
    has the ideal's length.
    """
    keys = _canonical(set(tuples))
    if keys and sum(keys[0]) != sum(keys[-1]):
        rows = _le_masks(keys, max(chain.from_iterable(keys)))
        keys = [t for k, t in enumerate(keys) if _divisors(rows, t) == 1 << k]
    return keys


class MonomialIdeal:
    # _exps: the minimal generators' exponent tuples, in canonical order
    __slots__ = ("n", "_exps")

    def __init__(self, n, gens=()):
        require_int("n", n, 1)
        gens = tuple(gens)
        for g in gens:
            if len(g.exps) != n + 1:
                raise DimensionError(
                    f"generator {g!r} has ambient n={g.n}, ideal has n={n}")
        self.n = n
        self._exps = tuple(_reduce_to_antichain([g.exps for g in gens]))

    @classmethod
    def _from_canonical(cls, n, tuples):
        # trusted path: caller guarantees the tuples are an antichain of
        # exponent vectors of length n+1 in descending graded-lex order, as
        # _reduce_to_antichain returns for sums and maxima of generators
        self = object.__new__(cls)
        self.n = n
        self._exps = tuple(tuples)
        return self

    @property
    def gens(self):
        """The minimal generators as Monomials, in descending graded-lex
        order.  Each access builds them anew from the exponent tuples."""
        return tuple(map(Monomial._trusted, self._exps))

    def _check_same_ring(self, other):
        if self.n != other.n:
            raise DimensionError(f"ideals with ambient n={self.n} and n={other.n}")

    def contains(self, mono):
        """Monomial membership: some minimal generator divides mono."""
        if mono.n != self.n:
            raise DimensionError(
                f"monomial with ambient n={mono.n}, ideal has n={self.n}")
        # one query would not pay back an index build: scan the generators
        a = mono.exps
        return any(all(map(le, g, a)) for g in self._exps)

    __contains__ = contains

    def __add__(self, other):
        self._check_same_ring(other)
        return self._from_canonical(
            self.n, _reduce_to_antichain(self._exps + other._exps))

    def __mul__(self, other):
        self._check_same_ring(other)
        # column-wise: coordinate i of g*h is g_i + h_i for every h at once,
        # and a zero g_i leaves the column as it is
        columns = list(zip(*other._exps))
        products = set()
        for g in self._exps:
            products.update(zip(*[map(add, repeat(e), column) if e else column
                                  for e, column in zip(g, columns)]))
        return self._from_canonical(self.n, _reduce_to_antichain(products))

    def __pow__(self, r):
        require_int("r", r, 1)
        # left to right over r's bits after the leading one: square, then
        # at a 1 bit multiply by self, on the left, whose generators __mul__
        # loops over, as self usually has fewer than the running power
        result = self
        for bit in bin(r)[3:]:
            result = result * result
            if bit == "1":
                result = self * result
        return result

    def intersect(self, other):
        self._check_same_ring(other)
        lcms = {tuple(map(max, g, h)) for g in self._exps for h in other._exps}
        return self._from_canonical(self.n, _reduce_to_antichain(lcms))

    __and__ = intersect

    def __le__(self, other):
        """Containment self <= other: every generator of self lies in other."""
        self._check_same_ring(other)
        queries, divisors = self._exps, other._exps
        if queries == divisors:  # canonical, so equal ideals: no index
            return True
        if not divisors:  # the zero ideal holds only the zero ideal
            return not queries
        # rows up to the largest entry of both, so that every query fits
        rows = _le_masks(divisors, max(chain.from_iterable(queries + divisors)))
        return all(map(_divisors, repeat(rows), queries))

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self._exps == other._exps

    def __hash__(self):
        return hash((self.n, self._exps))

    # serialization -- both forms are byte-stable because gens are canonical

    def to_text(self):
        """One generator per line in canonical text form, as exps_lines
        writes the streamed ``sideal gens`` listing."""
        return "".join(exps_lines(self._exps, self.n + 1))

    def to_lists(self):
        """Generators as a list of exponent lists (JSON-ready)."""
        return list(map(list, self._exps))

    @classmethod
    def from_lists(cls, n, lists):
        return cls(n, (Monomial(e) for e in lists))

    def __repr__(self):
        body = ", ".join(map(exps_text, self._exps))
        return f"MonomialIdeal(n={self.n}, <{body}>)"


def intersect_all(ideals, max_candidates=None):
    """Intersection of a non-empty sequence of ideals in the same ring.

    Folds pairwise, canonicalizing after every fold so intermediate generator
    sets stay reduced.  A fold of ideals with g and h generators forms
    exactly g*h lcm candidates; BudgetExceededError is raised, before the
    fold, when that passes ``max_candidates`` (see budget_limit).
    """
    ideals = list(ideals)
    if not ideals:
        raise ParameterError("intersect_all needs at least one ideal")
    limit = budget_limit(max_candidates)
    acc = ideals[0]
    for other in ideals[1:]:
        pairs = len(acc._exps) * len(other._exps)
        if pairs > limit:
            raise budget_error(f"an intersection fold forms {pairs} lcm pairs",
                               limit)
        acc = acc.intersect(other)
    return acc
