"""Monomial ideals in canonical minimal-generator form.

A monomial ideal is represented by the unique antichain (under divisibility)
of its minimal monomial generators, stored sorted in descending graded-lex
order so that equal ideals always serialize identically.  The empty generator
set is the zero ideal; the set {1} is the unit ideal.  All operations return
new canonical ideals.

An ideal keeps its antichain as exponent tuples, and every operation works
on them from start to end: sum, product and intersection form their
candidates column-wise as tuples, ``_reduce_to_antichain`` takes tuples and
returns the minimal ones, and the ideal keeps those.  Only the validating
constructor and the trusted ``_from_canonical`` build an ideal.  ``gens``
wraps the tuples in ``Monomial`` only when someone asks for them.

The intersection prunes both operands first: a generator g of either ideal
that lies in the other is a minimal generator of the intersection, since
whatever in the intersection divides g lies in g's own ideal, whose
generators form an antichain.  So g is kept as it is, and it forms no lcm:
each of its lcms is a multiple of it.

Every batch of divisibility tests -- reduction to the antichain, containment
``<=`` and the intersection's pruning -- goes through one structure,
``_DivisorIndex``; ``contains``, a single query, scans the generators.
Tuple k of an index owns bit k.  For each coordinate i and each value v up
to ``top``, the largest indexed entry, the index keeps the int whose set
bits are the tuples with entry i <= v.  A vector a has a divisor in the
index iff the AND over i of those ints at min(a_i, top) is nonzero: at most
n+1 C-level big-int ANDs per query, however many tuples are indexed.
Entries above ``_DENSE_TOP`` are first replaced by their ranks (``_compact``),
so the masks never grow with the size of an exponent.
"""

from bisect import bisect_right
from itertools import accumulate, chain, compress, count, filterfalse, repeat
from operator import add, getitem, le, lshift, not_, or_

from .errors import DimensionError, ParameterError, budget_error, budget_limit, require_int
from .monomials import Monomial, exps_text

# The largest entry an index keeps one mask per value for: past it, a value
# axis of top+1 masks per coordinate would cost more than ranking the entries.
_DENSE_TOP = 256


def _le_masks(tuples, top):
    """For each coordinate i, the list over v in [0, top] of the int whose
    bit k is set iff tuples[k][i] <= v; every entry must be at most top."""
    rows = []
    for column in zip(*tuples):
        exact = [0] * (top + 1)
        bit = 1
        for e in column:
            exact[e] |= bit
            bit <<= 1
        rows.append(list(accumulate(exact, or_)))
    return rows


class _DivisorIndex:
    """Exact divisibility test against a growing set of exponent tuples.

    Invariant: with ``size`` tuples indexed, all of length ``len(masks)`` and
    with entries at most ``top``, ``masks[i][v]`` for 0 <= v <= top has bit k
    set iff tuple k has entry i <= v.  So ``masks[i][top]`` holds all ``size``
    bits, and a query entry above top is clamped to top.  An index is built
    from a non-empty list of tuples.
    """

    __slots__ = ("masks", "top", "size")

    def __init__(self, tuples):
        self.top = max(chain.from_iterable(tuples))
        self.masks = _le_masks(tuples, self.top)
        self.size = len(tuples)

    def add(self, tuples):
        """Index the tuples of the list ``tuples`` as the next bits."""
        if not tuples:
            return
        old_top, size = self.top, self.size
        top = self.top = max(old_top, max(chain.from_iterable(tuples)))
        # the batch's masks count bits from 0: shift them past the old ones
        self.masks = [
            list(map(or_, row + [row[-1]] * (top - old_top),
                     map(lshift, batch, repeat(size))))
            for row, batch in zip(self.masks, _le_masks(tuples, top))]
        self.size = size + len(tuples)

    def has_divisor(self, exps):
        """True iff some indexed tuple is <= ``exps`` entrywise.  The AND
        stops at the first coordinate that leaves no candidate."""
        top = self.top
        acc = -1
        for row, e in zip(self.masks, exps):
            acc &= row[e if e < top else top]
            if not acc:
                return False
        return True


def _compact(*lists):
    """The lists of exponent tuples with each entry replaced by its rank
    among the distinct entries of its coordinate over all the lists.  Ranks
    keep the order within each coordinate, so divisibility and lex order
    between any two of the tuples are unchanged, and no rank exceeds the
    number of tuples.  Callers rank when an indexed entry may pass
    _DENSE_TOP, the largest that gets a dense value axis."""
    ranks = [dict(zip(sorted(set(column)), count()))
             for column in zip(*chain(*lists))]
    return [[tuple(map(getitem, ranks, t)) for t in tuples] for tuples in lists]


def _divisible(queries, divisors):
    """For each tuple of the sequence ``queries``, lazily, whether some tuple
    of ``divisors`` divides it (none does in the zero ideal).  A query entry
    above every divisor's is clamped, so only a large one calls for ranks."""
    if not divisors:
        return repeat(False, len(queries))
    if max(chain.from_iterable(divisors)) > _DENSE_TOP:
        queries, divisors = _compact(queries, divisors)
    return map(_DivisorIndex(divisors).has_divisor, queries)


def _reduce_to_antichain(tuples):
    """The minimal exponent tuples of ``tuples`` under divisibility, as a
    list in descending graded-lex order.

    Tuples in, tuples out: callers form their candidates as raw exponent
    tuples, and the ideal keeps the minimal ones as they are
    (``MonomialIdeal._from_canonical``).
    The intersection's candidates include the generators it pruned; those
    are minimal already (see the module docstring), and the sweep keeps
    them as it keeps any tuple that no other divides.

    Candidates are deduplicated and bucketed by total degree.  A strict
    divisor has strictly smaller total degree (distinct tuples of equal
    degree never divide one another), so the buckets are swept in ascending
    degree and each candidate is tested only against the tuples kept from
    lower-degree buckets.  Those sit in a ``_DivisorIndex`` built from the
    lowest-degree bucket, minimal as it is, and grown one bucket at a time;
    invariant: before a bucket is filtered, the index holds exactly the
    minimal tuples of every lower degree.  A single bucket is returned as
    it is, so an equigenerated input, such as a power of an equigenerated
    ideal, builds no index and costs no divisibility test; the last bucket
    is never indexed.  Callers check that every tuple has the ideal's
    length; the sweep compares tuples ranked by ``_compact`` when an entry
    passes _DENSE_TOP and maps the kept ones back.
    """
    # ascending degree, then ascending exps: the buckets in sweep order
    keys = sorted(set(tuples))
    keys.sort(key=sum)
    degrees = list(map(sum, keys))
    if not keys or degrees[0] == degrees[-1]:
        keys.reverse()
        return keys
    original = None
    # a degree bounds every entry, so only a large degree needs the scan
    if degrees[-1] > _DENSE_TOP and max(chain.from_iterable(keys)) > _DENSE_TOP:
        # ranks keep lex order, so keys stay sorted within each bucket
        ranked, = _compact(keys)
        original = dict(zip(ranked, keys))
        keys = ranked
    start = bisect_right(degrees, degrees[0])
    kept = keys[:start]
    index = _DivisorIndex(kept)
    while start < len(keys):
        end = bisect_right(degrees, degrees[start], start)
        bucket = list(filterfalse(index.has_divisor, keys[start:end]))
        if end < len(keys):
            index.add(bucket)
        kept += bucket
        start = end
    kept.reverse()
    return kept if original is None else list(map(original.__getitem__, kept))


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
        mine, theirs = self._exps, other._exps
        # a generator that lies in the other ideal is kept as a minimal
        # generator (see the module docstring); only the pairs of generators
        # outside each other's ideal form lcms
        mine_in = list(_divisible(mine, theirs))
        theirs_in = list(_divisible(theirs, mine))
        candidates = set(compress(mine, mine_in))
        candidates.update(compress(theirs, theirs_in))
        outside = list(compress(theirs, map(not_, theirs_in)))
        # column-wise: coordinate i of lcm(g, h) is max(g_i, h_i) for every
        # h at once, and a g_i at or below (above) the whole column leaves
        # the column (a run of g_i)
        rows = len(outside)
        columns = list(zip(*outside))
        bounds = list(zip(map(min, columns), map(max, columns)))
        for g in compress(mine, map(not_, mine_in)):
            candidates.update(zip(*[
                column if e <= low else
                repeat(e, rows) if e >= high else
                map(max, repeat(e), column)
                for e, column, (low, high) in zip(g, columns, bounds)]))
        return self._from_canonical(self.n, _reduce_to_antichain(candidates))

    __and__ = intersect

    def __le__(self, other):
        """Containment self <= other: every generator of self lies in other."""
        self._check_same_ring(other)
        return all(_divisible(self._exps, other._exps))

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self._exps == other._exps

    def __hash__(self):
        return hash((self.n, self._exps))

    # serialization -- both forms are byte-stable because gens are canonical

    def to_text(self):
        """One generator per line in canonical text form."""
        return "".join(f"{exps_text(g)}\n" for g in self._exps)

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
    sets stay reduced.  A fold of ideals with g and h generators forms at
    most g*h lcm candidates; BudgetExceededError is raised, before the fold,
    when that passes ``max_candidates`` (see budget_limit).
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
