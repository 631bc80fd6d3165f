"""Skeleton ideals of the coordinate simplex and their powers.

For 1 <= c <= n let I(n,c) be the ideal of the union of all codimension-c
coordinate subspaces {x_{i_1} = ... = x_{i_c} = 0} of P^n.  These are
squarefree monomial ideals: I(n,c) is generated by the squarefree monomials
of degree n+2-c.  This module holds the spec (n, c), the membership tests
and the enumerator route, which computes

* symbolic powers, by the exponent criterion (every c-subset of
  coordinates sums to at least m);
* ordinary powers, by the closed form for their minimal generators
  (total degree exactly (n-c+2)r with every exponent <= r).

The other route to the symbolic powers, the intersection of the face
primes' powers, is ``faceprime``.  The two must agree, so no code here
uses anything of ``faceprime``, and ``faceprime`` imports nothing from here:
this module binds ``FacePrime`` and ``symbolic_power_oracle`` only for
lookup, and otherwise imports from the package only ``errors`` and
``ideals``.  tests/test_routes.py checks this.

Everything is exact integer combinatorics.  I(n,c), its ordinary powers and
its symbolic powers are invariant under permuting the n+1 coordinates, so
each of them names only the weakly decreasing minimal generators, the orbit
representatives.  One count, ``_counted_orbits``, sums the orbit sizes
before building a generator and raises BudgetExceededError ("at least" N)
once the sum passes the ``max_candidates`` budget instead of starting an
enumeration it cannot finish.  One permutation walk, ``_permutations``,
steps through an orbit by prefix shifts, one list move per generator, and
every listing or scan of an orbit walks it.  Two enumerators build on the
count.  ``_orbits`` streams the permutations of the representatives in the
canonical descending graded-lex order, holding the representatives and at
most ``_BLOCK`` generators at a time: ``_orbit_blocks`` sorts the walked
orbits in blocks.  The two ``*_stream`` functions, symbolic and ordinary
(at r = 1 for I(n,c) itself), return its (count, stream) pair, which
``sideal gens`` writes row by row and the builders wrap in a
MonomialIdeal.  ``_symbolic_scan`` yields the representatives first and
then the rest of each orbit as the walk gives it, in no canonical order,
and the oracles map one membership test (``_ordinary_test``,
``_symbolic_test``) over it, so a noncontainment stops within the
representatives.  The claims test or multiply representatives directly
(``_representative_product``).
"""

from dataclasses import dataclass
from itertools import chain, groupby, islice
from operator import add

from .errors import (DimensionError, ParameterError, _orbit_size, budget_error, budget_limit,
                     require_int)
# bound here, not used: the package root and bench/tracing.py's TARGETS look
# the face-prime route's names up on this module
from .faceprime import FacePrime, symbolic_power_oracle  # noqa: F401
from .ideals import MonomialIdeal, _reduce_to_antichain


@dataclass(frozen=True)
class SimplicialSpec:
    """Parameters (n, c) naming the ideal I(n,c), with 1 <= c <= n."""

    n: int
    c: int

    def __post_init__(self):
        _check_spec(self.n, self.c)


def _check_spec(n, c, name="c"):
    """SimplicialSpec's (n, c) rule, for callers that need no spec built;
    ``name`` is what the caller calls c in its errors."""
    require_int("n", n, 1)
    require_int(name, c)
    if not 1 <= c <= n:
        raise ParameterError(f"{name}={c} must satisfy 1 <= {name} <= n={n}")


def simplicial_ideal(spec, max_candidates=None):
    """I(n,c): all squarefree monomials of degree n+2-c in x_0..x_n, built
    from ordinary_power_stream, as I(n,c) = I(n,c)^1."""
    _, stream = ordinary_power_stream(spec, 1, max_candidates)
    return MonomialIdeal._from_canonical(spec.n, stream)


def _ring_exps(spec, a):
    """The exponent tuple of the monomial ``a``, which must lie in the ring
    of spec."""
    if a.n != spec.n:
        raise DimensionError(f"monomial has ambient n={a.n}, spec has n={spec.n}")
    return a.exps


def _symbolic_test(spec, m):
    """The exponent-tuple test for the m-th symbolic power of I(n,c), built
    once per query: the c smallest entries sum to >= m.  The oracles map it
    over a generator stream, and the claims over _symbolic_representatives;
    callers check m and the tuples' length."""
    c = spec.c
    return lambda exps: sum(sorted(exps)[:c]) >= m


def symbolic_member(spec, m, a):
    """Membership of x^a in the m-th symbolic power of I(n,c).

    Holds iff every c-subset of coordinates of a sums to >= m.  The minimum
    over c-subsets is attained at the c smallest entries, so sorting once
    replaces the binomial(n+1, c) subset scan.
    """
    require_int("m", m, 1)
    return _symbolic_test(spec, m)(_ring_exps(spec, a))


def symbolic_member_detail(spec, m, a):
    """symbolic_member with its binding constraint: (member, subset,
    subset_sum), subset the first c-subset in lexicographic order with the
    least exponent sum.  Only this explanation pays for the index sort; the
    verdict, as the oracles' _symbolic_test, sorts the entries alone.
    """
    member = symbolic_member(spec, m, a)
    exps = a.exps
    subset = sorted(sorted(range(spec.n + 1), key=exps.__getitem__)[:spec.c])
    return member, subset, sum(exps[i] for i in subset)


def _partitions(total, parts, cap):
    """Weakly decreasing tuples of ``parts`` entries in [0, cap] summing to
    ``total``, in descending lexicographic order.  The successor of a tuple
    lowers by one the rightmost entry whose followers can take the freed
    unit without passing it, then refills those followers greedily."""
    if total > parts * cap:
        return
    vec = [0] * parts
    start, top, rest = 0, cap, total
    while True:
        # vec[start:] gets ``rest``: entries of ``top``, the remainder, zeros
        for j in range(start, parts):
            vec[j] = e = top if rest > top else rest
            rest -= e
        yield tuple(vec)
        i = parts - 1
        rest = vec[i]  # at each test below, rest == sum(vec[i + 1:])
        while True:
            i -= 1
            if i < 0:
                return
            top = vec[i] - 1
            if rest < top * (parts - 1 - i):
                break
            rest += vec[i]
        vec[i] = top
        start, rest = i + 1, rest + 1


def _permutations(rep):
    """Each distinct permutation of the nonempty weakly decreasing tuple
    ``rep`` exactly once, ``rep`` first, in cool-lex order (Williams,
    "Loopless generation of multiset permutations using a constant number
    of variables by prefix shifts", SODA 2009).

    Each step moves one entry to the front, a prefix shift.  With a[:i + 1]
    the longest weakly decreasing prefix (i = len - 2 at ``rep``, which has
    none longer), the entry moved is a[i + 2] if it exists and a[i] >=
    a[i + 2], else a[i + 1]; the walk ends when no a[i + 2] exists and
    a[i + 1] >= a[0].  No step searches for a successor, so one costs a
    list move and a tuple."""
    a = list(rep)
    k = len(a)
    yield rep
    i = k - 2
    while i + 2 < k or a[i + 1] < a[0]:
        s = i + 1 if i + 2 < k and a[i] >= a[i + 2] else i
        a.insert(0, a.pop(s + 1))
        i = 0 if a[0] < a[1] else i + 1
        yield tuple(a)


# the most generators _orbit_blocks lists and sorts at once
_BLOCK = 1024


def _counted_orbits(spec, reps, max_candidates, name):
    """(count, reps) for the ideal ``name`` of the ring of ``spec``,
    minimally generated by the coordinate permutations of ``reps``, weakly
    decreasing int tuples whose orbits together form an antichain; the
    representatives come back as a list.

    ``count`` is the number of generators, the sum of the orbit sizes.
    BudgetExceededError ("at least" the count so far, see _orbit_size) is
    raised once it passes ``max_candidates`` (see budget_limit), or once the
    first orbit does, binomial(n+1, c-1) permutations of the first
    representative (v,)*(n-c+2) + (0,)*(c-1), before that is built.
    _orbits and _symbolic_scan both count here, so a listing and an oracle
    refuse the same ideals with the same message.
    """
    limit = budget_limit(max_candidates)
    count = _orbit_size((spec.n + 2 - spec.c, spec.c - 1), limit)
    kept = []
    for rep in reps if count <= limit else ():
        if kept:  # the first orbit is counted above
            count += _orbit_size(map(rep.count, set(rep)), limit - count)
            if count > limit:
                break
        kept.append(rep)
    if count > limit:
        raise budget_error(f"{name} has at least {count} generators", limit)
    return count, kept


def _orbits(spec, reps, max_candidates, name):
    """(count, stream) for the ideal ``name``, counted by _counted_orbits.

    ``stream`` yields the generators' exponent tuples in descending
    graded-lex order: the blocks of _orbit_blocks, one degree after
    another.  It holds the representatives and at most _BLOCK generators.
    """
    count, reps = _counted_orbits(spec, reps, max_candidates, name)
    return count, chain.from_iterable(_orbit_blocks(reps))


def _orbit_blocks(reps):
    """The orbits of the representatives ``reps``, as consecutive blocks in
    descending graded-lex order.

    ``reps`` must come in non-increasing degree, as both families list
    them, and any new family must too: groupby takes each run of one
    degree as it comes.  The symbolic representatives (t1,)*(n-c+1) + t
    have t in descending lex order, so t1, and with it the degree
    (n-c+1)*t1 + m, never rises; the ordinary ones all have degree
    (n-c+2)*r.

    Within one degree the vectors with a larger first entry come first, and
    those with first entry v are v followed by the orbits of the
    representatives that contain v, with one v removed.  So the work is a
    stack of (prefix, remainders) pairs.  Remainders of at most _BLOCK
    vectors in all are walked (_permutations) and sorted without the shared
    prefix, which is put back on each as it is yielded; larger ones, a lone
    orbit among them, are split on their next entry, largest first.  Orbits
    are disjoint, so each generator comes once."""
    for _, group in groupby(reps, sum):
        stack = [((), list(group))]
        while stack:
            prefix, rests = stack.pop()
            if sum(_orbit_size(map(rest.count, set(rest)), _BLOCK)
                   for rest in rests) <= _BLOCK:
                suffixes = chain.from_iterable(map(_permutations, rests))
                yield map(prefix.__add__, sorted(suffixes, reverse=True))
            else:
                splits = {}
                for rest in rests:
                    for v in set(rest):
                        i = rest.index(v)
                        splits.setdefault(v, []).append(rest[:i] + rest[i + 1:])
                # pushed ascending, so the largest entry is taken first
                stack.extend((prefix + (v,), splits[v]) for v in sorted(splits))


def symbolic_power_stream(spec, m, max_candidates=None):
    """(count, stream) of the minimal generators of the m-th symbolic power
    of I(n,c), in canonical order.

    x^a is a member iff its c smallest exponents sum to >= m (see
    symbolic_member).  That test is invariant under permuting coordinates,
    so the minimal generators are the distinct permutations of the weakly
    decreasing ones, the orbit representatives.  Split a weakly decreasing
    exponent vector v into a head (its first n-c+1 entries) and a tail (its
    last c entries, the c smallest).  Then v is a minimal generator iff

    * the tail sums to exactly m, and
    * every head entry equals the first tail entry.

    Proof.  If the tail sums to more than m, lowering its last positive
    entry keeps v sorted and a member; if a head entry exceeds the first
    tail entry, lowering the last such entry leaves the tail alone.
    Conversely, when both hold, lowering any entry leaves c entries summing
    to m - 1: the tail itself, or the tail with the lowered head entry in
    place of its equal first entry.

    So the representatives are (t1,)*(n-c+1) + t, one for each partition
    t = (t1 >= ... >= tc >= 0) of m into at most c parts, and no generator
    has an exponent above m.  _symbolic_representatives lists them, and
    _orbits counts their orbits against ``max_candidates`` and streams them;
    the oracles' _symbolic_scan counts them the same way.
    """
    require_int("m", m, 1)
    return _orbits(spec, _symbolic_representatives(spec, m), max_candidates,
                   f"I^({m})({spec.n},{spec.c})")


def _symbolic_representatives(spec, m):
    """The orbit representatives of the minimal generators of the m-th
    symbolic power of I(n,c), weakly decreasing, in descending lex order:
    (t1,)*(n-c+1) + t for each partition t of m into at most c parts (see
    symbolic_power_stream).  Callers check m.

    The minimal generators of I^(m) are the coordinate permutations of
    these, so an exponent-tuple test that is invariant under permuting
    coordinates (``_ordinary_test``, ``_symbolic_test``) passes on every
    minimal generator iff it passes on every representative.  For the
    membership test of a monomial ideal J, that says I^(m) lies in J iff
    every representative lies in J, and a failing representative is itself
    a generator of I^(m) outside J."""
    head = spec.n - spec.c + 1
    return ((t[0],) * head + t for t in _partitions(m, spec.c, m))


def _symbolic_scan(spec, m, max_candidates=None):
    """A scan of the minimal generators of the m-th symbolic power of
    I(n,c), for the oracles: counted and refused as symbolic_power_stream
    is (_counted_orbits), but the generators in no canonical order.

    The scan yields each generator exactly once: first the representatives
    (_symbolic_representatives), then the rest of each orbit in turn, as
    _permutations walks it by prefix shifts, with no _orbit_blocks and no
    sort.
    A test that is invariant under permuting coordinates fails on some
    generator iff it fails on a representative, so a scan stopped at the
    first failure stops within the representatives; one that passes reads
    every generator.  It holds the representatives and one permutation.
    """
    require_int("m", m, 1)
    _, reps = _counted_orbits(spec, _symbolic_representatives(spec, m),
                              max_candidates, f"I^({m})({spec.n},{spec.c})")
    # each orbit's first permutation is its representative, already yielded
    rests = (islice(_permutations(rep), 1, None) for rep in reps)
    return chain(reps, chain.from_iterable(rests))


def _representative_product(reps, others):
    """The orbit representatives of I*J, in descending graded-lex order,
    from the lists ``reps`` and ``others`` of those of I and J, ideals
    invariant under permuting coordinates.  Exact as, for weakly decreasing
    u and v, some permutation of u divides v iff u <= v entrywise, and as
    every generator of I*J, permuted so that its I-factor is a
    representative r, is r + p, p a permutation of a tuple of ``others``.
    The tuples of ``others`` are weakly decreasing, and _permutations walks
    each one's orbit; the order of the candidates does not matter, as
    _reduce_to_antichain sorts them."""
    return _reduce_to_antichain(
        tuple(sorted(map(add, r, p), reverse=True)) for s in others
        for p in _permutations(s) for r in reps)


def symbolic_power(spec, m, max_candidates=None):
    """Canonical minimal generating set of the m-th symbolic power of
    I(n,c), built from symbolic_power_stream."""
    _, stream = symbolic_power_stream(spec, m, max_candidates)
    return MonomialIdeal._from_canonical(spec.n, stream)


def ordinary_power_stream(spec, r, max_candidates=None):
    """(count, stream) of the minimal generators of I(n,c)^r in closed form.

    They are exactly the exponent vectors of total degree (n-c+2)*r with
    every entry <= r; equal total degree makes the set an antichain, so no
    reduction step is needed.  Their representatives, listed by
    _ordinary_representatives, are counted and streamed by _orbits.  At
    r = 1 this lists I(n,c) itself, and budget messages name it so.
    """
    require_int("r", r, 1)
    name = f"I({spec.n},{spec.c})" + ("" if r == 1 else f"^{r}")
    return _orbits(spec, _ordinary_representatives(spec, r), max_candidates,
                   name)


def _ordinary_representatives(spec, r):
    """The orbit representatives of the minimal generators of I(n,c)^r,
    weakly decreasing, in descending lex order: the partitions of
    (n-c+2)*r into n+1 parts of at most r (see ordinary_power_stream).
    Callers check r.  A permutation-invariant test may stop at these; the
    argument is in _symbolic_representatives."""
    return _partitions((spec.n - spec.c + 2) * r, spec.n + 1, r)


def ordinary_power_min_gens(spec, r, max_candidates=None):
    """I(n,c)^r, built from ordinary_power_stream; must coincide with
    simplicial_ideal(spec)**r."""
    _, stream = ordinary_power_stream(spec, r, max_candidates)
    return MonomialIdeal._from_canonical(spec.n, stream)


class _Capped(dict):
    """min(e, r) by entry value e, each value computed the first time it is
    looked up; one per query (see _ordinary_test)."""

    __slots__ = ("r",)

    def __init__(self, r):
        super().__init__()
        self.r = r

    def __missing__(self, e):
        value = self[e] = min(e, self.r)
        return value


def _ordinary_test(spec, r):
    """The exponent-tuple test for I(n,c)^r, built once per query: the
    entries capped at r sum to >= (n-c+2)*r.  The oracle maps it over a
    generator stream, and the claims over the representatives of a
    symbolic or ordinary power; callers check r and the tuples' length.

    Each capped entry is read from a _Capped memo that belongs to this one
    test.  Calling the builtin min per entry cost about three times a dict
    lookup, and the entries of one query take few distinct values (those
    of I^(m)'s generators are at most m), so the memo answers nearly every
    entry by lookup.  It holds only the values seen, one key each, so a
    10**9 entry or r = 10**9 costs one key, not a table up to its size.
    """
    required = (spec.n - spec.c + 2) * r
    capped = _Capped(r).__getitem__
    return lambda exps: sum(map(capped, exps)) >= required


def ordinary_member(spec, r, a):
    """Membership of x^a in I(n,c)^r without building the power.

    x^a lies in I^r iff sum_i min(a_i, r) >= (n-c+2)*r: a divisor with the
    generator degree pattern can be carved out of a exactly when the capped
    coordinate sum reaches the required total degree.
    """
    require_int("r", r, 1)
    return _ordinary_test(spec, r)(_ring_exps(spec, a))


def ordinary_member_detail(spec, r, a):
    """ordinary_member with its binding constraint: (member, capped_degree,
    required), capped_degree = sum_i min(a_i, r), required = (n-c+2)*r."""
    member = ordinary_member(spec, r, a)
    capped = sum(map(_Capped(r).__getitem__, a.exps))
    return member, capped, (spec.n - spec.c + 2) * r
