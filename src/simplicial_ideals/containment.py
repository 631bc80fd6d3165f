"""Containment between powers of skeleton ideals, and resurgence.

The central question is for which pairs (m, r) the m-th symbolic power of
I(n,c) sits inside the r-th ordinary power.  For these ideals the answer is
a closed-form inequality in exact integer arithmetic; this module implements
that criterion, a brute-force oracle that re-decides the question from the
generators, a sufficient condition for containments between symbolic powers
of different codimensions, and the resurgence sup { m/r : noncontainment }
together with its witness sequence.

A decision compares ratios by integer cross-multiplication with positive
denominators; every ratio returned is a ``fractions.Fraction``.  No float is
used anywhere in this module.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParameterError, budget_error, budget_limit, require_int
from .simplicial import (
    SimplicialSpec,
    _check_spec,
    _ordinary_test,
    _symbolic_test,
    symbolic_power_stream,
)


def _largest_contained_r(n, c, m):
    """Largest r that containment_criterion admits for (n, c, m); callers
    check the arguments."""
    k = -(-m // c)
    p = k * c - m
    return ((n + 1) * k - p) // (n - c + 2)


def _least_containing_m(n, c, r):
    """Inverse of _largest_contained_r: the least m containment_criterion
    admits, as m + (n-c+1)*ceil(m/c) grows with m and is (n+1)k at m = kc."""
    need = r * (n - c + 2)
    k = -(-need // (n + 1))
    return max((k - 1) * c + 1, need - (n - c + 1) * k)


def containment_criterion(n, c, m, r):
    """Exact test for: m-th symbolic power of I(n,c) inside r-th ordinary power.

    With m = k*c - p, 0 <= p < c, the containment holds iff
    r * (n - c + 2) <= (n + 1) * k - p.  This is an if-and-only-if; the
    boundary case of equality is a containment.
    """
    _check_spec(n, c)
    require_int("r", r, 1)
    require_int("m", m, 1)
    return r <= _largest_contained_r(n, c, m)


def containment_oracle(n, c, m, r, max_candidates=None):
    """Decide the same containment by brute force: every minimal generator
    of the symbolic power must pass the ordinary-power membership test.
    They are counted against ``max_candidates``, then tested as they stream,
    so a noncontainment stops at its first failing generator."""
    spec = SimplicialSpec(n, c)
    require_int("r", r, 1)
    _, stream = symbolic_power_stream(spec, m, max_candidates)
    return all(map(_ordinary_test(spec, r), stream))


def symbolic_containment_sufficient(c, d, m, s):
    """Sufficient condition for: m-th symbolic power of I(n,c) inside the
    s-th symbolic power of I(n,d) (any ambient n): c <= d and s*c <= m*d.

    One-directional -- the containment can hold while this returns False.
    """
    for name, value in (("c", c), ("d", d), ("m", m), ("s", s)):
        require_int(name, value, 1)
    return c <= d and s * c <= m * d


def symbolic_containment_oracle(n, c, d, m, s, max_candidates=None):
    """Decide the cross-codimension symbolic containment from the generators.

    Membership in the target symbolic power is the closed-form d-subset test,
    so only the source ideal is enumerated, and streamed as in
    containment_oracle.
    """
    src = SimplicialSpec(n, c)
    dst = SimplicialSpec(n, d)
    require_int("s", s, 1)
    _, stream = symbolic_power_stream(src, m, max_candidates)
    return all(map(_symbolic_test(dst, s), stream))


def resurgence(n, c):
    """Exact resurgence of I(n,c): the reduced rational c*(n-c+2)/(n+1)."""
    _check_spec(n, c)
    return Fraction(c * (n - c + 2), n + 1)


def resurgence_witness(n, c, k):
    """The k-th noncontainment witness pair (m_k, r_k).

    m_k = k*c and r_k is the smallest integer strictly greater than
    (n+1)*k/(n-c+2) -- i.e. floor + 1 even when the quotient is integral.
    The pair is guaranteed noncontained and m_k/r_k approaches the
    resurgence from below as k grows.
    """
    _check_spec(n, c)
    require_int("k", k, 1)
    return _witness(n, c, k)


def _witness(n, c, k):
    """resurgence_witness without its checks, for callers that made them."""
    return k * c, (n + 1) * k // (n - c + 2) + 1


def empirical_resurgence_sup(n, c, max_m, max_r):
    """Largest m/r with noncontainment over the box 1..max_m x 1..max_r.

    Returns (sup, (m, r)) as an exact Fraction with the first pair attaining
    it (scanning m then r ascending), or (None, None) if every pair in the
    box is a containment.  For fixed m the noncontained r are exactly those
    above _largest_contained_r, so only the least of them can attain the
    sup, and one pass over m suffices.  The pass compares pairs by
    cross-multiplying and builds no Fraction per m, only the one returned.
    """
    _check_spec(n, c)
    require_int("max_m", max_m, 1)
    require_int("max_r", max_r, 1)
    best_m = best_r = None
    for m in range(1, max_m + 1):
        r = _largest_contained_r(n, c, m) + 1
        if r > max_r:
            continue
        # m/r > best_m/best_r, both denominators positive
        if best_m is None or m * best_r > best_m * r:
            best_m, best_r = m, r
    if best_m is None:
        return None, None
    return Fraction(best_m, best_r), (best_m, best_r)


def smallest_containing_symbolic_power(n, c, r, use_oracle=False,
                                       max_candidates=None):
    """Least m with the (m, r) containment: a closed form, or with use_oracle a
    scan of m = 1..c*r (m = c*r succeeds), counted first (see budget_limit)."""
    _check_spec(n, c)
    require_int("r", r, 1)
    limit = budget_limit(max_candidates)
    if not use_oracle:
        return _least_containing_m(n, c, r)
    if c * r > limit:
        raise budget_error(f"the least-m scan for r={r} tests up to {c * r} "
                           "values of m", limit)
    for m in range(1, c * r + 1):
        if containment_oracle(n, c, m, r, max_candidates=max_candidates):
            return m
    raise AssertionError(f"no containing m up to c*r for n={n} c={c} r={r}")


def containment_boundary(n, c, max_r, max_candidates=None):
    """Table [(r, least containing m)] for r = 1..max_r, in closed form.

    Boundary data only -- recorded for inspection, no conclusion about
    optimality of any general bound is drawn from it.  It counts its max_r
    rows first (see budget_limit).
    """
    _check_spec(n, c)
    require_int("max_r", max_r, 0)
    limit = budget_limit(max_candidates)
    if max_r > limit:
        raise budget_error(f"max_r={max_r} lists {max_r} rows", limit)
    return [(r, _least_containing_m(n, c, r)) for r in range(1, max_r + 1)]


@dataclass(frozen=True)
class ResurgenceReport:
    """Exact resurgence with witness samples and an optional box sweep."""

    n: int
    c: int
    rho: Fraction
    witnesses: list = field(default_factory=list)  # (k, m_k, r_k, ratio)
    box: tuple = None
    empirical_sup: Fraction = None
    empirical_argmax: tuple = None


def resurgence_report(n, c, witness_count=0, box=None, max_candidates=None):
    """Exact resurgence of I(n,c), the witness pairs for k = 1..witness_count
    and, given box = (M, R), the empirical sup over that box.  The box sweep
    is one pass over M values of m and each witness is one pair; both counts
    are checked against ``max_candidates`` (see budget_limit) before
    anything is computed.  The messages name these parameters: the box is
    checked first, as ``box M`` and ``box R``, then witness_count.
    """
    limit = budget_limit(max_candidates)
    if box is not None:
        if not isinstance(box, (tuple, list)) or len(box) != 2:
            raise ParameterError(f"box={box!r} must be a pair (M, R)")
        require_int("box M", box[0], 1)
        require_int("box R", box[1], 1)
        if box[0] > limit:
            raise budget_error(f"box M={box[0]} sweeps {box[0]} values of m",
                               limit)
    require_int("witness_count", witness_count, 0)
    if witness_count > limit:
        raise budget_error(f"witness_count={witness_count} lists "
                           f"{witness_count} pairs", limit)
    rho = resurgence(n, c)
    witnesses = []
    for k in range(1, witness_count + 1):
        m, r = _witness(n, c, k)
        witnesses.append((k, m, r, Fraction(m, r)))
    sup = argmax = None
    if box is not None:
        sup, argmax = empirical_resurgence_sup(n, c, *box)
    return ResurgenceReport(n=n, c=c, rho=rho, witnesses=witnesses,
                            box=None if box is None else tuple(box),
                            empirical_sup=sup, empirical_argmax=argmax)
