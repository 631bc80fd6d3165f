"""Desk-scale verification harness.

Every identity and containment statement this package is built around is
registered here as a claim: a bounded, exhaustively checkable family of
exact assertions.  Claims are grouped into three scopes -- ``triangle``
(P^2, where E = I(2,1) and V = I(2,2)), ``tetrahedron`` (P^3, with
F = I(3,1), E = I(3,2), V = I(3,3)) and ``general`` -- plus ``all``.

Each claim reports pass/fail with the first counterexample found, and the
sweep limits it ran with.  A claim declares its limits where it is
registered, each as a (default, deep) pair, and states its range once, as a
str.format template over their names ("m <= {top_m}", top_m=(4, 6)).
run_verification passes the default values, or with ``deep`` the deep ones,
to the runner as keywords.  A runner returns its first counterexample or
None; the two claims that record data return (counterexample, detail).  A
P^2 and a P^3 claim that are the n = 2 and n = 3 cases of one statement
share a runner.
"""

import time
from dataclasses import dataclass
from functools import partial
from itertools import permutations, product

from .containment import (
    containment_boundary,
    containment_criterion,
    resurgence,
    resurgence_witness,
    symbolic_containment_oracle,
    symbolic_containment_sufficient,
)
from .errors import ParameterError
from .faceprime import symbolic_power_oracle
from .ideals import MonomialIdeal
from .simplicial import (
    SimplicialSpec,
    _ordinary_representatives,
    _ordinary_test,
    _representative_product,
    _symbolic_representatives,
    _symbolic_test,
    simplicial_ideal,
    symbolic_power,
)


SCOPES = ("triangle", "tetrahedron", "general", "all")


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    statement: str
    params_range: str
    status: str                 # "pass" | "fail"
    counterexample: dict = None
    detail: dict = None
    wall_time_ms: float = 0.0


_REGISTRY = []  # ("<scope>/<name>", statement, params_range, runner, limits)


def _claim(claim_id, statement, params_range, **limits):
    """Register a runner with its limits, each a (default, deep) pair;
    params_range is a template over the limit names."""
    def register(fn):
        _REGISTRY.append((claim_id, statement, params_range, fn, limits))
        return fn
    return register


def _specs_up_to(max_n):
    return [(n, c) for n in range(1, max_n + 1) for c in range(1, n + 1)]


def _orbit(vec):
    """All distinct coordinate permutations of an exponent vector, built
    without symbolic_power's permutation helper so the claims check it."""
    return set(permutations(vec))


# ------------------------------------------ shared by triangle and tetrahedron

def _generator_orbits(n, top_m):
    """I^(m)(n,2) is generated by the orbits of (m-j,)*n + (j,), m <= top_m."""
    for m in range(1, top_m + 1):
        expected = set()
        for j in range(m // 2 + 1):
            expected |= _orbit((m - j,) * n + (j,))
        if set(symbolic_power(SimplicialSpec(n, 2), m)._exps) != expected:
            return {"m": m}
    return None


def _even_factors(n, top_m):
    """I^(2m)(n,2) = (I^(2)(n,2))^m for m <= top_m."""
    spec = SimplicialSpec(n, 2)
    square = symbolic_power(spec, 2)
    for m in range(1, top_m + 1):
        if symbolic_power(spec, 2 * m) != square ** m:
            return {"m": m}
    return None


def _odd_factors(n, top_m):
    """I^(2m+1)(n,2) = I^(2m)(n,2) * I(n,2) for m <= top_m."""
    spec = SimplicialSpec(n, 2)
    ideal = simplicial_ideal(spec)
    for m in range(1, top_m + 1):
        if symbolic_power(spec, 2 * m + 1) != symbolic_power(spec, 2 * m) * ideal:
            return {"m": m}
    return None


def _principal_ci(n, top_k):
    """I(n,1)^k = I^(k)(n,1) for k <= top_k."""
    spec = SimplicialSpec(n, 1)
    ideal = simplicial_ideal(spec)
    for k in range(1, top_k + 1):
        if ideal ** k != symbolic_power(spec, k):
            return {"k": k}
    return None


def _second_symbolic_decomposition(n):
    """I^(2)(n,2) = I(n,1) + I(n,2)^2."""
    holds = (symbolic_power(SimplicialSpec(n, 2), 2)
             == simplicial_ideal(SimplicialSpec(n, 1))
             + simplicial_ideal(SimplicialSpec(n, 2)) ** 2)
    return None if holds else {}


# ---------------------------------------------------------------- triangle

_claim("triangle/symbolic-generator-orbits",
       "minimal generators of I^(m)(2,2) are the permutations of "
       "(m-k, m-k, k) for 0 <= k <= floor(m/2)", "m <= {top_m}",
       top_m=(8, 12))(partial(_generator_orbits, 2))
_claim("triangle/even-symbolic-power-factors",
       "I^(2m)(2,2) = (I^(2)(2,2))^m", "m <= {top_m}",
       top_m=(4, 6))(partial(_even_factors, 2))
_claim("triangle/odd-symbolic-power-factors",
       "I^(2m+1)(2,2) = I^(2m)(2,2) * I(2,2)", "m <= {top_m}",
       top_m=(4, 6))(partial(_odd_factors, 2))
_claim("triangle/second-symbolic-decomposition",
       "I^(2)(2,2) = I(2,1) + I(2,2)^2", "single identity")(
    partial(_second_symbolic_decomposition, 2))


@_claim("triangle/product-ideal-in-second-symbolic",
        "I(2,1) contained in I^(2)(2,2)", "single containment")
def _run_triangle_e_in_v2():
    E = simplicial_ideal(SimplicialSpec(2, 1))
    return None if E <= symbolic_power(SimplicialSpec(2, 2), 2) else {}


@_claim("triangle/symbolic-powers-cross-containment",
        "I^(m)(2,1) contained in I^(2m)(2,2)", "m <= {top_m}", top_m=(4, 6))
def _run_triangle_cross(top_m):
    for m in range(1, top_m + 1):
        lhs = symbolic_power(SimplicialSpec(2, 1), m)
        rhs = symbolic_power(SimplicialSpec(2, 2), 2 * m)
        if not lhs <= rhs:
            return {"m": m}
    return None


@_claim("triangle/symbolic-step-factorization",
        "I^(m+1)(2,1) contained in I^(2)(2,2) * I^(m)(2,1), itself "
        "contained in I(2,2) * I^(m)(2,1)", "m <= {top_m}", top_m=(4, 6))
def _run_triangle_step(top_m):
    V = simplicial_ideal(SimplicialSpec(2, 2))
    V2 = symbolic_power(SimplicialSpec(2, 2), 2)
    for m in range(1, top_m + 1):
        Em = symbolic_power(SimplicialSpec(2, 1), m)
        V2Em = V2 * Em
        if not symbolic_power(SimplicialSpec(2, 1), m + 1) <= V2Em:
            return {"m": m, "step": "into V2*E^(m)"}
        if not V2Em <= V * Em:
            return {"m": m, "step": "V2*E^(m) into V*E^(m)"}
    return None


_claim("triangle/principal-complete-intersection",
       "I(2,1)^k = I^(k)(2,1) (principal, complete intersection)",
       "k <= {top_k}", top_k=(5, 8))(partial(_principal_ci, 2))


@_claim("triangle/containment-criterion-ceiling-form",
        "containment_criterion(2,2,m,r) iff 2r <= ceil(3m/2)",
        "m,r <= {top_mr}", top_mr=(12, 24))
def _run_triangle_criterion(top_mr):
    for m in range(1, top_mr + 1):
        for r in range(1, top_mr + 1):
            ceiling = (2 * r <= -(-3 * m // 2))
            if containment_criterion(2, 2, m, r) != ceiling:
                return {"m": m, "r": r}
    return None


# ------------------------------------------------------------- tetrahedron

_claim("tetrahedron/edge-symbolic-generator-orbits",
       "minimal generators of I^(m)(3,2) are the permutations of "
       "(m-j, m-j, m-j, j) for 0 <= j <= floor(m/2)", "m <= {top_m}",
       top_m=(6, 8))(partial(_generator_orbits, 3))


@_claim("tetrahedron/vertex-symbolic-generator-family",
        "the permutations of (m-i-j, m-i-j, i, j) over 2i+j <= m and "
        "i+2j <= m generate I^(m)(3,3); whether that family is irredundant "
        "is recorded, not asserted", "m <= {top_m}", top_m=(6, 8))
def _run_tetra_vertex_family(top_m):
    irredundant = []
    for m in range(1, top_m + 1):
        family = set()
        for i, j in product(range(m + 1), repeat=2):
            if 2 * i + j <= m and i + 2 * j <= m:
                family.update(_orbit((m - i - j, m - i - j, i, j)))
        got = symbolic_power(SimplicialSpec(3, 3), m)
        if MonomialIdeal.from_lists(3, family) != got:
            return {"m": m}, None
        irredundant.append(
            [m, len(family), len(got._exps), len(family) == len(got._exps)])
    return None, {"family_vs_minimal": irredundant}


_claim("tetrahedron/even-symbolic-power-factors",
       "I^(2m)(3,2) = (I^(2)(3,2))^m", "m <= {top_m}",
       top_m=(3, 4))(partial(_even_factors, 3))
_claim("tetrahedron/odd-symbolic-power-factors",
       "I^(2m+1)(3,2) = I^(2m)(3,2) * I(3,2)", "m <= {top_m}",
       top_m=(3, 4))(partial(_odd_factors, 3))


@_claim("tetrahedron/third-symbolic-in-square",
        "I^(3)(3,2) contained in I(3,2)^2", "single containment")
def _run_tetra_third():
    E = simplicial_ideal(SimplicialSpec(3, 2))
    return None if symbolic_power(SimplicialSpec(3, 2), 3) <= E ** 2 else {}


_claim("tetrahedron/second-symbolic-decomposition",
       "I^(2)(3,2) = I(3,1) + I(3,2)^2", "single identity")(
    partial(_second_symbolic_decomposition, 3))
_claim("tetrahedron/principal-complete-intersection",
       "I(3,1)^k = I^(k)(3,1) (principal, complete intersection)",
       "k <= {top_k}", top_k=(5, 8))(partial(_principal_ci, 3))


# ----------------------------------------------------------------- general

@_claim("general/skeleton-inclusion-chain",
        "I(n,c) contained in I(n,c+1) for 1 <= c < n", "n <= {top_n}",
        top_n=(5, 6))
def _run_chain(top_n):
    for n in range(2, top_n + 1):
        for c in range(1, n):
            lhs = simplicial_ideal(SimplicialSpec(n, c))
            rhs = simplicial_ideal(SimplicialSpec(n, c + 1))
            if not lhs <= rhs:
                return {"n": n, "c": c}
    return None


@_claim("general/second-symbolic-decomposition-codim2",
        "I^(2)(n,2) = I(n,1) + I(n,2)^2", "2 <= n <= {top_n}", top_n=(4, 5))
def _run_codim2_decomp(top_n):
    for n in range(2, top_n + 1):
        if _second_symbolic_decomposition(n) is not None:
            return {"n": n}
    return None


@_claim("general/containment-criterion-exactness",
        "closed-form containment criterion agrees with the brute-force "
        "generator oracle on every cell", "n <= {top_n}, m,r <= {top_mr}",
        top_n=(4, 8), top_mr=(6, 8))
def _run_exactness(top_n, top_mr):
    # containment_oracle's test on the orbit representatives of each I^(m),
    # listed once for every r; exact by _symbolic_representatives
    for n, c in _specs_up_to(top_n):
        spec = SimplicialSpec(n, c)
        for m in range(1, top_mr + 1):
            reps = list(_symbolic_representatives(spec, m))
            for r in range(1, top_mr + 1):
                fast = containment_criterion(n, c, m, r)
                slow = all(map(_ordinary_test(spec, r), reps))
                if fast != slow:
                    return {"n": n, "c": c, "m": m, "r": r,
                            "fast": fast, "oracle": slow}
    return None


@_claim("general/symbolic-routes-agree",
        "criterion-based symbolic power equals the face-prime intersection",
        "n <= {top_n}, m <= {top_m}", top_n=(4, 7), top_m=(5, 6))
def _run_routes(top_n, top_m):
    for n, c in _specs_up_to(top_n):
        spec = SimplicialSpec(n, c)
        for m in range(1, top_m + 1):
            if symbolic_power(spec, m) != symbolic_power_oracle(spec, m):
                return {"n": n, "c": c, "m": m}
    return None


@_claim("general/cross-codimension-sufficiency",
        "c <= d and s*c <= m*d implies I^(m)(n,c) contained in I^(s)(n,d)",
        "c <= d <= n <= {top_n}, m,s <= {top_ms}", top_n=(3, 8), top_ms=(5, 6))
def _run_cross_sound(top_n, top_ms):
    # symbolic_containment_oracle's test on the orbit representatives of
    # each I^(m)(n,c); exact by _symbolic_representatives
    for n in range(1, top_n + 1):
        for c in range(1, n + 1):
            src = SimplicialSpec(n, c)
            for d in range(c, n + 1):
                dst = SimplicialSpec(n, d)
                for m in range(1, top_ms + 1):
                    reps = list(_symbolic_representatives(src, m))
                    for s in range(1, top_ms + 1):
                        if (symbolic_containment_sufficient(c, d, m, s) and
                                not all(map(_symbolic_test(dst, s), reps))):
                            return {"n": n, "c": c, "d": d, "m": m, "s": s}
    return None


@_claim("general/sufficiency-not-necessary",
        "I^(3)(3,2) contained in I^(5)(3,3) although s*c <= m*d fails",
        "single instance")
def _run_cross_not_necessary():
    holds = symbolic_containment_oracle(3, 2, 3, 3, 5)
    predicted = symbolic_containment_sufficient(2, 3, 3, 5)
    ok = holds and not predicted
    return None if ok else {"oracle": holds, "sufficient": predicted}


@_claim("general/multiple-of-codimension-containment",
        "m = c*r always gives the symbolic-in-ordinary containment",
        "n <= {top_n}, r <= {top_r}", top_n=(6, 8), top_r=(6, 8))
def _run_multiple(top_n, top_r):
    for n, c in _specs_up_to(top_n):
        for r in range(1, top_r + 1):
            if not containment_criterion(n, c, c * r, r):
                return {"n": n, "c": c, "r": r}
    return None


@_claim("general/symbolic-power-multiplicative-inclusion",
        "(I^(a)(n,c))^b contained in I^(a*b)(n,c)",
        "n <= {top_n}, a,b <= {top_ab}", top_n=(3, 6), top_ab=(3, 4))
def _run_power_incl(top_n, top_ab):
    # the representatives of (I^(a))^b under the test of I^(ab); exact by
    # _representative_product and _symbolic_representatives
    for n, c in _specs_up_to(top_n):
        spec = SimplicialSpec(n, c)
        for a in range(1, top_ab + 1):
            reps = power = list(_symbolic_representatives(spec, a))
            for b in range(1, top_ab + 1):
                if b > 1:
                    power = _representative_product(power, reps)
                if not all(map(_symbolic_test(spec, a * b), power)):
                    return {"n": n, "c": c, "a": a, "b": b}
    return None


@_claim("general/filtrations-descend",
        "I^(m+1) inside I^(m) and I^(r+1) inside I^r for both power towers",
        "n <= {top_n}, m <= {top_m}", top_n=(4, 8), top_m=(4, 8))
def _run_filtrations(top_n, top_m):
    # each power's membership test on the orbit representatives of the next
    # power (m also stands for r); exact by _symbolic_representatives
    for n, c in _specs_up_to(top_n):
        spec = SimplicialSpec(n, c)
        for m in range(1, top_m + 1):
            if not all(map(_symbolic_test(spec, m),
                           _symbolic_representatives(spec, m + 1))):
                return {"n": n, "c": c, "m": m, "tower": "symbolic"}
            if not all(map(_ordinary_test(spec, m),
                           _ordinary_representatives(spec, m + 1))):
                return {"n": n, "c": c, "m": m, "tower": "ordinary"}
    return None


@_claim("general/resurgence-strict-bound",
        "every noncontained (m, r) has m/r strictly below the resurgence, "
        "and every m/r strictly above it is a containment",
        "n <= {top_n}, box {box}x{box}", top_n=(4, 12), box=(12, 30))
def _run_res_strict(top_n, box):
    for n, c in _specs_up_to(top_n):
        rho = resurgence(n, c)
        p, q = rho.numerator, rho.denominator
        for m in range(1, box + 1):
            for r in range(1, box + 1):
                contained = containment_criterion(n, c, m, r)
                # one test checks both halves: the second half's
                # contrapositive, noncontained implies m/r <= rho, is the
                # first half with its bound relaxed; m/r < p/q iff m*q < p*r
                if not contained and not m * q < p * r:
                    return {"n": n, "c": c, "m": m, "r": r,
                            "issue": "noncontained ratio reached rho"}
    return None


@_claim("general/witness-sequence-converges",
        "witness pairs (kc, floor((n+1)k/(n-c+2))+1) are noncontained with "
        "ratios strictly below the resurgence yet within rho/k of it",
        "n <= {top_n}, k <= {top_k}", top_n=(4, 12), top_k=(100, 200))
def _run_witnesses(top_n, top_k):
    for n, c in _specs_up_to(top_n):
        rho = resurgence(n, c)
        p, q = rho.numerator, rho.denominator
        for k in range(1, top_k + 1):
            m, r = resurgence_witness(n, c, k)
            if containment_criterion(n, c, m, r):
                return {"n": n, "c": c, "k": k, "issue": "witness contained"}
            # with rho = p/q: m/r < rho iff m*q < p*r, and
            # rho - m/r > rho/k iff k*(p*r - q*m) > p*r
            if not m * q < p * r:
                return {"n": n, "c": c, "k": k, "issue": "ratio at rho"}
            if k * (p * r - q * m) > p * r:
                return {"n": n, "c": c, "k": k, "issue": "gap above rho/k"}
    return None


@_claim("general/containment-boundary-consistency",
        "the least containing symbolic exponent for each r agrees between "
        "criterion and oracle; the boundary table is recorded as data",
        "n <= {top_n}, r <= {top_r}", top_n=(3, 8), top_r=(6, 8))
def _run_boundary(top_n, top_r):
    """The oracle side of each row is the least m whose orbit
    representatives all pass containment_oracle's test (exact by
    _symbolic_representatives).  The scan stops at m = c*r, which the
    criterion always admits, so a route that never passes reports the
    oracle as None instead of scanning on.  Each row scans from m = 1 again:
    starting at the previous row's m would let an oracle that is wrongly
    non-monotone in r pass."""
    tables = {}
    for n, c in _specs_up_to(top_n):
        spec = SimplicialSpec(n, c)
        fast = containment_boundary(n, c, top_r)
        for r, fast_m in fast:
            test = _ordinary_test(spec, r)
            slow_m = next((m for m in range(1, c * r + 1) if all(
                map(test, _symbolic_representatives(spec, m)))), None)
            if fast_m != slow_m:
                return {"n": n, "c": c, "r": r, "fast": fast_m,
                        "oracle": slow_m}, None
        tables[f"I({n},{c})"] = [list(row) for row in fast]
    return None, {"least_containing_m": tables}


# ------------------------------------------------------------------ runner

def claims_in_scope(scope):
    if scope not in SCOPES:
        raise ParameterError(f"scope {scope!r} not one of {SCOPES}")
    return [entry for entry in _REGISTRY
            if scope in ("all", entry[0].partition("/")[0])]


def run_verification(scope, deep=False):
    """Run every claim in scope at its default limits, or with ``deep`` at
    its deep ones; returns a list of ClaimResult, registry order."""
    results = []
    preset = 1 if deep else 0
    for claim_id, statement, template, fn, limits in claims_in_scope(scope):
        chosen = {name: pair[preset] for name, pair in limits.items()}
        t0 = time.perf_counter()
        outcome = fn(**chosen)
        elapsed = (time.perf_counter() - t0) * 1000.0
        counterexample, detail = (
            outcome if isinstance(outcome, tuple) else (outcome, None))
        results.append(ClaimResult(
            claim_id=claim_id,
            statement=statement,
            params_range=template.format(**chosen),
            status="pass" if counterexample is None else "fail",
            counterexample=counterexample,
            detail=detail,
            wall_time_ms=elapsed))
    return results


def results_to_records(results, include_times=False):
    """JSON-ready records.  Timing is opt-in so that default reports are
    byte-identical run to run."""
    records = []
    for res in results:
        record = {
            "claim_id": res.claim_id,
            "statement": res.statement,
            "params_range": res.params_range,
            "status": res.status,
            "counterexample": res.counterexample,
        }
        if res.detail is not None:
            record["detail"] = res.detail
        if include_times:
            record["wall_time_ms"] = round(res.wall_time_ms, 3)
        records.append(record)
    return records


def summary_lines(results, include_times=False):
    """Human-readable table, one line per claim plus a totals line.

    Wall-clock is opt-in so identical runs print identical text.
    """
    lines = []
    for res in results:
        mark = "PASS" if res.status == "pass" else "FAIL"
        line = f"{mark}  {res.claim_id}  [{res.params_range}]"
        if include_times:
            line += f"  {res.wall_time_ms:.1f} ms"
        if res.counterexample:
            line += f"  counterexample: {res.counterexample}"
        lines.append(line)
    failed = sum(1 for res in results if res.status != "pass")
    lines.append(f"{len(results) - failed}/{len(results)} claims passed")
    return lines
