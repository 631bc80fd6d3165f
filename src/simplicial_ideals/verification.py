"""Desk-scale verification harness.

Every identity and containment statement this package is built around is
registered here as a claim: a bounded, exhaustively checkable family of
exact assertions.  Claims are grouped into three scopes -- ``triangle``
(P^2, where E = I(2,1) and V = I(2,2)), ``tetrahedron`` (P^3, with
F = I(3,1), E = I(3,2), V = I(3,3)) and ``general`` -- plus ``all``.

Each claim reports pass/fail with the first counterexample found, and the
sweep bounds it ran with.  Bounds come in a default preset (minutes on a
laptop) and a wider ``deep`` preset.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .containment import (
    containment_boundary,
    containment_criterion,
    resurgence,
    resurgence_witness,
    symbolic_containment_oracle,
    symbolic_containment_sufficient,
)
from .errors import ParameterError
from .monomials import Monomial
from .simplicial import (
    SimplicialSpec,
    ordinary_member,
    simplicial_ideal,
    symbolic_power,
    symbolic_power_oracle,
)


@dataclass(frozen=True)
class VerificationBounds:
    """Sweep limits for every claim family."""

    triangle_m: int = 4        # identity sweeps in P^2
    triangle_gens_m: int = 8   # symbolic generator form in P^2
    triangle_grid: int = 12    # criterion-vs-ceiling grid
    ci_k: int = 5              # complete-intersection power range
    tetra_m: int = 3           # even symbolic power identity in P^3
    tetra_gens_m: int = 6      # symbolic generator forms in P^3
    hierarchy_n: int = 5       # skeleton inclusion chain
    decomp_n: int = 4          # codim-2 second-symbolic decomposition
    oracle_n: int = 4          # criterion-exactness sweep caps
    oracle_mr: int = 6
    routes_m: int = 5          # two-route symbolic power agreement
    cross_n: int = 3           # cross-codimension sufficiency sweep
    cross_ms: int = 5
    multiple_r: int = 6        # m = c*r containment sweep
    multiple_n: int = 6
    power_incl_n: int = 3      # (I^(a))^b inside I^(ab)
    power_incl_ab: int = 3
    filtration_n: int = 4
    filtration_m: int = 4
    res_box: int = 12          # resurgence box sweep (per spec, n <= 4)
    witness_k: int = 100
    boundary_n: int = 3        # criterion-vs-oracle boundary table
    boundary_r: int = 6


DEFAULT_BOUNDS = VerificationBounds()
DEEP_BOUNDS = VerificationBounds(
    triangle_m=6, triangle_gens_m=12, triangle_grid=24, ci_k=8,
    tetra_m=4, tetra_gens_m=8, hierarchy_n=6, decomp_n=5,
    oracle_n=4, oracle_mr=8, routes_m=6, cross_n=4, cross_ms=6,
    multiple_r=8, multiple_n=8, power_incl_n=4, power_incl_ab=4,
    filtration_n=4, filtration_m=6, res_box=30, witness_k=200,
    boundary_n=4, boundary_r=8)

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


_REGISTRY = []  # (claim_id, scope, statement, runner)


def _claim(claim_id, scope, statement):
    def register(fn):
        _REGISTRY.append((claim_id, scope, statement, fn))
        return fn
    return register


def _specs_up_to(max_n):
    return [(n, c) for n in range(1, max_n + 1) for c in range(1, n + 1)]


def _orbit(vec):
    """All distinct coordinate permutations of an exponent vector, built
    without symbolic_power's permutation helper so the claims check it."""
    return {Monomial(p) for p in set(permutations(vec))}


# ---------------------------------------------------------------- triangle

def _triangle():
    E = simplicial_ideal(SimplicialSpec(2, 1))
    V = simplicial_ideal(SimplicialSpec(2, 2))
    return E, V


@_claim("triangle/symbolic-generator-orbits", "triangle",
        "minimal generators of I^(m)(2,2) are the permutations of "
        "(m-k, m-k, k) for 0 <= k <= floor(m/2)")
def _run_triangle_gens(bounds):
    top = bounds.triangle_gens_m
    for m in range(1, top + 1):
        expected = set()
        for k in range(m // 2 + 1):
            expected |= _orbit((m - k, m - k, k))
        got = symbolic_power(SimplicialSpec(2, 2), m)
        if set(got.gens) != expected:
            return f"m <= {top}", {"m": m}, None
    return f"m <= {top}", None, None


@_claim("triangle/even-symbolic-power-factors", "triangle",
        "I^(2m)(2,2) = (I^(2)(2,2))^m")
def _run_triangle_even(bounds):
    top = bounds.triangle_m
    V2 = symbolic_power(SimplicialSpec(2, 2), 2)
    for m in range(1, top + 1):
        if symbolic_power(SimplicialSpec(2, 2), 2 * m) != V2 ** m:
            return f"m <= {top}", {"m": m}, None
    return f"m <= {top}", None, None


@_claim("triangle/odd-symbolic-power-factors", "triangle",
        "I^(2m+1)(2,2) = I^(2m)(2,2) * I(2,2)")
def _run_triangle_odd(bounds):
    top = bounds.triangle_m
    _, V = _triangle()
    for m in range(1, top + 1):
        lhs = symbolic_power(SimplicialSpec(2, 2), 2 * m + 1)
        rhs = symbolic_power(SimplicialSpec(2, 2), 2 * m) * V
        if lhs != rhs:
            return f"m <= {top}", {"m": m}, None
    return f"m <= {top}", None, None


@_claim("triangle/second-symbolic-decomposition", "triangle",
        "I^(2)(2,2) = I(2,1) + I(2,2)^2")
def _run_triangle_decomp(bounds):
    E, V = _triangle()
    ok = symbolic_power(SimplicialSpec(2, 2), 2) == E + V ** 2
    return "single identity", None if ok else {}, None


@_claim("triangle/product-ideal-in-second-symbolic", "triangle",
        "I(2,1) contained in I^(2)(2,2)")
def _run_triangle_e_in_v2(bounds):
    E, _ = _triangle()
    ok = E <= symbolic_power(SimplicialSpec(2, 2), 2)
    return "single containment", None if ok else {}, None


@_claim("triangle/symbolic-powers-cross-containment", "triangle",
        "I^(m)(2,1) contained in I^(2m)(2,2)")
def _run_triangle_cross(bounds):
    top = bounds.triangle_m
    for m in range(1, top + 1):
        lhs = symbolic_power(SimplicialSpec(2, 1), m)
        rhs = symbolic_power(SimplicialSpec(2, 2), 2 * m)
        if not lhs <= rhs:
            return f"m <= {top}", {"m": m}, None
    return f"m <= {top}", None, None


@_claim("triangle/symbolic-step-factorization", "triangle",
        "I^(m+1)(2,1) contained in I^(2)(2,2) * I^(m)(2,1), itself "
        "contained in I(2,2) * I^(m)(2,1)")
def _run_triangle_step(bounds):
    top = bounds.triangle_m
    _, V = _triangle()
    V2 = symbolic_power(SimplicialSpec(2, 2), 2)
    for m in range(1, top + 1):
        Em = symbolic_power(SimplicialSpec(2, 1), m)
        Enext = symbolic_power(SimplicialSpec(2, 1), m + 1)
        if not Enext <= V2 * Em:
            return f"m <= {top}", {"m": m, "step": "into V2*E^(m)"}, None
        if not V2 * Em <= V * Em:
            return f"m <= {top}", {"m": m, "step": "V2*E^(m) into V*E^(m)"}, None
    return f"m <= {top}", None, None


@_claim("triangle/principal-complete-intersection", "triangle",
        "I(2,1)^k = I^(k)(2,1) (principal, complete intersection)")
def _run_triangle_ci(bounds):
    top = bounds.ci_k
    E, _ = _triangle()
    for k in range(1, top + 1):
        if E ** k != symbolic_power(SimplicialSpec(2, 1), k):
            return f"k <= {top}", {"k": k}, None
    return f"k <= {top}", None, None


@_claim("triangle/containment-criterion-ceiling-form", "triangle",
        "containment_criterion(2,2,m,r) iff 2r <= ceil(3m/2)")
def _run_triangle_criterion(bounds):
    top = bounds.triangle_grid
    for m in range(1, top + 1):
        for r in range(1, top + 1):
            ceiling = (2 * r <= -(-3 * m // 2))
            if containment_criterion(2, 2, m, r) != ceiling:
                return f"m,r <= {top}", {"m": m, "r": r}, None
    return f"m,r <= {top}", None, None


# ------------------------------------------------------------- tetrahedron

@_claim("tetrahedron/edge-symbolic-generator-orbits", "tetrahedron",
        "minimal generators of I^(m)(3,2) are the permutations of "
        "(m-j, m-j, m-j, j) for 0 <= j <= floor(m/2)")
def _run_tetra_edge_gens(bounds):
    top = bounds.tetra_gens_m
    for m in range(1, top + 1):
        expected = set()
        for j in range(m // 2 + 1):
            expected |= _orbit((m - j, m - j, m - j, j))
        got = symbolic_power(SimplicialSpec(3, 2), m)
        if set(got.gens) != expected:
            return f"m <= {top}", {"m": m}, None
    return f"m <= {top}", None, None


@_claim("tetrahedron/vertex-symbolic-generator-family", "tetrahedron",
        "the permutations of (m-i-j, m-i-j, i, j) over 2i+j <= m and "
        "i+2j <= m generate I^(m)(3,3); whether that family is irredundant "
        "is recorded, not asserted")
def _run_tetra_vertex_family(bounds):
    top = bounds.tetra_gens_m
    from .ideals import MonomialIdeal
    irredundant = []
    for m in range(1, top + 1):
        family = set()
        for i in range(m + 1):
            for j in range(m + 1):
                if 2 * i + j <= m and i + 2 * j <= m:
                    family.update(_orbit((m - i - j, m - i - j, i, j)))
        got = symbolic_power(SimplicialSpec(3, 3), m)
        if MonomialIdeal(3, family) != got:
            return f"m <= {top}", {"m": m}, None
        irredundant.append(
            [m, len(family), len(got.gens), len(family) == len(got.gens)])
    detail = {"family_vs_minimal": irredundant}
    return f"m <= {top}", None, detail


@_claim("tetrahedron/even-symbolic-power-factors", "tetrahedron",
        "I^(2m)(3,2) = (I^(2)(3,2))^m")
def _run_tetra_even(bounds):
    top = bounds.tetra_m
    E2 = symbolic_power(SimplicialSpec(3, 2), 2)
    for m in range(1, top + 1):
        if symbolic_power(SimplicialSpec(3, 2), 2 * m) != E2 ** m:
            return f"m <= {top}", {"m": m}, None
    return f"m <= {top}", None, None


@_claim("tetrahedron/odd-symbolic-power-factors", "tetrahedron",
        "I^(2m+1)(3,2) = I^(2m)(3,2) * I(3,2)")
def _run_tetra_odd(bounds):
    top = bounds.tetra_m
    E = simplicial_ideal(SimplicialSpec(3, 2))
    for m in range(1, top + 1):
        lhs = symbolic_power(SimplicialSpec(3, 2), 2 * m + 1)
        if lhs != symbolic_power(SimplicialSpec(3, 2), 2 * m) * E:
            return f"m <= {top}", {"m": m}, None
    return f"m <= {top}", None, None


@_claim("tetrahedron/third-symbolic-in-square", "tetrahedron",
        "I^(3)(3,2) contained in I(3,2)^2")
def _run_tetra_third(bounds):
    E = simplicial_ideal(SimplicialSpec(3, 2))
    ok = symbolic_power(SimplicialSpec(3, 2), 3) <= E ** 2
    return "single containment", None if ok else {}, None


@_claim("tetrahedron/second-symbolic-decomposition", "tetrahedron",
        "I^(2)(3,2) = I(3,1) + I(3,2)^2")
def _run_tetra_decomp(bounds):
    F = simplicial_ideal(SimplicialSpec(3, 1))
    E = simplicial_ideal(SimplicialSpec(3, 2))
    ok = symbolic_power(SimplicialSpec(3, 2), 2) == F + E ** 2
    return "single identity", None if ok else {}, None


@_claim("tetrahedron/principal-complete-intersection", "tetrahedron",
        "I(3,1)^k = I^(k)(3,1) (principal, complete intersection)")
def _run_tetra_ci(bounds):
    top = bounds.ci_k
    F = simplicial_ideal(SimplicialSpec(3, 1))
    for k in range(1, top + 1):
        if F ** k != symbolic_power(SimplicialSpec(3, 1), k):
            return f"k <= {top}", {"k": k}, None
    return f"k <= {top}", None, None


# ----------------------------------------------------------------- general

@_claim("general/skeleton-inclusion-chain", "general",
        "I(n,c) contained in I(n,c+1) for 1 <= c < n")
def _run_chain(bounds):
    top = bounds.hierarchy_n
    for n in range(2, top + 1):
        for c in range(1, n):
            lhs = simplicial_ideal(SimplicialSpec(n, c))
            rhs = simplicial_ideal(SimplicialSpec(n, c + 1))
            if not lhs <= rhs:
                return f"n <= {top}", {"n": n, "c": c}, None
    return f"n <= {top}", None, None


@_claim("general/second-symbolic-decomposition-codim2", "general",
        "I^(2)(n,2) = I(n,1) + I(n,2)^2")
def _run_codim2_decomp(bounds):
    top = bounds.decomp_n
    for n in range(2, top + 1):
        lhs = symbolic_power(SimplicialSpec(n, 2), 2)
        rhs = (simplicial_ideal(SimplicialSpec(n, 1))
               + simplicial_ideal(SimplicialSpec(n, 2)) ** 2)
        if lhs != rhs:
            return f"2 <= n <= {top}", {"n": n}, None
    return f"2 <= n <= {top}", None, None


@_claim("general/containment-criterion-exactness", "general",
        "closed-form containment criterion agrees with the brute-force "
        "generator oracle on every cell")
def _run_exactness(bounds):
    top_n, top_mr = bounds.oracle_n, bounds.oracle_mr
    for n, c in _specs_up_to(top_n):
        spec = SimplicialSpec(n, c)
        for m in range(1, top_mr + 1):
            sym = symbolic_power(spec, m)
            for r in range(1, top_mr + 1):
                fast = containment_criterion(n, c, m, r)
                slow = all(ordinary_member(spec, r, g) for g in sym.gens)
                if fast != slow:
                    return (f"n <= {top_n}, m,r <= {top_mr}",
                            {"n": n, "c": c, "m": m, "r": r,
                             "fast": fast, "oracle": slow}, None)
    return f"n <= {top_n}, m,r <= {top_mr}", None, None


@_claim("general/symbolic-routes-agree", "general",
        "criterion-based symbolic power equals the face-prime intersection")
def _run_routes(bounds):
    top_n, top_m = bounds.oracle_n, bounds.routes_m
    for n, c in _specs_up_to(top_n):
        spec = SimplicialSpec(n, c)
        for m in range(1, top_m + 1):
            if symbolic_power(spec, m) != symbolic_power_oracle(spec, m):
                return (f"n <= {top_n}, m <= {top_m}",
                        {"n": n, "c": c, "m": m}, None)
    return f"n <= {top_n}, m <= {top_m}", None, None


@_claim("general/cross-codimension-sufficiency", "general",
        "c <= d and s*c <= m*d implies I^(m)(n,c) contained in I^(s)(n,d)")
def _run_cross_sound(bounds):
    top_n, top_ms = bounds.cross_n, bounds.cross_ms
    for n in range(1, top_n + 1):
        for c in range(1, n + 1):
            for d in range(c, n + 1):
                for m in range(1, top_ms + 1):
                    for s in range(1, top_ms + 1):
                        if not symbolic_containment_sufficient(c, d, m, s):
                            continue
                        if not symbolic_containment_oracle(n, c, d, m, s):
                            return (f"c <= d <= n <= {top_n}, m,s <= {top_ms}",
                                    {"n": n, "c": c, "d": d, "m": m, "s": s},
                                    None)
    return f"c <= d <= n <= {top_n}, m,s <= {top_ms}", None, None


@_claim("general/sufficiency-not-necessary", "general",
        "I^(3)(3,2) contained in I^(5)(3,3) although s*c <= m*d fails")
def _run_cross_not_necessary(bounds):
    holds = symbolic_containment_oracle(3, 2, 3, 3, 5)
    predicted = symbolic_containment_sufficient(2, 3, 3, 5)
    ok = holds and not predicted
    return "single instance", None if ok else {
        "oracle": holds, "sufficient": predicted}, None


@_claim("general/multiple-of-codimension-containment", "general",
        "m = c*r always gives the symbolic-in-ordinary containment")
def _run_multiple(bounds):
    top_n, top_r = bounds.multiple_n, bounds.multiple_r
    for n, c in _specs_up_to(top_n):
        for r in range(1, top_r + 1):
            if not containment_criterion(n, c, c * r, r):
                return (f"n <= {top_n}, r <= {top_r}",
                        {"n": n, "c": c, "r": r}, None)
    return f"n <= {top_n}, r <= {top_r}", None, None


@_claim("general/symbolic-power-multiplicative-inclusion", "general",
        "(I^(a)(n,c))^b contained in I^(a*b)(n,c)")
def _run_power_incl(bounds):
    top_n, top_ab = bounds.power_incl_n, bounds.power_incl_ab
    for n, c in _specs_up_to(top_n):
        spec = SimplicialSpec(n, c)
        for a in range(1, top_ab + 1):
            sym_a = symbolic_power(spec, a)
            for b in range(1, top_ab + 1):
                if not sym_a ** b <= symbolic_power(spec, a * b):
                    return (f"n <= {top_n}, a,b <= {top_ab}",
                            {"n": n, "c": c, "a": a, "b": b}, None)
    return f"n <= {top_n}, a,b <= {top_ab}", None, None


@_claim("general/filtrations-descend", "general",
        "I^(m+1) inside I^(m) and I^(r+1) inside I^r for both power towers")
def _run_filtrations(bounds):
    top_n, top_m = bounds.filtration_n, bounds.filtration_m
    for n, c in _specs_up_to(top_n):
        spec = SimplicialSpec(n, c)
        I = simplicial_ideal(spec)
        for m in range(1, top_m + 1):
            if not symbolic_power(spec, m + 1) <= symbolic_power(spec, m):
                return (f"n <= {top_n}, m <= {top_m}",
                        {"n": n, "c": c, "m": m, "tower": "symbolic"}, None)
            if not I ** (m + 1) <= I ** m:
                return (f"n <= {top_n}, m <= {top_m}",
                        {"n": n, "c": c, "m": m, "tower": "ordinary"}, None)
    return f"n <= {top_n}, m <= {top_m}", None, None


@_claim("general/resurgence-strict-bound", "general",
        "every noncontained (m, r) has m/r strictly below the resurgence, "
        "and every m/r strictly above it is a containment")
def _run_res_strict(bounds):
    box = bounds.res_box
    for n, c in _specs_up_to(4):
        rho = resurgence(n, c)
        for m in range(1, box + 1):
            for r in range(1, box + 1):
                contained = containment_criterion(n, c, m, r)
                ratio = Fraction(m, r)
                if not contained and not ratio < rho:
                    return (f"n <= 4, box {box}x{box}",
                            {"n": n, "c": c, "m": m, "r": r,
                             "issue": "noncontained ratio reached rho"}, None)
                if ratio > rho and not contained:
                    return (f"n <= 4, box {box}x{box}",
                            {"n": n, "c": c, "m": m, "r": r,
                             "issue": "ratio above rho not contained"}, None)
    return f"n <= 4, box {box}x{box}", None, None


@_claim("general/witness-sequence-converges", "general",
        "witness pairs (kc, floor((n+1)k/(n-c+2))+1) are noncontained with "
        "ratios strictly below the resurgence yet within rho/k of it")
def _run_witnesses(bounds):
    top_k = bounds.witness_k
    for n, c in _specs_up_to(4):
        rho = resurgence(n, c)
        for k in range(1, top_k + 1):
            m, r = resurgence_witness(n, c, k)
            if containment_criterion(n, c, m, r):
                return (f"n <= 4, k <= {top_k}",
                        {"n": n, "c": c, "k": k, "issue": "witness contained"},
                        None)
            ratio = Fraction(m, r)
            if not ratio < rho:
                return (f"n <= 4, k <= {top_k}",
                        {"n": n, "c": c, "k": k, "issue": "ratio at rho"}, None)
            if rho - ratio > rho / k:
                return (f"n <= 4, k <= {top_k}",
                        {"n": n, "c": c, "k": k, "issue": "gap above rho/k"},
                        None)
    return f"n <= 4, k <= {top_k}", None, None


@_claim("general/containment-boundary-consistency", "general",
        "the least containing symbolic exponent for each r agrees between "
        "criterion and oracle; the boundary table is recorded as data")
def _run_boundary(bounds):
    top_n, top_r = bounds.boundary_n, bounds.boundary_r
    tables = {}
    for n, c in _specs_up_to(top_n):
        fast = containment_boundary(n, c, top_r)
        slow = containment_boundary(n, c, top_r, use_oracle=True)
        for (r, fast_m), (_, slow_m) in zip(fast, slow):
            if fast_m != slow_m:
                return (f"n <= {top_n}, r <= {top_r}",
                        {"n": n, "c": c, "r": r, "fast": fast_m,
                         "oracle": slow_m}, None)
        tables[f"I({n},{c})"] = [list(row) for row in fast]
    return f"n <= {top_n}, r <= {top_r}", None, {"least_containing_m": tables}


# ------------------------------------------------------------------ runner

def claims_in_scope(scope):
    if scope not in SCOPES:
        raise ParameterError(f"scope {scope!r} not one of {SCOPES}")
    return [(cid, sc, stmt, fn) for cid, sc, stmt, fn in _REGISTRY
            if scope == "all" or sc == scope]


def run_verification(scope, deep=False, bounds=None):
    """Run every claim in scope; returns a list of ClaimResult, registry order."""
    if bounds is None:
        bounds = DEEP_BOUNDS if deep else DEFAULT_BOUNDS
    results = []
    for claim_id, _, statement, fn in claims_in_scope(scope):
        t0 = time.perf_counter()
        params_range, counterexample, detail = fn(bounds)
        elapsed = (time.perf_counter() - t0) * 1000.0
        results.append(ClaimResult(
            claim_id=claim_id,
            statement=statement,
            params_range=params_range,
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
