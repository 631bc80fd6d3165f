from fractions import Fraction

import pytest

from simplicial_ideals import (MonomialIdeal, ParameterError, SimplicialSpec,
                               symbolic_power, verification)
from simplicial_ideals.verification import (
    DEEP_BOUNDS,
    DEFAULT_BOUNDS,
    SCOPES,
    ClaimResult,
    VerificationBounds,
    claims_in_scope,
    results_to_records,
    run_verification,
    summary_lines,
)


def test_registry_shape():
    all_claims = claims_in_scope("all")
    ids = [cid for cid, _, _, _ in all_claims]
    assert len(ids) == len(set(ids))
    assert all("/" in cid for cid in ids)
    for _, _, params_range, runner in all_claims:
        params_range.format(**vars(DEFAULT_BOUNDS))
        assert callable(runner)
    per_scope = sum(len(claims_in_scope(s)) for s in SCOPES if s != "all")
    assert per_scope == len(all_claims)
    with pytest.raises(ParameterError):
        claims_in_scope("everything")


@pytest.mark.parametrize("scope", ["triangle", "tetrahedron", "general"])
def test_scope_passes(scope):
    results = run_verification(scope)
    assert results, scope
    for res in results:
        assert res.status == "pass", (res.claim_id, res.counterexample)
        assert res.counterexample is None
        assert res.claim_id.startswith(scope + "/")


def test_all_scope_covers_everything():
    results = run_verification("all")
    assert len(results) == len(claims_in_scope("all"))
    assert all(res.status == "pass" for res in results)


def test_records_are_deterministic():
    first = results_to_records(run_verification("triangle"))
    second = results_to_records(run_verification("triangle"))
    assert first == second
    for record in first:
        assert list(record)[:5] == [
            "claim_id", "statement", "params_range", "status", "counterexample"]
        assert "wall_time_ms" not in record


def test_records_can_include_times():
    records = results_to_records(run_verification("triangle"),
                                 include_times=True)
    assert all(record["wall_time_ms"] >= 0 for record in records)


def test_detail_fields_survive():
    records = results_to_records(run_verification("general"))
    by_id = {record["claim_id"]: record for record in records}
    boundary = by_id["general/containment-boundary-consistency"]
    assert "least_containing_m" in boundary["detail"]
    assert boundary["detail"]["least_containing_m"]["I(2,2)"][0] == [1, 1]


def test_tetra_vertex_family_records_redundancy():
    records = results_to_records(run_verification("tetrahedron"))
    by_id = {record["claim_id"]: record for record in records}
    rows = by_id["tetrahedron/vertex-symbolic-generator-family"]["detail"][
        "family_vs_minimal"]
    assert rows[0][:3] == [1, 6, 6]
    # the written family is not claimed irredundant; both outcomes are legal
    assert all(isinstance(row[3], bool) for row in rows)


def test_custom_bounds_are_honored():
    tiny = VerificationBounds(triangle_gens_m=2)
    results = run_verification("triangle", bounds=tiny)
    by_id = {res.claim_id: res for res in results}
    assert by_id["triangle/symbolic-generator-orbits"].params_range == "m <= 2"


# the claims that one runner serves for n = 2 and n = 3, and the codim-2
# claim that shares the decomposition predicate, with the first
# counterexample each must report when I^(2)(n,c) is wrongly built as I^(3)
SHARED_RUNNER_FAILURES = {
    "triangle/symbolic-generator-orbits": {"m": 2},
    "triangle/even-symbolic-power-factors": {"m": 2},
    "triangle/odd-symbolic-power-factors": {"m": 1},
    "triangle/second-symbolic-decomposition": {},
    "triangle/principal-complete-intersection": {"k": 2},
    "tetrahedron/edge-symbolic-generator-orbits": {"m": 2},
    "tetrahedron/even-symbolic-power-factors": {"m": 2},
    "tetrahedron/odd-symbolic-power-factors": {"m": 1},
    "tetrahedron/second-symbolic-decomposition": {},
    "tetrahedron/principal-complete-intersection": {"k": 2},
    "general/second-symbolic-decomposition-codim2": {"n": 2},
}


def test_shared_runners_report_failures(monkeypatch):
    passing = {res.claim_id: res for res in run_verification("all")}
    real = verification.symbolic_power

    def wrong_second_power(spec, m, max_candidates=None):
        return real(spec, 3 if m == 2 else m, max_candidates)

    monkeypatch.setattr(verification, "symbolic_power", wrong_second_power)
    failing = {res.claim_id: res for res in run_verification("all")}
    for claim_id, counterexample in SHARED_RUNNER_FAILURES.items():
        assert passing[claim_id].status == "pass", claim_id
        assert failing[claim_id].status == "fail", claim_id
        assert failing[claim_id].counterexample == counterexample, claim_id
        assert (failing[claim_id].params_range
                == passing[claim_id].params_range), claim_id
    lines = summary_lines([failing["triangle/odd-symbolic-power-factors"]])
    assert lines[0] == ("FAIL  triangle/odd-symbolic-power-factors  "
                        "[m <= 4]  counterexample: {'m': 1}")


# One case for each counterexample return that no other test reaches: the
# claim, the name broken (in verification's namespace, or a MonomialIdeal
# operator), a function from the real one to the broken one, and the first
# counterexample the claim must then report.  A zero ideal, MonomialIdeal(n),
# lies in no nonzero ideal.
BROKEN_CLAIMS = {
    "step-into-v-times-e": (
        "triangle/symbolic-step-factorization", verification,
        "simplicial_ideal", lambda real: lambda spec: MonomialIdeal(spec.n),
        {"m": 1, "step": "V2*E^(m) into V*E^(m)"}),
    "ceiling-form": (
        "triangle/containment-criterion-ceiling-form", verification,
        "containment_criterion", lambda real: lambda *args: not real(*args),
        {"m": 1, "r": 1}),
    "inclusion-chain": (
        "general/skeleton-inclusion-chain", verification, "simplicial_ideal",
        lambda real: lambda spec: (real(spec) if spec.c == 1
                                   else MonomialIdeal(spec.n)),
        {"n": 2, "c": 1}),
    "criterion-exactness": (
        "general/containment-criterion-exactness", verification,
        "containment_criterion", lambda real: lambda *args: not real(*args),
        {"n": 1, "c": 1, "m": 1, "r": 1, "fast": False, "oracle": True}),
    # no representatives: every oracle cell holds, and I^(1)(1,1) = (x0*x1)
    # is the first symbolic power outside an I^r, at r = 2
    "exactness-representatives": (
        "general/containment-criterion-exactness", verification,
        "_symbolic_representatives", lambda real: lambda spec, m: iter(()),
        {"n": 1, "c": 1, "m": 1, "r": 2, "fast": False, "oracle": True}),
    # I^(1) built as the unit ideal: (I^(1))^2 then holds 1 * x0*x1, which
    # is not in I^(2)(1,1)
    "multiplicative-inclusion": (
        "general/symbolic-power-multiplicative-inclusion", verification,
        "symbolic_power",
        lambda real: lambda spec, m: (
            MonomialIdeal.from_lists(spec.n, [[0] * (spec.n + 1)]) if m == 1
            else real(spec, m)),
        {"n": 1, "c": 1, "a": 1, "b": 2}),
    # a target test that nothing passes: I^(1)(1,1) is then outside
    # I^(1)(1,1), a cell the sufficient condition covers
    "cross-sufficiency": (
        "general/cross-codimension-sufficiency", verification,
        "_symbolic_test", lambda real: lambda spec, s: lambda exps: False,
        {"n": 1, "c": 1, "d": 1, "m": 1, "s": 1}),
    "multiple-of-codimension": (
        "general/multiple-of-codimension-containment", verification,
        "containment_criterion", lambda real: lambda *args: False,
        {"n": 1, "c": 1, "r": 1}),
    "symbolic-tower": (
        "general/filtrations-descend", verification, "symbolic_power",
        lambda real: lambda spec, m: (MonomialIdeal(spec.n) if m == 1
                                      else real(spec, m)),
        {"n": 1, "c": 1, "m": 1, "tower": "symbolic"}),
    "ordinary-tower": (
        "general/filtrations-descend", MonomialIdeal, "__pow__",
        lambda real: lambda ideal, r: (MonomialIdeal(ideal.n) if r == 1
                                       else real(ideal, r)),
        {"n": 1, "c": 1, "m": 1, "tower": "ordinary"}),
    "noncontained-at-rho": (
        "general/resurgence-strict-bound", verification,
        "containment_criterion", lambda real: lambda *args: False,
        {"n": 1, "c": 1, "m": 1, "r": 1,
         "issue": "noncontained ratio reached rho"}),
    "witness-contained": (
        "general/witness-sequence-converges", verification,
        "containment_criterion", lambda real: lambda *args: True,
        {"n": 1, "c": 1, "k": 1, "issue": "witness contained"}),
    "witness-at-rho": (
        "general/witness-sequence-converges", verification, "resurgence",
        lambda real: lambda n, c: Fraction(1, 2),
        {"n": 1, "c": 1, "k": 1, "issue": "ratio at rho"}),
    "witness-gap": (
        "general/witness-sequence-converges", verification, "resurgence",
        lambda real: lambda n, c: 2 * real(n, c),
        {"n": 1, "c": 1, "k": 2, "issue": "gap above rho/k"}),
    # equality boundaries: for I(1,1) the k-th witness ratio is k/(k+1); at
    # rho = 4/3 the gap equals rho/k at k = 2 and first exceeds it at k = 3,
    # and at rho = 2/3 the ratio first reaches rho at k = 2
    "witness-gap-equal-passes": (
        "general/witness-sequence-converges", verification, "resurgence",
        lambda real: lambda n, c: Fraction(4, 3),
        {"n": 1, "c": 1, "k": 3, "issue": "gap above rho/k"}),
    "witness-ratio-equal-fails": (
        "general/witness-sequence-converges", verification, "resurgence",
        lambda real: lambda n, c: Fraction(2, 3),
        {"n": 1, "c": 1, "k": 2, "issue": "ratio at rho"}),
    # the oracle side shifted by one: I^(m)(1,1) listed as I^(m+1)(1,1), so
    # the scans first disagree at r = 2, where the criterion needs m = 2 and
    # the shifted scan accepts m = 1
    "boundary-routes": (
        "general/containment-boundary-consistency", verification,
        "_symbolic_representatives",
        lambda real: lambda spec, m: real(spec, m + 1),
        {"n": 1, "c": 1, "r": 2, "fast": 2, "oracle": 1}),
    # representatives that never pass: the oracle scan stops at m = c*r and
    # reports no least m instead of scanning on
    "boundary-scan-exhausted": (
        "general/containment-boundary-consistency", verification,
        "_ordinary_test", lambda real: lambda spec, r: lambda exps: False,
        {"n": 1, "c": 1, "r": 1, "fast": 1, "oracle": None}),
}


def _run_alone(monkeypatch, entry):
    """run_verification over a registry that holds only ``entry``."""
    monkeypatch.setattr(verification, "_REGISTRY", [entry])
    result, = run_verification("all")
    return result


@pytest.mark.parametrize("claim_id, owner, name, break_it, counterexample",
                         BROKEN_CLAIMS.values(), ids=BROKEN_CLAIMS)
def test_claims_report_their_failures(monkeypatch, claim_id, owner, name,
                                      break_it, counterexample):
    entry, = [entry for entry in claims_in_scope("all")
              if entry[0] == claim_id]
    passing = _run_alone(monkeypatch, entry)
    monkeypatch.setattr(owner, name, break_it(getattr(owner, name)))
    failing = _run_alone(monkeypatch, entry)
    assert passing.status == "pass", claim_id
    assert failing.status == "fail", claim_id
    assert failing.counterexample == counterexample, claim_id
    assert failing.params_range == passing.params_range, claim_id


def test_failure_rendering():
    failing = ClaimResult(
        claim_id="demo/failing", statement="demo", params_range="m <= 1",
        status="fail", counterexample={"m": 1}, detail=None, wall_time_ms=1.0)
    lines = summary_lines([failing])
    assert lines[0].startswith("FAIL  demo/failing")
    assert "counterexample" in lines[0]
    assert lines[-1] == "0/1 claims passed"
    record = results_to_records([failing])[0]
    assert record["status"] == "fail"
    assert record["counterexample"] == {"m": 1}


def test_summary_lines_hide_times_by_default():
    results = run_verification("triangle")
    plain = summary_lines(results)
    assert not any(line.endswith(" ms") for line in plain)
    timed = summary_lines(results, include_times=True)
    assert all(line.endswith(" ms") for line in timed[:-1])
    assert plain[-1].endswith("claims passed")


def test_default_bounds_match_documented_defaults():
    assert DEFAULT_BOUNDS == VerificationBounds()
    assert (DEFAULT_BOUNDS.oracle_n, DEFAULT_BOUNDS.oracle_mr) == (4, 6)
    assert (DEEP_BOUNDS.oracle_n, DEEP_BOUNDS.oracle_mr) == (8, 8)
    assert DEFAULT_BOUNDS.routes_n == DEEP_BOUNDS.routes_n == 4
    assert (DEFAULT_BOUNDS.cross_n, DEEP_BOUNDS.cross_n) == (3, 8)
    assert (DEFAULT_BOUNDS.boundary_n, DEEP_BOUNDS.boundary_n) == (3, 8)


@pytest.mark.parametrize("bounds", [DEFAULT_BOUNDS, DEEP_BOUNDS],
                         ids=["default", "deep"])
def test_routes_box_covers_multiplicative_inclusion(bounds):
    # the multiplicative-inclusion claim tests orbit representatives, which
    # is exact because symbolic-routes-agree checks each I^(a) it builds
    assert bounds.routes_n >= bounds.power_incl_n
    assert bounds.routes_m >= bounds.power_incl_ab


def test_multiplicative_inclusion_full_route():
    # the claim's former body: every generator of (I^(a))^b, no symmetry
    for n in range(1, 4):
        for c in range(1, n + 1):
            spec = SimplicialSpec(n, c)
            for a in range(1, 4):
                sym_a = symbolic_power(spec, a)
                for b in range(1, 4):
                    product = sym_a ** b
                    assert product <= symbolic_power(spec, a * b), (n, c, a, b)
