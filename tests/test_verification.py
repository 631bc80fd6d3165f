import pytest

from simplicial_ideals import ParameterError, verification
from simplicial_ideals.verification import (
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
