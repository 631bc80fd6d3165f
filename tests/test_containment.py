import json
import time
from fractions import Fraction

import pytest

from _brute import brute_resurgence_sup, brute_symbolic_gens
from simplicial_ideals import (
    BudgetExceededError,
    Monomial,
    MonomialIdeal,
    ParameterError,
    SimplicialSpec,
    ordinary_member,
    symbolic_member,
)
from simplicial_ideals.cli import main
from simplicial_ideals.simplicial import symbolic_power_stream
from simplicial_ideals.containment import (
    containment_boundary,
    containment_criterion,
    containment_oracle,
    empirical_resurgence_sup,
    resurgence,
    resurgence_report,
    resurgence_witness,
    smallest_containing_symbolic_power,
    symbolic_containment_oracle,
    symbolic_containment_sufficient,
)


def test_criterion_examples():
    assert containment_criterion(3, 2, 3, 2)
    assert not containment_criterion(2, 2, 2, 2)
    assert not containment_criterion(2, 2, 3, 3)
    # codimension 1 is a complete intersection: containment iff r <= m
    for m in range(1, 8):
        for r in range(1, 8):
            assert containment_criterion(4, 1, m, r) == (r <= m)


def test_criterion_splits_m_as_kc_minus_p():
    # m = k*c - p with k the least k with k*c >= m, so 0 <= p < c; the
    # split is found here by search, not by the library's ceiling division
    for n in range(1, 7):
        for c in range(1, n + 1):
            for m in range(1, 20):
                k = next(k for k in range(1, m + 1) if k * c >= m)
                p = k * c - m
                assert 0 <= p < c
                for r in range(1, 13):
                    assert containment_criterion(n, c, m, r) == \
                        (r * (n - c + 2) <= (n + 1) * k - p), (n, c, m, r)


def test_criterion_matches_oracle_small():
    for n in range(1, 4):
        for c in range(1, n + 1):
            for m in range(1, 5):
                for r in range(1, 5):
                    assert containment_criterion(n, c, m, r) == \
                        containment_oracle(n, c, m, r), (n, c, m, r)


def test_oracle_against_independent_generators():
    # same sweep but with generators from the naive enumeration
    for n in range(1, 4):
        for c in range(1, n + 1):
            spec = SimplicialSpec(n, c)
            for m in range(1, 4):
                gens = brute_symbolic_gens(n, c, m)
                for r in range(1, 4):
                    expected = all(ordinary_member(spec, r, g) for g in gens)
                    assert containment_criterion(n, c, m, r) == expected


def test_sufficient_predicate():
    assert symbolic_containment_sufficient(2, 2, 3, 3)
    assert symbolic_containment_sufficient(2, 3, 2, 3)
    assert not symbolic_containment_sufficient(3, 2, 3, 3)  # c > d
    assert not symbolic_containment_sufficient(2, 3, 3, 5)  # 10 > 9


def test_sufficient_predicate_is_sound():
    for n in range(1, 4):
        for c in range(1, n + 1):
            for d in range(c, n + 1):
                for m in range(1, 6):
                    for s in range(1, 6):
                        if symbolic_containment_sufficient(c, d, m, s):
                            assert symbolic_containment_oracle(n, c, d, m, s)


def test_sufficient_predicate_not_necessary():
    assert symbolic_containment_oracle(3, 2, 3, 3, 5)
    assert not symbolic_containment_sufficient(2, 3, 3, 5)


def test_resurgence_values():
    assert resurgence(2, 2) == Fraction(4, 3)
    assert resurgence(3, 2) == Fraction(3, 2)
    assert resurgence(3, 3) == Fraction(3, 2)
    assert resurgence(6, 3) == Fraction(15, 7)
    for n in range(1, 7):
        assert resurgence(n, 1) == 1
        assert resurgence(n, n) == Fraction(2 * n, n + 1)
        for c in range(1, n + 1):
            assert resurgence(n, c) == Fraction(c * (n - c + 2), n + 1)


def test_witnesses():
    assert resurgence_witness(2, 2, 5) == (10, 8)
    assert resurgence_witness(2, 2, 20) == (40, 31)
    assert resurgence_witness(2, 2, 100) == (200, 151)
    assert resurgence_witness(3, 2, 3) == (6, 5)
    for n in range(1, 5):
        for c in range(1, n + 1):
            rho = resurgence(n, c)
            for k in range(1, 40):
                m, r = resurgence_witness(n, c, k)
                assert not containment_criterion(n, c, m, r)
                assert Fraction(m, r) < rho
                assert rho - Fraction(m, r) <= rho / k


def test_empirical_sup_frozen_values():
    assert empirical_resurgence_sup(2, 2, 12, 12) == (Fraction(5, 4), (10, 8))
    assert empirical_resurgence_sup(2, 2, 30, 30) == (Fraction(30, 23), (30, 23))
    assert empirical_resurgence_sup(3, 3, 10, 10) == (Fraction(4, 3), (8, 6))
    assert empirical_resurgence_sup(2, 1, 12, 12) == (Fraction(11, 12), (11, 12))


def test_empirical_sup_matches_grid_scan():
    # the one-pass sweep against a scan of every cell, deciding each cell
    # by the criterion over boxes up to 30 x 30 ...
    sides = (1, 2, 3, 5, 8, 13, 21, 30)
    for n in range(1, 6):
        for c in range(1, n + 1):
            for max_m in sides:
                for max_r in sides:
                    assert empirical_resurgence_sup(n, c, max_m, max_r) == \
                        brute_resurgence_sup(n, c, max_m, max_r,
                                             containment_criterion), \
                        (n, c, max_m, max_r)
    # ... and by the generator oracle over every box up to 6 x 6
    for n in range(1, 4):
        for c in range(1, n + 1):
            for max_m in range(1, 7):
                for max_r in range(1, 7):
                    assert empirical_resurgence_sup(n, c, max_m, max_r) == \
                        brute_resurgence_sup(n, c, max_m, max_r,
                                             containment_oracle), \
                        (n, c, max_m, max_r)


def test_empirical_sup_below_rho():
    for n in range(1, 5):
        for c in range(1, n + 1):
            sup, _ = empirical_resurgence_sup(n, c, 15, 15)
            if sup is not None:
                assert sup < resurgence(n, c)


def test_smallest_containing_symbolic_power():
    # triangle vertices: least m with 2r <= ceil(3m/2)
    assert [smallest_containing_symbolic_power(2, 2, r)
            for r in range(1, 7)] == [1, 3, 4, 5, 7, 8]
    # complete intersection: least m is r itself
    for r in range(1, 6):
        assert smallest_containing_symbolic_power(3, 1, r) == r
    assert smallest_containing_symbolic_power(2, 2, 3, use_oracle=True) == 4


def test_containment_boundary_routes_agree():
    # the closed-form table against oracle least-m scans, one row at a time
    for n, c in [(n, c) for n in range(1, 4) for c in range(1, n + 1)]:
        fast = containment_boundary(n, c, 6)
        slow = [(r, smallest_containing_symbolic_power(n, c, r,
                                                       use_oracle=True))
                for r in range(1, 7)]
        assert fast == slow
        rows = [m for _, m in fast]
        assert rows == sorted(rows)  # thresholds never decrease


def test_least_m_closed_form_matches_the_criterion_scan():
    # the criterion route answers in closed form; a scan of m = 1, 2, ...
    # through containment_criterion must find the same least m
    for n in range(1, 13):
        for c in range(1, n + 1):
            for r in range(1, 61):
                least = next(m for m in range(1, c * r + 1)
                             if containment_criterion(n, c, m, r))
                assert smallest_containing_symbolic_power(n, c, r) == least


def test_containment_boundary_lists_the_least_m_rows():
    # the table computes its rows itself, so it is pinned to the least m
    for n in range(1, 13):
        for c in range(1, n + 1):
            assert containment_boundary(n, c, 60) == [
                (r, smallest_containing_symbolic_power(n, c, r))
                for r in range(1, 61)], (n, c)


def test_least_m_scans_count_before_testing():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match="^the least-m scan for r=1000000000 tests up to "
                             "2000000000 values of m, more than "
                             "max_candidates=2000000$"):
        smallest_containing_symbolic_power(2, 2, 10**9, use_oracle=True)
    assert time.perf_counter() - start < 1
    # the oracle route counts its scan: c*r = 6 values of m
    with pytest.raises(BudgetExceededError, match="^the least-m scan "):
        smallest_containing_symbolic_power(2, 2, 3, use_oracle=True,
                                           max_candidates=5)
    # the criterion route scans nothing, so it answers at any budget, and
    # its table counts only its rows
    assert smallest_containing_symbolic_power(2, 2, 10**9) == 1333333333
    assert smallest_containing_symbolic_power(2, 2, 3, max_candidates=0) == 4
    with pytest.raises(BudgetExceededError,
                       match="^max_r=3 lists 3 rows, more than "
                             "max_candidates=2$"):
        containment_boundary(2, 2, 3, max_candidates=2)
    assert containment_boundary(2, 2, 3, max_candidates=3) == [
        (1, 1), (2, 3), (3, 4)]


def _verdict(capsys, *argv):
    """Run one containment query through the CLI and read its JSON verdict."""
    code = main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_check_containment_verdict(capsys):
    code, verdict = _verdict(capsys, "containment", "--n", "3", "--c", "2",
                             "--m", "3", "--r", "2", "--oracle")
    assert code == 0
    assert verdict == {"query": {"n": 3, "c": 2, "m": 3, "r": 2},
                       "fast": True, "oracle": True, "agree": True}
    code, verdict = _verdict(capsys, "containment", "--n", "2", "--c", "2",
                             "--m", "2", "--r", "2")
    assert code == 0
    assert verdict == {"query": {"n": 2, "c": 2, "m": 2, "r": 2},
                       "fast": False, "oracle": None, "agree": None}


def test_check_symbolic_containment_verdict(capsys):
    code, verdict = _verdict(capsys, "containment-sym", "--n", "3", "--c",
                             "2", "--d", "3", "--m", "3", "--s", "5",
                             "--oracle")
    assert code == 0
    assert verdict == {"query": {"n": 3, "c": 2, "d": 3, "m": 3, "s": 5},
                       "fast": False, "oracle": True, "agree": False}


def test_resurgence_report():
    report = resurgence_report(2, 2, witness_count=5, box=(12, 12))
    assert report.rho == Fraction(4, 3)
    assert report.witnesses[-1] == (5, 10, 8, Fraction(5, 4))
    assert report.empirical_sup == Fraction(5, 4)
    assert report.empirical_argmax == (10, 8)
    bare = resurgence_report(3, 1)
    assert bare.rho == 1 and bare.witnesses == [] and bare.box is None


def test_resurgence_report_lists_resurgence_witness():
    # the report computes its witnesses without re-checking (n, c, k), so it
    # is pinned to the checked function, pair by pair
    for n in range(1, 7):
        for c in range(1, n + 1):
            report = resurgence_report(n, c, witness_count=30)
            assert report.witnesses == [
                (k, *resurgence_witness(n, c, k),
                 Fraction(*resurgence_witness(n, c, k)))
                for k in range(1, 31)], (n, c)


def test_resurgence_report_budget():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match="^witness_count=100000000 lists 100000000 pairs, "
                             "more than max_candidates=2000000$"):
        resurgence_report(2, 2, witness_count=10**8)
    assert time.perf_counter() - start < 1
    with pytest.raises(BudgetExceededError, match="^box M=11 sweeps 11 "):
        resurgence_report(2, 2, box=(11, 5), max_candidates=10)
    with pytest.raises(ParameterError,
                       match="^witness_count=-1 must be >= 0$"):
        resurgence_report(2, 2, witness_count=-1)
    # the counts are checked first, before (n, c)
    with pytest.raises(BudgetExceededError):
        resurgence_report(2, 5, witness_count=11, max_candidates=10)
    at_budget = resurgence_report(2, 2, witness_count=10, box=(10, 10),
                                  max_candidates=10)
    assert len(at_budget.witnesses) == 10 and at_budget.box == (10, 10)


def test_parameter_validation():
    for bad_call in (
            lambda: containment_criterion(2, 3, 1, 1),
            lambda: containment_criterion(2, 2, 0, 1),
            lambda: containment_criterion(2, 2, 1, 0),
            lambda: containment_criterion(2, 2, True, True),
            lambda: containment_criterion(2, 2, 1, True),
            lambda: containment_oracle(2, 2, True, 1),
            lambda: resurgence_witness(2, 2, True),
            lambda: symbolic_containment_sufficient(1, 1, True, 1),
            lambda: symbolic_containment_oracle(2, 1, 2, 1, True),
            lambda: smallest_containing_symbolic_power(2, 2, True),
            lambda: empirical_resurgence_sup(2, 2, True, 3),
            lambda: resurgence(0, 1),
            lambda: resurgence_witness(2, 2, 0),
            lambda: symbolic_containment_sufficient(0, 1, 1, 1),
            lambda: symbolic_containment_oracle(2, 1, 3, 1, 1),
    ):
        with pytest.raises(ParameterError):
            bad_call()
    # a parameter that is not an integer is refused, not rounded or compared
    for bad in (2.0, 2.5, "2"):
        for bad_call in (
                lambda: containment_criterion(2, 2, bad, 1),
                lambda: containment_criterion(2, 2, 2, bad),
                lambda: containment_criterion(bad, 2, 2, 1),
                lambda: containment_oracle(2, 2, bad, 1),
                lambda: resurgence(2, bad),
                lambda: resurgence_witness(2, 2, bad),
                lambda: symbolic_containment_sufficient(1, 1, bad, 1),
                lambda: symbolic_containment_oracle(2, 1, 2, 1, bad),
                lambda: smallest_containing_symbolic_power(2, 2, bad),
                lambda: empirical_resurgence_sup(2, 2, 3, bad),
                lambda: resurgence_report(2, 2, witness_count=bad),
        ):
            with pytest.raises(ParameterError, match="must be an integer"):
                bad_call()


def test_oracles_build_no_ideal(monkeypatch):
    # every ideal the package builds from a stream goes through
    # _from_canonical; the oracles test the stream itself
    def refuse(cls, n, tuples):
        raise AssertionError("an oracle built an ideal")

    monkeypatch.setattr(MonomialIdeal, "_from_canonical", classmethod(refuse))
    assert containment_oracle(3, 2, 3, 2)
    assert not containment_oracle(2, 2, 2, 2)
    assert symbolic_containment_oracle(3, 2, 3, 3, 5)
    assert not symbolic_containment_oracle(3, 3, 2, 2, 1)
    assert smallest_containing_symbolic_power(2, 2, 3, use_oracle=True) == 4


def test_oracles_stop_at_the_first_failing_generator(monkeypatch):
    counts = []

    def counted(spec, m, max_candidates=None):
        count, stream = symbolic_power_stream(spec, m, max_candidates)
        read = [count, 0]
        counts.append(read)

        def reading():
            for exps in stream:
                read[1] += 1
                yield exps
        return count, reading()

    monkeypatch.setattr("simplicial_ideals.containment.symbolic_power_stream",
                        counted)
    # I^(6)(5,3) has 1 806 generators; r = 5 is past the criterion's bound
    assert not containment_criterion(5, 3, 6, 5)
    assert not containment_oracle(5, 3, 6, 5)
    # c > d: (m, 0, ..., 0) leaves a d-subset of zeros
    assert not symbolic_containment_oracle(5, 3, 2, 6, 1)
    # a containment reads every generator
    assert containment_oracle(5, 3, 6, 1)
    (count, read), (sym_count, sym_read), (all_count, all_read) = counts
    assert read < count and sym_read < sym_count and all_read == all_count


def test_oracles_check_arguments_before_the_budget():
    # the ring, then the target's exponent, then m, then the budget
    for call, message in (
            (lambda: containment_oracle(2, 3, 0, 0, -1), "^c=3 must satisfy"),
            (lambda: containment_oracle(2, 2, 0, 0, -1), "^r=0 must be >= 1$"),
            (lambda: containment_oracle(2, 2, 0, 1, -1), "^m=0 must be >= 1$"),
            (lambda: containment_oracle(2, 2, 1, 1, -1),
             "^max_candidates=-1 must be >= 0$"),
            (lambda: symbolic_containment_oracle(2, 2, 3, 0, 0, -1),
             "^c=3 must satisfy"),
            (lambda: symbolic_containment_oracle(2, 2, 2, 0, 0, -1),
             "^s=0 must be >= 1$"),
            (lambda: symbolic_containment_oracle(2, 2, 2, 0, 1, -1),
             "^m=0 must be >= 1$"),
            (lambda: symbolic_containment_oracle(2, 2, 2, 1, 1, -1),
             "^max_candidates=-1 must be >= 0$")):
        with pytest.raises(ParameterError, match=message):
            call()
    with pytest.raises(BudgetExceededError):
        containment_oracle(2, 2, 3, 1, max_candidates=0)


# the functions that check (n, c) without building a SimplicialSpec, each
# with valid arguments after n and c
SPEC_CHECKED = {
    "containment_criterion": lambda n, c: containment_criterion(n, c, 1, 1),
    "resurgence": resurgence,
    "resurgence_witness": lambda n, c: resurgence_witness(n, c, 1),
    "empirical_resurgence_sup":
        lambda n, c: empirical_resurgence_sup(n, c, 1, 1),
    "smallest_containing_symbolic_power":
        lambda n, c: smallest_containing_symbolic_power(n, c, 1),
    "containment_boundary": lambda n, c: containment_boundary(n, c, 1),
    "resurgence_report": resurgence_report,
}


@pytest.mark.parametrize("call", SPEC_CHECKED.values(), ids=SPEC_CHECKED)
@pytest.mark.parametrize("n, c", [(2, 3), (2, 0), (2.0, 1), (True, 1),
                                  ("2", 3), (2, 1.0)])
def test_spec_checks_match_simplicial_spec(call, n, c):
    with pytest.raises(ParameterError) as spec_error:
        SimplicialSpec(n, c)
    with pytest.raises(ParameterError) as call_error:
        call(n, c)
    assert str(call_error.value) == str(spec_error.value)
