import random
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import (
    _sorted_vectors,
    brute_face_prime_power,
    brute_ordinary_member,
    brute_power_gens,
    brute_skeleton_gens,
    brute_symbolic_gens,
    brute_symbolic_member,
    brute_symbolic_representatives,
    face_prime_ideal,
)
from simplicial_ideals import (
    BudgetExceededError,
    DimensionError,
    FacePrime,
    Monomial,
    ParameterError,
    SimplicialSpec,
    containment_oracle,
    face_primes,
    intersect_all,
    ordinary_member,
    ordinary_power_min_gens,
    simplicial_ideal,
    symbolic_member,
    symbolic_power,
    symbolic_power_oracle,
)
from simplicial_ideals.simplicial import (
    _partitions,
    ordinary_member_detail,
    symbolic_member_detail,
)

ALL_SPECS_3 = [(n, c) for n in range(1, 4) for c in range(1, n + 1)]


def M(text, n):
    return Monomial.parse(text, n)


def test_spec_validation():
    with pytest.raises(ParameterError):
        SimplicialSpec(0, 1)
    with pytest.raises(ParameterError):
        SimplicialSpec(2, 3)
    with pytest.raises(ParameterError):
        SimplicialSpec(2, 0)
    for n, c in ((True, True), (2, True), (True, 1), (2.0, 2), (2, 2.0),
                 (2.5, 2), (2, 2.5), ("2", 2), (2, "2")):
        with pytest.raises(ParameterError, match="must be an integer"):
            SimplicialSpec(n, c)
    # the messages for an int out of range are unchanged
    with pytest.raises(ParameterError, match="^n=0 must be >= 1$"):
        SimplicialSpec(0, 1)
    with pytest.raises(ParameterError,
                       match=r"^c=3 must satisfy 1 <= c <= n=2$"):
        SimplicialSpec(2, 3)


def test_known_ideals():
    V = simplicial_ideal(SimplicialSpec(2, 2))
    assert set(V.gens) == {M("x0*x1", 2), M("x0*x2", 2), M("x1*x2", 2)}
    E = simplicial_ideal(SimplicialSpec(2, 1))
    assert E.gens == (M("x0*x1*x2", 2),)
    E3 = simplicial_ideal(SimplicialSpec(3, 2))
    assert len(E3.gens) == 4 and all(g.degree == 3 for g in E3.gens)
    V3 = simplicial_ideal(SimplicialSpec(3, 3))
    assert len(V3.gens) == 6 and all(g.degree == 2 for g in V3.gens)


@pytest.mark.parametrize("n,c", [(n, c) for n in range(1, 6)
                                 for c in range(1, n + 1)])
def test_generator_count_and_shape(n, c):
    ideal = simplicial_ideal(SimplicialSpec(n, c))
    deg = n - c + 2
    assert len(ideal.gens) == comb(n + 1, deg)
    assert all(g.degree == deg and max(g.exps) == 1 for g in ideal.gens)
    assert set(ideal.gens) == set(brute_skeleton_gens(n, c))


@pytest.mark.parametrize("n,c", ALL_SPECS_3)
def test_face_primes(n, c):
    primes = face_primes(SimplicialSpec(n, c))
    assert len(primes) == comb(n + 1, c)
    assert len({p.variables for p in primes}) == len(primes)
    for p in primes:
        assert len(p.variables) == c
        ideal = face_prime_ideal(p)
        assert len(ideal.gens) == c
        assert all(g.degree == 1 for g in ideal.gens)


def test_face_prime_power():
    p = FacePrime(2, (0, 2))
    cube = p.power_ideal(3)
    assert len(cube.gens) == 4  # degree-3 monomials in two variables
    assert all(g.degree == 3 and g.exps[1] == 0 for g in cube.gens)
    assert cube == face_prime_ideal(p) ** 3
    # the exact canonical order: one degree, so descending lex
    for n in range(1, 5):
        for c in range(1, n + 1):
            for prime in face_primes(SimplicialSpec(n, c)):
                for m in range(1, 5):
                    got = [g.exps for g in prime.power_ideal(m).gens]
                    assert got == sorted(brute_face_prime_power(prime, m),
                                         reverse=True), (prime, m)


def test_face_prime_needs_two_variables():
    # power_ideal builds its generators unvalidated, so the ring is checked
    # when the prime is made
    for n in (0, -1):
        with pytest.raises(ParameterError, match=f"^n={n} must be >= 1$"):
            FacePrime(n, (0,))
    # and only integers name it
    for n, variables in ((True, (0, 1)), (2.0, (0, 1)), ("2", (0, 1)),
                         (2, (0.0, 1)), (2, (0, True)), (2, ("1",))):
        with pytest.raises(ParameterError, match="must be an integer"):
            FacePrime(n, variables)
    # which are distinct indices 0..n, at least one of them
    for variables, message in (
            ((), "^face prime needs at least one variable$"),
            ((1, 1), r"^repeated variable in \(1, 1\)$"),
            ((0, 3), r"^variable index out of range 0\.\.2 in \(0, 3\)$"),
            ((-1,), r"^variable index out of range 0\.\.2 in \(-1,\)$")):
        with pytest.raises(ParameterError, match=message):
            FacePrime(2, variables)


@pytest.mark.parametrize("n,c", ALL_SPECS_3)
def test_skeleton_is_intersection_of_face_primes(n, c):
    spec = SimplicialSpec(n, c)
    primes = [face_prime_ideal(p) for p in face_primes(spec)]
    assert intersect_all(primes) == simplicial_ideal(spec)


def test_symbolic_member_examples():
    V = SimplicialSpec(2, 2)
    assert symbolic_member(V, 2, M("x0*x1*x2", 2))
    assert not symbolic_member(V, 2, M("x0^2*x1", 2))
    assert symbolic_member(V, 2, M("x0^2*x1^2", 2))
    E = SimplicialSpec(3, 2)
    assert ordinary_member(E, 2, M("x0^2*x1^2*x2^2", 3))
    assert not symbolic_member(E, 3, M("x0^2*x1^2*x2^2", 3))
    assert symbolic_member(E, 3, M("x0^2*x1^2*x2^2*x3", 3))
    # a monomial from another ring is an error, not a verdict
    for member in (symbolic_member, symbolic_member_detail,
                   ordinary_member, ordinary_member_detail):
        with pytest.raises(DimensionError):
            member(V, 2, M("x0", 3))


@given(st.integers(1, 3), st.data())
@settings(max_examples=80)
def test_symbolic_member_matches_subset_check(n, data):
    c = data.draw(st.integers(1, n))
    m = data.draw(st.integers(1, 5))
    exps = data.draw(st.lists(st.integers(0, 6), min_size=n + 1,
                              max_size=n + 1))
    spec = SimplicialSpec(n, c)
    mono = Monomial(exps)
    expected = brute_symbolic_member(n, c, m, mono)
    assert symbolic_member(spec, m, mono) == expected


@pytest.mark.parametrize("n,c", ALL_SPECS_3)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symbolic_power_matches_brute_force(n, c, m):
    # the exact canonical order too: descending under Monomial.__lt__
    got = symbolic_power(SimplicialSpec(n, c), m)
    assert got.gens == tuple(sorted(brute_symbolic_gens(n, c, m), reverse=True))


@pytest.mark.parametrize("n", range(1, 9))
def test_symbolic_representatives_match_sorted_scan(n):
    for c in range(1, n + 1):
        spec = SimplicialSpec(n, c)
        for m in range(1, 7):
            reps = [g.exps for g in symbolic_power(spec, m).gens
                    if list(g.exps) == sorted(g.exps, reverse=True)]
            assert sorted(reps) == sorted(
                brute_symbolic_representatives(n, c, m)), (n, c, m)


def test_symbolic_power_matches_brute_force_p4():
    got = symbolic_power(SimplicialSpec(4, 2), 2)
    assert set(got.gens) == set(brute_symbolic_gens(4, 2, 2))


@pytest.mark.parametrize("n,c", ALL_SPECS_3)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symbolic_routes_agree(n, c, m):
    spec = SimplicialSpec(n, c)
    assert symbolic_power(spec, m) == symbolic_power_oracle(spec, m)


def test_symbolic_power_first_is_ideal():
    for n, c in ALL_SPECS_3:
        spec = SimplicialSpec(n, c)
        assert symbolic_power(spec, 1) == simplicial_ideal(spec)


def test_symbolic_power_known_listing():
    got = symbolic_power(SimplicialSpec(2, 2), 2)
    assert [str(g) for g in got.gens] == [
        "x0^2*x1^2", "x0^2*x2^2", "x1^2*x2^2", "x0*x1*x2"]


def test_symbolic_gens_are_members_and_minimal():
    spec = SimplicialSpec(3, 2)
    ideal = symbolic_power(spec, 4)
    for g in ideal.gens:
        assert symbolic_member(spec, 4, g)
        # dropping any positive exponent must leave the symbolic power
        for i, e in enumerate(g.exps):
            if e:
                smaller = list(g.exps)
                smaller[i] -= 1
                assert not symbolic_member(spec, 4, Monomial(smaller))


@pytest.mark.parametrize("n,c", ALL_SPECS_3)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_ordinary_power_closed_form(n, c, r):
    spec = SimplicialSpec(n, c)
    closed = ordinary_power_min_gens(spec, r)
    assert closed == simplicial_ideal(spec) ** r
    assert set(closed.gens) == set(brute_power_gens(n, c, r))
    deg = (n - c + 2) * r
    assert all(g.degree == deg and max(g.exps) <= r for g in closed.gens)


def test_ordinary_member_matches_divisibility():
    rng = random.Random(406)
    for n, c in ALL_SPECS_3:
        spec = SimplicialSpec(n, c)
        for r in (1, 2, 3):
            gens = brute_power_gens(n, c, r)
            for _ in range(200):
                mono = Monomial([rng.randrange(0, 2 * r + 2)
                                 for _ in range(n + 1)])
                assert ordinary_member(spec, r, mono) == \
                    brute_ordinary_member(n, c, r, mono, gens)


def test_positive_exponent_required():
    spec = SimplicialSpec(2, 2)
    prime = FacePrime(2, (0, 1))
    # a bool is not an exponent, though True == 1
    for bad in (0, -1, True, False, 2.0, 2.5, "2"):
        with pytest.raises(ParameterError):
            symbolic_power(spec, bad)
        with pytest.raises(ParameterError):
            symbolic_power_oracle(spec, bad)
        with pytest.raises(ParameterError):
            ordinary_power_min_gens(spec, bad)
        with pytest.raises(ParameterError):
            prime.power_ideal(bad)
        for member in (symbolic_member, symbolic_member_detail,
                       ordinary_member, ordinary_member_detail):
            with pytest.raises(ParameterError):
                member(spec, bad, Monomial((0, 0, 0)))


@pytest.mark.parametrize("n", range(1, 7))
def test_budget_boundary_is_exact(n):
    # each builder counts its generators before building them: a budget of
    # exactly that many must pass, one fewer must raise
    for c in range(1, n + 1):
        spec = SimplicialSpec(n, c)
        builds = [lambda budget: simplicial_ideal(spec, budget)]
        builds += [lambda budget, m=m: symbolic_power(spec, m, budget)
                   for m in range(1, 7)]
        builds += [lambda budget, r=r: ordinary_power_min_gens(spec, r, budget)
                   for r in range(1, 4)]
        for build in builds:
            size = len(build(None).gens)
            assert len(build(size).gens) == size
            with pytest.raises(BudgetExceededError):
                build(size - 1)


@pytest.mark.parametrize("parts", range(1, 8))
def test_partitions_match_sorted_scan(parts):
    # every cap from 0 and every total from 0, infeasible ones included,
    # in the scan's (descending lexicographic) order
    for cap in range(7):
        scan = list(_sorted_vectors(parts, cap))
        for total in range(parts * cap + 2):
            expected = [v for v in scan if sum(v) == total]
            assert list(_partitions(total, parts, cap)) == expected


def test_long_listings_need_no_recursion():
    # representatives of over a thousand entries, built without recursion
    assert ordinary_power_min_gens(SimplicialSpec(1200, 1), 3).gens == (
        Monomial((3,) * 1201),)
    for build in (lambda: symbolic_power(SimplicialSpec(1200, 1200), 2),
                  lambda: symbolic_power(SimplicialSpec(1500, 1500), 3),
                  lambda: containment_oracle(1200, 1200, 2, 1)):
        with pytest.raises(BudgetExceededError):
            build()


def test_budgets_raise_instead_of_truncating():
    with pytest.raises(BudgetExceededError):
        symbolic_power(SimplicialSpec(4, 2), 5, max_candidates=10)
    with pytest.raises(BudgetExceededError):
        symbolic_power(SimplicialSpec(8, 4), 8, max_candidates=100)
    with pytest.raises(BudgetExceededError, match="max_candidates=3$"):
        symbolic_power_oracle(SimplicialSpec(4, 2), 4, max_candidates=3)


def test_oracle_counts_face_prime_powers_before_building():
    # binomial(31, 15) face primes, each power with binomial(16, 14) gens
    for budget in (100, None):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match=r"I\^\(2\)\(30,15\) have 36064823400 "):
            symbolic_power_oracle(SimplicialSpec(30, 15), 2,
                                  max_candidates=budget)
        assert time.perf_counter() - start < 1
    # c = 1: five principal primes, one generator each, and one-pair folds
    spec = SimplicialSpec(4, 1)
    assert (symbolic_power_oracle(spec, 3, max_candidates=5)
            == symbolic_power(spec, 3))
    with pytest.raises(BudgetExceededError, match="have 5 generators"):
        symbolic_power_oracle(spec, 3, max_candidates=4)
