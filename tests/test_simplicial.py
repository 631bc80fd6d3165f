import random
import re
import time
from itertools import combinations, islice, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import (
    _minimalize,
    _sorted_vectors,
    brute_capped_degree,
    brute_face_prime_power,
    brute_ordinary_member,
    brute_power_gens,
    brute_skeleton_gens,
    brute_symbolic_gens,
    brute_symbolic_member,
    brute_symbolic_representatives,
)
from simplicial_ideals import (
    BudgetExceededError,
    DimensionError,
    FacePrime,
    Monomial,
    MonomialIdeal,
    ParameterError,
    SimplicialSpec,
    containment_oracle,
    intersect_all,
    ordinary_member,
    ordinary_power_min_gens,
    simplicial_ideal,
    symbolic_member,
    symbolic_power,
    symbolic_power_oracle,
)
from simplicial_ideals import faceprime, simplicial
from simplicial_ideals.errors import budget_limit
from simplicial_ideals.faceprime import _face_prime_step
from simplicial_ideals.simplicial import (
    _ordinary_representatives,
    _ordinary_test,
    _partitions,
    _permutations,
    _representative_product,
    _symbolic_representatives,
    _symbolic_scan,
    ordinary_member_detail,
    symbolic_member_detail,
    symbolic_power_stream,
)

ALL_SPECS_3 = [(n, c) for n in range(1, 4) for c in range(1, n + 1)]


def _face_primes(n, c):
    """The face primes of I(n, c): one per c-subset of the variables."""
    return [FacePrime(n, s) for s in combinations(range(n + 1), c)]


def face_prime_ideal(prime):
    """The face prime <x_i : i in prime.variables>, one variable per
    generator, canonicalized by the general constructor."""
    gens = []
    for i in prime.variables:
        vec = [0] * (prime.n + 1)
        vec[i] = 1
        gens.append(Monomial(vec))
    return MonomialIdeal(prime.n, gens)


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
    assert {g.exps for g in ideal.gens} == set(brute_skeleton_gens(n, c))


@pytest.mark.parametrize("n,c", ALL_SPECS_3)
def test_face_primes(n, c):
    primes = _face_primes(n, c)
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
    primes = [prime for n in range(1, 5) for c in range(1, n + 1)
              for prime in _face_primes(n, c)]
    # and so too when the variables are not named in ascending order
    primes += [FacePrime(3, (3, 0)), FacePrime(2, (2, 0, 1)),
               FacePrime(4, (4, 1, 3)), FacePrime(4, (2, 4, 0, 3))]
    for prime in primes:
        for m in range(1, 5):
            got = [g.exps for g in prime.power_ideal(m).gens]
            assert got == sorted(brute_face_prime_power(prime.n,
                                                        prime.variables, m),
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
    primes = [face_prime_ideal(p) for p in _face_primes(n, c)]
    assert intersect_all(primes) == simplicial_ideal(SimplicialSpec(n, c))


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
    expected = brute_symbolic_member(n, c, m, mono.exps)
    assert symbolic_member(spec, m, mono) == expected


@pytest.mark.parametrize("n,c", ALL_SPECS_3)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symbolic_power_matches_brute_force(n, c, m):
    # the exact canonical order too: descending under Monomial.__lt__
    got = symbolic_power(SimplicialSpec(n, c), m)
    assert got.gens == tuple(sorted(map(Monomial, brute_symbolic_gens(n, c, m)),
                                    reverse=True))


@pytest.mark.parametrize("n", range(1, 9))
def test_symbolic_representatives_match_sorted_scan(n):
    for c in range(1, n + 1):
        spec = SimplicialSpec(n, c)
        for m in range(1, 7):
            reps = [g.exps for g in symbolic_power(spec, m).gens
                    if list(g.exps) == sorted(g.exps, reverse=True)]
            assert sorted(reps) == sorted(
                brute_symbolic_representatives(n, c, m)), (n, c, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_symbolic_scan_yields_each_generator_once(n):
    # the oracles' scan: the representatives, then the rest of every
    # orbit, each generator once; counted and refused as the stream is.
    # The scan walks orbits by prefix shifts and the stream in lex order,
    # so two walks are compared; n = 8 at m = 8 are the oracle-sweep
    # bench's largest scans (up to 31 290 generators)
    for c in range(1, n + 1):
        spec = SimplicialSpec(n, c)
        for m in (8,) if n == 8 else range(1, 7):
            reps = list(_symbolic_representatives(spec, m))
            count = symbolic_power_stream(spec, m)[0]
            scanned = list(_symbolic_scan(spec, m))
            assert scanned[:len(reps)] == reps, (n, c, m)
            assert len(scanned) == len(set(scanned)) == count
            assert set(scanned) == {
                g.exps for g in symbolic_power(spec, m).gens}
            assert len(list(_symbolic_scan(spec, m, count))) == count
            with pytest.raises(BudgetExceededError) as scan_refusal:
                _symbolic_scan(spec, m, count - 1)
            with pytest.raises(BudgetExceededError) as stream_refusal:
                symbolic_power_stream(spec, m, count - 1)
            assert str(scan_refusal.value) == str(stream_refusal.value)


@given(st.lists(st.sampled_from([0, 1, 2, 5, 10**9]), min_size=1, max_size=9)
       .map(lambda entries: tuple(sorted(entries, reverse=True))))
@settings(max_examples=200)
def test_permutations_walk_each_orbit_once(rep):
    # one step past the orbit's size, so a walk that does not end fails
    orbit = set(permutations(rep))
    walk = list(islice(_permutations(rep), len(orbit) + 1))
    assert walk[0] == rep
    assert len(walk) == len(set(walk))
    assert set(walk) == orbit


def test_listings_past_the_block_match_brute():
    # I(12, 7) is one orbit of C(13, 7) = 1716 > _BLOCK generators
    ones = [tuple(int(i in chosen) for i in range(13))
            for chosen in combinations(range(13), 7)]
    assert len(ones) == comb(13, 7) > simplicial._BLOCK
    assert simplicial_ideal(SimplicialSpec(12, 7))._exps == tuple(
        sorted(ones, reverse=True))
    # I^(4)(8, 6) has a degree of 1386 > _BLOCK generators in two orbits
    reps = brute_symbolic_representatives(8, 6, 4)
    expected = sorted({perm for rep in reps for perm in permutations(rep)},
                      reverse=True)
    expected.sort(key=sum, reverse=True)
    degrees = [sum(rep) for rep in reps]
    mixed = max(degrees, key=degrees.count)
    assert degrees.count(mixed) == 2
    assert sum(sum(g) == mixed for g in expected) > simplicial._BLOCK
    assert symbolic_power(SimplicialSpec(8, 6), 4)._exps == tuple(expected)


@pytest.mark.parametrize("n", range(1, 6))
def test_representative_product_matches_ideal_product(n):
    # I^(a) * I^(b) against `*`, and I^r * I against the closed form of
    # I^(r+1)
    for c in range(1, n + 1):
        spec = SimplicialSpec(n, c)
        symbolic = [list(_symbolic_representatives(spec, m))
                    for m in range(1, 4)]
        ordinary = [list(_ordinary_representatives(spec, r))
                    for r in range(1, 5)]
        for a in range(1, 4):
            for b in range(1, 4):
                product = symbolic_power(spec, a) * symbolic_power(spec, b)
                expected = [g.exps for g in product.gens
                            if list(g.exps) == sorted(g.exps, reverse=True)]
                assert _representative_product(
                    symbolic[a - 1], symbolic[b - 1]) == expected, (n, c, a, b)
        for r in range(1, 4):
            assert _representative_product(
                ordinary[r - 1], ordinary[0]) == ordinary[r], (n, c, r)


def test_symbolic_power_matches_brute_force_p4():
    got = symbolic_power(SimplicialSpec(4, 2), 2)
    assert {g.exps for g in got.gens} == set(brute_symbolic_gens(4, 2, 2))


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
    assert {g.exps for g in closed.gens} == set(brute_power_gens(n, c, r))
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
                    brute_ordinary_member(n, c, r, mono.exps, gens)


def test_ordinary_test_reuses_its_memo():
    # the oracle and the claims build one test per (spec, r) and map it over
    # many tuples, so later tuples read the capped values earlier ones
    # stored; the tests for r = 1, 2, 3 are used in turn on every tuple, so
    # no memo may leak into another r's test
    rng = random.Random(407)
    big = 10**9
    for n, c in ALL_SPECS_3:
        spec = SimplicialSpec(n, c)
        tests = {r: (_ordinary_test(spec, r), brute_power_gens(n, c, r))
                 for r in (1, 2, 3)}
        batch = []
        for _ in range(240):
            top = 3 * rng.choice((1, 2, 3))
            batch.append([rng.randrange(0, top + 1) for _ in range(n + 1)])
        # a 10**9 entry among small ones
        batch += [exps[:i] + [big] + exps[i + 1:]
                  for exps in batch[:40] for i in range(n + 1)]
        for exps in batch:
            mono = Monomial(exps)
            for r, (test, gens) in tests.items():
                assert test(mono.exps) == \
                    brute_ordinary_member(n, c, r, exps, gens), (n, c, r, exps)
        # r = 10**9: the memo holds the values seen, not a table up to r,
        # and I^r is too large to expand, so the verdict is checked against
        # the capped degree summed by an explicit loop
        start = time.perf_counter()
        test = _ordinary_test(spec, big)
        for _ in range(200):
            mono = Monomial([rng.choice((0, 1, 2, big - 1, big, 2 * big,
                                         3 * big)) for _ in range(n + 1)])
            assert test(mono.exps) == \
                (brute_capped_degree(big, mono.exps) >= (n - c + 2) * big), \
                (n, c, mono.exps)
        assert time.perf_counter() - start < 1


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


def test_listings_past_the_budget_raise_before_counting_far():
    # binomial(100001, 49999) generators, a number of over 30000 digits:
    # the count stops once it passes the budget
    spec = SimplicialSpec(100000, 50000)
    for build in (simplicial_ideal, lambda spec: symbolic_power(spec, 1),
                  lambda spec: ordinary_power_min_gens(spec, 2)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=" has at least "):
            build(spec)
        assert time.perf_counter() - start < 1


def test_budgets_raise_instead_of_truncating():
    with pytest.raises(BudgetExceededError):
        symbolic_power(SimplicialSpec(4, 2), 5, max_candidates=10)
    with pytest.raises(BudgetExceededError):
        symbolic_power(SimplicialSpec(8, 4), 8, max_candidates=100)
    with pytest.raises(BudgetExceededError, match="max_candidates=3$"):
        symbolic_power_oracle(SimplicialSpec(4, 2), 4, max_candidates=3)


def test_oracle_counts_face_prime_powers_before_building():
    # binomial(31, 15) face primes, each power with binomial(16, 14) gens,
    # 36064823400 in all; each factor's count stops once past the budget
    for budget in (100, None):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            symbolic_power_oracle(SimplicialSpec(30, 15), 2,
                                  max_candidates=budget)
        assert time.perf_counter() - start < 1
        count = int(re.search(r"I\^\(2\)\(30,15\) have at least (\d+) "
                              "generators", str(info.value))[1])
        assert budget_limit(budget) < count <= 36064823400
    # the exact count would pass the 4300 digits Python formats into a
    # message; the cut-short one is formed and refused at once
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=r"I\^\(1\)\(100000,50000\) have at least "):
        symbolic_power_oracle(SimplicialSpec(100000, 50000), 1)
    assert time.perf_counter() - start < 1
    # c = 1: five principal primes, one generator each, and one-pair folds
    spec = SimplicialSpec(4, 1)
    assert (symbolic_power_oracle(spec, 3, max_candidates=5)
            == symbolic_power(spec, 3))
    with pytest.raises(BudgetExceededError, match="have at least 5 generators"):
        symbolic_power_oracle(spec, 3, max_candidates=4)


def test_oracle_counts_each_step_before_lifting(monkeypatch):
    # I^(5)(2,2): the three face-prime powers have 18 generators, which fit
    # a budget of 20, but the step at (0, 2) lifts the 6 generators of
    # P_(0,1)^5 into 21 candidates; it raises before building any of them
    spec = SimplicialSpec(2, 2)
    real = faceprime._face_prime_step
    built = []

    def record(gens, deficits, subset, compositions):
        # the candidates the step formed: each kept generator, and each
        # lifted one's compositions, which the step leaves in the memo
        result = real(gens, deficits, subset, compositions)
        built.append(sum(len(compositions[k]) if k > 0 else 1
                         for k in deficits))
        return result

    monkeypatch.setattr(faceprime, "_face_prime_step", record)
    with pytest.raises(BudgetExceededError,
                       match=r"^the face-prime step \(0, 2\) of "
                             r"I\^\(5\)\(2,2\) forms 21 candidates, "
                             "more than max_candidates=20$"):
        symbolic_power_oracle(spec, 5, max_candidates=20)
    assert built == [6]
    built.clear()
    assert (symbolic_power_oracle(spec, 5, max_candidates=21)
            == symbolic_power(spec, 5))
    assert max(built) <= 21 and len(built) == 3


@given(st.integers(1, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_face_prime_step_keeps_exactly_the_minimal_lifts(n, data):
    # one step of the oracle on any antichain J, not only on the symmetric
    # ones the oracle meets: its output is the minimal lcms of J's
    # generators with those of P_S^m, for every c-subset S and m <= 4
    vectors = data.draw(st.lists(
        st.tuples(*[st.integers(0, 5)] * (n + 1)), min_size=1, max_size=8))
    gens = _minimalize(vectors)
    for c in range(1, n + 1):
        for subset in combinations(range(n + 1), c):
            for m in range(1, 5):
                deficits = [m - sum(g[i] for i in subset) for g in gens]
                got = _face_prime_step(gens, deficits, subset, {})
                power = brute_face_prime_power(n, subset, m)
                lcms = {tuple(map(max, g, p)) for g in gens for p in power}
                expected = set(_minimalize(lcms))
                assert len(got) == len(expected), (gens, subset, m)
                assert set(got) == expected, (gens, subset, m)


@pytest.mark.parametrize("m", (200, 300))
def test_oracle_past_the_dense_top(m):
    # a step whose top, the largest entry plus the largest deficit, passes
    # _DENSE_TOP bisects sparse rows in place of a value axis per
    # coordinate: at m = 200 the first step's rows are dense and the later
    # steps' sparse, at m = 300 every step's rows are sparse
    spec = SimplicialSpec(2, 2)
    assert symbolic_power_oracle(spec, m) == symbolic_power(spec, m)


@pytest.mark.parametrize("n", range(1, 5))
def test_generic_face_prime_intersection_matches_both_routes(n):
    # the fold of intersect_all over the built face-prime powers, the
    # generic route the oracle no longer takes, on the routes claim's
    # default box
    for c in range(1, n + 1):
        spec = SimplicialSpec(n, c)
        for m in range(1, 6):
            generic = intersect_all([p.power_ideal(m)
                                     for p in _face_primes(n, c)])
            assert generic == symbolic_power_oracle(spec, m), (n, c, m)
            assert generic == symbolic_power(spec, m), (n, c, m)
