import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _brute import _minimalize
from simplicial_ideals import ideals
from simplicial_ideals import (
    BudgetExceededError,
    DimensionError,
    Monomial,
    MonomialIdeal,
    ParameterError,
    intersect_all,
)


def ideal_of(n, *exps):
    return MonomialIdeal(n, [Monomial(e) for e in exps])


# random ideals in P^2 with small exponents
gen_lists = st.lists(
    st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple),
    min_size=1, max_size=5)
ideals_p2 = gen_lists.map(lambda gl: ideal_of(2, *gl))
monos_p2 = st.lists(st.integers(0, 6), min_size=3, max_size=3).map(
    lambda e: Monomial(e))


@st.composite
def mixed_degree_case(draw):
    """A ring n in 1..4, generators with duplicates and the unit, a monomial."""
    n = draw(st.integers(1, 4))
    monos = st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1).map(
        Monomial)
    unit = Monomial((0,) * (n + 1))
    gens = draw(st.lists(st.one_of(monos, st.just(unit)), max_size=12))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=4))
    return n, gens, draw(monos)


def test_canonicalization_drops_multiples():
    ideal = ideal_of(1, (2, 0), (1, 0), (3, 1))
    assert ideal.gens == (Monomial((1, 0)),)


def test_canonicalization_is_idempotent_and_sorted():
    ideal = ideal_of(2, (2, 2, 0), (0, 2, 2), (1, 1, 1), (2, 0, 2))
    assert MonomialIdeal(2, ideal.gens) == ideal
    degrees = [g.degree for g in ideal.gens]
    assert degrees == sorted(degrees, reverse=True)
    # descending graded-lex throughout
    keys = [(g.degree, g.exps) for g in ideal.gens]
    assert keys == sorted(keys, reverse=True)


@given(mixed_degree_case())
@example((2, [], Monomial((1, 0, 0))))
@example((3, [Monomial((0, 0, 0, 0))] * 2, Monomial((0, 1, 0, 2))))
@settings(max_examples=200)
def test_reduction_matches_brute_minimalize(case):
    n, gens, mono = case
    ideal = MonomialIdeal(n, gens)
    assert list(ideal.gens) == _minimalize(gens)[::-1]
    expected = any(g.divides(mono) for g in ideal.gens)
    assert ideal.contains(mono) == expected
    assert (mono in ideal) == expected


HUGE = 2 ** 40  # far past any value axis the divisor index keeps dense


@st.composite
def ideal_pair_case(draw):
    """Two ideals of one ring n in 1..4, each zero, unit or mixed-degree
    with duplicates, and a monomial whose entries may pass every generator's.
    Half the cases mix in exponents near HUGE."""
    n = draw(st.integers(1, 4))
    big = draw(st.booleans())
    if big:
        entries = st.sampled_from([0, 1, 2, 3, HUGE, HUGE + 1])
        query_entries = st.sampled_from([0, 1, 3, 6, HUGE, HUGE + 2])
    else:
        entries, query_entries = st.integers(0, 3), st.integers(0, 6)
    monos = st.lists(entries, min_size=n + 1, max_size=n + 1).map(Monomial)

    def gens():
        kind = draw(st.sampled_from(["zero", "unit", "mixed"]))
        if kind == "zero":
            return []
        if kind == "unit":
            return [Monomial((0,) * (n + 1))]
        drawn = draw(st.lists(monos, min_size=1, max_size=8))
        return drawn + draw(st.lists(st.sampled_from(drawn), max_size=3))

    query = draw(st.lists(query_entries, min_size=n + 1, max_size=n + 1))
    return n, gens(), gens(), Monomial(query)


@st.composite
def multiples_pair_case(draw):
    """Two ideals of one ring n in 1..4 where one is drawn from multiples of
    the other's generators, plus a few unrelated generators, so that the
    intersection's pruning fires on self or on other; and a monomial."""
    n = draw(st.integers(1, 4))
    monos = st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1).map(
        Monomial)
    base = draw(st.lists(monos, min_size=1, max_size=6))
    multiples = [g * draw(monos)
                 for g in draw(st.lists(st.sampled_from(base), max_size=6))]
    multiples += draw(st.lists(monos, max_size=2))
    query = draw(monos)
    if draw(st.booleans()):
        return n, multiples, base, query
    return n, base, multiples, query


@given(st.one_of(ideal_pair_case(), multiples_pair_case()))
@example((2, [], [Monomial((1, 0, 0))], Monomial((0, 0, 0))))
@example((2, [Monomial((1, 0, 0))], [], Monomial((5, 5, 5))))
@example((1, [Monomial((0, 1))], [Monomial((1, 0)), Monomial((0, 2))],
          Monomial((6, 0))))
@example((2, [Monomial((3, 0, 0))], [Monomial((2, 0, 0)), Monomial((0, 1, 1))],
          Monomial((6, 0, 0))))
@example((1, [Monomial((HUGE, 0)), Monomial((0, HUGE + 1))],
          [Monomial((HUGE, 1)), Monomial((1, 1))], Monomial((HUGE + 2, 1))))
@settings(max_examples=300)
def test_index_matches_pairwise_routes(case):
    """Product, intersection, containment and membership against routes
    built from Monomial.__mul__, lcm and divides with _minimalize."""
    n, gens_i, gens_j, mono = case
    I, J = MonomialIdeal(n, gens_i), MonomialIdeal(n, gens_j)
    mins_i, mins_j = _minimalize(gens_i), _minimalize(gens_j)
    assert list((I * J).gens) == _minimalize(
        {a * b for a in mins_i for b in mins_j})[::-1]
    assert list((I & J).gens) == _minimalize(
        {a.lcm(b) for a in mins_i for b in mins_j})[::-1]
    assert (I <= J) == all(any(b.divides(a) for b in mins_j) for a in mins_i)
    assert I.contains(mono) == any(a.divides(mono) for a in mins_i)


def _lcm_route(I, J):
    return _minimalize({a.lcm(b) for a in I.gens for b in J.gens})[::-1]


def _pruned_candidates(I, J):
    """The lcm candidates an intersection should reduce, by naive divides:
    each generator of either ideal that lies in the other, and the lcms of
    the pairs of generators outside each other's ideal."""
    def inside(g, K):
        return any(h.divides(g) for h in K.gens)
    kept = {g for g in I.gens if inside(g, J)} | {h for h in J.gens if inside(h, I)}
    return kept | {g.lcm(h) for g in I.gens if not inside(g, J)
                   for h in J.gens if not inside(h, I)}


UNIT = ideal_of(2, (0, 0, 0))
ZERO = MonomialIdeal(2)
SQUARES = ideal_of(2, (2, 0, 0), (0, 2, 0), (0, 0, 2))
INTERSECTION_CASES = {
    # J inside I: I & J = J, and no lcm is formed
    "other-inside-self": (ideal_of(2, (1, 0, 0), (0, 1, 0)),
                          ideal_of(2, (2, 0, 0), (1, 1, 1), (0, 3, 2))),
    # I inside J: I & J = I
    "self-inside-other": (ideal_of(2, (3, 1, 0), (0, 2, 2)),
                          ideal_of(2, (1, 1, 0), (0, 0, 1))),
    # one generator of other lies in self, the other two do not
    "other-partly-inside": (SQUARES,
                            ideal_of(2, (3, 1, 0), (1, 1, 0), (0, 1, 1))),
    # one generator of self lies in other, beside two that do not
    "self-partly-inside": (ideal_of(2, (2, 2, 0), (1, 0, 1), (0, 1, 1)),
                           ideal_of(2, (1, 1, 0), (0, 0, 2))),
    # both operands prune, and a generator is shared
    "both-partly-inside": (ideal_of(2, (2, 0, 0), (1, 1, 1), (0, 0, 3)),
                           ideal_of(2, (2, 0, 0), (0, 1, 1), (3, 3, 0))),
    "zero-self": (ZERO, SQUARES),
    "zero-other": (SQUARES, ZERO),
    "unit-self": (UNIT, SQUARES),
    "unit-other": (SQUARES, UNIT),
    "unit-unit": (UNIT, UNIT),
}


@pytest.mark.parametrize("case", sorted(INTERSECTION_CASES))
def test_intersection_prunes_both_operands(case, monkeypatch):
    I, J = INTERSECTION_CASES[case]
    reduced = []
    reduce = ideals._reduce_to_antichain

    def record(tuples):
        reduced.append(set(tuples))
        return reduce(reduced[-1])

    monkeypatch.setattr(ideals, "_reduce_to_antichain", record)
    got = I & J
    assert list(got.gens) == _lcm_route(I, J)
    # a pruned generator is a candidate and forms no lcm
    assert reduced == [{g.exps for g in _pruned_candidates(I, J)}]
    if case == "other-inside-self":
        assert got == J and reduced == [{g.exps for g in J.gens}]
    if case == "self-inside-other":
        assert got == I and reduced == [{g.exps for g in I.gens}]


def test_zero_and_unit():
    zero = MonomialIdeal(2)
    one = MonomialIdeal(2, [Monomial((0, 0, 0))])
    ideal = ideal_of(2, (1, 1, 0))
    assert zero.gens == () and one.gens == (Monomial((0, 0, 0)),)
    assert ideal + zero == ideal
    assert ideal * zero == zero
    assert ideal + one == one
    assert ideal * one == ideal
    assert zero <= ideal <= one


def test_containment_against_the_zero_ideal():
    zero = MonomialIdeal(2)
    ideal = ideal_of(2, (1, 1, 0))
    assert zero <= zero
    assert zero <= ideal
    assert not ideal <= zero
    assert not MonomialIdeal(2, [Monomial((0, 0, 0))]) <= zero
    assert ideal & zero == zero
    assert Monomial((0, 0, 0)) not in zero


def test_reduction_through_an_emptied_bucket():
    # x0^2 falls to x0, so the degree-2 bucket adds nothing to the divisor
    # index before the degree-3 bucket is swept
    ideal = ideal_of(2, (1, 0, 0), (2, 0, 0), (1, 0, 2), (0, 3, 0))
    assert ideal.gens == (Monomial((0, 3, 0)), Monomial((1, 0, 0)))


def test_pow_basics():
    ideal = ideal_of(2, (1, 1, 0), (0, 1, 1))
    assert ideal ** 1 == ideal
    assert ideal ** 2 == ideal * ideal
    assert ideal ** 3 == ideal * ideal * ideal
    with pytest.raises(ParameterError):
        ideal ** 0
    for flag in (True, False):
        with pytest.raises(ParameterError):
            ideal ** flag


@given(ideals_p2, ideals_p2)
def test_sum_and_product_commute(I, J):
    assert I + J == J + I
    assert I * J == J * I
    assert I.intersect(J) == J.intersect(I)


@given(ideals_p2, ideals_p2, ideals_p2)
@settings(max_examples=40)
def test_associativity_and_distributivity(I, J, K):
    assert (I + J) + K == I + (J + K)
    assert (I * J) * K == I * (J * K)
    assert I * (J + K) == I * J + I * K


@given(ideals_p2, ideals_p2)
def test_containment_lattice(I, J):
    assert I * J <= I.intersect(J)
    assert I.intersect(J) <= I
    assert I <= I + J
    assert J <= I + J


@given(ideals_p2, ideals_p2, monos_p2)
@settings(max_examples=60)
def test_membership_laws(I, J, mono):
    assert ((mono in I) or (mono in J)) <= (mono in I + J)
    assert (mono in I.intersect(J)) == ((mono in I) and (mono in J))
    if mono in I * J:
        assert mono in I and mono in J


@given(ideals_p2, ideals_p2)
def test_product_generators_are_products(I, J):
    for gen in (I * J).gens:
        assert any((a * b).divides(gen) and gen.divides(a * b)
                   for a in I.gens for b in J.gens)


@given(ideals_p2)
def test_le_means_generator_membership(I):
    bigger = I + ideal_of(2, (1, 0, 0))
    assert I <= bigger
    assert bigger >= I
    if I.gens:
        assert not bigger <= I or bigger == I


def test_comparison_requires_same_ring():
    with pytest.raises(DimensionError):
        ideal_of(1, (1, 0)) <= ideal_of(2, (1, 0, 0))
    with pytest.raises(DimensionError):
        ideal_of(1, (1, 0)) * ideal_of(2, (1, 0, 0))
    with pytest.raises(DimensionError):
        ideal_of(2, (1, 0, 0)) & ideal_of(1, (1, 0))
    # __eq__ stays pythonic
    assert ideal_of(1, (1, 0)) != ideal_of(2, (1, 0, 0))
    assert ideal_of(1, (1, 0)) != "not an ideal"


def test_generator_dimension_checked():
    with pytest.raises(DimensionError):
        MonomialIdeal(2, [Monomial((1, 0))])
    for bad in (2.0, 2.5, "2", True):
        with pytest.raises(ParameterError, match="must be an integer"):
            MonomialIdeal(bad, [Monomial((1, 0, 0))])
    with pytest.raises(ParameterError, match="^n=0 must be >= 1$"):
        MonomialIdeal(0)


@pytest.mark.parametrize("exps", [(1, 0), (1, 0, 0, 0)])
def test_membership_requires_same_ring(exps):
    ideal = ideal_of(2, (1, 0, 0))
    with pytest.raises(DimensionError):
        ideal.contains(Monomial(exps))
    with pytest.raises(DimensionError):
        Monomial(exps) in ideal


def test_text_round_trip():
    ideal = ideal_of(2, (2, 2, 0), (1, 1, 1))
    text = ideal.to_text()
    parsed = MonomialIdeal(2, [Monomial.parse(line, 2)
                               for line in text.splitlines()])
    assert parsed == ideal


@given(ideals_p2)
def test_lists_round_trip(I):
    assert MonomialIdeal.from_lists(2, I.to_lists()) == I


def test_intersect_all_matches_pairwise():
    I = ideal_of(2, (2, 0, 0), (0, 1, 0))
    J = ideal_of(2, (1, 1, 0))
    K = ideal_of(2, (0, 0, 1))
    assert intersect_all([I, J, K]) == I.intersect(J).intersect(K)


def test_intersect_all_budget():
    # antichain generators so nothing reduces away before the fold
    staircase = ideal_of(2, *[(i, 4 - i, 0) for i in range(5)])
    with pytest.raises(BudgetExceededError,
                       match="forms 25 lcm pairs, more than max_candidates=2$"):
        intersect_all([staircase, staircase], max_candidates=2)
    with pytest.raises(ParameterError):
        intersect_all([])


def test_hash_consistent_with_eq():
    a = ideal_of(2, (1, 1, 0), (2, 2, 0))
    b = ideal_of(2, (1, 1, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
