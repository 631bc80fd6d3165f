import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplicial_ideals import (DimensionError, Monomial, MonomialIdeal,
                               MonomialParseError, ParameterError)
from simplicial_ideals.monomials import exps_lines, exps_text

exp_vectors = st.lists(st.integers(min_value=0, max_value=9),
                       min_size=2, max_size=6).map(tuple)

# pairs/triples drawn in the same ring
aligned_pairs = st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(0, 9), min_size=k, max_size=k).map(tuple),
        st.lists(st.integers(0, 9), min_size=k, max_size=k).map(tuple)))
aligned_triples = st.integers(min_value=2, max_value=5).flatmap(
    lambda k: st.tuples(
        st.lists(st.integers(0, 6), min_size=k, max_size=k).map(tuple),
        st.lists(st.integers(0, 6), min_size=k, max_size=k).map(tuple),
        st.lists(st.integers(0, 6), min_size=k, max_size=k).map(tuple)))


def test_constructor_examples():
    mono = Monomial((2, 0, 1))
    assert mono.n == 2
    assert mono.degree == 3
    assert str(mono) == "x0^2*x2"
    assert str(Monomial((0, 0, 0, 0))) == "1"


def test_constructor_rejects_bad_input():
    with pytest.raises(DimensionError):
        Monomial((3,))
    with pytest.raises(ParameterError, match="^exponent=-1 must be >= 0$"):
        Monomial((1, -1))


def test_constructor_rejects_non_integer_exponents():
    # int() would truncate 1.7 to 1 and parse '3', and True == 1; none of
    # them is an exponent
    for bad in ([1.7, 2], ['3', 4], [2.0, 1], [True, 0]):
        with pytest.raises(ParameterError):
            Monomial(bad)
        with pytest.raises(ParameterError):
            MonomialIdeal.from_lists(1, [bad])


def test_parse_examples():
    assert Monomial.parse("x0^2*x1", 2) == Monomial((2, 1, 0))
    assert Monomial.parse(" x1 * x0 ", 1) == Monomial((1, 1))
    assert Monomial.parse("1", 3) == Monomial((0, 0, 0, 0))
    # repeated variables multiply
    assert Monomial.parse("x0*x0^2", 1) == Monomial((3, 0))


def test_parse_errors():
    with pytest.raises(MonomialParseError):
        Monomial.parse("x9", 2)
    with pytest.raises(MonomialParseError):
        Monomial.parse("y0", 2)
    with pytest.raises(MonomialParseError):
        Monomial.parse("x0^", 2)
    with pytest.raises(MonomialParseError):
        Monomial.parse("", 2)


@given(exp_vectors)
def test_str_parse_round_trip(vec):
    mono = Monomial(vec)
    assert Monomial.parse(str(mono), mono.n) == mono


@given(st.lists(st.lists(st.integers(0, 9), min_size=4, max_size=4)
                .map(tuple), max_size=5))
def test_exps_lines_match_exps_text(rows):
    # the unit row, a repeated row and an exponent far above the others
    rows += [(0, 0, 0, 0), (9, 0, 1, 2), (9, 0, 1, 2), (10**8, 1, 0, 0)]
    assert list(exps_lines(iter(rows), 4)) == [
        exps_text(exps) + "\n" for exps in rows]


@given(aligned_pairs)
def test_mul_adds_exponents(pair):
    a, b = Monomial(pair[0]), Monomial(pair[1])
    prod = a * b
    assert prod.exps == tuple(x + y for x, y in zip(a.exps, b.exps))
    assert prod.degree == a.degree + b.degree
    assert a * Monomial((0,) * (a.n + 1)) == a


@given(aligned_pairs)
def test_divides_is_componentwise(pair):
    a, b = Monomial(pair[0]), Monomial(pair[1])
    assert a.divides(b) == all(x <= y for x, y in zip(a.exps, b.exps))
    assert a.divides(a)
    assert Monomial((0,) * (a.n + 1)).divides(a)
    assert a.divides(a * b)


@given(aligned_pairs)
def test_divides_antisymmetric(pair):
    a, b = Monomial(pair[0]), Monomial(pair[1])
    if a.divides(b) and b.divides(a):
        assert a == b


@given(aligned_triples)
def test_divides_transitive(triple):
    a = Monomial(triple[0])
    b = a * Monomial(triple[1])
    c = b * Monomial(triple[2])
    assert a.divides(c)


@given(aligned_pairs)
def test_lcm_is_least_upper_bound(pair):
    a, b = Monomial(pair[0]), Monomial(pair[1])
    join = a.lcm(b)
    assert join.exps == tuple(max(x, y) for x, y in zip(a.exps, b.exps))
    assert a.divides(join) and b.divides(join)
    # least: divides the obvious common multiple
    assert join.divides(a * b)
    assert a.lcm(b) == b.lcm(a)
    assert a.lcm(a) == a


@given(aligned_pairs)
def test_graded_lex_order(pair):
    a, b = Monomial(pair[0]), Monomial(pair[1])
    assert (a < b) == ((a.degree, a.exps) < (b.degree, b.exps))
    assert not a < a


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        Monomial((1, 0)).divides(Monomial((1, 0, 0)))
    with pytest.raises(DimensionError):
        Monomial((1, 0)) * Monomial((1, 0, 0))
    with pytest.raises(DimensionError):
        Monomial((1, 0)).lcm(Monomial((1, 0, 0)))
    # the longer operand first too: zipping would silently truncate it
    with pytest.raises(DimensionError):
        Monomial((1, 0, 0)) * Monomial((1, 0))
    with pytest.raises(DimensionError):
        Monomial((1, 0, 0)).lcm(Monomial((1, 0)))


@given(aligned_pairs)
def test_hash_consistent_with_eq(pair):
    a, b = Monomial(pair[0]), Monomial(pair[1])
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, Monomial(pair[0])}) == 1
