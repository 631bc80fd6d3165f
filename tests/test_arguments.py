"""The one argument rule: every public integer parameter must be an int and
every ``max_candidates`` budget None or an int >= 0; anything else raises
ParameterError before any work is done."""

import pytest

import simplicial_ideals as si
from simplicial_ideals import (
    BudgetExceededError,
    FacePrime,
    Monomial,
    MonomialIdeal,
    ParameterError,
    SimplicialSpec,
)
from simplicial_ideals import config
from simplicial_ideals.simplicial import (ordinary_member_detail,
                                          symbolic_member_detail)

SPEC = SimplicialSpec(2, 2)
UNIT = Monomial((0, 0, 0))
IDEAL = MonomialIdeal(2, [Monomial((1, 1, 0)), Monomial((0, 1, 1))])


class IndexOnly:
    """An integer stand-in: it has ``__index__`` and nothing else, no
    arithmetic and no comparison."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"IndexOnly({self.value})"


# Every integer parameter of every public entry point, by name; each call is
# valid when x is the int 2.
INT_PARAMETERS = {
    "SimplicialSpec n": lambda x: SimplicialSpec(x, 1),
    "SimplicialSpec c": lambda x: SimplicialSpec(2, x),
    "FacePrime n": lambda x: FacePrime(x, (0, 1)),
    "FacePrime variable": lambda x: FacePrime(2, (0, x)),
    "FacePrime.power_ideal m": lambda x: FacePrime(2, (0, 1)).power_ideal(x),
    "MonomialIdeal n": lambda x: MonomialIdeal(x),
    "MonomialIdeal.from_lists n": lambda x: MonomialIdeal.from_lists(x, []),
    "MonomialIdeal ** r": lambda x: IDEAL ** x,
    "Monomial.parse n": lambda x: Monomial.parse("x0", x),
    "Monomial exponent": lambda x: Monomial((x, 0, 0)),
    "MonomialIdeal.from_lists exponent":
        lambda x: MonomialIdeal.from_lists(2, [[0, x, 0]]),
    "symbolic_member m": lambda x: si.symbolic_member(SPEC, x, UNIT),
    "symbolic_member_detail m":
        lambda x: symbolic_member_detail(SPEC, x, UNIT),
    "ordinary_member r": lambda x: si.ordinary_member(SPEC, x, UNIT),
    "ordinary_member_detail r":
        lambda x: ordinary_member_detail(SPEC, x, UNIT),
    "symbolic_power m": lambda x: si.symbolic_power(SPEC, x),
    "symbolic_power_oracle m": lambda x: si.symbolic_power_oracle(SPEC, x),
    "ordinary_power_min_gens r": lambda x: si.ordinary_power_min_gens(SPEC, x),
    "containment_criterion n": lambda x: si.containment_criterion(x, 2, 3, 2),
    "containment_criterion c": lambda x: si.containment_criterion(2, x, 3, 2),
    "containment_criterion m": lambda x: si.containment_criterion(2, 2, x, 2),
    "containment_criterion r": lambda x: si.containment_criterion(2, 2, 3, x),
    "containment_oracle n": lambda x: si.containment_oracle(x, 2, 3, 2),
    "containment_oracle m": lambda x: si.containment_oracle(2, 2, x, 2),
    "containment_oracle r": lambda x: si.containment_oracle(2, 2, 3, x),
    "symbolic_containment_sufficient d":
        lambda x: si.symbolic_containment_sufficient(1, x, 2, 2),
    "symbolic_containment_sufficient s":
        lambda x: si.symbolic_containment_sufficient(1, 2, 2, x),
    "symbolic_containment_oracle d":
        lambda x: si.symbolic_containment_oracle(2, 1, x, 2, 2),
    "symbolic_containment_oracle s":
        lambda x: si.symbolic_containment_oracle(2, 1, 2, 2, x),
    "resurgence c": lambda x: si.resurgence(2, x),
    "resurgence_witness k": lambda x: si.resurgence_witness(2, 2, x),
    "empirical_resurgence_sup max_m":
        lambda x: si.empirical_resurgence_sup(2, 2, x, 5),
    "empirical_resurgence_sup max_r":
        lambda x: si.empirical_resurgence_sup(2, 2, 5, x),
    "smallest_containing_symbolic_power r":
        lambda x: si.smallest_containing_symbolic_power(2, 2, x),
    "containment_boundary n": lambda x: si.containment_boundary(x, 2, 3),
    "containment_boundary max_r": lambda x: si.containment_boundary(2, 2, x),
    "resurgence_report n": lambda x: si.resurgence_report(x, 2),
    "resurgence_report witness_count":
        lambda x: si.resurgence_report(2, 2, witness_count=x),
    "resurgence_report box M":
        lambda x: si.resurgence_report(2, 2, box=(x, 5)),
    "resurgence_report box R":
        lambda x: si.resurgence_report(2, 2, box=(5, x)),
    "load_config max_candidates":
        lambda x: config.load_config(max_candidates=x),
}


@pytest.mark.usefixtures("no_sideal_variables")
@pytest.mark.parametrize("call", INT_PARAMETERS.values(), ids=INT_PARAMETERS)
def test_integer_parameters_take_only_ints(call):
    call(2)
    with pytest.raises(ParameterError, match=r"=IndexOnly\(2\) must be an "
                                             "integer, not IndexOnly$"):
        call(IndexOnly(2))


@pytest.mark.usefixtures("no_sideal_variables")
@pytest.mark.parametrize("call", INT_PARAMETERS.values(), ids=INT_PARAMETERS)
def test_numpy_integers_are_refused_not_converted(call):
    np = pytest.importorskip("numpy")
    with pytest.raises(ParameterError, match="must be an integer, not int64$"):
        call(np.int64(2))


def test_numpy_overflow_cannot_reach_a_decision():
    # (n-c+2)*r overflows int64 to a negative bound, which the unit monomial
    # would meet; the exponent is refused before any arithmetic
    np = pytest.importorskip("numpy")
    with pytest.raises(ParameterError,
                       match="^r=.* must be an integer, not int64$"):
        si.ordinary_member(SPEC, np.int64(2**62), UNIT)


# Every function that takes a max_candidates budget; each call fits the
# budget None.
BUDGETED = {
    "simplicial_ideal": lambda b: si.simplicial_ideal(SPEC, b),
    "symbolic_power": lambda b: si.symbolic_power(SPEC, 2, b),
    "ordinary_power_min_gens":
        lambda b: si.ordinary_power_min_gens(SPEC, 2, b),
    "symbolic_power_oracle": lambda b: si.symbolic_power_oracle(SPEC, 2, b),
    "intersect_all": lambda b: si.intersect_all([IDEAL, IDEAL], b),
    "containment_oracle":
        lambda b: si.containment_oracle(2, 2, 3, 2, max_candidates=b),
    "symbolic_containment_oracle":
        lambda b: si.symbolic_containment_oracle(2, 1, 2, 2, 2,
                                                 max_candidates=b),
    "smallest_containing_symbolic_power":
        lambda b: si.smallest_containing_symbolic_power(
            2, 2, 2, use_oracle=True, max_candidates=b),
    "containment_boundary":
        lambda b: si.containment_boundary(2, 2, 1, max_candidates=b),
    "empirical_resurgence_sup":
        lambda b: si.empirical_resurgence_sup(2, 2, 5, 5, max_candidates=b),
    "resurgence_report":
        lambda b: si.resurgence_report(2, 2, witness_count=1,
                                       max_candidates=b),
}


@pytest.mark.parametrize("call", BUDGETED.values(), ids=BUDGETED)
def test_budgets_take_none_or_an_int_at_least_zero(call):
    call(None)
    for bad, message in (("5", "='5' must be an integer, not str$"),
                         (2.5, "=2.5 must be an integer, not float$"),
                         (True, "=True must be an integer, not a bool$"),
                         (-1, "=-1 must be >= 0$")):
        with pytest.raises(ParameterError, match="^max_candidates" + message):
            call(bad)
    # zero is a budget that nothing fits
    with pytest.raises(BudgetExceededError, match="max_candidates=0$"):
        call(0)


def test_unused_budgets_are_checked_too():
    # the least m without the oracle, and the table, build nothing, and
    # still refuse a bad budget; the least m is a closed form, and a budget
    # of 0 fits only the empty table
    assert si.smallest_containing_symbolic_power(2, 2, 2, max_candidates=0) == 3
    assert si.containment_boundary(2, 2, 0, max_candidates=0) == []
    for call in (lambda b: si.smallest_containing_symbolic_power(
                     2, 2, 2, max_candidates=b),
                 lambda b: si.containment_boundary(2, 2, 0, max_candidates=b)):
        for bad in ("5", 2.5, True, -1):
            with pytest.raises(ParameterError, match="^max_candidates="):
                call(bad)


def test_resurgence_report_checks_the_box_first():
    # witness_count=-1 is refused too, but only after the box
    for box, message in (((5,), r"^box=\(5,\) must be a pair \(M, R\)$"),
                         (5, "^box=5 must be a pair"),
                         (("5", 5), "^box M='5' must be an integer, not str"),
                         ((5, 2.0), "^box R=2.0 must be an integer, not float"),
                         ((0, 5), "^box M=0 must be >= 1$"),
                         ((5, 0), "^box R=0 must be >= 1$")):
        with pytest.raises(ParameterError, match=message):
            si.resurgence_report(2, 2, witness_count=-1, box=box)
    report = si.resurgence_report(2, 2, box=[12, 12])
    assert report.box == (12, 12) and report.empirical_argmax == (10, 8)
