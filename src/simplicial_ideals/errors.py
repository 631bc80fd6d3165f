"""Exception types shared across the package, its budget and integer check.

The CLI maps these onto its exit-code contract (see cli.py): parameter,
dimension and parse problems exit 2, exceeded budgets exit 3.
"""

from operator import index

#: The default of every ``max_candidates`` budget: n <= 6, m <= 12 runs
#: comfortably, and anything larger raises cleanly rather than stalls.
DEFAULT_MAX_CANDIDATES = 2_000_000


class DimensionError(ValueError):
    """Operands live in polynomial rings with different numbers of variables."""


class ParameterError(ValueError):
    """A numeric parameter (n, c, m, r, ...) is outside its allowed range."""


class MonomialParseError(ValueError):
    """A monomial string does not match the x<i>^<e> grammar."""


class BudgetExceededError(RuntimeError):
    """An enumeration or intersection grew past its configured budget.

    Raised instead of returning a partial (and therefore wrong) answer.
    """


def budget_error(what, limit):
    """The BudgetExceededError for ``what``, a phrase naming what was counted
    and how many, past the budget ``limit``."""
    return BudgetExceededError(f"{what}, more than max_candidates={limit}")


def require_int(name, value):
    """Reject a parameter that is not an integer: a bool, though True == 1,
    and anything ``operator.index`` rejects, such as 2.0 or "2"."""
    if type(value) is int:
        return
    if value is True or value is False:
        raise ParameterError(f"{name}={value!r} must be an integer, not a bool")
    try:
        index(value)
    except TypeError:
        raise ParameterError(f"{name}={value!r} must be an integer") from None
