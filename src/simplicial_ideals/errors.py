"""Exception types shared across the package, and its one argument rule.

The CLI maps these onto its exit-code contract (see cli.py): parameter,
dimension and parse problems exit 2, exceeded budgets exit 3.

Every public integer parameter passes ``require_int``, which refuses, not
converts, a value whose type is not exactly int (a bool, a float, a string, a
NumPy integer); every ``max_candidates`` budget passes ``budget_limit``.
"""

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


def require_int(name, value, least=None):
    """Reject ``value`` unless its type is exactly int and, given ``least``,
    it is at least ``least``."""
    if type(value) is int:
        if least is None or value >= least:
            return
        raise ParameterError(f"{name}={value} must be >= {least}")
    kind = "a bool" if value is True or value is False else type(value).__name__
    raise ParameterError(f"{name}={value!r} must be an integer, not {kind}")


def budget_limit(max_candidates):
    """The budget ``max_candidates`` names: None means DEFAULT_MAX_CANDIDATES,
    and any other budget must be an int >= 0; nothing fits in a budget of 0."""
    if max_candidates is None:
        return DEFAULT_MAX_CANDIDATES
    require_int("max_candidates", max_candidates, 0)
    return max_candidates
