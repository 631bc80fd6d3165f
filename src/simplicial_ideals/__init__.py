"""Exact computation with skeleton ideals of the coordinate simplex.

Construct the ideals I(n,c), compute their ordinary and symbolic powers by
independent routes, decide containments by closed-form criteria or brute
force, and compute resurgence -- all in exact integer/rational arithmetic.
The root exports this algebra only: the claim harness is in ``.verification``,
and the CLI's budget resolver ``load_config`` is in ``.config``.
"""

from .containment import (
    ResurgenceReport,
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
from .errors import (
    BudgetExceededError,
    DimensionError,
    MonomialParseError,
    ParameterError,
)
from .ideals import MonomialIdeal, intersect_all
from .monomials import Monomial
from .simplicial import (
    FacePrime,
    SimplicialSpec,
    ordinary_member,
    ordinary_power_min_gens,
    simplicial_ideal,
    symbolic_member,
    symbolic_power,
    symbolic_power_oracle,
)

__version__ = "0.1.0"
