"""Exact computation with skeleton ideals of the coordinate simplex.

Construct the ideals I(n,c), compute their ordinary and symbolic powers by
independent routes, decide containments by closed-form criteria or brute
force, and compute resurgence -- all in exact integer/rational arithmetic.
"""

from .containment import (
    ResurgenceReport,
    containment_boundary,
    containment_criterion,
    containment_oracle,
    decompose_exponent,
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
from .config import CliConfig, load_config
from .ideals import MonomialIdeal, intersect_all
from .monomials import Monomial
from .simplicial import (
    FacePrime,
    SimplicialSpec,
    face_primes,
    ordinary_member,
    ordinary_power_min_gens,
    simplicial_ideal,
    symbolic_member,
    symbolic_power,
    symbolic_power_oracle,
)
from .verification import (
    DEEP_BOUNDS,
    DEFAULT_BOUNDS,
    SCOPES,
    ClaimResult,
    VerificationBounds,
    results_to_records,
    run_verification,
    summary_lines,
)

__version__ = "0.1.0"
