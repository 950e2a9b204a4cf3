"""Gumbel-domain extremes: exact scaled-maximum laws, accompanying
approximations with power-rate convergence, and rate measurement tools."""

from .analysis import (
    AtPoint,
    ErrorCurve,
    RateFit,
    SupOnGrid,
    empirical_cdf,
    error_curve,
    fit_rate,
    guarded_xs,
    simulate_max,
)
from .approx import (
    APPROXIMANTS,
    evaluate,
    exact_and_gammas,
    exact_max_cdf,
    first_order_corrected,
    gumbel_cdf,
    sigma_series,
    two_term,
)
from .errors import (
    ConvergenceError,
    DegenerateError,
    DivergenceError,
    DomainError,
    EvtError,
    MismatchError,
    ParseError,
    QuadratureError,
)
from .gamma import gamma_closed_weibull, gamma_exact, gamma_expansion, gamma_quadrature
from .norming import (
    NormingPair,
    norming_closed,
    norming_exact,
    norming_exacts,
    types_equivalence_gap,
)
from .tails import (
    DistributionSpec,
    ExponentialUnit,
    IteratedLogScale,
    LogWeibullLike,
    SlowlyVarying,
    WeibullLike,
    parse_dist,
)

__version__ = "0.1.0"
