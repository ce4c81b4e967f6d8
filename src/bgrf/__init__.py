"""Bivariate Gaussian random field extremes.

Matern cross-covariance models, Pickands-constant Monte Carlo, closed-form
joint excursion tail asymptotics, and brute-force verification tooling.
"""

from .asymptotics import (
    AsymptoticResult,
    CellBudgetError,
    RiemannCheck,
    default_delta_constant,
    delta_lower_bound,
    riemann_sum_check,
    tail_asymptotic,
)
from .fields import (
    DomainPair,
    GridSpec,
    NotPositiveDefiniteError,
    Rect,
    build_covariance,
    cholesky_factor,
    read_sample_dump,
    write_sample_dump,
)
from .model import (
    AssumptionReport,
    BivariateMaternModel,
    LocalExpansion,
    UnsupportedModelError,
    check_assumptions,
    cross_corr,
    expansion_coefficient,
    local_expansion,
    validity_bound,
)
from .montecarlo import (
    ExcursionEstimate,
    RateFit,
    estimates_from_maxima,
    field_maxima,
    rate_fit,
)
from .pickands import (
    PickandsEstimate,
    estimate_H_constant,
    path_suprema,
)
from .specfun import (
    MaternParams,
    bessel_k,
    matern,
    matern_d2_at_zero,
)

__version__ = "0.1.0"
