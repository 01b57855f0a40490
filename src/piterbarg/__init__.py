"""Monte Carlo approximation of Piterbarg constants.

Piterbarg constants are expectations of penalized suprema of fractional
Brownian motion,

    E sup_{t in K} exp( sqrt(2) B_alpha(t) - (1 + d) |t|^alpha ),

with K the half-line or the whole line.  Exact values are known only for
the Brownian case alpha = 1; this package approximates the general case by
restricting the supremum to a grid delta * Z truncated to [-T, T], samples
the paths exactly via circulant embedding, and reports the discretization,
truncation, and statistical error components of the approximation.
"""

from .fbm import (
    CirculantSpectrum,
    circulant_spectrum,
    sample_two_sided_path,
)
from .estimator import (
    Domain,
    EstimateResult,
    EstimatorConfig,
    estimate_constant,
    grid_count,
)
from .budget import (
    BudgetReport,
    budget_report,
    discretization_bound,
    plan_horizon,
    total_budget,
    truncation_bound,
)
from .closed_form import (
    RateConstant,
    piterbarg_bm_full,
    piterbarg_bm_half,
    rate_constant,
)
from .rate_study import (
    GapDecayResult,
    GapPoint,
    RatePoint,
    rate_points_csv,
    run_gap_decay,
    run_rate_study_bm,
)

__version__ = "0.1.0"

__all__ = [
    "CirculantSpectrum",
    "circulant_spectrum",
    "sample_two_sided_path",
    "Domain",
    "EstimateResult",
    "EstimatorConfig",
    "estimate_constant",
    "grid_count",
    "BudgetReport",
    "budget_report",
    "discretization_bound",
    "plan_horizon",
    "total_budget",
    "truncation_bound",
    "RateConstant",
    "piterbarg_bm_full",
    "piterbarg_bm_half",
    "rate_constant",
    "GapDecayResult",
    "GapPoint",
    "RatePoint",
    "rate_points_csv",
    "run_gap_decay",
    "run_rate_study_bm",
    "__version__",
]
