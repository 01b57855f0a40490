"""Error budgeting: the one builder of budget reports, and horizon planning.

The approximation error of the grid-and-truncation estimator splits into

  * a discretization term bounded by c_disc * delta^(alpha/2) * sqrt(-ln delta),
  * a truncation term bounded by exp(-c_trunc * T^alpha),
  * the statistical error of the Monte Carlo average.

Both analytic bounds hold only up to multiplicative constants that are not
computable a priori; ``c_disc``/``c_trunc`` are user inputs defaulting to 1
and every report produced with defaults is flagged ``up_to_constant``.  The
planning rule T = (-ln delta)^(2/alpha) drives the truncation term to
exp(-c (-ln delta)^2) = delta^(c (-ln delta)), asymptotically negligible
against the discretization term for every c > 0.

``budget_report`` builds every report, from the estimate's ``stat_error()``
where there is one; ``dataclasses.asdict`` serializes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimator import _check_positive
from .fbm import _check_alpha

__all__ = [
    "BudgetReport",
    "budget_report",
    "plan_horizon",
]


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly in (0, 1), got {delta}")
    return delta


def plan_horizon(delta: float, alpha: float) -> float:
    """Truncation horizon (-ln delta)^(2/alpha) balancing the two error terms.

    Only defined for delta in (0, 1); the rule has no sensible extension to
    coarser grids.
    """
    delta = _check_delta(delta)
    alpha = _check_alpha(alpha)
    try:
        horizon = (-math.log(delta)) ** (2.0 / alpha)
    except OverflowError:
        horizon = math.inf
    if not 0.0 < horizon < math.inf:
        raise ValueError(
            f"the planned horizon (-ln delta)^(2/alpha) at delta={delta}, "
            f"alpha={alpha} is {horizon}, outside the float range"
        )
    return horizon


@dataclass(frozen=True)
class BudgetReport:
    """Three-component error report for one estimation run.

    ``total`` is the plain sum of the components; ``up_to_constant`` is set
    whenever either analytic constant was left at its default rather than
    calibrated, and ``horizon_below_comfort`` marks T < 1 where the
    truncation bound's "sufficiently large T" proviso is doubtful.
    """

    delta: float
    horizon: float
    disc_bound: float
    trunc_bound: float
    stat_error: float | None
    constants: dict
    total: float
    up_to_constant: bool
    horizon_below_comfort: bool


def budget_report(
    alpha: float,
    delta: float,
    horizon: float,
    c_disc: float | None = None,
    c_trunc: float | None = None,
    stat_error: float | None = None,
) -> BudgetReport:
    """Error report for a run on the delta grid truncated at ``horizon``.

    The discretization term is c_disc * delta^(alpha/2) * sqrt(-ln delta),
    the truncation term exp(-c_trunc * T^alpha), which is 0 where T^alpha
    leaves the float range.  Each constant left as None defaults to 1 and
    flags the report ``up_to_constant``.  Needs no simulation, so it also
    serves to plan a run and to reject delta outside (0, 1) or a nonpositive
    constant before any path is simulated.
    """
    delta = _check_delta(delta)
    alpha = _check_alpha(alpha)
    cd = _check_positive("c_disc", 1.0 if c_disc is None else c_disc)
    horizon = _check_positive("horizon", horizon)
    ct = _check_positive("c_trunc", 1.0 if c_trunc is None else c_trunc)
    disc = cd * delta ** (alpha / 2.0) * math.sqrt(-math.log(delta))
    try:
        trunc = math.exp(-ct * horizon**alpha)
    except OverflowError:
        trunc = 0.0
    total = disc + trunc + (stat_error if stat_error is not None else 0.0)
    if not math.isfinite(total):
        raise ValueError(f"the error budget {disc} + {trunc} + {stat_error} is not finite")
    return BudgetReport(
        delta=delta,
        horizon=horizon,
        disc_bound=disc,
        trunc_bound=trunc,
        stat_error=stat_error,
        constants={"c_disc": cd, "c_trunc": ct},
        total=total,
        up_to_constant=c_disc is None or c_trunc is None,
        horizon_below_comfort=horizon < 1.0,
    )
