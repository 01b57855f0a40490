"""Error budgeting: discretization and truncation bounds plus horizon planning.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimator import EstimateResult, EstimatorConfig

__all__ = [
    "BudgetReport",
    "plan_horizon",
    "discretization_bound",
    "truncation_bound",
    "total_budget",
]


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly in (0, 1), got {delta}")
    return delta


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie strictly in (0, 2), got {alpha}")
    return alpha


def plan_horizon(delta: float, alpha: float) -> float:
    """Truncation horizon (-ln delta)^(2/alpha) balancing the two error terms.

    Only defined for delta in (0, 1); the rule has no sensible extension to
    coarser grids.
    """
    delta = _check_delta(delta)
    alpha = _check_alpha(alpha)
    return (-math.log(delta)) ** (2.0 / alpha)


def discretization_bound(delta: float, alpha: float, c_disc: float = 1.0) -> float:
    """Grid-gap bound c_disc * delta^(alpha/2) * sqrt(-ln delta).

    An upper bound up to the unknown constant; with the default c_disc = 1
    it is a shape, not a certified number.
    """
    delta = _check_delta(delta)
    alpha = _check_alpha(alpha)
    if c_disc <= 0.0:
        raise ValueError(f"c_disc must be positive, got {c_disc}")
    return c_disc * delta ** (alpha / 2.0) * math.sqrt(-math.log(delta))


def truncation_bound(horizon: float, alpha: float, c_trunc: float = 1.0) -> float:
    """Horizon-tail bound exp(-c_trunc * T^alpha).

    Valid for sufficiently large T; reports flag horizons below 1 as outside
    the bound's comfort zone without refusing them.
    """
    horizon = float(horizon)
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    alpha = _check_alpha(alpha)
    if c_trunc <= 0.0:
        raise ValueError(f"c_trunc must be positive, got {c_trunc}")
    return math.exp(-c_trunc * horizon**alpha)


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

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "horizon": self.horizon,
            "disc_bound": self.disc_bound,
            "trunc_bound": self.trunc_bound,
            "stat_error": self.stat_error,
            "constants": dict(self.constants),
            "total": self.total,
            "up_to_constant": self.up_to_constant,
            "horizon_below_comfort": self.horizon_below_comfort,
        }


def _analytic_bounds(
    config: EstimatorConfig, c_disc: float | None, c_trunc: float | None
) -> tuple[float, float, float, float]:
    """(c_disc, c_trunc, disc_bound, trunc_bound), each constant defaulting to 1.

    Needs only the config, so a caller can reject delta outside (0, 1) or a
    nonpositive constant before any path is simulated.
    """
    cd = 1.0 if c_disc is None else float(c_disc)
    ct = 1.0 if c_trunc is None else float(c_trunc)
    disc = discretization_bound(config.delta, config.alpha, cd)
    trunc = truncation_bound(config.horizon, config.alpha, ct)
    return cd, ct, disc, trunc


def total_budget(
    config: EstimatorConfig,
    result: EstimateResult,
    c_disc: float | None = None,
    c_trunc: float | None = None,
) -> BudgetReport:
    """Assemble the full error report for ``result`` produced under ``config``."""
    if result.config != config:
        raise ValueError("result was not produced under the given config")
    up_to_constant = c_disc is None or c_trunc is None
    cd, ct, disc, trunc = _analytic_bounds(config, c_disc, c_trunc)
    stat = result.stat_error()
    return BudgetReport(
        delta=config.delta,
        horizon=config.horizon,
        disc_bound=disc,
        trunc_bound=trunc,
        stat_error=stat,
        constants={"c_disc": cd, "c_trunc": ct},
        total=disc + trunc + (stat if stat is not None else 0.0),
        up_to_constant=up_to_constant,
        horizon_below_comfort=config.horizon < 1.0,
    )
