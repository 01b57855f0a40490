"""Convergence-rate studies on nested grids with common random numbers.

Every path is simulated once at the finest spacing; coarser grids are read
off the same path by subsampling.  That makes per-path coarse functionals
dominated by fine ones *exactly* (not just in expectation), so paired gap
estimates are nonnegative pathwise and resolvable with ~1e5 paths where
independent estimates per grid would need many orders of magnitude more.
Both studies are views of one table, ``_study_table`` (a column per spacing,
a row per path), read through one reader, ``_paired``.

For Brownian motion (alpha = 1) the exact constants are known, and the gap
P_exact - P^delta divided by sqrt(delta) * P^delta should approach
-zeta(1/2)/sqrt(pi) ~= 0.8239 as delta -> 0; ``run_rate_study_bm`` measures
that, and on the half line also reports the exact discrete constant P^delta
of each grid, which the row's estimate targets with no model error.  For
alpha != 1 no exact target exists and ``run_gap_decay`` instead reports how
fast paired gaps between grids shrink, with a fitted log-log decay exponent
to compare against the delta^(alpha/2) envelope shape.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .budget import plan_horizon
from .closed_form import piterbarg_bm_full, piterbarg_bm_half, piterbarg_bm_half_discrete
from .estimator import Domain, EstimatorConfig, _row_unit, _simulate_functionals, _std_error
from .fbm import _check_alpha, _check_count, _check_real

__all__ = [
    "RatePoint",
    "GapPoint",
    "GapDecayResult",
    "run_rate_study_bm",
    "run_gap_decay",
    "rate_points_csv",
]

@dataclass(frozen=True)
class RatePoint:
    """One grid spacing's row of the Brownian rate study.

    ``gap`` is P_exact - p_hat and ``empirical_rate`` is
    gap / (sqrt(delta) * p_hat), the finite-delta proxy for the limiting
    constant.  ``gap`` can dip below zero only within statistical noise;
    consumers should flag (not fail) gap < -3 * gap_stderr.
    ``p_exact_discrete`` is the exact half-line constant on the grid of
    spacing delta (``piterbarg_bm_half_discrete``), which p_hat estimates
    with no model error; None on the full line and where the series
    refuses (delta, d), an empty CSV cell.
    """

    delta: float
    p_hat: float
    stderr: float
    gap: float
    gap_stderr: float
    empirical_rate: float
    p_exact_discrete: float | None = None


RATE_CSV_HEADER = ",".join(f.name for f in fields(RatePoint))

# The columns whose cells may be empty: the fields that default to None.
RATE_CSV_OPTIONAL = frozenset(f.name for f in fields(RatePoint) if f.default is None)


@dataclass(frozen=True)
class GapPoint:
    """Paired estimate of P^(finest) - P^(delta) under common random numbers."""

    delta: float
    gap: float
    gap_stderr: float


@dataclass(frozen=True)
class GapDecayResult:
    """Gap-decay study output: paired gaps plus a fitted log-log exponent."""

    finest_delta: float
    points: list[GapPoint]
    exponent: float
    exponent_stderr: float


def _nested_strides(deltas: Sequence[float]) -> tuple[list[float], list[int]]:
    """Validate a descending power-of-two-nested spacing list; return strides."""
    deltas = [_check_real("spacing", x) for x in deltas]
    if len(deltas) < 2:
        raise ValueError("need at least two spacings")
    if any(later >= earlier for later, earlier in zip(deltas[1:], deltas)):
        raise ValueError(f"spacings must be strictly descending, got {deltas}")
    finest = deltas[-1]
    strides = []
    for x in deltas:
        # ratio = 2^k within 1e-9 relative; a ratio beyond the floats is no power
        ratio = x / finest
        k = round(math.log2(ratio)) if ratio < math.inf else 0
        if abs(math.ldexp(ratio, -k) - 1.0) > 1e-9:
            raise ValueError(
                f"spacing {x} is not the finest ({finest}) times a power of two"
            )
        strides.append(1 << k)
    return deltas, strides


def _study_table(
    alpha: float,
    d: float,
    domain: Domain,
    deltas: Sequence[float],
    replications: int,
    seed: int,
    threads: int,
) -> tuple[list[float], np.ndarray, int]:
    """Simulate at the finest spacing and read every coarser one off the paths.

    Returns the validated spacings, the (replications, len(deltas))
    functionals and the replications per independent stream row; the
    horizon is plan_horizon(finest, alpha), and a spacing beyond it, whose
    grid would be the anchor alone, is refused.  The studies report CLT
    stderrs over rows, which need d > 1 (finite variance) and at least two
    rows: ``unit + 1`` replications, ``unit = _row_unit(config)`` being the
    replications a stream row holds (16 on the full line and 32 on the half
    line below alpha = 1.8, 8 and 16 from it on).
    """
    _check_real("penalty d", d, 1.0, rule="exceed 1: rate studies report CLT standard errors, "
                "which need d > 1 (the functional has infinite variance for d <= 1)")
    deltas, strides = _nested_strides(deltas)
    finest = deltas[-1]
    horizon = plan_horizon(finest, alpha)
    if deltas[0] > horizon:  # named here as a spacing; the engine refuses its stride too
        raise ValueError(f"spacing {deltas[0]} exceeds the horizon T={horizon} of the finest "
                         f"spacing {finest}: its grid is empty")
    config = EstimatorConfig(
        alpha=alpha,
        d=d,
        domain=domain,
        delta=finest,
        horizon=horizon,
        replications=replications,
        seed=seed,
    )
    unit = _row_unit(config)
    _check_count("replications", replications, unit + 1, rule=f"be an integer >= {unit + 1}: "
                 "rate studies report CLT standard errors, which need at least 2 "
                 f"independent rows, and a stream row holds {unit} replications")
    return deltas, _simulate_functionals(config, strides, threads=threads), unit


def _paired(table: np.ndarray, unit: int, i: int, j: int | None = None) -> tuple[float, float]:
    """Mean and CLT stderr, over rows of ``unit``, of column i or of
    table[:, i] - table[:, j]."""
    x = table[:, i] if j is None else table[:, i] - table[:, j]
    return float(x.mean()), _std_error(x, unit)


def run_rate_study_bm(
    d: float,
    domain: Domain,
    deltas: Sequence[float],
    replications: int,
    seed: int,
    threads: int = 1,
) -> list[RatePoint]:
    """Measure the Brownian sqrt(delta) convergence rate on nested grids.

    Simulates at the finest spacing with horizon T = plan_horizon(finest, 1)
    and evaluates every coarser grid on the same paths.  P_exact comes from
    the closed forms, and on the half line each grid's exact discrete
    constant from Spitzer's series; d must exceed 1 so the sample mean has
    a finite variance.  Returns one :class:`RatePoint` per spacing, in
    input order.
    """
    deltas, table, unit = _study_table(1.0, d, domain, deltas, replications, seed, threads)
    half = domain is Domain.HALF_LINE
    exact = piterbarg_bm_half(d) if half else piterbarg_bm_full(d)
    points = []
    for j, delta in enumerate(deltas):
        p_hat, stderr = _paired(table, unit, j)
        gap = exact - p_hat
        points.append(
            RatePoint(
                delta=delta,
                p_hat=p_hat,
                stderr=stderr,
                gap=gap,
                gap_stderr=stderr,
                empirical_rate=gap / (math.sqrt(delta) * p_hat),
                p_exact_discrete=_exact_discrete(d, delta) if half else None,
            )
        )
    return points


def _exact_discrete(d: float, delta: float) -> float | None:
    """The half-line constant on the grid of spacing delta, or None where
    Spitzer's series refuses (d, delta)."""
    try:
        return piterbarg_bm_half_discrete(d, delta)
    except ValueError:
        return None


def run_gap_decay(
    alpha: float,
    d: float,
    domain: Domain,
    deltas: Sequence[float],
    replications: int,
    seed: int,
    threads: int = 1,
) -> GapDecayResult:
    """Paired gap-decay study for alpha != 1, where no exact target exists.

    For each coarser spacing the paired difference
    functional(finest) - functional(delta) is averaged over common paths;
    the fitted slope of ln(gap) against ln(delta) is returned with its OLS
    standard error for comparison against the alpha/2 envelope exponent.
    Like the rate study it needs d > 1.
    """
    alpha = _check_alpha(alpha)
    if alpha == 1.0:
        raise ValueError(
            f"gap decay study needs alpha in (0, 2) excluding 1, got {alpha}"
        )
    deltas, table, unit = _study_table(alpha, d, domain, deltas, replications, seed, threads)
    points = [GapPoint(delta, *_paired(table, unit, -1, j))
              for j, delta in enumerate(deltas[:-1])]
    exponent, exponent_stderr = _loglog_slope(
        [p.delta for p in points], [p.gap for p in points]
    )
    return GapDecayResult(
        finest_delta=deltas[-1],
        points=points,
        exponent=exponent,
        exponent_stderr=exponent_stderr,
    )


def _loglog_slope(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """OLS slope of ln y on ln x with its regression standard error, from
    closed-form sums of the centred logarithms (no LAPACK least squares).

    (nan, nan) for fewer than two points, or where some y is not positive
    (a paired gap can be 0 or negative at small replication counts) and so
    has no logarithm; two points leave no residual, so their stderr is nan.
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 2 or not np.all(y > 0.0):
        return float("nan"), float("nan")
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(y)
    dx, dy = lx - lx.mean(), ly - ly.mean()
    sxx = float((dx * dx).sum())
    slope = float((dx * dy).sum()) / sxx
    dof = len(lx) - 2
    if dof == 0:
        return slope, float("nan")
    residuals = dy - slope * dx
    return slope, math.sqrt(float((residuals * residuals).sum()) / dof / sxx)


def rate_points_csv(points: Sequence[RatePoint]) -> str:
    """Render rate-study rows as CSV (header mandatory, repr-exact floats, an
    empty cell for an absent value of a ``RATE_CSV_OPTIONAL`` column)."""
    rows = (",".join("" if x is None else repr(x) for x in astuple(p)) for p in points)
    return "".join(f"{line}\n" for line in (RATE_CSV_HEADER, *rows))
