"""Exact Brownian-case Piterbarg constants and the discrete-sampling rate constant.

For Brownian motion (``alpha = 1``) the Piterbarg constants are known in
closed form, which makes them the natural ground truth for validating the
Monte Carlo estimator:

    half-line  [0, inf):    1 + 1/d
    full line  (-inf, inf): 1 + 2/d - 1/(2d + 1)

The gap between the continuous constant and its grid-restricted counterpart
at spacing ``delta`` shrinks like ``-zeta(1/2)/sqrt(pi) * sqrt(delta)`` times
the discrete constant; the same ``-zeta(1/2)`` shows up throughout the
discrete-vs-continuous Brownian supremum literature (e.g. the
Asmussen-Glynn-Pitman / Broadie-Glasserman-Kou continuity corrections).
``rate_constant`` evaluates it from scratch rather than hardcoding digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import _check_real

__all__ = [
    "RateConstant",
    "piterbarg_bm_full",
    "piterbarg_bm_half",
    "rate_constant",
]


def piterbarg_bm_half(d: float) -> float:
    """Piterbarg constant for Brownian motion on the half-line: 1 + 1/d.

    Parameters
    ----------
    d : float
        Drift-penalty parameter, must be positive and finite.
    """
    return 1.0 + 1.0 / _check_real("penalty d", d)


def piterbarg_bm_full(d: float) -> float:
    """Piterbarg constant for Brownian motion on the full line: 1 + 2/d - 1/(2d+1)."""
    d = _check_real("penalty d", d)
    return 1.0 + 2.0 / d - 1.0 / (2.0 * d + 1.0)


def _eta_euler_transform(s: float, terms: int = 48) -> float:
    """Dirichlet eta(s) by Euler-van Wijngaarden acceleration.

    Repeatedly averages adjacent partial sums of the alternating series
    sum (-1)^k (k+1)^(-s); the collapsed diagonal converges geometrically
    even where the raw series crawls (error ~2^-terms for eta-type terms).
    """
    k = np.arange(terms, dtype=float)
    row = np.cumsum((-1.0) ** k * (k + 1.0) ** (-s))
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
    return float(row[0])


@dataclass(frozen=True)
class RateConstant:
    """The constant -zeta(1/2)/sqrt(pi) governing the sqrt(delta) grid gap.

    ``zeta_half`` is approximately -1.4603545, so ``value`` is positive
    (approximately 0.8239168).
    """

    zeta_half: float
    value: float


def rate_constant() -> RateConstant:
    """Compute -zeta(1/2)/sqrt(pi) from the accelerated eta series.

    zeta(1/2) = eta(1/2) / (1 - 2^(1/2)), the eta function's relation to zeta.
    """
    z = _eta_euler_transform(0.5) / (1.0 - math.sqrt(2.0))
    return RateConstant(zeta_half=z, value=-z / math.sqrt(math.pi))
