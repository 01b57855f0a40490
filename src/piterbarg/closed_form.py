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
On the half line the grid-restricted constant itself is exact too:
``piterbarg_bm_half_discrete`` sums Spitzer's series for it.
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
    "piterbarg_bm_half_discrete",
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


# Terms the Spitzer series may need, 60 / (min(d, 1) delta), at most: about
# a second of scalar erfc calls.
_SPITZER_MAX_TERMS = 10**6


def piterbarg_bm_half_discrete(d: float, delta: float) -> float:
    """Exact half-line Brownian constant on the grid delta * {0, 1, 2, ...}.

    S_k = sqrt(2) B(k delta) - (1 + d) k delta is a Gaussian random walk, and
    the constant is E exp(max_k S_k).  Spitzer's identity and the normal
    integrals of E[exp(S_k^+) - 1] give

        exp( sum_{k >= 1} (1/k) [ e^{-d k delta} Phi((1 - d) sqrt(k delta / 2))
                                  - Phi(-(1 + d) sqrt(k delta / 2)) ] ),

    whose terms are positive and at most e^{-d k delta} / k.  The sum stops
    once that bound on the rest falls below 1e-16 of the total, and within
    60 / (min(d, 1) delta) terms; a (d, delta) whose count exceeds
    ``_SPITZER_MAX_TERMS`` is a ValueError.  It tends to 1 + 1/d as
    delta -> 0, the gap shrinking like the rate constant times sqrt(delta).
    """
    d = _check_real("penalty d", d)
    delta = _check_real("delta", delta)
    if min(d, 1.0) * delta * _SPITZER_MAX_TERMS < 60.0:  # no division: the product may be 0
        raise ValueError(f"the Spitzer series at d={d}, delta={delta} needs up to "
                         f"60 / (min(d, 1) delta) terms, more than {_SPITZER_MAX_TERMS}")
    terms = math.ceil(60.0 / (min(d, 1.0) * delta))

    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    parts, total, rate = [], 0.0, d * delta
    for k in range(1, terms + 1):
        root = math.sqrt(0.5 * k * delta)
        parts.append((math.exp(-rate * k) * phi((1.0 - d) * root) - phi(-(1.0 + d) * root)) / k)
        total += parts[-1]
        # the rest: sum_{j > k} e^{-rate j} / j <= e^{-rate (k + 1)} / ((k + 1)(1 - e^{-rate}))
        if math.exp(-rate * (k + 1)) / ((k + 1) * -math.expm1(-rate)) < 1e-16 * total:
            break
    return math.exp(math.fsum(parts))  # exactly rounded: a running sum drifts by 1e-14


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
    Dirichlet eta(1/2) comes from Euler-van Wijngaarden acceleration of the
    alternating series sum (-1)^k (k+1)^(-1/2): repeatedly averaging adjacent
    partial sums, the collapsed diagonal converges geometrically even where
    the raw series crawls (error ~2^-48 for 48 terms).
    """
    k = np.arange(48, dtype=float)
    row = np.cumsum((-1.0) ** k * (k + 1.0) ** -0.5)
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
    z = float(row[0]) / (1.0 - math.sqrt(2.0))
    return RateConstant(zeta_half=z, value=-z / math.sqrt(math.pi))
