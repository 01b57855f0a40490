"""Covariance math for exact fractional Gaussian noise and two-sided fBM paths.

Fractional Brownian motion B with roughness exponent ``alpha`` in (0, 2)
(``alpha = 2H`` for Hurst index H) is the centered Gaussian process with

    Cov(B(t), B(s)) = (|t|^alpha + |s|^alpha - |t - s|^alpha) / 2,

so its unit-spaced increments (fractional Gaussian noise, fGn) are
stationary with autocovariance

    gamma(k) = (|k+1|^alpha - 2|k|^alpha + |k-1|^alpha) / 2.

The one sampler, ``estimator.sample_two_sided_path``, and the engine pick
among the maps built here and draw the normals.  The circulant spectrum
embeds the Toeplitz covariance of fGn in a circulant matrix diagonalized by
the FFT (Davies-Harte method), which is exact and costs O(m log m) per
draw.  The embedding length m is the shortest even 5-smooth one (Wood and
Chan 1994), which numpy's FFT transforms fast. The spectrum stores the
weights that turn standard normals into its Hermitian half-spectrum, so a
draw only multiplies and inverts. At alpha = 1 every lag beyond 0 vanishes
and the increments are iid N(0, 1), drawn with no map at all. The tests
check the maps against a dense Cholesky factorization of the same covariance.

On short grids a dense map is cheaper than the embedding: n normals times
the (n, n + 1) matrix ``_dense_map`` give the anchored, scaled path values
in one product.  It is built from the Cholesky factor of the covariance,
which the Schur algorithm computes in O(n^2) elementwise passes, so the
factor does not depend on the BLAS build or its thread count.

Paths are always simulated on the unit grid and rescaled by self-similarity
(B(delta * k) has the law of delta^(alpha/2) * B(k)), so one spectrum per
(alpha, length) serves every grid spacing.

The module also holds the package's input checks, ``_check_real`` for a
real parameter and ``_check_count`` for a count, which the other modules import.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["circulant_spectrum"]

# Relative floor below which a negative FFT eigenvalue is treated as roundoff
# and clamped; anything more negative is a genuine embedding failure.
_EIGENVALUE_CLAMP_REL = 1e-9


def _check_real(name: str, value, low: float = 0.0, high: float = math.inf,
                rule: str = "be positive and finite", closed: bool = False) -> float:
    """``value`` as a float x, if it is a real number other than a bool, within
    the floats, with low < x < high (low <= x where ``closed``); else a
    ValueError that names the parameter.  A numeric string is no real number."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not (low <= x if closed else low < x) or not x < high:
        raise ValueError(f"{name} must {rule}, got {value!r}")
    return x


def _check_count(name: str, value, low: int = 1, high: float = math.inf,
                 rule: str = "be a positive integer") -> int:
    """``value`` as an int, if it is an integer other than a bool with
    low <= value < high; else a ValueError that names the parameter."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not low <= value < high):
        raise ValueError(f"{name} must {rule}, got {value!r}")
    return int(value)


def _check_alpha(alpha: float) -> float:
    return _check_real("alpha", alpha, 0.0, 2.0, "lie strictly in (0, 2)")


@dataclass(frozen=True)
class CirculantSpectrum:
    """FFT eigenvalues of the circulant extension of the fGn covariance.

    ``eigenvalues`` has length ``m`` (even, 5-smooth and >= 2(n-1)) and is
    the DFT of the periodized autocovariance sequence
    gamma(0), ..., gamma(m/2), gamma(m/2 - 1), ..., gamma(1).  All entries
    are nonnegative; inverting the transform recovers gamma(0..m/2).

    ``weights`` holds the m/2 + 1 read-only factors that scale standard
    normals into the Hermitian half-spectrum: sqrt(lambda_0),
    sqrt(lambda_k / 2) for 1 <= k < m/2, and sqrt(lambda_{m/2}).
    ``circulant_spectrum`` derives them from ``eigenvalues`` once.
    Instances are immutable and safe to share across threads.  No spectrum
    is used at alpha = 1, whose increments are iid.
    """

    m: int
    eigenvalues: np.ndarray
    weights: np.ndarray


def _autocovariances(alpha: float, kmax: int) -> np.ndarray:
    """gamma(0..kmax) in one vectorized pass."""
    k = np.arange(kmax + 1, dtype=float)
    g = 0.5 * ((k + 1.0) ** alpha - 2.0 * k**alpha + np.abs(k - 1.0) ** alpha)
    g[0] = 1.0
    return g


def _next_fast_len(x: int) -> int:
    """Smallest even 5-smooth integer 2^a 3^b 5^c (a >= 1) that is >= x."""
    best = 1 << max(1, (x - 1).bit_length())
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest 2^a * p35 >= x with a >= 1
            best = min(best, p35 << max(1, (-(-x // p35) - 1).bit_length()))
            p35 *= 3
        p5 *= 5
    return best


def circulant_spectrum(alpha: float, n: int) -> CirculantSpectrum:
    """Eigenvalues of the circulant embedding of gamma(0..n-1).

    The embedding length m is the smallest even 5-smooth integer >= 2(n-1),
    a length pocketfft transforms fast (Wood and Chan 1994); the
    circulant first row is the true autocovariance out to lag m/2 and its
    mirror, so draws of length up to m/2 + 1 are exact.  For fGn the
    eigenvalues are nonnegative in theory; tiny negative roundoff is clamped
    to zero and anything below -1e-9 (relative) raises, since it would
    indicate a bug rather than an unlucky covariance.
    """
    alpha = _check_alpha(alpha)
    n = _check_count("n", n, 2, rule="be an integer >= 2 (increments to embed)")
    m = _next_fast_len(2 * (n - 1))
    half = m // 2
    g = _autocovariances(alpha, half)
    first_row = np.concatenate([g, g[half - 1 : 0 : -1]])
    # A copy, so the complex transform is freed rather than kept alive by a view.
    lam = np.fft.fft(first_row).real.copy()
    floor = -_EIGENVALUE_CLAMP_REL * lam.max()
    if lam.min() < floor:
        raise RuntimeError(
            f"circulant embedding failed for alpha={alpha}, n={n}: "
            f"eigenvalue {lam.min():.3e} below clamp floor {floor:.3e}"
        )
    np.clip(lam, 0.0, None, out=lam)
    weights = np.sqrt(lam[: half + 1])
    weights[1:half] = np.sqrt(0.5 * lam[1:half])
    lam.flags.writeable = False
    weights.flags.writeable = False
    return CirculantSpectrum(m=m, eigenvalues=lam, weights=weights)


def _schur_cholesky(alpha: float, n: int) -> np.ndarray:
    """Upper factor R, R^T R = [gamma(|i - j|)], of the fGn covariance (n >= 1).

    The Schur algorithm for Toeplitz matrices (Kailath and Sayed 1995, SIAM
    Review 37): row k of R is the first generator, shifted, after k
    hyperbolic rotations of the generator pair.  Elementwise numpy only, so
    the factor is the same whatever BLAS numpy links and however many
    threads it runs.
    """
    upper = np.zeros((n, n))
    a = _autocovariances(alpha, n - 1)  # gamma(0) = 1
    b = a[1:]
    for k in range(n):
        upper[k, k:] = a
        a = a[:-1]
        if not b.size:
            break
        rho = b[0] / a[0]
        s = math.sqrt((1.0 - rho) * (1.0 + rho))
        a, b = (a - rho * b) / s, ((b - rho * a) / s)[1:]
    return upper


def _dense_map(alpha: float, n: int, neg_count: int, scale: float) -> np.ndarray:
    """(n, n + 1) matrix G with z @ G the path of ``_two_sided_values``, times scale.

    z is a row of n standard normals; z @ R is an fGn row, where R is the
    Schur factor, so G is R cumulated along its rows behind a zero column,
    anchored at column ``neg_count`` and scaled.  Build peak: R and G.
    """
    gmap = np.zeros((n, n + 1))
    np.cumsum(_schur_cholesky(alpha, n), axis=1, out=gmap[:, 1:])
    gmap -= gmap[:, neg_count : neg_count + 1]
    gmap *= scale
    gmap.flags.writeable = False
    return gmap


@lru_cache(maxsize=1)  # the one spectrum or dense map a run's memory plan counts
def _cached(build, *args):
    return build(*args)


def _fgn_from_normals(spectrum: CirculantSpectrum, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Map (batch, m) standard normals to (batch, m) exact fGn sequences.

    Builds the Hermitian half-spectrum from the first m/2+1 normals (real
    parts) and the remaining m/2-1 (imaginary parts), written straight into
    the real and imaginary views of one complex array, then inverts with a
    real FFT into ``z`` itself, which is returned. Row i depends only on
    z[i], so batching cannot change values. ``w`` (batch, m/2+1 complex) is
    the buffer for the half-spectrum.
    """
    weights = spectrum.weights
    m = spectrum.m
    half = m // 2
    np.multiply(z[:, : half + 1], weights, out=w.real)
    np.multiply(z[:, half + 1 :], weights[1:half], out=w.imag[:, 1:half])
    w.imag[:, 0] = 0.0
    w.imag[:, half] = 0.0
    fgn = np.fft.irfft(w, n=m, axis=1, out=z)
    fgn *= math.sqrt(m)
    return fgn


def _two_sided_values(fgn: np.ndarray, neg_count: int, out: np.ndarray) -> np.ndarray:
    """Cumulate a (batch, n) increment block into (batch, n+1) path values.

    The running sum is anchored so the column at index ``neg_count`` is
    exactly zero; entries left of the anchor are then the negated backward
    sums, which keeps the two sides driven by one stationary sequence (they
    are dependent for alpha != 1).  ``out`` is the (batch, n+1) buffer for
    the result, which is returned.
    """
    out[:, 0] = 0.0
    np.cumsum(fgn, axis=1, out=out[:, 1:])
    if neg_count:  # x - x is +0.0: numpy buffers the overlapping anchor column
        out -= out[:, neg_count][:, None]
    return out
