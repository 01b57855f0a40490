"""Covariance math for exact fractional Gaussian noise and two-sided fBM paths.

Fractional Brownian motion B with roughness exponent ``alpha`` in (0, 2)
(``alpha = 2H`` for Hurst index H) is the centered Gaussian process with

    Cov(B(t), B(s)) = (|t|^alpha + |s|^alpha - |t - s|^alpha) / 2,

so its unit-spaced increments (fractional Gaussian noise, fGn) are
stationary with autocovariance

    gamma(k) = (|k+1|^alpha - 2|k|^alpha + |k-1|^alpha) / 2.

The one sampler, ``estimator.sample_two_sided_path``, and the engine draw
the normals and map them with the spectrum built here.  The circulant
spectrum embeds the Toeplitz covariance of fGn in a circulant matrix
diagonalized by the FFT (Davies-Harte method), which is exact and costs
O(m log m) per draw.  The embedding length m is the shortest even 5-smooth
one (Wood and Chan 1994), which numpy's FFT transforms fast. The spectrum
stores the weights that turn standard normals into its Hermitian
half-spectrum, so a draw only multiplies and inverts.  A draw is a
stationary sequence of m values whose every window of up to m/2 + 1 is
exact fGn, and since the embedding's covariance is circulant the draw is
cyclically stationary too: every cyclic window of up to m/2 + 1 values,
one that runs past the end and on from the start, is exact fGn as well.
n increments embed in the shortest such m >= 2n, and under stream contract
v9 the engine reads each draw as a ring from four evenly spaced starts,
four windows that are exact in law but dependent, and with each window's
path its sign flip, and on the half line the time reversals of both (a
window read backwards is exact fGn too, since the covariance depends on
the lag alone): eight replications per row on the full line and sixteen on
the half line (``estimator`` states the contract).  At alpha = 1 every
lag beyond 0 vanishes and the increments are iid N(0, 1), drawn with no
map at all: a ring of n values, read from the same four starts.  The tests
check the embedding against a Cholesky factorization of the same
covariance.

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

    ``eigenvalues`` has length ``m`` (even, 5-smooth and >= 2n) and is
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

    The embedding length m is the smallest even 5-smooth integer >= 2n,
    a length pocketfft transforms fast (Wood and Chan 1994), the engine's
    rule for a row of n increments; the circulant first row is the true
    autocovariance out to lag m/2 and its mirror, so draws of length up to
    m/2 + 1 are exact.  For fGn the
    eigenvalues are nonnegative in theory; tiny negative roundoff is clamped
    to zero and anything below -1e-9 (relative) raises, since it would
    indicate a bug rather than an unlucky covariance.
    """
    alpha = _check_alpha(alpha)
    n = _check_count("n", n, 2, rule="be an integer >= 2 (increments to embed)")
    return _embedding_spectrum(alpha, _next_fast_len(2 * n))


def _embedding_spectrum(alpha: float, m: int) -> CirculantSpectrum:
    """The spectrum of the circulant embedding of even length ``m``, exact for
    draws of up to m/2 + 1 increments; the engine asks for its row width."""
    half = m // 2
    g = _autocovariances(alpha, half)
    first_row = np.concatenate([g, g[half - 1 : 0 : -1]])
    # A copy, so the complex transform is freed rather than kept alive by a view.
    lam = np.fft.fft(first_row).real.copy()
    floor = -_EIGENVALUE_CLAMP_REL * lam.max()
    if lam.min() < floor:
        raise RuntimeError(
            f"circulant embedding failed for alpha={alpha}, m={m}: "
            f"eigenvalue {lam.min():.3e} below clamp floor {floor:.3e}"
        )
    np.clip(lam, 0.0, None, out=lam)
    weights = np.sqrt(lam[: half + 1])
    weights[1:half] = np.sqrt(0.5 * lam[1:half])
    lam.flags.writeable = False
    weights.flags.writeable = False
    return CirculantSpectrum(m=m, eigenvalues=lam, weights=weights)


_SLOT: dict = {}  # the last operator built, by its (build, *args) key


def _cached(build, *args):
    """``build(*args)``, kept in one slot: a run holds its own operator, and the
    slot spares a later run of the same key a rebuild.  A different key first
    empties the slot, so the previous operator is freed before the next build
    starts and a run's memory is its own operator's alone."""
    key = (build, *args)
    value = _SLOT.get(key)
    if value is None:
        _SLOT.clear()
        value = _SLOT[key] = build(*args)
    return value


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


def _two_sided_values(ring: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cumulate a (batch, width) block of increments into (batch, width + 1)
    prefix sums S, S[0] = 0 and S[k] the sum of the first k, in ``out``,
    which is returned.  The engine reads every window of a stream row's ring
    off one such cumulation (``estimator._window``); its name is the one the
    traced benchmark times as the cumsum stage.
    """
    out[:, 0] = 0.0
    np.cumsum(ring, axis=1, out=out[:, 1:])
    return out
