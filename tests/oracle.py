"""Per-path reference pipeline that the batched engine is checked against.

``piterbarg.estimator._simulate_functionals`` simulates replications in
batches, in reused buffers, filling a block of rows per ``standard_normal``
call.  This module computes the same numbers one path at a time, each step
in its plainest form: the stream of replication r's block, spawned from the
seed's SeedSequence as stream contract v4 defines it (blocks of B rows,
B * width <= 2^17, block b from ``SeedSequence(seed).spawn(b + 1)[b]``
through SFC64), advanced one row at a time past the earlier rows of its
block; the row's map to fGn; the anchored running sum, the self-similarity
rescale and the penalized supremum over each stride's sub-grid.  The map is
one of three, as in the engine: n iid increments at alpha = 1; n normals
times the LAPACK Cholesky factor, one gemv, for the engine's dense rows;
or the circulant draw of m normals, built from the eigenvalues with complex
temporaries.  It calls none of the engine's kernels, so tests can require
bit-equality of iid and circulant rows without comparing the engine with
itself; the engine's dense rows come from a gemm over its Schur factor, so
they agree with the dense oracle to rounding only.  The fGn
autocovariance and the dense Cholesky draw from it also check the circulant
sampler in law, and Borwein's eta series checks the package's accelerated
zeta(1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from piterbarg import (
    Domain,
    EstimatorConfig,
    circulant_spectrum,
    rate_constant,
)
from piterbarg.fbm import CirculantSpectrum


def block_rows(width: int) -> int:
    """Rows per stream block: the largest power of two B with B * width <= 2^17, at least 1."""
    block = 1
    while 2 * block * width <= 2**17:
        block *= 2
    return block


def replication_stream(
    seed: int, index: int, width: int = 1, block: int = 1
) -> np.random.Generator:
    """Stream of replication ``index`` when rows of ``width`` normals come in blocks.

    The stream of block b = index // block is SFC64 seeded by child b of
    the seed's SeedSequence, the one with spawn key (b,) that
    ``SeedSequence(seed).spawn(b + 1)[b]`` returns (built here from its key,
    so that a large b costs no more than a small one); the index % block
    earlier rows of the block are drawn and dropped one at a time.  With
    block = 1 it is the stream of child ``index``.  Distinct blocks draw
    from independently seeded streams, and replication r sees the same
    numbers regardless of execution order or thread count.
    """
    child = np.random.SeedSequence(seed, spawn_key=(index // block,))
    rng = np.random.Generator(np.random.SFC64(child))
    for _ in range(index % block):
        rng.standard_normal(width)
    return rng


CHOLESKY_MAX_N = 4096


def fgn_autocovariance(alpha: float, k: int) -> float:
    """Autocovariance gamma(k) of unit-spaced fGn at integer lag k >= 0.

    gamma(0) = 1 for every alpha; for alpha = 1 all higher lags vanish
    (independent Brownian increments).
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie strictly in (0, 2), got {alpha}")
    if k < 0:
        raise ValueError(f"lag must be nonnegative, got {k}")
    if k == 0:
        return 1.0
    return 0.5 * ((k + 1.0) ** alpha - 2.0 * k**alpha + (k - 1.0) ** alpha)


def cholesky_sample(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact fGn draw by dense Cholesky factorization of the Toeplitz covariance.

    LAPACK's factor times n normals, one gemv.  O(n^3), so capped at
    n <= CHOLESKY_MAX_N; it exists only to check the samplers.
    """
    if not 1 <= n <= CHOLESKY_MAX_N:
        raise ValueError(f"n must lie in [1, {CHOLESKY_MAX_N}], got {n}")
    gamma = np.array([fgn_autocovariance(alpha, k) for k in range(n)])
    idx = np.arange(n)
    lower = np.linalg.cholesky(gamma[np.abs(idx[:, None] - idx[None, :])])
    return lower @ rng.standard_normal(n)


def sample_fgn(spectrum: CirculantSpectrum, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw one exact fGn sequence of length n <= m/2 + 1 from ``spectrum.m`` normals."""
    lam, m = spectrum.eigenvalues, spectrum.m
    half = m // 2
    z = rng.standard_normal(m)
    w = np.empty(half + 1, dtype=np.complex128)
    w[0] = np.sqrt(lam[0]) * z[0]
    w[half] = np.sqrt(lam[half]) * z[half]
    w[1:half] = np.sqrt(0.5 * lam[1:half]) * (z[1:half] + 1j * z[half + 1 :])
    return (np.fft.irfft(w, n=m) * math.sqrt(m))[:n]


@dataclass
class PathGrid:
    """``values[neg_count + k]`` is B(k * delta) for k = -neg_count..pos_count."""

    alpha: float
    delta: float
    neg_count: int
    pos_count: int
    values: np.ndarray


def replication_path(config: EstimatorConfig, index: int, block: int | None = None,
                     dense: bool = False) -> PathGrid:
    """Path of replication ``index`` under ``config`` on its delta grid.

    At alpha != 1, ``dense`` maps n normals through the Cholesky factor of
    the covariance, as the engine does on short grids; else the row is the
    circulant draw.  ``block`` is the rows per stream block, by default
    ``block_rows`` of the row width: n normals at alpha = 1 or dense, else
    the embedding length m.
    """
    neg, pos = config.side_counts()
    n = neg + pos
    iid = n == 1 or config.alpha == 1.0
    spectrum = None if iid or dense else circulant_spectrum(config.alpha, n)
    width = n if spectrum is None else spectrum.m
    block = block_rows(width) if block is None else block
    rng = replication_stream(config.seed, index, width, block)
    if iid:
        fgn = rng.standard_normal(n)  # iid increments: no embedding
    elif dense:
        fgn = cholesky_sample(config.alpha, n, rng)
    else:
        fgn = sample_fgn(spectrum, rng, n)
    unit = np.concatenate([[0.0], np.cumsum(fgn)])
    unit -= unit[neg]
    unit[neg] = 0.0
    scaled = unit * config.delta ** (config.alpha / 2.0)
    return PathGrid(config.alpha, config.delta, neg, pos, scaled)


@dataclass(frozen=True)
class SupRecord:
    """Maximum of the penalized field on one path; ``functional == exp(z_max)``."""

    z_max: float
    functional: float


def _penalized_field(path: PathGrid, d: float) -> np.ndarray:
    k = np.arange(-path.neg_count, path.pos_count + 1, dtype=float)
    return math.sqrt(2.0) * path.values - (1.0 + d) * np.abs(k * path.delta) ** path.alpha


def sup_functional(path: PathGrid, d: float, domain: Domain) -> SupRecord:
    """Penalized supremum over the path; the half-line ignores t < 0."""
    z = _penalized_field(path, d)
    included = z[path.neg_count :] if domain is Domain.HALF_LINE else z
    z_max = float(included.max())
    return SupRecord(z_max=z_max, functional=float(np.exp(z_max)))


def subsampled_functionals(
    path: PathGrid, d: float, domain: Domain, strides: Sequence[int]
) -> list[SupRecord]:
    """Record i restricts the supremum to grid indices divisible by strides[i]."""
    if not strides or min(strides) < 1:
        raise ValueError(f"strides must be a nonempty list of positive integers, got {strides}")
    z = _penalized_field(path, d)
    neg = path.neg_count
    records = []
    for s in strides:
        sub = z[neg::s] if domain is Domain.HALF_LINE else z[neg % s :: s]
        z_max = float(sub.max())
        records.append(SupRecord(z_max=z_max, functional=float(np.exp(z_max))))
    return records


def _eta_borwein(s: float, n: int = 32) -> float:
    """Dirichlet eta(s) by Borwein's Chebyshev-weighted partial sums.

    Independent of the package's Euler transform; carries an explicit
    remainder bound of 3 / ((3 + sqrt(8))^n * d_n), i.e. ~1e-24 at n = 32.
    The d_k are built in exact rational arithmetic so the only rounding is
    the final float conversion.
    """
    acc = Fraction(0)
    d = []
    for i in range(n + 1):
        acc += Fraction(
            math.factorial(n + i - 1) * 4**i, math.factorial(n - i) * math.factorial(2 * i)
        )
        d.append(n * acc)
    dn = d[n]
    total = 0.0
    for k in range(n):
        total += (-1) ** k * float(Fraction(d[k] - dn, dn)) / (k + 1) ** s
    return -total


def zeta_half(method: str = "accelerated") -> float:
    """Riemann zeta at 1/2 by one of two independent eta evaluations.

    "accelerated" is the package's Euler-van Wijngaarden value, as
    ``rate_constant`` reports it; "borwein" is zeta(s) = eta(s)/(1 - 2^(1-s))
    from Borwein's partial sums above.  The two agree to well below 1e-10
    and serve as each other's cross-check.
    """
    if method == "accelerated":
        return rate_constant().zeta_half
    if method == "borwein":
        return _eta_borwein(0.5) / (1.0 - math.sqrt(2.0))
    raise ValueError(f"unknown method {method!r}")
