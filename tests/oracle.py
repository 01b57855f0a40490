"""Per-path reference pipeline that the batched engine is checked against.

``piterbarg.estimator._simulate_functionals`` simulates replications in
batches, in reused buffers and with one reseated Philox per worker that
fills a block of rows per call.  This module computes the same numbers one
path at a time, each step in its plainest form: a freshly built Philox
stream per replication, advanced past the earlier rows of its block, the
circulant draw built from the eigenvalues with complex temporaries, the
anchored running sum, the self-similarity rescale and the penalized
supremum over each stride's sub-grid.  It calls none of the engine's
kernels, so tests can require bit-equality without comparing the engine
with itself.  The fGn autocovariance and a dense Cholesky draw from it
check the circulant sampler in law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from piterbarg import CirculantSpectrum, Domain, EstimatorConfig, circulant_spectrum


def block_rows(width: int) -> int:
    """Rows per Philox block: the largest power of two B with B * width <= 2^15, at least 1."""
    block = 1
    while 2 * block * width <= 2**15:
        block *= 2
    return block


def replication_stream(
    seed: int, index: int, width: int = 1, block: int = 1
) -> np.random.Generator:
    """Stream of replication ``index`` when rows of ``width`` normals come in blocks.

    A fresh Philox keyed by the seed at counter (index // block) << 128, the
    stream of the block, with the index % block earlier rows of the block
    drawn and dropped one at a time.  With block = 1 it is the stream at
    counter index << 128.  Streams of distinct replications never overlap,
    and replication r sees the same numbers regardless of execution order or
    thread count.
    """
    rng = np.random.Generator(np.random.Philox(key=seed, counter=(index // block) << 128))
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

    O(n^3), so capped at n <= CHOLESKY_MAX_N; it exists only to check the
    FFT sampler.
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


def replication_path(config: EstimatorConfig, index: int, block: int | None = None) -> PathGrid:
    """Path of replication ``index`` under ``config`` on its delta grid.

    ``block`` is the rows per Philox block, by default ``block_rows`` of
    the row width: n normals at alpha = 1, else the embedding length m.
    """
    neg, pos = config.side_counts()
    n = neg + pos
    iid = n == 1 or config.alpha == 1.0
    spectrum = None if iid else circulant_spectrum(config.alpha, n)
    width = n if iid else spectrum.m
    block = block_rows(width) if block is None else block
    rng = replication_stream(config.seed, index, width, block)
    if iid:
        fgn = rng.standard_normal(n)  # iid increments: no embedding
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
