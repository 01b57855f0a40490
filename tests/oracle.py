"""Per-path reference pipeline that the batched engine is checked against.

``piterbarg.estimator._simulate_functionals`` simulates replications in
batches, in reused buffers and with one reseated Philox per worker.  This
module computes the same numbers one path at a time, each step in its
plainest form: a freshly built Philox stream per replication, the circulant
draw built from the eigenvalues with complex temporaries, the anchored
running sum, the self-similarity rescale and the penalized supremum over
each stride's sub-grid.  It calls none of the engine's kernels, so tests can
require bit-equality without comparing the engine with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from piterbarg import CirculantSpectrum, Domain, EstimatorConfig, circulant_spectrum


def replication_stream(seed: int, index: int) -> np.random.Generator:
    """Stream of replication ``index``: Philox keyed by the seed, counter index << 128.

    Streams never overlap, and replication r sees the same numbers
    regardless of execution order or thread count.
    """
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


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


def replication_path(config: EstimatorConfig, index: int) -> PathGrid:
    """Path of replication ``index`` under ``config`` on its delta grid."""
    neg, pos = config.side_counts()
    n = neg + pos
    rng = replication_stream(config.seed, index)
    if n == 1 or config.alpha == 1.0:
        fgn = rng.standard_normal(n)  # iid increments: no embedding
    else:
        fgn = sample_fgn(circulant_spectrum(config.alpha, n), rng, n)
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
