"""Monte Carlo estimation of discrete, truncated Piterbarg constants.

Each replication draws a two-sided fBM path on the grid delta * Z restricted
to [-T, T], evaluates the penalized supremum functional

    exp( max_k  sqrt(2) B(k delta) - (1 + d) |k delta|^alpha )

over the requested domain (half-line or full line), and the replications are
aggregated into a point estimate with uncertainty.

Aggregation depends on the tail: the functional's survival function decays
like x^(-1-d) up to logarithmic factors, so its variance is infinite for
d <= 1.  (The tail index is established for the half-line; we assume the
same index governs the full-line functional, whose sup is dominated by the
sum of two half-line sups.  This is a working assumption, not something the
tests assert.)  The sample mean with a CLT interval is therefore used only
for d > 1; for d <= 1 the estimator falls back to median-of-means over 24
blocks, whose interval comes from block-mean order statistics.  Median-of-
means results carry extra bias under heavy skew and should be read as
robust location estimates, not unbiased means.

Replication r draws from the stream ``Philox(key=seed, counter=r << 128)``,
so results are bit-identical no matter how replications are batched or
spread over threads.  Each worker keeps one Philox keyed by the seed and
resets its counter to r << 128 for replication r, which yields the numbers
a freshly built stream would, without building one.  At alpha = 1 a
replication draws its n increments directly as iid normals; otherwise it
draws the m normals of the circulant embedding.
"""

from __future__ import annotations

import enum
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fbm import _cached_spectrum, _check_alpha, _fgn_from_normals, _two_sided_values

__all__ = [
    "Domain",
    "EstimatorConfig",
    "EstimateResult",
    "grid_count",
    "estimate_constant",
]

_SQRT2 = math.sqrt(2.0)

# Median-of-means block count for the heavy-tail (d <= 1) regime.
_MOM_BLOCKS = 24

# Two-sided normal quantile for 95% CLT intervals.
_Z95 = 1.959963984540054


class Domain(enum.Enum):
    """Optimization domain for the supremum: [0, inf) or the whole line."""

    HALF_LINE = "half"
    FULL_LINE = "full"


def grid_count(horizon: float, delta: float) -> int:
    """Number of grid points of delta*Z in (0, horizon], i.e. floor(T/delta).

    A one-part-in-1e12 forgiveness absorbs binary-representation artifacts
    such as 0.3/0.1 = 2.999...96 so that decimal-exact multiples count.
    """
    ratio = horizon / delta
    return int(math.floor(ratio * (1.0 + 1e-12) + 1e-12))


def _is_integer(value) -> bool:
    # bool is an Integral too, but True is no replication count or seed.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class EstimatorConfig:
    """Full problem description for one estimation run.

    ``horizon`` is the truncation time T; the simulated grid is
    delta * {-floor(T/delta), ..., floor(T/delta)} (positive side only for
    the half-line domain).
    """

    alpha: float
    d: float
    domain: Domain
    delta: float
    horizon: float
    replications: int
    seed: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.d <= 0.0:
            raise ValueError(f"penalty d must be positive, got {self.d}")
        if not isinstance(self.domain, Domain):
            raise ValueError(f"domain must be a Domain, got {self.domain!r}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.delta > self.horizon:
            raise ValueError(
                f"delta={self.delta} exceeds horizon={self.horizon}: empty grid"
            )
        if not _is_integer(self.replications) or self.replications < 1:
            raise ValueError(
                f"replications must be a positive integer, got {self.replications}"
            )
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(
                f"seed must be an integer that fits in 64 unsigned bits, got {self.seed}"
            )

    def side_counts(self) -> tuple[int, int]:
        """(neg_count, pos_count) of the simulated grid."""
        pos = grid_count(self.horizon, self.delta)
        neg = pos if self.domain is Domain.FULL_LINE else 0
        return neg, pos


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with uncertainty and aggregation metadata.

    ``stderr`` is present only for the sample-mean method; median-of-means
    reports an order-statistic interval instead (``ci_low``/``ci_high`` may
    be absent for very small replication counts).
    """

    estimate: float
    stderr: float | None
    ci_low: float | None
    ci_high: float | None
    method: str
    replications: int
    config: EstimatorConfig

    def stat_error(self) -> float | None:
        """Statistical half-width: stderr if defined, else CI half-width."""
        if self.stderr is not None:
            return self.stderr
        if self.ci_low is not None and self.ci_high is not None:
            return 0.5 * (self.ci_high - self.ci_low)
        return None


def _drift(neg_count: int, pos_count: int, delta: float, alpha: float, d: float):
    """(1 + d) |k delta|^alpha on the grid k = -neg_count..pos_count."""
    k = np.arange(-neg_count, pos_count + 1, dtype=float)
    return (1.0 + d) * np.abs(k * delta) ** alpha


def _check_strides(strides: Sequence[int]) -> list[int]:
    strides = [int(s) for s in strides]
    if not strides:
        raise ValueError("strides must be a nonempty list")
    for s in strides:
        if s < 1:
            raise ValueError(f"strides must be positive integers, got {s}")
    return strides


def _batch_size(width: int) -> int:
    # At most ~32 MiB of normals per batch (and as much complex spectrum
    # where an embedding is used) down to a single row; fixed by the row
    # width alone so batching never depends on the thread count.
    return max(1, min(4096, (1 << 22) // width))


def _simulate_functionals(
    config: EstimatorConfig, strides: Sequence[int], threads: int = 1
) -> np.ndarray:
    """Per-replication functionals, shape (replications, len(strides)).

    Row r reproduces bit-for-bit what the per-path reference in
    ``tests/oracle.py`` yields for replication r (a fresh Philox stream,
    one path, a self-similarity rescale and the sup over each stride's
    sub-grid); the batching here only amortizes the FFTs.  Like the path
    sampler, alpha = 1 and single-increment grids skip the embedding and
    use n iid normals per row.

    Each worker gets one set of batch buffers and one Philox generator,
    built here on the calling thread and reused for all of its batches, so
    memory follows from the config and the worker count alone: pool threads
    allocate nothing large, and a lone batch runs on the calling thread.
    Per replication r the worker writes r into counter word 2 (the counter
    is r << 128, the stream of replication r) and assigns its cached state
    back, which also empties the buffered bits; a bit generator is never
    shared between threads.
    """
    neg, pos = config.side_counts()
    n = neg + pos
    strides = _check_strides(strides)

    iid = n == 1 or config.alpha == 1.0
    spectrum = None if iid else _cached_spectrum(config.alpha, n)
    width = n if iid else spectrum.m
    scale = config.delta ** (config.alpha / 2.0)
    drift = _drift(neg, pos, config.delta, config.alpha, config.d)

    reps = int(config.replications)
    out = np.empty((reps, len(strides)))
    bsize = min(_batch_size(width), reps)
    starts = range(0, reps, bsize)
    workers = max(1, min(threads, len(starts)))

    def buffers():
        # Normals (overwritten by the fGn), half-spectrum, path values, and
        # the worker's own Philox, its generator and a fresh state dict.
        w = None if iid else np.empty((bsize, width // 2 + 1), dtype=np.complex128)
        bits = np.random.Philox(key=config.seed)
        z, values = np.empty((bsize, width)), np.empty((bsize, n + 1))
        return z, w, values, bits, np.random.Generator(bits), bits.state

    def run(start: int, z: np.ndarray, w: np.ndarray | None, values: np.ndarray,
            bits: np.random.Philox, gen: np.random.Generator, state: dict) -> None:
        rows = min(bsize, reps - start)
        z = z[:rows]
        counter = state["state"]["counter"]
        for i in range(rows):
            counter[2] = start + i
            bits.state = state
            gen.standard_normal(out=z[i])
        fgn = z if iid else _fgn_from_normals(spectrum, z, w[:rows], out=z)[:, :n]
        field = _two_sided_values(fgn, neg, out=values[:rows])
        # sqrt(2) * (scale * values) - drift, in place.
        np.multiply(field, scale, out=field)
        np.multiply(field, _SQRT2, out=field)
        np.subtract(field, drift, out=field)
        for j, s in enumerate(strides):
            start_col = neg if config.domain is Domain.HALF_LINE else neg % s
            out[start : start + rows, j] = np.exp(field[:, start_col::s].max(axis=1))

    spaces = [buffers() for _ in range(workers)]
    if workers > 1:
        def work(k: int) -> None:
            for s0 in starts[k::workers]:
                run(s0, *spaces[k])

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    else:
        for s0 in starts:
            run(s0, *spaces[0])
    return out


def _mom_ci_rank(blocks: int) -> int | None:
    """Largest order-statistic rank r with Binom(K, 1/2) mass below r-1 <= 2.5%.

    The interval (mean_(r), mean_(K+1-r)) then covers the block-mean median
    with >= 95% probability; returns None when even (min, max) falls short.
    The CDF is summed in exact integers: P(X <= r) <= 2.5% = 1/40 exactly
    when 40 * sum_{i <= r} C(K, i) <= 2^K.
    """
    total = 1 << blocks
    r, mass = 0, 1
    while 40 * mass <= total:
        r += 1
        mass += math.comb(blocks, r)
    return r or None


def _std_error(values: np.ndarray) -> float:
    """CLT standard error of the sample mean: std(ddof=1) / sqrt(len)."""
    return float(values.std(ddof=1) / math.sqrt(len(values)))


def _aggregate(functionals: np.ndarray, config: EstimatorConfig) -> EstimateResult:
    reps = len(functionals)
    if config.d > 1.0:
        estimate = float(functionals.mean())
        if reps >= 2:
            stderr = _std_error(functionals)
            ci_low, ci_high = estimate - _Z95 * stderr, estimate + _Z95 * stderr
        else:
            stderr = ci_low = ci_high = None
        return EstimateResult(
            estimate=estimate,
            stderr=stderr,
            ci_low=ci_low,
            ci_high=ci_high,
            method="sample-mean",
            replications=reps,
            config=config,
        )
    # d <= 1: infinite variance, CLT intervals invalid; median-of-means over
    # contiguous blocks (replication order is already exchangeable).
    blocks = min(_MOM_BLOCKS, reps)
    block_means = np.sort([b.mean() for b in np.array_split(functionals, blocks)])
    estimate = float(np.median(block_means))
    rank = _mom_ci_rank(blocks)
    if rank is None:
        ci_low = ci_high = None
    else:
        ci_low = float(block_means[rank - 1])
        ci_high = float(block_means[blocks - rank])
    return EstimateResult(
        estimate=estimate,
        stderr=None,
        ci_low=ci_low,
        ci_high=ci_high,
        method="median-of-means",
        replications=reps,
        config=config,
    )


def estimate_constant(config: EstimatorConfig, threads: int = 1) -> EstimateResult:
    """Estimate the discrete truncated Piterbarg constant for ``config``.

    Runs ``config.replications`` independent path simulations (unit-grid
    draw, self-similarity rescale to ``config.delta``, penalized supremum)
    and aggregates by sample mean for d > 1 or median-of-means for d <= 1.
    The result is deterministic given (config, seed) at any thread count.
    """
    functionals = _simulate_functionals(config, strides=(1,), threads=threads)
    return _aggregate(functionals[:, 0], config)
