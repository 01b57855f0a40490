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

Replication r derives its random stream from (seed, r) through a Philox
counter offset, so results are bit-identical no matter how replications are
batched or spread over threads.  At alpha = 1 a replication draws its n
increments directly as iid normals; otherwise it draws the m normals of the
circulant embedding.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fbm import PathGrid, _cached_spectrum, _fgn_from_normals, _two_sided_values

__all__ = [
    "Domain",
    "EstimatorConfig",
    "SupRecord",
    "EstimateResult",
    "replication_stream",
    "grid_count",
    "sup_functional",
    "subsampled_functionals",
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


def replication_stream(seed: int, index: int) -> np.random.Generator:
    """Independent random stream for replication ``index`` under ``seed``.

    Uses the Philox counter-based generator keyed by the seed with the
    counter advanced to block ``index * 2**128``: streams never overlap, and
    replication r sees the same numbers regardless of execution order or
    thread count.
    """
    if index < 0:
        raise ValueError(f"replication index must be nonnegative, got {index}")
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


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
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie strictly in (0, 2), got {self.alpha}")
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
        if grid_count(self.horizon, self.delta) < 1:
            raise ValueError("grid must contain at least one point besides t=0")
        if int(self.replications) < 1:
            raise ValueError(
                f"replications must be a positive integer, got {self.replications}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")

    def side_counts(self) -> tuple[int, int]:
        """(neg_count, pos_count) of the simulated grid."""
        pos = grid_count(self.horizon, self.delta)
        neg = pos if self.domain is Domain.FULL_LINE else 0
        return neg, pos


@dataclass(frozen=True)
class SupRecord:
    """Maximum of the penalized field on one path, in log and level form.

    ``functional == exp(z_max)`` exactly: the sup of the exponential equals
    the exponential of the sup, and the grid contains t = 0 where the field
    vanishes, so ``functional >= 1`` always.
    """

    z_max: float
    functional: float


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


def _penalized_field(path: PathGrid, d: float) -> np.ndarray:
    if d <= 0.0:
        raise ValueError(f"penalty d must be positive, got {d}")
    drift = _drift(path.neg_count, path.pos_count, path.delta, path.alpha, d)
    return _SQRT2 * path.values - drift


def sup_functional(path: PathGrid, d: float, domain: Domain) -> SupRecord:
    """Evaluate the penalized supremum functional on one path.

    For ``Domain.HALF_LINE`` the points left of t = 0 are ignored.  The
    maximum is taken in log space and exponentiated once.
    """
    z = _penalized_field(path, d)
    included = z[path.neg_count :] if domain is Domain.HALF_LINE else z
    if included.size == 0:
        raise ValueError("no grid points included in the domain")
    z_max = float(included.max())
    return SupRecord(z_max=z_max, functional=float(np.exp(z_max)))


def subsampled_functionals(
    path: PathGrid, d: float, domain: Domain, strides: Sequence[int]
) -> list[SupRecord]:
    """Evaluate the functional on nested sub-grids {t = k * stride * delta}.

    Record i restricts the maximum to grid indices divisible by strides[i];
    stride 1 reproduces :func:`sup_functional`.  A stride beyond pos_count
    leaves only t = 0 on the half-line, giving functional 1.  This is the
    common-random-numbers workhorse: coarser grids are read off the same
    path, so paired differences between strides carry no between-path noise.
    """
    strides = [int(s) for s in strides]
    if not strides:
        raise ValueError("strides must be a nonempty list")
    for s in strides:
        if s < 1:
            raise ValueError(f"strides must be positive integers, got {s}")
    z = _penalized_field(path, d)
    neg = path.neg_count
    records = []
    for s in strides:
        if domain is Domain.HALF_LINE:
            sub = z[neg::s]
        else:
            sub = z[neg % s :: s]
        z_max = float(sub.max())
        records.append(SupRecord(z_max=z_max, functional=float(np.exp(z_max))))
    return records


def _batch_size(width: int) -> int:
    # ~32 MiB of normals per batch (and as much complex spectrum where an
    # embedding is used); fixed by the row width alone so batching never
    # depends on the thread count.
    return max(16, min(4096, (1 << 22) // max(width, 1)))


def _simulate_functionals(
    config: EstimatorConfig, strides: Sequence[int], threads: int = 1
) -> np.ndarray:
    """Per-replication functionals, shape (replications, len(strides)).

    Row r reproduces bit-for-bit what the per-path pipeline
    (replication_stream -> sample_two_sided_path -> rescale_path ->
    subsampled_functionals) yields for replication r; the batching here only
    amortizes the FFTs.  Like the per-path sampler, alpha = 1 and single-
    increment grids skip the embedding and use n iid normals per row.

    Each worker gets one set of batch buffers, allocated here on the
    calling thread and reused for all of its batches, so memory follows
    from the config and the worker count alone: pool threads allocate
    nothing large, and a lone batch runs on the calling thread.
    """
    neg, pos = config.side_counts()
    n = neg + pos
    strides = [int(s) for s in strides]
    if not strides:
        raise ValueError("strides must be a nonempty list")
    for s in strides:
        if s < 1:
            raise ValueError(f"strides must be positive integers, got {s}")

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
        # Normals (overwritten by the fGn), half-spectrum, path values.
        w = None if iid else np.empty((bsize, width // 2 + 1), dtype=np.complex128)
        return np.empty((bsize, width)), w, np.empty((bsize, n + 1))

    def run(start: int, z: np.ndarray, w: np.ndarray | None, values: np.ndarray) -> None:
        rows = min(bsize, reps - start)
        z = z[:rows]
        for i in range(rows):
            replication_stream(config.seed, start + i).standard_normal(out=z[i])
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


def _aggregate(functionals: np.ndarray, config: EstimatorConfig) -> EstimateResult:
    reps = len(functionals)
    if config.d > 1.0:
        estimate = float(functionals.mean())
        if reps >= 2:
            stderr = float(functionals.std(ddof=1) / math.sqrt(reps))
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
