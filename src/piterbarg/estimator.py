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

A replication draws one row of normals: its n increments directly as iid
normals at alpha = 1, otherwise the m normals of the circulant embedding.
Under stream contract v3, rows are grouped into blocks of B, the largest
power of two with B * width <= 2^17 (at least 1), so B depends on the row
width alone.  Block b is the stream
``SFC64(SeedSequence(seed, spawn_key=(b,)))``, which is
``SeedSequence(seed).spawn(b + 1)[b]``, numpy's spawning recipe, drawn row
after row; replication r is row r mod B of block r // B.  Batches start on
block boundaries, so results are bit-identical no matter how replications
are batched or spread over threads.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fbm import (
    _cached_spectrum,
    _check_alpha,
    _fgn_from_normals,
    _next_fast_len,
    _two_sided_values,
)

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
    count = horizon / delta * (1.0 + 1e-12) + 1e-12
    if not math.isfinite(count):
        raise ValueError(
            f"the grid of spacing delta={delta} up to horizon T={horizon} has "
            f"T/delta = {count} points, which is not a finite count"
        )
    return int(math.floor(count))


def _check_positive(name: str, value: float) -> float:
    """``value`` as a float, if it is positive and finite; else ValueError."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


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
        _check_positive("penalty d", self.d)
        if not isinstance(self.domain, Domain):
            raise ValueError(f"domain must be a Domain, got {self.domain!r}")
        _check_positive("delta", self.delta)
        _check_positive("horizon", self.horizon)
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
        self.side_counts()  # a grid too fine to count fails here, not mid-run

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


def _block_rows(width: int) -> int:
    # Largest power of two B with B * width <= 2^17, and at least 1: one
    # generator build (about 20 us, under the GIL) and one standard_normal
    # call, run without the GIL, per block of rows.  Fixed by the row width
    # alone, so the stream never depends on the thread count.
    return 1 << max(0, ((1 << 17) // width).bit_length() - 1)


# Working set of one batch: its normals, complex half-spectrum and path
# values fit one core's L2 cache.
_BATCH_BYTES = 2 << 20

# numpy builds its FFT plan anew on every call, so a batch that runs an FFT
# keeps at least this many rows to spread that cost.
_FFT_MIN_ROWS = 4


def _row_bytes(n: int, width: int, embedded: bool) -> int:
    # Normals, and the complex half-spectrum where there is an embedding,
    # whose m + 2 floats then take the n + 1 path values; else the values.
    return 8 * width + (16 * (width // 2 + 1) if embedded else 8 * (n + 1))


def _batch_rows(n: int, width: int, embedded: bool) -> int:
    """Rows per batch: whole blocks that fit ``_BATCH_BYTES``, at least one block.

    Where an FFT runs, at least ``_FFT_MIN_ROWS`` rows (blocks are powers of
    two, so the floor is whole blocks too).  Fixed by the row shape alone;
    ``_batch_plan`` cuts it to one block where only that fits in memory.
    """
    fit = _BATCH_BYTES // _row_bytes(n, width, embedded)
    if embedded:
        fit = max(fit, _FFT_MIN_ROWS)
    block = _block_rows(width)
    return block * max(1, fit // block)


@dataclass(frozen=True)
class _BatchPlan:
    """How a run's rows are batched, shared among workers and held in memory."""

    block: int  # rows per stream block
    rows: int  # rows per batch buffer
    shares: tuple[tuple[int, int], ...]  # (first row, stop row) per worker
    nbytes: int  # drift, spectrum, output table and every worker's buffers


def _batch_plan(reps: int, n: int, width: int, embedded: bool, threads: int,
                columns: int) -> _BatchPlan:
    """Contiguous near-equal block shares, one per worker, walked in batches.

    The run's ``N`` blocks go to ``W = min(threads, N)`` workers, worker k
    taking blocks ``[k N / W, (k + 1) N / W)``.  Raises ValueError for a
    thread count below 1, and for a run whose memory, worked out here before
    anything is allocated, exceeds ``_memory_limit()`` at one block per batch.
    """
    if not _is_integer(threads) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    block = _block_rows(width)
    nblocks = -(-reps // block)
    workers = min(threads, nblocks)
    shares = tuple(
        (min(reps, k * nblocks // workers * block),
         min(reps, (k + 1) * nblocks // workers * block))
        for k in range(workers)
    )
    rows = min(_batch_rows(n, width, embedded), max(hi - lo for lo, hi in shares))
    # Drift and output table, the spectrum at the peak of its build (the
    # autocovariances, the first row, and the complex input and output of
    # its FFT; it then holds less), and one set of batch buffers per worker.
    fixed = 8 * (n + 1) + 8 * reps * columns
    if embedded:
        fixed += 8 * (width // 2 + 1) + 8 * width + 32 * width
    limit, source = _memory_limit()
    if fixed + workers * rows * _row_bytes(n, width, embedded) > limit:
        rows = min(rows, block)  # the batch floors yield to memory
    nbytes = fixed + workers * rows * _row_bytes(n, width, embedded)
    if nbytes > limit:
        m = width if embedded else "none"
        raise ValueError(
            f"a run with n={n} increments and embedding length m={m} needs "
            f"{nbytes} bytes, more than the {limit} bytes of {source}"
        )
    return _BatchPlan(block, rows, shares, nbytes)


def _cgroup_memory_max() -> int | None:
    """This process's cgroup (v1 or v2) memory limit; None if unreadable or "max"."""
    try:
        with open("/proc/self/cgroup", encoding="ascii") as fh:
            entries = [line.strip().split(":", 2) for line in fh]
    except OSError:
        return None
    # The first readable limit of an N:memory:<path> (v1) or 0::<path> (v2) line.
    for _, kind, path in (e for e in entries if len(e) == 3 and e[1] in ("", "memory")):
        leaf = "memory.limit_in_bytes" if kind else "memory.max"
        try:
            with open(os.path.join("/sys/fs/cgroup", kind, path.lstrip("/"), leaf),
                      encoding="ascii") as fh:
                text = fh.read().strip()
            return None if text == "max" else int(text)
        except (OSError, ValueError):
            continue
    return None


def _memory_limit() -> tuple[int, str]:
    """(bytes, what they are): physical memory, or the cgroup's limit if smaller."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    cgroup = _cgroup_memory_max()
    if cgroup is not None and cgroup < physical:
        return cgroup, "the cgroup's memory.max"
    return physical, "physical memory"


def _fill_normals(seed: int, z: np.ndarray, first: int, block: int) -> None:
    """Fill the rows of ``z`` from blocks first, first + 1, ... of ``block`` rows.

    Block b is the stream ``SFC64(SeedSequence(seed, spawn_key=(b,)))``,
    built afresh for each block.  Each block is one ``standard_normal``
    call, which draws row after row, so a short last block is a prefix of
    its full block.
    """
    for b, i in enumerate(range(0, len(z), block), start=first):
        bits = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,)))
        np.random.Generator(bits).standard_normal(out=z[i : i + block])


def _simulate_functionals(
    config: EstimatorConfig, strides: Sequence[int], threads: int = 1
) -> np.ndarray:
    """Per-replication functionals, shape (replications, len(strides)).

    Row r reproduces bit-for-bit what the per-path reference in
    ``tests/oracle.py`` yields for replication r (row r mod B of the SFC64
    stream of block r // B under stream contract v3, one path, a
    self-similarity rescale and the sup over each stride's sub-grid); the
    batching here only amortizes the FFTs.  Like the path sampler, alpha = 1
    and single-increment grids skip the embedding and use n iid normals per
    row.

    ``_batch_plan`` lays the run out before anything is allocated: each
    worker gets one contiguous share of whole blocks of ``_block_rows(width)``
    rows, and walks it in batches whose working set is about
    ``_BATCH_BYTES``, whatever the replication count.  Each worker gets one
    set of batch buffers, built here on the calling thread and reused for
    all of its batches: the normals, which the fGn overwrites, and the
    complex half-spectrum, whose m + 2 floats a row take the path values once
    the irfft has consumed it (at alpha = 1, normals and values).  So memory
    follows from the config and the worker count alone: pool threads
    allocate nothing large, and a run with one worker runs on the calling
    thread.  ``_fill_normals`` builds the generator of each block
    (B * width <= 2^17 normals) where it draws it, so no generator is
    shared between threads.
    """
    neg, pos = config.side_counts()
    n = neg + pos
    strides = _check_strides(strides)

    iid = n == 1 or config.alpha == 1.0
    width = n if iid else _next_fast_len(2 * (n - 1))
    reps = int(config.replications)
    plan = _batch_plan(reps, n, width, not iid, threads, len(strides))
    spectrum = None if iid else _cached_spectrum(config.alpha, n)
    scale = config.delta ** (config.alpha / 2.0)
    drift = _drift(neg, pos, config.delta, config.alpha, config.d)
    out = np.empty((reps, len(strides)))

    def buffers():
        # Normals (later the fGn) and half-spectrum (later the path values,
        # packed row after row so that the elementwise passes run unbroken).
        rows = plan.rows
        w = None if iid else np.empty((rows, width // 2 + 1), dtype=np.complex128)
        flat = np.empty(rows * (n + 1)) if iid else w.view(np.float64).reshape(-1)
        return np.empty((rows, width)), w, flat[: rows * (n + 1)].reshape(rows, n + 1)

    def run(start: int, rows: int, z: np.ndarray, w: np.ndarray | None,
            values: np.ndarray) -> None:
        z = z[:rows]
        _fill_normals(config.seed, z, start // plan.block, plan.block)
        fgn = z if iid else _fgn_from_normals(spectrum, z, w[:rows], out=z)[:, :n]
        field = _two_sided_values(fgn, neg, out=values[:rows])
        # sqrt(2) * (scale * values) - drift, in place.
        np.multiply(field, scale, out=field)
        np.multiply(field, _SQRT2, out=field)
        np.subtract(field, drift, out=field)
        for j, s in enumerate(strides):
            start_col = neg if config.domain is Domain.HALF_LINE else neg % s
            out[start : start + rows, j] = np.exp(field[:, start_col::s].max(axis=1))

    def work(k: int, space: tuple) -> None:
        lo, hi = plan.shares[k]
        for start in range(lo, hi, plan.rows):
            run(start, min(plan.rows, hi - start), *space)

    spaces = [buffers() for _ in plan.shares]
    if len(spaces) > 1:
        with ThreadPoolExecutor(max_workers=len(spaces)) as pool:
            list(pool.map(work, range(len(spaces)), spaces))
    else:
        work(0, spaces[0])
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
