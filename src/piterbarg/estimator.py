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

A replication draws one row of normals and maps it to its path in one of
three ways, which ``_row_map`` picks and ``_map_rows`` applies, for the
engine and ``sample_two_sided_path`` alike.  At alpha = 1 (and for a single
increment) the row holds the n increments, iid.  Otherwise, on grids of at
most ``_DENSE_MAX_N`` increments, it holds n normals, which one product with
the dense map of ``fbm._dense_map`` turns into the scaled path values.  On
longer grids it holds the m normals of the circulant embedding.  Under
stream contract v4, rows are grouped into blocks of B, the largest power of
two with B * width <= 2^17 (at least 1), so B depends on the row width alone.
Block b is the stream ``SFC64(SeedSequence(seed, spawn_key=(b,)))``, which
is ``SeedSequence(seed).spawn(b + 1)[b]``, numpy's spawning recipe, drawn
row after row; replication r is row r mod B of block r // B.  Batches start
on block boundaries, and dense rows are multiplied in fixed chunks of
``_gemm_rows(n)`` rows that tile the blocks, so results are bit-identical
no matter how replications are batched or spread over threads.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fbm import (
    _cached,
    _check_alpha,
    _check_count,
    _check_real,
    circulant_spectrum,
    _dense_map,
    _fgn_from_normals,
    _next_fast_len,
    _two_sided_values,
)

__all__ = [
    "Domain",
    "EstimatorConfig",
    "EstimateResult",
    "estimate_constant",
    "sample_two_sided_path",
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
        _check_real("penalty d", self.d)
        if not isinstance(self.domain, Domain):
            raise ValueError(f"domain must be a Domain, got {self.domain!r}")
        _check_real("delta", self.delta)
        _check_real("horizon", self.horizon)
        if self.delta > self.horizon:
            raise ValueError(
                f"delta={self.delta} exceeds horizon={self.horizon}: empty grid"
            )
        _check_count("replications", self.replications)
        _check_count("seed", self.seed, 0, 2**64, "be an integer that fits in 64 unsigned bits")
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


def _block_rows(width: int) -> int:
    # Largest power of two B with B * width <= 2^17, and at least 1: one
    # generator build (about 20 us, under the GIL) and one standard_normal
    # call, run without the GIL, per block.  A block is also a batch, about
    # 2 MiB of buffers (one core's L2).  Fixed by the row width alone, so
    # the stream never depends on the thread count.
    return 1 << max(0, ((1 << 17) // width).bit_length() - 1)


# A batch that runs an FFT keeps at least this many rows: numpy builds its
# FFT plan anew on every call (about 170 us at m = 90000, page faults
# aside), and a 2-row floor, though it would save 5.4 MiB of peak RSS on the
# gap study's grid, made that run 12-17% slower through the extra page
# faults of buffers that glibc returns to the system and maps again.
_FFT_MIN_ROWS = 4

# Grids of at most this many increments (alpha != 1) map n normals through
# the dense (n, n + 1) matrix of ``fbm._dense_map`` instead of embedding:
# the largest n whose products take 4 rows or more (``_gemm_rows``).  On one
# core such a row costs about half an FFT row (4.4 against 8.9 us at n = 172,
# 7.2 against 12.0 at n = 255); at 2 rows a product it costs about as much.
_DENSE_MAX_N = 255

# OpenBLAS runs a product of at most this many multiply-adds on the calling
# thread (64Ki times its GEMM_MULTITHREAD_THRESHOLD of 4), larger ones on
# its own thread pool, which the engine's workers would then oversubscribe.
_GEMM_MAX_MADDS = 1 << 18


def _gemm_rows(n: int) -> int:
    """Rows per dense product: the largest power of two c with c n (n + 1) <= 2^18.

    At least 1; ``_DENSE_MAX_N`` keeps it at 4 or more, so no product is a
    one-row gemv, which rounds differently from a gemm.
    """
    return 1 << max(0, (_GEMM_MAX_MADDS // (n * (n + 1))).bit_length() - 1)


@dataclass(frozen=True)
class _RowMap:
    """How a row of ``width`` normals becomes a path of n + 1 values anchored at
    column ``neg``: "iid" (the n increments), "dense" (n normals times
    ``fbm._dense_map``) or "circulant" (the m normals of the embedding)."""

    kind: str
    alpha: float
    neg: int
    n: int
    width: int


def _row_map(alpha: float, neg: int, pos: int) -> _RowMap:
    """The row map of the unit grid -neg..pos, the engine's and the sampler's."""
    n = neg + pos
    if n == 1 or alpha == 1.0:  # gamma(k) = 0 for k >= 1: iid N(0, 1)
        return _RowMap("iid", alpha, neg, n, n)
    if n <= _DENSE_MAX_N:
        return _RowMap("dense", alpha, neg, n, n)
    return _RowMap("circulant", alpha, neg, n, _next_fast_len(2 * (n - 1)))


def _row_bytes(rmap: _RowMap) -> int:
    # Normals, and the complex half-spectrum where there is an embedding,
    # whose m + 2 floats then take the n + 1 path values; else the values.
    width = rmap.width
    return 8 * width + (16 * (width // 2 + 1) if rmap.kind == "circulant" else 8 * (rmap.n + 1))


def _batch_rows(rmap: _RowMap) -> int:
    """Rows per batch: one stream block, or ``_FFT_MIN_ROWS`` where an FFT runs
    and the block is shorter (blocks are powers of two, so whole blocks).
    ``_batch_plan`` cuts it to one block where only that fits in memory."""
    block = _block_rows(rmap.width)
    return max(block, _FFT_MIN_ROWS) if rmap.kind == "circulant" else block


@dataclass(frozen=True)
class _BatchPlan:
    """How a run's rows are batched, shared among workers and held in memory."""

    block: int  # rows per stream block
    rows: int  # rows per batch buffer
    shares: tuple[tuple[int, int], ...]  # (first row, stop row) per worker
    nbytes: int  # drift, spectrum or dense map, output table, every worker's buffers


def _batch_plan(reps: int, rmap: _RowMap, threads: int, columns: int) -> _BatchPlan:
    """Contiguous near-equal block shares, one per worker, walked in batches.

    The run's ``N`` blocks go to ``W = min(threads, N)`` workers, worker k
    taking blocks ``[k N / W, (k + 1) N / W)``.  Dense rows run their
    products ``_gemm_rows(n)`` rows at a time, so their buffers hold whole
    such chunks even where a share is shorter.  Raises ValueError for a
    thread count below 1, and for a run whose memory, worked out here before
    anything is allocated, exceeds ``_memory_limit()`` at one block per
    batch.
    """
    threads = _check_count("threads", threads)
    n, width = rmap.n, rmap.width
    block = _block_rows(width)
    nblocks = -(-reps // block)
    workers = min(threads, nblocks)
    shares = tuple(
        (min(reps, k * nblocks // workers * block),
         min(reps, (k + 1) * nblocks // workers * block))
        for k in range(workers)
    )
    rows = min(_batch_rows(rmap), max(hi - lo for lo, hi in shares))
    if rmap.kind == "dense":
        rows = -(-rows // _gemm_rows(n)) * _gemm_rows(n)
    # Drift and output table, the spectrum at the peak of its build (the
    # autocovariances, the first row, and the complex input and output of
    # its FFT; it then holds less) or the dense map and the Schur factor it
    # is cumulated from, and one set of batch buffers per worker.
    fixed = 8 * (n + 1) + 8 * reps * columns
    if rmap.kind == "circulant":
        fixed += 8 * (width // 2 + 1) + 8 * width + 32 * width
    if rmap.kind == "dense":
        fixed += 8 * n * (n + 1) + 8 * n * n
    limit, source = _memory_limit()
    if fixed + workers * rows * _row_bytes(rmap) > limit:
        rows = min(rows, block)  # the batch floors yield to memory
    nbytes = fixed + workers * rows * _row_bytes(rmap)
    if nbytes > limit:
        m = width if rmap.kind == "circulant" else "none"
        raise ValueError(
            f"a run with n={n} increments and embedding length m={m} needs "
            f"{nbytes} bytes, more than the {limit} bytes of {source}"
        )
    return _BatchPlan(block, rows, shares, nbytes)


def _cgroup_memory_max() -> tuple[int, str] | None:
    """(bytes, file name) of this process's cgroup (v1 or v2) memory limit.

    None if no limit is readable or the limit is "max".
    """
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
            return None if text == "max" else (int(text), leaf)
        except (OSError, ValueError):
            continue
    return None


def _memory_limit() -> tuple[int, str]:
    """(bytes, what they are): physical memory, or the cgroup's limit if smaller."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    cgroup = _cgroup_memory_max()
    if cgroup is not None and cgroup[0] < physical:
        return cgroup[0], f"the cgroup's {cgroup[1]}"
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


def _row_operator(rmap: _RowMap, gains: Sequence[float]):
    """None (iid rows), the cached spectrum, or the cached dense map times the
    product of ``gains``."""
    if rmap.kind == "dense":
        return _cached(_dense_map, rmap.alpha, rmap.n, rmap.neg, math.prod(gains))
    return _cached(circulant_spectrum, rmap.alpha, rmap.n) if rmap.kind == "circulant" else None


def _row_buffers(rmap: _RowMap, rows: int) -> tuple:
    """Normals (later the fGn), half-spectrum and path values for ``rows`` rows;
    the values take the floats of the half-spectrum once the irfft has
    consumed it, row after row, so the elementwise passes run unbroken."""
    n, embedded = rmap.n, rmap.kind == "circulant"
    w = np.empty((rows, rmap.width // 2 + 1), dtype=np.complex128) if embedded else None
    flat = w.view(np.float64).reshape(-1) if embedded else np.empty(rows * (n + 1))
    return np.empty((rows, rmap.width)), w, flat[: rows * (n + 1)].reshape(rows, n + 1)


def _dense_product(z: np.ndarray, gmap: np.ndarray, values: np.ndarray, rows: int) -> None:
    """values[:rows] = z[:rows] @ gmap, one (c, n) @ (n, n + 1) product per
    chunk of c = ``_gemm_rows(n)`` rows, the last one padded with zero rows;
    a buffer shorter than a chunk (the sampler's) is one product of its rows."""
    n = gmap.shape[0]
    c = min(_gemm_rows(n), len(z))
    padded = -(-rows // c) * c
    z[rows:padded] = 0.0
    np.matmul(z[:padded].reshape(-1, c, n), gmap,
              out=values[:padded].reshape(-1, c, n + 1))


def _map_rows(rmap: _RowMap, z: np.ndarray, w: np.ndarray | None, values: np.ndarray,
              rows: int, gains: Sequence[float] = ()) -> None:
    """Paths of the normals z[:rows] into values[:rows], in ``_row_buffers``:
    iid and circulant paths multiplied by each of ``gains`` in turn, dense
    ones by their product, folded into the map."""
    op = _row_operator(rmap, gains)
    if rmap.kind == "dense":
        _dense_product(z, op, values, rows)
        return
    fgn = z[:rows]
    if rmap.kind == "circulant":
        fgn = _fgn_from_normals(op, fgn, w[:rows])[:, : rmap.n]
    field = _two_sided_values(fgn, rmap.neg, out=values[:rows])
    for gain in gains:
        np.multiply(field, gain, out=field)


def sample_two_sided_path(
    alpha: float, neg_count: int, pos_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample a two-sided fBM path on the unit grid -neg_count..pos_count.

    One stationary fGn sequence of length ``neg_count + pos_count`` is drawn
    and cumulated around the t = 0 anchor, so the resulting grid process has
    exactly the fBM covariance: Var B(k) = |k|^alpha with stationary
    increments.  It is one row of the engine's ``_row_map``, drawn from
    ``rng`` (n normals, or the m of an embedding) into buffers laid out as
    the engine's; a dense row is padded to the 4 rows of the engine's
    smallest product.  Returns B(k) for k = -neg_count..pos_count, so
    ``values[neg_count]`` is exactly 0; times delta^(alpha/2), the path on
    the delta grid.
    """
    alpha = _check_alpha(alpha)
    neg_count = _check_count("neg_count", neg_count, 0, rule="be a nonnegative integer")
    pos_count = _check_count("pos_count", pos_count, 0, rule="be a nonnegative integer")
    if neg_count + pos_count < 1:
        raise ValueError("need at least one increment across both sides")
    rmap = _row_map(alpha, neg_count, pos_count)
    z, w, values = _row_buffers(rmap, _gemm_rows(_DENSE_MAX_N) if rmap.kind == "dense" else 1)
    rng.standard_normal(out=z[0])
    _map_rows(rmap, z, w, values, 1)
    return values[0].copy()


def _simulate_functionals(
    config: EstimatorConfig, strides: Sequence[int], threads: int = 1
) -> np.ndarray:
    """Per-replication functionals, shape (replications, len(strides)).

    Row r is what the per-path reference in ``tests/oracle.py`` yields for
    replication r: row r mod B of the SFC64 stream of block r // B under
    stream contract v4, one path, a self-similarity rescale and the sup over
    each stride's sub-grid (positive integers; the callers validate them).
    It is the same bit for bit where the row holds iid increments or an
    embedding; the batching here only amortizes the FFTs.  Dense rows are
    multiplied in chunks of c = ``_gemm_rows(n)`` rows (``_dense_product``),
    so that a row's result depends on its own normals alone, never on the
    batching, the thread count or a one-row product (which BLAS computes as
    a gemv, rounding differently); the oracle's LAPACK factor and gemv agree
    with them to rounding.

    ``_batch_plan`` lays the run out before anything is allocated: each
    worker gets one contiguous share of whole blocks of ``_block_rows(width)``
    rows and walks it one block a batch (``_batch_rows``), whatever the
    replication count, with one set of ``_row_buffers`` built here on the
    calling thread and reused for all of its batches.  So memory follows
    from the config and the worker count alone: pool threads allocate
    nothing large, and a run with one worker runs on the calling thread.
    ``_fill_normals`` builds the generator of each block (B * width <= 2^17
    normals) where it draws it, so no generator is shared between threads.
    """
    neg, pos = config.side_counts()
    rmap = _row_map(config.alpha, neg, pos)
    reps = int(config.replications)
    plan = _batch_plan(reps, rmap, threads, len(strides))
    # sqrt(2) * (scale * values): folded into the dense map, else in place.
    gains = (config.delta ** (config.alpha / 2.0), _SQRT2)
    _row_operator(rmap, gains)  # built once, here, not by two workers at once
    drift = _drift(neg, pos, config.delta, config.alpha, config.d)
    out = np.empty((reps, len(strides)))

    def run(start: int, rows: int, z: np.ndarray, w: np.ndarray | None,
            values: np.ndarray) -> None:
        _fill_normals(config.seed, z[:rows], start // plan.block, plan.block)
        _map_rows(rmap, z, w, values, rows, gains)
        field = values[:rows]
        np.subtract(field, drift, out=field)
        for j, s in enumerate(strides):
            start_col = neg if config.domain is Domain.HALF_LINE else neg % s
            out[start : start + rows, j] = np.exp(field[:, start_col::s].max(axis=1))

    def work(k: int, space: tuple) -> None:
        lo, hi = plan.shares[k]
        for start in range(lo, hi, plan.rows):
            run(start, min(plan.rows, hi - start), *space)

    spaces = [_row_buffers(rmap, plan.rows) for _ in plan.shares]
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
    stderr = ci_low = ci_high = None
    if config.d > 1.0:
        method = "sample-mean"
        estimate = float(functionals.mean())
        if reps >= 2:
            stderr = _std_error(functionals)
            ci_low, ci_high = estimate - _Z95 * stderr, estimate + _Z95 * stderr
    else:
        # d <= 1: infinite variance, CLT intervals invalid; median-of-means
        # over contiguous blocks (replication order is already exchangeable).
        method = "median-of-means"
        blocks = min(_MOM_BLOCKS, reps)
        block_means = np.sort([b.mean() for b in np.array_split(functionals, blocks)])
        estimate = float(np.median(block_means))
        rank = _mom_ci_rank(blocks)
        if rank is not None:
            ci_low = float(block_means[rank - 1])
            ci_high = float(block_means[blocks - rank])
    return EstimateResult(estimate, stderr, ci_low, ci_high, method, reps, config)


def estimate_constant(config: EstimatorConfig, threads: int = 1) -> EstimateResult:
    """Estimate the discrete truncated Piterbarg constant for ``config``.

    Runs ``config.replications`` independent path simulations (unit-grid
    draw, self-similarity rescale to ``config.delta``, penalized supremum)
    and aggregates by sample mean for d > 1 or median-of-means for d <= 1.
    The result is deterministic given (config, seed) at any thread count.
    """
    functionals = _simulate_functionals(config, strides=(1,), threads=threads)
    return _aggregate(functionals[:, 0], config)
