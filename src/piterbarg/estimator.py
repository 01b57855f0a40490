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

Each stream row of normals maps to paths in one of two ways, which
``_row_map`` picks and ``_map_rows`` applies, for the engine and
``sample_two_sided_path`` alike.  At alpha = 1 (and for a single increment)
the row holds the n increments, iid.  Otherwise it holds the m normals of
the circulant embedding, m the smallest even 5-smooth length >= 2n, which
map to m fGn values.  Either way the row's ``width`` increments are
cyclically stationary (trivially for iid values; for the embedding because
its covariance is circulant), so every cyclic window of n of them is exact
fGn (n <= m/2 + 1 on circulant rows).  The engine reads each row as such a
ring, from four evenly spaced starts: four windows, each exact in law, not
independent of each other.  Since -B has the law of B, each window's path
values v give two paths, v and its sign flip -v (an antithetic pair).  On
the half line a window's increments read backwards are exact fGn too (the
covariance depends on the lag alone), so v also gives its time reversal
v~_j = v_n - v_{n-j} and that path's flip, whose functionals depend on the
increments near T where v's depend on those near 0.  A row yields 8 paths
on the full line and 16 on the half line.

Stream contract v9: rows are grouped into blocks of B, the largest power of
two with B * width <= 2^17 (at least 1), so B depends on the row width alone.
Block b is the stream ``SFC64(SeedSequence(seed, spawn_key=(b,)))``, which
is ``SeedSequence(seed).spawn(b + 1)[b]``, numpy's spawning recipe, drawn
row after row; stream row e is row e mod B of block e // B.  A row's ring
is its n normals (iid) or its m fGn values (circulant), cumulated once into
width + 1 prefix sums S, S[0] = 0, and multiplied by the rescale
delta^(alpha/2) and then by sqrt(2).  Window p in {0, 1, 2, 3} starts at
o = floor(p * width / 4) and is read cyclically, anchored at column neg:
its value j is S[o + j] - S[o + neg], with S[width] added to each term read
past the ring's end.  Replication r is variant r mod V of window
(r // V) mod 4 of stream row r // (4 V), V = 2 on the full line and 4 on
the half line; variant 0 is the window's path v, 1 its flip -v, 2 its
reversal v~ and 3 the flip -v~.  On the half line window 0 of every row is,
bit for bit, contract v8's first window of that row; the circulant windows
0 and 2 start where v8's two did, and the iid window 0 is v8's one.  (On
the full line a reversal adds nothing: with neg = pos it is t -> -t with a
flip, and the symmetric drift gives it the flip's functional.)  A run that
ends inside a row keeps that row's first paths, so it is the first
replications of any longer one.  Batches start on block boundaries and a
row's values depend on its own normals alone, so results are bit-identical
no matter how replications are batched or spread over threads.

Every reported error treats a stream row, not a path, as the independent
unit: the CLT stderr is computed from per-row sums of deviations
(``_std_error``), and median-of-means blocks are runs of whole rows.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fbm import (
    _cached,
    _check_alpha,
    _check_count,
    _check_real,
    _embedding_spectrum,
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

    ``stderr`` is present only for the sample-mean method over at least two
    stream rows; median-of-means reports an order-statistic interval instead
    (``ci_low``/``ci_high`` may be absent for very small replication counts).
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


# Windows read off each stream row's ring (stream contract v9).
_WINDOWS = 4

# numpy's ufunc buffer size, in elements, while ``_window`` forms a window.
_WINDOW_BUFSIZE = 256


@dataclass(frozen=True)
class _RowMap:
    """How a stream row of ``width`` normals becomes ``paths`` replications:
    "iid" rows hold the n increments, "circulant" ones the m normals of the
    embedding, which map to m fGn values.  Either way the row's ``width``
    increments are a ring, read from ``_WINDOWS`` evenly spaced starts as
    paths of n + 1 values anchored at column ``neg``, and each window gives
    ``variants`` replications: its path and sign flip, and on the half line
    (neg = 0) also their time reversals (stream contract v9).  On an iid
    row of n <= 3 increments some starts coincide (all four at n = 1), and
    their windows are the same path: the row stays the error unit, so the
    estimate and its error stay right, on fewer distinct paths a row."""

    kind: str
    alpha: float
    neg: int
    n: int
    width: int

    @property
    def variants(self) -> int:
        """Replications per window: v and -v, and v~ and -v~ on the half line."""
        return 2 if self.neg else 4

    @property
    def paths(self) -> int:
        """Replications per stream row, the unit of every reported error."""
        return _WINDOWS * self.variants


def _row_map(alpha: float, neg: int, pos: int) -> _RowMap:
    """The row map of the unit grid -neg..pos, the engine's and the sampler's."""
    n = neg + pos
    if n == 1 or alpha == 1.0:  # gamma(k) = 0 for k >= 1: iid N(0, 1)
        return _RowMap("iid", alpha, neg, n, n)
    return _RowMap("circulant", alpha, neg, n, _next_fast_len(2 * n))


def _row_bytes(rmap: _RowMap) -> int:
    # Normals, at least n + 1 floats, which hold each window's field in turn
    # once the ring is cumulated, and the ring's width + 1 prefix sums: in
    # the complex half-spectrum's m + 2 floats where there is an embedding
    # (the irfft has consumed it by then), else in a buffer of their own.
    # The variants reuse a window's field in place.
    width = rmap.width
    if rmap.kind == "circulant":
        return 8 * width + 16 * (width // 2 + 1)
    return 16 * (width + 1)


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
    rows: int  # stream rows per batch buffer
    shares: tuple[tuple[int, int], ...]  # (first, stop) stream row per worker
    nbytes: int  # drift, spectrum, output table, every worker's buffers


def _batch_plan(reps: int, rmap: _RowMap, threads: int, columns: int) -> _BatchPlan:
    """Contiguous near-equal block shares, one per worker, walked in batches.

    ``reps`` replications take ``ceil(reps / rmap.paths)`` stream rows (8
    replications a row on the full line, 16 on the half line), and the
    table holds ``reps`` rows of ``columns``.  The rows' ``N`` blocks go
    to ``W = min(threads, CPUs, N)`` workers, CPUs being ``_cpu_count()``,
    worker k taking blocks ``[k N / W, (k + 1) N / W)``.  Raises ValueError
    for a thread count below 1, and for a run whose memory, worked out here
    before anything is allocated, exceeds ``_memory_limit()`` at one block
    per batch.
    """
    threads = _check_count("threads", threads)
    n, width = rmap.n, rmap.width
    block = _block_rows(width)
    stream = -(-reps // rmap.paths)
    nblocks = -(-stream // block)
    workers = min(threads, _cpu_count(), nblocks)
    shares = tuple(
        (min(stream, k * nblocks // workers * block),
         min(stream, (k + 1) * nblocks // workers * block))
        for k in range(workers)
    )
    rows = min(_batch_rows(rmap), max(hi - lo for lo, hi in shares))
    # The drift and twice it, and on the half line the reversal's step and
    # twice the reversed drift (n + 1 floats each), the output table, the
    # spectrum at the peak of its build (the autocovariances, the first
    # row, and the complex input and output of its FFT; it then holds
    # less), and one set of batch buffers per worker.
    fixed = 8 * (n + 1) * (2 if rmap.neg else 4) + 8 * reps * columns
    if rmap.kind == "circulant":
        fixed += 8 * (width // 2 + 1) + 8 * width + 32 * width
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


def _cpu_count() -> int:
    """The CPUs this process may run on; all of them where affinity is unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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


def _row_operator(rmap: _RowMap):
    """None (iid rows) or the cached spectrum of length ``rmap.width``."""
    if rmap.kind == "circulant":
        return _cached(_embedding_spectrum, rmap.alpha, rmap.width)
    return None


def _row_buffers(rmap: _RowMap, rows: int) -> tuple:
    """Buffers for ``rows`` stream rows: the normals (later the fGn) as a
    (rows, width) view of ``flat``, the half-spectrum (or None), and the
    (rows, width + 1) ring prefix sums, which take the floats of the
    half-spectrum once the irfft has consumed it.  ``flat`` holds at least
    n + 1 floats a row, so that a window's field for every row fits in it
    once the prefix sums exist (``_window``)."""
    width, embedded = rmap.width, rmap.kind == "circulant"
    flat = np.empty(rows * max(width, rmap.n + 1))
    w = np.empty((rows, width // 2 + 1), dtype=np.complex128) if embedded else None
    sums = w.view(np.float64)[:, : width + 1] if embedded else np.empty((rows, width + 1))
    return flat[: rows * width].reshape(rows, width), w, sums, flat


def _map_rows(rmap: _RowMap, op, z: np.ndarray, w: np.ndarray | None, sums: np.ndarray,
              rows: int, gains: Sequence[float] = ()) -> np.ndarray:
    """The ring prefix sums of the normals z[:rows] in sums[:rows], from
    ``_row_buffers``, by ``op = _row_operator(rmap)``, multiplied by each of
    ``gains`` in turn; returns them.  A circulant row's ring is its (m,)
    fGn, an iid row's its n normals."""
    ring = z[:rows]
    if rmap.kind == "circulant":
        ring = _fgn_from_normals(op, ring, w[:rows])
    prefix = _two_sided_values(ring, out=sums[:rows])
    for gain in gains:
        np.multiply(prefix, gain, out=prefix)
    return prefix


def _window(rmap: _RowMap, prefix: np.ndarray, p: int, flat: np.ndarray) -> np.ndarray:
    """Window p of the rings whose prefix sums are ``prefix``, as a
    (rows, n + 1) view of ``flat``: S[o + j] - S[o + neg] for the start
    o = floor(p * width / 4), read cyclically, so that a term read past the
    ring's end (o + j > width) is S[o + j - width] + S[width] - S[o + neg].
    The columns before the wrap and those after it take one subtraction of
    a per-row shift each, the shift of the anchor's part its own S value
    (x - x is +0.0, so the anchor column is exactly 0)."""
    width, n = rmap.width, rmap.n
    o = p * width // _WINDOWS
    anchor = o + rmap.neg
    head = min(n + 1, width + 1 - o)  # the columns read before the wrap
    if anchor <= width:
        before = prefix[:, anchor, None]
        after = before - prefix[:, width, None]
    else:
        after = prefix[:, anchor - width, None]
        before = after + prefix[:, width, None]
    field = flat[: len(prefix) * (n + 1)].reshape(len(prefix), n + 1)
    with np.errstate():  # restores the buffer size on exit (numpy >= 2.0)
        # numpy 2.4 sends a strided (rows, k) operation through ufunc
        # buffers wherever k <= bufsize / 4: at the default 8192, three
        # 64 KiB buffers a call and a copy that made the wrapped windows'
        # subtractions 3-5 times slower (parts of 531-1591 columns)
        np.setbufsize(_WINDOW_BUFSIZE)
        np.subtract(prefix[:, o : o + head], before, out=field[:, :head])
        np.subtract(prefix[:, 1 : n + 2 - head], after, out=field[:, head:])
    return field


def sample_two_sided_path(
    alpha: float, neg_count: int, pos_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample a two-sided fBM path on the unit grid -neg_count..pos_count.

    One stationary fGn sequence of length ``neg_count + pos_count`` is drawn
    and cumulated around the t = 0 anchor, so the resulting grid process has
    exactly the fBM covariance: Var B(k) = |k|^alpha with stationary
    increments.  It is window 0 (the first n increments) of one row of the
    engine's ``_row_map``, drawn from ``rng`` (n normals, or the m of an
    embedding) into buffers laid out as the engine's.  Returns B(k) for
    k = -neg_count..pos_count, so ``values[neg_count]`` is exactly 0; times
    delta^(alpha/2), the path on the delta grid.
    """
    alpha = _check_alpha(alpha)
    neg_count = _check_count("neg_count", neg_count, 0, rule="be a nonnegative integer")
    pos_count = _check_count("pos_count", pos_count, 0, rule="be a nonnegative integer")
    if neg_count + pos_count < 1:
        raise ValueError("need at least one increment across both sides")
    rmap = _row_map(alpha, neg_count, pos_count)
    z, w, sums, flat = _row_buffers(rmap, 1)
    rng.standard_normal(out=z[0])
    prefix = _map_rows(rmap, _row_operator(rmap), z, w, sums, 1)
    return _window(rmap, prefix, 0, flat)[0].copy()


def _simulate_functionals(
    config: EstimatorConfig, strides: Sequence[int], threads: int = 1
) -> np.ndarray:
    """Per-replication functionals, shape (replications, len(strides)).

    Row r is what the per-path reference in ``tests/oracle.py`` yields for
    replication r under stream contract v9, bit for bit: its stream row
    (r // rmap.paths) of the SFC64 stream of its block, that row's ring
    prefix sums times the self-similarity rescale and sqrt(2), its window
    of the ring, and the sup over each stride's sub-grid of the penalized
    field of variant r mod ``rmap.variants`` of the window's path.  A stride
    is an integer from 1 to the positive side count, so that its sub-grid
    keeps a point besides the anchor; anything else is a ValueError before
    anything is built or drawn.  The batching here only amortizes the FFTs.

    ``_batch_plan`` lays the run out before anything is allocated: each
    worker gets one contiguous share of whole blocks of ``_block_rows(width)``
    stream rows and walks it one block a batch (``_batch_rows``), whatever the
    replication count, with one set of ``_row_buffers`` and the row operator
    built here on the calling thread and reused for all of its batches.  So
    memory follows from the config and the worker count alone: pool threads
    build nothing, and a run with one worker runs on the calling thread.
    A batch cumulates each row's ring once (``_map_rows``), then forms its
    four windows in turn in the normals buffer (``_window``, one pass each),
    and each window's variants take one in-place pass each over its field:
    v - drift (v's sup, by the max), v + drift (-v's, by the min), and on
    the half line v + rdrift and v - rdrift, rdrift = drift[::-1] (v~'s and
    -v~'s, by the min and the max over the reversed sub-grid of stride s,
    k = n mod s, against v_n read off the v + rdrift field so that both
    take exactly 0 at k = n).
    ``_fill_normals`` builds the generator of each block (B * width <= 2^17
    normals) where it draws it, so no generator is shared between threads.
    """
    neg, pos = config.side_counts()
    strides = [_check_count("stride", s, 1, pos + 1, f"be an integer from 1 to the {pos} "
                            "grid points of the positive side") for s in strides]
    rmap = _row_map(config.alpha, neg, pos)
    reps = int(config.replications)
    plan = _batch_plan(reps, rmap, threads, len(strides))
    if len(plan.shares) > 1:
        # Only a run with a pool loads it, and before the run's arrays: loaded
        # among live buffers, its objects kept the heap from shrinking below
        # them (0.4 MiB more peak RSS on the bench's Brownian validation).
        from concurrent.futures import ThreadPoolExecutor
    # sqrt(2) * (scale * values), in place.
    gains = (config.delta ** (config.alpha / 2.0), _SQRT2)
    op = _row_operator(rmap)
    drift = _drift(neg, pos, config.delta, config.alpha, config.d)
    twice = 2.0 * drift
    if rmap.variants == 4:  # the reversal's drift at k = n - j is drift[::-1]
        # twice[::-1] copied: read backwards through a reversed view, the
        # operand made -v~'s pass a third to a half slower (rows of 2121 and
        # 44977 floats)
        turn, back = drift[::-1] - drift, twice[::-1].copy()
    out = np.empty((reps, len(strides)))
    columns = [(j, neg % s, s) for j, s in enumerate(strides)]  # each sub-grid holds the anchor
    n, vs, paths = rmap.n, rmap.variants, rmap.paths

    def work(share: tuple, space: tuple) -> None:
        (lo, hi), (z, w, sums, flat) = share, space
        for start in range(lo, hi, plan.rows):
            rows = min(plan.rows, hi - start)
            _fill_normals(config.seed, z[:rows], start // plan.block, plan.block)
            prefix = _map_rows(rmap, op, z, w, sums, rows, gains)
            table = out[paths * start : paths * (start + rows)]  # the run's last row may be short
            for p in range(_WINDOWS):
                # window p's replications, v of row i at wins[i * paths + v];
                # each pass covers the rows that have its variant in the
                # table, fewer for the later ones of a short last row
                wins = table[p * vs :]
                if not len(wins):
                    break
                field = _window(rmap, prefix[: len(wins[0::paths])], p, flat)
                np.subtract(field, drift, out=field)
                for j, col, s in columns:
                    wins[0::paths, j] = np.exp(field[:, col::s].max(axis=1))
                field = field[: len(wins[1::paths])]
                np.add(field, twice, out=field)
                for j, col, s in columns:
                    wins[1::paths, j] = np.exp(-field[:, col::s].min(axis=1))
                if vs == 2:
                    continue
                field = field[: len(wins[2::paths])]
                np.add(field, turn, out=field)
                # v_n as this field holds it (rdrift_n = 0), so that both
                # reversals take exactly 0 at their anchor j = 0
                end = field[:, n].copy()
                for j, _, s in columns:
                    wins[2::paths, j] = np.exp(end - field[:, n % s :: s].min(axis=1))
                field = field[: len(wins[3::paths])]
                np.subtract(field, back, out=field)
                for j, _, s in columns:
                    wins[3::paths, j] = np.exp(field[:, n % s :: s].max(axis=1)
                                               - end[: len(field)])

    spaces = [_row_buffers(rmap, plan.rows) for _ in plan.shares]
    if len(spaces) > 1:
        with ThreadPoolExecutor(max_workers=len(spaces)) as pool:
            list(pool.map(work, plan.shares, spaces))
    else:
        work(plan.shares[0], spaces[0])
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


def _row_unit(config: EstimatorConfig) -> int:
    """Replications per independent stream row of ``config``'s grid: the unit
    over which every reported error is computed."""
    return _row_map(config.alpha, *config.side_counts()).paths


def _std_error(values: np.ndarray, unit: int) -> float:
    """CLT standard error of the mean of R values in G independent rows of
    ``unit`` (the last one may be short): sqrt(G / (G - 1) * sum_g S_g^2) / R,
    S_g the sum of row g's deviations from the mean.  Where ``unit`` divides
    R that is std(row means, ddof=1) / sqrt(G)."""
    reps = len(values)
    rows = -(-reps // unit)
    sums = np.add.reduceat(values - values.mean(), np.arange(0, reps, unit))
    return math.sqrt(rows / (rows - 1) * float(np.square(sums).sum())) / reps


def _aggregate(functionals: np.ndarray, config: EstimatorConfig) -> EstimateResult:
    reps = len(functionals)
    unit = _row_unit(config)
    rows = -(-reps // unit)
    stderr = ci_low = ci_high = None
    if config.d > 1.0:
        method = "sample-mean"
        estimate = float(functionals.mean())
        if rows >= 2:
            stderr = _std_error(functionals, unit)
            ci_low, ci_high = estimate - _Z95 * stderr, estimate + _Z95 * stderr
    else:
        # d <= 1: infinite variance, CLT intervals invalid; median-of-means
        # over contiguous blocks of whole rows (row order is already
        # exchangeable), cut where np.array_split cuts the rows.
        method = "median-of-means"
        blocks = min(_MOM_BLOCKS, rows)
        size, longer = divmod(rows, blocks)
        cuts = [unit * (k * size + min(k, longer)) for k in range(1, blocks)]
        block_means = np.sort([b.mean() for b in np.split(functionals, cuts)])
        # The median read off the sorted block means, the middle one or the
        # mean of the middle two: np.median's own value, without the NaN
        # check that imports numpy.ma.
        h = blocks // 2
        estimate = float(block_means[h] if blocks % 2
                         else (block_means[h - 1] + block_means[h]) / 2)
        rank = _mom_ci_rank(blocks)
        if rank is not None:
            ci_low = float(block_means[rank - 1])
            ci_high = float(block_means[blocks - rank])
    return EstimateResult(estimate, stderr, ci_low, ci_high, method, reps, config)


def estimate_constant(config: EstimatorConfig, threads: int = 1) -> EstimateResult:
    """Estimate the discrete truncated Piterbarg constant for ``config``.

    Runs ``config.replications`` path simulations (unit-grid draw,
    self-similarity rescale to ``config.delta``, penalized supremum), each
    of a stream row's four ring windows with its sign flip, and on the half
    line with their time reversals, so eight per row on the full line and
    sixteen on the half line, and aggregates by sample
    mean for d > 1 or median-of-means for d <= 1, with errors over the
    independent rows.
    The result is deterministic given (config, seed) at any thread count.
    """
    functionals = _simulate_functionals(config, strides=(1,), threads=threads)
    return _aggregate(functionals[:, 0], config)
