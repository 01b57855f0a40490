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
ring, from W evenly spaced starts, W = 8 where alpha < 1.8 and 4 from 1.8
on: W windows, each exact in law, not independent of each other.  Since
-B has the law of B, each window's path values v give two paths, v and its
sign flip -v (an antithetic pair).  On the half line a window's increments
read backwards are exact fGn too (the covariance depends on the lag
alone), so v also gives its time reversal v~_j = v_n - v_{n-j} and that
path's flip, whose functionals depend on the increments near T where v's
depend on those near 0.  A row yields 2 W paths
on the full line and 4 W on the half line; ``_simulate_functionals`` runs
the variants as the rows of one table, on long grids over the column
blocks of each window that a bound leaves as able to hold a maximum.

Stream contract v10: rows are grouped into blocks of B, the largest power of
two with B * width <= 2^17 (at least 1), so B depends on the row width alone.
Block b is the stream ``SFC64(SeedSequence(seed, spawn_key=(b,)))``, which
is ``SeedSequence(seed).spawn(b + 1)[b]``, numpy's spawning recipe, drawn
row after row; stream row e is row e mod B of block e // B.  A row's ring
is its n normals (iid) or its m fGn values (circulant), cumulated once into
width + 1 prefix sums S, S[0] = 0, and multiplied by the rescale
delta^(alpha/2) and then by sqrt(2).  With W = 8 where alpha < 1.8 and
W = 4 from 1.8 on, window p in {0, ..., W - 1} starts at
o = floor(p * width / W) and is read cyclically, anchored at column neg:
its value j is S[o + j] - S[o + neg], with S[width] added to each term read
past the ring's end.  Replication r is variant r mod V of window
(r // V) mod W of stream row r // (W V), V = 2 on the full line and 4 on
the half line; variant 0 is the window's path v, 1 its flip -v, 2 its
reversal v~ and 3 the flip -v~.  From alpha = 1.8 on that is contract v9
exactly; below it window 2k starts at floor(2k width / 8) =
floor(k width / 4), where v9's window k did, so v10's even windows are
v9's, bit for bit, in a new replication order.  On the half line window 0
of every row is, bit for bit, contract v8's first window of that row; the
circulant windows 0 and W/2 start where v8's two did, and the iid window
0 is v8's one.  (On the full line a reversal adds nothing: with neg = pos
it is t -> -t with a flip, and the symmetric drift gives it the flip's
functional.)  A run that ends inside a row keeps that row's first paths,
so it is the first replications of any longer one.  Batches start on
block boundaries and a row's values depend on its own normals alone, so
results are bit-identical no matter how replications are batched or spread
over threads.

Every reported error treats a stream row, not a path, as the independent
unit: the CLT stderr is computed from per-row sums of deviations
(``_std_error``), and median-of-means blocks are runs of whole rows.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fbm import (
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

# Fewest stream rows over which a run reports its effective paths per row, a
# ratio of two variance estimates that is noisy over fewer.
_EFFECTIVE_MIN_ROWS = 32


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
    The ``replications`` fill ``rows`` independent stream rows of
    ``paths_per_row``.  ``effective_paths_per_row``, the independent paths
    a row is worth, is var(ddof=1) / (stderr^2 rows) for sample-mean runs of
    ``_EFFECTIVE_MIN_ROWS`` rows or more with a nonzero stderr, else None.
    """

    estimate: float
    stderr: float | None
    ci_low: float | None
    ci_high: float | None
    method: str
    replications: int
    config: EstimatorConfig
    rows: int
    paths_per_row: int
    effective_paths_per_row: float | None

    def stat_error(self) -> float | None:
        """Statistical half-width: stderr if defined, else CI half-width."""
        if self.stderr is not None:
            return self.stderr
        if self.ci_low is not None and self.ci_high is not None:
            return 0.5 * (self.ci_high - self.ci_low)
        return None


def _variant_table(steps: np.ndarray, neg: int, delta: float, alpha: float, d: float) -> list:
    """The variants' rows (step, sign, anchor), their steps written into the
    rows of ``steps``, a (variants, n + 1) table of ``_kept_state``'s slot,
    in place from one transient index.  With drift = (1 + d) |k delta|^alpha
    on k = -neg..pos: v's step is -drift and -v's 2 drift, anchored at neg,
    and on the half line v~'s is drift[::-1] - drift and -v~'s
    -2 drift[::-1], anchored at n (``_simulate_functionals``).  Each step
    is the float a fresh array of the same operations holds."""
    drift, n = steps[0], steps.shape[1] - 1
    # the index k, one transient of n + 1 floats: alone, its free leaves
    # the FFT scratch in place (0 faults a warm gap-study call)
    drift[:] = np.arange(-neg, n - neg + 1, dtype=float)
    drift *= delta
    np.abs(drift, out=drift)
    drift **= alpha
    drift *= 1.0 + d
    table = [(drift, 1, neg), (np.multiply(drift, 2.0, out=steps[1]), -1, neg)]
    if len(steps) == 4:
        # -v~'s step written out: read backwards through a reversed view, it
        # made the pass a third to a half slower (rows of 2121 and 44977 floats)
        table += [(np.subtract(drift[::-1], drift, out=steps[2]), -1, n),
                  (np.multiply(drift[::-1], -2.0, out=steps[3]), 1, n)]
    np.negative(drift, out=drift)  # drift becomes v's step last
    return table


def _block_rows(width: int) -> int:
    # Largest power of two B with B * width <= 2^17, and at least 1: one
    # generator build (about 20 us, under the GIL) and one standard_normal
    # call, run without the GIL, per block.  A block is also a batch, about
    # 2 MiB of buffers (one core's L2), or one row where a row is wider.
    # Fixed by the row width alone, so the stream never depends on the
    # thread count.
    return 1 << max(0, ((1 << 17) // width).bit_length() - 1)


# Ring windows per stream row (stream contract v10): eight below this alpha,
# contract v9's four from it on, where a row's windows are so alike that
# four more cost more time than they add information.
_EIGHT_WINDOWS_BELOW = 1.8

# numpy's ufunc buffer size, in elements, while ``_window`` forms a window.
_WINDOW_BUFSIZE = 256

# The variant passes bound a window in blocks of about this many columns (a
# multiple of every stride), where it spans at least _BOUND_MIN_BLOCKS.
_BOUND_COLUMNS = 1024
_BOUND_MIN_BLOCKS = 8


@dataclass(frozen=True)
class _RowMap:
    """How a stream row of ``width`` normals becomes ``paths`` replications:
    "iid" rows hold the n increments, "circulant" ones the m normals of the
    embedding, which map to m fGn values.  Either way the row's ``width``
    increments are a ring, read from ``windows`` evenly spaced starts as
    paths of n + 1 values anchored at column ``neg``, and each window gives
    ``variants`` replications: its path and sign flip, and on the half line
    (neg = 0) also their time reversals (stream contract v10).  On an iid
    row of n < windows increments some starts coincide (all of them at
    n = 1), and their windows are the same path: the row stays the error
    unit, so the estimate and its error stay right, on fewer distinct paths
    a row."""

    kind: str
    alpha: float
    neg: int
    n: int
    width: int

    @property
    def windows(self) -> int:
        """Ring windows per stream row: eight below alpha = 1.8, else four."""
        return 8 if self.alpha < _EIGHT_WINDOWS_BELOW else 4

    @property
    def variants(self) -> int:
        """Replications per window: v and -v, and v~ and -v~ on the half line."""
        return 2 if self.neg else 4

    @property
    def paths(self) -> int:
        """Replications per stream row, the unit of every reported error."""
        return self.windows * self.variants


def _row_map(alpha: float, neg: int, pos: int) -> _RowMap:
    """The row map of the unit grid -neg..pos, the engine's and the sampler's."""
    n = neg + pos
    if n == 1 or alpha == 1.0:  # gamma(k) = 0 for k >= 1: iid N(0, 1)
        return _RowMap("iid", alpha, neg, n, n)
    return _RowMap("circulant", alpha, neg, n, _next_fast_len(2 * n))


def _row_floats(rmap: _RowMap) -> tuple[int, int]:
    """(head, flat), the floats a row of ``_row_buffers`` takes.  ``head``
    holds the ring's width + 1 prefix sums: in the complex half-spectrum's
    m + 2 floats where there is an embedding (the irfft has consumed it by
    then), else in floats of their own.  ``flat`` holds the normals, and
    at least n + 1 floats, so that once the ring is cumulated it holds the
    fields of a group of windows, which the variants reuse in place."""
    width = rmap.width
    head = 2 * (width // 2 + 1) if rmap.kind == "circulant" else width + 1
    return head, max(width, rmap.n + 1)


def _row_bytes(rmap: _RowMap) -> int:
    return 8 * sum(_row_floats(rmap))


@dataclass(frozen=True)
class _BatchPlan:
    """How a run's rows are batched, shared among workers and held in memory."""

    rows: int  # stream rows per batch: one block, or the whole run if shorter
    shares: tuple[tuple[int, int], ...]  # (first, stop) stream row per worker
    nbytes: int  # step table, spectrum, output table, every worker's buffers


def _batch_plan(reps: int, rmap: _RowMap, threads: int, columns: int) -> _BatchPlan:
    """Contiguous near-equal block shares, one per worker, a block a batch.

    ``reps`` replications take ``ceil(reps / rmap.paths)`` stream rows, and
    the table holds all their paths, rows of ``columns``.  The rows' ``N``
    blocks go to ``W = min(threads, CPUs, N)`` workers, CPUs being
    ``_cpu_count()``, worker k taking blocks ``[k N / W, (k + 1) N / W)``;
    more than one worker run on the process's pool (``_pool``), made once
    per process and reused, and one worker on the calling thread, which
    imports no pool.
    Every worker's buffers hold the run's batch rows, whatever its share,
    so that runs of one config at any thread count reuse the same buffers,
    and the run's (variants, n + 1) step table is one the slot keeps, so
    that freeing it takes no FFT scratch with the heap's top
    (``_kept_state``); it is written in place, and keeps no index column.
    Raises ValueError for a thread count below 1, and
    for a run whose memory, worked out here before anything is allocated,
    exceeds ``_memory_limit()``: every run is checked, against a limit read
    once per process, so a cgroup limit lowered later in the process is
    not seen.
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
    rows = min(block, stream)
    # The step table (n + 1 floats a variant), the output table of
    # whole stream rows, the spectrum at the peak of its build (the
    # autocovariances, the first row, and the complex input and output of
    # its FFT; it then holds less), and per worker one set of batch
    # buffers, a window's per-row shift and numpy's three ufunc buffers.
    nbytes = 8 * (n + 1) * rmap.variants + 8 * stream * rmap.paths * columns
    if rmap.kind == "circulant":
        nbytes += 8 * (width // 2 + 1) + 8 * width + 32 * width
    nbytes += workers * (rows * (_row_bytes(rmap) + 8) + 24 * np.getbufsize())
    limit, source = _memory_limit()
    if nbytes > limit:
        m = width if rmap.kind == "circulant" else "none"
        raise ValueError(
            f"a run with n={n} increments and embedding length m={m} needs "
            f"{nbytes} bytes, more than the {limit} bytes of {source}"
        )
    return _BatchPlan(rows, shares, nbytes)


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


@functools.cache
def _memory_limit() -> tuple[int, str]:
    """(bytes, what they are): physical memory, or the cgroup's limit if
    smaller, read on the process's first call: a read took a median 0.3 ms
    inside runs (2 CPUs, Linux), a tenth of a Brownian validation call."""
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


def _row_buffers(rmap: _RowMap, rows: int) -> tuple:
    """Buffers for ``rows`` stream rows, in one allocation laid out by
    ``_row_floats``: the normals (later the fGn) as a (rows, width) view of
    ``flat``, the half-spectrum (or None), and the (rows, width + 1) ring
    prefix sums, which take the floats of the half-spectrum once the irfft
    has consumed it.  Once the prefix sums exist ``flat`` holds the fields
    of a group of G windows, G k floats a row for k columns each
    (``_group_windows``), and at least one whole window."""
    width, embedded = rmap.width, rmap.kind == "circulant"
    spectrum, floats = _row_floats(rmap)
    whole = np.empty(rows * (spectrum + floats))
    head = whole[: rows * spectrum].reshape(rows, spectrum)  # 16-byte aligned first
    w = head.view(np.complex128) if embedded else None
    flat = whole[rows * spectrum :]
    return flat[: rows * width].reshape(rows, width), w, head[:, : width + 1], flat


# The spectrum, free batch buffers and free step tables of the last (row
# map, batch rows); another key frees them all before anything is built.
# glibc returns a freed block that large to the system, which the next run
# faulted in again (1500 faults, 2 ms a gap-study call).  Sets and tables
# are taken under the lock and put back by list.extend, atomic under the
# GIL: concurrent runs share none.
_SLOT: dict = {}
_SLOT_LOCK = threading.Lock()


def _kept_state(rmap: _RowMap, rows: int, count: int, tables: int = 0) -> tuple:
    """(op, free, sets, steps) of (rmap, rows): the spectrum (None on iid
    rows), the slot's free lists (buffer sets, step tables), and ``count``
    sets of ``_row_buffers`` and ``tables`` (variants, n + 1) step tables
    (``_variant_table``) taken off them or made.  The tables are kept
    because a run that made and freed its steps (six arrays of n + 1
    floats) let glibc trim the heap's top, and numpy's FFT scratch with it,
    which the next run faulted in again (511-671 faults a gap-study call)."""
    with _SLOT_LOCK:
        if (rmap, rows) not in _SLOT:
            _SLOT.clear()
            op = _embedding_spectrum(rmap.alpha, rmap.width) if rmap.kind == "circulant" else None
            _SLOT[rmap, rows] = op, ([], [])
        op, free = _SLOT[rmap, rows]
        sets = [free[0].pop() for _ in range(min(count, len(free[0])))]
        steps = [free[1].pop() for _ in range(min(tables, len(free[1])))]
    sets += [_row_buffers(rmap, rows) for _ in range(count - len(sets))]
    steps += [np.empty((rmap.variants, rmap.n + 1)) for _ in range(tables - len(steps))]
    return op, free, sets, steps


# The worker pool of this process, made by its first run with more than one
# worker.  A forked child drops its copy, whose threads the child lacks.
_POOL: list = []
_POOL_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL.clear)


def _pool():
    """This process's ``ThreadPoolExecutor`` of ``_cpu_count()`` workers,
    made on the first call, so that a one-worker run never imports
    ``concurrent.futures``, and reused by every later run, whatever its grid:
    a pool made and joined per run started a run's second worker 0.35-2.8 ms
    after its first (2 CPUs)."""
    with _POOL_LOCK:
        if not _POOL:
            from concurrent.futures import ThreadPoolExecutor
            _POOL.append(ThreadPoolExecutor(max_workers=_cpu_count()))
        return _POOL[0]


def _map_rows(rmap: _RowMap, op, z: np.ndarray, w: np.ndarray | None, sums: np.ndarray,
              rows: int, gains: Sequence[float] = ()) -> np.ndarray:
    """The ring prefix sums of the normals z[:rows] in sums[:rows], from
    ``_row_buffers``, by the spectrum ``op`` (``_kept_state``), multiplied by
    each of ``gains`` in turn; returns them.  A circulant row's ring is its
    (m,) fGn, an iid row's its n normals."""
    ring = z[:rows]
    if rmap.kind == "circulant":
        ring = _fgn_from_normals(op, ring, w[:rows])
    prefix = _two_sided_values(ring, out=sums[:rows])
    for gain in gains:
        np.multiply(prefix, gain, out=prefix)
    return prefix


def _window_shifts(rmap: _RowMap, prefix: np.ndarray, p: int) -> tuple:
    """(o, head, before, after): window p's start, the columns it reads
    before the ring's end, and their per-row shift and the later ones'."""
    width = rmap.width
    o = p * width // rmap.windows
    anchor = o + rmap.neg
    if anchor <= width:
        before = prefix[:, anchor, None]
        after = before - prefix[:, width, None]
    else:
        after = prefix[:, anchor - width, None]
        before = after + prefix[:, width, None]
    return o, min(rmap.n + 1, width + 1 - o), before, after


def _window(rmap: _RowMap, prefix: np.ndarray, p: int, flat: np.ndarray,
            runs: Sequence[tuple] = ()) -> np.ndarray:
    """Window p of the rings whose prefix sums are ``prefix``, as a
    (rows, n + 1) view of ``flat``: S[o + j] - S[o + neg] for the start
    o = floor(p * width / windows), read cyclically, so that a term read past the
    ring's end (o + j > width) is S[o + j - width] + S[width] - S[o + neg].
    The columns before the wrap and those after it take one subtraction of
    a per-row shift each, the shift of the anchor's part its own S value
    (x - x is +0.0, so the anchor column is exactly 0).  Given ``runs``
    (``_packed``), only the columns [first, stop) of each (first, stop, at)
    are formed, from column ``at`` on, in a (rows, k) view, k the runs'
    packed width."""
    runs = runs or [(0, rmap.n + 1, 0)]
    o, head, before, after = _window_shifts(rmap, prefix, p)
    k = _width(runs)
    field = flat[: len(prefix) * k].reshape(len(prefix), k)
    with np.errstate():  # restores the buffer size on exit (numpy >= 2.0)
        # numpy 2.4 sends a strided (rows, k) operation through ufunc
        # buffers wherever k <= bufsize / 4: at the default 8192, three
        # 64 KiB buffers a call and a copy that made the wrapped windows'
        # subtractions 3-5 times slower (parts of 531-1591 columns)
        np.setbufsize(_WINDOW_BUFSIZE)
        for first, stop, at in runs:
            mid = min(max(first, head), stop)  # [first, mid) is read before the wrap
            np.subtract(prefix[:, o + first : o + mid], before,
                        out=field[:, at : at + mid - first])
            np.subtract(prefix[:, mid + 1 - head : stop + 1 - head], after,
                        out=field[:, at + mid - first : at + stop - first])
    return field


def _packed(spans) -> list:
    """The union of the column spans (first, stop) as runs (first, stop, at),
    overlapping and adjacent spans merged, in column order, each formed from
    packed column ``at`` on."""
    runs = []
    for first, stop in sorted(spans):
        if runs and first <= runs[-1][1]:
            runs[-1] = (runs[-1][0], max(stop, runs[-1][1]), runs[-1][2])
        else:
            runs.append((first, stop, _width(runs) if runs else 0))
    return runs


def _width(runs: Sequence[tuple]) -> int:
    """The packed width of runs (first, stop, at): where the last one ends."""
    first, stop, at = runs[-1]
    return at + stop - first


def _group_windows(rmap: _RowMap, k: int) -> int:
    """G, the windows whose (rows, k) fields ``flat`` holds side by side: the
    largest power of two up to ``rmap.windows`` with G k <= max(width, n + 1),
    the floats a row of ``flat`` holds (``_row_floats``)."""
    return min(rmap.windows, 1 << ((_row_floats(rmap)[1] // k).bit_length() - 1))


def _bound_plan(rmap: _RowMap, table: list, strides: list):
    """None where a window spans fewer than _BOUND_MIN_BLOCKS column blocks,
    else ``kept(prefix)``: per window, the runs of adjacent blocks that may
    hold a variant's sub-grid extreme (``_packed``; ``_simulate_functionals``
    describes the bound)."""
    n, width, windows = rmap.n, rmap.width, rmap.windows
    lcm = math.lcm(*strides)
    span = lcm * -(-_BOUND_COLUMNS // lcm)
    starts = np.arange(0, n + 1, span)
    if len(starts) < _BOUND_MIN_BLOCKS:
        return None
    stops = np.minimum(starts + span, n + 1)
    anchors = np.array([anchor for _, _, anchor in table])
    # Window p's column j < head reads S[o + j] (side 0), j >= head reads
    # S[j + 1 - head] (side 1): the ring blocks of span prefix sums holding
    # each block's first and last column on the sides it reaches, and each
    # anchor's prefix sum and side
    ring, reach, cols, ends = [], [], [], np.stack([starts, stops - 1])
    for p in range(windows):
        o = p * width // windows
        head = min(n + 1, width + 1 - o)
        ring.append([(o + np.minimum(ends, head - 1)) // span,
                     (np.maximum(ends, head) + 1 - head) // span])
        reach.append([starts < head, stops > head])
        cols.append([np.where(anchors < head, o + anchors, anchors + 1 - head), anchors >= head])
    ring, reach, cols = np.array(ring), np.array(reach), np.array(cols)
    steps = [(np.maximum.reduceat(step, starts), np.minimum.reduceat(step, starts),
              step[anchors], sign) for step, sign, _ in table]
    win, ring_starts = np.arange(windows)[:, None], np.arange(0, width + 1, span)

    def kept(prefix: np.ndarray) -> tuple:
        shifts = np.hstack([x for p in range(windows)
                            for x in _window_shifts(rmap, prefix, p)[2:]]).reshape(-1, windows, 2)
        bounds = []
        for reduce, unreached in ((np.maximum, -np.inf), (np.minimum, np.inf)):
            sides = reduce.reduce(reduce.reduceat(prefix, ring_starts, axis=1)[:, ring], axis=3)
            bounds.append(reduce.reduce(np.where(reach, sides - shifts[..., None], unreached), axis=2))
        top, low = bounds  # (rows, windows, blocks)
        refs = prefix[:, cols[:, 0]] - shifts[:, win, cols[:, 1]]  # (rows, windows, variants)
        drop = True
        for v, (high, least, at_anchors, sign) in enumerate(steps):
            top += high  # one add at a time, as the field takes them
            low += least
            refs[..., v:] += at_anchors[v:]  # variant u's anchor takes the steps up to u
            drop &= (top < refs[..., v, None] if sign > 0 else low > refs[..., v, None]).all(axis=0)
        return [_packed(zip(starts[keep].tolist(), stops[keep].tolist())) for keep in ~drop]

    return kept


def sample_two_sided_path(
    alpha: float, neg_count: int, pos_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample a two-sided fBM path on the unit grid -neg_count..pos_count.

    One stationary fGn sequence of length ``neg_count + pos_count`` is drawn
    and cumulated around the t = 0 anchor, so the resulting grid process has
    exactly the fBM covariance: Var B(k) = |k|^alpha with stationary
    increments.  It is window 0 (the first n increments) of one row of the
    engine's ``_row_map``, drawn from ``rng`` (n normals, or the m of an
    embedding) into a one-row buffer set of the engine's slot.  Returns B(k)
    for k = -neg_count..pos_count, so ``values[neg_count]`` is exactly 0;
    times delta^(alpha/2), the path on the delta grid.  A non-Generator
    ``rng``, or a grid whose one-row plan exceeds memory, is a ValueError.
    """
    alpha = _check_alpha(alpha)
    neg_count = _check_count("neg_count", neg_count, 0, rule="be a nonnegative integer")
    pos_count = _check_count("pos_count", pos_count, 0, rule="be a nonnegative integer")
    if neg_count + pos_count < 1:
        raise ValueError("need at least one increment across both sides")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")
    rmap = _row_map(alpha, neg_count, pos_count)
    if (rmap, 1) not in _SLOT:  # a kept grid passed a plan at least this large
        _batch_plan(1, rmap, 1, 1)
    op, free, spaces, _ = _kept_state(rmap, 1, 1)
    z, w, sums, flat = spaces[0]
    rng.standard_normal(out=z[0])
    path = _window(rmap, _map_rows(rmap, op, z, w, sums, 1), 0, flat)[0].copy()
    free[0].extend(spaces)
    return path


def _simulate_functionals(
    config: EstimatorConfig, strides: Sequence[int], threads: int = 1
) -> np.ndarray:
    """Per-replication functionals, shape (replications, len(strides)).

    Row r is what the per-path reference in ``tests/oracle.py`` yields for
    replication r under stream contract v10, bit for bit: its stream row
    (r // rmap.paths) of the SFC64 stream of its block, that row's ring
    prefix sums times the self-similarity rescale and sqrt(2), its window
    of the ring, and the sup over each stride's sub-grid of the penalized
    field of variant r mod ``rmap.variants`` of the window's path.  A stride
    is an integer from 1 to the positive side count, so that its sub-grid
    keeps a point besides the anchor; anything else is a ValueError before
    anything is built or drawn.

    ``_batch_plan`` lays the run out before anything is allocated, and
    checks its bytes against the memory limit read once per process: each
    worker gets one contiguous share of whole blocks of ``_block_rows(width)``
    stream rows and walks it one block a batch, whatever the replication
    count, with one set of ``_row_buffers``, taken with the spectrum from
    the slot of ``_kept_state`` (or made there) on the calling thread before
    anything else is built and put back at the end, reused for all of its
    batches.  The run's step table comes off the slot too, one a run, and
    ``_variant_table`` writes its steps in place on every run, as steps
    made and freed by each run took numpy's FFT scratch with the heap's
    trim.  So memory follows from the config and the worker count alone:
    pool threads build no spectrum, buffer set or table.  A run with more
    than one worker hands its shares to the process's kept pool
    (``_pool``), made once per process by the first such run and reused by
    every later one; a run with one worker runs on the calling thread and
    imports no pool.  A batch cumulates each row's ring once
    (``_map_rows``), then forms its ``rmap.windows`` windows in groups of
    G (``_group_windows``), side by side in the normals buffer, each over
    the union of the group's kept runs (``_window``).
    The variants are the rows ``(step, sign, anchor)`` of one table, taken
    in turn over a group's fields in place: add ``step``, one add per run,
    then at stride s exp(sign * (top - field[anchor])), top the max (sign
    +1) or the min (sign -1) over the sub-grid anchor mod s :: s.  Each
    stride's reduction writes its tops straight into the output table,
    where one subtraction a variant takes top - field[anchor] for a max and
    field[anchor] - top for a min (the same float, as fl(r - t) =
    -fl(t - r)), and one exp a group finishes its cells.  The steps leave
    v - drift (v, by the max), v + drift (-v, by the min), and on the half
    line v + rdrift and v - rdrift, rdrift = drift[::-1] (v~ by the min and
    -v~ by the max, read at k = n - j against v_n at the anchor n), so every
    variant is exactly 0 at its anchor.

    Where a window spans ``_BOUND_MIN_BLOCKS`` blocks of about
    ``_BOUND_COLUMNS`` columns (a multiple of every stride, so that packing
    blocks keeps each sub-grid's residues), only the blocks that may hold a
    sub-grid extreme are formed and passed (``_bound_plan``).  Window p is
    the prefix sums S less a per-row shift, so S's max and min over the
    ring blocks a block reads, less the shift, bound the block's values;
    chained through each variant's per-block step max and min by the
    field's own one-at-a-time adds, they bound all its pass sees there, as
    IEEE rounding is monotone in each operand (x <= y gives fl(x + s) <=
    fl(y + s)).  A block is dropped only where every variant's bound is
    strictly below (max) or above (min) its anchor value, chained alike,
    on every row: the anchor is in every sub-grid, so every top is the
    full pass's, bit for bit.  NaN compares false, so a NaN bound keeps
    its block.  A group's union of runs adds to a window only columns of
    its own field, kept for another window of the group, so its tops stay
    the full pass's too.  A group computes and stores every row of its
    batch in a table of whole stream rows, whose first ``replications``
    rows the run returns.
    ``_fill_normals`` builds the generator of each block (B * width <= 2^17
    normals) where it draws it, so no generator is shared between threads.
    """
    neg, pos = config.side_counts()
    strides = [_check_count("stride", s, 1, pos + 1, f"be an integer from 1 to the {pos} "
                            "grid points of the positive side") for s in strides]
    rmap = _row_map(config.alpha, neg, pos)
    reps = int(config.replications)
    plan = _batch_plan(reps, rmap, threads, len(strides))
    # Only a run with more than one worker loads the pool, and before the
    # run's arrays: loaded among live buffers, its objects kept the heap from
    # shrinking below them (0.4 MiB more peak RSS on the bench's Brownian
    # validation).
    pool = _pool() if len(plan.shares) > 1 else None
    # before anything is built, so that another grid's kept state goes first
    op, free, spaces, steps = _kept_state(rmap, plan.rows, len(plan.shares), 1)
    # sqrt(2) * (scale * values), in place.
    gains = (config.delta ** (config.alpha / 2.0), _SQRT2)
    n, windows, variants, paths = rmap.n, rmap.windows, rmap.variants, rmap.paths
    table = _variant_table(steps[0], neg, config.delta, config.alpha, config.d)
    kept = _bound_plan(rmap, table, strides)
    out = np.empty((-(-reps // paths) * paths, len(strides)))

    def work(share: tuple, space: tuple) -> None:
        (lo, hi), (z, w, sums, flat) = share, space
        for start in range(lo, hi, plan.rows):
            rows = min(plan.rows, hi - start)
            _fill_normals(config.seed, z[:rows], start // plan.rows, plan.rows)
            prefix = _map_rows(rmap, op, z, w, sums, rows, gains)
            # replication (i, p, v), variant v of window p of stream row i,
            # is out[i * paths + p * variants + v]
            cells = out[paths * start : paths * (start + rows)].reshape(
                rows, windows, variants, len(strides))
            runs = kept(prefix) if kept else [[(0, n + 1, 0)]] * windows
            size = _group_windows(rmap, _width(_packed(
                run[:2] for window in runs for run in window)))
            for p in range(0, windows, size):
                if paths * start + p * variants >= reps:  # none of the group's paths is in the run
                    break
                # the group's windows p, ..., p + size - 1 over the union of
                # their kept runs, side by side in flat as (size, rows, k)
                group = _packed(run[:2] for window in runs[p : p + size] for run in window)
                k = _width(group)
                fields = flat[: size * rows * k].reshape(size, rows, k)
                for g in range(size):
                    _window(rmap, prefix, p + g, flat[g * rows * k :], group)
                # each anchor's column once the kept runs are packed
                col = {a: at + a - first for first, stop, at in group
                       for a in (neg, n) if first <= a < stop}
                tops = cells[:, p : p + size]  # (rows, size, variants, strides)
                for v, (step, sign, anchor) in enumerate(table):
                    with np.errstate():  # restores the buffer size on exit
                        # the strided adds skip the ufunc buffers, as in
                        # _window: through them a call of the Brownian
                        # validation (n = 2120) took x1.29 as long, and one
                        # of the alpha = 1.5 full line (n = 172) x1.11
                        # (medians of 6 runs, 2 CPUs, numpy 2.4.6); the
                        # reductions run faster with them
                        np.setbufsize(_WINDOW_BUFSIZE)
                        for first, stop, at in group:
                            cols = fields[:, :, at : at + stop - first]
                            np.add(cols, step[first:stop], out=cols)
                    for j, s in enumerate(strides):  # each sub-grid holds the anchor
                        sub = fields[:, :, anchor % s :: s]
                        (sub.max if sign > 0 else sub.min)(axis=2, out=tops[:, :, v, j].T)
                    # top - ref by the max, ref - top by the min, read before
                    # the next variant's step moves the anchor's column
                    top, ref = tops[:, :, v], fields[:, :, col[anchor]].T[:, :, None]
                    np.subtract(*((top, ref) if sign > 0 else (ref, top)), out=top)
                np.exp(tops, out=tops)

    if pool is not None:
        list(pool.map(work, plan.shares, spaces))
    else:
        work(plan.shares[0], spaces[0])
    free[0].extend(spaces)
    free[1].extend(steps)
    return out[:reps]


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
    stderr = ci_low = ci_high = effective = None
    if config.d > 1.0:
        method = "sample-mean"
        estimate = float(functionals.mean())
        if rows >= 2:
            stderr = _std_error(functionals, unit)
            ci_low, ci_high = estimate - _Z95 * stderr, estimate + _Z95 * stderr
        if rows >= _EFFECTIVE_MIN_ROWS and stderr:
            effective = float(functionals.var(ddof=1)) / (stderr * stderr * rows)
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
    return EstimateResult(estimate, stderr, ci_low, ci_high, method, reps, config,
                          rows, unit, effective)


def estimate_constant(config: EstimatorConfig, threads: int = 1) -> EstimateResult:
    """Estimate the discrete truncated Piterbarg constant for ``config``.

    Runs ``config.replications`` path simulations (unit-grid draw,
    self-similarity rescale to ``config.delta``, penalized supremum), each
    of a stream row's ring windows (eight below alpha = 1.8, else four)
    with its sign flip, and on the half line with their time reversals, and
    aggregates by sample mean for d > 1 or median-of-means for d <= 1, with
    errors over the independent rows.
    The result is deterministic given (config, seed) at any thread count.
    """
    functionals = _simulate_functionals(config, strides=(1,), threads=threads)
    return _aggregate(functionals[:, 0], config)
