"""Per-path reference pipeline that the batched engine is checked against.

``piterbarg.estimator._simulate_functionals`` simulates replications in
batches, in reused buffers, filling a block of rows per ``standard_normal``
call.  This module computes the same numbers one path at a time, each step
in its plainest form: the stream of replication r's stream row, spawned from
the seed's SeedSequence as stream contract v9 defines it (blocks of B rows,
B * width <= 2^17, block b from ``SeedSequence(seed).spawn(b + 1)[b]``
through SFC64), advanced one row at a time past the earlier rows of its
block; the row's ring of increments; the window of the ring, the
self-similarity rescale, the variant and the penalized supremum over each
stride's sub-grid.  Replication r is variant r mod V of window
p = r // V, V = 2 on the full line and 4 on the half line: the drawn path
v, its sign flip -v, its time reversal v~_j = v_n - v_{n-j} and -v~.
Window p is ring window p mod 4 of stream row p // 4: the n increments
read cyclically from index floor((p mod 4) * width / 4) of the row's ring,
which is one of two, as in the engine: n iid increments at alpha = 1, or
the m values of the circulant draw, m that of ``circulant_spectrum(alpha,
n)`` (>= 2n), built from the eigenvalues with complex temporaries.

Each path comes two ways.  ``values`` is the plain cyclic read: the
window's increments cumulated and anchored at t = 0, then rescaled.
``lifted`` is sqrt(2) times the path with the engine's float operations:
the whole ring's prefix sums, rescaled and multiplied by sqrt(2), less
their value at the anchor (``ring_window``), from which the functionals are
taken.  The other variants' suprema are taken with the engine's float
operations too (v's field v - drift, moved in turn by 2 drift, by
drift[::-1] - drift and by -2 drift[::-1], read against v_n as the third
field holds it, and reversed), so that they too are bit-equal; the tests
check them against the plain suprema of -v and of the path cumulated from
the reversed increments, to rounding.  It calls none of the engine's
kernels, so tests can require bit-equality of every row without comparing
the engine with itself.  The fGn autocovariance and the dense Cholesky
draw from it check the circulant sampler in law, Borwein's eta series
checks the package's accelerated zeta(1/2), and a lattice solution of
Lindley's recursion checks the Spitzer series of the discrete Brownian
constant.
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


def sample_ring(spectrum: CirculantSpectrum, rng: np.random.Generator) -> np.ndarray:
    """The ``spectrum.m`` fGn values of one circulant draw from m normals:
    cyclically stationary, so any n <= m/2 + 1 of them read cyclically are
    exact fGn."""
    lam, m = spectrum.eigenvalues, spectrum.m
    half = m // 2
    z = rng.standard_normal(m)
    w = np.empty(half + 1, dtype=np.complex128)
    w[0] = np.sqrt(lam[0]) * z[0]
    w[half] = np.sqrt(lam[half]) * z[half]
    w[1:half] = np.sqrt(0.5 * lam[1:half]) * (z[1:half] + 1j * z[half + 1 :])
    return np.fft.irfft(w, n=m) * math.sqrt(m)


def sample_fgn(spectrum: CirculantSpectrum, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw one exact fGn sequence from ``spectrum.m`` normals: its first n <= m/2 + 1 values."""
    return sample_ring(spectrum, rng)[:n]


WINDOWS = 4  # ring windows per stream row


@dataclass
class PathGrid:
    """``values[neg_count + k]`` is B(k * delta) for k = -neg_count..pos_count;
    a replication's path is ``variant`` of them: 0 the values v themselves,
    1 the flip -v, 2 the reversal v~_j = v_n - v_{n-j} and 3 its flip -v~
    (2 and 3 on the half line, neg_count = 0, only).  ``lifted`` is
    sqrt(2) v as the engine rounds it, where the path came from a stream
    row; the penalized field reads it in place of sqrt(2) * values."""

    alpha: float
    delta: float
    neg_count: int
    pos_count: int
    values: np.ndarray
    variant: int = 0
    lifted: np.ndarray | None = None


def _ring_row(config: EstimatorConfig, row: int, block: int | None = None) -> np.ndarray:
    """The ring of stream row ``row`` under ``config``: its n iid increments
    at alpha = 1, else the m values of its circulant draw.  ``block`` is the
    rows per stream block, by default ``block_rows`` of the row width."""
    neg, pos = config.side_counts()
    n = neg + pos
    iid = n == 1 or config.alpha == 1.0
    spectrum = None if iid else circulant_spectrum(config.alpha, n)
    width = n if spectrum is None else spectrum.m
    block = block_rows(width) if block is None else block
    rng = replication_stream(config.seed, row, width, block)
    if iid:
        return rng.standard_normal(n)  # iid increments: no embedding
    return sample_ring(spectrum, rng)


def window_start(width: int, window: int) -> int:
    """First ring index of ring window ``window`` (0..3) of a ring of ``width``."""
    return window * width // WINDOWS


def window_fgn(config: EstimatorConfig, index: int, block: int | None = None) -> np.ndarray:
    """The n unit-grid increments of window ``index`` under ``config``: ring
    window index mod 4 of stream row index // 4, read cyclically."""
    return _cyclic_read(_ring_row(config, index // WINDOWS, block), index % WINDOWS,
                        sum(config.side_counts()))


def _cyclic_read(ring: np.ndarray, window: int, n: int) -> np.ndarray:
    return np.roll(ring, -window_start(len(ring), window))[:n]


def ring_window(ring: np.ndarray, window: int, neg: int, n: int,
                gains: Sequence[float]) -> np.ndarray:
    """Window ``window`` of ``ring`` as the engine rounds it: the ring's
    prefix sums S (S[0] = 0) times each of ``gains`` in turn, read at o + j
    for o = window_start and j = 0..n, as S[o + j - width] + S[width] past
    the ring's end, less S[o + neg].  The part read before or after the end
    that holds the anchor subtracts the anchor's own S value, and the other
    part that value moved by S[width], so that the anchor is exactly 0."""
    width = len(ring)
    prefix = np.concatenate([[0.0], np.cumsum(ring)])
    for gain in gains:
        prefix = prefix * gain
    idx = window_start(width, window) + np.arange(n + 1)
    wrapped = idx > width
    anchor = idx[neg]
    if anchor <= width:
        head, tail = prefix[anchor], prefix[anchor] - prefix[width]
    else:
        tail = prefix[anchor - width]
        head = tail + prefix[width]
    read = prefix[idx - width * wrapped]
    return np.where(wrapped, read - tail, read - head)


def cumulated_path(config: EstimatorConfig, fgn: np.ndarray) -> PathGrid:
    """The path of unit-grid increments ``fgn`` on ``config``'s delta grid,
    anchored at t = 0."""
    neg, pos = config.side_counts()
    unit = np.concatenate([[0.0], np.cumsum(fgn)])
    unit -= unit[neg]
    unit[neg] = 0.0
    scaled = unit * config.delta ** (config.alpha / 2.0)
    return PathGrid(config.alpha, config.delta, neg, pos, scaled)


def window_path(config: EstimatorConfig, index: int, block: int | None = None) -> PathGrid:
    """Drawn path of window ``index`` under ``config`` on its delta grid, its
    values the plain cyclic read and ``lifted`` the engine's rounding."""
    neg, pos = config.side_counts()
    ring, window = _ring_row(config, index // WINDOWS, block), index % WINDOWS
    path = cumulated_path(config, _cyclic_read(ring, window, neg + pos))
    path.lifted = ring_window(ring, window, neg, neg + pos,
                              (config.delta ** (config.alpha / 2.0), math.sqrt(2.0)))
    return path


def replication_path(config: EstimatorConfig, index: int, block: int | None = None) -> PathGrid:
    """Path of replication ``index`` under stream contract v9: variant r mod V
    of window r // V, V = 4 on the half line and 2 on the full line."""
    variants = 2 if config.side_counts()[0] else 4
    window, variant = divmod(index, variants)
    path = window_path(config, window, block)
    path.variant = variant
    return path


@dataclass(frozen=True)
class SupRecord:
    """Maximum of the penalized field on one path; ``functional == exp(z_max)``."""

    z_max: float
    functional: float


def _penalized_field(path: PathGrid, d: float) -> np.ndarray:
    """The penalized field of ``path``'s variant at k = -neg_count..pos_count,
    formed with the engine's float operations: v's field v - drift, and the
    other variants' from it by the engine's in-place steps."""
    k = np.arange(-path.neg_count, path.pos_count + 1, dtype=float)
    drift = (1.0 + d) * np.abs(k * path.delta) ** path.alpha
    v = math.sqrt(2.0) * path.values if path.lifted is None else path.lifted
    field = v - drift
    if path.variant == 0:
        return field
    field = field + 2.0 * drift
    if path.variant == 1:
        return -field  # negation is exact
    # the reversal's field at j is v_n - (v + drift[::-1]) at k = n - j, and
    # its flip's is (v - drift[::-1]) - v_n there, v_n read off the first
    field = field + (drift[::-1] - drift)
    end = field[-1]
    if path.variant == 2:
        return (end - field)[::-1]
    return ((field - 2.0 * drift[::-1]) - end)[::-1]


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


def lindley_exp_max(d: float, delta: float, h: float, top: float = 30.0) -> float:
    """E exp(M), M = max_{k >= 0} S_k for the Gaussian random walk S of steps
    N(-(1 + d) delta, 2 delta), from Lindley's recursion W <- max(0, W + X)
    on the lattice h * {0, ..., top / h}.

    Started at W = 0, k steps of the recursion give the law of
    max_{j <= k} S_j, whose limit is the law of M; k = 40 / (min(d, 1) delta)
    steps leave out a tail of order e^{-40}.  A step X is rounded to the
    nearest multiple of h (its cell probabilities from ``math.erfc``), mass
    that lands below 0 goes to 0, and mass above ``top`` (P(M > top) is of
    order e^{-(1 + d) top}) is dropped.  The lattice error is O(h^2).
    Independent of the Spitzer series in ``piterbarg.closed_form``.
    """
    mu, sd = -(1.0 + d) * delta, math.sqrt(2.0 * delta)
    reach = math.ceil(9.0 * sd / h)  # steps beyond 9 sd have mass below 1e-18
    edges = (np.arange(-reach, reach + 2) - 0.5) * h
    cdf = np.array([0.5 * math.erfc(-(e - mu) / (sd * math.sqrt(2.0))) for e in edges])
    step = np.diff(cdf)  # P(X rounds to j h), j = -reach..reach
    size = math.ceil(top / h) + 1
    law = np.zeros(size)
    law[0] = 1.0
    for _ in range(math.ceil(40.0 / (min(d, 1.0) * delta))):
        moved = np.convolve(law, step)  # index i + j + reach holds W + X = (i + j) h
        law = moved[reach : reach + size].copy()
        law[0] += moved[:reach].sum()
    return float(law @ np.exp(h * np.arange(size)))


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
