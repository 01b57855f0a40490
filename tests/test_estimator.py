"""Tests for the supremum functional, subsampling, and the MC estimator."""

import hashlib
import io
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import piterbarg.estimator as estimator
from oracle import (
    PathGrid,
    block_rows,
    replication_path,
    replication_stream,
    subsampled_functionals,
    sup_functional,
)
from piterbarg import (
    Domain,
    EstimatorConfig,
    circulant_spectrum,
    estimate_constant,
    plan_horizon,
    rate_constant,
    sample_two_sided_path,
)
from piterbarg.estimator import (
    _BATCH_BYTES,
    _DENSE_MAX_N,
    _FFT_MIN_ROWS,
    _GEMM_MAX_MADDS,
    _aggregate,
    _batch_plan,
    _batch_rows,
    _block_rows,
    _fill_normals,
    _gemm_rows,
    _map_rows,
    _mom_ci_rank,
    _row_buffers,
    _row_bytes,
    _row_map,
    _RowMap,
    _simulate_functionals,
    grid_count,
)
from piterbarg.fbm import _dense_map
from piterbarg.fbm import _next_fast_len


def _rmap(n, width, embedded=False, dense=False):
    """A row map of n increments and rows of ``width`` normals; the plan
    reads only its kind, n and width."""
    kind = "circulant" if embedded else "dense" if dense else "iid"
    return _RowMap(kind, 0.5, 0, n, width)


def make_path(alpha, delta, neg, pos, rng):
    """Random small PathGrid with arbitrary (non-fBM) values; fine for the
    pathwise identities, which hold for any path."""
    values = rng.standard_normal(neg + pos + 1)
    values[neg] = 0.0
    return PathGrid(alpha=alpha, delta=delta, neg_count=neg, pos_count=pos,
                    values=values)


def brute_force_record(path, d, domain):
    """Independent evaluation: explicit loop over included grid points."""
    best = -math.inf
    for idx in range(len(path.values)):
        k = idx - path.neg_count
        if domain is Domain.HALF_LINE and k < 0:
            continue
        t = k * path.delta
        z = math.sqrt(2.0) * path.values[idx] - (1.0 + d) * abs(t) ** path.alpha
        best = max(best, z)
    return best, math.exp(best)


class TestSupFunctional:
    def test_flat_path_gives_one(self):
        path = PathGrid(alpha=0.7, delta=0.5, neg_count=0, pos_count=4,
                        values=np.zeros(5))
        rec = sup_functional(path, 3.0, Domain.HALF_LINE)
        assert rec.z_max == 0.0
        assert rec.functional == 1.0

    def test_two_point_grid_hand_value(self):
        # brute force over {0, 1}: max(0, 2*sqrt(2) - 2) = 0.8284271...,
        # functional exp(..) = 2.2897145 (evaluated below, not assumed)
        path = PathGrid(alpha=1.0, delta=1.0, neg_count=0, pos_count=1,
                        values=np.array([0.0, 2.0]))
        rec = sup_functional(path, 1.0, Domain.HALF_LINE)
        z_expected, f_expected = brute_force_record(path, 1.0, Domain.HALF_LINE)
        assert z_expected == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, rel=1e-15)
        assert rec.z_max == pytest.approx(z_expected, rel=1e-15)
        assert rec.functional == pytest.approx(f_expected, rel=1e-14)

    def test_matches_brute_force_on_random_paths(self):
        rng = np.random.default_rng(321)
        for _ in range(50):
            path = make_path(0.8, 0.3, 3, 5, rng)
            for domain in Domain:
                rec = sup_functional(path, 1.7, domain)
                z_bf, f_bf = brute_force_record(path, 1.7, domain)
                assert rec.z_max == pytest.approx(z_bf, rel=1e-15)
                assert rec.functional == pytest.approx(f_bf, rel=1e-14)

    def test_full_line_dominates_half_line(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            path = make_path(1.2, 0.25, 4, 4, rng)
            full = sup_functional(path, 0.9, Domain.FULL_LINE)
            half = sup_functional(path, 0.9, Domain.HALF_LINE)
            assert full.functional >= half.functional

    def test_functional_is_exp_of_zmax(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            path = make_path(0.5, 0.1, 2, 6, rng)
            rec = sup_functional(path, 1.1, Domain.FULL_LINE)
            assert rec.functional == float(np.exp(rec.z_max))
            assert rec.functional >= 1.0

    def test_sup_of_exp_identity(self):
        # max in log space then exp == max of pointwise exponentials
        rng = np.random.default_rng(7)
        for _ in range(200):
            path = make_path(1.4, 0.2, 3, 3, rng)
            rec = sup_functional(path, 0.6, Domain.FULL_LINE)
            drift = 1.6 * np.abs(np.arange(-3, 4) * 0.2) ** 1.4
            pointwise = np.exp(math.sqrt(2.0) * path.values - drift)
            assert rec.functional == pytest.approx(pointwise.max(), rel=1e-12)

    def test_penalty_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            path = make_path(0.9, 0.4, 2, 5, rng)
            records = [sup_functional(path, d, Domain.FULL_LINE).z_max
                       for d in (0.5, 1.0, 2.0, 4.0)]
            assert all(a >= b for a, b in zip(records, records[1:]))


class TestSubsampledFunctionals:
    def test_stride_one_matches_sup_functional(self):
        path = make_path(0.7, 0.5, 2, 4, np.random.default_rng(9))
        rec = subsampled_functionals(path, 1.5, Domain.FULL_LINE, [1])[0]
        direct = sup_functional(path, 1.5, Domain.FULL_LINE)
        assert rec == direct

    def test_nested_strides_are_dominated(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            path = make_path(1.1, 0.25, 4, 8, rng)
            for domain in Domain:
                r1, r2, r4 = subsampled_functionals(path, 1.0, domain, [1, 2, 4])
                assert r2.z_max <= r1.z_max
                assert r4.z_max <= r2.z_max

    def test_stride_beyond_pos_count_leaves_origin(self):
        path = PathGrid(alpha=1.0, delta=1.0, neg_count=0, pos_count=1,
                        values=np.array([0.0, 2.0]))
        recs = subsampled_functionals(path, 1.0, Domain.HALF_LINE, [1, 2, 4])
        assert recs[0].functional > 1.0
        assert recs[1].functional == 1.0  # stride 2 excludes t = 1
        assert recs[2].functional == 1.0

    def test_empty_strides_rejected(self):
        path = make_path(0.7, 0.5, 0, 4, np.random.default_rng(11))
        with pytest.raises(ValueError):
            subsampled_functionals(path, 1.0, Domain.HALF_LINE, [])
        with pytest.raises(ValueError):
            subsampled_functionals(path, 1.0, Domain.HALF_LINE, [0])


class TestReplicationStreams:
    def test_reproducible_and_disjoint(self):
        a = replication_stream(99, 3).standard_normal(8)
        b = replication_stream(99, 3).standard_normal(8)
        c = replication_stream(99, 4).standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_spawn_key_matches_spawned_child(self, seed):
        # the engine's blocks are the children of SeedSequence(seed).spawn,
        # and the oracle's streams, up to block 2^63 + 3
        z = np.empty((4, 513))
        estimator._fill_normals(seed, z, 0, 1)
        for row, child in zip(z, np.random.SeedSequence(seed).spawn(4)):
            gen = np.random.Generator(np.random.SFC64(child))
            assert np.array_equal(row, gen.standard_normal(513))
        for first in (0, 1, 2**32, 2**63):
            estimator._fill_normals(seed, z, first, 1)
            for i in range(len(z)):
                fresh = replication_stream(seed, first + i)
                assert np.array_equal(z[i], fresh.standard_normal(513))


class TestStreamContract:
    """Golden values of stream contract v4, so that a change of numpy or of
    the engine that moves the random stream fails here first."""

    @pytest.mark.parametrize("seed,expected", [
        (20260810, [[-0.7106466287240609, -1.5193291055445692, -0.16140177030471745],
                    [-1.2705850255154623, -0.6039167116623679, -0.5555342284751827]]),
        (2**64 - 1, [[-0.8644459760634886, 1.2559994570417141, -1.646172560941406],
                     [1.2868691173071367, 0.8839781720725656, -1.1073156575756218]]),
    ])
    def test_first_normals_of_blocks_0_and_1(self, seed, expected):
        z = np.empty((2, 3))
        estimator._fill_normals(seed, z, 0, 1)
        assert z.tolist() == expected

    def test_functional_row(self, monkeypatch):
        # the embedding's FFT may round differently on another platform, so
        # the row is pinned to 1e-12, far below what a moved stream changes;
        # n = 80 would take the dense map, so the embedding is forced
        monkeypatch.setattr(estimator, "_DENSE_MAX_N", 0)
        cfg = EstimatorConfig(alpha=0.5, d=0.7, domain=Domain.FULL_LINE,
                              delta=0.05, horizon=2.0, replications=3, seed=20260810)
        row = _simulate_functionals(cfg, [1, 2])[2]
        assert row.tolist() == pytest.approx([1.906386072738009, 1.464313457011905], rel=1e-12)

    def test_dense_functional_row(self):
        # the same config on the dense map (n = 80 normals a row); BLAS
        # kernels may round differently on another platform, hence 1e-12
        cfg = EstimatorConfig(alpha=0.5, d=0.7, domain=Domain.FULL_LINE,
                              delta=0.05, horizon=2.0, replications=3, seed=20260810)
        assert sum(cfg.side_counts()) <= estimator._DENSE_MAX_N
        row = _simulate_functionals(cfg, [1, 2])[1]
        assert row.tolist() == pytest.approx([9.63341434872447, 5.062553222673725], rel=1e-12)


class TestEstimatorConfig:
    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(alpha=1.0, d=1.0, domain=Domain.HALF_LINE,
                            delta=0.1, horizon=1.0, replications=0, seed=1)

    def test_delta_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(alpha=1.0, d=1.0, domain=Domain.HALF_LINE,
                            delta=2.0, horizon=1.0, replications=10, seed=1)

    @pytest.mark.parametrize("field,value", [
        ("alpha", 2.0), ("alpha", 0.0), ("d", 0.0), ("delta", -0.1),
        ("horizon", 0.0), ("seed", -1), ("seed", 2**64), ("seed", 1.7),
        ("seed", True), ("replications", 2.5), ("replications", True),
        ("alpha", math.nan), ("d", math.nan), ("d", math.inf),
        ("delta", math.nan), ("delta", math.inf), ("horizon", math.nan),
        ("horizon", math.inf), ("horizon", -math.inf),
    ])
    def test_invalid_fields_rejected(self, field, value):
        kwargs = dict(alpha=1.0, d=1.0, domain=Domain.HALF_LINE,
                      delta=0.1, horizon=1.0, replications=10, seed=1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)

    def test_side_counts(self):
        cfg = EstimatorConfig(alpha=1.0, d=1.0, domain=Domain.FULL_LINE,
                              delta=0.1, horizon=1.05, replications=1, seed=0)
        assert cfg.side_counts() == (10, 10)
        cfg = EstimatorConfig(alpha=1.0, d=1.0, domain=Domain.HALF_LINE,
                              delta=0.1, horizon=1.05, replications=1, seed=0)
        assert cfg.side_counts() == (0, 10)

    @given(
        delta=st.floats(1e-6, 1e6),
        horizon=st.floats(1e-6, 1e6),
        domain=st.sampled_from(list(Domain)),
    )
    def test_accepted_grid_is_never_empty(self, delta, horizon, domain):
        # delta <= horizon is all the config demands, and it is enough
        kwargs = dict(alpha=1.0, d=1.0, domain=domain, delta=delta,
                      horizon=horizon, replications=1, seed=0)
        if delta > horizon:
            with pytest.raises(ValueError):
                EstimatorConfig(**kwargs)
        else:
            assert EstimatorConfig(**kwargs).side_counts()[1] >= 1

    @given(
        delta=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([5e-324, 1e-300, 1e300])),
        horizon=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.sampled_from([1e-300, 1e300, 1.7976931348623157e308])),
        domain=st.sampled_from(list(Domain)),
    )
    def test_grid_is_countable_or_rejected(self, delta, horizon, domain):
        # NaN, infinities and grids whose point count T/delta is no finite
        # number fail in the constructor with a ValueError, before anything
        # is simulated; an accepted config always counts its grid
        kwargs = dict(alpha=1.0, d=1.0, domain=domain, delta=delta,
                      horizon=horizon, replications=1, seed=0)
        countable = (0.0 < delta <= horizon < math.inf
                     and math.isfinite(horizon / delta * (1.0 + 1e-12)))
        if not countable:
            with pytest.raises(ValueError):
                EstimatorConfig(**kwargs)
        else:
            neg, pos = EstimatorConfig(**kwargs).side_counts()
            assert pos >= 1 and neg in (0, pos)

    def test_uncountable_grid_names_delta_and_horizon(self):
        with pytest.raises(ValueError, match=r"delta=1e-300.*T=1e\+300"):
            grid_count(1e300, 1e-300)
        with pytest.raises(ValueError, match="not a finite count"):
            EstimatorConfig(alpha=1.0, d=1.0, domain=Domain.HALF_LINE,
                            delta=1e-300, horizon=1e300, replications=1, seed=0)

    @given(k=st.integers(1, 10**6), j=st.integers(1, 999), p=st.integers(1, 6))
    def test_grid_count_exact_on_decimal_multiples(self, k, j, p):
        delta = j / 10**p
        assert grid_count(k * delta, delta) == k

    @given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(max_value=-1),
                          st.integers(min_value=2**64)))
    def test_seed_range(self, seed):
        kwargs = dict(alpha=1.0, d=1.0, domain=Domain.HALF_LINE,
                      delta=0.1, horizon=1.0, replications=1)
        if 0 <= seed < 2**64:
            assert EstimatorConfig(seed=seed, **kwargs).seed == seed
        else:
            with pytest.raises(ValueError):
                EstimatorConfig(seed=seed, **kwargs)

    def test_grid_count_decimal_forgiveness(self):
        # 0.3/0.1 = 2.999...96 in binary; the count must still be 3
        assert grid_count(0.3, 0.1) == 3
        assert grid_count(1.0, 0.1) == 10
        assert grid_count(0.29, 0.1) == 2


def _row_shapes():
    """(n, width, embedded) over iid and embedded rows, narrow to very wide."""
    ns = list(range(1, 4097)) + [5000, 44976, 70001, 2**20 + 1, 10**7]
    for n in ns:
        yield n, n, False
        if n >= 2:
            yield n, _next_fast_len(2 * (n - 1)), True


class TestBatchPlan:
    def test_working_set_within_budget(self):
        # whole blocks, as many as fit 2 MiB; more only for the one-block
        # floor and, where an FFT runs, the _FFT_MIN_ROWS floor
        for n, width, embedded in _row_shapes():
            rows, block = _batch_rows(_rmap(n, width, embedded)), _block_rows(width)
            row_bytes = _row_bytes(_rmap(n, width, embedded))
            assert rows % block == 0
            floor = max(block, _FFT_MIN_ROWS if embedded else 1)
            assert rows * row_bytes <= _BATCH_BYTES or rows == floor
            assert rows == floor or (rows + block) * row_bytes > _BATCH_BYTES

    def test_huge_rows(self):
        assert _batch_rows(_rmap(2**30, 2**30, False)) == 1
        assert _batch_rows(_rmap(2**29, 2**30, True)) == _FFT_MIN_ROWS

    @pytest.mark.parametrize("n,width,embedded", [
        (172, 360, True), (2120, 2120, False), (44976, 90000, True), (20, 40, True),
    ])
    def test_batch_rows_do_not_grow_with_replications(self, n, width, embedded):
        rows = _batch_rows(_rmap(n, width, embedded))
        for reps in (1, 7, 100, 10**4, 10**6, 10**8):
            for threads in (1, 2, 4):
                plan = _batch_plan(reps, _rmap(n, width, embedded), threads, 1)
                assert plan.rows <= rows
                assert plan.rows == min(rows, max(hi - lo for lo, hi in plan.shares))

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    @pytest.mark.parametrize("reps", [1, 7, 64, 65, 320, 1000, 4099])
    def test_shares_are_contiguous_and_near_equal(self, reps, threads):
        plan = _batch_plan(reps, _rmap(100, 2048, True), threads, 1)  # blocks of 64 rows
        nblocks = -(-reps // 64)
        assert len(plan.shares) == min(threads, nblocks)
        assert plan.shares[0][0] == 0 and plan.shares[-1][1] == reps
        for (_, hi), (lo, _) in zip(plan.shares, plan.shares[1:]):
            assert hi == lo and lo % 64 == 0
        sizes = [-(-(hi - lo) // 64) for lo, hi in plan.shares]
        assert sum(sizes) == nblocks and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("threads", [0, -3, 1.5, True])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            _batch_plan(10, _rmap(10, 10, False), threads, 1)
        cfg = EstimatorConfig(alpha=1.0, d=2.0, domain=Domain.HALF_LINE,
                              delta=0.1, horizon=1.0, replications=10, seed=1)
        with pytest.raises(ValueError, match="threads"):
            estimate_constant(cfg, threads=threads)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_grid_beyond_physical_memory_rejected_before_allocating(
            self, alpha, monkeypatch):
        def unreachable(*args):
            raise AssertionError("allocated before the memory check")

        monkeypatch.setattr(estimator, "_drift", unreachable)
        monkeypatch.setattr(estimator, "_cached", unreachable)
        monkeypatch.setattr(estimator, "_cgroup_memory_max", lambda: None)
        cfg = EstimatorConfig(alpha=alpha, d=2.0, domain=Domain.HALF_LINE,
                              delta=1e-9, horizon=100.0, replications=1, seed=1)
        m = "none" if alpha == 1.0 else _next_fast_len(2 * (10**11 - 1))
        with pytest.raises(ValueError, match=rf"n=100000000000 .* m={m} needs \d+ bytes"):
            _simulate_functionals(cfg, [1])

    def test_plan_bytes(self):
        # drift, table, the spectrum's build (autocovariances, first row,
        # complex FFT input and output) and two workers' buffers
        plan = _batch_plan(1000, _rmap(172, 360, True), 2, 3)
        assert plan.nbytes == (8 * 173 + 8 * 3000 + 8 * 181 + 8 * 360 + 32 * 360
                               + 2 * plan.rows * _row_bytes(_rmap(172, 360, True)))
        plan = _batch_plan(1000, _rmap(172, 172, False), 2, 3)
        assert plan.nbytes == (8 * 173 + 8 * 3000
                               + 2 * plan.rows * _row_bytes(_rmap(172, 172, False)))
        # the dense map and the Schur factor it is cumulated from
        plan = _batch_plan(1000, _rmap(172, 172, dense=True), 2, 3)
        assert plan.nbytes == (8 * 173 + 8 * 3000 + 8 * 172 * 173 + 8 * 172 * 172
                               + 2 * plan.rows * _row_bytes(_rmap(172, 172, dense=True)))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("reps", [1, 3, 7, 100, 1027, 10**4])
    def test_dense_buffers_hold_whole_products(self, reps, threads):
        # a share shorter than one product still gets a whole (c, n) buffer
        n = 172
        c = _gemm_rows(n)
        plan = _batch_plan(reps, _rmap(n, n, dense=True), threads, 1)
        assert plan.rows % c == 0 and plan.block % c == 0
        assert plan.rows >= min(_batch_rows(_rmap(n, n, dense=True)),
                                max(hi - lo for lo, hi in plan.shares))
        assert plan.rows - c < min(_batch_rows(_rmap(n, n, dense=True)),
                                   max(hi - lo for lo, hi in plan.shares))

    def test_plan_bytes_cover_dense_map_build(self):
        import tracemalloc

        n = _DENSE_MAX_N
        tracemalloc.start()
        try:
            _dense_map(0.7, n, n // 2, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plan = _batch_plan(1, _rmap(n, n, dense=True), 1, 1)
        counted = plan.nbytes - 8 * (n + 1) - 8 - plan.rows * _row_bytes(_rmap(n, n, dense=True))
        assert counted == 8 * n * (n + 1) + 8 * n * n
        assert 0.9 * counted <= peak <= 1.1 * counted

    def test_fft_floor_yields_to_memory(self, monkeypatch):
        # n = 2.5e7 on two workers: 8.20 GiB at the 4-row floor, over an
        # 8 GiB limit, but 3.73 GiB at one block (one row) per batch
        n, m = 25_000_000, 50_000_000
        assert _next_fast_len(2 * (n - 1)) == m and _block_rows(m) == 1
        fixed = 8 * (n + 1) + 8 * 100 + 8 * (m // 2 + 1) + 40 * m
        monkeypatch.setattr(estimator, "_memory_limit", lambda: (2**40, "physical memory"))
        plan = _batch_plan(100, _rmap(n, m, True), 2, 1)
        assert plan.rows == _FFT_MIN_ROWS == 4
        assert plan.nbytes == fixed + 2 * 4 * _row_bytes(_rmap(n, m, True)) > 8 * 2**30
        monkeypatch.setattr(estimator, "_memory_limit", lambda: (8 * 2**30, "physical memory"))
        plan = _batch_plan(100, _rmap(n, m, True), 2, 1)
        assert plan.rows == 1 and plan.shares == ((0, 50), (50, 100))
        assert plan.nbytes == fixed + 2 * _row_bytes(_rmap(n, m, True)) < 4 * 2**30
        monkeypatch.setattr(estimator, "_memory_limit", lambda: (3 * 2**30, "physical memory"))
        with pytest.raises(ValueError, match=rf"needs {plan.nbytes} bytes"):
            _batch_plan(100, _rmap(n, m, True), 2, 1)

    def test_plan_bytes_cover_spectrum_build(self):
        # the build's peak, measured, stays within what the plan counts
        import tracemalloc

        n = 44976  # the gap study's grid, m = 90000
        m = _next_fast_len(2 * (n - 1))
        tracemalloc.start()
        try:
            circulant_spectrum(0.7, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plan = _batch_plan(1, _rmap(n, m, True), 1, 1)
        counted = plan.nbytes - 8 * (n + 1) - 8 - plan.rows * _row_bytes(_rmap(n, m, True))
        assert 0.5 * counted <= peak <= 1.1 * counted

    def test_plan_bytes_cover_batch_buffers(self):
        # the gap study's grid on two workers of one 4-row batch each: once
        # a first run has cached the spectrum and made numpy's lazy imports,
        # the measured peak is the drift, the table and the buffers, with the
        # path values in the half-spectrum buffer (a separate values buffer
        # would add 2.9 MB, a quarter more)
        import tracemalloc

        cfg = EstimatorConfig(alpha=0.5, d=2.0, domain=Domain.HALF_LINE, delta=0.01,
                              horizon=449.76, replications=8, seed=3)
        n = sum(cfg.side_counts())
        m = _next_fast_len(2 * (n - 1))
        assert (n, m) == (44976, 90000)
        plan = _batch_plan(8, _rmap(n, m, True), 2, 1)
        assert plan.rows == 4 and len(plan.shares) == 2
        assert _row_bytes(_rmap(n, m, True)) == 8 * m + 16 * (m // 2 + 1)
        counted = plan.nbytes - (8 * (m // 2 + 1) + 8 * m + 32 * m)
        first = _simulate_functionals(cfg, [1], threads=2)
        tracemalloc.start()
        try:
            again = _simulate_functionals(cfg, [1], threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(first, again)
        assert 0.9 * counted <= peak <= 1.05 * counted

    def test_eigenvalues_own_their_memory(self):
        # a real copy of the transform, not a view that keeps the complex
        # FFT output alive
        spectrum = circulant_spectrum(0.5, 1000)
        assert spectrum.eigenvalues.base is None
        assert spectrum.eigenvalues.nbytes == 8 * spectrum.m

    @pytest.mark.parametrize("cgroup,leaf,limit,source", [
        (None, None, None, "physical memory"),
        (2**70, "memory.max", None, "physical memory"),
        (10**6, "memory.max", 10**6, "the cgroup's memory.max"),
        (10**6, "memory.limit_in_bytes", 10**6, "the cgroup's memory.limit_in_bytes"),
    ])
    def test_memory_limit_is_the_smaller_of_physical_and_cgroup(
            self, monkeypatch, cgroup, leaf, limit, source):
        # the error names the file the limit came from: v2 memory.max or
        # v1 memory.limit_in_bytes
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        monkeypatch.setattr(estimator, "_cgroup_memory_max",
                            lambda: None if cgroup is None else (cgroup, leaf))
        assert estimator._memory_limit() == (limit or physical, source)
        if limit:
            with pytest.raises(ValueError, match=rf"needs \d+ bytes, more than the "
                                                 rf"1000000 bytes of {re.escape(source)}$"):
                _batch_plan(1000, _rmap(2120, 2120, False), 1, 1)

    @pytest.mark.parametrize("files,expected", [
        ({"/proc/self/cgroup": "0::/a/b\n",
          "/sys/fs/cgroup/a/b/memory.max": "1073741824\n"}, (2**30, "memory.max")),
        ({"/proc/self/cgroup": "4:memory:/x\n0::/\n",
          "/sys/fs/cgroup/memory.max": "536870912\n"}, (2**29, "memory.max")),
        ({"/proc/self/cgroup": "0::/a\n", "/sys/fs/cgroup/a/memory.max": "max\n"}, None),
        ({"/proc/self/cgroup": "0::/a\n"}, None),
        ({"/proc/self/cgroup": "4:memory:/x\n"}, None),
        ({}, None),
        ({"/proc/self/cgroup": "4:memory:/x\n0::/\n",
          "/sys/fs/cgroup/memory/x/memory.limit_in_bytes": "1073741824\n",
          "/sys/fs/cgroup/memory.max": "536870912\n"}, (2**30, "memory.limit_in_bytes")),
        ({"/proc/self/cgroup": "5:cpu:/y\n4:memory:/\n0::/\n",
          "/sys/fs/cgroup/cpu/y/memory.limit_in_bytes": "1\n",
          "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n"},
         (9223372036854771712, "memory.limit_in_bytes")),
        ({"/proc/self/cgroup": "bad line\n4:memory:/x\n",
          "/sys/fs/cgroup/memory/x/memory.limit_in_bytes": "junk\n"}, None),
    ], ids=["limit", "root", "max", "no-file", "v1-only", "no-proc",
            "v1-limit", "v1-unlimited", "v1-junk"])
    def test_cgroup_reader(self, monkeypatch, files, expected):
        # the reader sees only the fake files, never the real hierarchy
        def fake_open(path, *args, **kwargs):
            if path not in files:
                raise FileNotFoundError(path)
            return io.StringIO(files[path])

        monkeypatch.setattr(estimator, "open", fake_open, raising=False)
        assert estimator._cgroup_memory_max() == expected


class TestBlockRows:
    def test_largest_power_of_two_within_block_budget(self):
        widths = list(range(1, 2**16 + 1)) + [90_000, 2**17, 2**17 + 1, 2**22, 2**30]
        for w in widths:
            block = _block_rows(w)
            assert block & (block - 1) == 0
            assert block == 1 or block * w <= 2**17
            assert 2 * block * w > 2**17
            assert block == block_rows(w)
            assert _batch_rows(_rmap(w, w, False)) % block == 0
        assert [_block_rows(w) for w in (360, 2120, 90_000)] == [256, 32, 1]

    def test_depends_on_width_alone(self, monkeypatch):
        # the engine asks for the block size of its row width only, and
        # the thread count and replication count do not change the answer
        seen = []
        monkeypatch.setattr(estimator, "_block_rows",
                            lambda width: seen.append(width) or block_rows(width))
        cfg = EstimatorConfig(alpha=1.5, d=0.5, domain=Domain.FULL_LINE,
                              delta=0.05, horizon=4.0, replications=300, seed=5)
        tables = [_simulate_functionals(cfg, [1], threads=t) for t in (1, 2, 3)]
        assert set(seen) == {sum(cfg.side_counts())}  # dense rows: n normals
        assert all(np.array_equal(tables[0], t) for t in tables[1:])


class TestEstimateConstant:
    def _config(self, **kw):
        base = dict(alpha=1.0, d=2.0, domain=Domain.HALF_LINE, delta=0.05,
                    horizon=5.0, replications=400, seed=17)
        base.update(kw)
        return EstimatorConfig(**base)

    def test_method_selection(self):
        assert estimate_constant(self._config(d=2.0)).method == "sample-mean"
        assert estimate_constant(self._config(d=0.5)).method == "median-of-means"
        assert estimate_constant(self._config(d=1.0)).method == "median-of-means"

    def test_estimate_at_least_one(self):
        for alpha in (0.5, 1.0, 1.5):
            for d in (0.5, 3.0):
                res = estimate_constant(self._config(alpha=alpha, d=d,
                                                     replications=100))
                assert res.estimate >= 1.0

    def test_ci_brackets_estimate(self):
        res = estimate_constant(self._config())
        assert res.ci_low <= res.estimate <= res.ci_high
        res = estimate_constant(self._config(d=0.5))
        assert res.ci_low <= res.estimate <= res.ci_high
        assert res.stderr is None

    def test_deterministic_across_thread_counts(self):
        cfg = self._config(replications=300)
        r1 = estimate_constant(cfg, threads=1)
        r4 = estimate_constant(cfg, threads=4)
        assert r1 == r4
        # and across repeated runs
        assert estimate_constant(cfg, threads=2) == r1

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_batched_matches_per_path_pipeline(self, alpha, domain, threads,
                                               monkeypatch):
        # blocks of two rows in batches of four: seven rows make two batches
        # of two blocks each, the second batch starts on a block boundary and
        # its last block is short.  The engine must reproduce the per-path
        # oracle and the public path sampler bit-for-bit, including the
        # alpha = 1 shortcut.  The grid is short, so the embedding is forced.
        monkeypatch.setattr(estimator, "_DENSE_MAX_N", 0)
        monkeypatch.setattr(estimator, "_block_rows", lambda width: 2)
        monkeypatch.setattr(estimator, "_batch_rows", lambda rmap: 4)
        cfg = EstimatorConfig(alpha=alpha, d=0.3, domain=domain,
                              delta=0.3, horizon=3.0, replications=7, seed=99)
        table = _simulate_functionals(cfg, strides=[1, 2, 3], threads=threads)
        neg, pos = cfg.side_counts()
        n = neg + pos
        width = n if alpha == 1.0 else circulant_spectrum(alpha, n).m
        for r in range(cfg.replications):
            path = replication_path(cfg, r, block=2)
            recs = subsampled_functionals(path, cfg.d, cfg.domain, [1, 2, 3])
            assert [rec.functional for rec in recs] == list(table[r])
            unit = sample_two_sided_path(cfg.alpha, neg, pos,
                                         replication_stream(cfg.seed, r, width, 2))
            assert np.array_equal(unit * cfg.delta ** (cfg.alpha / 2.0), path.values)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_real_fft_floor_matches_oracle(self, threads):
        # nothing patched: m = 34560 gives blocks of 2 rows and the 4-row
        # FFT floor, so 9 rows are batches of 4, 4 and 1 on one thread and
        # blocks [0, 2) and [2, 5) on two
        cfg = EstimatorConfig(alpha=0.5, d=0.7, domain=Domain.HALF_LINE, delta=0.01,
                              horizon=170.0, replications=9, seed=41)
        n = sum(cfg.side_counts())
        m = _next_fast_len(2 * (n - 1))
        assert (n, m, _block_rows(m), _batch_rows(_rmap(n, m, True))) == (17000, 34560, 2, 4)
        table = _simulate_functionals(cfg, [1, 3], threads=threads)
        for r in range(cfg.replications):
            recs = subsampled_functionals(replication_path(cfg, r), cfg.d, cfg.domain, [1, 3])
            assert [rec.functional for rec in recs] == list(table[r])

    @pytest.mark.parametrize("domain", list(Domain))
    def test_brownian_rows_use_raw_normals(self, domain):
        # alpha = 1 has iid increments, so row r is the penalized sup of the
        # cumulated row r mod B of block r // B, with no embedding in
        # between; block b is B rows of n normals drawn in one call from
        # SFC64 seeded by child b of the seed's SeedSequence.  The run ends
        # in a short block.
        neg, pos = EstimatorConfig(alpha=1.0, d=2.0, domain=domain, delta=0.05,
                                   horizon=2.0, replications=1, seed=31).side_counts()
        n = neg + pos
        block = _block_rows(n)
        cfg = EstimatorConfig(alpha=1.0, d=2.0, domain=domain, delta=0.05,
                              horizon=2.0, replications=block + 5, seed=31)
        table = _simulate_functionals(cfg, strides=[1], threads=1)
        blocks = [
            np.random.Generator(np.random.SFC64(child)).standard_normal((block, n))
            for child in np.random.SeedSequence(cfg.seed).spawn(2)
        ]
        k = np.arange(-neg, pos + 1, dtype=float)
        drift = (1.0 + cfg.d) * np.abs(k * cfg.delta) ** cfg.alpha
        first = neg if domain is Domain.HALF_LINE else 0
        for r in range(cfg.replications):
            z = blocks[r // block][r % block]
            values = np.concatenate([[0.0], np.cumsum(z)])
            values -= values[neg]
            values[neg] = 0.0
            field = math.sqrt(2.0) * (cfg.delta ** 0.5 * values) - drift
            assert table[r, 0] == np.exp(field[first:].max())

    def test_brownian_deterministic_across_threads_and_batches(self):
        n = sum(self._config().side_counts())
        cfg = self._config(replications=_batch_rows(_rmap(n, n, False)) + 7)
        t1 = _simulate_functionals(cfg, [1, 2], threads=1)
        t2 = _simulate_functionals(cfg, [1, 2], threads=2)
        assert np.array_equal(t1, t2)

    def test_embedded_deterministic_across_threads_and_batches(self, monkeypatch):
        # n = 20 increments embed in m = 40 (forced: the grid is short), so
        # this is two batches and a short third, run by two and three
        # workers that each reuse one set of buffers
        monkeypatch.setattr(estimator, "_DENSE_MAX_N", 0)
        cfg = self._config(alpha=0.5, d=0.5, domain=Domain.FULL_LINE,
                           horizon=0.5, replications=2 * _batch_rows(_rmap(20, 40, True)) + 9)
        assert circulant_spectrum(cfg.alpha, sum(cfg.side_counts())).m == 40
        t1 = _simulate_functionals(cfg, [1, 3], threads=1)
        for threads in (2, 3):
            assert np.array_equal(t1, _simulate_functionals(cfg, [1, 3], threads=threads))

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_block_stream_matches_oracle(self, alpha, monkeypatch):
        # the real block size: rows 0, B - 1, B and the short last block
        # against the per-path oracle, which draws and drops earlier rows;
        # the embedding is forced on this short grid
        monkeypatch.setattr(estimator, "_DENSE_MAX_N", 0)
        cfg = self._config(alpha=alpha, d=0.7, domain=Domain.FULL_LINE,
                           delta=0.05, horizon=2.0, replications=1)
        n = sum(cfg.side_counts())
        block = block_rows(n if alpha == 1.0 else circulant_spectrum(alpha, n).m)
        cfg = self._config(alpha=alpha, d=0.7, domain=Domain.FULL_LINE,
                           delta=0.05, horizon=2.0, replications=2 * block + 3)
        table = _simulate_functionals(cfg, [1, 2], threads=2)
        for r in (0, block - 1, block, 2 * block, 2 * block + 2):
            recs = subsampled_functionals(replication_path(cfg, r), cfg.d, cfg.domain, [1, 2])
            assert [rec.functional for rec in recs] == list(table[r])

    def test_small_run_splits_over_workers(self, monkeypatch):
        # 4000 rows of width 100 are four blocks of 1024 rows, the last one
        # short, and a batch is one block; two threads take two contiguous
        # blocks each and give the one-thread result
        fills = []
        fill = estimator._fill_normals

        def spy(seed, z, first, block):
            fills.append((first, len(z), threading.get_ident()))
            fill(seed, z, first, block)

        cfg = self._config(replications=4000)
        assert sum(cfg.side_counts()) == 100 and _batch_rows(_rmap(100, 100, False)) == 1024
        t1 = _simulate_functionals(cfg, [1, 2], threads=1)
        monkeypatch.setattr(estimator, "_fill_normals", spy)
        t2 = _simulate_functionals(cfg, [1, 2], threads=2)
        fills.sort()
        assert [f[:2] for f in fills] == [(0, 1024), (1, 1024), (2, 1024), (3, 928)]
        assert fills[0][2] == fills[1][2] != fills[2][2] == fills[3][2]
        assert np.array_equal(t1, t2)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_uneven_block_shares_match_one_thread_and_oracle(self, alpha, monkeypatch):
        # five blocks, the last one short, in batches of one block: two
        # workers take blocks [0, 2) and [2, 5), three take [0, 1), [1, 3)
        # and [3, 5); the embedding is forced on this short grid
        monkeypatch.setattr(estimator, "_DENSE_MAX_N", 0)
        cfg = self._config(alpha=alpha, d=0.7, domain=Domain.FULL_LINE,
                           delta=0.05, horizon=2.0, replications=1)
        n = sum(cfg.side_counts())
        block = block_rows(n if alpha == 1.0 else circulant_spectrum(alpha, n).m)
        monkeypatch.setattr(estimator, "_batch_rows",
                            lambda rmap: block_rows(rmap.width))
        cfg = self._config(alpha=alpha, d=0.7, domain=Domain.FULL_LINE,
                           delta=0.05, horizon=2.0, replications=4 * block + 3)
        t1 = _simulate_functionals(cfg, [1, 2], threads=1)
        for threads in (2, 3):
            assert np.array_equal(t1, _simulate_functionals(cfg, [1, 2], threads=threads))
        for r in (0, block - 1, block, 2 * block - 1, 2 * block, 3 * block - 1,
                  3 * block, 4 * block, 4 * block + 2):
            recs = subsampled_functionals(replication_path(cfg, r), cfg.d, cfg.domain, [1, 2])
            assert [rec.functional for rec in recs] == list(t1[r])

    def test_lone_batch_runs_on_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single batch must not start a thread pool")

        cfg = self._config(replications=50)
        t1 = _simulate_functionals(cfg, [1])
        monkeypatch.setattr("piterbarg.estimator.ThreadPoolExecutor", no_pool)
        assert np.array_equal(t1, _simulate_functionals(cfg, [1], threads=4))

    def test_replication_prefix_stability(self):
        cfg_small = self._config(replications=40)
        cfg_large = self._config(replications=80)
        f_small = _simulate_functionals(cfg_small, [1])
        f_large = _simulate_functionals(cfg_large, [1])
        assert np.array_equal(f_small, f_large[:40])

    def test_brownian_estimate_tracks_corrected_closed_form(self):
        # d = 1 puts the estimator in the median-of-means regime; the
        # sqrt(delta)-corrected closed form predicts ~1.8478 at delta = 0.01
        delta = 0.01
        cfg = EstimatorConfig(alpha=1.0, d=1.0, domain=Domain.HALF_LINE,
                              delta=delta, horizon=plan_horizon(delta, 1.0),
                              replications=20_000, seed=4242)
        res = estimate_constant(cfg, threads=2)
        predicted = 2.0 / (1.0 + rate_constant().value * math.sqrt(delta))
        half_width = 0.5 * (res.ci_high - res.ci_low)
        tol = 3.0 * half_width + 0.02  # interval noise plus heavy-tail slack
        assert abs(res.estimate - predicted) < tol, (
            f"estimate {res.estimate:.4f} vs predicted {predicted:.4f} "
            f"(tol {tol:.4f})"
        )


class TestDenseRows:
    """Grids of at most ``_DENSE_MAX_N`` increments at alpha != 1: n normals
    a row, mapped by one product per chunk of ``_gemm_rows(n)`` rows."""

    def _config(self, **kw):
        # n = 80 increments, blocks of 1024 rows, products of 32 rows
        base = dict(alpha=0.5, d=0.7, domain=Domain.FULL_LINE, delta=0.05,
                    horizon=2.0, replications=2 * 1024 + 3, seed=23)
        base.update(kw)
        return EstimatorConfig(**base)

    def test_products_stay_below_the_one_thread_gemm_size(self):
        # 4 rows or more, so no product is a gemv, and at most 2^18
        # multiply-adds, which OpenBLAS runs on the calling thread; chunks
        # tile the stream blocks, so batches and shares start on a chunk,
        # and a batch that _batch_plan cuts to one block for memory holds
        # whole chunks
        for n in range(2, _DENSE_MAX_N + 1):
            c = _gemm_rows(n)
            assert c >= 4 and c & (c - 1) == 0
            assert c * n * (n + 1) <= _GEMM_MAX_MADDS < 2 * c * n * (n + 1)
            assert _block_rows(n) % c == 0
        assert _gemm_rows(_DENSE_MAX_N + 1) < 4

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.5, 1.9])
    def test_rows_match_cholesky_oracle(self, alpha, domain):
        # the per-path oracle's LAPACK factor and gemv round differently
        # from the engine's Schur factor and gemm, so the rows agree to
        # rounding: rows 0, B - 1, B and the short last block
        block = block_rows(sum(self._config(domain=domain).side_counts()))
        cfg = self._config(alpha=alpha, domain=domain, replications=2 * block + 3)
        table = _simulate_functionals(cfg, [1, 2, 3], threads=2)
        for r in (0, 1, block - 1, block, 2 * block, 2 * block + 2):
            recs = subsampled_functionals(replication_path(cfg, r, dense=True),
                                          cfg.d, cfg.domain, [1, 2, 3])
            np.testing.assert_allclose(table[r], [rec.functional for rec in recs],
                                       rtol=1e-12)

    def test_one_product_shape(self, monkeypatch):
        # every product is (k, c, n) @ (n, n + 1), the short last block
        # padded to whole chunks
        shapes = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            shapes.append((a.shape, b.shape))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(estimator.np, "matmul", spy)
        _simulate_functionals(self._config(replications=1024 + 35), [1])
        c, n = _gemm_rows(80), 80
        assert shapes == [((1024 // c, c, n), (n, n + 1)), ((2, c, n), (n, n + 1))]

    def test_bit_identical_across_threads_batchings_and_counts(self, monkeypatch):
        # three and a bit blocks: one, two and three workers, batches of one
        # block and of two, and a count that ends the run mid-block
        cfg = self._config(replications=3 * 1024 + 70)
        reference = _simulate_functionals(cfg, [1, 2], threads=1)
        for threads in (2, 3):
            assert np.array_equal(reference, _simulate_functionals(cfg, [1, 2], threads=threads))
        monkeypatch.setattr(estimator, "_batch_rows",
                            lambda rmap: 2 * _block_rows(rmap.width))
        for threads in (1, 2, 3):
            assert np.array_equal(reference, _simulate_functionals(cfg, [1, 2], threads=threads))
        for reps in (1, 5, 1024 + 3, 3 * 1024 + 33):
            short = _simulate_functionals(self._config(replications=reps), [1, 2], threads=2)
            assert np.array_equal(short, reference[:reps])

    def test_bit_identical_across_openblas_threads(self):
        # the products are small enough for OpenBLAS to run on the calling
        # thread, so its thread count cannot change a bit
        script = (
            "import hashlib\n"
            "from piterbarg import Domain, EstimatorConfig\n"
            "from piterbarg.estimator import _simulate_functionals\n"
            "cfg = EstimatorConfig(alpha=1.5, d=0.5, domain=Domain.FULL_LINE, "
            "delta=0.05, horizon=4.3, replications=3000, seed=9)\n"
            "table = _simulate_functionals(cfg, [1, 2], threads=2)\n"
            "print(hashlib.sha256(table.tobytes()).hexdigest())\n"
        )
        src = str(Path(estimator.__file__).resolve().parents[1])
        digests = []
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True, timeout=120)
            digests.append(proc.stdout.strip())
        cfg = EstimatorConfig(alpha=1.5, d=0.5, domain=Domain.FULL_LINE, delta=0.05,
                              horizon=4.3, replications=3000, seed=9)
        assert sum(cfg.side_counts()) == 172  # the full_heavy grid
        here = _simulate_functionals(cfg, [1, 2], threads=1)
        assert digests == [hashlib.sha256(here.tobytes()).hexdigest()] * 2


class TestPathSampler:
    """``sample_two_sided_path`` draws one row of the engine's row map."""

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_dense_row_matches_cholesky_oracle(self, domain):
        # alpha = 0.7, n = 30 or 60: a dense row of n normals; the oracle's
        # LAPACK factor rounds differently from the Schur factor
        cfg = EstimatorConfig(alpha=0.7, d=2.0, domain=domain, delta=0.1,
                              horizon=3.0, replications=4, seed=2026)
        neg, pos = cfg.side_counts()
        n = neg + pos
        assert n <= _DENSE_MAX_N
        for r in (0, 3):
            unit = sample_two_sided_path(cfg.alpha, neg, pos,
                                         replication_stream(cfg.seed, r, n, block_rows(n)))
            expected = replication_path(cfg, r, dense=True).values / cfg.delta ** (cfg.alpha / 2)
            assert unit[neg] == 0.0
            np.testing.assert_allclose(unit, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("alpha,neg,pos", [
        (0.7, 1, 1), (0.3, 0, 4), (1.5, 15, 15), (0.7, 86, 86), (1.9, 0, 255),
    ])
    def test_dense_row_is_the_engines_row(self, alpha, neg, pos):
        # the engine's batch buffers, normals and products (its gains left
        # out) give the sampler's row bit for bit: in a full chunk and in
        # the short last one, which both pad differently from the sampler
        rmap = _row_map(alpha, neg, pos)
        n, c = rmap.n, _gemm_rows(rmap.n)
        assert rmap.kind == "dense"
        reps = c + 3
        plan = _batch_plan(reps, rmap, 1, 1)
        assert reps < plan.rows
        z, w, values = _row_buffers(rmap, plan.rows)
        _fill_normals(2027, z[:reps], 0, plan.block)
        _map_rows(rmap, z, w, values, reps)
        for r in (0, 1, c - 1, c, c + 2):
            row = sample_two_sided_path(alpha, neg, pos,
                                        replication_stream(2027, r, n, plan.block))
            assert np.array_equal(row, values[r]), r

    @pytest.mark.parametrize("alpha,neg,pos", [
        (0.7, 10, 20), (1.0, 10, 20), (1.5, 0, 1), (0.7, 150, 150), (0.7, 1, 1),
    ])
    def test_consumes_one_row(self, alpha, neg, pos):
        # dense (n = 30 and 2) and iid rows take n normals, circulant ones (n = 300) the m
        # of the embedding: the next draw is the stream's normal width + 1
        n = neg + pos
        width = circulant_spectrum(alpha, n).m if n > _DENSE_MAX_N else n
        rng = np.random.default_rng(8)
        sample_two_sided_path(alpha, neg, pos, rng)
        assert rng.standard_normal() == np.random.default_rng(8).standard_normal(width + 1)[-1]


class TestAggregation:
    def _config(self, d):
        return EstimatorConfig(alpha=1.0, d=d, domain=Domain.HALF_LINE,
                               delta=0.1, horizon=1.0, replications=48, seed=0)

    def test_median_of_means_known_blocks(self):
        # 48 values in 24 blocks of 2: block means 1.5, 3.5, ..., 47.5;
        # median = 24.5, CI = 7th and 18th order statistics
        values = np.arange(1.0, 49.0)
        res = _aggregate(values, self._config(d=0.5))
        assert res.estimate == 24.5
        assert res.ci_low == 13.5
        assert res.ci_high == 35.5
        assert res.method == "median-of-means"

    def test_median_of_means_ci_rank_table(self):
        # Binom(K, 1/2) order-statistic ranks for K = 1..24, as scipy's
        # binom.cdf gives them
        expected = [None] * 5 + [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5,
                                 6, 6, 6, 7, 7]
        assert [_mom_ci_rank(k) for k in range(1, 25)] == expected

    def test_sample_mean_known_values(self):
        values = np.arange(1.0, 49.0)
        res = _aggregate(values, self._config(d=2.0))
        assert res.estimate == values.mean()
        expected_se = values.std(ddof=1) / math.sqrt(48)
        assert res.stderr == pytest.approx(expected_se, rel=1e-15)
        assert res.stat_error() == res.stderr
