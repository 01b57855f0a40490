"""Tests for the supremum functional, subsampling, and the MC estimator."""

import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import piterbarg.estimator as estimator
import piterbarg.fbm as fbm
import piterbarg.rate_study as rate_study
from oracle import (
    PathGrid,
    block_rows,
    cholesky_sample,
    cumulated_path,
    replication_path,
    replication_stream,
    subsampled_functionals,
    sup_functional,
    window_fgn,
    window_path,
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
    _FFT_MIN_ROWS,
    _aggregate,
    _batch_plan,
    _batch_rows,
    _block_rows,
    _fill_normals,
    _map_rows,
    _mom_ci_rank,
    _row_buffers,
    _row_bytes,
    _row_map,
    _row_operator,
    _RowMap,
    _simulate_functionals,
    _std_error,
    _window,
    grid_count,
)
from piterbarg.fbm import _next_fast_len


def _rmap(n, width, embedded=False):
    """A half-line row map of n increments and rows of ``width`` normals (four
    windows of four replications); the plan reads only its kind, neg, n and
    width."""
    return _RowMap("circulant" if embedded else "iid", 0.5, 0, n, width)


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that logs each call; the log."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


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
    """Golden values of stream contract v9, so that a change of numpy or of
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

    def test_functional_row(self):
        # the embedding's FFT may round differently on another platform, so
        # the row is pinned to 1e-12, far below what a moved stream changes.
        # Replication 8 is ring window 0 of stream row 1 (n = 80, m = 160),
        # v6's replication 2 and its value (v9 rescales the ring's prefix
        # sums before the anchor is subtracted, which moves it by rounding
        # only); replication 9 is its sign flip.
        cfg = EstimatorConfig(alpha=0.5, d=0.7, domain=Domain.FULL_LINE,
                              delta=0.05, horizon=2.0, replications=10, seed=20260810)
        rows = _simulate_functionals(cfg, [1, 2])[8:]
        assert rows.tolist() == [pytest.approx([3.3238495930746836, 2.369413850077903], rel=1e-12),
                                 pytest.approx([1.1653361914539049] * 2, rel=1e-12)]

    def test_dense_functional_row(self):
        # the same config, which v5 drew from the dense map (the test keeps
        # its name): replications 0 and 4 are ring windows 0 and 2 of stream
        # row 0, which start where v6's replications 0 and 1 did (the second
        # one's sup is at the anchor), and 1 and 5 their sign flips
        cfg = EstimatorConfig(alpha=0.5, d=0.7, domain=Domain.FULL_LINE,
                              delta=0.05, horizon=2.0, replications=7, seed=20260810)
        assert _row_map(cfg.alpha, *cfg.side_counts()).kind == "circulant"
        rows = _simulate_functionals(cfg, [1, 2])[[0, 1, 4, 5]]
        assert rows.tolist() == [pytest.approx([5.864606875849611] * 2, rel=1e-12),
                                 pytest.approx([3.7359128726663635, 1.7303558049480385], rel=1e-12),
                                 [1.0, 1.0],
                                 pytest.approx([12.035699156209427, 3.881287009584371], rel=1e-12)]

    # the column sums of the stride-1, 2 and 4 table and the estimate's
    # fields of iid (alpha = 1) and circulant (alpha = 1.5, n = 100 and 200)
    # runs.  v9 moved all of them (four ring windows a row, on both lines).
    # exp and the FFT may round differently on another platform, hence
    # 1e-12, far below what a moved stream changes
    _IID_AND_CIRCULANT = {
        (1.0, "HALF_LINE", 0.5): [
            6221.8347350010245, 5855.0214959658615, 5300.483659906863,
            2.131476641572563, 2.0196128929351245, 2.5535545420910433,
        ],
        (1.0, "HALF_LINE", 2.0): [
            3251.4205174390618, 3089.7841769684246, 2909.387162825062,
            1.3005682069756237, 0.015164910404771114, 1.2708455287534957, 1.3302908851977517,
        ],
        (1.0, "FULL_LINE", 0.5): [
            8948.180831636102, 8316.832271505871, 7458.177550340174, 3.366724005561276,
            2.9675679865480387, 3.5838695102728217,
        ],
        (1.0, "FULL_LINE", 2.0): [
            3795.6621359234787, 3525.7610080459003, 3205.7944006241514, 1.518264854369389,
            0.01660634397508016, 1.4857170182633483, 1.5508126904754298,
        ],
        (1.5, "HALF_LINE", 0.5): [
            4491.81227932431, 4381.415430476621, 4180.59985041109,
            1.603092238280814, 1.5025935176489886, 1.7247294804171163,
        ],
        (1.5, "HALF_LINE", 2.0): [
            3003.8444337400138, 2944.5720002087264, 2863.239335558378,
            1.2015377734960049, 0.01020277385612748, 1.181540704195588, 1.2215348427964217,
        ],
        (1.5, "FULL_LINE", 0.5): [
            5979.827602258583, 5789.648935918143, 5532.959808195197, 2.1796575678121926,
            2.1031705710942576, 2.5034819850271157,
        ],
        (1.5, "FULL_LINE", 2.0): [
            3437.4842939007553, 3336.740608538868, 3174.548316441241, 1.3749937175603038,
            0.014877216741461063, 1.3458349085568437, 1.4041525265637638,
        ],
    }

    @pytest.mark.parametrize("key", list(_IID_AND_CIRCULANT),
                             ids=lambda key: "-".join(map(str, key)))
    def test_iid_and_dense_outputs_pinned(self, key):
        # the name is v5's, whose alpha = 1.5 grids took the dense map
        alpha, domain, d = key
        cfg = EstimatorConfig(alpha=alpha, d=d, domain=Domain[domain], delta=0.05,
                              horizon=5.0, replications=2500, seed=20261019)
        assert _row_map(alpha, *cfg.side_counts()).kind == ("iid" if alpha == 1.0 else "circulant")
        table = _simulate_functionals(cfg, (1, 2, 4))
        assert np.array_equal(table, _simulate_functionals(cfg, (1, 2, 4), threads=2))
        est = estimate_constant(cfg)
        fields = [x for x in (est.estimate, est.stderr, est.ci_low, est.ci_high) if x is not None]
        assert list(table.sum(axis=0)) + fields == pytest.approx(self._IID_AND_CIRCULANT[key],
                                                                 rel=1e-12)


    def test_half_line_variants_0_and_1_are_v7s_replications(self):
        # v7's half-line replications 2 and 3 (its second window and its
        # flip) at these configs, as v7 pinned them: v9's replications 8 and
        # 9 at alpha = 0.5 (ring window 2, which starts where v7's second
        # window did) and 16 and 17 at alpha = 1 (window 0 of stream row 1,
        # bit for bit v8's first window of that row)
        kw = dict(d=0.7, domain=Domain.HALF_LINE, delta=0.05, horizon=2.0, replications=18,
                  seed=20260810)
        v7 = {0.5: (8, [[1.0, 1.0], [2.1361635961487466, 1.9146873520021739]]),
              1.0: (16, [[1.0, 1.0], [1.1652798761941303, 1.1652798761941303]])}
        for alpha, (r, rows) in v7.items():
            table = _simulate_functionals(EstimatorConfig(alpha=alpha, **kw), [1, 2])
            assert table[r : r + 2].tolist() == [pytest.approx(row, rel=1e-12) for row in rows]

    # grids of each row kind, both domains: iid (alpha = 1, n = 40 or 80),
    # circulant (alpha = 0.5 and 1.5, m = 80 or 160)
    _SIGN_GRIDS = [(alpha, domain) for alpha in (0.5, 1.0, 1.5) for domain in Domain]

    @staticmethod
    def _variants(cfg):
        return _row_map(cfg.alpha, *cfg.side_counts()).variants

    @pytest.mark.parametrize("alpha,domain", _SIGN_GRIDS,
                             ids=lambda x: getattr(x, "value", x))
    def test_plus_replications_are_the_v6_windows(self, alpha, domain, monkeypatch):
        # replication V p is window p, v6's replication p, bit for bit, across
        # block boundaries (blocks of two rows); V = 2 on the full line, 4 on
        # the half line
        monkeypatch.setattr(estimator, "_block_rows", lambda width: 2)
        cfg = EstimatorConfig(alpha=alpha, d=0.7, domain=domain, delta=0.05,
                              horizon=2.0, replications=23, seed=7)
        vs = self._variants(cfg)
        cfg = dataclasses.replace(cfg, replications=12 * vs - 1)
        table = _simulate_functionals(cfg, [1, 2, 3])
        for p in range(12):
            recs = subsampled_functionals(window_path(cfg, p, block=2), cfg.d, cfg.domain,
                                          [1, 2, 3])
            assert [rec.functional for rec in recs] == list(table[vs * p])

    @pytest.mark.parametrize("alpha,domain", _SIGN_GRIDS,
                             ids=lambda x: getattr(x, "value", x))
    def test_flipped_functional_is_the_sup_of_the_negated_path(self, alpha, domain):
        # replication V p + 1 is exp(max over each stride's sub-grid of
        # -sqrt(2) v - drift), v window p's path, to rounding: the engine
        # forms it as -min(v's field + 2 drift)
        cfg = EstimatorConfig(alpha=alpha, d=0.7, domain=domain, delta=0.05,
                              horizon=2.0, replications=80, seed=8)
        neg, pos = cfg.side_counts()  # neg is 0 on the half line
        k = np.arange(-neg, pos + 1, dtype=float)
        drift = (1.0 + cfg.d) * np.abs(k * cfg.delta) ** cfg.alpha
        strides = [1, 2, 3, 5]
        table, vs = _simulate_functionals(cfg, strides), self._variants(cfg)
        for p in range(20):
            field = -math.sqrt(2.0) * window_path(cfg, p).values - drift
            expected = [math.exp(field[neg % s :: s].max()) for s in strides]
            assert table[vs * p + 1].tolist() == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha,n", [(0.5, 40), (1.0, 40), (1.5, 40), (1.0, 1), (0.5, 1)])
    def test_reversed_functional_is_the_sup_of_the_reversed_path(self, alpha, n):
        # on the half line replication 4p + 2 is the penalized sup of the
        # path cumulated from window p's increments read backwards, and
        # 4p + 3 that of its flip, at every stride, to rounding (n = 1 is
        # the one-increment grid, whose reversal is the path itself)
        cfg = EstimatorConfig(alpha=alpha, d=0.7, domain=Domain.HALF_LINE, delta=0.05,
                              horizon=0.05 * n, replications=80, seed=8)
        assert sum(cfg.side_counts()) == n and self._variants(cfg) == 4
        k = np.arange(n + 1, dtype=float)
        drift = (1.0 + cfg.d) * np.abs(k * cfg.delta) ** cfg.alpha
        strides = [s for s in (1, 2, 3, 5) if s <= n]
        table = _simulate_functionals(cfg, strides)
        for p in range(20):
            fgn = window_fgn(cfg, p)
            reversed_path = cumulated_path(cfg, fgn[::-1]).values
            for sign, r in ((1.0, 4 * p + 2), (-1.0, 4 * p + 3)):
                field = sign * math.sqrt(2.0) * reversed_path - drift
                expected = [math.exp(field[::s].max()) for s in strides]
                assert table[r].tolist() == pytest.approx(expected, rel=1e-12, abs=0.0)
            if n == 1:
                assert table[4 * p + 2] == pytest.approx(table[4 * p], rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_odd_count_is_a_prefix_of_the_next_even_one(self, alpha):
        # R = 2k + 1 drops only the last flip of R = 2k + 2, at short and
        # block-crossing counts (blocks of 64 rows or more)
        kw = dict(alpha=alpha, d=0.7, domain=Domain.FULL_LINE, delta=0.05, horizon=2.0,
                  seed=9)
        for k in (0, 1, 2, 3, 64, 129, 258):
            odd = _simulate_functionals(EstimatorConfig(replications=2 * k + 1, **kw), [1, 2])
            even = _simulate_functionals(EstimatorConfig(replications=2 * k + 2, **kw), [1, 2],
                                         threads=2)
            assert np.array_equal(odd, even[:-1]), k

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_count_inside_a_half_line_row_is_a_prefix(self, alpha):
        # a half-line count that ends at each variant of each of a row's
        # four windows (16 k + 1, ..., 16 k + 15), odd and even, is the first
        # rows of the run that fills the row, at short and block-crossing
        # counts (blocks of 1024 or 2048 rows)
        kw = dict(alpha=alpha, d=0.7, domain=Domain.HALF_LINE, delta=0.05, horizon=2.0,
                  seed=9)
        for k in (0, 1, 2, 3, 64, 129, 1023, 2049):
            full = _simulate_functionals(EstimatorConfig(replications=16 * k + 16, **kw),
                                         [1, 2], threads=2)
            for extra in range(1, 16):
                short = _simulate_functionals(
                    EstimatorConfig(replications=16 * k + extra, **kw), [1, 2])
                assert np.array_equal(short, full[: 16 * k + extra]), (k, extra)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_half_line_window_0_is_v8s_first_window(self, alpha):
        # window 0 of every half-line stream row, its four variants at
        # replications 16 e .. 16 e + 3, is bit for bit contract v8's first
        # window of row e: the plain cumulation of the ring's first n
        # increments, rescaled, as v8's oracle formed it, across blocks
        kw = dict(alpha=alpha, d=0.7, domain=Domain.HALF_LINE, delta=0.05, horizon=2.0,
                  seed=12)
        cfg = EstimatorConfig(replications=1, **kw)
        block = block_rows(_row_map(alpha, *cfg.side_counts()).width)
        cfg = EstimatorConfig(replications=16 * (block + 2) - 5, **kw)
        table = _simulate_functionals(cfg, [1, 2, 3], threads=2)
        for row in (0, 1, block - 1, block, block + 1):
            plain = cumulated_path(cfg, window_fgn(cfg, 4 * row))
            assert plain.lifted is None
            for variant in range(4):
                plain.variant = variant
                recs = subsampled_functionals(plain, cfg.d, cfg.domain, [1, 2, 3])
                assert np.array_equal([rec.functional for rec in recs], table[16 * row + variant])

    @pytest.mark.parametrize("alpha,domain", _SIGN_GRIDS,
                             ids=lambda x: getattr(x, "value", x))
    def test_flipped_crn_gaps_are_nonnegative(self, alpha, domain):
        # nested strides: each flipped path's functional on a coarser grid
        # is at most its functional on a finer one, path by path
        cfg = EstimatorConfig(alpha=alpha, d=2.0, domain=domain, delta=0.05,
                              horizon=2.0, replications=2001, seed=10)
        table = _simulate_functionals(cfg, [1, 2, 4, 8])
        flips = table[1 :: self._variants(cfg)]
        assert np.all(flips[:, :-1] >= flips[:, 1:])
        assert np.all(flips >= 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_reversed_crn_gaps_are_nonnegative(self, alpha):
        # the reversed sub-grids k = n mod s are nested too (n = 40): each
        # reversed path's functional, and its flip's, on a coarser grid is
        # at most that on a finer one, and at least 1, path by path
        cfg = EstimatorConfig(alpha=alpha, d=2.0, domain=Domain.HALF_LINE, delta=0.05,
                              horizon=2.0, replications=4001, seed=10)
        table = _simulate_functionals(cfg, [1, 2, 4, 8])
        for reversals in (table[2::4], table[3::4]):
            assert np.all(reversals[:, :-1] >= reversals[:, 1:])
            assert np.all(reversals >= 1.0)

    @pytest.mark.parametrize("alpha,domain", _SIGN_GRIDS,
                             ids=lambda x: getattr(x, "value", x))
    def test_one_and_two_threads_agree(self, alpha, domain, pool_sizes):
        # a run of several blocks (at least two, of 1024 or 2048 rows of 8
        # or 16) and an odd count, so that the last row is short, is
        # bit-identical at one and two threads
        cfg = EstimatorConfig(alpha=alpha, d=2.0, domain=domain, delta=0.05,
                              horizon=2.0, replications=16 * 2048 + 7, seed=11)
        assert np.array_equal(_simulate_functionals(cfg, [1, 3]),
                              _simulate_functionals(cfg, [1, 3], threads=2))
        assert pool_sizes == [2]


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
            yield n, _next_fast_len(2 * n), True


class TestBatchPlan:
    @pytest.fixture(autouse=True)
    def _many_cpus(self, monkeypatch):
        # a plan starts no thread: lay out more workers than the host has CPUs
        monkeypatch.setattr(estimator, "_cpu_count", lambda: 64)

    def test_working_set_within_budget(self):
        # a batch is one stream block, or the _FFT_MIN_ROWS floor where an
        # FFT runs; one block of B * width <= 2^17 normals and their
        # half-spectrum or prefix sums takes about 2 MiB
        for n, width, embedded in _row_shapes():
            rows, block = _batch_rows(_rmap(n, width, embedded)), _block_rows(width)
            row_bytes = _row_bytes(_rmap(n, width, embedded))
            assert rows == (max(block, _FFT_MIN_ROWS) if embedded else block)
            if rows == block and width <= 2**17:
                assert rows * row_bytes <= 2**21 + 16 * rows

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
    @pytest.mark.parametrize("reps", [1, 7, 64, 65, 320, 1000, 4099, 8193])
    def test_shares_are_contiguous_and_near_equal(self, reps, threads):
        # half-line circulant rows: sixteen replications a stream row,
        # blocks of 64 rows
        plan = _batch_plan(reps, _rmap(100, 2048, True), threads, 1)
        rows = -(-reps // 16)
        nblocks = -(-rows // 64)
        assert len(plan.shares) == min(threads, nblocks)
        assert plan.shares[0][0] == 0 and plan.shares[-1][1] == rows
        for (_, hi), (lo, _) in zip(plan.shares, plan.shares[1:]):
            assert hi == lo and lo % 64 == 0
        sizes = [-(-(hi - lo) // 64) for lo, hi in plan.shares]
        assert sum(sizes) == nblocks and max(sizes) - min(sizes) <= 1

    def test_workers_capped_at_the_cpus(self, monkeypatch):
        # 5000 threads on 2 CPUs: 2 shares and 2 buffer sets, not 5000 of
        # each (5.13 GiB at the uncapped plan); the cap leaves shares whole.
        # 1.6 * 10^8 replications are 10^7 half-line iid rows of sixteen
        rmap = _row_map(1.0, 0, 2120)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(estimator, "_cpu_count", lambda: cpus)
            plan = _batch_plan(16 * 10**7, rmap, 5000, 1)
            assert len(plan.shares) == cpus
            assert plan.shares[0][0] == 0 and plan.shares[-1][1] == 10**7
            assert plan.nbytes == (32 * 2121 + 128 * 10**7
                                   + cpus * plan.rows * _row_bytes(rmap))
        monkeypatch.setattr(estimator, "_cpu_count", lambda: 2)
        assert len(_batch_plan(1024, _rmap(100, 2048, True), 5000, 1).shares) == 1

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
        m = "none" if alpha == 1.0 else _next_fast_len(2 * 10**11)
        with pytest.raises(ValueError, match=rf"n=100000000000 .* m={m} needs \d+ bytes"):
            _simulate_functionals(cfg, [1])

    def test_plan_bytes(self):
        # the drift and its double, and on the half line the reversal's step
        # and the reversed double, table, the spectrum's build (autocovariances, first row, complex
        # FFT input and output) and two workers' buffers
        plan = _batch_plan(16000, _rmap(172, 360, True), 2, 3)
        assert len(plan.shares) == 2
        assert plan.nbytes == (32 * 173 + 8 * 48000 + 8 * 181 + 8 * 360 + 32 * 360
                               + 2 * plan.rows * _row_bytes(_rmap(172, 360, True)))
        plan = _batch_plan(16000, _rmap(172, 172, False), 2, 3)
        assert len(plan.shares) == 2
        assert plan.nbytes == (32 * 173 + 8 * 48000
                               + 2 * plan.rows * _row_bytes(_rmap(172, 172, False)))
        full = _RowMap("circulant", 0.5, 86, 172, 360)
        plan = _batch_plan(4000, full, 2, 3)
        assert len(plan.shares) == 2
        assert plan.nbytes == (16 * 173 + 8 * 12000 + 8 * 181 + 8 * 360 + 32 * 360
                               + 2 * plan.rows * _row_bytes(full))
        # a row's buffers: the normals (n + 1 floats at least, the window
        # field's room) and the width + 1 prefix sums, in the half-spectrum
        # where there is one
        assert _row_bytes(full) == 8 * 360 + 16 * 181
        assert _row_bytes(_rmap(172, 172, False)) == 8 * 173 + 8 * 173

    def test_fft_floor_yields_to_memory(self, monkeypatch):
        # n = 2.5e7 on two workers, full line: 8.38 GiB at the 4-row floor,
        # over an 8 GiB limit, but 3.91 GiB at one block (one row) per batch;
        # 400 replications are 50 stream rows.  The same 50 rows on the half
        # line (800 replications) add only the reversal's two arrays and the
        # 400 more table values
        n, m = 25_000_000, 50_000_000
        full = _RowMap("circulant", 0.5, n // 2, n, m)
        assert _next_fast_len(2 * n) == m and _block_rows(m) == 1
        fixed = 16 * (n + 1) + 8 * 400 + 8 * (m // 2 + 1) + 40 * m
        monkeypatch.setattr(estimator, "_memory_limit", lambda: (2**40, "physical memory"))
        plan = _batch_plan(400, full, 2, 1)
        assert plan.rows == _FFT_MIN_ROWS == 4
        assert plan.nbytes == fixed + 2 * 4 * _row_bytes(full) > 8 * 2**30
        monkeypatch.setattr(estimator, "_memory_limit", lambda: (8 * 2**30, "physical memory"))
        plan = _batch_plan(400, full, 2, 1)
        assert plan.rows == 1 and plan.shares == ((0, 25), (25, 50))
        assert plan.nbytes == fixed + 2 * _row_bytes(full) < 4 * 2**30
        half = _batch_plan(800, _rmap(n, m, True), 2, 1)
        assert half.rows == 1 and half.shares == plan.shares
        assert half.nbytes == plan.nbytes + 16 * (n + 1) + 8 * 400 < 8 * 2**30
        monkeypatch.setattr(estimator, "_memory_limit", lambda: (3 * 2**30, "physical memory"))
        with pytest.raises(ValueError, match=rf"needs {plan.nbytes} bytes"):
            _batch_plan(400, full, 2, 1)
        with pytest.raises(ValueError, match=rf"needs {half.nbytes} bytes"):
            _batch_plan(800, _rmap(n, m, True), 2, 1)

    def test_plan_bytes_cover_spectrum_build(self):
        # the build's peak, measured, stays within what the plan counts
        import tracemalloc

        n = 44976  # the gap study's grid, m = 90000
        m = _next_fast_len(2 * n)
        tracemalloc.start()
        try:
            fbm._embedding_spectrum(0.7, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plan = _batch_plan(1, _rmap(n, m, True), 1, 1)
        counted = plan.nbytes - 32 * (n + 1) - 8 - plan.rows * _row_bytes(_rmap(n, m, True))
        assert 0.5 * counted <= peak <= 1.1 * counted

    def test_plan_bytes_cover_batch_buffers(self):
        # the gap study's grid on two workers of one 4-row batch each (128
        # replications, sixteen a row): once a first run has cached the
        # spectrum and made numpy's lazy imports, the measured peak is the
        # four drift arrays, the table and the buffers, with the ring's
        # prefix sums in the half-spectrum buffer (a separate buffer would
        # add 2.9 MB), each window's field in the normals buffer and the
        # other variants in place
        import tracemalloc

        cfg = EstimatorConfig(alpha=0.5, d=2.0, domain=Domain.HALF_LINE, delta=0.01,
                              horizon=449.76, replications=128, seed=3)
        n = sum(cfg.side_counts())
        m = _next_fast_len(2 * n)
        assert (n, m) == (44976, 90000)
        plan = _batch_plan(128, _rmap(n, m, True), 2, 1)
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


def test_cpu_count_is_the_affinity_set(monkeypatch):
    # the CPUs the process may run on; all of them where the OS keeps no
    # affinity set, and one where it cannot say
    if hasattr(os, "sched_getaffinity"):
        assert estimator._cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(estimator.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 6)
    assert estimator._cpu_count() == 6
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: None)
    assert estimator._cpu_count() == 1


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
        assert set(seen) == {_next_fast_len(2 * sum(cfg.side_counts()))}  # m normals
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

    def test_deterministic_across_thread_counts(self, pool_sizes):
        cfg = self._config(replications=64000)  # four blocks of 1024 rows of sixteen
        r1 = estimate_constant(cfg, threads=1)
        r4 = estimate_constant(cfg, threads=4)
        assert r1 == r4
        # and across repeated runs
        assert estimate_constant(cfg, threads=2) == r1
        assert pool_sizes == [4, 2]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_batched_matches_per_path_pipeline(self, alpha, domain, threads,
                                               monkeypatch):
        # blocks of two rows in batches of four: 33 replications are 17 iid
        # rows on the full line and 9 on the half line, or 9 and 5 embedding
        # rows, each run's last row keeping one replication; either way a
        # later batch starts on a block boundary and the last block is
        # short.  The engine must reproduce the per-path oracle and
        # the public path sampler (a row's first window) bit-for-bit,
        # including the alpha = 1 shortcut.
        monkeypatch.setattr(estimator, "_block_rows", lambda width: 2)
        monkeypatch.setattr(estimator, "_batch_rows", lambda rmap: 4)
        cfg = EstimatorConfig(alpha=alpha, d=0.3, domain=domain,
                              delta=0.3, horizon=3.0, replications=33, seed=99)
        table = _simulate_functionals(cfg, strides=[1, 2, 3], threads=threads)
        neg, pos = cfg.side_counts()
        rmap = _row_map(alpha, neg, pos)
        assert rmap.kind == ("iid" if alpha == 1.0 else "circulant")
        for r in range(cfg.replications):
            path = replication_path(cfg, r, block=2)
            recs = subsampled_functionals(path, cfg.d, cfg.domain, [1, 2, 3])
            assert [rec.functional for rec in recs] == list(table[r])
            row, window = divmod(r, rmap.paths)
            if window == 0:
                unit = sample_two_sided_path(cfg.alpha, neg, pos,
                                             replication_stream(cfg.seed, row, rmap.width, 2))
                assert np.array_equal(unit * cfg.delta ** (cfg.alpha / 2.0), path.values)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_real_fft_floor_matches_oracle(self, threads):
        # nothing patched: m = 34560 gives blocks of 2 rows and the 4-row
        # FFT floor, so 65 replications, 9 half-line stream rows of eight,
        # are batches of 4, 4 and 1 rows on one thread and blocks [0, 2) and
        # [2, 5) on two
        cfg = EstimatorConfig(alpha=0.5, d=0.7, domain=Domain.HALF_LINE, delta=0.01,
                              horizon=170.0, replications=65, seed=41)
        n = sum(cfg.side_counts())
        m = _next_fast_len(2 * n)
        assert (n, m, _block_rows(m), _batch_rows(_rmap(n, m, True))) == (17000, 34560, 2, 4)
        table = _simulate_functionals(cfg, [1, 3], threads=threads)
        for r in range(cfg.replications):
            recs = subsampled_functionals(replication_path(cfg, r), cfg.d, cfg.domain, [1, 3])
            assert [rec.functional for rec in recs] == list(table[r])

    def test_full_heavy_grid_matches_oracle(self):
        # alpha = 1.5 on the full line at delta = 0.05, T = 4.3: n = 172
        # increments embed in m = 360, blocks of 256 rows.  The replications
        # of stream rows 0, B - 1, B and the lone first window of the short
        # last block's last row, on two threads, against the per-path oracle
        cfg = EstimatorConfig(alpha=1.5, d=0.5, domain=Domain.FULL_LINE, delta=0.05,
                              horizon=4.3, replications=2 * 256 + 5, seed=9)
        rmap = _row_map(cfg.alpha, *cfg.side_counts())
        assert (rmap.kind, rmap.n, rmap.width, _block_rows(rmap.width)) == (
            "circulant", 172, 360, 256)
        table = _simulate_functionals(cfg, [1, 2], threads=2)
        for r in (0, 1, 510, 511, 512, 513, 516):
            recs = subsampled_functionals(replication_path(cfg, r), cfg.d, cfg.domain, [1, 2])
            assert [rec.functional for rec in recs] == list(table[r])

    @pytest.mark.parametrize("domain", list(Domain))
    def test_brownian_rows_use_raw_normals(self, domain):
        # alpha = 1 has iid increments, so a stream row's ring is row r mod B
        # of block r // B, with no embedding in between: block b is B rows
        # of n normals drawn in one call from SFC64 seeded by child b of the
        # seed's SeedSequence.  Replication 4 V r is the penalized sup of
        # ring window 0, the row's prefix sums rescaled and less their value
        # at the anchor, and 4 V r + 1 that of its sign flip (V = 2 on the
        # full line, 4 on the half line); replication V (4 r + p) is that of
        # window p, the row read cyclically from floor(p n / 4), to rounding.
        # The run ends in a short block.
        neg, pos = EstimatorConfig(alpha=1.0, d=2.0, domain=domain, delta=0.05,
                                   horizon=2.0, replications=1, seed=31).side_counts()
        n = neg + pos
        block, vs = _block_rows(n), _row_map(1.0, neg, pos).variants
        cfg = EstimatorConfig(alpha=1.0, d=2.0, domain=domain, delta=0.05,
                              horizon=2.0, replications=4 * vs * (block + 5), seed=31)
        table = _simulate_functionals(cfg, strides=[1], threads=1)
        blocks = [
            np.random.Generator(np.random.SFC64(child)).standard_normal((block, n))
            for child in np.random.SeedSequence(cfg.seed).spawn(2)
        ]
        k = np.arange(-neg, pos + 1, dtype=float)
        drift = (1.0 + cfg.d) * np.abs(k * cfg.delta) ** cfg.alpha
        first = neg if domain is Domain.HALF_LINE else 0
        for r in range(block + 5):
            z = blocks[r // block][r % block]
            lifted = np.concatenate([[0.0], np.cumsum(z)]) * cfg.delta ** 0.5 * math.sqrt(2.0)
            field = (lifted - lifted[neg]) - drift
            assert table[4 * vs * r, 0] == np.exp(field[first:].max())
            assert table[4 * vs * r + 1, 0] == np.exp(-(field + 2.0 * drift)[first:].min())
            for p in range(4):
                values = np.concatenate([[0.0], np.cumsum(np.roll(z, -(p * n // 4)))])
                field = math.sqrt(2.0) * (cfg.delta ** 0.5 * (values - values[neg])) - drift
                assert table[vs * (4 * r + p), 0] == pytest.approx(np.exp(field[first:].max()),
                                                                   rel=1e-12, abs=0.0)

    def test_brownian_deterministic_across_threads_and_batches(self):
        # a block and 7 rows: two blocks, the second short
        n = sum(self._config().side_counts())
        rmap = _rmap(n, n, False)
        cfg = self._config(replications=rmap.paths * (_batch_rows(rmap) + 7))
        t1 = _simulate_functionals(cfg, [1, 2], threads=1)
        t2 = _simulate_functionals(cfg, [1, 2], threads=2)
        assert np.array_equal(t1, t2)

    def test_embedded_deterministic_across_threads_and_batches(self, pool_sizes):
        # n = 20 increments embed in m = 40, eight replications a row, so
        # this is two batches and a short third, run by two and three
        # workers that each reuse one set of buffers
        cfg = self._config(alpha=0.5, d=0.5, domain=Domain.FULL_LINE,
                           horizon=0.5, replications=16 * _batch_rows(_rmap(20, 40, True)) + 9)
        assert _row_map(cfg.alpha, *cfg.side_counts()).width == 40
        t1 = _simulate_functionals(cfg, [1, 3], threads=1)
        for threads in (2, 3):
            assert np.array_equal(t1, _simulate_functionals(cfg, [1, 3], threads=threads))
        assert pool_sizes == [2, 3]

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_block_stream_matches_oracle(self, alpha):
        # the real block size: the replications of stream rows 0, B - 1, B
        # and of the short last block (whose last row keeps one window where
        # rows hold two) against the per-path oracle, which draws and drops
        # earlier rows
        cfg = self._config(alpha=alpha, d=0.7, domain=Domain.FULL_LINE,
                           delta=0.05, horizon=2.0, replications=1)
        rmap = _row_map(alpha, *cfg.side_counts())
        block, paths = block_rows(rmap.width), rmap.paths
        cfg = self._config(alpha=alpha, d=0.7, domain=Domain.FULL_LINE,
                           delta=0.05, horizon=2.0, replications=paths * (2 * block + 2) + 1)
        table = _simulate_functionals(cfg, [1, 2], threads=2)
        for row in (0, block - 1, block, 2 * block, 2 * block + 2):
            for r in range(paths * row, min(paths * (row + 1), cfg.replications)):
                recs = subsampled_functionals(replication_path(cfg, r), cfg.d, cfg.domain,
                                              [1, 2])
                assert [rec.functional for rec in recs] == list(table[r])

    def test_small_run_splits_over_workers(self, monkeypatch):
        # 64000 replications are 4000 rows of width 100, four blocks of 1024
        # rows, the last one short, and a batch is one block; two threads
        # take two contiguous blocks each and give the one-thread result.
        # Each share waits at its first block until the other share has
        # started, so the pool cannot run both shares on one thread
        fills = []
        fill = estimator._fill_normals
        both_started = threading.Barrier(2, timeout=30)

        def spy(seed, z, first, block):
            fills.append((first, len(z), threading.get_ident()))
            if first in (0, 2):
                both_started.wait()
            fill(seed, z, first, block)

        cfg = self._config(replications=64000)
        assert sum(cfg.side_counts()) == 100 and _batch_rows(_rmap(100, 100, False)) == 1024
        t1 = _simulate_functionals(cfg, [1, 2], threads=1)
        monkeypatch.setattr(estimator, "_cpu_count", lambda: 2)
        monkeypatch.setattr(estimator, "_fill_normals", spy)
        t2 = _simulate_functionals(cfg, [1, 2], threads=2)
        fills.sort()
        assert [f[:2] for f in fills] == [(0, 1024), (1, 1024), (2, 1024), (3, 928)]
        assert fills[0][2] == fills[1][2] != fills[2][2] == fills[3][2]
        assert np.array_equal(t1, t2)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_uneven_block_shares_match_one_thread_and_oracle(self, alpha, monkeypatch,
                                                             pool_sizes):
        # five blocks of stream rows, the last one short, in batches of one
        # block: two workers take blocks [0, 2) and [2, 5), three take
        # [0, 1), [1, 3) and [3, 5); on circulant rows the odd replication
        # count drops the last row's second window
        cfg = self._config(alpha=alpha, d=0.7, domain=Domain.FULL_LINE,
                           delta=0.05, horizon=2.0, replications=1)
        rmap = _row_map(alpha, *cfg.side_counts())
        block, paths = block_rows(rmap.width), rmap.paths
        monkeypatch.setattr(estimator, "_batch_rows",
                            lambda rmap: block_rows(rmap.width))
        cfg = self._config(alpha=alpha, d=0.7, domain=Domain.FULL_LINE,
                           delta=0.05, horizon=2.0, replications=paths * (4 * block + 2) + 1)
        t1 = _simulate_functionals(cfg, [1, 2], threads=1)
        for threads in (2, 3):
            assert np.array_equal(t1, _simulate_functionals(cfg, [1, 2], threads=threads))
        assert pool_sizes == [2, 3]
        rows = (0, block - 1, block, 2 * block - 1, 2 * block, 3 * block - 1,
                3 * block, 4 * block, 4 * block + 2)
        for r in (r for row in rows
                  for r in range(paths * row, min(paths * (row + 1), cfg.replications))):
            recs = subsampled_functionals(replication_path(cfg, r), cfg.d, cfg.domain, [1, 2])
            assert [rec.functional for rec in recs] == list(t1[r])

    @pytest.mark.parametrize("stride", [-1, 0, 25, 2.0, True],
                             ids=["negative", "zero", "beyond-grid", "float", "bool"])
    def test_bad_stride_refused_before_anything_is_built(self, monkeypatch, stride):
        # 20 grid points: a stride of 25 (or -1) would keep the anchor alone
        def unreachable(*args):
            raise AssertionError("built or drew before checking the strides")

        for name in ("_batch_plan", "_cached", "_fill_normals"):
            monkeypatch.setattr(estimator, name, unreachable)
        cfg = EstimatorConfig(alpha=1.0, d=2.0, domain=Domain.HALF_LINE, delta=0.1,
                              horizon=2.0, replications=4, seed=1)
        with pytest.raises(ValueError, match=r"stride must be an integer from 1 to the 20 "
                           rf"grid points of the positive side, got {stride!r}"):
            _simulate_functionals(cfg, [1, stride])

    def test_lone_batch_runs_on_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single batch must not start a thread pool")

        cfg = self._config(replications=50)
        t1 = _simulate_functionals(cfg, [1])
        monkeypatch.setattr(estimator, "_cpu_count", lambda: 4)
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        assert np.array_equal(t1, _simulate_functionals(cfg, [1], threads=4))

    def test_pool_capped_at_the_cpus(self, monkeypatch, pool_sizes):
        # the pool stand-in records its size: 5000 threads on 2 CPUs ask
        # for 2 workers, and give the one-thread table
        cfg = self._config(replications=64000)  # four blocks of 1024 rows of sixteen
        t1 = _simulate_functionals(cfg, [1, 2])
        monkeypatch.setattr(estimator, "_cpu_count", lambda: 2)
        assert np.array_equal(t1, _simulate_functionals(cfg, [1, 2], threads=5000))
        assert pool_sizes == [2]

    # "dense" names the short circulant grid (n = 200) that v5 mapped densely
    @pytest.mark.parametrize("kind,kw", [
        ("iid", dict(replications=64000)),
        pytest.param("circulant", dict(alpha=1.5, domain=Domain.FULL_LINE, replications=8192),
                     id="dense-kw1"),
        ("circulant", dict(alpha=0.5, horizon=15.0, replications=8800)),
    ])
    def test_row_operator_built_once_on_calling_thread(self, monkeypatch, kind, kw):
        # two workers and several batches each: the run builds its operator
        # once, before any worker starts, and no batch enters the cache
        caller, built = threading.get_ident(), []
        row_operator = estimator._row_operator

        def spy_operator(*args):
            built.append((threading.get_ident(), len(fills)))
            return row_operator(*args)

        cfg = self._config(**kw)
        assert _row_map(cfg.alpha, *cfg.side_counts()).kind == kind
        t1 = _simulate_functionals(cfg, [1, 2])
        fills = _counted(monkeypatch, estimator, "_fill_normals")
        cached = _counted(monkeypatch, estimator, "_cached")
        monkeypatch.setattr(estimator, "_row_operator", spy_operator)
        monkeypatch.setattr(estimator, "_cpu_count", lambda: 2)
        assert np.array_equal(t1, _simulate_functionals(cfg, [1, 2], threads=2))
        assert len(fills) >= 4 and caller not in fills  # pool threads ran the batches
        assert built == [(caller, 0)]
        assert cached == ([] if kind == "iid" else [caller])

    def test_another_cache_entry_mid_run_builds_no_second_map(self, monkeypatch):
        # a circulant run of three batches whose second batch first caches
        # another spectrum (as another run or a sampler call would) builds
        # its own spectrum once, and keeps its table
        fill = estimator._fill_normals

        def evicting_fill(seed, z, first, block):
            if first == 1:
                fbm._cached(circulant_spectrum, 0.7, 300)
            fill(seed, z, first, block)

        # n = 100 and m = 200, blocks of 512 rows of four replications each
        cfg = self._config(alpha=1.5, replications=4 * 1024 + 5)
        assert _row_map(cfg.alpha, *cfg.side_counts()).width == 200
        t1 = _simulate_functionals(cfg, [1, 2])
        builds = _counted(monkeypatch, estimator, "_embedding_spectrum")
        monkeypatch.setattr(estimator, "_fill_normals", evicting_fill)
        assert np.array_equal(t1, _simulate_functionals(cfg, [1, 2]))
        assert len(builds) == 1

    @pytest.mark.parametrize("kind,kw", [
        ("iid", {}),
        ("circulant", dict(alpha=1.5, domain=Domain.FULL_LINE)),
        ("circulant", dict(alpha=0.5, horizon=15.0)),
        ("circulant", dict(alpha=0.5, horizon=15.0, domain=Domain.FULL_LINE)),
    ], ids=["iid", "dense-full", "circulant-half", "circulant-full"])  # n = 200, dense in v5
    def test_replication_prefix_stability(self, kind, kw):
        # a run is the first rows of any longer one, across blocks and
        # batches, at any thread count
        cfg_small = self._config(replications=40, **kw)
        cfg_large = self._config(replications=1100, **kw)
        assert _row_map(cfg_small.alpha, *cfg_small.side_counts()).kind == kind
        f_small = _simulate_functionals(cfg_small, [1, 2])
        f_large = _simulate_functionals(cfg_large, [1, 2], threads=2)
        assert np.array_equal(f_small, f_large[:40])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(grid=st.sampled_from(["iid", "short", "long"]),
           domain=st.sampled_from(list(Domain)), data=st.data())
    def test_table_independent_of_batching(self, grid, domain, data, pool_sizes):
        # small grids of each row kind, and circulant ones of at most and
        # more than 255 increments: a run of up to three blocks is bit-equal
        # at 1, 2 and 3 threads, and is the first rows of a longer run at a
        # drawn thread count
        alpha, delta, horizons = {"iid": (1.0, 0.01, (6.0, 10.0)),
                                  "short": (1.5, 0.05, (3.0, 6.0)),
                                  "long": (0.5, 0.05, (13.0, 15.0))}[grid]
        kw = dict(alpha=alpha, d=0.7, domain=domain, delta=delta,
                  horizon=data.draw(st.sampled_from(horizons)))
        rmap = _row_map(alpha, *self._config(**kw).side_counts())
        assert rmap.kind == ("iid" if grid == "iid" else "circulant")
        block = _block_rows(rmap.width)
        reps = data.draw(st.integers(1, 3 * block))
        longer = self._config(replications=reps + data.draw(st.integers(1, block)), **kw)
        table = _simulate_functionals(longer, [1, 3], threads=data.draw(st.integers(1, 3)))
        for threads in (1, 2, 3):
            run = _simulate_functionals(self._config(replications=reps, **kw), [1, 3],
                                        threads=threads)
            assert np.array_equal(run, table[:reps])

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

class TestStageSeams:
    """A caller times a stage by replacing its name in the module globals
    (the traced benchmark does), so each name is called once per stage run."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind,alpha,horizon", [
        ("iid", 1.0, 5.0),
        pytest.param("circulant", 1.5, 5.0, id="dense-1.5-5.0"),  # n = 200, dense in v5
        ("circulant", 0.5, 15.0),
    ])
    def test_engine_stages_once_per_batch(self, monkeypatch, kind, alpha, horizon, threads):
        monkeypatch.setattr(estimator, "_cpu_count", lambda: 2)
        cfg = EstimatorConfig(alpha=alpha, d=2.0, domain=Domain.FULL_LINE, delta=0.05,
                              horizon=horizon, replications=12000, seed=5)
        rmap = _row_map(alpha, *cfg.side_counts())
        assert rmap.kind == kind
        plan = _batch_plan(cfg.replications, rmap, threads, 1)
        batches = sum(-(-(hi - lo) // plan.rows) for lo, hi in plan.shares)
        assert batches >= 3
        fgn, cumsum, aggregate = (_counted(monkeypatch, estimator, name) for name in
                                  ("_fgn_from_normals", "_two_sided_values", "_aggregate"))
        estimate_constant(cfg, threads=threads)
        assert len(fgn) == (batches if kind == "circulant" else 0)
        assert len(cumsum) == batches
        assert len(aggregate) == 1

    def test_studies_simulate_once(self, monkeypatch):
        simulate = _counted(monkeypatch, rate_study, "_simulate_functionals")
        rate_study.run_rate_study_bm(2.0, Domain.HALF_LINE, [0.04, 0.02], 50, 3)
        assert len(simulate) == 1
        rate_study.run_gap_decay(1.5, 2.0, Domain.HALF_LINE, [0.1, 0.05], 50, 3)
        assert len(simulate) == 2


def _cholesky_path_covariance(alpha, neg, pos):
    """Covariance of the unit-grid path -neg..pos that the oracle's Cholesky
    draw gives: the path is P z for P the anchored running sum of the
    Cholesky factor (drawn from unit vectors in place of normals), so P P^T."""
    n = neg + pos
    factor = cholesky_sample(alpha, n, SimpleNamespace(standard_normal=np.eye))
    path = np.vstack([np.zeros(n), np.cumsum(factor, axis=0)])
    path -= path[neg]
    return path @ path.T


class _UnitNormals:
    """A stand-in generator whose one row of normals is unit vector i."""

    def __init__(self, i):
        self.i = i

    def standard_normal(self, out):
        out[:] = 0.0
        out[self.i] = 1.0


class TestDenseRows:
    """The grids that stream contract v5 drew from a dense Schur-Cholesky
    map, 2 <= n <= 255 increments at alpha != 1.  Since v6 they are circulant
    rows like any longer grid: m = _next_fast_len(2n) normals, four windows."""

    def _config(self, **kw):
        # n = 80 increments in m = 160, blocks of 512 rows of four windows
        base = dict(alpha=0.5, d=0.7, domain=Domain.FULL_LINE, delta=0.05,
                    horizon=2.0, replications=2 * 1024 + 3, seed=23)
        base.update(kw)
        return EstimatorConfig(**base)

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.5, 1.9])
    def test_rows_match_cholesky_oracle(self, alpha, domain):
        # in law: the engine maps its m normals linearly, so mapping the m
        # unit vectors gives each window's map A, and A A^T must be the
        # covariance of the oracle's Cholesky path to rounding
        neg, pos = self._config(domain=domain).side_counts()
        rmap = _row_map(alpha, neg, pos)
        m = rmap.width
        assert rmap.kind == "circulant" and m == _next_fast_len(2 * (neg + pos))
        z, w, sums, flat = _row_buffers(rmap, m)
        z[:] = np.eye(m)
        prefix = _map_rows(rmap, _row_operator(rmap), z, w, sums, m)
        expected = _cholesky_path_covariance(alpha, neg, pos)
        for window in range(4):  # window 3 runs past the ring's end
            a = _window(rmap, prefix, window, flat)  # row i: the path of unit vector i
            np.testing.assert_allclose(a.T @ a, expected, rtol=1e-10,
                                       atol=1e-12 * np.abs(expected).max())

    def test_bit_identical_across_threads_batchings_and_counts(self, monkeypatch, pool_sizes):
        # three and a bit blocks of 512 rows of eight replications: one, two
        # and three workers, batches of one block and of two, and a count
        # that ends the run mid-block
        cfg = self._config(replications=12 * 1024 + 280)
        assert _block_rows(_row_map(cfg.alpha, *cfg.side_counts()).width) == 512
        reference = _simulate_functionals(cfg, [1, 2], threads=1)
        for threads in (2, 3):
            assert np.array_equal(reference, _simulate_functionals(cfg, [1, 2], threads=threads))
        monkeypatch.setattr(estimator, "_batch_rows",
                            lambda rmap: 2 * _block_rows(rmap.width))
        for threads in (1, 2, 3):
            assert np.array_equal(reference, _simulate_functionals(cfg, [1, 2], threads=threads))
        for reps in (1, 5, 4 * 1024 + 3, 12 * 1024 + 33):
            short = _simulate_functionals(self._config(replications=reps), [1, 2], threads=2)
            assert np.array_equal(short, reference[:reps])
        assert max(pool_sizes) == 3


class TestPathSampler:
    """``sample_two_sided_path`` draws one row of the engine's row map."""

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_dense_row_matches_cholesky_oracle(self, domain):
        # alpha = 0.7, n = 30 or 60, a grid v5 mapped densely: the sampler's
        # row is the oracle's first window of the stream row (to the
        # rounding of its rescale), and has the oracle's Cholesky law
        cfg = EstimatorConfig(alpha=0.7, d=2.0, domain=domain, delta=0.1,
                              horizon=3.0, replications=8, seed=2026)
        neg, pos = cfg.side_counts()
        m = circulant_spectrum(cfg.alpha, neg + pos).m
        for r in (0, 3):
            unit = sample_two_sided_path(cfg.alpha, neg, pos,
                                         replication_stream(cfg.seed, r, m, block_rows(m)))
            expected = window_path(cfg, 4 * r).values / cfg.delta ** (cfg.alpha / 2)
            assert unit[neg] == 0.0
            np.testing.assert_allclose(unit, expected, rtol=1e-12, atol=1e-14)
        a = np.array([sample_two_sided_path(cfg.alpha, neg, pos, _UnitNormals(i))
                      for i in range(m)])
        expected = _cholesky_path_covariance(cfg.alpha, neg, pos)
        np.testing.assert_allclose(a.T @ a, expected, rtol=1e-10,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("alpha,neg,pos", [
        (0.7, 1, 1), (0.3, 0, 4), (1.5, 15, 15), (0.7, 86, 86), (1.9, 0, 255),
    ])
    def test_dense_row_is_the_engines_row(self, alpha, neg, pos):
        # grids v5 mapped densely: the engine's batch buffers, normals and
        # spectrum (its gains left out) give the sampler's row, ring window 0
        # of a stream row, bit for bit, in a full block and in the short
        # next one
        rmap = _row_map(alpha, neg, pos)
        block = _block_rows(rmap.width)
        assert rmap.kind == "circulant" and rmap.n <= 255
        rows = block + 3
        z, w, sums, flat = _row_buffers(rmap, rows)
        _fill_normals(2027, z, 0, block)
        values = _window(rmap, _map_rows(rmap, _row_operator(rmap), z, w, sums, rows), 0, flat)
        for r in (0, 1, block - 1, block, block + 2):
            row = sample_two_sided_path(alpha, neg, pos,
                                        replication_stream(2027, r, rmap.width, block))
            assert np.array_equal(row, values[r]), r

    @pytest.mark.parametrize("alpha,neg,pos", [
        (0.7, 10, 20), (1.0, 10, 20), (1.5, 0, 1), (0.7, 150, 150), (0.7, 1, 1),
    ])
    def test_consumes_one_row(self, alpha, neg, pos):
        # iid rows take n normals, circulant ones (n = 30, 300 and 2) the m
        # of the embedding: the next draw is the stream's normal width + 1
        n = neg + pos
        width = n if alpha == 1.0 or n == 1 else circulant_spectrum(alpha, n).m
        rng = np.random.default_rng(8)
        sample_two_sided_path(alpha, neg, pos, rng)
        assert rng.standard_normal() == np.random.default_rng(8).standard_normal(width + 1)[-1]


class TestAggregation:
    # a row's four ring windows give a path and its flip each, and on the
    # half line also their reversals: sixteen replications a row there,
    # eight on the full line
    UNITS = [(Domain.HALF_LINE, 16), (Domain.FULL_LINE, 8)]

    def _config(self, d, domain=Domain.HALF_LINE):
        return EstimatorConfig(alpha=1.0, d=d, domain=domain,
                               delta=0.1, horizon=1.0, replications=48, seed=0)

    def test_median_of_means_known_blocks(self):
        # 192 values, half line: 12 blocks of 16, block means 8.5, 24.5,
        # ..., 184.5, median = 96.5, CI = 3rd and 10th order statistics;
        # full line: 24 blocks of 8, block means 4.5, 12.5, ..., 188.5,
        # median = 96.5, CI = 7th and 18th order statistics
        values = np.arange(1.0, 193.0)
        res = _aggregate(values, self._config(d=0.5))
        assert res.estimate == 96.5
        assert res.ci_low == 40.5
        assert res.ci_high == 152.5
        assert res.method == "median-of-means"
        res = _aggregate(values, self._config(d=0.5, domain=Domain.FULL_LINE))
        assert res.estimate == 96.5
        assert res.ci_low == 52.5
        assert res.ci_high == 140.5
        assert res.method == "median-of-means"

    @pytest.mark.parametrize("infs", [0, 1, 13], ids=["finite", "one-inf", "inf-majority"])
    def test_median_of_means_is_np_median(self, infs):
        # the median read off the sorted block means is np.median's, bit for
        # bit, at every block count, odd and even, and with +inf block means;
        # blocks hold whole rows of sixteen (half line) or eight (full line)
        rng = np.random.default_rng(5)
        for domain, unit in self.UNITS:
            for blocks in range(1, 25):
                for reps in (unit * blocks, 3 * unit * blocks + 1):
                    values = 1.0 + rng.pareto(0.7, reps)
                    values[rng.permutation(reps)[:min(infs, reps)]] = np.inf
                    res = _aggregate(values, self._config(d=0.5, domain=domain))
                    g = -(-reps // unit)
                    rows = np.array_split(np.arange(g), min(g, 24))
                    split = [values[unit * r[0] : unit * r[-1] + unit] for r in rows]
                    expected = float(np.median(np.sort([b.mean() for b in split])))
                    assert repr(res.estimate) == repr(expected), (domain, blocks, reps)

    def test_one_worker_run_imports_no_pool_or_masked_arrays(self):
        script = (
            "import sys\n"
            "from piterbarg import Domain, EstimatorConfig, estimate_constant\n"
            "cfg = EstimatorConfig(alpha=1.5, d=0.5, domain=Domain.FULL_LINE, "
            "delta=0.05, horizon=4.3, replications=100, seed=9)\n"
            "assert estimate_constant(cfg).method == 'median-of-means'\n"
            "print(sorted({'numpy.ma', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        src = str(Path(estimator.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "[]"

    def test_median_of_means_ci_rank_table(self):
        # Binom(K, 1/2) order-statistic ranks for K = 1..24, as scipy's
        # binom.cdf gives them
        expected = [None] * 5 + [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5,
                                 6, 6, 6, 7, 7]
        assert [_mom_ci_rank(k) for k in range(1, 25)] == expected

    def test_row_stderr_is_the_spread_of_row_means(self):
        # where the unit divides the count, the stderr over rows of two or
        # four is std(row means, ddof=1) / sqrt(G), and over rows of one
        # the per-path std(ddof=1) / sqrt(R); at an odd count the short last
        # row counts as a row
        rng = np.random.default_rng(6)
        for reps in (8, 12, 1000):
            values = 1.0 + rng.pareto(3.0, reps)
            for unit in (1, 2, 4):
                means = values.reshape(-1, unit).mean(axis=1)
                expected = means.std(ddof=1) / math.sqrt(len(means))
                assert _std_error(values, unit) == pytest.approx(expected, rel=1e-12)
        values = np.array([1.0, 3.0, 2.0, 6.0, 4.0])
        sums = np.array([1.0 + 3.0, 2.0 + 6.0, 4.0]) - np.array([2, 2, 1]) * values.mean()
        expected = math.sqrt(3 / 2 * (sums ** 2).sum()) / 5
        assert _std_error(values, 2) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha,kind", [(1.0, "iid")])
    def test_iid_pair_stderr_is_the_row_stderr(self, alpha, kind):
        # half-line iid rows hold four ring windows, each with its sign flip
        # and their reversals: the reported stderr is that of the means of
        # the G rows of sixteen, std(ddof=1) / sqrt(G) where 16 divides the
        # count, and otherwise the short last row counts as a row
        cfg = EstimatorConfig(alpha=alpha, d=2.0, domain=Domain.HALF_LINE, delta=0.05,
                              horizon=5.0, replications=608, seed=2)
        assert _row_map(alpha, *cfg.side_counts()).kind == kind
        assert _row_map(alpha, *cfg.side_counts()).paths == 16
        values = _simulate_functionals(cfg, [1])[:, 0]
        rows = values.reshape(38, 16).mean(axis=1)
        res = _aggregate(values, cfg)
        assert res.stderr == _std_error(values, 16)
        assert res.stderr == pytest.approx(rows.std(ddof=1) / math.sqrt(38), rel=1e-12)
        assert res.stderr != _std_error(values, 1)
        for reps in (593, 594, 601, 607):
            short = dataclasses.replace(cfg, replications=reps)
            sums = np.append(values[:592].reshape(37, 16).sum(axis=1), values[592:reps].sum())
            sums -= np.append(np.full(37, 16.0), reps - 592) * values[:reps].mean()
            expected = math.sqrt(38 / 37 * float(np.square(sums).sum())) / reps
            assert _aggregate(values[:reps], short).stderr == pytest.approx(expected, rel=1e-12)
        # full-line iid rows hold four windows and their sign flips: the
        # stderr of the means of rows of eight where 8 divides the count,
        # and at an odd one the short last row counts as a row
        cfg = dataclasses.replace(cfg, domain=Domain.FULL_LINE, replications=304)
        assert _row_map(alpha, *cfg.side_counts()).kind == kind
        assert _row_map(alpha, *cfg.side_counts()).paths == 8
        values = _simulate_functionals(cfg, [1])[:, 0]
        rows = values.reshape(38, 8).mean(axis=1)
        res = _aggregate(values, cfg)
        assert res.stderr == _std_error(values, 8)
        assert res.stderr == pytest.approx(rows.std(ddof=1) / math.sqrt(38), rel=1e-12)
        assert res.stderr != _std_error(values, 1)
        odd = dataclasses.replace(cfg, replications=301)
        sums = np.append(values[:296].reshape(37, 8).sum(axis=1), values[296:301].sum())
        sums -= np.append(np.full(37, 8.0), 5.0) * values[:301].mean()
        expected = math.sqrt(38 / 37 * float(np.square(sums).sum())) / 301
        assert _aggregate(values[:301], odd).stderr == pytest.approx(expected, rel=1e-12)

    def test_short_circulant_grid_reports_the_row_stderr(self):
        # n = 100 at alpha = 1.5 embeds like any longer grid: four ring
        # windows, their flips and, on the half line, their reversals,
        # sixteen paths a row, so the reported stderr is over the 19 rows,
        # not the paths
        cfg = EstimatorConfig(alpha=1.5, d=2.0, domain=Domain.HALF_LINE, delta=0.05,
                              horizon=5.0, replications=301, seed=2)
        assert _row_map(cfg.alpha, *cfg.side_counts()).paths == 16
        values = _simulate_functionals(cfg, [1])[:, 0]
        assert _aggregate(values, cfg).stderr == _std_error(values, 16) != _std_error(values, 1)

    @pytest.mark.parametrize("reps", [3, 25, 47, 48, 49, 101, 1000, 4001])
    def test_median_of_means_blocks_hold_whole_rows(self, reps):
        # half-line circulant rows (n = 300) hold sixteen replications:
        # min(24, G) blocks of whole rows, cut where np.array_split cuts the
        # G rows, so no block splits a row (a short count's last row keeps
        # its first paths)
        cfg = EstimatorConfig(alpha=0.5, d=0.5, domain=Domain.HALF_LINE, delta=0.01,
                              horizon=3.0, replications=reps, seed=0)
        assert _row_map(cfg.alpha, *cfg.side_counts()).paths == 16
        values = 1.0 + np.random.default_rng(reps).pareto(0.7, reps)
        rows = np.array_split(np.arange(-(-reps // 16)), min(24, -(-reps // 16)))
        blocks = [values[16 * r[0] : 16 * r[-1] + 16] for r in rows]
        assert sum(map(len, blocks)) == reps
        means = np.sort([b.mean() for b in blocks])
        res = _aggregate(values, cfg)
        assert repr(res.estimate) == repr(float(np.median(means)))
        rank = _mom_ci_rank(len(blocks))
        if rank is not None:
            assert (res.ci_low, res.ci_high) == (means[rank - 1], means[len(blocks) - rank])

    def test_row_stderr_covers_dependent_windows(self):
        # a row's paths are dependent: at alpha = 1.9, the most correlated
        # case, its four ring windows are strongly correlated (the per-path
        # stderr is about half the spread of estimates), and so are a
        # window's path and its reversal; each path's sign flip is
        # negatively correlated with it (rho about -0.25 at alpha = 1,
        # d = 4), so the per-path stderr misstates the spread of estimates.
        # Over K independent runs of 400 replications (25 whole rows of one
        # table) the stderr the estimator reports matches the runs' spread
        # within 10%, for half-line rows of sixteen paths, circulant
        # (alpha = 1.9) and iid (alpha = 1), and the per-path one does not.
        # The alpha = 1 case takes d = 4, where the per-path stderr is off
        # by about 14%, and K = 1600 runs, so that the spread's own noise
        # (about 2%) stays clear of the 10%
        for alpha, delta, d, kind, n, paths, k in [
                (1.9, 0.005, 2.0, "circulant", 1156, 16, 400),
                (1.0, 0.01, 4.0, "iid", 2120, 16, 1600)]:
            cfg = EstimatorConfig(alpha=alpha, d=d, domain=Domain.HALF_LINE, delta=delta,
                                  horizon=plan_horizon(delta, alpha), replications=k * 400,
                                  seed=3)
            rmap = _row_map(cfg.alpha, *cfg.side_counts())
            assert (rmap.kind, rmap.n, rmap.paths) == (kind, n, paths)
            runs = _simulate_functionals(cfg, [1], threads=2)[:, 0].reshape(k, 400)
            run_cfg = dataclasses.replace(cfg, replications=400)
            spread = runs.mean(axis=1).std(ddof=1)
            reported = math.sqrt(np.mean([_aggregate(r, run_cfg).stderr ** 2 for r in runs]))
            per_path = math.sqrt(np.mean([_std_error(r, 1) ** 2 for r in runs]))
            assert abs(reported / spread - 1.0) < 0.1, alpha
            assert not abs(per_path / spread - 1.0) < 0.1, alpha

    def test_sample_mean_known_values(self):
        # the stderr of the 3 row means of sixteen (half line) and of the 6
        # row means of eight (full line)
        values = np.arange(1.0, 49.0)
        for domain, unit in self.UNITS:
            res = _aggregate(values, self._config(d=2.0, domain=domain))
            assert res.estimate == values.mean()
            g = 48 // unit
            expected_se = values.reshape(g, unit).mean(axis=1).std(ddof=1) / math.sqrt(g)
            assert res.stderr == pytest.approx(expected_se, rel=1e-15)
            assert res.stat_error() == res.stderr


class TestRingWindows:
    """Stream contract v9 reads every stream row as a ring of its ``width``
    increments from four evenly spaced starts; a window that runs past the
    ring's end reads on from its start (iid windows 1 to 3, circulant
    window 3), and is exact fGn like any other."""

    # (alpha, neg, pos): iid rows on both lines, an odd count among them,
    # and circulant rows whose window 3 wraps, on both lines
    _GRIDS = [(1.0, 0, 40), (1.0, 20, 20), (1.0, 0, 37), (1.0, 19, 19),
              (0.5, 0, 80), (0.5, 40, 40), (1.5, 0, 100), (1.9, 30, 30)]

    @pytest.mark.parametrize("alpha,neg,pos", _GRIDS)
    def test_windows_are_the_oracles_cyclic_read(self, alpha, neg, pos):
        # the engine's window p of stream row r, gains left out, is the
        # oracle's plain cyclic read of the row's ring (window 4 r + p)
        # cumulated and anchored, to 1e-12 of the path's scale, across a
        # block boundary; the wrapping windows are the ones named, and
        # each window's anchor column is exactly 0
        cfg = EstimatorConfig(alpha=alpha, d=1.5, domain=Domain.FULL_LINE if neg
                              else Domain.HALF_LINE, delta=1.0, horizon=float(pos),
                              replications=1, seed=21)
        assert cfg.side_counts() == (neg, pos)
        rmap = _row_map(alpha, neg, pos)
        n, width = rmap.n, rmap.width
        wraps = [p for p in range(4) if p * width // 4 + n > width]
        assert wraps == ([1, 2, 3] if rmap.kind == "iid" else [3])
        block = 2
        z, w, sums, flat = _row_buffers(rmap, 5)
        _fill_normals(cfg.seed, z, 0, block)
        prefix = _map_rows(rmap, _row_operator(rmap), z, w, sums, 5)
        for p in range(4):
            field = _window(rmap, prefix, p, flat)
            assert np.all(field[:, neg] == 0.0)
            for r in range(5):
                plain = cumulated_path(cfg, window_fgn(cfg, 4 * r + p, block=block)).values
                np.testing.assert_allclose(field[r], plain, rtol=1e-12,
                                           atol=1e-12 * np.abs(plain).max())

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_wrapping_window_increments_have_the_fgn_autocovariance(self, alpha):
        # the increments of a wrapping window (iid window 1, circulant
        # window 3) either side of the wrap, increment j being ring value
        # (o + j) mod width: their sample autocovariance over 20000
        # independent rows, at pairs (j, j + k) that straddle the wrap,
        # matches gamma(k) at lags 0 to 6 within 4.5 standard errors
        neg, pos = 0, 30
        rmap = _row_map(alpha, neg, pos)
        n, width = rmap.n, rmap.width
        p = 1 if rmap.kind == "iid" else 3
        wrap = width - p * width // 4  # the first increment read past the end
        assert 7 <= wrap <= n - 6
        rows = 20000
        z, w, sums, flat = _row_buffers(rmap, rows)
        _fill_normals(5, z, 0, _block_rows(width))
        prefix = _map_rows(rmap, _row_operator(rmap), z, w, sums, rows)
        x = np.diff(_window(rmap, prefix, p, flat), axis=1)  # increment j ends at column j + 1
        for k in range(7):
            for j in (wrap - max(k, 1), wrap - 1):
                prods = x[:, j] * x[:, j + k]
                se = prods.std(ddof=1) / math.sqrt(rows)
                gamma = fbm._autocovariances(alpha, k)[k]
                assert abs(prods.mean() - gamma) < 4.5 * se, (k, j, prods.mean(), gamma)

    @pytest.mark.parametrize("alpha,neg,pos,same", [
        (1.0, 0, 1, [0, 0, 0, 0]), (0.5, 0, 1, [0, 0, 0, 0]), (1.0, 0, 2, [0, 0, 2, 2]),
        (1.0, 1, 1, [0, 0, 2, 2]), (1.0, 0, 3, [0, 0, 2, 3]),
    ])
    def test_coinciding_starts_repeat_a_window(self, alpha, neg, pos, same):
        # on iid rows of n <= 3 the starts floor(p n / 4) coincide, and
        # window p is then window same[p] bit for bit: fewer distinct
        # paths a row, while the row stays the error unit, so the
        # estimate and its stderr are those of the row means
        cfg = EstimatorConfig(alpha=alpha, d=1.5, domain=Domain.FULL_LINE if neg
                              else Domain.HALF_LINE, delta=1.0, horizon=float(pos),
                              replications=16 * 40, seed=8)
        rmap = _row_map(alpha, neg, pos)
        assert rmap.kind == "iid" and [p * rmap.n // 4 for p in range(4)] == [
            p * rmap.n // 4 for p in same]
        rows = cfg.replications // rmap.paths
        windows = _simulate_functionals(cfg, [1])[:, 0].reshape(rows, 4, rmap.variants)
        for p, q in enumerate(same):
            assert np.array_equal(windows[:, p], windows[:, q])
        means = windows.mean(axis=(1, 2))
        res = estimate_constant(cfg)
        assert res.estimate == pytest.approx(means.mean(), rel=1e-14)
        assert res.stderr == pytest.approx(means.std(ddof=1) / math.sqrt(rows), rel=1e-12)

    def test_wrapped_windows_skip_the_ufunc_buffers(self):
        # a wrapped window's head and tail (531 to 1591 columns here, the
        # Brownian validation's rows) are formed without numpy's 64 KiB
        # ufunc buffers, and the caller's buffer size is left as it was
        import tracemalloc

        rmap = _row_map(1.0, 0, 2120)
        z, w, sums, flat = _row_buffers(rmap, 32)
        _fill_normals(3, z, 0, 32)
        prefix = _map_rows(rmap, _row_operator(rmap), z, w, sums, 32)
        before = np.getbufsize()
        for p in range(4):
            _window(rmap, prefix, p, flat)  # warm
            tracemalloc.start()
            try:
                _window(rmap, prefix, p, flat)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 1024, (p, peak)
        assert np.getbufsize() == before
