"""Tests for the supremum functional, subsampling, and the MC estimator."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import piterbarg.estimator as estimator
from oracle import (
    PathGrid,
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
    grid_count,
    plan_horizon,
    rate_constant,
    sample_two_sided_path,
)
from piterbarg.estimator import (
    _aggregate,
    _batch_size,
    _mom_ci_rank,
    _simulate_functionals,
)


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
    def test_reset_philox_matches_fresh_stream(self, seed):
        # the engine's form: one Philox and Generator per worker, reseated
        # to counter index << 128 by assigning a cached state dict back
        bits = np.random.Philox(key=seed)
        gen = np.random.Generator(bits)
        state = bits.state
        for index in (0, 1, 2**32, 2**63):
            # leave a partly used buffer and a cached uint32 behind
            gen.integers(0, 2**32, 3, dtype=np.uint32)
            gen.standard_normal(7)
            state["state"]["counter"][2] = index
            bits.state = state
            fresh = replication_stream(seed, index)
            assert np.array_equal(gen.standard_normal(513), fresh.standard_normal(513))
            assert np.array_equal(gen.integers(0, 2**32, 5, dtype=np.uint32),
                                  fresh.integers(0, 2**32, 5, dtype=np.uint32))


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


class TestBatchSize:
    def test_batch_normals_stay_within_budget(self):
        widths = np.arange(1, 2**22 + 1)
        rows = np.fromiter(map(_batch_size, range(1, 2**22 + 1)), dtype=np.int64,
                           count=len(widths))
        assert rows.min() >= 1
        assert (rows * widths).max() <= 2**22

    def test_huge_rows_run_one_at_a_time(self):
        assert _batch_size(2**30) == 1


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
        # the batched engine, run here in three batches of two rows, must
        # reproduce the per-path oracle and the public path sampler
        # bit-for-bit, including the alpha = 1 shortcut
        monkeypatch.setattr(estimator, "_batch_size", lambda width: 2)
        cfg = EstimatorConfig(alpha=alpha, d=0.3, domain=domain,
                              delta=0.3, horizon=3.0, replications=6, seed=99)
        table = _simulate_functionals(cfg, strides=[1, 2, 3], threads=threads)
        neg, pos = cfg.side_counts()
        for r in range(cfg.replications):
            path = replication_path(cfg, r)
            recs = subsampled_functionals(path, cfg.d, cfg.domain, [1, 2, 3])
            assert [rec.functional for rec in recs] == list(table[r])
            unit = sample_two_sided_path(cfg.alpha, neg, pos,
                                         replication_stream(cfg.seed, r))
            assert np.array_equal(unit * cfg.delta ** (cfg.alpha / 2.0), path.values)

    @pytest.mark.parametrize("domain", list(Domain))
    def test_brownian_rows_use_raw_normals(self, domain):
        # alpha = 1 has iid increments, so row r is the penalized sup of the
        # cumulated first n normals of stream r, with no embedding in between
        cfg = EstimatorConfig(alpha=1.0, d=2.0, domain=domain, delta=0.05,
                              horizon=2.0, replications=5, seed=31)
        table = _simulate_functionals(cfg, strides=[1], threads=1)
        neg, pos = cfg.side_counts()
        n = neg + pos
        k = np.arange(-neg, pos + 1, dtype=float)
        drift = (1.0 + cfg.d) * np.abs(k * cfg.delta) ** cfg.alpha
        first = neg if domain is Domain.HALF_LINE else 0
        for r in range(cfg.replications):
            z = replication_stream(cfg.seed, r).standard_normal(n)
            values = np.concatenate([[0.0], np.cumsum(z)])
            values -= values[neg]
            values[neg] = 0.0
            field = math.sqrt(2.0) * (cfg.delta ** 0.5 * values) - drift
            assert table[r, 0] == np.exp(field[first:].max())

    def test_brownian_deterministic_across_threads_and_batches(self):
        n = sum(self._config().side_counts())
        cfg = self._config(replications=_batch_size(n) + 7)
        t1 = _simulate_functionals(cfg, [1, 2], threads=1)
        t2 = _simulate_functionals(cfg, [1, 2], threads=2)
        assert np.array_equal(t1, t2)

    def test_embedded_deterministic_across_threads_and_batches(self):
        # n = 20 increments embed in m = 64, so this is three batches, run
        # by two and three workers that each reuse one set of buffers
        cfg = self._config(alpha=0.5, d=0.5, domain=Domain.FULL_LINE,
                           horizon=0.5, replications=2 * _batch_size(64) + 9)
        assert circulant_spectrum(cfg.alpha, sum(cfg.side_counts())).m == 64
        t1 = _simulate_functionals(cfg, [1, 3], threads=1)
        for threads in (2, 3):
            assert np.array_equal(t1, _simulate_functionals(cfg, [1, 3], threads=threads))

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
