"""Validation of the fGn/fBM samplers: exact identities, spectrum properties,
statistical fidelity, and circulant-vs-Cholesky cross-checks."""

import math

import numpy as np
import pytest

from oracle import cholesky_sample, fgn_autocovariance, sample_fgn
from piterbarg import circulant_spectrum, sample_two_sided_path
from piterbarg.fbm import (
    _embedding_spectrum,
    _fgn_from_normals,
    _next_fast_len,
)


def _is_5_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def gamma_matrix(alpha: float, n: int) -> np.ndarray:
    """Dense fGn covariance [gamma(|i-j|)] built independently of the package."""
    idx = np.arange(n)
    lag = np.abs(idx[:, None] - idx[None, :]).astype(float)
    return 0.5 * ((lag + 1) ** alpha - 2 * lag**alpha + np.abs(lag - 1) ** alpha)


class TestAutocovariance:
    def test_brownian_lags_vanish_exactly(self):
        for k in range(1, 50):
            assert fgn_autocovariance(1.0, k) == 0.0

    def test_lag_zero_is_one_for_every_alpha(self):
        for alpha in np.linspace(0.1, 1.9, 19):
            assert fgn_autocovariance(alpha, 0) == 1.0

    def test_closed_form_lag_one(self):
        assert fgn_autocovariance(1.5, 1) == pytest.approx(
            (2.0**1.5 - 2.0) / 2.0, rel=1e-15
        )

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75])
    def test_partial_sum_identity(self, alpha):
        # Var of the n-step sum of increments must equal n^alpha
        for n in range(1, 65):
            g = np.array([fgn_autocovariance(alpha, k) for k in range(n)])
            total = n * g[0] + 2.0 * np.sum((n - np.arange(1, n)) * g[1:])
            assert total == pytest.approx(n**alpha, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fgn_autocovariance(2.0, 1)
        with pytest.raises(ValueError):
            fgn_autocovariance(0.0, 1)
        with pytest.raises(ValueError):
            fgn_autocovariance(0.5, -1)


class TestCirculantSpectrum:
    def test_brownian_n2_is_flat(self):
        spec = circulant_spectrum(1.0, 2)
        assert spec.m == 4
        np.testing.assert_allclose(spec.eigenvalues, [1.0] * 4, atol=1e-15)

    def test_n2_closed_form(self):
        # m = 4: the first row 1, g1, g2, g1 has eigenvalues
        # 1 + 2 g1 cos(pi k / 2) + g2 cos(pi k), k = 0..3
        spec = circulant_spectrum(1.5, 2)
        g1, g2 = fgn_autocovariance(1.5, 1), fgn_autocovariance(1.5, 2)
        np.testing.assert_allclose(
            spec.eigenvalues, [1 + 2 * g1 + g2, 1 - g2, 1 - 2 * g1 + g2, 1 - g2], rtol=1e-14
        )

    @pytest.mark.parametrize("alpha", [round(0.1 * k, 1) for k in range(1, 20)])
    def test_embedding_length_is_even_5_smooth(self, alpha):
        # n from 2 to about 70000, dense where the smooth numbers are dense;
        # every embedding must be built without tripping the eigenvalue check
        sizes = sorted({2, 3, 4, 5, 17, 181, 1025, 22_501, 44_976, 70_001}
                       | {int(x) for x in np.geomspace(2, 70_000, 25)})
        for n in sizes:
            spec = circulant_spectrum(alpha, n)
            m = spec.m
            assert m % 2 == 0 and m >= 2 * n
            assert _is_5_smooth(m)
            assert len(spec.eigenvalues) == m
            assert spec.eigenvalues.min() >= 0.0, (alpha, n)

    def test_next_fast_len_matches_brute_force(self):
        smooth = [m for m in range(2, 20_002, 2) if _is_5_smooth(m)]
        expected = np.searchsorted(smooth, np.arange(1, 20_001))
        assert [_next_fast_len(x) for x in range(1, 20_001)] == [
            smooth[i] for i in expected
        ]
        assert _next_fast_len(2 * 44_976) == 90_000  # the gap_decay grid, n = 44976
        assert _next_fast_len(2 * 172) == 360  # the full_heavy grid, n = 172

    @pytest.mark.parametrize("alpha", [0.02] + [round(0.1 * k, 1) for k in range(1, 20)] + [1.98])
    def test_every_short_grid_embeds(self, alpha):
        # every n from 2 to 255 embeds at the engine's m >= 2n, with no
        # eigenvalue below the clamp floor and none negative after it
        for n in range(2, 256):
            spec = _embedding_spectrum(alpha, _next_fast_len(2 * n))
            assert spec.eigenvalues.min() >= 0.0, (alpha, n)

    def test_nonnegative_scan(self):
        for alpha in np.arange(0.1, 2.0, 0.1):
            for n in (2, 64, 1024):
                spec = circulant_spectrum(float(alpha), n)
                assert spec.eigenvalues.min() >= 0.0, (alpha, n)

    def test_alpha_075_n1024_nonnegative(self):
        spec = circulant_spectrum(0.75, 1024)
        assert spec.eigenvalues.min() >= 0.0

    @pytest.mark.parametrize("alpha,n", [(0.3, 7), (0.75, 100), (1.5, 33), (1.9, 512)])
    def test_spectrum_round_trip(self, alpha, n):
        # inverse DFT of the eigenvalues must reproduce gamma(0..m/2)
        spec = circulant_spectrum(alpha, n)
        recovered = np.fft.ifft(spec.eigenvalues).real
        half = spec.m // 2
        expected = np.array([fgn_autocovariance(alpha, k) for k in range(half + 1)])
        np.testing.assert_allclose(recovered[: half + 1], expected, atol=1e-10)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            circulant_spectrum(0.5, 1)

    @pytest.mark.parametrize("alpha,n", [(0.5, 300), (1.5, 33)])
    def test_stored_weights_match_complex_temporary_formula(self, alpha, n):
        # Reference: the half-spectrum built from sqrt(eigenvalues) and
        # complex temporaries on every call; the stored weights must give
        # the same bits.
        spec = circulant_spectrum(alpha, n)
        lam, m = spec.eigenvalues, spec.m
        half = m // 2
        z = np.random.default_rng(5).standard_normal((7, m))
        w = np.empty((z.shape[0], half + 1), dtype=np.complex128)
        w[:, 0] = np.sqrt(lam[0]) * z[:, 0]
        w[:, half] = np.sqrt(lam[half]) * z[:, half]
        mid = np.sqrt(0.5 * lam[1:half])
        w[:, 1:half] = mid * (z[:, 1:half] + 1j * z[:, half + 1 :])
        reference = np.fft.irfft(w, n=m, axis=1) * math.sqrt(m)
        # the fGn is written over the normals, as the batched engine uses it
        buf = z.copy()
        fgn = _fgn_from_normals(spec, buf, np.empty_like(w))
        assert np.shares_memory(fgn, buf) and np.array_equal(fgn, reference)
        assert len(spec.weights) == half + 1
        assert not spec.weights.flags.writeable


class TestSampleFgn:
    def test_marginal_variance(self):
        # first coordinates across draws are iid N(0,1)
        spec = circulant_spectrum(0.75, 16)
        rng = np.random.default_rng(2024)
        draws = 50_000
        first = np.array([sample_fgn(spec, rng, 16)[0] for _ in range(draws)])
        se = math.sqrt(2.0 / (draws - 1))
        assert abs(first.var(ddof=1) - 1.0) < 4 * se

    def test_brownian_lag_one_uncorrelated(self):
        spec = circulant_spectrum(1.0, 2)
        rng = np.random.default_rng(11)
        draws = 50_000
        prods = np.empty(draws)
        for i in range(draws):
            x = sample_fgn(spec, rng, 2)
            prods[i] = x[0] * x[1]
        se = 1.0 / math.sqrt(draws)
        assert abs(prods.mean()) < 4 * se

    def test_covariance_matches_cholesky_oracle(self):
        # empirical covariance of both samplers vs the exact Toeplitz matrix,
        # and against each other, entrywise within 4 standard errors
        alpha, n, draws = 0.75, 8, 50_000
        spec = circulant_spectrum(alpha, n)
        rng_c = np.random.default_rng(101)
        rng_k = np.random.default_rng(202)
        xc = np.array([sample_fgn(spec, rng_c, n) for _ in range(draws)])
        xk = np.array([cholesky_sample(alpha, n, rng_k) for _ in range(draws)])
        cov_c = xc.T @ xc / draws
        cov_k = xk.T @ xk / draws
        exact = gamma_matrix(alpha, n)
        se = np.sqrt((1.0 + exact**2) / draws)
        assert np.all(np.abs(cov_c - exact) < 4 * se)
        assert np.all(np.abs(cov_k - exact) < 4 * se)
        assert np.all(np.abs(cov_c - cov_k) < 4 * np.sqrt(2.0) * se)


class TestCholeskySample:
    def test_brownian_returns_iid_normals(self):
        # covariance is the identity, so the draw equals the raw normals
        z = np.random.default_rng(42).standard_normal(3)
        x = cholesky_sample(1.0, 3, np.random.default_rng(42))
        np.testing.assert_array_equal(x, z)

    def test_alpha_half_pair_covariance(self):
        draws = 50_000
        rng = np.random.default_rng(7)
        x = np.array([cholesky_sample(0.5, 2, rng) for _ in range(draws)])
        g1 = (math.sqrt(2.0) - 2.0) / 2.0
        cov = x.T @ x / draws
        se = np.sqrt((1.0 + gamma_matrix(0.5, 2) ** 2) / draws)
        np.testing.assert_array_less(np.abs(cov - [[1.0, g1], [g1, 1.0]]), 4 * se)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            cholesky_sample(0.5, 4097, np.random.default_rng(0))


class TestTwoSidedPath:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_unit_variance_at_one(self, alpha):
        draws = 20_000
        rng = np.random.default_rng(31)
        vals = np.array(
            [sample_two_sided_path(alpha, 1, 1, rng)[2] for _ in range(draws)]
        )
        se = math.sqrt(2.0 / (draws - 1))
        assert abs(vals.var(ddof=1) - 1.0) < 4 * se

    @pytest.mark.parametrize(
        "alpha,expected",
        [(1.5, (2.0 - 2.0**1.5) / 2.0), (1.0, 0.0)],
    )
    def test_cross_side_covariance(self, alpha, expected):
        # Cov(B(1), B(-1)) = (1 + 1 - 2^alpha)/2; zero for Brownian motion
        draws = 20_000
        rng = np.random.default_rng(77)
        prods = np.empty(draws)
        for i in range(draws):
            v = sample_two_sided_path(alpha, 1, 1, rng)
            prods[i] = v[0] * v[2]
        se = math.sqrt((1.0 + expected**2) / draws)
        assert abs(prods.mean() - expected) < 4 * se

    def test_anchor_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        values = sample_two_sided_path(0.8, 10, 20, rng)
        assert values[10] == 0.0
        assert len(values) == 31

    def test_brownian_path_cumulates_iid_normals(self):
        # alpha = 1 skips the embedding: the increments are the raw normals
        z = np.random.default_rng(12).standard_normal(9)
        values = sample_two_sided_path(1.0, 3, 6, np.random.default_rng(12))
        expected = np.concatenate([[0.0], np.cumsum(z)])
        expected -= expected[3]
        expected[3] = 0.0
        assert np.array_equal(values, expected)

    def test_single_increment_path(self):
        values = sample_two_sided_path(0.7, 0, 1, np.random.default_rng(3))
        assert len(values) == 2
        assert values[0] == 0.0

    def test_reproducible_for_identical_stream(self):
        a = sample_two_sided_path(1.3, 4, 9, np.random.default_rng(123))
        b = sample_two_sided_path(1.3, 4, 9, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            sample_two_sided_path(0.5, 0, 0, np.random.default_rng(0))
