"""Tests for the Brownian closed forms and the zeta-based rate constant."""

import math

import numpy as np
import pytest

from oracle import lindley_exp_max, zeta_half
from piterbarg import (
    Domain,
    EstimatorConfig,
    estimate_constant,
    piterbarg_bm_full,
    piterbarg_bm_half,
    plan_horizon,
    rate_constant,
)
from piterbarg.closed_form import piterbarg_bm_half_discrete

# zeta(1/2) cross-checked against mpmath.zeta at 30 decimal digits:
# -1.46035450880958681288949915252...
ZETA_HALF_REFERENCE = -1.4603545088095868
# -zeta(1/2)/sqrt(pi) from the same reference value.
RATE_CONSTANT_REFERENCE = 0.8239168021573690


class TestClosedForms:
    def test_half_line_values(self):
        assert piterbarg_bm_half(1.0) == pytest.approx(2.0, abs=1e-12)
        assert piterbarg_bm_half(2.0) == pytest.approx(1.5, abs=1e-12)

    def test_full_line_values(self):
        assert piterbarg_bm_full(1.0) == pytest.approx(8.0 / 3.0, abs=1e-12)
        assert piterbarg_bm_full(0.5) == pytest.approx(4.5, abs=1e-12)

    def test_large_d_limit(self):
        assert piterbarg_bm_full(1e9) == pytest.approx(1.0, abs=1e-8)
        assert piterbarg_bm_half(1e9) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            piterbarg_bm_half(bad)
        with pytest.raises(ValueError):
            piterbarg_bm_full(bad)

    def test_full_minus_half_identity(self):
        # full - half = 1/d - 1/(2d+1) > 0, so full dominates everywhere
        for d in np.geomspace(0.01, 100.0, 25):
            diff = piterbarg_bm_full(d) - piterbarg_bm_half(d)
            assert diff == pytest.approx(1.0 / d - 1.0 / (2 * d + 1), rel=1e-12)
            assert diff > 0.0

    def test_strictly_decreasing_in_d(self):
        grid = np.geomspace(0.05, 50.0, 40)
        halves = [piterbarg_bm_half(d) for d in grid]
        fulls = [piterbarg_bm_full(d) for d in grid]
        assert all(a > b for a, b in zip(halves, halves[1:]))
        assert all(a > b for a, b in zip(fulls, fulls[1:]))


class TestRateConstant:
    def test_zeta_half_value(self):
        rc = rate_constant()
        assert rc.zeta_half == pytest.approx(ZETA_HALF_REFERENCE, abs=1e-12)

    def test_value_against_reference(self):
        rc = rate_constant()
        assert rc.value == pytest.approx(RATE_CONSTANT_REFERENCE, abs=1e-10)

    def test_value_positive(self):
        assert rate_constant().value > 0.0

    def test_value_consistent_with_zeta_field(self):
        rc = rate_constant()
        assert abs(rc.value * math.sqrt(math.pi) + rc.zeta_half) < 1e-12

    def test_independent_evaluations_agree(self):
        # Euler-van Wijngaarden acceleration vs Borwein's bounded partial sums
        assert abs(zeta_half("accelerated") - zeta_half("borwein")) < 1e-10

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            zeta_half("riemann-siegel")


class TestDiscreteBrownianConstant:
    """The half-line Brownian constant on the delta grid, from Spitzer's series."""

    # the series' values quoted to 1e-6, as ROADMAP item 2 tabulates them
    @pytest.mark.parametrize("d,delta,expected", [
        (2.0, 0.01, 1.388293), (0.5, 0.01, 2.766276), (2.0, 0.16, 1.167008),
    ])
    def test_pinned_values(self, d, delta, expected):
        assert piterbarg_bm_half_discrete(d, delta) == pytest.approx(expected, abs=1e-6)

    def test_tends_to_the_continuous_constant_at_the_rate(self):
        # below 1 + 1/d, rising as delta shrinks, and the normalized gap
        # (P - P^delta) / (sqrt(delta) P^delta) nears -zeta(1/2)/sqrt(pi)
        for d in (0.5, 1.0, 2.0):
            exact = piterbarg_bm_half(d)
            values = [piterbarg_bm_half_discrete(d, 0.04 / 4**j) for j in range(4)]
            assert all(a < b < exact for a, b in zip(values, values[1:]))
            ratio = (exact - values[-1]) / (math.sqrt(0.04 / 4**3) * values[-1])
            assert ratio == pytest.approx(RATE_CONSTANT_REFERENCE, abs=0.01)

    def test_consecutive_gaps_approach_their_rate(self):
        # P^delta - P is about -0.8239 sqrt(delta) P, so the consecutive gap
        # (P^(delta/2) - P^delta) / (sqrt(delta) P) tends to
        # (1 - 2^(-1/2)) 0.8239 = 0.2413, from below, and its distance to
        # that limit, a next-order term in sqrt(delta), halves as delta is
        # quartered.  Measured at delta = 0.16 ... 0.000625: the distances
        # shrink by factors 0.506-0.575 (d = 0.5, 1, 2), down to 0.0057,
        # 0.0073 and 0.0103 at the finest delta, and the values at d = 2 are
        # 0.2024, 0.2211 and 0.2310 at delta = 0.01, 0.0025 and 0.000625.
        limit = (1.0 - 2.0**-0.5) * RATE_CONSTANT_REFERENCE
        assert limit == pytest.approx(0.2413, abs=1e-4)
        deltas = [0.16 / 4**j for j in range(5)]
        for d in (0.5, 1.0, 2.0):
            exact = piterbarg_bm_half(d)
            gaps = [(piterbarg_bm_half_discrete(d, delta / 2)
                     - piterbarg_bm_half_discrete(d, delta)) / (math.sqrt(delta) * exact)
                    for delta in deltas]
            distances = [limit - g for g in gaps]
            assert all(0.0 < b < a for a, b in zip(distances, distances[1:])), (d, gaps)
            assert all(0.49 <= b / a <= 0.59 for a, b in zip(distances, distances[1:])), (d, gaps)
            assert distances[-1] < 0.011, (d, gaps)
            if d == 2.0:
                assert gaps[2:] == pytest.approx([0.2024, 0.2211, 0.2310], abs=5e-5)

    def test_too_many_terms_refused_naming_d_and_delta(self):
        # 60 / (0.5 * 1e-5) = 1.2e7 terms, and products that underflow;
        # 6e5 terms are within the cap
        assert piterbarg_bm_half_discrete(1.0, 1e-4) < 2.0
        for d, delta in [(0.5, 1e-5), (1e-200, 1e-200), (5e-324, 0.01)]:
            with pytest.raises(ValueError, match=rf"d={d}, delta={delta} needs up to "
                                                 r".* terms, more than 1000000"):
                piterbarg_bm_half_discrete(d, delta)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError, match="penalty d"):
            piterbarg_bm_half_discrete(bad, 0.01)
        with pytest.raises(ValueError, match="delta"):
            piterbarg_bm_half_discrete(2.0, bad)

    @pytest.mark.parametrize("d,delta", [(2.0, 0.16), (1.0, 0.04)])
    def test_series_is_the_lindley_lattice_limit(self, d, delta):
        # a lattice solution of Lindley's recursion, whose stationary law is
        # that of the walk's maximum, at spacings h = 0.02 and 0.01: its error
        # is O(h^2), so e = (E_h - E_{h/2}) / 3 estimates the error at h/2.
        # The series lies within that error of E_{h/2}, and within 1% of it
        # of the extrapolation (4 E_{h/2} - E_h) / 3
        exact = piterbarg_bm_half_discrete(d, delta)
        coarse, fine = (lindley_exp_max(d, delta, h) for h in (0.02, 0.01))
        error = (coarse - fine) / 3.0
        assert 0.0 < error < 2e-4
        assert abs(fine - exact) <= 1.1 * error
        assert abs((4.0 * fine - coarse) / 3.0 - exact) <= 0.01 * error

    @pytest.mark.parametrize("d", [1.5, 2.0, 4.0])
    def test_engine_agrees_within_three_row_stderrs(self, d):
        # no model tolerance: the engine on the half line at alpha = 1,
        # delta = 0.04, T = plan_horizon (n = 259), against the exact value
        delta = 0.04
        cfg = EstimatorConfig(alpha=1.0, d=d, domain=Domain.HALF_LINE, delta=delta,
                              horizon=plan_horizon(delta, 1.0), replications=200_000,
                              seed=20261019)
        res = estimate_constant(cfg, threads=2)
        exact = piterbarg_bm_half_discrete(d, delta)
        assert abs(res.estimate - exact) <= 3.0 * res.stderr, (res.estimate, res.stderr, exact)
        # a blown-up estimate has a blown-up stderr: 0.05-0.2% of it here
        assert res.stderr <= 0.005 * exact, (res.stderr, exact)
