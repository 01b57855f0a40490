"""Tests for the Brownian closed forms and the zeta-based rate constant."""

import math

import numpy as np
import pytest

from oracle import zeta_half
from piterbarg import (
    piterbarg_bm_full,
    piterbarg_bm_half,
    rate_constant,
)

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

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9])
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
