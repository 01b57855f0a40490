"""Tests for the error-budget formulas, horizon planning, and report assembly."""

import math
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from piterbarg import (
    Domain,
    EstimatorConfig,
    budget_report,
    estimate_constant,
    plan_horizon,
)


def discretization_bound(delta, alpha, c_disc):
    """The discretization term of a report, whatever its horizon."""
    return budget_report(alpha, delta, 1.0, c_disc=c_disc).disc_bound


def truncation_bound(horizon, alpha, c_trunc):
    """The truncation term of a report, whatever its spacing."""
    return budget_report(alpha, 0.5, horizon, c_trunc=c_trunc).trunc_bound


class TestPlanHorizon:
    def test_brownian_hand_value(self):
        expected = math.log(100.0) ** 2  # 21.2076
        assert plan_horizon(0.01, 1.0) == pytest.approx(expected, rel=1e-12)
        assert plan_horizon(0.01, 1.0) == pytest.approx(21.2076, abs=1e-3)

    def test_unit_at_exp_minus_one(self):
        assert plan_horizon(math.exp(-1.0), 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_rough_case_fourth_power(self):
        assert plan_horizon(0.01, 0.5) == pytest.approx(math.log(100.0) ** 4,
                                                        rel=1e-12)

    @pytest.mark.parametrize("bad", [1.0, 1.5, 0.0, -0.5])
    def test_delta_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError):
            plan_horizon(bad, 1.0)


class TestDiscretizationBound:
    def test_brownian_hand_value(self):
        expected = 0.1 * math.sqrt(math.log(100.0))  # 0.2145966
        assert discretization_bound(0.01, 1.0, 1.0) == pytest.approx(
            expected, rel=1e-12
        )
        assert discretization_bound(0.01, 1.0, 1.0) == pytest.approx(
            0.214597, abs=1e-5
        )

    def test_rough_hand_value(self):
        expected = 0.01**0.25 * math.sqrt(math.log(100.0))
        assert discretization_bound(0.01, 0.5, 1.0) == pytest.approx(
            expected, rel=1e-12
        )
        assert discretization_bound(0.01, 0.5, 1.0) == pytest.approx(
            0.6786, abs=1e-3
        )

    def test_vanishes_as_delta_to_zero(self):
        deltas = [10.0**-k for k in range(2, 12)]
        bounds = [discretization_bound(d, 1.2, 1.0) for d in deltas]
        assert all(b > 0 for b in bounds)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] < 1e-5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            discretization_bound(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            discretization_bound(0.1, 1.0, 0.0)


class TestTruncationBound:
    def test_hand_values(self):
        assert truncation_bound(10.0, 1.0, 1.0) == pytest.approx(
            math.exp(-10.0), rel=1e-12
        )
        for alpha in (0.3, 1.0, 1.7):
            assert truncation_bound(1.0, alpha, 1.0) == pytest.approx(
                math.exp(-1.0), rel=1e-12
            )

    def test_decreasing_in_horizon(self):
        assert truncation_bound(10.0, 1.5, 1.0) < truncation_bound(5.0, 1.5, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            truncation_bound(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            truncation_bound(1.0, 1.0, -2.0)


class TestPlannedHorizonNegligibility:
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_truncation_negligible_below_threshold(self, c, alpha):
        # with T = plan_horizon(delta), the truncation bound is
        # delta^(c * -ln delta): eventually below any power of delta
        deltas = [10.0**-k for k in range(1, 13)]
        dominated = [
            truncation_bound(plan_horizon(d, alpha), alpha, c)
            < discretization_bound(d, alpha, 1.0)
            for d in deltas
        ]
        assert dominated[-1], "no crossover within the tested grid"
        first = dominated.index(True)
        assert all(dominated[first:]), "domination must persist once reached"


class TestTotalBudget:
    def _run(self, d=2.0):
        cfg = EstimatorConfig(alpha=1.0, d=d, domain=Domain.HALF_LINE,
                              delta=0.05, horizon=3.0, replications=200, seed=3)
        return cfg, estimate_constant(cfg)

    @staticmethod
    def _report(cfg, res, c_disc=None, c_trunc=None):
        return budget_report(cfg.alpha, cfg.delta, cfg.horizon, c_disc, c_trunc,
                             res.stat_error())

    def test_assembles_components(self):
        cfg, res = self._run()
        report = self._report(cfg, res)
        assert report.disc_bound == pytest.approx(
            math.sqrt(0.05) * math.sqrt(-math.log(0.05)), rel=1e-15
        )
        assert report.trunc_bound == pytest.approx(math.exp(-3.0), rel=1e-15)
        assert report.stat_error == res.stderr  # copied verbatim
        assert report.total == pytest.approx(
            report.disc_bound + report.trunc_bound + report.stat_error, rel=1e-15
        )
        assert budget_report(cfg.alpha, cfg.delta, cfg.horizon).total == pytest.approx(
            report.disc_bound + report.trunc_bound, rel=1e-15
        )

    def test_up_to_constant_flag(self):
        cfg, res = self._run()
        assert self._report(cfg, res).up_to_constant
        assert self._report(cfg, res, c_disc=0.4).up_to_constant
        assert not self._report(cfg, res, c_disc=0.4, c_trunc=2.0).up_to_constant

    def test_median_of_means_stat_error_is_half_width(self):
        cfg, res = self._run(d=0.5)
        report = self._report(cfg, res)
        assert report.stat_error == pytest.approx(
            0.5 * (res.ci_high - res.ci_low), rel=1e-15
        )

    def test_small_horizon_flagged(self):
        cfg = EstimatorConfig(alpha=1.0, d=2.0, domain=Domain.HALF_LINE,
                              delta=0.1, horizon=0.8, replications=50, seed=5)
        res = estimate_constant(cfg)
        report = self._report(cfg, res)
        assert report.horizon_below_comfort
        assert not budget_report(1.0, 0.1, 1.0).horizon_below_comfort

    def test_report_serialization_field_names(self):
        cfg, res = self._run()
        blob = asdict(self._report(cfg, res, c_disc=1.0, c_trunc=1.0))
        assert list(blob) == [
            "delta", "horizon", "disc_bound", "trunc_bound", "stat_error",
            "constants", "total", "up_to_constant", "horizon_below_comfort",
        ]
        assert list(blob["constants"]) == ["c_disc", "c_trunc"]


# Every float, NaN and both infinities included, with extra weight on the
# extremes of the float range.
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, 1e-300, 1e-30, 1e30, 1e300, 1.7976931348623157e308]),
)


class TestNonFiniteAndExtremeInputs:
    @pytest.mark.parametrize("field", ["alpha", "delta", "horizon", "c_disc", "c_trunc"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(alpha=1.0, delta=0.01, horizon=21.0, c_disc=1.0, c_trunc=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            budget_report(**kwargs)

    @given(alpha=ANY_FLOAT, delta=ANY_FLOAT, horizon=ANY_FLOAT,
           c_disc=ANY_FLOAT, c_trunc=ANY_FLOAT)
    def test_report_is_finite_or_rejected(self, alpha, delta, horizon, c_disc, c_trunc):
        # a report either comes out with finite numbers, so its JSON is
        # valid, or the inputs are refused with a ValueError
        try:
            report = budget_report(alpha, delta, horizon, c_disc, c_trunc)
        except ValueError:
            return
        for value in (report.delta, report.horizon, report.disc_bound,
                      report.trunc_bound, report.total, c_disc, c_trunc):
            assert math.isfinite(value)

    @given(delta=ANY_FLOAT, alpha=ANY_FLOAT)
    def test_planned_horizon_is_finite_or_rejected(self, delta, alpha):
        try:
            horizon = plan_horizon(delta, alpha)
        except ValueError:
            return
        assert 0.0 < horizon < math.inf

    def test_overflowing_plan_rejected(self):
        with pytest.raises(ValueError, match="outside the float range"):
            plan_horizon(1e-300, 0.01)

    def test_validation_order(self):
        # delta, alpha and c_disc are checked before horizon and c_trunc
        bad = dict(alpha=2.0, delta=1.0, horizon=0.0, c_disc=0.0, c_trunc=0.0)
        good = dict(alpha=1.0, delta=0.01, horizon=21.0, c_disc=1.0, c_trunc=1.0)
        for field in ("delta", "alpha", "c_disc", "horizon", "c_trunc"):
            with pytest.raises(ValueError, match=field):
                budget_report(**bad)
            bad[field] = good[field]
        budget_report(**bad)

    def test_truncation_bound_vanishes_beyond_float_range(self):
        # T^alpha = 1e450 is no float, but the bound exp(-T^alpha) is 0
        assert truncation_bound(1e300, 1.5, 1.0) == 0.0
