"""Tests for the nested-grid convergence studies (small, fast configurations;
the full-scale runs live in the acceptance suite)."""

import csv
import io
import math

import numpy as np
import pytest

from piterbarg import (
    Domain,
    EstimatorConfig,
    piterbarg_bm_half,
    rate_points_csv,
    run_gap_decay,
    run_rate_study_bm,
)
from piterbarg.budget import plan_horizon
from piterbarg.estimator import _simulate_functionals
from piterbarg.rate_study import (
    RATE_CSV_HEADER,
    RATE_CSV_OPTIONAL,
    _loglog_slope,
    _nested_strides,
)


def _must_not_simulate(*args, **kwargs):
    raise AssertionError("simulated before rejecting the request")


class TestNestedValidation:
    def test_accepts_power_of_two_ladder(self):
        deltas, strides = _nested_strides([0.04, 0.01, 0.0025])
        assert strides == [16, 4, 1]

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            _nested_strides([0.01, 0.003])

    def test_rejects_non_descending(self):
        with pytest.raises(ValueError):
            _nested_strides([0.01, 0.04])
        with pytest.raises(ValueError):
            _nested_strides([0.01, 0.01])

    @pytest.mark.parametrize("deltas,message", [
        ([math.inf, 0.01], "spacing must be positive and finite, got inf"),
        ([math.nan, 0.01], "spacing must be positive and finite, got nan"),
        ([1e300, 1e-300], r"spacing 1e\+300 is not the finest \(1e-300\) times a power of two"),
    ], ids=["inf", "nan", "ratio-overflow"])
    def test_rejects_non_finite_spacing_or_ratio(self, monkeypatch, deltas, message):
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals", _must_not_simulate)
        with pytest.raises(ValueError, match=message):
            _nested_strides(deltas)
        with pytest.raises(ValueError, match=message):
            run_rate_study_bm(d=2.0, domain=Domain.HALF_LINE, deltas=deltas,
                              replications=10, seed=1)

    @pytest.mark.parametrize("study,deltas,spacing,horizon", [
        (lambda deltas: run_rate_study_bm(2.0, Domain.HALF_LINE, deltas, 200, 1),
         [40.96, 0.01], "40.96", "21.2"),
        (lambda deltas: run_gap_decay(1.5, 2.0, Domain.HALF_LINE, deltas, 200, 1),
         [10.24, 0.64, 0.01], "10.24", "7.66"),
    ], ids=["rate", "gap"])
    def test_rejects_spacing_beyond_horizon(self, monkeypatch, study, deltas, spacing, horizon):
        # the coarse grid would hold the anchor alone: a column of ones
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals", _must_not_simulate)
        with pytest.raises(ValueError, match=rf"spacing {spacing} exceeds the horizon "
                           rf"T={horizon}\d* of the finest spacing 0.01: its grid is empty"):
            study(deltas)

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            _nested_strides([0.01])
        with pytest.raises(ValueError):
            _nested_strides([0.04, -0.01])


class TestRateStudyBm:
    def test_small_study_structure(self):
        points = run_rate_study_bm(d=2.0, domain=Domain.HALF_LINE,
                                   deltas=[0.2, 0.05], replications=2000,
                                   seed=12, threads=2)
        assert [p.delta for p in points] == [0.2, 0.05]
        exact = piterbarg_bm_half(2.0)
        for p in points:
            assert p.p_hat >= 1.0
            assert p.gap == exact - p.p_hat
            assert p.gap_stderr == p.stderr
            assert p.empirical_rate == pytest.approx(
                p.gap / (math.sqrt(p.delta) * p.p_hat), rel=1e-15
            )
        # finer grid dominates pathwise, so its mean is >= the coarser one
        # and the gap shrinks with delta
        assert points[1].p_hat >= points[0].p_hat
        assert points[1].gap <= points[0].gap

    def test_pathwise_domination_under_crn(self):
        cfg = EstimatorConfig(alpha=1.0, d=2.0, domain=Domain.HALF_LINE,
                              delta=0.05, horizon=plan_horizon(0.05, 1.0),
                              replications=500, seed=9)
        table = _simulate_functionals(cfg, strides=[4, 2, 1])
        assert np.all(table[:, 0] <= table[:, 1])
        assert np.all(table[:, 1] <= table[:, 2])

    def test_invalid_penalty_rejected(self):
        with pytest.raises(ValueError):
            run_rate_study_bm(d=0.0, domain=Domain.HALF_LINE,
                              deltas=[0.2, 0.05], replications=10, seed=1)

    @pytest.mark.parametrize("d", [0.5, 1.0])
    def test_infinite_variance_penalty_rejected(self, d, monkeypatch):
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals",
                            _must_not_simulate)
        with pytest.raises(ValueError, match="d > 1"):
            run_rate_study_bm(d=d, domain=Domain.HALF_LINE,
                              deltas=[0.2, 0.05], replications=10, seed=1)

    def test_non_nested_rejected(self):
        with pytest.raises(ValueError):
            run_rate_study_bm(d=2.0, domain=Domain.HALF_LINE,
                              deltas=[0.01, 0.003], replications=10, seed=1)

    def test_single_replication_rejected(self, monkeypatch):
        # one replication has no CLT stderr (std with ddof=1 of one value)
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals",
                            _must_not_simulate)
        with pytest.raises(ValueError, match="at least 2 independent rows, and a stream row "
                           "holds 16 replications, got 1"):
            run_rate_study_bm(d=2.0, domain=Domain.HALF_LINE,
                              deltas=[0.2, 0.05], replications=1, seed=1)


class TestGapDecay:
    def test_small_study(self):
        result = run_gap_decay(alpha=0.5, d=2.0, domain=Domain.HALF_LINE,
                               deltas=[0.4, 0.2, 0.1], replications=800,
                               seed=21, threads=2)
        assert result.finest_delta == 0.1
        assert [p.delta for p in result.points] == [0.4, 0.2]
        # paired CRN gaps are nonnegative by pathwise domination and the
        # coarser grid loses at least as much as the finer one
        assert result.points[0].gap >= result.points[1].gap >= 0.0
        assert all(p.gap_stderr >= 0.0 for p in result.points)
        assert math.isfinite(result.exponent)

    def test_full_line_runs(self):
        result = run_gap_decay(alpha=1.5, d=2.0, domain=Domain.FULL_LINE,
                               deltas=[0.4, 0.1], replications=300, seed=2)
        assert len(result.points) == 1
        assert result.points[0].gap >= 0.0

    @pytest.mark.filterwarnings("error")
    def test_nonpositive_gap_gives_nan_exponent_without_warning(self):
        # seventeen replications, the fewest a study takes on these grids
        # (two half-line rows of sixteen), leave the gaps at 0, which has no
        # logarithm; the fit is nan and numpy is not asked to warn
        result = run_gap_decay(alpha=0.5, d=2.0, domain=Domain.HALF_LINE,
                               deltas=[0.4, 0.2, 0.1], replications=17, seed=3)
        assert min(p.gap for p in result.points) == 0.0
        assert math.isnan(result.exponent) and math.isnan(result.exponent_stderr)
        for gaps in ([0.1, 0.0], [0.1, -0.01], [0.0, 0.0], [0.1, math.nan]):
            slope, stderr = _loglog_slope([0.4, 0.2], gaps)
            assert math.isnan(slope) and math.isnan(stderr)
        slope, _ = _loglog_slope([0.4, 0.2], [0.2, 0.1])
        assert slope == pytest.approx(1.0, rel=1e-12)

    def test_brownian_alpha_rejected(self):
        with pytest.raises(ValueError):
            run_gap_decay(alpha=1.0, d=2.0, domain=Domain.HALF_LINE,
                          deltas=[0.4, 0.2], replications=10, seed=1)

    @pytest.mark.parametrize("d", [0.5, 1.0])
    def test_infinite_variance_penalty_rejected(self, d, monkeypatch):
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals",
                            _must_not_simulate)
        with pytest.raises(ValueError, match="d > 1"):
            run_gap_decay(alpha=0.5, d=d, domain=Domain.HALF_LINE,
                          deltas=[0.4, 0.2], replications=10, seed=1)

    def test_single_replication_rejected(self, monkeypatch):
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals",
                            _must_not_simulate)
        with pytest.raises(ValueError, match="at least 2 independent rows, and a stream "
                           "row holds 16 replications, got 1"):
            run_gap_decay(alpha=0.5, d=2.0, domain=Domain.HALF_LINE,
                          deltas=[0.4, 0.2, 0.1], replications=1, seed=1)

    def test_one_circulant_row_rejected(self, monkeypatch):
        # half-line circulant rows (n = 281) hold sixteen replications each
        # (four ring windows, their sign flips and their time reversals), so
        # sixteen replications are one independent row, which has no CLT
        # stderr; half-line iid rows hold sixteen too, and full-line rows
        # eight: the fewest a study takes is the row unit plus one
        monkeypatch.setattr("piterbarg.rate_study._simulate_functionals",
                            _must_not_simulate)
        with pytest.raises(ValueError, match=r"replications must be an integer >= 17: .*, "
                           "got 16"):
            run_gap_decay(alpha=0.5, d=2.0, domain=Domain.HALF_LINE,
                          deltas=[0.4, 0.2, 0.1], replications=16, seed=1)
        with pytest.raises(ValueError, match=r"replications must be an integer >= 17: .*, "
                           "got 16"):
            run_rate_study_bm(d=2.0, domain=Domain.HALF_LINE,
                              deltas=[0.1, 0.05], replications=16, seed=1)
        with pytest.raises(ValueError, match=r"replications must be an integer >= 9: .*, "
                           "got 8"):
            run_gap_decay(alpha=0.5, d=2.0, domain=Domain.FULL_LINE,
                          deltas=[0.4, 0.2, 0.1], replications=8, seed=1)
        with pytest.raises(ValueError, match=r"replications must be an integer >= 9: .*, "
                           "got 8"):
            run_rate_study_bm(d=2.0, domain=Domain.FULL_LINE,
                              deltas=[0.1, 0.05], replications=8, seed=1)

    def test_exponent_regression_reported_with_stderr(self):
        result = run_gap_decay(alpha=0.5, d=2.0, domain=Domain.HALF_LINE,
                               deltas=[0.8, 0.4, 0.2, 0.1, 0.05],
                               replications=2000, seed=33, threads=2)
        assert math.isfinite(result.exponent)
        assert math.isfinite(result.exponent_stderr)
        assert result.exponent_stderr >= 0.0
        # decay exponent should be broadly compatible with the alpha/2 shape;
        # generous range since this is a tiny pilot-scale run
        assert 0.05 < result.exponent < 1.2


def _table(alpha, domain, deltas, reps, seed):
    """The study's table, built here from its inputs: the finest spacing at
    the planned horizon, every spacing as a stride of it."""
    finest = deltas[-1]
    config = EstimatorConfig(alpha=alpha, d=2.0, domain=domain, delta=finest,
                             horizon=plan_horizon(finest, alpha),
                             replications=reps, seed=seed)
    return _simulate_functionals(config, [round(x / finest) for x in deltas])


def _row_mean_stderr(x, unit):
    """Mean of x and the stderr of its means over whole rows of ``unit``."""
    rows = x.reshape(-1, unit).mean(axis=1)
    return float(x.mean()), float(rows.std(ddof=1) / math.sqrt(len(rows)))


class TestStudiesAreViewsOfOneTable:
    def test_rate_study_reads_each_column(self):
        deltas = [0.2, 0.1, 0.05]
        points = run_rate_study_bm(d=2.0, domain=Domain.FULL_LINE, deltas=deltas,
                                   replications=304, seed=17)
        table = _table(1.0, Domain.FULL_LINE, deltas, 304, 17)
        assert len(points) == 3
        for j, p in enumerate(points):
            # full-line rows of eight: the stderr is that of the 38 row means
            mean, stderr = _row_mean_stderr(table[:, j], 8)
            assert p.p_hat == mean
            assert p.stderr == pytest.approx(stderr, rel=1e-12)
            assert p.p_exact_discrete is None  # the half line's alone

    def test_gap_study_reads_paired_differences(self):
        # half-line circulant rows (n = 281) of sixteen replications: the
        # stderr is that of the 38 row means
        deltas = [0.4, 0.2, 0.1]
        result = run_gap_decay(alpha=0.5, d=2.0, domain=Domain.HALF_LINE,
                               deltas=deltas, replications=608, seed=19)
        table = _table(0.5, Domain.HALF_LINE, deltas, 608, 19)
        assert len(result.points) == 2
        for j, p in enumerate(result.points):
            x = table[:, -1] - table[:, j]
            mean, stderr = _row_mean_stderr(x, 16)
            assert p.gap == mean
            assert p.gap_stderr == pytest.approx(stderr, rel=1e-12)


class TestCsvOutput:
    def test_round_trips_through_csv_reader(self):
        points = run_rate_study_bm(d=2.0, domain=Domain.HALF_LINE,
                                   deltas=[0.2, 0.05], replications=500, seed=4)
        text = rate_points_csv(points)
        rows = list(csv.reader(io.StringIO(text)))
        assert ",".join(rows[0]) == RATE_CSV_HEADER
        assert len(rows) == 1 + len(points)
        parsed = [float(x) for x in rows[1]]
        assert parsed[0] == points[0].delta
        assert parsed[1] == points[0].p_hat  # repr floats are bit-exact
        assert parsed[5] == points[0].empirical_rate
        assert parsed[6] == points[0].p_exact_discrete

    def test_optional_columns_are_the_fields_that_may_be_none(self):
        # check-manifest accepts an empty cell in these columns alone
        assert RATE_CSV_OPTIONAL == {"p_exact_discrete"}
        assert RATE_CSV_OPTIONAL <= set(RATE_CSV_HEADER.split(","))
