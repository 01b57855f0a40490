"""Strict inputs at every public entry point: a real parameter takes a real
number other than a bool, a count an integer other than a bool, and each
refusal is a ValueError that names the parameter, raised before any path
is drawn.  (``budget_report`` is covered by test_budget's
TestNonFiniteAndExtremeInputs.)"""

import numpy as np
import pytest

from piterbarg import (
    Domain,
    EstimatorConfig,
    budget_report,
    circulant_spectrum,
    estimate_constant,
    piterbarg_bm_full,
    piterbarg_bm_half,
    plan_horizon,
    run_gap_decay,
    run_rate_study_bm,
    sample_two_sided_path,
)

CONFIG = dict(alpha=0.5, d=2.0, domain=Domain.HALF_LINE, delta=0.1, horizon=1.0,
              replications=10, seed=1)
STUDY = dict(d=2.0, domain=Domain.HALF_LINE, deltas=[0.2, 0.1], replications=10, seed=1,
             threads=1)


def _study_spacing(run, **base):
    # the bad value as the coarser of two spacings
    return lambda spacing: run(**{**base, "deltas": [spacing, 0.1]})


# (entry point, parameter, call with the parameter set to a value, kind)
ENTRY_POINTS = [
    *[("EstimatorConfig", name, lambda v, name=name: EstimatorConfig(**{**CONFIG, name: v}),
       kind) for name, kind in [("alpha", "real"), ("d", "real"), ("delta", "real"),
                                ("horizon", "real"), ("replications", "count"),
                                ("seed", "count")]],
    ("estimate_constant", "threads",
     lambda v: estimate_constant(EstimatorConfig(**CONFIG), threads=v), "count"),
    ("plan_horizon", "delta", lambda v: plan_horizon(v, 1.0), "real"),
    ("plan_horizon", "alpha", lambda v: plan_horizon(0.01, v), "real"),
    ("piterbarg_bm_half", "d", piterbarg_bm_half, "real"),
    ("piterbarg_bm_full", "d", piterbarg_bm_full, "real"),
    ("circulant_spectrum", "alpha", lambda v: circulant_spectrum(v, 300), "real"),
    ("circulant_spectrum", "n", lambda v: circulant_spectrum(0.5, v), "count"),
    ("sample_two_sided_path", "alpha",
     lambda v: sample_two_sided_path(v, 2, 3, np.random.default_rng(0)), "real"),
    ("sample_two_sided_path", "neg_count",
     lambda v: sample_two_sided_path(0.5, v, 3, np.random.default_rng(0)), "count"),
    ("sample_two_sided_path", "pos_count",
     lambda v: sample_two_sided_path(0.5, 2, v, np.random.default_rng(0)), "count"),
    ("run_rate_study_bm", "spacing", _study_spacing(run_rate_study_bm, **STUDY), "real"),
    *[("run_rate_study_bm", name,
       lambda v, name=name: run_rate_study_bm(**{**STUDY, name: v}), kind)
      for name, kind in [("d", "real"), ("replications", "count"), ("seed", "count"),
                         ("threads", "count")]],
    ("run_gap_decay", "spacing", _study_spacing(run_gap_decay, alpha=0.5, **STUDY), "real"),
    *[("run_gap_decay", name,
       lambda v, name=name: run_gap_decay(**{"alpha": 0.5, **STUDY, name: v}), kind)
      for name, kind in [("alpha", "real"), ("d", "real"), ("replications", "count"),
                         ("seed", "count"), ("threads", "count")]],
]

BAD = {"real": [True, "2"], "count": [True, 2.9]}


def _must_not_draw(*args, **kwargs):
    raise AssertionError("drew a path before rejecting the request")


@pytest.mark.parametrize("call,name,value", [
    pytest.param(call, name, value, id=f"{entry}-{name}-{value!r}")
    for entry, name, call, kind in ENTRY_POINTS for value in BAD[kind]
])
def test_bad_type_names_the_parameter(monkeypatch, call, name, value):
    monkeypatch.setattr("piterbarg.estimator._fill_normals", _must_not_draw)
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        call(value)


def test_numpy_scalars_accepted():
    config = EstimatorConfig(**{**CONFIG, "alpha": np.float64(0.5),
                                "replications": np.int64(10), "seed": np.int64(1)})
    assert estimate_constant(config, threads=np.int64(2)).replications == 10
    assert budget_report(np.float64(1.0), np.float64(0.01), 21.0).delta == 0.01
    values = sample_two_sided_path(np.float64(0.5), np.int64(2), np.int64(3),
                                   np.random.default_rng(0))
    assert len(values) == 6 and values[2] == 0.0
    assert circulant_spectrum(0.5, np.int64(300)).m == 600
