"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them live).

The two Monte Carlo studies and the envelope study are the heavy items
(roughly 1, 4 and 3 minutes respectively on a laptop-class core); their
seeds and sizes were fixed after pilot runs and must not be retuned to make
a failing check pass.
"""

import math

import numpy as np
import pytest

from oracle import PathGrid, sample_fgn, subsampled_functionals, sup_functional
from piterbarg import (
    Domain,
    EstimatorConfig,
    cholesky_sample,
    circulant_spectrum,
    estimate_constant,
    piterbarg_bm_full,
    piterbarg_bm_half,
    plan_horizon,
    rate_constant,
    run_gap_decay,
    run_rate_study_bm,
    sample_two_sided_path,
    zeta_half,
)

SEED = 20260810

# -zeta(1/2)/sqrt(pi); reference digits cross-checked against mpmath.zeta at
# 30 decimal places (zeta(1/2) = -1.46035450880958681288949915252...).
RATE_CONSTANT_REFERENCE = 0.8239168021573690


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_closed_form_regression():
    checks = [
        (piterbarg_bm_half(1.0), 2.0),
        (piterbarg_bm_half(2.0), 1.5),
        (piterbarg_bm_full(1.0), 8.0 / 3.0),
    ]
    worst = max(abs(got - want) for got, want in checks)
    report("closed-form regression", worst <= 1e-12, f"max |error| = {worst:.2e}")


def test_rate_constant_against_independent_oracle():
    value = rate_constant().value
    err_ref = abs(value - RATE_CONSTANT_REFERENCE)
    # live independent evaluation: Borwein's bounded eta partial sums
    borwein = -zeta_half("borwein") / math.sqrt(math.pi)
    err_ind = abs(value - borwein)
    report(
        "rate constant",
        err_ref <= 1e-10 and err_ind <= 1e-10,
        f"value = {value:.12f}, |vs reference| = {err_ref:.2e}, "
        f"|vs Borwein| = {err_ind:.2e}",
    )


def test_monte_carlo_validation_brownian():
    # ~1 minute: 1e5 paths of 2120 points at delta = 0.01
    delta = 0.01
    config = EstimatorConfig(
        alpha=1.0,
        d=2.0,
        domain=Domain.HALF_LINE,
        delta=delta,
        horizon=plan_horizon(delta, 1.0),
        replications=100_000,
        seed=SEED,
    )
    result = estimate_constant(config, threads=4)
    corrected = result.estimate * (1.0 + rate_constant().value * math.sqrt(delta))
    tol = max(3.0 * result.stderr, 0.015)
    raw_ok = 1.36 <= result.estimate <= 1.50
    corrected_ok = abs(corrected - 1.5) <= tol
    report(
        "Monte Carlo validation (corrected Brownian estimate)",
        raw_ok and corrected_ok,
        f"raw = {result.estimate:.6f} (must lie in [1.36, 1.50]), "
        f"corrected = {corrected:.6f} vs 1.5, tol = {tol:.4f}",
    )


def test_rate_study_brownian():
    # ~4 minutes: 1e5 common-random-number paths at the finest grid
    points = run_rate_study_bm(
        d=2.0,
        domain=Domain.HALF_LINE,
        deltas=[0.04, 0.01, 0.0025],
        replications=100_000,
        seed=SEED,
        threads=4,
    )
    target = rate_constant().value
    gaps = [p.gap for p in points]
    final_rate = points[-1].empirical_rate
    rate_ok = abs(final_rate - target) <= 0.15 * target
    gaps_ok = all(g > 0 for g in gaps) and all(
        a > b for a, b in zip(gaps, gaps[1:])
    )
    report(
        "rate study (sqrt-delta law)",
        rate_ok and gaps_ok,
        f"empirical rate at delta=0.0025: {final_rate:.4f} vs {target:.4f} "
        f"(15% tolerance); gaps = {[f'{g:.4f}' for g in gaps]}",
    )


def test_sampler_fidelity():
    # variance scaling on 2e4 unit-grid paths of length 64 per alpha
    draws = 20_000
    worst_sigma = 0.0
    for alpha in (0.5, 1.0, 1.5):
        rng = np.random.default_rng(2026)
        values = np.empty((draws, 65))
        for i in range(draws):
            values[i] = sample_two_sided_path(alpha, 0, 64, rng)
        for n in (1, 8, 64):
            sample_var = values[:, n].var(ddof=1)
            se = n**alpha * math.sqrt(2.0 / (draws - 1))
            sigmas = abs(sample_var - n**alpha) / se
            worst_sigma = max(worst_sigma, sigmas)
            assert sigmas < 4.0, (alpha, n, sample_var)

    # circulant vs Cholesky covariance, n = 8, entrywise within 4 SE
    n, m_draws = 8, 50_000
    spec = circulant_spectrum(0.75, n)
    rng_c = np.random.default_rng(SEED)
    rng_k = np.random.default_rng(SEED + 1)
    xc = np.array([sample_fgn(spec, rng_c, n) for _ in range(m_draws)])
    xk = np.array([cholesky_sample(0.75, n, rng_k) for _ in range(m_draws)])
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
    exact = 0.5 * ((lag + 1) ** 0.75 - 2 * lag**0.75 + np.abs(lag - 1) ** 0.75)
    se = np.sqrt(2.0 * (1.0 + exact**2) / m_draws)
    cov_diff = np.abs(xc.T @ xc / m_draws - xk.T @ xk / m_draws)
    cov_ok = bool(np.all(cov_diff < 4 * se))

    # spectrum nonnegativity across the roughness range up to n = 65536
    spectra_ok = True
    for alpha in np.arange(0.1, 2.0, 0.1):
        for size in (2, 64, 1024, 65536):
            eig = circulant_spectrum(float(alpha), size).eigenvalues
            spectra_ok &= bool(eig.min() >= 0.0)

    report(
        "fBM sampler fidelity",
        worst_sigma < 4.0 and cov_ok and spectra_ok,
        f"worst variance deviation = {worst_sigma:.2f} SE; "
        f"covariance match within 4 SE: {cov_ok}; spectra nonnegative: {spectra_ok}",
    )


def test_pathwise_property_suite():
    rng = np.random.default_rng(SEED)
    sup_exp_worst = 0.0
    for _ in range(1000):
        neg, pos = int(rng.integers(0, 5)), int(rng.integers(1, 9))
        alpha = float(rng.uniform(0.1, 1.9))
        delta = float(rng.uniform(0.05, 0.9))
        d = float(rng.uniform(0.2, 4.0))
        values = rng.standard_normal(neg + pos + 1)
        values[neg] = 0.0
        path = PathGrid(alpha=alpha, delta=delta, neg_count=neg, pos_count=pos,
                        values=values)

        # sup-of-exp identity
        rec = sup_functional(path, d, Domain.FULL_LINE)
        times = np.arange(-neg, pos + 1) * delta
        pointwise = np.exp(
            math.sqrt(2.0) * values - (1.0 + d) * np.abs(times) ** alpha
        )
        sup_exp_worst = max(
            sup_exp_worst,
            abs(rec.functional - pointwise.max()) / pointwise.max(),
        )

        # grid monotonicity under nested strides
        r1, r2, r4 = subsampled_functionals(path, d, Domain.FULL_LINE, [1, 2, 4])
        assert r4.z_max <= r2.z_max <= r1.z_max

        # horizon monotonicity: truncating the window cannot help
        if pos >= 2:
            shorter = PathGrid(alpha=alpha, delta=delta, neg_count=neg,
                               pos_count=pos - 1, values=values[:-1])
            assert (
                sup_functional(shorter, d, Domain.FULL_LINE).z_max <= rec.z_max
            )

        # domain monotonicity
        assert sup_functional(path, d, Domain.HALF_LINE).z_max <= rec.z_max

        # penalty monotonicity
        assert sup_functional(path, d + 1.0, Domain.FULL_LINE).z_max <= rec.z_max

    # determinism across thread counts
    config = EstimatorConfig(alpha=1.2, d=1.5, domain=Domain.FULL_LINE,
                             delta=0.05, horizon=3.0, replications=300,
                             seed=SEED)
    determinism_ok = estimate_constant(config, threads=1) == estimate_constant(
        config, threads=4
    )

    # budget arithmetic
    horizon = plan_horizon(0.01, 1.0)
    horizon_ok = abs(horizon - 21.2076) <= 1e-3

    report(
        "pathwise property suite",
        sup_exp_worst <= 1e-12 and determinism_ok and horizon_ok,
        f"sup-of-exp worst rel err = {sup_exp_worst:.2e}; "
        f"thread determinism: {determinism_ok}; "
        f"plan_horizon(0.01, 1) = {horizon:.4f}",
    )


def test_gap_decay_envelope():
    # ~3 minutes: 2e4 paths at the finest grid, alpha = 0.5.  Sizes and the
    # factor-2 ratio tolerance were frozen after a pilot run (observed
    # factors 1.07-1.64 against 2^(-1/4)).
    result = run_gap_decay(
        alpha=0.5,
        d=2.0,
        domain=Domain.HALF_LINE,
        deltas=[0.16, 0.08, 0.04, 0.02, 0.01],
        replications=20_000,
        seed=SEED,
        threads=4,
    )
    target = 2.0 ** (-0.25)
    factors = []
    for fine, coarse in zip(result.points[1:], result.points):
        assert fine.gap > 0.0 and coarse.gap > 0.0
        ratio = fine.gap / coarse.gap
        factors.append(max(ratio / target, target / ratio))
    report(
        "gap-decay envelope (alpha = 0.5)",
        max(factors) <= 2.0,
        f"successive-ratio factors vs 2^(-1/4): "
        f"{[f'{f:.3f}' for f in factors]} (all must be <= 2)",
    )
