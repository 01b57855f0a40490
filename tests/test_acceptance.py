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

import piterbarg.estimator as estimator
from oracle import (
    PathGrid,
    cholesky_sample,
    sample_fgn,
    subsampled_functionals,
    sup_functional,
    zeta_half,
)
from piterbarg import (
    Domain,
    EstimatorConfig,
    circulant_spectrum,
    estimate_constant,
    piterbarg_bm_full,
    piterbarg_bm_half,
    piterbarg_bm_half_discrete,
    plan_horizon,
    rate_constant,
    run_gap_decay,
    run_rate_study_bm,
    sample_two_sided_path,
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


def test_exact_discrete_brownian_constant():
    # ~10 seconds: 4e5 paths of 2120 points per penalty.  No model
    # tolerance: on the half line at alpha = 1 the estimator's target on
    # the delta grid is exact (Spitzer's series), so the raw estimate must
    # lie within 3 row standard errors of it, and those must be below 0.5%
    # of it (about 0.03-0.12% here), so that a blown-up stderr cannot pass.
    # Seed and size were fixed before the first run.
    delta = 0.01
    lines, ok = [], True
    for d in (1.5, 2.0, 4.0):
        config = EstimatorConfig(
            alpha=1.0,
            d=d,
            domain=Domain.HALF_LINE,
            delta=delta,
            horizon=plan_horizon(delta, 1.0),
            replications=400_000,
            seed=SEED,
        )
        result = estimate_constant(config, threads=4)
        exact = piterbarg_bm_half_discrete(d, delta)
        z = (result.estimate - exact) / result.stderr
        ok &= abs(z) <= 3.0 and result.stderr <= 0.005 * exact
        lines.append(f"d={d}: {result.estimate:.6f} +- {result.stderr:.6f} "
                     f"vs {exact:.6f} (z = {z:+.2f})")
    report("exact discrete Brownian constant (delta = 0.01)", ok, "; ".join(lines))


def test_exact_discrete_brownian_constant_on_circulant_rows(monkeypatch):
    # ~2 seconds.  At alpha = 1 every eigenvalue of the embedding is 1, so the
    # circulant rows' fGn is iid N(0, 1) in law, and rows forced to be
    # circulant must reproduce Spitzer's exact value as the iid rows do:
    # this gates the Hermitian packing, the sqrt(m) scale, the ring wrap at
    # width m and the reversal passes on wide rows against an exact target.
    # On the full line, where no exact value exists, the forced rows must
    # agree with iid rows at an independent seed (two-sample |z| < 3).
    # Tolerances as in the iid test above; seed and size fixed before the
    # first run.
    def forced(alpha, neg, pos):
        n = neg + pos
        return estimator._RowMap("circulant", 1.0, neg, n, estimator._next_fast_len(2 * n))

    delta, reps = 0.04, 160_000

    def config(d, domain, seed):
        return EstimatorConfig(alpha=1.0, d=d, domain=domain, delta=delta,
                               horizon=plan_horizon(delta, 1.0), replications=reps,
                               seed=seed)

    iid_full = estimate_constant(config(2.0, Domain.FULL_LINE, SEED + 1), threads=2)
    monkeypatch.setattr(estimator, "_row_map", forced)
    lines, ok = [], True
    for d in (1.5, 2.0, 4.0):
        result = estimate_constant(config(d, Domain.HALF_LINE, SEED), threads=2)
        exact = piterbarg_bm_half_discrete(d, delta)
        # a zero stderr (every path at its anchor) fails as z = inf
        z = (result.estimate - exact) / result.stderr if result.stderr else math.inf
        ok &= abs(z) <= 3.0 and result.stderr <= 0.005 * exact
        lines.append(f"half d={d}: {result.estimate:.6f} +- {result.stderr:.6f} "
                     f"vs {exact:.6f} (z = {z:+.2f})")
    full = estimate_constant(config(2.0, Domain.FULL_LINE, SEED), threads=2)
    spread = math.hypot(full.stderr, iid_full.stderr)
    z = (full.estimate - iid_full.estimate) / spread if spread else math.inf
    ok &= abs(z) < 3.0 and full.stderr <= 0.005 * full.estimate
    lines.append(f"full d=2: {full.estimate:.6f} +- {full.stderr:.6f} vs iid rows "
                 f"{iid_full.estimate:.6f} +- {iid_full.stderr:.6f} (z = {z:+.2f})")
    report("exact discrete Brownian constant on circulant rows (delta = 0.04)", ok,
           "; ".join(lines))
