"""The three benchmark workloads and the checks on their results.

One operation is one call of a public entry point (``estimate_constant`` or
``run_gap_decay``) with a fixed replication count.  Each count is a whole
multiple of two batches, so two threads split the batches evenly.  The
constants the results are checked against are written out here, not
imported from ``piterbarg``, so a change to the package cannot move its own
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from piterbarg import (
    Domain,
    EstimatorConfig,
    estimate_constant,
    plan_horizon,
    run_gap_decay,
)

# -zeta(1/2)/sqrt(pi): the first-order Brownian grid correction.
RATE_CONSTANT = 0.8239168021573690
# Brownian half-line constant 1 + 1/d at d = 2.
BM_HALF_EXACT_D2 = 1.5
BM_ABS_TOL = 0.015


@dataclass(frozen=True)
class Workload:
    name: str
    alpha: float
    d: float
    domain: Domain
    # Grid spacings, finest last; only the gap study uses the coarser ones.
    deltas: tuple[float, ...]
    reps: int

    def config(self, seed: int, reps: int | None = None, d: float | None = None):
        finest = self.deltas[-1]
        return EstimatorConfig(
            alpha=self.alpha,
            d=self.d if d is None else d,
            domain=self.domain,
            delta=finest,
            horizon=plan_horizon(finest, self.alpha),
            replications=self.reps if reps is None else reps,
            seed=seed,
        )

    def run(self, seed: int, threads: int):
        return estimate_constant(self.config(seed), threads=threads)

    def warm_up(self, seed: int):
        """One-replication call: config validation, spectrum build, first path."""
        return estimate_constant(self.config(seed, reps=1))

    def check_call(self, result) -> list[str]:
        """Checks that hold for every single result."""
        return []

    def check_run(self, results: list, run) -> list[str]:
        """Checks over the one-thread results of all rounds, in round order.

        ``run(fn)`` performs ``fn()`` as one more counted operation and
        returns its result, or None if it raised.
        """
        return []


class BrownianValidation(Workload):
    def check_call(self, result):
        if result.method != "sample-mean":
            return [f"method is {result.method}, expected sample-mean"]
        return []

    def check_run(self, results, run):
        # Pool the rounds (distinct seeds, equal sizes) into one estimate
        # and its standard error, then compare the bias-corrected estimate
        # with the closed form.
        n = self.reps
        means = [r.estimate for r in results]
        grand = sum(means) / len(means)
        ss = sum(
            (n - 1) * n * r.stderr**2 + n * (r.estimate - grand) ** 2
            for r in results
        )
        total = n * len(results)
        stderr = math.sqrt(ss / (total - 1) / total)
        corrected = grand * (1.0 + RATE_CONSTANT * math.sqrt(self.deltas[-1]))
        tol = max(3.0 * stderr, BM_ABS_TOL)
        if abs(corrected - BM_HALF_EXACT_D2) > tol:
            return [
                f"corrected estimate {corrected:.5f} over {total} reps is not "
                f"within {tol:.5f} of {BM_HALF_EXACT_D2}"
            ]
        return []


class GapDecay(Workload):
    def run(self, seed, threads):
        return run_gap_decay(
            self.alpha, self.d, self.domain, self.deltas, self.reps, seed,
            threads=threads,
        )

    def check_call(self, result):
        gaps = [p.gap for p in result.points]
        if len(gaps) != len(self.deltas) - 1:
            return [f"expected {len(self.deltas) - 1} gaps, got {len(gaps)}"]
        errors = []
        if not all(g > 0.0 for g in gaps):
            errors.append(f"a paired gap is not positive: {gaps}")
        if not all(a > b for a, b in zip(gaps, gaps[1:])):
            errors.append(f"gaps do not strictly decrease as delta shrinks: {gaps}")
        return errors


class FullLineHeavy(Workload):
    def check_call(self, result):
        errors = []
        if result.method != "median-of-means":
            errors.append(f"method is {result.method}, expected median-of-means")
        if not result.estimate >= 1.0:
            errors.append(f"estimate {result.estimate} is below 1")
        if not (
            result.ci_low is not None
            and result.ci_low <= result.estimate <= result.ci_high
        ):
            errors.append(
                f"estimate {result.estimate} outside [{result.ci_low}, {result.ci_high}]"
            )
        return errors

    def check_run(self, results, run):
        # A larger penalty lowers every path's functional, so the same seed
        # at d = 0.75 can give no larger an estimate.
        first = results[0]
        heavier = run(lambda: estimate_constant(self.config(first.config.seed, d=0.75)))
        if heavier is None:
            return []
        if heavier.estimate > first.estimate:
            return [
                f"estimate at d=0.75 ({heavier.estimate}) exceeds the one at "
                f"d={self.d} ({first.estimate})"
            ]
        return []


WORKLOADS = {
    w.name: w
    for w in (
        # n = 2120, m = 8192, 512-row batches.
        BrownianValidation(
            "bm_validate", alpha=1.0, d=2.0, domain=Domain.HALF_LINE,
            deltas=(0.01,), reps=1024,
        ),
        # n = 44976, m = 131072, 32-row batches; strides 16, 8, 4, 2, 1.
        GapDecay(
            "gap_decay", alpha=0.5, d=2.0, domain=Domain.HALF_LINE,
            deltas=(0.16, 0.08, 0.04, 0.02, 0.01), reps=64,
        ),
        # n = 172, m = 512, 4096-row batches; d <= 1 gives median-of-means.
        FullLineHeavy(
            "full_heavy", alpha=1.5, d=0.5, domain=Domain.FULL_LINE,
            deltas=(0.05,), reps=8192,
        ),
    )
}
