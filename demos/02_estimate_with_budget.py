"""Estimate a Piterbarg constant outside the Brownian case, with its budget.

No closed form exists for alpha != 1, which is the whole point of the
estimator: pick a grid spacing, let the planning rule choose the horizon,
and read the estimate together with its three error components.  The
analytic bounds are only known up to constants, so the report carries an
``up_to_constant`` caveat unless calibrated constants are supplied.

Run:  python demos/02_estimate_with_budget.py
"""

import json
from dataclasses import asdict

from piterbarg import (
    Domain,
    EstimatorConfig,
    budget_report,
    estimate_constant,
    plan_horizon,
)

alpha, d, delta = 1.2, 2.0, 0.02
horizon = plan_horizon(delta, alpha)
print(f"alpha={alpha}, d={d}, delta={delta} -> planned horizon T = {horizon:.3f}")

config = EstimatorConfig(
    alpha=alpha,
    d=d,
    domain=Domain.HALF_LINE,
    delta=delta,
    horizon=horizon,
    replications=20_000,
    seed=42,
)
result = estimate_constant(config, threads=2)
print(f"\nestimate = {result.estimate:.5f} +/- {result.stderr:.5f} "
      f"({result.method}, {result.replications} replications)")
print(f"95% CI = [{result.ci_low:.5f}, {result.ci_high:.5f}]")

report = budget_report(alpha, delta, horizon, stat_error=result.stat_error())
print("\nerror budget (constants defaulted to 1, hence 'up to constant'):")
print(json.dumps(asdict(report), indent=2))

# the same numbers are available from the command line:
print("\nequivalent CLI call:")
print(f"  piterbarg estimate --alpha {alpha} --d {d} --domain half "
      f"--delta {delta} --reps 20000 --seed 42")
