"""Command-line interface: estimation, validation, rate studies, planning.

Commands
--------
estimate        Monte Carlo estimate plus error budget, JSON manifest.
validate        Brownian-case check: on the half line of the raw estimate
                against the exact discrete constant of its grid, on the
                full line of the corrected estimate against the closed form.
rate            Nested-grid Brownian rate study, CSV table; on the half line
                with each grid's exact discrete constant.
plan            Error budget for (alpha, delta) without simulating, JSON.
check-manifest  Parse and sanity-check a manifest or CSV produced above.

Exit codes: 0 success, 1 numerical failure, 2 usage error.  Single results
are JSON manifests (floats serialized via repr, which round-trips
bit-exactly); study tables are CSV with a mandatory header.  Reruns with
identical flags reproduce the results fields exactly (timestamps differ).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import __version__
from .budget import budget_report, plan_horizon
from .closed_form import (piterbarg_bm_full, piterbarg_bm_half, piterbarg_bm_half_discrete,
                          rate_constant)
from .estimator import Domain, EstimateResult, EstimatorConfig, estimate_constant
from .rate_study import RATE_CSV_HEADER, RATE_CSV_OPTIONAL, rate_points_csv, run_rate_study_bm

__all__ = ["main"]

# Relative tolerance on the corrected Brownian-case estimate that `validate`
# treats as a decisive pass/fail margin (1.5% of the exact constant).
_VALIDATE_REL_TOL = 0.015


def _domain(text: str) -> Domain:
    try:
        return Domain(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"domain must be 'half' or 'full', got {text!r}"
        ) from None


def _delta_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad spacing list {text!r}") from None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(text: str, out: str | None) -> None:
    """Write ``text``, which ends in a newline, unchanged to ``out`` or stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _horizon(args: argparse.Namespace) -> float:
    """``--horizon``, or the planning rule's horizon where it is omitted."""
    if args.horizon is None:
        return plan_horizon(args.delta, args.alpha)
    return args.horizon


def _config(args: argparse.Namespace, alpha: float, horizon: float) -> EstimatorConfig:
    return EstimatorConfig(alpha=alpha, d=args.d, domain=args.domain, delta=args.delta,
                           horizon=horizon, replications=args.reps, seed=args.seed)


def _emit_manifest(
    args: argparse.Namespace, started: str, config: EstimatorConfig | dict, **results
) -> None:
    """Write the JSON manifest of ``args.command`` to ``--out`` or stdout.

    Dataclasses, the config among them, are written field by field; an
    EstimateResult leaves out its config, which the manifest already holds.
    """
    if isinstance(config, EstimatorConfig):
        config = {**asdict(config), "domain": config.domain.value}
    for name, value in results.items():
        if not isinstance(value, dict):
            results[name] = asdict(value)
            if isinstance(value, EstimateResult):
                del results[name]["config"]
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "started_at": started,
        "finished_at": _now(),
        "config": config,
        "results": results,
    }
    _emit(json.dumps(manifest, indent=2) + "\n", args.out)


def _cmd_estimate(args: argparse.Namespace) -> int:
    started = _now()
    config = _config(args, args.alpha, _horizon(args))
    # The budget's inputs are checked before the simulation, not after it.
    budget_report(config.alpha, config.delta, config.horizon, args.c_disc, args.c_trunc)
    result = estimate_constant(config, threads=args.threads)
    budget = budget_report(config.alpha, config.delta, config.horizon,
                           args.c_disc, args.c_trunc, result.stat_error())
    _emit_manifest(args, started, config, estimate=result, budget=budget)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    started = _now()
    config = _config(args, 1.0, plan_horizon(args.delta, 1.0))
    result = estimate_constant(config, threads=args.threads)
    exact = (
        piterbarg_bm_half(args.d)
        if args.domain is Domain.HALF_LINE
        else piterbarg_bm_full(args.d)
    )
    correction = 1.0 + rate_constant().value * math.sqrt(args.delta)
    corrected = result.estimate * correction
    # The raw estimate against its grid's exact constant where the half-line
    # series gives it, else the corrected one against the continuous constant.
    discrete = refused = None
    if args.domain is Domain.HALF_LINE:
        try:
            discrete = piterbarg_bm_half_discrete(args.d, args.delta)
        except ValueError as exc:
            refused = str(exc)
    value, target = (corrected, exact) if discrete is None else (result.estimate, discrete)
    # 3 sigma for the CLT method; the median-of-means interval half-width is
    # already a conservative ~2-sigma quantity, so it is used as-is.
    stat = result.stat_error()
    if result.stderr is not None:
        stat_width = 3.0 * result.stderr
    else:
        stat_width = stat if stat is not None else math.inf
    model_tol = _VALIDATE_REL_TOL * target
    error = abs(value - target)
    if stat_width > model_tol:
        status = "inconclusive"
        print(
            f"warning: statistical error ({stat_width:.4g}) dominates the "
            f"model tolerance ({model_tol:.4g}); increase --reps",
            file=sys.stderr,
        )
    else:
        status = "pass" if error <= model_tol + stat_width else "fail"
    validation = {
        "exact": exact,
        "correction_factor": correction,
        "corrected_estimate": corrected,
        "abs_error": error,
        "model_tolerance": model_tol,
        "stat_tolerance": None if stat is None else stat_width,
        "status": status,
        "status_against": "corrected" if discrete is None else "exact_discrete",
    }
    if args.domain is Domain.HALF_LINE:
        # Where the series refuses (d, delta), null and the refusal's reason;
        # the z-score is null too where the stderr is None or 0 (every
        # functional equal, as where the drift keeps each path below 0).
        validation["exact_discrete"] = discrete
        validation["discrete_z"] = (None if discrete is None or not result.stderr
                                    else (result.estimate - discrete) / result.stderr)
        if refused:
            validation["exact_discrete_refused"] = refused
    _emit_manifest(args, started, config, estimate=result, validation=validation)
    print(
        f"validate [{status}] {validation['status_against']}: "
        f"{value:.6f} against {target:.6f}",
        file=sys.stderr,
    )
    return 1 if status == "fail" else 0


def _cmd_rate(args: argparse.Namespace) -> int:
    points = run_rate_study_bm(
        d=args.d,
        domain=args.domain,
        deltas=args.deltas,
        replications=args.reps,
        seed=args.seed,
        threads=args.threads,
    )
    for p in points:
        # a gap below -3 sigma is suspicious but not a hard failure
        if p.gap < -3.0 * p.gap_stderr:
            print(
                f"warning: gap at delta={p.delta} is {p.gap:.3e}, more than "
                f"3 standard errors below zero",
                file=sys.stderr,
            )
    _emit(rate_points_csv(points), args.out)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    report = budget_report(args.alpha, args.delta, _horizon(args), args.c_disc, args.c_trunc)
    _emit_manifest(args, _now(), {"alpha": args.alpha, "delta": args.delta}, budget=report)
    return 0


def _check_json_manifest(text: str) -> list[str]:
    problems = []
    obj = json.loads(text)
    for key in ("command", "tool_version", "started_at", "finished_at", "config", "results"):
        if key not in obj:
            problems.append(f"missing manifest key {key!r}")
        elif key in ("config", "results") and not isinstance(obj[key], dict):
            problems.append(f"manifest key {key!r} is not a JSON object")
    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        elif isinstance(node, float) and not math.isfinite(node):
            problems.append(f"non-finite number at {path}")
    walk(obj, "$")
    return problems


def _check_csv_table(text: str) -> list[str]:
    problems = []
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        return ["CSV has no data rows"]
    header = ",".join(rows[0])
    if header != RATE_CSV_HEADER:
        problems.append(f"unexpected CSV header {header!r}")
    width = len(rows[0])
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            problems.append(f"row {i} has {len(row)} fields, expected {width}")
            continue
        for name, cell in zip(rows[0], row):
            if name in RATE_CSV_OPTIONAL and not cell:
                continue  # e.g. p_exact_discrete off the half line
            try:
                value = float(cell)
            except ValueError:
                problems.append(f"row {i}: non-numeric cell {cell!r}")
                break
            if not math.isfinite(value):
                problems.append(f"row {i}: non-finite value {cell}")
                break
    return problems


def _cmd_check_manifest(args: argparse.Namespace) -> int:
    with open(args.path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            problems = _check_json_manifest(text)
        else:
            problems = _check_csv_table(text)
    except (json.JSONDecodeError, csv.Error) as exc:
        problems = [f"unparseable: {exc}"]
    for p in problems:
        print(f"{args.path}: {p}", file=sys.stderr)
    print(f"check-manifest [{'ok' if not problems else 'invalid'}] {args.path}")
    return 0 if not problems else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piterbarg",
        description="Monte Carlo approximation of Piterbarg constants with an explicit error budget.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: each flag is declared once, for every command that takes it.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--delta", type=float, required=True, help="grid spacing")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--alpha", type=float, required=True, help="roughness exponent in (0,2)")
    budget.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="truncation horizon T (default: (-ln delta)^(2/alpha))",
    )
    budget.add_argument("--c-disc", type=float, default=None, help="calibrated discretization constant")
    budget.add_argument("--c-trunc", type=float, default=None, help="calibrated truncation constant")
    sample = argparse.ArgumentParser(add_help=False)
    sample.add_argument("--d", type=float, required=True, help="drift-penalty parameter > 0")
    sample.add_argument("--domain", type=_domain, required=True, help="half or full")
    sample.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
    sample.add_argument("--reps", type=int, required=True, help="replication count")
    sample.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads (default: 1); results do not depend on this",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the result to this file instead of stdout")

    p = sub.add_parser("estimate", parents=[budget, grid, sample, out],
                       help="estimate one constant plus its error budget")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("validate", parents=[grid, sample, out],
                       help="check the corrected estimate against the Brownian closed form")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("rate", parents=[sample, out],
                       help="nested-grid Brownian convergence-rate study (CSV)")
    p.add_argument(
        "--deltas",
        type=_delta_list,
        required=True,
        help="comma-separated descending spacings, each the finest times a power of two",
    )
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("plan", parents=[budget, grid, out],
                       help="error budget for (alpha, delta) without simulating")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("check-manifest", help="validate a manifest JSON or study CSV")
    p.add_argument("path")
    p.set_defaults(func=_cmd_check_manifest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an --out that cannot be written fails here, not after the simulation
        out = getattr(args, "out", None)
        if out and (os.path.isdir(out) or not os.access(os.path.dirname(out) or ".", os.W_OK)):
            raise ValueError(f"cannot write --out {out}: it is a directory, "
                             "or its directory is missing or read-only")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # the spectrum's eigenvalue check
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
