"""Smoke check of the benchmark itself.

Usage, from the root of a checkout:

    python3 bench/smoke.py

Runs every workload named in BENCHMARK.json for one round in both modes,
with one probe each, and exits 1 unless every run exits 0, passes its
checks with no failed operation, and prints every metric BENCHMARK.json
names for that mode with its unit.  It also checks that the benchmark
command refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_problems(spec, workload: str, trace: int) -> list[str]:
    args = ["--workload", workload, "--seed", "12", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        return [f"last line has keys {sorted(out)}"]
    problems = []
    if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
        problems.append(
            f"correct={out['correct']} attempted={out['attempted']} failed={out['failed']}"
        )
    expected = spec["per_layer" if trace else "end_to_end"]
    for metric in expected:
        got = out["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} not printed")
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(
                f"metric {metric['name']} printed as {got}, unit should be {metric['unit']}"
            )
    extra = set(out["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append(f"metrics not named in BENCHMARK.json: {sorted(extra)}")
    return problems


def bare_directory_problems(spec) -> list[str]:
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, Path(bare) / path,
                ignore=shutil.ignore_patterns("results", "__pycache__"),
            )
        args = ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(
            spec["command"] + args, cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit code {proc.returncode}, stdout {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    checks = [
        (f"{name} trace {trace}", lambda name=name, trace=trace: run_problems(spec, name, trace))
        for name in (w["name"] for w in spec["workloads"])
        for trace in (0, 1)
    ]
    checks.append(("without src/", lambda: bare_directory_problems(spec)))
    for label, check in checks:
        problems = check()
        failures += bool(problems)
        print(f"{label}: " + ("ok" if not problems else "FAIL\n  " + "\n  ".join(problems)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
