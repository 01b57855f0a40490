"""Benchmark of the piterbarg Monte Carlo engine.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bm_validate --seed 11 --seconds 30 --trace 0

``--trace 0`` times the public entry points with no hooks and prints the
end-to-end metrics.  ``--trace 1`` interleaves untraced calls with calls
traced by the hooks in ``stages.py``, at one thread, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record of the run goes to ``bench/results/``.  README.md in this
directory describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# Set before numpy loads, so no BLAS or OpenMP pool adds threads beyond the
# estimator's own.  PITERBARG_THREADS is dropped: every call here passes its
# thread count.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "us_per_rep": "us",
    "us_per_rep_2t": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "estimator.stream_us": "us",
    "estimator.normals_us": "us",
    "fbm.fgn_us": "us",
    "fbm.cumsum_us": "us",
    "estimator.field_max_us": "us",
    "estimator.aggregate_ms": "ms",
    "rate_study.post_ms": "ms",
    "fbm.spectrum_ms": "ms",
    "setup.import_s": "s",
    "setup.import_scipy_stats_s": "s",
    "setup.import_scipy_linalg_s": "s",
    "estimator.speedup_2t": "x",
    "fbm.fft_len": "count",
    "estimator.normals_per_rep": "count",
    "estimator.batch_rows": "count",
    "estimator.batches": "count",
    "fbm.workspace_mib": "MiB",
    "proc.minflt_per_rep": "count",
    "fbm.fft_gflops": "GFLOP/s-computed",
    "trace.overhead_pct": "%",
}

# Cumulative import time of these modules, from ``python -X importtime``.
IMPORT_MODULES = {
    "setup.import_s": "piterbarg",
    "setup.import_scipy_stats_s": "scipy.stats",
    "setup.import_scipy_linalg_s": "scipy.linalg",
}

# Stages timed per replication in the traced calls.
STAGES = {
    "stream": "estimator.stream_us",
    "normals": "estimator.normals_us",
    "fgn": "fbm.fgn_us",
    "cumsum": "fbm.cumsum_us",
    "field_max": "estimator.field_max_us",
}

SPECTRUM_REPEATS = 7

# Fresh interpreters started per run, for setup_s (trace 0) or the import
# times (trace 1): 0.8 per second of timed rounds, at least 1 and at most 15.
PROBES_PER_SECOND = 0.8
MAX_PROBES = 15

perf = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_count(seconds: float) -> int:
    return max(1, min(MAX_PROBES, round(PROBES_PER_SECOND * seconds)))


def quartiles(values):
    """(median, first quartile, third quartile) of a nonempty sample."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _round_seed(seed: int, index: int) -> int:
    """Estimator seed of round ``index`` of a run started with ``seed``."""
    return (seed * 65536 + index) % 2**64


def _us_per_rep(samples, reps: int) -> list[float]:
    return [seconds / reps * 1e6 for seconds, _ in samples]


class Bench:
    """Counts operations, times calls and collects check failures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, fn):
        """Run ``fn()`` as one counted operation; None if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def call(self, seed: int, threads: int):
        result = self.op(lambda: self.workload.run(seed, threads))
        if result is not None:
            self.errors += [
                f"seed {seed}, {threads} thread(s): {e}"
                for e in self.workload.check_call(result)
            ]
        return result

    def rounds(self, modes, seconds: float, probe, trace=None):
        """Run whole rounds of one call per mode for ``seconds`` of calls.

        A mode is (threads, traced).  Each round uses its own seed, and its
        results must be bit-identical across modes; the first mode leads in
        turn, so no mode always runs first.  ``probe()`` runs
        ``probe_count(seconds)`` times as counted operations, spread evenly
        between the rounds and not counted in ``seconds``, so the probes
        meet the same spells of host speed as the calls.  Returns, per
        mode, the list of (wall seconds, minor page faults) of its
        successful calls, and the list of successful probe results.
        """
        samples = {mode: [] for mode in modes}
        probes = probe_count(seconds)
        probed = []
        probes_run = 0
        first_mode = []
        timed = 0.0
        index = 0
        while index == 0 or timed < seconds or probes_run < probes:
            if probes_run < probes and timed >= probes_run * seconds / probes:
                probes_run += 1
                result = self.op(probe)
                if result is not None:
                    probed.append(result)
                continue
            round_start = perf()
            seed = _round_seed(self.seed, index)
            shift = index % len(modes)
            results = {}
            for mode in modes[shift:] + modes[:shift]:
                threads, traced = mode
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                with trace if traced else nullcontext():
                    t0 = perf()
                    result = self.call(seed, threads)
                    elapsed = perf() - t0
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                if result is not None:
                    samples[mode].append((elapsed, faults))
                    results[mode] = result
            if len({repr(r) for r in results.values()}) > 1:
                self.errors.append(f"round {index}: results differ between modes {sorted(results)}")
            if modes[0] in results:
                first_mode.append(results[modes[0]])
            index += 1
            timed += perf() - round_start
        if first_mode:
            self.errors += self.workload.check_run(first_mode, self.op)
        return samples, probed

    def warm_up(self, thread_counts):
        for threads in thread_counts:
            self.call(_round_seed(self.seed, 0), threads)

    def median(self, name: str, values) -> float:
        """Median of ``values``; with none, a failed check and 0."""
        values = list(values)
        if not values:
            self.errors.append(f"{name}: no successful operation to measure")
            return 0.0
        return statistics.median(values)


def setup_probe(workload_name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until a replication can run."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def import_probe() -> dict[str, float]:
    """Cumulative import seconds of IMPORT_MODULES; 0 for one not imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import piterbarg"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {key: cumulative.get(module, 0.0) for key, module in IMPORT_MODULES.items()}


def end_to_end(bench: Bench, args) -> tuple[dict, dict]:
    wl = bench.workload
    bench.warm_up((1, 2))
    samples, setup = bench.rounds(
        [(1, False), (2, False)], args.seconds, lambda: setup_probe(wl.name, args.seed),
    )
    us = {threads: _us_per_rep(samples[(threads, False)], wl.reps) for threads in (1, 2)}
    metrics = {
        "us_per_rep": bench.median("us_per_rep", us[1]),
        "us_per_rep_2t": bench.median("us_per_rep_2t", us[2]),
        "setup_s": bench.median("setup_s", setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"us_per_rep": us[1], "us_per_rep_2t": us[2], "setup_s": setup}
    return metrics, raw


def per_layer(bench: Bench, args) -> tuple[dict, dict]:
    import piterbarg
    import stages

    wl = bench.workload

    def spectrum_seconds():
        neg, pos = wl.config(args.seed).side_counts()
        t0 = perf()
        piterbarg.circulant_spectrum(wl.alpha, neg + pos)
        return perf() - t0

    spectrum_s = [bench.op(spectrum_seconds) for _ in range(SPECTRUM_REPEATS)]

    trace = stages.StageTrace()
    bench.warm_up((1, 2))
    modes = [(1, False), (2, False), (1, True)]
    samples, imports = bench.rounds(modes, args.seconds, import_probe, trace)
    metrics = {key: bench.median(key, (p[key] for p in imports)) for key in IMPORT_MODULES}
    metrics["fbm.spectrum_ms"] = bench.median(
        "fbm.spectrum_ms", (s for s in spectrum_s if s is not None)
    ) * 1e3
    plain, two, traced = (samples[mode] for mode in modes)
    if not (plain and two and traced):
        bench.errors.append("a mode has no successful call, so the stage metrics read 0")
        metrics.update({name: 0.0 for name in PER_LAYER_UNITS if name not in metrics})
        return metrics, {}
    untraced_us = sum(s for s, _ in plain) / (len(plain) * wl.reps) * 1e6
    traced_seconds = sum(s for s, _ in traced)
    layers = trace.layer_metrics(traced_seconds, len(traced) * wl.reps, len(traced))
    metrics.update(layers)
    m = layers["fbm.fft_len"]
    fgn_us = layers["fbm.fgn_us"]
    metrics["fbm.fft_gflops"] = 2.5 * m * math.log2(m) / (fgn_us * 1e3) if m and fgn_us else 0.0
    metrics["estimator.speedup_2t"] = statistics.median(
        _us_per_rep(plain, wl.reps)
    ) / statistics.median(_us_per_rep(two, wl.reps))
    metrics["proc.minflt_per_rep"] = sum(f for _, f in plain) / (len(plain) * wl.reps)
    traced_us = traced_seconds / (len(traced) * wl.reps) * 1e6
    metrics["trace.overhead_pct"] = (traced_us / untraced_us - 1.0) * 100.0

    # Per-replication split of the traced wall time; aggregation and the
    # gap study's post-processing are per call, so they make up the rest.
    split = {name: layers[key] for name, key in STAGES.items()}
    split["aggregate+post"] = traced_us - sum(split.values())
    raw = {
        "untraced_us_per_rep_mean": untraced_us,
        "traced_us_per_rep_mean": traced_us,
        "traced_split_us": split,
        "traced_calls": len(traced),
        "absent_hooks": trace.absent,
        "unexercised_hooks": trace.unexercised(),
        "stage_seconds": dict(trace.seconds),
        "stage_calls": dict(trace.calls),
    }
    return metrics, raw


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        **{key: os.environ[key] for key in PINNED_ENV},
        "PITERBARG_THREADS": "ignored",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "piterbarg" / "__init__.py").is_file():
        print("error: no src/piterbarg package next to bench/; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ.pop("PITERBARG_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    import piterbarg
    import workloads

    if Path(piterbarg.__file__).resolve().parent != SRC / "piterbarg":
        print(f"error: piterbarg was imported from {piterbarg.__file__}, not src/",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench = Bench(workloads.WORKLOADS[args.workload], args.seed)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    started = perf()
    measure, units = (per_layer, PER_LAYER_UNITS) if args.trace else (end_to_end, END_TO_END_UNITS)
    metrics, raw = measure(bench, args)
    wall = perf() - started

    for name, unit in units.items():
        line = f"{name:28s} {metrics[name]:14.6g} {unit}"
        if raw.get(name):
            med, q1, q3 = quartiles(raw[name])
            line += f"   (median of {len(raw[name])}: q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    for key in ("absent_hooks", "unexercised_hooks"):
        if key in raw:
            print(f"{key}: {', '.join(raw[key]) or 'none'} (their metrics read 0)")
    if "traced_split_us" in raw:
        traced_us = raw["traced_us_per_rep_mean"]
        shares = " + ".join(
            f"{name} {us / traced_us:.1%}" for name, us in raw["traced_split_us"].items()
        )
        print(
            f"traced {traced_us:.6g} us/rep = {shares}; untraced "
            f"{raw['untraced_us_per_rep_mean']:.6g} us/rep"
        )
    print(f"operations attempted {bench.attempted}, failed {bench.failed}, wall {wall:.1f} s")
    print("checks: " + ("all passed" if not bench.errors else "; ".join(bench.errors)))

    RESULTS.mkdir(exist_ok=True)
    record = {
        "args": vars(args), "env": env, "metrics": metrics, "raw": raw,
        "attempted": bench.attempted, "failed": bench.failed, "errors": bench.errors,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
