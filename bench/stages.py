"""Per-layer timing hooks for the traced benchmark run.

The hooks replace module-level functions of the package from the outside,
for the length of one call, and nothing under ``src/`` knows about them.
The engine looks these names up in its module globals on every batch, so a
replaced name is the one it calls.  A name that a later change renames or
removes is reported as absent, and the time it stood for lands in the
residual stage instead of failing the run.
"""

from __future__ import annotations

import time
from collections import defaultdict

import piterbarg.estimator as estimator
import piterbarg.rate_study as rate_study

perf = time.perf_counter

# (module, function name, stage)
HOOKS = (
    (estimator, "replication_stream", "stream"),
    (estimator, "_fgn_from_normals", "fgn"),
    (estimator, "_two_sided_values", "cumsum"),
    (estimator, "_aggregate", "aggregate"),
    (rate_study, "_simulate_functionals", "simulate"),
)


class _TimedGenerator:
    """Generator proxy that times normal draws apart from the stream build."""

    def __init__(self, gen, trace: "StageTrace"):
        self._gen = gen
        self._trace = trace

    def standard_normal(self, *args, **kwargs):
        t0 = perf()
        out = self._gen.standard_normal(*args, **kwargs)
        self._trace.add("normals", perf() - t0)
        self._trace.normals += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class StageTrace:
    """Wall time and counts per stage, summed over the traced calls."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.normals = 0
        self.fft_len = 0
        self.batch_rows = 0
        self.workspace_bytes = 0
        self._fgn_bytes = 0
        self._saved = []
        self.absent = [
            f"{m.__name__}.{name}" for m, name, _ in HOOKS if not callable(getattr(m, name, None))
        ]

    def add(self, stage: str, seconds: float) -> None:
        self.seconds[stage] += seconds
        self.calls[stage] += 1

    def __enter__(self):
        for module, name, stage in HOOKS:
            fn = getattr(module, name, None)
            if callable(fn):
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(stage, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)
        return False

    def _wrap(self, stage, fn):
        after = getattr(self, "_after_" + stage, None)

        def timed(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            self.add(stage, perf() - t0)
            return out if after is None else after(args, out)

        return timed

    def _after_stream(self, args, gen):
        return _TimedGenerator(gen, self)

    def _after_fgn(self, args, fgn):
        z = args[1]
        rows, m = z.shape
        self.fft_len = m
        # Normals in, complex half-spectrum, irfft result out.
        self._fgn_bytes = z.nbytes + rows * (m // 2 + 1) * 16 + fgn.nbytes
        return fgn

    def _after_cumsum(self, args, values):
        self.batch_rows = max(self.batch_rows, values.shape[0])
        # Path values plus the penalized field of the same shape.
        batch = self._fgn_bytes + 2 * values.nbytes
        self.workspace_bytes = max(self.workspace_bytes, batch)
        self._fgn_bytes = 0
        return values

    def layer_metrics(self, traced_seconds: float, reps: int, calls: int) -> dict:
        """Per-layer figures for ``calls`` traced calls of ``reps`` in total.

        Stage times are µs per replication and sum to the traced wall time:
        ``field_max`` is the batch self time outside the other hooks, and
        ``post`` is what the gap study does after simulating.
        """
        sec = self.seconds
        inner = sec["stream"] + sec["normals"] + sec["fgn"] + sec["cumsum"]
        if self.calls["simulate"]:
            simulate = sec["simulate"]
            post_ms = (traced_seconds - simulate - sec["aggregate"]) / calls * 1e3
        else:
            simulate = traced_seconds - sec["aggregate"]
            post_ms = 0.0
        us = 1e6 / reps
        aggregate_ms = 0.0
        if self.calls["aggregate"]:
            aggregate_ms = sec["aggregate"] / self.calls["aggregate"] * 1e3
        return {
            "estimator.stream_us": sec["stream"] * us,
            "estimator.normals_us": sec["normals"] * us,
            "fbm.fgn_us": sec["fgn"] * us,
            "fbm.cumsum_us": sec["cumsum"] * us,
            "estimator.field_max_us": (simulate - inner) * us,
            "estimator.aggregate_ms": aggregate_ms,
            "rate_study.post_ms": post_ms,
            "fbm.fft_len": self.fft_len,
            "estimator.normals_per_rep": self.normals / reps,
            "estimator.batch_rows": self.batch_rows,
            "estimator.batches": self.calls["cumsum"] / calls,
            "fbm.workspace_mib": self.workspace_bytes / 2**20,
        }

    def unexercised(self) -> list[str]:
        """Hooks that were installed but never called."""
        return [
            f"{m.__name__}.{name}"
            for m, name, stage in HOOKS
            if f"{m.__name__}.{name}" not in self.absent and not self.calls[stage]
        ]
