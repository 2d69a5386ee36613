"""Spans and counters recorded around the package's module-level entry points.

Nothing under ``src/`` is edited: each hook replaces a module attribute (or a
``solver._STEPPERS`` entry) with a wrapper that records a span or a count and
calls the original.  A hook whose target is missing, for example after a
rename, is recorded in ``Tracer.absent``; the run goes ahead and the metrics
that depend on it are reported as ``None``.

Spans live in memory and are reduced to per-layer metrics when the workload
ends.  A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or None]
        self.counts = Counter()
        self.absent = []
        self._stack = []

    def wrap(self, name, fn):
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.monotonic(), None,
                               self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.monotonic()

        return traced

    def count(self, name, fn):
        """``fn`` wrapped so that each call adds 1 to the count ``name``."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def self_times(self, name):
        child = [0.0] * len(self.spans)
        for name_, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)
                if s[0] == name and s[2] is not None]


def patch(tracer, owner, attr, make, label):
    """Replace ``owner.attr`` by ``make(original)``; record ``label`` as absent
    when the attribute does not exist."""
    if not hasattr(owner, attr):
        tracer.absent.append(label)
        return
    setattr(owner, attr, make(getattr(owner, attr)))


def patch_steppers(tracer, solver, make):
    """Wrap every scheme's step function where ``run`` looks it up."""
    steppers = getattr(solver, "_STEPPERS", None)
    if not isinstance(steppers, dict):
        tracer.absent.append("solver._STEPPERS")
        return
    for scheme in list(steppers):
        steppers[scheme] = make(steppers[scheme])


class _CountingFFT:
    """Stand-in for the solver's ``scipy.fft`` handle that counts 2D
    transforms, batch dimensions summed (a (12, n, m) input counts 12)."""

    _TWO_D = ("fft2", "ifft2", "rfft2", "irfft2")

    def __init__(self, fft, counts):
        self._fft = fft
        self._counts = counts

    def __getattr__(self, attr):
        fn = getattr(self._fft, attr)
        if attr not in self._TWO_D:
            return fn

        def counted(x, *args, **kwargs):
            self._counts["solver.fft2d"] += int(np.prod(np.shape(x)[:-2], dtype=np.int64))
            return fn(x, *args, **kwargs)

        return counted


def install(tracer, mw):
    """Install every hook of the traced run on the modules of ``mw``."""
    solver, decay, diagnostics = mw.solver, mw.decay, mw.diagnostics

    patch_steppers(tracer, solver, lambda f: tracer.wrap("solver.step", f))
    patch(tracer, solver, "_nonlinear_terms",
          lambda f: tracer.wrap("solver.nonlinear", f), "solver._nonlinear_terms")
    patch(tracer, solver, "_StepperCache",
          lambda f: tracer.wrap("kernels.tables", f), "solver._StepperCache")
    patch(tracer, solver, "_fft", lambda f: _CountingFFT(f, tracer.counts), "solver._fft")
    # ``run`` is reached as decay.run by the decay workloads and as solver.run
    # by linear_energy; both names point at the same function
    for owner, label in ((decay, "decay.run"), (solver, "solver.run")):
        patch(tracer, owner, "run", lambda f: tracer.wrap("solver.run", f), label)

    def traced_observer(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap("diagnostics.observe", factory(*args, **kwargs))

        return make

    for owner, label in ((decay, "decay.norm_observer"),
                         (diagnostics, "diagnostics.norm_observer")):
        patch(tracer, owner, "norm_observer", traced_observer, label)
    patch(tracer, diagnostics, "energy_functionals",
          lambda f: tracer.wrap("diagnostics.energy", f), "diagnostics.energy_functionals")
    patch(tracer, diagnostics, "transform_inverse",
          lambda f: tracer.count("diagnostics.transform_inverse", f),
          "diagnostics.transform_inverse")

    for owner, label in ((decay, "decay.make_initial_data"),
                         (mw.initial, "initial.make_initial_data")):
        patch(tracer, owner, "make_initial_data",
              lambda f: tracer.wrap("initial.make", f), label)

    def traced_save(save):
        save = tracer.wrap("checkpoint.write", save)

        @functools.wraps(save)
        def write(path, *args, **kwargs):
            save(path, *args, **kwargs)
            tracer.counts["checkpoint.bytes"] += os.path.getsize(path)

        return write

    patch(tracer, mw.checkpoint, "save_checkpoint", traced_save, "checkpoint.save_checkpoint")
    patch(tracer, mw.checkpoint, "load_checkpoint",
          lambda f: tracer.wrap("checkpoint.read", f), "checkpoint.load_checkpoint")
    patch(tracer, decay, "fit_power_law",
          lambda f: tracer.wrap("decay.fit", f), "decay.fit_power_law")


# metric -> the hooks it is derived from; the metric is None if one is absent
_NEEDS = {
    "solver.steps": ("solver._STEPPERS",),
    "solver.step_ms_p50": ("solver._STEPPERS",),
    "solver.step_ms_p95": ("solver._STEPPERS",),
    "solver.step_self_ms_p50": ("solver._STEPPERS", "solver._nonlinear_terms"),
    "solver.nonlinear_ms_p50": ("solver._nonlinear_terms",),
    "solver.nonlinear_calls": ("solver._nonlinear_terms",),
    "solver.fft2d_per_step": ("solver._fft", "solver._STEPPERS"),
    "diagnostics.observe_ms_p50": ("decay.norm_observer", "diagnostics.norm_observer"),
    "diagnostics.observe_calls": ("decay.norm_observer", "diagnostics.norm_observer"),
    "diagnostics.energy_ms_p50": ("diagnostics.energy_functionals",),
    "diagnostics.inverse_transforms_per_observe": (
        "diagnostics.transform_inverse", "decay.norm_observer", "diagnostics.norm_observer"),
    "kernels.tables_s": ("solver._StepperCache",),
    "kernels.tables_builds": ("solver._StepperCache",),
    "initial.make_s": ("decay.make_initial_data", "initial.make_initial_data"),
    "checkpoint.write_ms_p50": ("checkpoint.save_checkpoint",),
    "checkpoint.writes": ("checkpoint.save_checkpoint",),
    "checkpoint.bytes_per_write": ("checkpoint.save_checkpoint",),
    "checkpoint.read_ms_p50": ("checkpoint.load_checkpoint",),
    "decay.fit_ms_total": ("decay.fit_power_law",),
    "decay.fits": ("decay.fit_power_law",),
    "trace.accounted_frac": ("decay.run", "solver.run"),
}


def _p(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced workload run.  Timings of a layer that
    ran zero times read 0; metrics of an absent hook read None."""
    d, c = tracer.durations, tracer.counts
    steps, observes = d("solver.step"), d("diagnostics.observe")
    writes = d("checkpoint.write")
    runs = d("solver.run")
    m = {
        "solver.steps": len(steps),
        "solver.step_ms_p50": 1e3 * _p(steps, 50),
        "solver.step_ms_p95": 1e3 * _p(steps, 95),
        "solver.step_self_ms_p50": 1e3 * _p(tracer.self_times("solver.step"), 50),
        "solver.nonlinear_ms_p50": 1e3 * _p(d("solver.nonlinear"), 50),
        "solver.nonlinear_calls": len(d("solver.nonlinear")),
        "solver.fft2d_per_step": _ratio(c["solver.fft2d"], len(steps)),
        "diagnostics.observe_ms_p50": 1e3 * _p(observes, 50),
        "diagnostics.observe_calls": len(observes),
        "diagnostics.energy_ms_p50": 1e3 * _p(d("diagnostics.energy"), 50),
        "diagnostics.inverse_transforms_per_observe":
            _ratio(c["diagnostics.transform_inverse"], len(observes)),
        "kernels.tables_s": sum(d("kernels.tables")),
        "kernels.tables_builds": len(d("kernels.tables")),
        "initial.make_s": sum(d("initial.make")),
        "checkpoint.write_ms_p50": 1e3 * _p(writes, 50),
        "checkpoint.writes": len(writes),
        "checkpoint.bytes_per_write": _ratio(c["checkpoint.bytes"], len(writes)),
        "checkpoint.read_ms_p50": 1e3 * _p(d("checkpoint.read"), 50),
        "decay.fit_ms_total": 1e3 * sum(d("decay.fit")),
        "decay.fits": len(d("decay.fit")),
        # share of the time inside run() that the layer spans under it cover
        "trace.accounted_frac": 1.0 - _ratio(sum(tracer.self_times("solver.run")), sum(runs)),
    }
    for name, hooks in _NEEDS.items():
        if any(h in tracer.absent for h in hooks):
            m[name] = None
    return m
