"""The three benchmark workloads, each named after the paper claim it checks.

Every workload is one closed-loop caller in a single process: it builds its
inputs from the benchmark seed, runs the package to an answer, and returns
the correctness checks on that answer.  An exception does not escape
``run``: it turns every check of the workload into a failed one, so the
benchmark still reports its metrics.

The package is imported lazily, inside ``run``, so that the caller controls
which ``mhdwave`` is imported and when (import time is part of ``setup_s``).
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n: int         # grid points per axis at full size
    dt: float
    checks: tuple  # names of the correctness checks, in report order
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decay_fit", 256, 0.1,
            ("u_L2_exponent", "b_L2_exponent", "u_H1_exponent", "b_H1.5_exponent"),
            "decay exponents at desk scale (C07/C08): nonlinear stepping plus the "
            "norm observer, working set larger than L2",
        ),
        Workload(
            "singular_limit", 128, 0.02,
            ("errors_decrease", "ratio_1", "ratio_2"),
            "gamma -> 0 limit (C10): pure stepping, four table builds, the "
            "mhd_baseline scheme, working set inside L2",
        ),
        Workload(
            "linear_energy", 256, 2e-3,
            ("energy_residual", "resume_matches"),
            "exact linear energy balance (C05) with checkpoint write/read (C12): "
            "never enters the nonlinear terms, observer every step",
        ),
    )
}


def _decay_fit(mw, seed: int, n: int, workdir: str) -> dict:
    cfg = mw.decay.DecayExperimentConfig(
        grid=mw.grid.GridSpec(n, 32 * math.pi), gamma=1.0, dt=0.1, t_end=30.0,
        family="random_band", params={"amplitude": 0.05, "k_max": 0.8, "seed": seed},
        q_list=(2.0,), s_list_u=(0.0, 1.0), s_list_b=(0.0, 1.5),
        m=1.0, window=(5.0, 26.0), snapshot_every=2,
    )
    res = mw.decay.run_decay_experiment(cfg)
    out = {}
    for check, (norm_id, theory, tol) in zip(
        WORKLOADS["decay_fit"].checks,
        (("u_L2", -0.5, 0.15), ("b_L2", -0.5, 0.15), ("u_H1", -1.0, 0.20),
         ("b_H1.5", -1.25, 0.25)),
    ):
        e = res.comparison(norm_id).fit.exponent
        out[check] = (abs(e - theory) <= tol, f"{e:+.3f} vs {theory:+.2f} +- {tol}")
    return out


def _singular_limit(mw, seed: int, n: int, workdir: str) -> dict:
    cfg = mw.decay.DecayExperimentConfig(
        grid=mw.grid.GridSpec(n, 16 * math.pi), gamma=1.0, dt=0.02, t_end=5.0,
        family="random_band", params={"amplitude": 0.05, "k_max": 2.0, "seed": seed},
    )
    _, errs = mw.decay.singular_limit_experiment([0.1, 0.05, 0.025], 5.0, cfg)
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    return {
        "errors_decrease": (all(b < a for a, b in zip(errs, errs[1:])),
                            " > ".join(f"{e:.3e}" for e in errs)),
        "ratio_1": (ratios[0] <= 0.7, f"{ratios[0]:.3f} <= 0.7"),
        "ratio_2": (ratios[1] <= 0.7, f"{ratios[1]:.3f} <= 0.7"),
    }


def _linear_energy(mw, seed: int, n: int, workdir: str) -> dict:
    gamma, dt, t_end = 0.5, 2e-3, 1.0
    grid = mw.grid.GridSpec(n, 2 * math.pi)
    data = mw.initial.make_initial_data(
        "random_band",
        {"amplitude": 1.0, "k_min": 0.9, "k_max": 2.1, "seed": seed, "a0_amplitude": 0.5},
        grid,
    )
    mid_path = os.path.join(workdir, "mid.mhdw")
    latest_path = os.path.join(workdir, "latest.mhdw")
    last = {}

    def sink(state):
        # the mid-run checkpoint is kept for the resume; later ones overwrite
        mid = abs(state.t - t_end / 2) < dt / 2
        mw.checkpoint.save_checkpoint(mid_path if mid else latest_path, state, gamma)
        last["state"] = state

    cfg = mw.solver.SolverConfig(gamma=gamma, dt=dt, t_end=t_end, grid=grid, nonlinear=False)
    obs = mw.diagnostics.norm_observer((2.0,), (0.0,), (0.0,), m=1.0, gamma=gamma)
    traj = mw.solver.run(cfg, data, obs, checkpoint_every=2, checkpoint_sink=sink)
    resid = float(max(abs(r) for r in mw.diagnostics.linear_energy_residual(traj, gamma, 1.0)))

    loaded, g_loaded = mw.checkpoint.load_checkpoint(mid_path)
    half_steps = int(round(t_end / 2 / dt))
    tail_cfg = mw.solver.SolverConfig(gamma=g_loaded, dt=dt, t_end=t_end / 2, grid=grid,
                                      nonlinear=False, snapshot_every=half_steps)
    tail = mw.solver.run(tail_cfg, (loaded.u_hat, loaded.b_hat, loaded.bt_hat),
                         keep_states=True).states[-1]
    full = last["state"]
    worst = 0.0
    for a, b in ((full.u_hat, tail.u_hat), (full.b_hat, tail.b_hat),
                 (full.bt_hat, tail.bt_hat)):
        scale = max(float(abs(a.coeffs).max()), 1e-30)
        worst = max(worst, float(abs(a.coeffs - b.coeffs).max()) / scale)
    return {
        "energy_residual": (resid <= 1e-8, f"max residual {resid:.2e} <= 1e-8"),
        "resume_matches": (worst <= 1e-12, f"resume mismatch {worst:.2e} <= 1e-12"),
    }


_RUNNERS = {
    "decay_fit": _decay_fit,
    "singular_limit": _singular_limit,
    "linear_energy": _linear_energy,
}


class _Modules:
    """The package modules the workloads call, looked up through their module
    objects so that wrappers installed on module attributes take effect."""

    def __init__(self):
        import mhdwave.checkpoint
        import mhdwave.decay
        import mhdwave.diagnostics
        import mhdwave.grid
        import mhdwave.initial
        import mhdwave.solver

        self.checkpoint = mhdwave.checkpoint
        self.decay = mhdwave.decay
        self.diagnostics = mhdwave.diagnostics
        self.grid = mhdwave.grid
        self.initial = mhdwave.initial
        self.solver = mhdwave.solver


def run(name: str, seed: int, n: int, workdir: str) -> list:
    """Run one workload; returns ``[(check, passed, detail), ...]``.

    Any exception (``BlowUpError``, ``StepSizeError``, a bug) fails every
    check of the workload instead of propagating.
    """
    checks = WORKLOADS[name].checks
    try:
        results = _RUNNERS[name](_Modules(), seed, n, workdir)
    except Exception as exc:  # counted as failed checks, never fatal
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return [(c, False, f"exception: {detail}") for c in checks]
    return [(c, bool(results[c][0]), results[c][1]) for c in checks]
