"""Time integration of the damped wave-type MHD system.

The system advanced per Fourier mode is

    d_t u = -k2 u + P(b.grad b - u.grad u)
    gamma d_tt b + d_t b + k2 b = b.grad u - u.grad b

with unit viscosity and resistivity.  Three schemes:

``exp_integrator``
    Exponential Euler on the Duhamel forms: the heat multiplier for u and
    the exact 2x2 damped-wave propagator for (b, d_t b), with the
    nonlinear forcing frozen over the step and weighted by the exact
    integral of the propagator.  The linear flow is reproduced to
    round-off at any step size.
``imex_reference``
    One-step implicit-midpoint / explicit-midpoint IMEX (trapezoidal in
    the linear part), formally second order.
``mhd_baseline``
    The gamma = 0 system: both equations parabolic, advanced by heat
    multipliers with exponential-Euler forcing weights.  The d_t b slot is
    ignored.

Nonlinear terms are pseudo-spectral (inverse transform, pointwise
products, forward transform) with 2/3-rule dealiasing, so the retained
band sees the exact Galerkin convolution and the quadratic energy
cancellations hold to round-off.  The k = 0 mode is re-zeroed every step;
nonlinear terms are divergence-form and mean-free analytically, so this
only removes round-off drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as _fft

from .errors import BlowUpError, ConfigurationError, StepSizeError
from .grid import GridSpec, SpectralVectorField, dealias
from .kernels import heat_weight, propagator_tables

__all__ = [
    "SCHEMES",
    "State",
    "SolverConfig",
    "Trajectory",
    "compute_nonlinear",
    "step_exp",
    "step_imex",
    "step_mhd_baseline",
    "run",
]

SCHEMES = ("exp_integrator", "imex_reference", "mhd_baseline")


@dataclass
class State:
    """The advanced triple (u_hat, b_hat, d_t b_hat) at time t."""

    u_hat: SpectralVectorField
    b_hat: SpectralVectorField
    bt_hat: SpectralVectorField
    t: float = 0.0

    @property
    def grid(self) -> GridSpec:
        return self.u_hat.grid

    def copy(self) -> "State":
        return State(self.u_hat.copy(), self.b_hat.copy(), self.bt_hat.copy(), self.t)


@dataclass
class SolverConfig:
    """Integration parameters.

    ``dt`` must respect ``cfl_safety * (L/n) / max(1, max|u| + max|b|)``
    (pointwise magnitudes ``|u| = sqrt(u1^2 + u2^2)``),
    re-checked every step while the nonlinear terms are active (the exact
    linear propagators carry no step-size restriction, so purely linear
    runs skip the check).  ``nonlinear=False`` switches the quadratic
    terms off for linear verification runs.
    """

    gamma: float
    dt: float
    t_end: float
    grid: GridSpec
    scheme: str = "exp_integrator"
    cfl_safety: float = 0.8
    nonlinear: bool = True
    snapshot_every: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}", path="scheme")
        if not math.isfinite(self.gamma):
            raise ConfigurationError("gamma must be finite", path="physics.gamma")
        if self.scheme != "mhd_baseline" and not self.gamma > 0:
            raise ConfigurationError("gamma must be > 0", path="physics.gamma")
        if not 0 <= self.dt < math.inf:
            raise ConfigurationError("dt must be finite and >= 0", path="time.dt")
        if not 0 <= self.t_end < math.inf:
            raise ConfigurationError("t_end must be finite and >= 0", path="time.t_end")
        if not 0 < self.cfl_safety <= 1:
            raise ConfigurationError("cfl_safety must lie in (0, 1]", path="solver.cfl_safety")
        if self.snapshot_every < 1:
            raise ConfigurationError("snapshot_every must be >= 1", path="time.snapshot_every")


@dataclass
class Trajectory:
    """Snapshot rows (t, diagnostics dict) plus optional field checkpoints."""

    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    states: list = field(default_factory=list)
    nonlinear: bool = True

    def append(self, t: float, snap) -> None:
        if self.times and t <= self.times[-1]:
            raise ConfigurationError("trajectory timestamps must be strictly increasing")
        self.times.append(t)
        self.snapshots.append(snap)

    def series(self, key: str) -> np.ndarray:
        return np.array([s[key] for s in self.snapshots])


def _check_cfl(vmax: float, config: SolverConfig, t: float) -> None:
    limit = config.cfl_safety * (config.grid.box_length / config.grid.n) / max(1.0, vmax)
    if config.dt > limit:
        raise StepSizeError(
            f"dt={config.dt} exceeds CFL limit {limit:.3e} at t={t:.6g} (max|u|+max|b|={vmax:.3e})",
            t=t,
        )


def _nonlinear_terms(state: State):
    """Internal: (N_u, N_b, max|u| + max|b|) in divergence/curl form.

    For divergence-free, 2/3-dealiased fields u.grad u - b.grad b =
    div(u (x) u - b (x) b) on the retained band, and in 2D
    b.grad u - u.grad b = (d_y E, -d_x E) with E = u1 b2 - u2 b1.  So only
    u and b are transformed: 4 inverse and 4 forward transforms, all in the
    state's half-spectrum layout.
    """
    g = state.grid
    n = g.n
    spec = np.concatenate((state.u_hat.coeffs, state.b_hat.coeffs))
    # physical values carry an n^-2 scale here; it cancels against the
    # quadratic product and the forward normalization as a single n^2 below
    u1, u2, b1, b2 = _fft.irfft2(spec, s=(n, n), axes=(-2, -1))
    vmax = float(np.sqrt(np.max(u1 * u1 + u2 * u2)) + np.sqrt(np.max(b1 * b1 + b2 * b2))) * n**2

    # the stress T = u (x) u - b (x) b (entries 11, 12, 22) and E
    prod = np.stack([u1 * u1 - b1 * b1, u1 * u2 - b1 * b2, u2 * u2 - b2 * b2, u1 * b2 - u2 * b1])
    if not np.all(np.isfinite(prod)):
        raise BlowUpError("non-finite nonlinear products", t=state.t)

    hat = _fft.rfft2(prod, axes=(-2, -1))
    hat *= g.dealias_mask
    hat *= n**2
    # N_u = -P(ik.T) and N_b = (ik_y E, -ik_x E); both vanish at k = 0
    kx, ky = g.kx, g.ky
    div1 = kx * hat[0] + ky * hat[1]
    div2 = kx * hat[1] + ky * hat[2]
    frac = (kx * div1 + ky * div2) * g.inv_k2
    out = -1j * np.stack([div1 - kx * frac, div2 - ky * frac, -ky * hat[3], kx * hat[3]])

    return SpectralVectorField(out[0:2], g), SpectralVectorField(out[2:4], g), vmax


def compute_nonlinear(state: State):
    """N_u = P(b.grad b - u.grad u), N_b = b.grad u - u.grad b, dealiased.

    Both outputs are mean-free; N_u is divergence-free.  Raises
    ``BlowUpError`` if the products are not finite.
    """
    n_u, n_b, _ = _nonlinear_terms(state)
    return n_u, n_b


class _StepperCache:
    """Per-(gamma, dt, grid) tables shared across steps."""

    def __init__(self, config: SolverConfig):
        g = config.grid
        self.heat_mult = np.exp(-g.k2 * config.dt)
        self.heat_w = heat_weight(g.k2, config.dt)
        if config.scheme == "exp_integrator":
            tab = propagator_tables(config.gamma, g.k2, config.dt)
            self.m00, self.m01 = tab["m00"], tab["m01"]
            self.m10, self.m11 = tab["m10"], tab["m11"]
            self.w, self.k1 = tab["w"], tab["k1"]
        elif config.scheme == "imex_reference":
            gam, dt = config.gamma, config.dt
            # (I - dt/2 A)^{-1} for A = [[0, 1], [-k2/gamma, -1/gamma]]
            det = 1.0 + dt / (2.0 * gam) + dt**2 * g.k2 / (4.0 * gam)
            self.i00 = (1.0 + dt / (2.0 * gam)) / det
            self.i01 = (dt / 2.0) / det
            self.i10 = -(dt * g.k2 / (2.0 * gam)) / det
            self.i11 = 1.0 / det
            self.u_imp = 1.0 / (1.0 + dt / 2.0 * g.k2)


def _forcing(state: State, config: SolverConfig):
    """Nonlinear terms plus the per-step CFL re-check; None in linear mode
    (the exact propagators carry no advective step restriction)."""
    if not config.nonlinear:
        return None
    n_u, n_b, vmax = _nonlinear_terms(state)
    _check_cfl(vmax, config, state.t)
    return n_u, n_b


def _finalize(coeffs_u, coeffs_b, coeffs_bt, state: State, t: float) -> State:
    for c in (coeffs_u, coeffs_b, coeffs_bt):
        c[:, 0, 0] = 0.0
    # a NaN/inf anywhere poisons the sums
    probe = coeffs_u.sum() + coeffs_b.sum()
    if not (np.isfinite(probe.real) and np.isfinite(probe.imag)):
        raise BlowUpError("non-finite state", t=t)
    g = state.grid
    return State(SpectralVectorField(coeffs_u, g), SpectralVectorField(coeffs_b, g),
                 SpectralVectorField(coeffs_bt, g), t)


def step_exp(state: State, config: SolverConfig, cache: _StepperCache | None = None) -> State:
    """One exponential-Euler step: exact linear part, frozen forcing."""
    if cache is None:
        cache = _StepperCache(config)
    forcing = _forcing(state, config)
    u = cache.heat_mult * state.u_hat.coeffs
    b = cache.m00 * state.b_hat.coeffs + cache.m01 * state.bt_hat.coeffs
    bt = cache.m10 * state.b_hat.coeffs + cache.m11 * state.bt_hat.coeffs
    if forcing is not None:
        n_u, n_b = forcing
        u += cache.heat_w * n_u.coeffs
        b += cache.w * n_b.coeffs
        bt += cache.k1 * n_b.coeffs
    return _finalize(u, b, bt, state, state.t + config.dt)


def step_imex(state: State, config: SolverConfig, cache: _StepperCache | None = None) -> State:
    """One implicit-midpoint / explicit-midpoint IMEX step (order 2).

    Y* = (I - dt/2 L)^{-1} (Y + dt/2 N(Y));  Y+ = Y + dt (L Y* + N(Y*)).
    """
    if cache is None:
        cache = _StepperCache(config)
    g = state.grid
    dt = config.dt
    forcing = _forcing(state, config)

    ru = state.u_hat.coeffs
    rb = state.b_hat.coeffs
    rbt = state.bt_hat.coeffs
    if forcing is not None:
        n_u, n_b = forcing
        ru = ru + 0.5 * dt * n_u.coeffs
        rbt = rbt + 0.5 * dt * n_b.coeffs / config.gamma
    u_star = cache.u_imp * ru
    b_star = cache.i00 * rb + cache.i01 * rbt
    bt_star = cache.i10 * rb + cache.i11 * rbt

    if forcing is not None:
        mid = _finalize(u_star, b_star, bt_star, state, state.t + 0.5 * dt)
        forcing = _forcing(mid, config)
    du = -g.k2 * u_star
    dbt = -g.k2 * b_star - bt_star
    if forcing is not None:
        n_u2, n_b2 = forcing
        du += n_u2.coeffs
        dbt += n_b2.coeffs

    u = state.u_hat.coeffs + dt * du
    b = state.b_hat.coeffs + dt * bt_star
    bt = state.bt_hat.coeffs + dt * (dbt / config.gamma)
    return _finalize(u, b, bt, state, state.t + dt)


def step_mhd_baseline(state: State, config: SolverConfig,
                      cache: _StepperCache | None = None) -> State:
    """One step of the gamma = 0 MHD system; bt_hat is ignored (kept zero)."""
    if cache is None:
        cache = _StepperCache(config)
    forcing = _forcing(state, config)
    u = cache.heat_mult * state.u_hat.coeffs
    b = cache.heat_mult * state.b_hat.coeffs
    if forcing is not None:
        n_u, n_b = forcing
        u += cache.heat_w * n_u.coeffs
        b += cache.heat_w * n_b.coeffs
    bt = np.zeros_like(state.bt_hat.coeffs)
    return _finalize(u, b, bt, state, state.t + config.dt)


_STEPPERS = {
    "exp_integrator": step_exp,
    "imex_reference": step_imex,
    "mhd_baseline": step_mhd_baseline,
}


def run(config: SolverConfig, initial, observer=None, keep_states: bool = False,
        checkpoint_every: int | None = None, checkpoint_sink=None) -> Trajectory:
    """Integrate from ``initial = (u0, b0, a0)`` to ``t_end``.

    ``observer(state) -> dict`` is evaluated at t = 0 and then every
    ``snapshot_every`` steps; rows are collected into the returned
    ``Trajectory``.  Deterministic: identical config and initial data give
    bitwise-identical snapshots.  Step errors propagate with the failure
    time attached.
    """
    u0, b0, a0 = initial
    state = State(dealias(u0), dealias(b0), dealias(a0), 0.0)
    stepper = _STEPPERS[config.scheme]
    ratio = config.t_end / config.dt if config.t_end > 0 and config.dt > 0 else 0.0
    n_steps = int(round(ratio))
    if config.t_end > 0 and n_steps < 1:
        raise ConfigurationError(
            f"dt={config.dt} must be > 0 and at most t_end={config.t_end}", path="time.dt")
    if abs(ratio - n_steps) > 1e-9 * max(1.0, ratio):
        raise ConfigurationError(
            f"t_end={config.t_end} is not a whole number of steps at dt={config.dt}",
            path="time",
        )
    cache = _StepperCache(config)

    traj = Trajectory(nonlinear=config.nonlinear)
    traj.append(0.0, observer(state) if observer else {})
    if keep_states:
        traj.states.append(state.copy())
    for i in range(1, n_steps + 1):
        state = stepper(state, config, cache)
        # exact multiples of dt suppress timestamp round-off drift
        state.t = i * config.dt
        if i % config.snapshot_every == 0 or i == n_steps:
            traj.append(state.t, observer(state) if observer else {})
            if keep_states:
                traj.states.append(state.copy())
        if checkpoint_every and checkpoint_sink and i % checkpoint_every == 0:
            checkpoint_sink(state)
    return traj
