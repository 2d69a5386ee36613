"""Time integration of the damped wave-type MHD system.

The system advanced per Fourier mode is

    d_t u = -k2 u + P(b.grad b - u.grad u)
    gamma d_tt b + d_t b + k2 b = b.grad u - u.grad b

with unit viscosity and resistivity.  Both fields are divergence-free and
mean-free, so in 2D each is grad^perp = (-d_y, d_x) of a scalar: the
stream function psi (u = grad^perp psi) and the magnetic potential A
(b = grad^perp A).  The solver advances the half spectra of (psi, A, d_t A)
(the psi-A form of 2D MHD); the linear symbols depend on |k|^2 only, so
psi obeys the heat equation and (A, d_t A) the damped wave equation, with
the scalar forcings

    F_psi = (kx ky D_hat + (ky^2 - kx^2) T12_hat) / |k|^2,   F_A = -E_hat,

where T = u (x) u - b (x) b, D = T11 - T22 and E = u1 b2 - u2 b1.  The one
stepper is exponential Euler on the Duhamel forms: the heat multiplier for
psi and the exact 2x2 damped-wave propagator for (A, d_t A), with the
nonlinear forcing frozen over the step and weighted by the exact integral
of the propagator.  The linear flow is reproduced to round-off at any step
size; the nonlinear coupling is first order in dt.  At gamma = 0 the system
is the MHD system, both equations parabolic: the same step then takes the
heat multiplier and weight in the A row and zero tables for the d_t A
coupling, so d_t A stays zero.

Nonlinear terms are pseudo-spectral (4 inverse transforms of u and b, the
pointwise products D, T12 and E, 3 forward transforms) with 2/3-rule
dealiasing, so the retained band sees the exact Galerkin convolution and
the quadratic energy cancellations hold to round-off.  The 2/3 rule acts
on the input too: u and b are built from the retained modes of psi and A
only, so the forcings of a finite state and of its dealiased copy are
equal.  The k = 0 mode of each potential carries no field and is zeroed
every step.

Both transforms are numpy's axis-wise pairs and run over the retained
band only.  The columns of the half spectrum past the 2/3 cutoff (a third
of them) are zero on the way in, so the inverse column transform (``ifft``
along x) covers the retained columns alone, in place, and ``irfft`` along
y finishes it.  Both run unnormalized and one multiply by 1/n^2 follows,
which is the order in which ``irfft2`` scales: the result is bitwise that
of ``scipy.fft.irfft2`` at every n, also where 1/n is inexact.  On the way
out the forcing tables are zero past the cutoff, so the forward transform
is ``rfft`` along y and then ``fft`` along x on the retained columns only,
in place.  On those columns it is bitwise ``scipy.fft.rfft2``, and on
the (3, n, n) products it takes 15-20% less time than ``rfft2`` (0.24
against 0.28 ms at n = 128, 4.0 against 5.0 ms at n = 512, on 2 vCPUs).

Only the transforms along x need whole columns.  Everything between them
(``irfft`` along y, the 1/n^2, the products, the squares for the CFL
speed and ``rfft`` along y) runs over blocks of R = 2^14 // n rows
(clipped to [1, n]; one block for n <= 128), so its scratch is 0.9 MB,
inside the L2 cache, instead of 7 real (n, n) arrays.  Every 1D transform
of a row is the same with any batch around it, and the maxima are exact,
so the forcings and the CFL speed are bitwise those of one block.

The nonlinear terms allocate no array of the grid's size.  The spectrum
of (u, b) and one block's inverse and products live in scratch arrays
that ``run`` builds once, with its step tables, when the nonlinear terms
are on: the forward transform writes into the first three slots of the
spectrum, and the forcings are views of them.  The products are formed
in place with ``out=``, in the same operation order as fresh temporaries
would be, and the stepper scales the forcings in place, so results are
bitwise unchanged.  The scratch arrays belong to one run, not to one
grid: a sweep and the gamma -> 0 comparison run their members on the
same grid at the same time, and a per-grid buffer would let them
overwrite each other's products.

``run`` steps a state from its own time t to ``t_end``, so a resumed run
keeps the time axis, also in step errors.  It also takes the vector triple
(u0, b0, d_t b0) at t = 0 and maps it to the potentials with
psi = (i ky u1 - i kx u2) / |k|^2 (``_potential``), the Leray projection
followed by the removal of the mean; on divergence-free, mean-free data
it is exact up to round-off.
"""

from __future__ import annotations

import collections
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
# the name ``_fft`` is where the benchmark's transform counter hooks in
import numpy.fft as _fft
# perfbench's environment record reads sys.modules["scipy"]; a bare import
# costs ~14 ms and loads none of scipy.fft
import scipy  # noqa: F401

from .errors import BlowUpError, ConfigurationError, StepSizeError
from .grid import GridSpec
from .kernels import _gamma_refusal, heat_weight, propagator_tables

__all__ = [
    "State",
    "SolverConfig",
    "Trajectory",
    "step_exp",
    "run",
]

_CFL_SAFETY = 0.8


@dataclass
class State:
    """The advanced potentials (psi_hat, a_hat, at_hat) of (u, b, d_t b) at
    time t, each a (n, n//2 + 1) half spectrum."""

    psi_hat: np.ndarray
    a_hat: np.ndarray
    at_hat: np.ndarray
    grid: GridSpec
    t: float = 0.0

    def __post_init__(self):
        shape = (self.grid.n, self.grid.half)
        if any(np.shape(c) != shape for c in (self.psi_hat, self.a_hat, self.at_hat)):
            raise ConfigurationError(f"state potentials must have the half shape {shape}")

    # The views u_hat, b_hat and bt_hat (the fields grad^perp of the
    # potentials), run's vector triple, keep_states and Trajectory.states
    # stay only for the benchmark's linear_energy resume check, which only
    # a benchmark change may move.
    @property
    def u_hat(self) -> "_Vector":
        return _grad_perp(self.psi_hat, self.grid)

    @property
    def b_hat(self) -> "_Vector":
        return _grad_perp(self.a_hat, self.grid)

    @property
    def bt_hat(self) -> "_Vector":
        return _grad_perp(self.at_hat, self.grid)


# a vector field's (2, n, n//2 + 1) half spectrum and its grid
_Vector = collections.namedtuple("_Vector", "coeffs grid")


def _potential(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """psi with grad^perp psi the divergence-free, mean-free part of the
    vector field with the half spectrum ``coeffs``."""
    return (grid.ky * coeffs[0] - grid.kx * coeffs[1]) * (1j * grid.inv_k2)


def _grad_perp(c: np.ndarray, grid: GridSpec) -> _Vector:
    coeffs = grid.grad_perp * c
    coeffs.flags.writeable = False
    return _Vector(coeffs, grid)


@dataclass
class SolverConfig:
    """Integration parameters.

    ``dt`` must respect ``0.8 (L/n) / max(1, max|u| + max|b|)``
    (pointwise magnitudes ``|u| = sqrt(u1^2 + u2^2)``),
    re-checked every step while the nonlinear terms are active (the exact
    linear propagators carry no step-size restriction, so purely linear
    runs skip the check).  ``nonlinear=False`` switches the quadratic
    terms off for linear verification runs.  ``gamma = 0`` runs the MHD
    system.
    """

    gamma: float
    dt: float
    t_end: float
    grid: GridSpec
    nonlinear: bool = True
    snapshot_every: int = 1

    def __post_init__(self):
        if why := _gamma_refusal(self.gamma, mhd=True):
            raise ConfigurationError(why, path="physics.gamma")
        if not 0 <= self.dt < math.inf:
            raise ConfigurationError("dt must be finite and >= 0", path="time.dt")
        if not 0 <= self.t_end < math.inf:
            raise ConfigurationError("t_end must be finite and >= 0", path="time.t_end")
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
    limit = _CFL_SAFETY * (config.grid.box_length / config.grid.n) / max(1.0, vmax)
    if config.dt > limit:
        raise StepSizeError(
            f"dt={config.dt} exceeds CFL limit {limit:.3e} at t={t:.6g} (max|u|+max|b|={vmax:.3e})",
            t=t,
        )


@functools.lru_cache(maxsize=4)
def _forcing_tables(grid: GridSpec):
    """Real tables mapping the transforms of (D, T12, E) to the forcings of
    psi and A; each carries the 2/3 mask and the n^2 of the normalization."""
    n2_mask = grid.n**2 * grid.dealias_mask
    c_d = n2_mask * grid.kx * grid.ky * grid.inv_k2
    c_12 = n2_mask * (grid.ky**2 - grid.kx**2) * grid.inv_k2
    c_e = -n2_mask
    c_e[0, 0] = 0.0
    for table in (c_d, c_12, c_e):
        table.flags.writeable = False
    return c_d, c_12, c_e


@functools.lru_cache(maxsize=4)
def _velocity_table(grid: GridSpec) -> np.ndarray:
    """The symbol of grad^perp times the 2/3 mask, on the columns up to the
    last that holds a retained mode; read-only, shape (2, n, keep)."""
    keep = int(np.flatnonzero(grid.dealias_mask.any(axis=0))[-1]) + 1
    table = (grid.grad_perp * grid.dealias_mask)[..., :keep].copy()
    table.flags.writeable = False
    return table


# points per row block of the nonlinear terms' physical-space work: seven
# real rows of a block, 0.9 MB, stay within the L2 cache
_BLOCK_POINTS = 2**14


class _Workspace:
    """Scratch arrays of the nonlinear terms on one grid: the (4, n, n/2+1)
    spectrum of (u, b), and the (4, R, n) inverse and (3, R, n) products
    (D, T12, E) of one block of R rows, R = ``_BLOCK_POINTS // n`` clipped
    to [1, n] (one block for n <= 128).  Every block overwrites the
    inverse and the products completely.  The first three slots of the
    spectrum also take the forward transform of the products, which the
    forcings are views of, so each call zeroes their columns past the 2/3
    cutoff before the inverse; the fourth slot's columns there are never
    written and stay zero for the whole run."""

    def __init__(self, grid: GridSpec):
        self.rows = max(1, min(grid.n, _BLOCK_POINTS // grid.n))
        self.spec = np.zeros((4, grid.n, grid.half), dtype=np.complex128)
        self.phys = np.empty((4, self.rows, grid.n))
        self.prod = np.empty((3, self.rows, grid.n))
        # per block: its rows of the spectrum, of the forward transform's
        # slots, and the inverse and products; views made once per run
        self.blocks = []
        for start in range(0, grid.n, self.rows):
            rows = slice(start, min(start + self.rows, grid.n))
            height = rows.stop - start
            self.blocks.append((self.spec[:, rows], self.spec[:3, rows],
                                self.phys[:, :height], self.prod[:, :height]))


def _row_blocks(work: _Workspace, keep: int):
    """The round trip of ``work.spec`` through physical space over the
    retained band, one block of ``work.rows`` rows at a time; the columns
    of the spectrum from ``keep`` on must be zero.

    Only the transforms along x need whole columns.  ``ifft`` along x runs
    first, in place on the first ``keep`` columns.  Then each block of
    rows takes ``irfft`` along y and the 1/n^2 scale into ``work.phys``
    (both passes unnormalized and the scale last, as in ``irfft2``, so the
    rows are bitwise ``scipy.fft.irfft2`` of the spectrum), and is yielded
    as the views (phys, prod).  When the caller has filled prod, ``rfft``
    along y writes it into the same rows of the first three slots, whose
    inverse rows are spent by then.  After the last block, ``fft``
    along x on the first ``keep`` columns, in place, completes the forward
    transform, bitwise ``scipy.fft.rfft2`` of the products on those
    columns; the columns from ``keep`` on are transformed along y alone.
    ``out=`` on numpy's FFT functions needs numpy >= 2.0.
    """
    spec = work.spec
    n = spec.shape[-2]
    band = spec[..., :keep]
    _fft.ifft(band, axis=-2, norm="forward", out=band)
    for spec_rows, out_rows, phys, prod in work.blocks:
        _fft.irfft(spec_rows, n=n, axis=-1, norm="forward", out=phys)
        np.multiply(phys, 1.0 / n**2, out=phys)
        yield phys, prod
        _fft.rfft(prod, axis=-1, out=out_rows)
    band = spec[:3, :, :keep]
    _fft.fft(band, axis=-2, out=band)


def _nonlinear_terms(state: State, work: _Workspace | None = None):
    """Internal: (F_psi, F_A, max|u| + max|b|), the scalar forcings.

    u and b come from 4 inverse transforms of grad^perp (psi, A) over the
    retained band; the products D = T11 - T22, T12 and E = u1 b2 - u2 b1
    take 3 forward transforms, all in the half-spectrum layout, and are
    formed one block of rows at a time (``_row_blocks``).  The trace of T
    is a gradient, which the projection removes, so it is never formed.
    ``work`` holds the scratch arrays (fresh ones when it is None).  The
    forcings are views of ``work.spec``, which the caller may overwrite,
    and which the next call on ``work`` does.
    """
    g = state.grid
    n = g.n
    if work is None:
        work = _Workspace(g)
    spec = work.spec
    table = _velocity_table(g)
    keep = table.shape[-1]
    # the previous call's forcings reach past the cutoff, where the inverse
    # expects zeros
    spec[:3, :, keep:] = 0.0
    np.multiply(table, state.psi_hat[:, :keep], out=spec[0:2, :, :keep])
    np.multiply(table, state.a_hat[:, :keep], out=spec[2:4, :, :keep])
    # physical values carry an n^-2 scale here; it cancels against the
    # quadratic product and the forward normalization as the n^2 of the tables
    u_peak = b_peak = 0.0  # max |u|^2 and max |b|^2 so far, scaled
    for phys, prod in _row_blocks(work, keep):
        u1, u2, b1, b2 = phys
        # T12 and E need the raw values, so they come first, with prod[0] as
        # scratch; then the squares overwrite the values
        np.multiply(u1, u2, out=prod[1])
        np.multiply(b1, b2, out=prod[2])
        prod[1] -= prod[2]
        np.multiply(u1, b2, out=prod[2])
        np.multiply(u2, b1, out=prod[0])
        prod[2] -= prod[0]
        sq = np.multiply(phys, phys, out=phys)
        u_block = np.max(np.add(sq[0], sq[1], out=prod[0]))
        b_block = np.max(np.add(sq[2], sq[3], out=prod[0]))
        # a non-finite value anywhere in the block makes its maximum inf or
        # NaN.  The check comes before the block's forward transform, so
        # the running maxima, which would drop a NaN, see finite values only
        if not (math.isfinite(u_block) and math.isfinite(b_block)):
            raise BlowUpError("non-finite nonlinear products", t=state.t)
        u_peak, b_peak = max(u_peak, u_block), max(b_peak, b_block)
        sq[0] -= sq[2]
        sq[1] -= sq[3]
        np.subtract(sq[0], sq[1], out=prod[0])
    # a maximum is exact, so vmax does not depend on the blocks
    vmax = float(np.sqrt(u_peak) + np.sqrt(b_peak)) * n**2

    # the columns from keep on hold no 2D transform, but the forcing tables
    # are zero there, and the peaks have shown the products finite
    c_d, c_12, c_e = _forcing_tables(g)
    f_psi, t12_hat, f_a = spec[:3]
    np.multiply(c_d, f_psi, out=f_psi)
    f_psi += np.multiply(c_12, t12_hat, out=t12_hat)
    np.multiply(c_e, f_a, out=f_a)
    return f_psi, f_a, vmax


class _StepperCache:
    """Per-(gamma, dt, grid) step tables of one run, plus the run's own
    nonlinear scratch arrays (None in linear runs): the damped-wave
    propagator for gamma > 0, the heat tables with zero d_t A coupling for
    gamma = 0."""

    def __init__(self, config: SolverConfig):
        g = config.grid
        self.heat_mult = np.exp(-g.k2 * config.dt)
        self.heat_w = heat_weight(g.k2, config.dt)
        if config.gamma > 0:
            tab = propagator_tables(config.gamma, g.k2, config.dt)
            self.m00, self.m01 = tab["m00"], tab["m01"]
            self.m10, self.m11 = tab["m10"], tab["m11"]
            self.w, self.k1 = tab["w"], tab["k1"]
        else:
            # gamma = 0: A follows the heat flow of psi, and d_t A is not coupled
            self.m00, self.w = self.heat_mult, self.heat_w
            self.m01 = self.m10 = self.m11 = self.k1 = np.zeros_like(g.k2)
        # after the tables, so that the peak memory of a run does not hold
        # both the scratch arrays and the table temporaries
        self.work = _Workspace(g) if config.nonlinear else None


def _finalize(psi, a, at, state: State, t: float) -> State:
    for c in (psi, a, at):
        c[0, 0] = 0.0
    # a NaN/inf anywhere poisons the sums
    probe = psi.sum() + a.sum()
    if not (np.isfinite(probe.real) and np.isfinite(probe.imag)):
        raise BlowUpError("non-finite state", t=t)
    return State(psi, a, at, state.grid, t)


def step_exp(state: State, config: SolverConfig, cache: _StepperCache | None = None) -> State:
    """One exponential-Euler step: exact linear part, frozen forcing.  At
    gamma = 0 it is the step of the MHD system."""
    if cache is None:
        cache = _StepperCache(config)
    psi = cache.heat_mult * state.psi_hat
    # the second products are added in place, so that a row holds one
    # temporary at a time: members that step at once share the peak memory
    a = cache.m00 * state.a_hat
    a += cache.m01 * state.at_hat
    at = cache.m10 * state.a_hat
    at += cache.m11 * state.at_hat
    if config.nonlinear:
        # the step owns the forcings and scales them in place
        f_psi, f_a, vmax = _nonlinear_terms(state, cache.work)
        _check_cfl(vmax, config, state.t)
        psi += np.multiply(cache.heat_w, f_psi, out=f_psi)
        # f_psi is spent, so it takes k1 F_A before w scales F_A in place
        at += np.multiply(cache.k1, f_a, out=f_psi)
        a += np.multiply(cache.w, f_a, out=f_a)
    return _finalize(psi, a, at, state, state.t + config.dt)


_STEPPERS = {"exp_integrator": step_exp}


def _step_count(config: SolverConfig, t0: float = 0.0) -> int:
    """The number of steps from t0 to t_end, which must be a whole number of
    dt; a start at t_end, up to a relative 1e-9, takes none."""
    remaining, slack = config.t_end - t0, 1e-9 * config.t_end
    if remaining < -slack:
        raise ConfigurationError(f"{config.t_end} lies before the checkpoint time {t0}",
                                 path="time.t_end")
    ratio = remaining / config.dt if remaining > slack and config.dt > 0 else 0.0
    n_steps = int(round(ratio))
    if remaining > slack and n_steps < 1:
        raise ConfigurationError(f"dt={config.dt} must be > 0 and at most t_end={config.t_end} "
                                 f"less t={t0}", path="time.dt")
    if abs(ratio - n_steps) > 1e-9 * max(1.0, ratio):
        raise ConfigurationError(f"t_end={config.t_end} less t={t0} is not a whole number of "
                                 f"steps at dt={config.dt}", path="time")
    return n_steps


def _observed(i: int, n_steps: int, every: int) -> bool:
    """Whether ``run`` observes step i: each multiple of ``every``, and the last."""
    return i % every == 0 or i == n_steps


def run(config: SolverConfig, initial, observer=None, keep_states: bool = False,
        checkpoint_every: int | None = None, checkpoint_sink=None) -> Trajectory:
    """Integrate from ``initial`` at its own time t0 = ``initial.t`` to ``t_end``.

    ``initial`` is a ``State``, as ``make_initial_data`` (t0 = 0) and
    ``load_checkpoint`` return, or the vector triple ``(u0, b0, a0)`` of u,
    b and d_t b at t0 = 0, each with the ``coeffs`` and ``grid`` of a
    ``State.u_hat`` view, mapped to potentials as the module notes say;
    either is dealiased first and must live on ``config.grid``.  Step i is
    stamped t0 + i dt, and ``observer(state) -> dict`` is evaluated on the
    steps ``_observed`` picks; rows are collected into the returned
    ``Trajectory``.  Deterministic: identical config and initial data give
    bitwise-identical snapshots.  Step errors carry the failure time.

    ``checkpoint_sink(state)`` is called on every multiple of
    ``checkpoint_every`` steps, on a writer thread that the run owns, while
    the stepping and the observer go on.  The calls run in step order, one
    at a time: each waits for the one before, and ``run`` returns only
    after the last.  The state handed over is never written again, since
    every step builds new arrays; so ``keep_states`` keeps the states
    themselves, uncopied.  Errors are raised in step order: an
    error of the sink call for step i comes before an error of step i + 1
    or of its observer, and after a failed sink call no other is made.
    """
    if not isinstance(initial, State):
        initial = State(*(_potential(f.coeffs, f.grid) for f in initial), initial[0].grid)
    if initial.grid != config.grid:
        raise ConfigurationError(
            f"initial data lives on {initial.grid}, the config on {config.grid}", path="grid.n")
    t0 = initial.t
    n_steps = _step_count(config, t0)
    mask = initial.grid.dealias_mask
    state = State(initial.psi_hat * mask, initial.a_hat * mask, initial.at_hat * mask,
                  initial.grid, t0)
    # taken from the dict, not called by name, so a wrapper put there sees every step
    stepper = _STEPPERS["exp_integrator"]
    cache = _StepperCache(config)

    traj = Trajectory(nonlinear=config.nonlinear)
    traj.append(t0, observer(state) if observer else {})
    if keep_states:
        traj.states.append(state)
    # the executor starts its thread at the first sink call only
    writer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mhdwave-checkpoint")
    pending = None  # the sink call in flight
    try:
        for i in range(1, n_steps + 1):
            state = stepper(state, config, cache)
            # exact multiples of dt suppress timestamp round-off drift
            state.t = t0 + i * config.dt
            if _observed(i, n_steps, config.snapshot_every):
                traj.append(state.t, observer(state) if observer else {})
                if keep_states:
                    traj.states.append(state)
            if checkpoint_every and checkpoint_sink and i % checkpoint_every == 0:
                if pending is not None:
                    pending.result()
                pending = writer.submit(checkpoint_sink, state)
    except Exception:
        # the call in flight is an earlier step's, so its error comes first
        if pending is not None:
            pending.result()
        raise
    finally:
        writer.shutdown()
    if pending is not None:
        pending.result()
    return traj
