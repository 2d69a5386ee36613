"""Norms, energy functionals, and inequality spot checks.

L^q norms are midpoint grid quadrature, spectrally accurate for
band-limited integrands up to the aliasing inherent in |f|^q.  The
observer takes q = 2 from Parseval instead, ||f||_L2 = L sqrt(sum w |f_hat|^2)
over the half spectrum (w the grid's Parseval weight), exact for the
discrete transform, and transforms the fields back to the grid only for
the other q.  Sobolev seminorms are Parseval sums with the |k|^s
multiplier, cached per grid and s.  The energy functionals of the
damped-wave system are

    X_m = ||L^m u||^2 + ||L^m b||^2 + 2 g^2 ||d_t L^m b||^2 + 2 g ||L^{m+1} b||^2
    Y_m = 2 g <d_t L^m b, L^m b>
    Z_m = ||L^{m+1} u||^2 + ||L^{m+1} b||^2 + g ||d_t L^m b||^2

(L^s the fractional Laplacian, g the wave parameter); the linear system
satisfies d/dt [ (X_m + Y_m)/2 ] + Z_m = 0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .grid import (
    GridSpec,
    RealField,
    SpectralVectorField,
    fractional_laplacian_apply,
    transform_inverse,
)
from .solver import State, Trajectory

__all__ = [
    "NormSnapshot",
    "lq_norm",
    "sobolev_seminorm",
    "sobolev_inner",
    "energy_functionals",
    "norm_observer",
    "linear_energy_residual",
    "GNCheck",
    "HeatCheck",
    "inequality_spot_checks",
]


def lq_norm(f: RealField, q: float, grid: GridSpec | None = None) -> float:
    """(sum |f|^q (L/n)^2)^(1/q); q = inf gives max |f|.

    Vector fields use the pointwise Euclidean magnitude.  Norms with
    1 <= q < 2 are supported for reporting the integrability of initial
    data; q < 1 is rejected.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1 or inf, got {q}")
    g = grid if grid is not None else f.grid
    mag = f.magnitude()
    if math.isinf(q):
        return float(np.max(mag))
    return float((np.sum(mag**q) * g.cell_area) ** (1.0 / q))


def sobolev_seminorm(f: SpectralVectorField, s: float) -> float:
    """Homogeneous Sobolev seminorm (sum_k |k|^{2s} |f_hat|^2)^(1/2) * L."""
    return _seminorm(f, s, _power(f))


def _power(f: SpectralVectorField) -> np.ndarray:
    """The Parseval-weighted power spectrum w |f_hat|^2 of the half layout."""
    return f.grid.parseval_weight * np.abs(f.coeffs) ** 2


def _seminorm(f: SpectralVectorField, s: float, power: np.ndarray) -> float:
    """``sobolev_seminorm`` from the precomputed power spectrum ``_power(f)``."""
    g = f.grid
    if s == 0:
        total = np.sum(power)
    else:
        mean = np.max(np.abs(f.mean_coefficient()))
        if s < 0 and mean != 0.0:
            raise DomainError("negative-order seminorm requires a mean-zero field")
        total = np.sum(g.abs_k_power(2.0 * s) * power)
    return float(g.box_length * np.sqrt(total))


def sobolev_inner(f: SpectralVectorField, h: SpectralVectorField, s: float) -> float:
    """Real inner product <L^s f, L^s h> in Parseval form."""
    g = f.grid
    mult = g.parseval_weight if s == 0 else g.parseval_weight * g.abs_k_power(2.0 * s)
    return float(g.box_length**2 * np.sum(mult * np.real(f.coeffs * np.conj(h.coeffs))))


def energy_functionals(state: State, m: float, gamma: float, *, _powers=None):
    """The triple (X_m, Y_m, Z_m); X_m, Z_m >= 0, Y_m any sign.

    ``_powers`` lets the norm observer pass the weighted power spectra of
    (u, b, d_t b) it has already computed.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    u, b, bt = state.u_hat, state.b_hat, state.bt_hat
    if _powers is None:
        _powers = [_power(f) for f in (u, b, bt)]
    pu, pb, pbt = _powers
    um = _seminorm(u, m, pu)
    bm = _seminorm(b, m, pb)
    btm = _seminorm(bt, m, pbt)
    um1 = _seminorm(u, m + 1, pu)
    bm1 = _seminorm(b, m + 1, pb)
    x = um**2 + bm**2 + 2.0 * gamma**2 * btm**2 + 2.0 * gamma * bm1**2
    y = 2.0 * gamma * sobolev_inner(bt, b, m)
    z = um1**2 + bm1**2 + gamma * btm**2
    return x, y, z


@dataclass
class NormSnapshot:
    """One diagnostics row: L^q norms, Sobolev seminorms, energy triple."""

    t: float
    lq: dict
    hdot_u: dict
    hdot_b: dict
    energy: tuple

    def as_row(self) -> dict:
        row = {"t": self.t}
        for q, v in self.lq.items():
            row[f"u_L{q:g}"] = v[0]
            row[f"b_L{q:g}"] = v[1]
        for s, v in self.hdot_u.items():
            row[f"u_H{s:g}"] = v
        for s, v in self.hdot_b.items():
            row[f"b_H{s:g}"] = v
        row["X_m"], row["Y_m"], row["Z_m"] = self.energy
        return row


def norm_observer(q_list=(2.0,), s_list_u=(0.0,), s_list_b=(0.0,), m: float = 1.0,
                  gamma: float = 1.0):
    """Observer returning a flat dict of the configured norms per state.

    Each field's weighted |c|^2 is computed once and feeds every Sobolev
    column, the energy triple and the q = 2 norms (Parseval); the fields are
    transformed back to the grid only for the other q.
    """

    def observe(state: State) -> dict:
        u, b = state.u_hat, state.b_hat
        powers = [_power(f) for f in (u, b, state.bt_hat)]
        pu, pb, _ = powers
        phys = None
        lq = {}
        for q in q_list:
            if q == 2:
                lq[q] = (_seminorm(u, 0.0, pu), _seminorm(b, 0.0, pb))
            else:
                phys = phys or (transform_inverse(u), transform_inverse(b))
                lq[q] = (lq_norm(phys[0], q), lq_norm(phys[1], q))
        snap = NormSnapshot(
            t=state.t,
            lq=lq,
            hdot_u={s: _seminorm(u, s, pu) for s in s_list_u},
            hdot_b={s: _seminorm(b, s, pb) for s in s_list_b},
            energy=energy_functionals(state, m, gamma, _powers=powers),
        )
        return snap.as_row()

    return observe


def linear_energy_residual(traj: Trajectory, gamma: float, m: float = None,
                           dt: float = None) -> np.ndarray:
    """Per-interval residual of d/dt[(X_m + Y_m)/2] + Z_m on a linear run.

    The derivative is the central difference of the snapshot values; Z is
    averaged with Simpson weights over the same three snapshots, which
    cancels the O(dt^2) differencing error so the residual reflects the
    integrator (O(dt^4) of the step size for the exact propagator).
    Returns residuals normalized by max Z.  The trajectory must have been
    produced with the nonlinearity disabled and snapshots at every step.
    """
    if traj.nonlinear:
        raise UsageError("linear energy residual requires a nonlinearity-free trajectory")
    t = np.asarray(traj.times)
    if len(t) < 3:
        raise UsageError("need at least three snapshots")
    x = traj.series("X_m")
    y = traj.series("Y_m")
    z = traj.series("Z_m")
    h = np.diff(t)
    if not np.allclose(h, h[0], rtol=1e-9, atol=0):
        raise UsageError("snapshots must be equally spaced")
    h = h[0]
    e = 0.5 * (x + y)
    dedt = (e[2:] - e[:-2]) / (2.0 * h)
    z_simpson = (z[:-2] + 4.0 * z[1:-1] + z[2:]) / 6.0
    resid = dedt + z_simpson
    scale = np.max(z) if np.max(z) > 0 else 1.0
    return resid / scale


# ---------------------------------------------------------------------------
# inequality spot checks


@dataclass(frozen=True)
class GNCheck:
    """One interpolation-inequality tuple ||L^r f||_q <= C ||L^s1 f||_p1^th ||L^s2 f||_p2^(1-th)."""

    r: float
    s1: float
    s2: float
    q: float
    p1: float
    p2: float
    theta: float

    def validate(self) -> None:
        n = 2.0
        lhs = 1.0 / self.q - self.r / n
        rhs = self.theta * (1.0 / self.p1 - self.s1 / n) + (1.0 - self.theta) * (
            1.0 / self.p2 - self.s2 / n
        )
        if abs(lhs - rhs) > 1e-12:
            raise ConfigurationError(
                f"GN tuple violates the scaling relation: {lhs} != {rhs}"
            )
        if not (0.0 <= self.theta <= 1.0 - self.r / self.s2):
            raise ConfigurationError("GN theta outside [0, 1 - r/s2]")
        if self.q == math.inf and self.theta == 0.0:
            raise ConfigurationError("GN with q = inf requires theta != 0")


@dataclass(frozen=True)
class HeatCheck:
    """Heat-semigroup smoothing ||L^s e^{tD} f||_q <= C t^{-s/2-(1/p-1/q)} ||f||_p."""

    s: float
    p: float
    q: float

    def validate(self) -> None:
        if self.s < 0 or not (1.0 <= self.p <= self.q):
            raise ConfigurationError("heat check requires s >= 0 and 1 <= p <= q")


def _lp_of_spectral(f: SpectralVectorField, p: float) -> float:
    return lq_norm(transform_inverse(f), p)


def inequality_spot_checks(fields, gn_checks=(), heat_checks=(), t_grid=None) -> dict:
    """Empirical constants (max LHS/RHS ratios) for the configured tuples.

    ``fields`` is an iterable of SpectralVectorField samples.  Returns
    {check -> max ratio}; every ratio must come out finite.
    """
    if t_grid is None:
        t_grid = np.geomspace(0.05, 5.0, 12)
    results = {}
    fields = list(fields)
    for chk in gn_checks:
        chk.validate()
        worst = 0.0
        for f in fields:
            lhs = _lp_of_spectral(fractional_laplacian_apply(f, chk.r), chk.q)
            n1 = _lp_of_spectral(fractional_laplacian_apply(f, chk.s1), chk.p1)
            n2 = _lp_of_spectral(fractional_laplacian_apply(f, chk.s2), chk.p2)
            rhs = n1**chk.theta * n2 ** (1.0 - chk.theta)
            if rhs > 0:
                worst = max(worst, lhs / rhs)
        results[chk] = worst
    for chk in heat_checks:
        chk.validate()
        worst = 0.0
        for f in fields:
            base = _lp_of_spectral(f, chk.p)
            if base == 0:
                continue
            for t in t_grid:
                g = f.grid
                heat = SpectralVectorField(f.coeffs * np.exp(-g.k2 * t), g, f.divergence_free)
                lhs = _lp_of_spectral(fractional_laplacian_apply(heat, chk.s), chk.q)
                shape = t ** (-chk.s / 2.0 - (1.0 / chk.p - 1.0 / chk.q))
                worst = max(worst, lhs / (shape * base))
        results[chk] = worst
    return results
