"""Norms, energy functionals and the norm observer.

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
satisfies d/dt [ (X_m + Y_m)/2 ] + Z_m = 0 exactly.  The observer computes
the triple only when it is given an order m.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UsageError
from .grid import RealField, SpectralVectorField, transform_inverse
from .solver import State, Trajectory

__all__ = [
    "lq_norm",
    "sobolev_seminorm",
    "sobolev_inner",
    "energy_functionals",
    "norm_observer",
    "linear_energy_residual",
]


def lq_norm(f: RealField, q: float) -> float:
    """(sum |f|^q (L/n)^2)^(1/q); q = inf gives max |f|.

    Vector fields use the pointwise Euclidean magnitude.  Norms with
    1 <= q < 2 are supported for reporting the integrability of initial
    data; q < 1 is rejected.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1 or inf, got {q}")
    mag = f.magnitude()
    if math.isinf(q):
        return float(np.max(mag))
    return float((np.sum(mag**q) * f.grid.cell_area) ** (1.0 / q))


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


def norm_observer(q_list=(2.0,), s_list_u=(0.0,), s_list_b=(0.0,), m: float | None = None,
                  gamma: float = 1.0):
    """Observer returning a flat dict of the configured norms per state.

    Each field's weighted |c|^2 is computed once and feeds every Sobolev
    column, the energy triple and the q = 2 norms (Parseval); the fields are
    transformed back to the grid only for the other q.  The energy triple
    (columns ``X_m``, ``Y_m``, ``Z_m``) is computed only when ``m`` is given.
    """

    def observe(state: State) -> dict:
        u, b = state.u_hat, state.b_hat
        pu, pb = _power(u), _power(b)
        row = {"t": state.t}
        phys = None
        for q in q_list:
            if q == 2:
                lq = (_seminorm(u, 0.0, pu), _seminorm(b, 0.0, pb))
            else:
                phys = phys or (transform_inverse(u), transform_inverse(b))
                lq = (lq_norm(phys[0], q), lq_norm(phys[1], q))
            row[f"u_L{q:g}"], row[f"b_L{q:g}"] = lq
        for s in s_list_u:
            row[f"u_H{s:g}"] = _seminorm(u, s, pu)
        for s in s_list_b:
            row[f"b_H{s:g}"] = _seminorm(b, s, pb)
        if m is not None:
            triple = energy_functionals(state, m, gamma, _powers=(pu, pb, _power(state.bt_hat)))
            row["X_m"], row["Y_m"], row["Z_m"] = triple
        return row

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
    if "X_m" not in traj.snapshots[0]:
        raise UsageError("snapshots carry no energy triple: observe with norm_observer(m=...)")
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
