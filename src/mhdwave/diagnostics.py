"""Norms, energy functionals and the norm observer.

L^q norms are midpoint grid quadrature, spectrally accurate for
band-limited integrands up to the aliasing inherent in |f|^q.  They are
evaluated as M (sum (|f|/M)^q dA)^(1/q) with M = max |f|, so that |f|^q
cannot underflow at large q.  Sobolev seminorms are Parseval sums with the
|k|^s multiplier, cached per grid and s.

The solver state holds the potentials psi, A and d_t A of u, b and d_t b
(u = grad^perp psi).  Since |grad^perp f_hat|^2 = |k|^2 |f_hat|^2, the
H^s seminorm of u is the H^(s+1) seminorm of psi.  So the observer takes
q = 2 and every Sobolev column from Parseval sums on the potentials,
||u||_Hs = L sqrt(sum w |k|^(2s+2) |psi_hat|^2) over the half spectrum (w
the grid's Parseval weight), and maps psi and A to u and b on the grid
(``grid.transform_inverse``) only for the other q.  The energy functionals
of the damped-wave system are

    X_m = ||L^m u||^2 + ||L^m b||^2 + 2 g^2 ||d_t L^m b||^2 + 2 g ||L^{m+1} b||^2
    Y_m = 2 g <d_t L^m b, L^m b>
    Z_m = ||L^{m+1} u||^2 + ||L^{m+1} b||^2 + g ||d_t L^m b||^2

(L^s the fractional Laplacian, g the wave parameter); the linear system
satisfies d/dt [ (X_m + Y_m)/2 ] + Z_m = 0 exactly.  The observer computes
the triple only when it is given an order m, and then records m and g in
the row, so that ``linear_energy_residual`` can check them.

The u_L2, b_L2 and H^s columns, which reach the CSVs, are bitwise
Parseval sums: each is one ``_perp_seminorm`` sum in one fixed operation
order.  The triple reaches no CSV: it is one contraction, six weighted
sums over the modes, equal to the seminorm form to round-off.  Its sums
run in ``np.einsum`` without ``optimize``, never in ``np.dot``: numpy
hands dot products to BLAS, whose worker threads spin-wait after each
call and take the core the stepping and the checkpoint writer need.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BlowUpError, DomainError, UsageError
from .grid import GridSpec, transform_inverse
from .solver import State, Trajectory

__all__ = [
    "lq_norm",
    "energy_functionals",
    "norm_observer",
    "linear_energy_residual",
]


def lq_norm(mag: np.ndarray, grid: GridSpec, q: float) -> float:
    """(sum mag^q (L/n)^2)^(1/q) of the pointwise magnitude ``mag`` of a field
    on ``grid``; q = inf gives max mag.

    Evaluated as M (sum (mag/M)^q (L/n)^2)^(1/q) with M = max mag, which
    cannot underflow or overflow at large q.  Norms with 1 <= q < 2 are
    supported for reporting the integrability of initial data; q < 1 is
    rejected.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1 or inf, got {q}")
    peak = float(np.max(mag))
    if math.isinf(q) or peak == 0.0:
        return peak
    return peak * float((np.sum((mag / peak) ** q) * grid.cell_area) ** (1.0 / q))


def _magnitude(potential: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Pointwise |grad^perp potential| on the grid."""
    f = transform_inverse(potential, grid)
    return np.sqrt(f[0] ** 2 + f[1] ** 2)


def _power(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The Parseval-weighted power spectrum w |c|^2 of a half-layout scalar."""
    return grid.parseval_weight * (c * c.conj()).real


def _perp_seminorm(grid: GridSpec, power: np.ndarray, s: float) -> float:
    """H^s seminorm of grad^perp f from the power spectrum ``_power(f)``."""
    return float(grid.box_length * np.sqrt(np.sum(grid.abs_k_power(2.0 * s + 2.0) * power)))


@functools.lru_cache(maxsize=4)
def _weighted_k_power(grid: GridSpec, p: float) -> np.ndarray:
    """The Parseval weight times the multiplier, w |k|^p; read-only."""
    table = grid.parseval_weight * grid.abs_k_power(p)
    table.flags.writeable = False
    return table


def _contract(a: np.ndarray, b: np.ndarray) -> float:
    """sum a * b over two arrays of one 2-D shape, in numpy's own einsum loop
    (no BLAS)."""
    return float(np.einsum("ij,ij", a, b))


def _float_view(c: np.ndarray) -> np.ndarray:
    """A complex half spectrum as its (n, 2 half) interleaved (re, im) floats."""
    return np.ascontiguousarray(c, dtype=np.complex128).view(np.float64)


def energy_functionals(state: State, m: float, gamma: float, *, _powers=None):
    """The triple (X_m, Y_m, Z_m); X_m, Z_m >= 0, Y_m any sign.

    Six contractions: |k|^(2m+2) and |k|^(2m+4) against the weighted power
    spectra of psi and A, and t = w |k|^(2m+2) d_t A against d_t A and A
    on the interleaved float views, where sum t c reads sum Re(t conj c).
    ``_powers`` lets the norm observer pass the power spectra of (psi, A)
    it has already computed.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    g = state.grid
    if _powers is None:
        _powers = [_power(c, g) for c in (state.psi_hat, state.a_hat)]
    pu, pb = _powers
    km, km1 = g.abs_k_power(2.0 * m + 2.0), g.abs_k_power(2.0 * m + 4.0)
    # each sum is a squared seminorm over L^2 (btm and cross below too)
    um, bm, um1, bm1 = (_contract(k, p) for k in (km, km1) for p in (pu, pb))
    t = _float_view(_weighted_k_power(g, 2.0 * m + 2.0) * state.at_hat)
    btm = _contract(t, _float_view(state.at_hat))
    cross = _contract(t, _float_view(state.a_hat))
    area = g.box_length**2
    x = area * (um + bm + 2.0 * gamma**2 * btm + 2.0 * gamma * bm1)
    y = 2.0 * gamma * area * cross
    z = area * (um1 + bm1 + gamma * btm)
    return x, y, z


def norm_observer(q_list=(2.0,), s_list_u=(0.0,), s_list_b=(0.0,), m: float | None = None,
                  gamma: float = 1.0):
    """Observer returning a flat dict of the configured norms per state.

    The weighted |c|^2 of psi and A is computed once and feeds every Sobolev
    column, the energy triple and the q = 2 norms (Parseval); for the other
    q the pointwise magnitudes of u and b are built once per row, from psi
    and A.  The energy triple (columns ``X_m``, ``Y_m``, ``Z_m``, with ``m``
    and ``gamma`` beside them) is computed only when ``m`` is given.  A row
    with a cell that is not finite is a ``BlowUpError`` at the state's time.
    """

    def observe(state: State) -> dict:
        g = state.grid
        powers = (_power(state.psi_hat, g), _power(state.a_hat, g))

        # u_L2 is u_H0 and b_L2 is b_H0: each (potential, s) sum is taken
        # once per row; potential 0 is psi, 1 is A
        @functools.cache
        def seminorm(potential: int, s: float) -> float:
            return _perp_seminorm(g, powers[potential], s)

        row = {"t": state.t}
        mags = None
        for q in q_list:
            if q == 2:
                lq = (seminorm(0, 0.0), seminorm(1, 0.0))
            else:
                mags = mags or [_magnitude(c, g) for c in (state.psi_hat, state.a_hat)]
                lq = (lq_norm(mags[0], g, q), lq_norm(mags[1], g, q))
            row[f"u_L{q:g}"], row[f"b_L{q:g}"] = lq
        for s in s_list_u:
            row[f"u_H{s:g}"] = seminorm(0, s)
        for s in s_list_b:
            row[f"b_H{s:g}"] = seminorm(1, s)
        if m is not None:
            row["X_m"], row["Y_m"], row["Z_m"] = energy_functionals(state, m, gamma,
                                                                    _powers=powers)
            row["m"], row["gamma"] = m, gamma
        if not all(map(math.isfinite, row.values())):
            raise BlowUpError(f"non-finite norm at t={state.t}", t=state.t)
        return row

    return observe


def linear_energy_residual(traj: Trajectory, gamma: float, m: float = None) -> np.ndarray:
    """Per-interval residual of d/dt[(X_m + Y_m)/2] + Z_m on a linear run.

    The derivative is the central difference of the snapshot values; Z is
    averaged with Simpson weights over the same three snapshots, which
    cancels the O(dt^2) differencing error so the residual reflects the
    integrator (O(dt^4) of the step size for the exact propagator).
    Returns residuals normalized by max Z.  The trajectory must have been
    produced with the nonlinearity disabled and snapshots at every step.
    ``gamma`` and, when given, ``m`` must be those the observer used; a
    mismatch, or unequally spaced snapshots, is a ``UsageError``.
    """
    if traj.nonlinear:
        raise UsageError("linear energy residual requires a nonlinearity-free trajectory")
    t = np.asarray(traj.times)
    if len(t) < 3:
        raise UsageError("need at least three snapshots")
    first = traj.snapshots[0]
    if "X_m" not in first:
        raise UsageError("snapshots carry no energy triple: observe with norm_observer(m=...)")
    if not math.isclose(first["gamma"], gamma, rel_tol=1e-12):
        raise UsageError(
            f"gamma={gamma} but the energy triple was observed at gamma={first['gamma']}")
    if m is not None and not math.isclose(first["m"], m, rel_tol=1e-12):
        raise UsageError(f"m={m} but the energy triple was observed at m={first['m']}")
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
