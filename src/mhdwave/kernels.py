"""Exact Fourier symbols of the damped-wave propagator.

Per mode with squared wavenumber ``k2``, the magnetic pair ``(b, d_t b)``
obeys ``gamma b'' + b' + k2 b = forcing``.  The characteristic roots are

    lambda_+- = (-1 +- sqrt(1 - 4 gamma k2)) / (2 gamma)

and the two kernel symbols are

    K0(t) = (exp(lambda_+ t) + exp(lambda_- t)) / 2
    K1(t) = (exp(lambda_+ t) - exp(lambda_- t)) / (gamma (lambda_+ - lambda_-))

The 2x2 step matrix advancing ``(b, d_t b)`` over ``dt`` has entries

    m00 = K0 + K1/2        m01 = gamma K1
    m10 = -k2 K1           m11 = K0 - K1/2

and the exponential-Euler forcing weight is ``W(dt) = int_0^dt K1``.
``propagator_tables`` evaluates them over a whole array of ``k2``; it is
the one implementation of the matrix, used by the solver's step and by the
closed-form gamma -> 0 error alike.

Everything is evaluated in real arithmetic with explicit regime branches
on the discriminant ``D = 1 - 4 gamma k2``: hyperbolic (D > 0, cosh/sinh
via the rationalized roots), oscillatory (D < 0, cos/sin), and a Taylor
series in D about the double root when |D| is below ``DEGENERATE_D``
(the closed forms cancel catastrophically there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "DEGENERATE_D",
    "kernel_pair",
    "propagator_tables",
    "duhamel_k1_weight",
    "heat_weight",
    "verify_kernel_bounds",
]

# |D| below this goes through the double-root series branch.
DEGENERATE_D = 1e-6
_SERIES_TERMS = 8


def _check_gamma(gamma: float) -> None:
    # below the smallest normal float 1/(2 gamma) overflows or loses digits,
    # and the hyperbolic K1 reads ep / inf = 0
    if not gamma >= np.finfo(float).tiny:
        raise DomainError(f"gamma must be >= {np.finfo(float).tiny}, got {gamma}")


def _series_factorial_weights():
    even = np.array([1.0 / math.factorial(2 * j) for j in range(_SERIES_TERMS)])
    odd = np.array([1.0 / math.factorial(2 * j + 1) for j in range(_SERIES_TERMS)])
    return even, odd


_EVEN_W, _ODD_W = _series_factorial_weights()


def kernel_pair(gamma: float, k2, t):
    """Vectorized (K0, K1) over broadcastable ``k2`` and ``t >= 0``."""
    _check_gamma(gamma)
    k2 = np.asarray(k2, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise DomainError("kernel symbols require t >= 0")
    k2, t = np.broadcast_arrays(k2, t)
    shape = k2.shape
    k2 = np.ascontiguousarray(k2).ravel()
    t = np.ascontiguousarray(t).ravel()
    D = 1.0 - 4.0 * gamma * k2
    K0 = np.empty_like(D)
    K1 = np.empty_like(D)

    env = np.exp(-t / (2.0 * gamma))

    hyp = D >= DEGENERATE_D
    if np.any(hyp):
        sq = np.sqrt(np.where(hyp, D, 1.0))
        s = sq / (2.0 * gamma)
        st = s * t
        lam_p = -2.0 * k2 / (1.0 + sq)
        lam_m = -(1.0 + sq) / (2.0 * gamma)
        small = st <= 30.0
        # moderate st: stable cosh/sinh forms; large st: exp(lambda t) forms
        # (sinh would overflow before the envelope cancels it)
        with np.errstate(over="ignore", invalid="ignore"):
            k0_small = env * np.cosh(np.where(small, st, 0.0))
            k1_small = env * t * _sinhc(np.where(small, st, 0.0)) / gamma
            ep = np.exp(lam_p * t)
            em = np.exp(lam_m * t)
            k0_big = 0.5 * (ep + em)
            k1_big = (ep - em) / (2.0 * gamma * np.where(s > 0, s, 1.0))
        K0 = np.where(hyp & small, k0_small, np.where(hyp, k0_big, K0))
        K1 = np.where(hyp & small, k1_small, np.where(hyp, k1_big, K1))

    osc = D <= -DEGENERATE_D
    if np.any(osc):
        om = np.sqrt(np.where(osc, -D, 1.0)) / (2.0 * gamma)
        K0 = np.where(osc, env * np.cos(om * t), K0)
        K1 = np.where(osc, env * t * _sinc(om * t) / gamma, K1)

    deg = ~hyp & ~osc
    if np.any(deg):
        k0d, k1d = _kernel_series(gamma, D[deg], t[deg], env[deg])
        K0[deg] = k0d
        K1[deg] = k1d
    return K0.reshape(shape), K1.reshape(shape)


def _sinhc(y):
    """sinh(y)/y, accurate near 0."""
    small = np.abs(y) < 1e-4
    ysafe = np.where(small, 1.0, y)
    return np.where(small, 1.0 + y * y / 6.0, np.sinh(ysafe) / ysafe)


def _sinc(y):
    """sin(y)/y, accurate near 0."""
    small = np.abs(y) < 1e-4
    ysafe = np.where(small, 1.0, y)
    return np.where(small, 1.0 - y * y / 6.0, np.sin(ysafe) / ysafe)


def _kernel_series(gamma: float, D, t, env):
    """Double-root expansion: K0 = env * sum x^j/(2j)!, K1 = env*(t/gamma) * sum x^j/(2j+1)!
    with x = D (t / (2 gamma))^2; valid for |D| << 1."""
    x = D * (t / (2.0 * gamma)) ** 2
    k0 = np.zeros_like(x)
    k1 = np.zeros_like(x)
    xp = np.ones_like(x)
    for j in range(_SERIES_TERMS):
        k0 += _EVEN_W[j] * xp
        k1 += _ODD_W[j] * xp
        xp = xp * x
    return env * k0, env * (t / gamma) * k1


def _exp_integral_moments(alpha: float, T, mmax: int) -> list:
    """E_m = int_0^T s^m exp(-alpha s) ds for m = 0..mmax, vectorized in T.

    Small alpha*T goes through the cancellation-free series
    E_m = T^{m+1} sum_i (-alpha T)^i / (i! (m+i+1)); larger arguments use
    the downward-stable recurrence E_m = (m E_{m-1} - T^m e^{-alpha T})/alpha.
    """
    T = np.asarray(T, dtype=np.float64)
    aT = alpha * T
    small = aT < 0.5
    emT = np.exp(-aT)
    out = []
    rec_prev = np.zeros_like(T)
    for m in range(mmax + 1):
        acc = np.zeros_like(T)
        term = np.ones_like(T)
        for i in range(24):
            acc += term / (m + i + 1)
            term = term * (-aT) / (i + 1)
        series = T ** (m + 1) * acc
        if m == 0:
            rec = (1.0 - emT) / alpha
        else:
            rec = (m * rec_prev - T**m * emT) / alpha
        rec_prev = np.where(small, series, rec)
        out.append(rec_prev)
    return out


def duhamel_k1_weight(gamma: float, k2, dt):
    """Exponential-Euler weight W(dt) = int_0^dt K1(s) ds, vectorized in k2.

    Closed form ((e^{lam_+ dt}-1)/lam_+ - (e^{lam_- dt}-1)/lam_-) /
    (gamma (lam_+ - lam_-)) away from degeneracies; series branches for
    |D| < DEGENERATE_D, for k2 = 0 (where lam_+ = 0: W = dt + gamma
    expm1(-dt/gamma)), and for steps so short the difference cancels.

    Accuracy is least just past the short-step series (t/gamma in [0.05,
    0.1]).  There the worst relative error against a 50-digit reference was
    6e-16 for |D| < 1e-6, and 1.4e-11, 3.7e-12, 1.3e-12 and 1.0e-12 on the
    |D| bands (1e-6, 1e-5), (1e-5, 1e-4), (1e-4, 1e-3) and (1e-3, 1e-2):
    below |D| = 1e-4 the two closed-form terms cancel, leaving about
    3.5 eps / (sqrt|D| t/gamma).
    """
    _check_gamma(gamma)
    if np.any(np.asarray(dt) < 0):
        raise DomainError("dt must be >= 0")
    k2_in = np.asarray(k2, dtype=np.float64)
    scalar = k2_in.ndim == 0
    orig_shape = k2_in.shape
    k2 = np.atleast_1d(k2_in).ravel()
    dtv = np.broadcast_to(np.asarray(dt, dtype=np.float64), k2.shape).astype(np.float64)
    W = np.empty_like(k2)

    D = 1.0 - 4.0 * gamma * k2

    zero = k2 == 0.0
    if np.any(zero):
        W[zero] = dtv[zero] + gamma * np.expm1(-dtv[zero] / gamma)

    # short-step series in dt (root-free, handles every regime)
    with np.errstate(over="ignore"):  # near the smallest gamma: inf, and no short step
        lam_scale = np.maximum(1.0 / gamma, np.sqrt(np.maximum(k2, 0.0) / gamma))
    short = (lam_scale * dtv < 0.05) & ~zero
    if np.any(short):
        W[short] = _duhamel_dt_series(gamma, k2[short], dtv[short])

    hyp = (D >= DEGENERATE_D) & ~zero & ~short
    if np.any(hyp):
        sq = np.sqrt(np.where(hyp, D, 1.0))
        lam_p = -2.0 * k2 / (1.0 + sq)
        lam_m = -(1.0 + sq) / (2.0 * gamma)
        lp = np.where(hyp, lam_p, -1.0)
        lm = np.where(hyp, lam_m, -2.0)
        val = (np.expm1(lp * dtv) / lp - np.expm1(lm * dtv) / lm) / (gamma * (lp - lm))
        W = np.where(hyp, val, W)

    osc = (D <= -DEGENERATE_D) & ~zero & ~short
    if np.any(osc):
        om = np.sqrt(-D[osc]) / (2.0 * gamma)
        alpha = 1.0 / (2.0 * gamma)
        to = dtv[osc]
        # int_0^T e^{-a s} sin(w s) ds = (w - e^{-aT}(w cos wT + a sin wT)) / (a^2+w^2)
        num = om - np.exp(-alpha * to) * (om * np.cos(om * to) + alpha * np.sin(om * to))
        W[osc] = num / (om * k2[osc])

    deg = ~hyp & ~osc & ~zero & ~short
    if np.any(deg):
        W[deg] = _duhamel_degenerate(gamma, D[deg], dtv[deg])
    return float(W[0]) if scalar else W.reshape(orig_shape)


def _duhamel_dt_series(gamma: float, k2, dt):
    """W as a power series in dt from the kernel ODE recurrence.

    K1 = sum a_m s^m with a_0 = 0, a_1 = 1/gamma and
    a_{j+2} = -((j+1) a_{j+1} + k2 a_j) / (gamma (j+2)(j+1)), so
    W = sum a_m dt^{m+1}/(m+1).
    """
    a_prev = np.zeros_like(k2)          # a_j
    a_curr = np.full_like(k2, 1.0 / gamma)  # a_{j+1}
    acc = a_curr * dt**2 / 2.0
    power = dt**2
    for j in range(0, 14):
        a_next = -((j + 1) * a_curr + k2 * a_prev) / (gamma * (j + 2) * (j + 1))
        power = power * dt
        acc += a_next * power / (j + 3)
        a_prev, a_curr = a_curr, a_next
    return acc


def _duhamel_degenerate(gamma: float, D, dt):
    """W near the double root via the D-expansion of K1 integrated exactly."""
    alpha = 1.0 / (2.0 * gamma)
    moments = _exp_integral_moments(alpha, dt, 2 * _SERIES_TERMS - 1)
    acc = np.zeros_like(dt)
    Dp = np.ones_like(dt)
    for j in range(_SERIES_TERMS):
        acc += _ODD_W[j] * Dp / (4.0 * gamma**2) ** j * moments[2 * j + 1]
        Dp = Dp * D
    return acc / gamma


def heat_weight(k2, dt):
    """Heat-equation exponential-Euler weight int_0^dt e^{-k2 s} ds."""
    k2 = np.asarray(k2, dtype=np.float64)
    k2safe = np.where(k2 > 0, k2, 1.0)
    return np.where(k2 > 0, -np.expm1(-k2safe * dt) / k2safe, dt * np.ones_like(k2))


def propagator_tables(gamma: float, k2, dt: float):
    """All per-mode symbols needed for one exponential-Euler step.

    Returns a dict of arrays over ``k2``: m00, m01, m10, m11, the Duhamel
    weight ``w`` and the forcing derivative weight ``k1`` (= K1(dt), the
    time derivative of w applied to the b-row forcing).
    """
    if dt < 0:
        raise DomainError("dt must be >= 0")
    k2 = np.asarray(k2, dtype=np.float64)
    K0, K1 = kernel_pair(gamma, k2, np.float64(dt))
    return {
        "m00": K0 + 0.5 * K1,
        "m01": gamma * K1,
        "m10": -k2 * K1,
        "m11": K0 - 0.5 * K1,
        "w": np.asarray(duhamel_k1_weight(gamma, k2, dt)),
        "k1": K1,
    }


# ---------------------------------------------------------------------------
# numerical verification of the kernel bounds


@dataclass
class BoundRow:
    bound_id: str
    gamma: float
    theta: float
    c_emp: float
    n_samples: int


def verify_kernel_bounds(gamma: float, refine: int = 1) -> list:
    """Empirical constants for the three kernel envelope bounds, as one
    ``BoundRow`` per bound: fren-1, fren-2 at theta = 0, 1/2 and 1, fren-3.

    On S1 (4 gamma k2 >= 3/4): |K0|, |K1| against exp(-t/(8 gamma))
    (bound fren-1) and |K1| against gamma^{-theta/2} |k|^{-theta}
    exp(-t/(8 gamma)) (fren-2, theta = 0, 1/2, 1).  On S2: |K0|, |K1|
    against exp(-k2 t) (fren-3).  Each region is sampled at 48 * ``refine``
    log-spaced squared wavenumbers (S1 up to 400 times its boundary) and
    as many log-spaced times in (0, 40 gamma], five e-foldings of the
    damping envelope.  Constants are reported, never asserted against the
    (non-explicit) constants of the source estimates.

    The kernels depend on (gamma, k2, t) only through t / gamma and
    gamma k2, and both samples scale with gamma in just that way, so every
    gamma samples the same points.  The five constants are therefore the
    same for every gamma, to 12 digits (1.06704832826, 1.06704832826,
    0.702157287694, 0.936284225016, 1.35080212317 at ``refine`` = 1 for
    gamma from 0.01 to 100); the gamma column is the only per-gamma
    content of the rows.
    """
    _check_gamma(gamma)
    n = 48 * refine
    t_max = 40.0 * gamma
    boundary = 0.75 / (4.0 * gamma)
    # t = 0 included: every ratio there is exactly max(|K0|,|K1|)/1 = 1
    t = np.concatenate([[0.0], np.geomspace(t_max * 1e-4, t_max, n - 1)])[None, :]

    rows = []

    # S1 sample: from the region boundary upward
    k2_s1 = np.geomspace(boundary, boundary * 400.0, n)[:, None]
    K0, K1 = kernel_pair(gamma, k2_s1, t)
    envelope = np.exp(-t / (8.0 * gamma))
    ratio1 = np.maximum(np.abs(K0), np.abs(K1)) / envelope
    n1 = ratio1.size
    rows.append(BoundRow("fren-1", gamma, 0.0, float(np.max(ratio1)), n1))
    for th in (0.0, 0.5, 1.0):
        shape = gamma ** (-th / 2.0) * k2_s1 ** (-th / 2.0) * envelope
        rows.append(BoundRow("fren-2", gamma, th, float(np.max(np.abs(K1) / shape)), n1))

    # S2 sample: strictly below the boundary, k2 = 0 included
    k2_s2 = np.concatenate([[0.0], np.geomspace(boundary * 1e-4, boundary * (1 - 1e-9),
                                                n - 1)])[:, None]
    K0, K1 = kernel_pair(gamma, k2_s2, t)
    shape = np.exp(-k2_s2 * t)
    ratio3 = np.maximum(np.abs(K0), np.abs(K1)) / shape
    rows.append(BoundRow("fren-3", gamma, 0.0, float(np.max(ratio3)), ratio3.size))
    return rows
