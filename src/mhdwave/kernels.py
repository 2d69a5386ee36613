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
(the closed forms cancel catastrophically there).  Each mode is evaluated
by its own regime's formula only, on the boolean subset of the modes that
regime owns, so no formula sees a mode outside its regime or needs guard
values.  Past t = 1e300 gamma every decay factor exp(-t/(2 gamma)) is 0
(its expm1 is -1); those modes take that value directly, without the
ratio t / gamma, which overflows at the smallest gamma.  The one silenced
overflow is sqrt(k2 / gamma) in W's short-step test at tiny gamma, where
an infinite rate only says that the step is not short.
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
# W's closed form cancels for |D| up to about 1e-3, so its D-series band is wider
_W_SERIES_D = 1e-3
_SERIES_TERMS = 8
# gamma > 0 lies in [_GAMMA_MIN, _GAMMA_MAX]: below the smallest normal float
# 1/(2 gamma) overflows.  The bound keeps 40 gamma, verify_kernel_bounds'
# longest time and largest product of gamma, at most 1e308: numpy's geomspace
# of it forms 10**log10(40 gamma), which overflows within 6e-14 of float max
_GAMMA_MIN = float(np.finfo(float).tiny)
_GAMMA_MAX = 1e308 / 40.0


def _gamma_refusal(gamma: float, mhd: bool = False) -> str | None:
    """Why ``gamma`` is refused, or None.  0 is the MHD system, taken where
    ``mhd`` is set; any other gamma lies in [_GAMMA_MIN, _GAMMA_MAX]."""
    if not (mhd and gamma == 0 or _GAMMA_MIN <= gamma <= _GAMMA_MAX):
        return (f"gamma must be {'0 or ' if mhd else ''}in [{_GAMMA_MIN}, {_GAMMA_MAX}], "
                f"got {gamma}")


def _series_factorial_weights():
    even = np.array([1.0 / math.factorial(2 * j) for j in range(_SERIES_TERMS)])
    odd = np.array([1.0 / math.factorial(2 * j + 1) for j in range(_SERIES_TERMS)])
    return even, odd


_EVEN_W, _ODD_W = _series_factorial_weights()


def kernel_pair(gamma: float, k2, t):
    """Vectorized (K0, K1) over broadcastable ``k2`` and ``t >= 0``."""
    if why := _gamma_refusal(gamma):
        raise DomainError(why)
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
    # past t = 1e300 gamma the envelope and em are exp(-huge) = 0, and s t is
    # past 30: those modes take the zeros without the ratios that overflow
    near = t * 1e-300 < gamma
    env = np.zeros_like(t)
    env[near] = np.exp(-t[near] / (2.0 * gamma))

    # hyperbolic: moderate s t through the stable cosh/sinh forms, large s t
    # through the exp(lambda t) forms (sinh would overflow before the
    # envelope cancels it)
    hyp = D >= DEGENERATE_D
    low = hyp & near
    st = np.sqrt(D[low]) / (2.0 * gamma) * t[low]
    small = low.copy()
    small[low] = st <= 30.0
    st = st[st <= 30.0]
    K0[small] = env[small] * np.cosh(st)
    K1[small] = env[small] * t[small] * _sinhc(st) / gamma
    big = hyp & ~small
    sq, tb = np.sqrt(D[big]), t[big]
    s = sq / (2.0 * gamma)
    ep = np.exp(-2.0 * k2[big] / (1.0 + sq) * tb)
    em = np.zeros_like(tb)
    nb = near[big]
    em[nb] = np.exp(-(1.0 + sq[nb]) / (2.0 * gamma) * tb[nb])
    K0[big] = 0.5 * (ep + em)
    K1[big] = (ep - em) / (2.0 * gamma * s)

    osc = D <= -DEGENERATE_D
    omt = np.sqrt(-D[osc]) / (2.0 * gamma) * t[osc]
    K0[osc] = env[osc] * np.cos(omt)
    K1[osc] = env[osc] * t[osc] * _sinc(omt) / gamma

    deg = ~hyp & ~osc
    K0[deg], K1[deg] = _kernel_series(gamma, D[deg], t[deg], env[deg])
    return K0.reshape(shape), K1.reshape(shape)


def _sinhc(y):
    """sinh(y)/y, accurate near 0."""
    return _over_y(np.sinh, y, -1.0)


def _sinc(y):
    """sin(y)/y, accurate near 0."""
    return _over_y(np.sin, y, 1.0)


def _over_y(f, y, sign):
    """f(y)/y for an odd f with Taylor head y - sign y^3/6, the head's
    quotient where |y| < 1e-4."""
    out = np.empty_like(y)
    near = np.abs(y) < 1e-4
    z, far = y[near], y[~near]
    out[near] = 1.0 - sign * z * z / 6.0
    out[~near] = f(far) / far
    return out


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
    small = alpha * T < 0.5
    out = [np.empty_like(T) for _ in range(mmax + 1)]
    Ts, Tr = T[small], T[~small]
    if Ts.size:  # 24 series terms per moment: skipped when no T is small
        aT = alpha * Ts
        for m in range(mmax + 1):
            acc = np.zeros_like(Ts)
            term = np.ones_like(Ts)
            for i in range(24):
                acc += term / (m + i + 1)
                term = term * (-aT) / (i + 1)
            out[m][small] = Ts ** (m + 1) * acc
    emT = np.exp(-(alpha * Tr))
    rec = (1.0 - emT) / alpha
    out[0][~small] = rec
    for m in range(1, mmax + 1):
        rec = (m * rec - Tr**m * emT) / alpha
        out[m][~small] = rec
    return out


def duhamel_k1_weight(gamma: float, k2, dt):
    """Exponential-Euler weight W(dt) = int_0^dt K1(s) ds, vectorized in k2.

    Closed form ((e^{lam_+ dt}-1)/lam_+ - (e^{lam_- dt}-1)/lam_-) /
    (gamma (lam_+ - lam_-)) away from degeneracies; series branches for
    |D| < 1e-3 (the D-expansion of K1 integrated exactly: the two
    closed-form terms cancel there, while K0 and K1 switch at
    DEGENERATE_D), for k2 = 0 (where lam_+ = 0: W = dt + gamma
    expm1(-dt/gamma)), and for steps so short the difference cancels.

    Against a 50-digit reference, the worst relative error of the D-series
    was 1.5e-15 for |D| < 1e-3 at t/gamma in [0.05, 1e4].  The closed form
    is least accurate just past the short-step series (t/gamma in [0.05,
    0.1]), 1.0e-12 on the |D| band (1e-3, 1e-2).
    """
    if why := _gamma_refusal(gamma):
        raise DomainError(why)
    if np.any(np.asarray(dt) < 0):
        raise DomainError("dt must be >= 0")
    k2_in = np.asarray(k2, dtype=np.float64)
    scalar = k2_in.ndim == 0
    orig_shape = k2_in.shape
    k2 = np.atleast_1d(k2_in).ravel()
    dtv = np.broadcast_to(np.asarray(dt, dtype=np.float64), k2.shape).astype(np.float64)
    W = np.empty_like(k2)

    D = 1.0 - 4.0 * gamma * k2
    # as in kernel_pair: past dt = 1e300 gamma, expm1(-dt/gamma) and
    # expm1(lm dt) are -1, and no step is short
    near = dtv * 1e-300 < gamma

    zero = k2 == 0.0
    W[zero] = dtv[zero] - gamma
    zn = zero & near
    W[zn] = dtv[zn] + gamma * np.expm1(-dtv[zn] / gamma)

    # short-step series in dt (root-free, handles every regime)
    with np.errstate(over="ignore"):  # near the smallest gamma: inf, and no short step
        lam_scale = np.maximum(1.0 / gamma, np.sqrt(np.maximum(k2, 0.0) / gamma))
    cand = near & ~zero
    short = cand.copy()
    short[cand] = lam_scale[cand] * dtv[cand] < 0.05
    W[short] = _duhamel_dt_series(gamma, k2[short], dtv[short])

    hyp = (D >= _W_SERIES_D) & ~zero & ~short
    sq, th = np.sqrt(D[hyp]), dtv[hyp]
    lp = -2.0 * k2[hyp] / (1.0 + sq)
    lm = -(1.0 + sq) / (2.0 * gamma)
    em1 = np.full_like(th, -1.0)
    nh = near[hyp]
    em1[nh] = np.expm1(lm[nh] * th[nh])
    W[hyp] = (np.expm1(lp * th) / lp - em1 / lm) / (gamma * (lp - lm))

    osc = (D <= -_W_SERIES_D) & ~zero & ~short
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
    w = np.full_like(k2, dt)
    pos = k2 > 0
    w[pos] = -np.expm1(-k2[pos] * dt) / k2[pos]
    return w


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
    content of the rows.  Below gamma = 75 / max (4.2e-307) the top of the
    S1 sample, 75 / gamma, is past the float range, and the call is a
    ``DomainError``.
    """
    if why := _gamma_refusal(gamma):
        raise DomainError(why)
    n = 48 * refine
    t_max = 40.0 * gamma
    boundary = 0.75 / (4.0 * gamma)
    if float(boundary) * 400.0 == math.inf:
        raise DomainError(f"at gamma = {gamma} the S1 sample would reach k2 = 75/gamma, "
                          "past the float range")
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
