import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.integrate import quad

from mhdwave.errors import DomainError
from mhdwave.kernels import (
    DEGENERATE_D,
    duhamel_k1_weight,
    kernel_pair,
    propagator_tables,
    verify_kernel_bounds,
)

from conftest import propagator_matrix


def mp_kernels(gamma, k2, t, dps=40):
    """Extended-precision evaluation of the defining formulas."""
    with mp.workdps(dps):
        g, k2m, tm = mp.mpf(gamma), mp.mpf(k2), mp.mpf(t)
        disc = 1 - 4 * g * k2m
        sq = mp.sqrt(disc)  # imaginary for disc < 0
        lp = (-1 + sq) / (2 * g)
        lm = (-1 - sq) / (2 * g)
        K0 = (mp.exp(lp * tm) + mp.exp(lm * tm)) / 2
        if lp == lm:
            K1 = tm / g * mp.exp(-tm / (2 * g))
        else:
            K1 = (mp.exp(lp * tm) - mp.exp(lm * tm)) / (g * (lp - lm))
        return float(mp.re(K0)), float(mp.re(K1))


def k0_k1(gamma, k2, t):
    """``kernel_pair`` at a single (gamma, k2, t), as two floats."""
    K0, K1 = kernel_pair(gamma, np.float64(k2), np.float64(t))
    return float(K0), float(K1)


class TestKernelSymbols:
    def test_t_zero(self):
        for gamma, k2 in [(0.3, 2.0), (1.0, 0.0), (2.0, 0.125)]:
            assert k0_k1(gamma, k2, 0.0) == (1.0, 0.0)

    def test_initial_slope(self):
        # (K1(h) - K1(0))/h -> 1/gamma
        for gamma in (0.25, 1.0, 3.0):
            h = 1e-6
            slope = k0_k1(gamma, 2.0, h)[1] / h
            assert slope == pytest.approx(1.0 / gamma, rel=1e-4)

    def test_oscillatory_closed_form(self):
        # gamma=1, k2=1, t=1: K0 = e^{-1/2} cos(sqrt3/2), K1 = e^{-1/2} sin(sqrt3/2) 2/sqrt3
        # frozen from a 40-digit evaluation of the definition
        K0, K1 = k0_k1(1.0, 1.0, 1.0)
        assert K0 == pytest.approx(0.39294655583435517059, rel=1e-13)
        assert K1 == pytest.approx(0.53350719511469298276, rel=1e-13)

    def test_against_extended_precision(self):
        cases = [
            (0.25, 1.0, 0.5),     # degenerate exactly
            (0.5, 2.0, 0.3),      # oscillatory
            (2.0, 0.01, 5.0),     # heavily overdamped
            (0.05, 40.0, 0.2),    # fast oscillation
            (1.0, 0.2500001, 2.0),       # just past the double root
            (1.0, 0.25 * (1 - 1e-9), 2.0),  # inside the series branch
            (0.3, 900.0, 50.0),   # deep decay
        ]
        for gamma, k2, t in cases:
            K0o, K1o = mp_kernels(gamma, k2, t)
            K0, K1 = k0_k1(gamma, k2, t)
            assert K0 == pytest.approx(K0o, rel=1e-11, abs=1e-300)
            assert K1 == pytest.approx(K1o, rel=1e-11, abs=1e-300)

    def test_branch_continuity_across_degeneracy(self):
        # closed forms at D = +-1e-9 and the series path agree to 1e-8
        for gamma in (0.25, 1.0, 2.5):
            for t in (0.1, 1.0, 3.0):
                vals0 = kernel_pair(gamma, (1.0 - 1e-9) / (4 * gamma), np.float64(t))
                vals1 = kernel_pair(gamma, (1.0 + 1e-9) / (4 * gamma), np.float64(t))
                vals2 = kernel_pair(gamma, 1.0 / (4 * gamma), np.float64(t))
                for a, b in ((vals0, vals2), (vals1, vals2)):
                    assert abs(float(a[0]) - float(b[0])) <= 1e-8
                    assert abs(float(a[1]) - float(b[1])) <= 1e-8

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            k0_k1(1.0, 1.0, -0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_pair(-1.0, 1.0, 0.0)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-310, np.nextafter(np.finfo(float).tiny, 0)])
    def test_subnormal_gamma_rejected(self, gamma):
        # 1/(2 gamma) overflows below the smallest normal float, and the
        # hyperbolic K1 would read ep / inf = 0
        for call in (lambda: kernel_pair(gamma, 1.0, 0.1),
                     lambda: duhamel_k1_weight(gamma, 1.0, 0.1),
                     lambda: propagator_tables(gamma, np.array([0.0, 1.0]), 0.1)):
            with pytest.raises(DomainError, match="gamma must be >="):
                call()
        assert np.all(np.isfinite(kernel_pair(np.finfo(float).tiny, 1.0, 0.1)))

    def test_ode_residual(self):
        # |gamma K'' + K' + k2 K| <= 1e-6 max(1, k2), 4th-order differences
        h = 1e-4
        stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
        worst = 0.0
        for gamma in (0.05, 0.25, 1.0, 4.0):
            k2s = list(np.geomspace(1e-3, 50, 8)) + [(1 - 1e-7) / (4 * gamma)]
            for k2 in k2s:
                for t in np.linspace(2 * h + 1e-3, 3.0, 7):
                    K0s, K1s = kernel_pair(gamma, k2, t + stencil)
                    for f in (K0s, K1s):
                        d1 = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
                        d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h * h)
                        resid = abs(gamma * d2 + d1 + k2 * f[2]) / max(1.0, k2)
                        worst = max(worst, resid)
        assert worst <= 1e-6


def _branch_k2(branch, gamma, x):
    """k2 whose discriminant D = 1 - 4 gamma k2 lies in the named branch;
    ``x`` in [0, 1] places it inside the branch."""
    if branch == "hyperbolic":
        D = 1.001e-6 + x * (1.0 - 1.001e-6)
    elif branch == "oscillatory":
        D = -(10.0 ** (-5.9 + 6.9 * x))
    else:
        D = (2.0 * x - 1.0) * 0.999e-6
    k2 = (1.0 - D) / (4.0 * gamma)
    D = 1.0 - 4.0 * gamma * k2
    assert {"hyperbolic": D >= DEGENERATE_D, "oscillatory": D <= -DEGENERATE_D,
            "degenerate": abs(D) < DEGENERATE_D}[branch]
    return k2


@pytest.mark.parametrize("branch", ["hyperbolic", "oscillatory", "degenerate"])
class TestKernelPairProperties:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(gamma=hst.floats(0.05, 4.0), x=hst.floats(0.0, 1.0),
           t=hst.floats(1e-3 + 2e-4, 10.0))
    def test_ode_residual_and_reference(self, branch, gamma, x, t):
        k2 = _branch_k2(branch, gamma, x)
        # the C02 residual |gamma K'' + K' + k2 K| / max(1, k2), 4th-order differences
        h = 1e-4
        K0s, K1s = kernel_pair(gamma, k2, t + np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h)
        for f in (K0s, K1s):
            d1 = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
            d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h * h)
            assert abs(gamma * d2 + d1 + k2 * f[2]) / max(1.0, k2) <= 1e-6
        # extended-precision values, relative to the non-oscillating envelope
        # (the oscillatory kernels cross zero, where a pure relative error is undefined)
        K0o, K1o = mp_kernels(gamma, k2, t)
        env = math.exp(-t / (2.0 * gamma))
        assert abs(float(K0s[2]) - K0o) <= 1e-11 * max(abs(K0o), env)
        assert abs(float(K1s[2]) - K1o) <= 1e-11 * max(abs(K1o), env * t / gamma)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(gamma=hst.floats(0.01, 100.0), x=hst.floats(0.0, 1.0))
    def test_initial_values(self, branch, gamma, x):
        K0, K1 = kernel_pair(gamma, _branch_k2(branch, gamma, x), 0.0)
        assert float(K0) == 1.0
        assert float(K1) == 0.0


def _scaled_sample(branch, x, y):
    """(kappa, tau) = (gamma k2, t / gamma) on the named branch of the
    kernels; ``x`` and ``y`` in [0, 1] place kappa and tau inside it."""
    log_tau = -4.0 + y * 6.5  # tau in [1e-4, 316]: past the st <= 30 cut at small D
    if branch == "hyperbolic":
        kappa = 10.0 ** (-6.0 + x * (6.0 + math.log10(0.2499)))
    elif branch == "oscillatory":
        kappa = 10.0 ** (math.log10(0.2501) + x * (4.0 - math.log10(0.2501)))
    elif branch == "double_root":
        kappa = (1.0 - (2.0 * x - 1.0) * 0.999 * DEGENERATE_D) / 4.0
    elif branch == "short_step":
        # lam_scale dt = max(1, sqrt(kappa)) tau below the series cut 0.05
        kappa = 10.0 ** (-6.0 + 10.0 * x)
        log_tau = -4.0 + y * (math.log10(0.05) + 4.0) - math.log10(max(1.0, math.sqrt(kappa)))
    else:
        kappa = 0.0
    return kappa, 10.0**log_tau


@pytest.mark.parametrize("branch", ["hyperbolic", "oscillatory", "double_root", "short_step",
                                    "k2_zero"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(log_gamma=hst.floats(-3.0, 3.0), x=hst.floats(0.0, 1.0), y=hst.floats(0.0, 1.0))
def test_gamma_scaling_identity(branch, log_gamma, x, y):
    # b(t) = B(t / gamma) with B'' + B' + gamma k2 B = 0, so
    # K(t; gamma, k2) = K(t / gamma; 1, gamma k2) and W(dt; gamma, k2) =
    # gamma W(dt / gamma; 1, gamma k2); every branch test is a function of
    # (t / gamma, gamma k2) too
    gamma = 10.0**log_gamma
    kappa, tau = _scaled_sample(branch, x, y)
    k2, t = kappa / gamma, tau * gamma
    K0, K1 = (float(k) for k in kernel_pair(gamma, k2, t))
    K0s, K1s = (float(k) for k in kernel_pair(1.0, gamma * k2, t / gamma))
    W = duhamel_k1_weight(gamma, k2, t)
    Ws = gamma * duhamel_k1_weight(1.0, gamma * k2, t / gamma)
    # relative to the non-oscillating envelope, as the oscillatory kernels
    # cross zero; W > 0 for t > 0
    env = math.exp(-tau / 2.0)
    assert abs(K0 - K0s) <= 2.5e-12 * max(abs(K0s), env)
    assert abs(K1 - K1s) <= 2.2e-11 * max(abs(K1s), env * tau)
    assert abs(W - Ws) <= 3.8e-12 * abs(Ws)


class TestModePropagator:
    """The 2x2 per-mode matrix of ``propagator_tables``, as the solver steps with it."""

    def test_dt_zero_identity(self):
        assert np.array_equal(propagator_matrix(0.7, 3.0, 0.0), np.eye(2))

    def test_entries_from_kernel_symbols(self):
        gamma, k2, dt = 0.5, 2.0, 0.3
        m = propagator_matrix(gamma, k2, dt)
        K0, K1 = k0_k1(gamma, k2, dt)
        assert m[0, 0] == pytest.approx(K0 + 0.5 * K1, rel=1e-12)
        assert m[0, 1] == pytest.approx(gamma * K1, rel=1e-12)
        b, bt = m @ np.array([1.0 + 2.0j, -0.5j])
        assert b == pytest.approx(m[0, 0] * (1 + 2j) + m[0, 1] * (-0.5j))
        assert bt == pytest.approx(m[1, 0] * (1 + 2j) + m[1, 1] * (-0.5j))

    def test_semigroup_example(self):
        gamma, k2 = 0.7, 3.0
        p = propagator_matrix(gamma, k2, 0.1) @ propagator_matrix(gamma, k2, 0.2)
        m = propagator_matrix(gamma, k2, 0.3)
        for a, b in zip(p.ravel(), m.ravel()):
            assert a == pytest.approx(b, rel=1e-10)

    def test_semigroup_and_determinant_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gamma = 10 ** rng.uniform(-0.7, 0.5)
            k2 = 10 ** rng.uniform(-2, 1)
            d1, d2 = 10 ** rng.uniform(-2, -0.3, 2)
            p = propagator_matrix(gamma, k2, d1) @ propagator_matrix(gamma, k2, d2)
            m = propagator_matrix(gamma, k2, d1 + d2)
            assert np.max(np.abs(p - m)) <= 1e-10 * np.max(np.abs(m))
            det_expected = math.exp(-(d1 + d2) / gamma)
            assert np.linalg.det(m) == pytest.approx(det_expected, rel=1e-10)

    def test_heat_limit(self):
        # k2 = 1: sup_t |m00(gamma) - e^{-t}| halves with gamma down to 1e-4
        t = np.linspace(0.0, 5.0, 2001)
        heat = np.exp(-t)
        sups = []
        gamma = 0.1
        while gamma > 0.99e-4:
            K0, K1 = kernel_pair(gamma, 1.0, t)
            sups.append(np.max(np.abs(K0 + 0.5 * K1 - heat)))
            gamma /= 2
        ratios = np.array(sups[1:]) / np.array(sups[:-1])
        assert np.all(ratios >= 0.4) and np.all(ratios <= 0.6)


class TestDuhamelWeight:
    def test_small_dt_leading_term(self):
        # W = dt^2/(2 gamma) (1 - dt/(3 gamma) + O(dt^2)); at dt = 1e-4 the
        # cubic correction is ~3.3e-5 relative, so the leading term holds to
        # 1e-4 and the two-term expansion to 1e-6
        gamma, dt = 1.0, 1e-4
        for k2 in (0.5, 1.0, 10.0):
            w = duhamel_k1_weight(gamma, k2, dt)
            lead = dt**2 / (2 * gamma)
            assert w == pytest.approx(lead, rel=1e-4)
            two_term = lead * (1 - dt / (3 * gamma))
            assert w == pytest.approx(two_term, rel=1e-6)

    def test_k2_zero_closed_form(self):
        # dt - gamma (1 - e^{-dt/gamma}) at gamma=2, dt=1
        assert duhamel_k1_weight(2.0, 0.0, 1.0) == pytest.approx(
            0.21306131942526684721, rel=1e-14
        )

    def test_against_adaptive_quadrature(self):
        for gamma, k2, dt in [(1.0, 4.0, 0.5), (0.5, 2.0, 0.3), (0.25, 1.0, 1.0),
                              (1.0, 0.25, 2.0), (3.0, 0.001, 0.7)]:
            ref, err = quad(lambda s: k0_k1(gamma, k2, s)[1], 0.0, dt, epsabs=1e-12)
            assert abs(duhamel_k1_weight(gamma, k2, dt) - ref) <= 1e-9

    def test_degenerate_branch_against_quadrature(self):
        gamma = 1.0
        k2 = 0.25 * (1 + 1e-8)  # |D| < 1e-6: series path
        ref, _ = quad(lambda s: k0_k1(gamma, k2, s)[1], 0.0, 1.7, epsabs=1e-13)
        assert duhamel_k1_weight(gamma, k2, 1.7) == pytest.approx(ref, abs=1e-10)

    def test_vectorized_matches_scalar(self):
        # a mode's value does not depend on the modes beside it: one array
        # holds a mode of every branch, and each entry equals its scalar call
        # bit for bit.  Columns: hyperbolic with small and large s t and
        # with s t < 1e-4, oscillatory with om t < 1e-4 and larger, double
        # root (both halves of the moments), k2 = 0, a short step and
        # |D| just inside and just outside the double-root band
        gamma = 1.0
        D = np.array([0.5, 0.999, 0.5, -3.0, -0.5, 0.0, 2e-7, 1.0, 0.5, 0.9e-6, 1.1e-6])
        t = np.array([1.0, 200.0, 1e-5, 1e-5, 1.0, 1.7, 0.6, 0.7, 0.01, 0.08, 0.08])
        k2 = (1.0 - D) / (4.0 * gamma)
        K0, K1 = kernel_pair(gamma, k2, t)
        w = duhamel_k1_weight(gamma, k2, t)
        for i in range(k2.size):
            assert (K0[i], K1[i]) == k0_k1(gamma, k2[i], t[i])
            assert w[i] == duhamel_k1_weight(gamma, float(k2[i]), float(t[i]))
        for dt in t:
            tab = propagator_tables(gamma, k2, float(dt))
            for i in range(k2.size):
                one = propagator_tables(gamma, float(k2[i]), float(dt))
                assert sorted(one) == sorted(tab)
                for key, value in one.items():
                    assert tab[key][i] == value, (key, i, dt)

    def test_negative_dt_rejected(self):
        with pytest.raises(DomainError):
            duhamel_k1_weight(1.0, 1.0, -0.5)


def mp_duhamel_weight(gamma, k2, dt, dps=50):
    """W = int_0^dt K1 in extended precision, from the antiderivative of K1."""
    with mp.workdps(dps):
        g, k2m, dtm = mp.mpf(gamma), mp.mpf(k2), mp.mpf(dt)
        sq = mp.sqrt(1 - 4 * g * k2m)  # imaginary for D < 0
        lp, lm = (-1 + sq) / (2 * g), (-1 - sq) / (2 * g)
        return float(mp.re((mp.expm1(lp * dtm) / lp - mp.expm1(lm * dtm) / lm)
                           / (g * (lp - lm))))


# |D| band -> the worst relative error of W there that the README and the
# duhamel_k1_weight docstring state, for t / gamma in [0.05, 0.1]: just past
# the short-step cut, where the closed form cancels most.  Below |D| = 1e-3
# W goes through its D-series
_W_BANDS = {
    "series": (1e-7, 0.999e-6, 1e-15),
    "1e-6": (1e-6, 1e-5, 1e-14),
    "1e-5": (1e-5, 1e-4, 1e-14),
    "1e-4": (1e-4, 1e-3, 1e-14),
    "1e-3": (1e-3, 1e-2, 2e-12),
}


@pytest.mark.parametrize("band", list(_W_BANDS))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(log_gamma=hst.floats(-1.0, 1.0), x=hst.floats(0.0, 1.0), negative=hst.booleans(),
       tau=hst.floats(0.05, 0.1))
def test_duhamel_weight_accuracy_near_the_double_root(band, log_gamma, x, negative, tau):
    lo, hi, bound = _W_BANDS[band]
    gamma = 10.0**log_gamma
    D = lo * (hi / lo) ** x * (-1.0 if negative else 1.0)
    k2, dt = (1.0 - D) / (4.0 * gamma), tau * gamma
    ref = mp_duhamel_weight(gamma, k2, dt)
    assert abs(duhamel_k1_weight(gamma, k2, dt) - ref) <= bound * abs(ref)


def c_emp(rows) -> dict:
    """The constants of ``verify_kernel_bounds`` rows by (bound_id, theta),
    each pair once."""
    table = {(r.bound_id, r.theta): r.c_emp for r in rows}
    assert len(table) == len(rows)
    return table


class TestKernelBounds:
    def test_s2_constant_at_least_one(self):
        c = c_emp(verify_kernel_bounds(1.0))
        assert c["fren-3", 0.0] >= 1.0
        assert np.isfinite(c["fren-3", 0.0])

    def test_s1_bounds_finite_and_stable(self):
        rows = verify_kernel_bounds(1.0)
        rows2 = verify_kernel_bounds(1.0, refine=2)
        for row, row2 in zip(rows, rows2):
            assert np.isfinite(row.c_emp)
            assert abs(row2.c_emp - row.c_emp) <= 0.05 * row.c_emp

    def test_theta_one_finite(self):
        c = c_emp(verify_kernel_bounds(0.5))
        assert np.isfinite(c["fren-2", 1.0])

    def test_constants_do_not_depend_on_gamma(self):
        # both samples scale with gamma as the kernels' arguments do
        ref = verify_kernel_bounds(1.0)
        for gamma in (0.01, 100.0):
            for row, base in zip(verify_kernel_bounds(gamma), ref):
                assert row.gamma == gamma
                assert row.c_emp == pytest.approx(base.c_emp, rel=1e-12, abs=0.0)

def test_propagator_tables_consistency():
    # the vectorized tables against the scalar kernel symbols and weight
    gamma, dt = 1.0, 0.4
    k2 = np.array([0.0, 0.2, 0.25, 2.0])
    tab = propagator_tables(gamma, k2, dt)
    for i, val in enumerate(k2):
        K0, K1 = k0_k1(gamma, float(val), dt)
        expect = {"m00": K0 + 0.5 * K1, "m01": gamma * K1, "m10": -float(val) * K1,
                  "m11": K0 - 0.5 * K1, "k1": K1,
                  "w": duhamel_k1_weight(gamma, float(val), dt)}
        for key, value in expect.items():
            assert tab[key][i] == pytest.approx(value, rel=1e-13, abs=0.0), key
