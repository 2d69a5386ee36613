import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from mhdwave import diagnostics
from mhdwave.diagnostics import (
    energy_functionals,
    linear_energy_residual,
    lq_norm,
    norm_observer,
)
from mhdwave.errors import BlowUpError, DomainError, UsageError
from mhdwave.grid import GridSpec, transform_inverse
from mhdwave.initial import make_initial_data
from mhdwave.solver import SolverConfig, run

from conftest import (
    SpectralVectorField,
    energy_functionals_reference,
    fractional_laplacian_apply,
    grid_values,
    magnitude,
    meshgrid,
    random_divfree,
    random_state,
    single_mode_field,
    sobolev_seminorm,
    state_from_vectors,
    zero_field,
)


class TestLqNorm:
    def test_sin_l2(self):
        g = GridSpec(32, 2 * np.pi)
        X, _ = meshgrid(g)
        assert lq_norm(np.abs(np.sin(X)), g, 2) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-12)

    def test_sin_l4(self):
        g = GridSpec(32, 2 * np.pi)
        X, _ = meshgrid(g)
        assert lq_norm(np.abs(np.sin(X)), g, 4) == pytest.approx((1.5 * np.pi**2) ** 0.25,
                                                                rel=1e-12)

    def test_constant(self):
        g = GridSpec(16, 3.0)
        mag = np.abs(np.full((16, 16), -2.0))
        for q in (1.0, 2.0, 5.0):
            assert lq_norm(mag, g, q) == pytest.approx(2.0 * 3.0 ** (2.0 / q), rel=1e-12)
        assert lq_norm(mag, g, np.inf) == 2.0

    def test_q_below_one_rejected(self):
        g = GridSpec(16, 1.0)
        with pytest.raises(DomainError):
            lq_norm(np.ones((16, 16)), g, 0.5)

    def test_large_q_does_not_underflow(self):
        # |u|^400 underflows at amplitude 0.05; the scaled sum does not.  On
        # this box the cell area exceeds 1, so M <= ||u||_q <= M L^(2/q)
        g = GridSpec(64, 32 * np.pi)
        psi = make_initial_data("random_band", {"amplitude": 0.05, "seed": 0}, g).psi_hat
        mag = magnitude(transform_inverse(psi, g))
        peak = float(np.max(mag))
        assert peak <= lq_norm(mag, g, 400) <= peak * g.box_length ** (2.0 / 400)

    def test_zero_field(self):
        g = GridSpec(16, 1.0)
        mag = np.zeros((16, 16))
        assert lq_norm(mag, g, 4) == 0.0 and lq_norm(mag, g, np.inf) == 0.0

    def test_quadrature_refinement(self):
        # grid quadrature of |f|^q aliases above the band; refining the
        # grid of a fixed band-limited field must not move the value
        vals = {}
        for n in (32, 64):
            g = GridSpec(n, 2 * np.pi)
            X, Y = meshgrid(g)
            vals[n] = lq_norm(np.abs(np.sin(X) * np.cos(2 * Y) + 0.3 * np.cos(3 * X)), g, 4)
        assert vals[64] == pytest.approx(vals[32], rel=1e-12)


class TestSobolevSeminorm:
    def test_s_zero_is_l2(self, grid16):
        f = random_divfree(grid16, 1)
        mag = magnitude(grid_values(f))
        assert sobolev_seminorm(f, 0.0) == pytest.approx(lq_norm(mag, grid16, 2), rel=1e-10)

    def test_single_mode_multiplier(self, grid16):
        f = single_mode_field(grid16, (2, 0), 3.0)
        base = sobolev_seminorm(f, 0.0)
        assert sobolev_seminorm(f, 1.5) == pytest.approx(2.0**1.5 * base, rel=1e-12)

    def test_physical_space_oracle(self, grid16):
        f = random_divfree(grid16, 2)
        s = 0.75
        lam = fractional_laplacian_apply(f, s)
        assert sobolev_seminorm(f, s) == pytest.approx(
            lq_norm(magnitude(grid_values(lam)), grid16, 2), rel=1e-10
        )

    def test_negative_s_needs_mean_zero(self, grid16):
        c = np.zeros((2, 16, 9), dtype=complex)
        c[0, 0, 0] = 1.0
        with pytest.raises(DomainError):
            sobolev_seminorm(SpectralVectorField(c, grid16), -1.0)

    def test_interpolation_log_convexity(self, grid16):
        # ||f||_{H^s} <= ||f||_{H^s1}^theta ||f||_{H^s2}^(1-theta)
        f = random_divfree(grid16, 3)
        s1, s, s2 = 0.0, 0.8, 2.0
        theta = (s2 - s) / (s2 - s1)
        lhs = sobolev_seminorm(f, s)
        rhs = sobolev_seminorm(f, s1) ** theta * sobolev_seminorm(f, s2) ** (1 - theta)
        assert lhs <= rhs * (1 + 1e-12)

    def test_scaling_linearity(self, grid16):
        f = random_divfree(grid16, 4)
        g = SpectralVectorField(3.5 * f.coeffs, grid16)
        for s in (0.0, 1.0, 1.5):
            assert sobolev_seminorm(g, s) == pytest.approx(
                3.5 * sobolev_seminorm(f, s), rel=1e-13
            )


class TestEnergyFunctionals:
    def test_zero_state(self, grid16):
        st = state_from_vectors(zero_field(grid16), zero_field(grid16), zero_field(grid16))
        assert energy_functionals(st, 1.0, 0.5) == (0.0, 0.0, 0.0)

    def test_y_zero_without_d_t_b(self, grid16):
        st = state_from_vectors(random_divfree(grid16, 1), random_divfree(grid16, 2),
                                zero_field(grid16))
        x, y, z = energy_functionals(st, 1.0, 0.5)
        assert y == 0.0 and x > 0 and z > 0

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=hst.sampled_from([16, 32, 48]), seed=hst.integers(0, 2**32 - 1),
           scales=hst.tuples(*[hst.floats(-3.0, 3.0)] * 3), m=hst.floats(0.0, 2.0),
           gamma=hst.floats(1e-2, 10.0))
    def test_matches_seminorm_form(self, n, seed, scales, m, gamma):
        # u, b and d_t b each scaled by 10^scale.  X and Z are sums of
        # nonnegative terms; the round-off of Y's mixed-sign sum is bounded
        # by the Cauchy-Schwarz bound of |Y|, 2 gamma ||L^m b|| ||d_t L^m b||
        g = GridSpec(n, 2 * np.pi)
        fields = (SpectralVectorField(random_divfree(g, seed + offset).coeffs * 10.0**p, g)
                  for offset, p in zip((0, 1000, 2000), scales))
        st = state_from_vectors(*fields)
        x, y, z = energy_functionals(st, m, gamma)
        ref_x, ref_y, ref_z = energy_functionals_reference(st, m, gamma)
        assert x == pytest.approx(ref_x, rel=1e-12)
        assert z == pytest.approx(ref_z, rel=1e-12)
        bound = 2.0 * gamma * sobolev_seminorm(st.b_hat, m) * sobolev_seminorm(st.bt_hat, m)
        assert y == pytest.approx(ref_y, rel=1e-12, abs=1e-12 * bound)

    def test_single_mode_formula(self, grid16):
        # |k| = 1 makes every multiplier 1: X_1 = A_P^2 (1 + 2 gamma)
        gamma = 2.0
        b = single_mode_field(grid16, (1, 0), 0.7)
        st = state_from_vectors(zero_field(grid16), b, zero_field(grid16))
        a2 = sobolev_seminorm(b, 0.0) ** 2
        x, y, z = energy_functionals(st, 1.0, gamma)
        assert x == pytest.approx(a2 * (1 + 2 * gamma), rel=1e-12)
        assert y == 0.0
        assert z == pytest.approx(a2, rel=1e-12)

    def test_y_bound(self, grid16):
        # |Y_m| <= (2/3)||L^m b||^2 + (3/2) gamma^2 ||d_t L^m b||^2
        gamma, m = 0.7, 1.0
        for seed in range(100):
            st = random_state(grid16, seed)
            _, y, _ = energy_functionals(st, m, gamma)
            bm = sobolev_seminorm(st.b_hat, m)
            btm = sobolev_seminorm(st.bt_hat, m)
            bound = (2.0 / 3.0) * bm**2 + 1.5 * gamma**2 * btm**2
            assert abs(y) <= bound * (1 + 1e-12)

    def test_nonnegativity(self, grid16):
        st = random_state(grid16, 11)
        x, _, z = energy_functionals(st, 0.5, 1.3)
        assert x >= 0 and z >= 0


def _linear_traj(grid, gamma, dt, t_end, seed=3, a0_amp=0.5, snapshot_every=1):
    data = make_initial_data(
        "random_band",
        {"amplitude": 1.0, "k_min": 0.9, "k_max": 2.1, "seed": seed,
         "a0_amplitude": a0_amp},
        grid,
    )
    cfg = SolverConfig(gamma=gamma, dt=dt, t_end=t_end, grid=grid,
                       nonlinear=False, snapshot_every=snapshot_every)
    obs = norm_observer((2.0,), (0.0,), (0.0,), m=1.0, gamma=gamma)
    return run(cfg, data, obs)


class TestLinearEnergyResidual:
    def test_zero_data(self, grid16):
        cfg = SolverConfig(gamma=0.5, dt=0.01, t_end=0.05, grid=grid16, nonlinear=False)
        obs = norm_observer((2.0,), (0.0,), (0.0,), m=1.0, gamma=0.5)
        z = zero_field(grid16)
        traj = run(cfg, (z, z, z), obs)
        res = linear_energy_residual(traj, 0.5, 1.0)
        assert np.all(res == 0.0)

    def test_exp_integrator_exact_balance(self, grid16):
        # gamma = 0 runs the heat tables, where the balance holds as well
        for gamma in (0.0, 0.5):
            traj = _linear_traj(grid16, gamma=gamma, dt=2e-3, t_end=1.0)
            res = linear_energy_residual(traj, gamma, 1.0)
            assert np.max(np.abs(res)) <= 1e-8

    def test_single_mode(self, grid16):
        gamma, dt = 0.5, 1e-3
        b0 = single_mode_field(grid16, (1, 0), 1.0)
        cfg = SolverConfig(gamma=gamma, dt=dt, t_end=0.5, grid=grid16, nonlinear=False)
        obs = norm_observer((2.0,), (0.0,), (0.0,), m=1.0, gamma=gamma)
        traj = run(cfg, (zero_field(grid16), b0, zero_field(grid16)), obs)
        res = linear_energy_residual(traj, gamma, 1.0)
        assert np.max(np.abs(res)) <= 1e-8

    def test_nonlinear_trajectory_rejected(self, grid16):
        data = make_initial_data(
            "random_band", {"amplitude": 0.05, "k_max": 3.0, "seed": 5}, grid16
        )
        cfg = SolverConfig(gamma=0.5, dt=0.01, t_end=0.1, grid=grid16)
        obs = norm_observer((2.0,), (0.0,), (0.0,), m=1.0, gamma=0.5)
        traj = run(cfg, data, obs)
        with pytest.raises(UsageError):
            linear_energy_residual(traj, 0.5, 1.0)

    def test_mismatched_arguments_rejected(self, grid16):
        traj = _linear_traj(grid16, gamma=0.5, dt=1e-2, t_end=0.05)
        assert len(linear_energy_residual(traj, 0.5, 1.0)) == 4
        with pytest.raises(UsageError, match="m=2.0"):
            linear_energy_residual(traj, 0.5, 2.0)
        with pytest.raises(UsageError, match="gamma=0.25"):
            linear_energy_residual(traj, 0.25, 1.0)
        # the spacing comes from the snapshot times: every second step of
        # five, and the last, stamps 0, 2 dt, 4 dt, 5 dt
        traj = _linear_traj(grid16, gamma=0.5, dt=1e-2, t_end=0.05, snapshot_every=2)
        with pytest.raises(UsageError, match="equally spaced"):
            linear_energy_residual(traj, 0.5, 1.0)

    def test_trajectory_without_energy_triple_rejected(self, grid16):
        data = make_initial_data(
            "random_band", {"amplitude": 1.0, "k_max": 3.0, "seed": 5}, grid16
        )
        cfg = SolverConfig(gamma=0.5, dt=0.01, t_end=0.05, grid=grid16, nonlinear=False)
        traj = run(cfg, data, norm_observer((2.0,), (0.0,), (0.0,)))
        with pytest.raises(UsageError, match="energy triple"):
            linear_energy_residual(traj, 0.5, 1.0)


def test_snapshot_row_consistency(grid16):
    st = random_state(grid16, 40)
    obs = norm_observer((2.0, 4.0), (0.0, 1.0), (0.0, 1.5), m=1.0, gamma=0.5)
    row = obs(st)
    assert row["u_H0"] == pytest.approx(row["u_L2"], rel=1e-10)
    assert set(row) >= {"t", "u_L2", "b_L2", "u_L4", "b_L4", "u_H0", "u_H1",
                        "b_H0", "b_H1.5", "X_m", "Y_m", "Z_m"}


class TestNormObserver:
    @pytest.mark.parametrize("q_list, calls", [((2.0,), 0), ((2.0, 4.0), 2)])
    def test_inverse_transforms_per_observe(self, grid16, monkeypatch, q_list, calls):
        count = []
        inverse = diagnostics.transform_inverse

        def counted(potential, grid):
            count.append(1)
            return inverse(potential, grid)

        monkeypatch.setattr(diagnostics, "transform_inverse", counted)
        norm_observer(q_list, (0.0, 1.0), (0.0, 1.5), m=1.0, gamma=0.5)(random_state(grid16, 1))
        assert len(count) == calls

    def test_non_finite_row_is_a_blow_up(self, grid16):
        # finite potentials whose power spectra overflow: u_L2 is inf, u_L4 NaN
        st = random_state(grid16, 3, scale=1e160)
        st.t = 0.25
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as exc:
            norm_observer((2.0, 4.0))(st)
        assert exc.value.t == 0.25

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=hst.sampled_from([16, 32]), seed=hst.integers(0, 2**32 - 1),
           scale=hst.floats(1e-3, 1e3), m=hst.floats(0.0, 2.0),
           gamma=hst.floats(1e-2, 10.0))
    def test_matches_reference_functions(self, n, seed, scale, m, gamma):
        g = GridSpec(n, 2 * np.pi)
        st = random_state(g, seed, scale)
        s_u, s_b = (0.0, -0.5, 1.0), (0.0, 0.75, 1.5)
        row = norm_observer((2.0, 4.0), s_u, s_b, m=m, gamma=gamma)(st)
        for name, f in (("u", st.u_hat), ("b", st.b_hat)):
            mag = magnitude(grid_values(f))
            assert row[f"{name}_L2"] == pytest.approx(lq_norm(mag, g, 2), rel=1e-12)
            assert row[f"{name}_L4"] == lq_norm(mag, g, 4)
        # the observer sums |k|^(2s+2) |psi_hat|^2, the reference |k|^(2s) |u_hat|^2
        for s in s_u:
            assert row[f"u_H{s:g}"] == pytest.approx(sobolev_seminorm(st.u_hat, s), rel=1e-13)
        for s in s_b:
            assert row[f"b_H{s:g}"] == pytest.approx(sobolev_seminorm(st.b_hat, s), rel=1e-13)
        assert (row["X_m"], row["Y_m"], row["Z_m"]) == energy_functionals(st, m, gamma)

    def test_each_seminorm_sum_once_per_row(self, grid16, monkeypatch):
        # u_L2 is u_H0 and b_L2 is b_H0: the row takes 4 sums for 6 columns,
        # each the value a direct sum gives
        sums = []
        seminorm = diagnostics._perp_seminorm

        def counted(grid, power, s):
            sums.append(s)
            return seminorm(grid, power, s)

        monkeypatch.setattr(diagnostics, "_perp_seminorm", counted)
        st = random_state(grid16, 4)
        observe = norm_observer((2.0,), (0.0, 1.0), (0.0, 1.5))
        for _ in range(2):
            sums.clear()
            row = observe(st)
            assert sorted(sums) == [0.0, 0.0, 1.0, 1.5]
        for name, c in (("u", st.psi_hat), ("b", st.a_hat)):
            assert row[f"{name}_L2"] == row[f"{name}_H0"]
            assert row[f"{name}_H0"] == seminorm(grid16, diagnostics._power(c, grid16), 0.0)

    def test_energy_triple_only_with_m(self, grid16, monkeypatch):
        calls = []
        energy = diagnostics.energy_functionals

        def counted(*args, **kwargs):
            calls.append(1)
            return energy(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "energy_functionals", counted)
        st = random_state(grid16, 3)
        row = norm_observer((2.0, 4.0), (0.0, 1.0), (0.0, 1.5))(st)
        assert not {"X_m", "Y_m", "Z_m"} & set(row)
        assert calls == []
        row = norm_observer((2.0,), (0.0,), (0.0,), m=1.0, gamma=0.5)(st)
        assert {"X_m", "Y_m", "Z_m"} <= set(row)
        assert calls == [1]

    def test_negative_order_on_mean_free_state(self, grid16):
        # a mean flow has no stream function: the map to potentials drops it,
        # so negative orders are defined on every state
        c = random_divfree(grid16, 2).coeffs
        c[0, 0, 0] = 1.0
        st = state_from_vectors(SpectralVectorField(c, grid16), zero_field(grid16),
                                zero_field(grid16))
        assert np.all(st.u_hat.coeffs[:, 0, 0] == 0)
        row = norm_observer((2.0,), (-1.0,), (0.0,))(st)
        assert row["u_H-1"] == pytest.approx(sobolev_seminorm(st.u_hat, -1.0), rel=1e-13)


def test_abs_k_power_cached_read_only(grid16):
    table = grid16.abs_k_power(1.5)
    assert grid16.abs_k_power(1.5) is table
    with pytest.raises(ValueError):
        table[1, 1] = 0.0
