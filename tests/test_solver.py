import sys
import threading
import time
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as hst

from mhdwave import grid as grid_module, solver
from mhdwave.diagnostics import norm_observer
from mhdwave.errors import BlowUpError, ConfigurationError, StepSizeError
from mhdwave.grid import GridSpec
from mhdwave.initial import make_initial_data
from mhdwave.kernels import heat_weight, propagator_tables
from mhdwave.solver import (
    SolverConfig,
    State,
    run,
    step_exp,
)

from conftest import (
    SpectralVectorField,
    compute_nonlinear,
    dealias,
    divergence,
    grid_values,
    hermitian_error,
    leray_project,
    magnitude,
    meshgrid,
    random_divfree,
    random_spectral,
    random_state,
    single_mode_field,
    spectral_inner,
    spectral_l2,
    state_from_vectors,
    transform_forward,
    vector_nonlinear,
    zero_field,
)


def mode_state(grid, kindex, b_amp=1.0, u_amp=0.0, a_amp=0.0):
    return state_from_vectors(
        single_mode_field(grid, kindex, u_amp),
        single_mode_field(grid, kindex, b_amp),
        single_mode_field(grid, kindex, a_amp),
        0.0,
    )


def advective_reference(st):
    """(N_u, N_b) in advective form, composed from the public operators on
    the full spectrum: P(b.grad b - u.grad u) and b.grad u - u.grad b."""
    g = st.grid

    def values_and_gradients(f):
        grads = [grid_values(SpectralVectorField(
            np.stack([1j * g.kx * f.coeffs[i], 1j * g.ky * f.coeffs[i]])
            * g.nyquist_free, g)) for i in range(2)]
        return grid_values(f), grads

    def advect(a, grads):  # (a.grad) c from the gradients of c
        return np.stack([a[0] * grads[i][0] + a[1] * grads[i][1] for i in range(2)])

    u, du = values_and_gradients(st.u_hat)
    b, db = values_and_gradients(st.b_hat)
    n_u = leray_project(dealias(transform_forward(advect(b, db) - advect(u, du), g)))
    n_b = dealias(transform_forward(advect(b, du) - advect(u, db), g))
    n_u.coeffs[:, 0, 0] = 0
    n_b.coeffs[:, 0, 0] = 0
    return n_u, n_b


class TestNonlinear:
    def test_u_equals_b_kills_magnetic_term(self, grid16):
        u = random_divfree(grid16, 1)
        st = state_from_vectors(u, SpectralVectorField(u.coeffs.copy(), u.grid),
                                zero_field(grid16), 0.0)
        _, n_b = compute_nonlinear(st)
        assert np.max(np.abs(n_b.coeffs)) == 0.0

    def test_b_zero(self, grid16):
        u = random_divfree(grid16, 2)
        st = state_from_vectors(u, zero_field(grid16), zero_field(grid16), 0.0)
        n_u, n_b = compute_nonlinear(st)
        assert np.max(np.abs(n_b.coeffs)) == 0.0
        # N_u = -P(u.grad u): compare against an independent composition
        # of the public spectral operators
        ref, _ = advective_reference(st)
        assert np.max(np.abs(n_u.coeffs - ref.coeffs)) <= 1e-12 * np.max(np.abs(ref.coeffs))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=hst.sampled_from([16, 32]), seed=hst.integers(0, 2**32 - 1),
           scale=hst.floats(1e-3, 1e3))
    def test_divergence_form_properties(self, n, seed, scale):
        g = GridSpec(n, 2 * np.pi)
        st = random_state(g, seed, scale)
        n_u, n_b = compute_nonlinear(st)
        # matches the advective form built from the public operators
        ref_u, ref_b = advective_reference(st)
        for got, ref in ((n_u, ref_u), (n_b, ref_b)):
            assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-12 * np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(divergence(n_u))) <= 1e-12 * spectral_l2(n_u)
        assert np.all(n_u.coeffs[:, 0, 0] == 0) and np.all(n_b.coeffs[:, 0, 0] == 0)
        power = abs(spectral_inner(n_u, st.u_hat) + spectral_inner(n_b, st.b_hat))
        assert power <= 1e-12 * (spectral_l2(st.u_hat) + spectral_l2(st.b_hat)) ** 3

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=hst.sampled_from([16, 32]), seed=hst.integers(0, 2**32 - 1),
           scale=hst.floats(1e-3, 1e3))
    def test_matches_vector_divergence_form(self, n, seed, scale):
        # the scalar forcings, mapped to vectors, against the vector
        # divergence/curl form (8 transforms and the Leray algebra)
        st = random_state(GridSpec(n, 2 * np.pi), seed, scale)
        for got, ref in zip(compute_nonlinear(st), vector_nonlinear(st)):
            assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-13 * np.max(np.abs(ref.coeffs))

    def test_one_step_makes_seven_transforms(self, grid16, monkeypatch):
        # a 2D transform is one of numpy's axis-wise pairs: ifft along x then
        # irfft along y on the way in, rfft along y then fft along x on the
        # way out.  The x passes take whole columns, once per batch member;
        # the y passes take blocks of rows, so they count rows / n
        calls = {"ifft": 0, "irfft": 0, "rfft": 0, "fft": 0}
        other = []

        class Counting:
            """numpy.fft, counting the 2D transforms each 1D call makes up."""

            def __getattr__(self, name):
                fn = getattr(np.fft, name)
                if name not in calls:
                    other.append(name)
                    return fn

                def counted(x, *args, axis=-1, **kwargs):
                    shape = np.shape(x)
                    lines = int(np.prod(shape)) // shape[axis]
                    # a y pass transforms rows of the (n, n/2+1) or (n, n) plane
                    calls[name] += lines / (grid16.n if axis == -1 else shape[-1])
                    return fn(x, *args, axis=axis, **kwargs)

                return counted

        monkeypatch.setattr(solver, "_fft", Counting())
        cfg = SolverConfig(gamma=0.5, dt=0.01, t_end=0.01, grid=grid16)
        for rows in (1, 3, 5, 16):
            monkeypatch.setattr(solver, "_BLOCK_POINTS", rows * grid16.n)
            assert solver._Workspace(grid16).rows == rows
            calls.update(dict.fromkeys(calls, 0))
            step_exp(random_state(grid16, 3), cfg)
            assert other == []
            assert calls == {"ifft": 4, "irfft": 4, "rfft": 3, "fft": 3}, rows

    @pytest.mark.parametrize("n, rows", [(48, 20), (48, 1), (48, 47), (16, 5), (256, 64),
                                         (512, 32)])
    def test_row_blocks_match_one_block(self, n, rows, monkeypatch):
        # forcings and vmax are byte-equal at every block height, also with a
        # remainder block (48 = 2 x 20 + 8); 256 and 512 are the block
        # heights the grids get, against one block of n rows
        g = GridSpec(n, 2 * np.pi)
        if n <= 128:
            monkeypatch.setattr(solver, "_BLOCK_POINTS", rows * n)
        assert solver._Workspace(g).rows == rows
        for seed, scale in ((1, 2.0), (2, 1e-3), (3, 50.0)):
            st = random_state(g, seed, scale)
            *blocked, vmax = solver._nonlinear_terms(st)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "_BLOCK_POINTS", n * n)
                *one, vmax_one = solver._nonlinear_terms(st)
            assert repr(vmax) == repr(vmax_one)
            for got, ref in zip(blocked, one):
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("rows", [1, 20])
    def test_blowup_in_a_later_block(self, value, rows, monkeypatch):
        # a non-finite value confined to the last block is caught before that
        # block's forward transform, at the state's time, with no warning
        g = GridSpec(48, 2 * np.pi)
        monkeypatch.setattr(solver, "_BLOCK_POINTS", rows * g.n)
        irfft, heights = np.fft.irfft, []

        def poisoned(x, *args, out, **kwargs):
            irfft(x, *args, out=out, **kwargs)
            heights.append(out.shape[-2])
            if sum(heights) == g.n:  # the last block
                out[1, -1, 5] = value
            return out

        monkeypatch.setattr(solver, "_fft", types.SimpleNamespace(
            ifft=np.fft.ifft, irfft=poisoned, rfft=np.fft.rfft, fft=np.fft.fft))
        st = random_state(g, 8)
        st.t = 2.75
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as err:
                solver._nonlinear_terms(st)
        assert err.value.t == 2.75
        assert len(heights) == -(-g.n // rows) > 1

    @staticmethod
    def round_trip(spec, prod, keep, rows, monkeypatch):
        """The inverse of ``spec`` and the forward transform of ``prod`` that
        ``_row_blocks`` makes with blocks of ``rows`` rows."""
        n = prod.shape[-1]
        monkeypatch.setattr(solver, "_BLOCK_POINTS", rows * n)
        work = solver._Workspace(GridSpec(n, 2 * np.pi))
        assert work.rows == min(rows, n)
        work.spec[...] = spec
        inverse, done = np.empty((4, n, n)), 0
        for phys, block in solver._row_blocks(work, keep):
            inverse[:, done:done + len(phys[0])] = phys
            block[...] = prod[:, done:done + len(phys[0])]
            done += len(phys[0])
        assert done == n
        return inverse, work.spec[:3]

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=hst.sampled_from([8, 12, 16, 24, 48, 96]), seed=hst.integers(0, 2**32 - 1),
           rows=hst.integers(1, 96))
    def test_retained_inverse_is_irfft2(self, n, seed, rows):
        # byte-equal to scipy's irfft2 at every block height, also where n/3
        # is a whole number and the cutoff lands on a column index
        g = GridSpec(n, 2 * np.pi)
        keep = solver._velocity_table(g).shape[-1]
        assert g.dealias_mask[:, :keep].any(axis=0).all()
        assert not g.dealias_mask[:, keep:].any()
        rng = np.random.default_rng(seed)
        spec = (rng.standard_normal((4, n, g.half))
                + 1j * rng.standard_normal((4, n, g.half))) * g.dealias_mask
        ref = scipy.fft.irfft2(spec, s=(n, n), axes=(-2, -1))
        with pytest.MonkeyPatch.context() as mp:
            got, _ = self.round_trip(spec, np.zeros((3, n, n)), keep, rows, mp)
        assert got.tobytes() == ref.tobytes()

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=hst.sampled_from([8, 12, 16, 24, 48, 96]), seed=hst.integers(0, 2**32 - 1),
           rows=hst.integers(1, 96))
    def test_retained_forward_is_rfft2(self, n, seed, rows):
        # byte-equal to scipy's rfft2 on the retained columns, the only ones
        # the forcing tables do not zero, at every block height
        g = GridSpec(n, 2 * np.pi)
        keep = solver._velocity_table(g).shape[-1]
        assert not any(table[:, keep:].any() for table in solver._forcing_tables(g))
        prod = np.random.default_rng(seed).standard_normal((3, n, n))
        ref = scipy.fft.rfft2(prod, axes=(-2, -1))
        with pytest.MonkeyPatch.context() as mp:
            _, got = self.round_trip(np.zeros((4, n, g.half)), prod, keep, rows, mp)
        assert got.shape == ref.shape
        assert got[..., :keep].tobytes() == ref[..., :keep].tobytes()

    @pytest.mark.parametrize("n", [16, 32])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(draws=hst.lists(hst.tuples(hst.integers(0, 2**32 - 1), hst.floats(1e-3, 1e2)),
                           min_size=2, max_size=5))
    def test_reused_workspace_matches_fresh(self, n, draws):
        # one set of scratch arrays across several states in a row gives
        # bitwise the result of fresh arrays: no call reads a stale buffer
        g = GridSpec(n, 2 * np.pi)
        work = solver._Workspace(g)
        for seed, scale in draws:
            st = random_state(g, seed, scale)
            *reused, vmax_reused = solver._nonlinear_terms(st, work)
            *fresh, vmax_fresh = solver._nonlinear_terms(st)
            assert vmax_reused == vmax_fresh
            for got, ref in zip(reused, fresh):
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [16, 24, 48])
    def test_second_call_on_a_workspace_matches_fresh(self, n):
        # the forward transform writes the first call's forcings into the
        # workspace, past the 2/3 cutoff too, and the caller may overwrite
        # them; the second call zeroes those columns before its inverse
        g = GridSpec(n, 2 * np.pi)
        work = solver._Workspace(g)
        for f in solver._nonlinear_terms(random_state(g, 1, 2.0), work)[:2]:
            f[...] = np.nan
        st = random_state(g, 2, 0.5)
        *reused, vmax_reused = solver._nonlinear_terms(st, work)
        *fresh, vmax_fresh = solver._nonlinear_terms(st, solver._Workspace(g))
        assert repr(vmax_reused) == repr(vmax_fresh)
        for got, ref in zip(reused, fresh):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [16, 24, 48])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), scale=hst.floats(1e-3, 1e2))
    def test_forcings_match_full_rfft2(self, n, seed, scale):
        # the forcings equal those assembled from a full 2D transform of the
        # products; exact zeros past the cutoff may differ in sign only
        g = GridSpec(n, 2 * np.pi)
        st = random_state(g, seed, scale)
        *got, vmax = solver._nonlinear_terms(st)

        def full_transforms(work, keep):
            # one block of n rows, both ways through scipy's full 2D transforms
            phys = scipy.fft.irfft2(work.spec, s=(n, n), axes=(-2, -1))
            prod = np.empty((3, n, n))
            yield phys, prod
            work.spec[:3] = scipy.fft.rfft2(prod, axes=(-2, -1))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_row_blocks", full_transforms)
            *ref, vmax_ref = solver._nonlinear_terms(st)
        assert vmax == vmax_ref
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(n=hst.sampled_from([16, 24, 32]), seed=hst.integers(0, 2**32 - 1),
           scale=hst.floats(1e-3, 1e2))
    def test_forcings_see_only_the_retained_band(self, n, seed, scale):
        # the 2/3 rule on the input: the modes it drops do not reach u and b
        g = GridSpec(n, 2 * np.pi)
        psi, a = random_spectral(g, seed).coeffs * scale
        full = State(psi, a, random_spectral(g, seed + 1, ncomp=1).coeffs[0] * scale, g)
        assert np.any(full.psi_hat * ~g.dealias_mask != 0)
        cut = State(*(c * g.dealias_mask for c in (psi, a, full.at_hat)), g)
        for got, ref in zip(compute_nonlinear(full), compute_nonlinear(cut)):
            assert np.array_equal(got.coeffs, ref.coeffs)

    def test_linear_run_builds_no_workspace(self, grid16):
        linear = SolverConfig(gamma=0.5, dt=0.01, t_end=0.1, grid=grid16, nonlinear=False)
        assert solver._StepperCache(linear).work is None
        nonlinear = SolverConfig(gamma=0.5, dt=0.01, t_end=0.1, grid=grid16)
        assert solver._StepperCache(nonlinear).work.prod.shape == (3, 16, 16)

    def test_single_mode_pair_convolution(self, grid16):
        # two single modes: the advective products live on the four sum
        # wavevectors; verify against the hand convolution
        g = grid16
        u = single_mode_field(g, (1, 0), 1.0, component=1)   # u = (0, cos x)
        b = single_mode_field(g, (0, 1), 1.0, component=0)   # b = (cos y, 0)
        st = state_from_vectors(u, b, zero_field(g), 0.0)
        n_u, n_b = compute_nonlinear(st)
        # (b.grad)u = cos y d_x (0, cos x) = (0, -cos y sin x)
        # (u.grad)b = cos x d_y (cos y, 0) = (-cos x sin y, 0)
        # N_b = (cos x sin y, -sin x cos y)
        X, Y = meshgrid(g)
        expect = transform_forward(
            np.stack([np.cos(X) * np.sin(Y), -np.sin(X) * np.cos(Y)]), g)
        assert np.max(np.abs(n_b.coeffs - expect.coeffs)) < 1e-14

    def test_energy_cancellation_random_states(self, grid16):
        worst = 0.0
        for seed in range(100):
            st = random_state(grid16, seed)
            n_u, n_b = compute_nonlinear(st)
            s = abs(spectral_inner(n_u, st.u_hat) + spectral_inner(n_b, st.b_hat))
            scale = (spectral_l2(st.u_hat) + spectral_l2(st.b_hat)) ** 3
            worst = max(worst, s / scale)
        assert worst <= 1e-10

    def test_outputs_mean_free_divergence_free(self, grid16):
        st = random_state(grid16, 7)
        n_u, n_b = compute_nonlinear(st)
        assert np.all(n_u.coeffs[:, 0, 0] == 0) and np.all(n_b.coeffs[:, 0, 0] == 0)
        assert np.max(np.abs(divergence(n_u))) <= 1e-12 * spectral_l2(n_u)

    def test_blowup_detection_carries_time(self, grid16):
        st = random_state(grid16, 8)
        st.t = 2.75
        st.psi_hat[1, 1] = np.nan
        with pytest.raises(BlowUpError) as err:
            compute_nonlinear(st)
        assert err.value.t == 2.75


class TestStepExp:
    def test_zero_data_stays_zero(self, grid16):
        cfg = SolverConfig(gamma=0.5, dt=0.01, t_end=0.1, grid=grid16)
        st = state_from_vectors(zero_field(grid16), zero_field(grid16), zero_field(grid16))
        out = step_exp(st, cfg)
        assert np.all(out.u_hat.coeffs == 0) and np.all(out.b_hat.coeffs == 0)

    def test_single_mode_closed_form(self, grid16):
        # 100 steps at dt=0.01 against the one-shot propagator
        gamma, dt, steps = 0.5, 0.01, 100
        cfg = SolverConfig(gamma=gamma, dt=dt, t_end=steps * dt, grid=grid16,
                           nonlinear=False)
        st = mode_state(grid16, (1, 0), b_amp=1.0)
        traj = run(cfg, (st.u_hat, st.b_hat, st.bt_hat), keep_states=True)
        final = traj.states[-1]
        m = propagator_tables(gamma, 1.0, steps * dt)
        got_b = final.b_hat.coeffs[1, 1, 0]
        got_bt = final.bt_hat.coeffs[1, 1, 0]
        assert abs(got_b - m["m00"] * 0.5) <= 1e-10 * abs(m["m00"] * 0.5)
        assert abs(got_bt - m["m10"] * 0.5) <= 1e-10 * abs(m["m10"] * 0.5)

    def test_heat_row_exact(self, grid16):
        cfg = SolverConfig(gamma=1.0, dt=0.05, t_end=1.0, grid=grid16, nonlinear=False)
        u0 = single_mode_field(grid16, (1, 0), 2.0)
        traj = run(cfg, (u0, zero_field(grid16), zero_field(grid16)), keep_states=True)
        got = traj.states[-1].u_hat.coeffs[1, 1, 0]
        assert got == pytest.approx(np.exp(-1.0) * 1.0, rel=1e-12)

    def test_hermitian_and_divergence_preserved(self, grid16):
        cfg = SolverConfig(gamma=0.8, dt=0.01, t_end=0.5, grid=grid16)
        u0 = random_divfree(grid16, 20)
        b0 = random_divfree(grid16, 21)
        u0 = SpectralVectorField(u0.coeffs * 0.05, grid16)
        b0 = SpectralVectorField(b0.coeffs * 0.05, grid16)
        traj = run(cfg, (u0, b0, zero_field(grid16)), keep_states=True)
        for st in traj.states[-1:]:
            for f in (st.u_hat, st.b_hat, st.bt_hat):
                assert hermitian_error(f) <= 1e-13 * max(np.max(np.abs(f.coeffs)), 1e-30)
                if spectral_l2(f) > 0:
                    assert np.max(np.abs(divergence(f))) <= 1e-10 * spectral_l2(f)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_nonlinear_step_assembly(self, grid16, gamma):
        # one nonlinear step is the linear tables on the state plus the
        # weighted forcings, bit for bit; at gamma = 0 the A row takes the heat
        # tables, and the non-zero d_t A neither feeds A nor survives
        cfg = SolverConfig(gamma=gamma, dt=0.01, t_end=0.01, grid=grid16)
        st = random_state(grid16, 12, 0.5)
        assert np.any(st.at_hat != 0)
        f_psi, f_a, _ = solver._nonlinear_terms(st)
        heat_mult, heat_w = np.exp(-grid16.k2 * cfg.dt), heat_weight(grid16.k2, cfg.dt)
        if gamma > 0:
            tab = propagator_tables(gamma, grid16.k2, cfg.dt)
            a = tab["m00"] * st.a_hat + tab["m01"] * st.at_hat + tab["w"] * f_a
            at = tab["m10"] * st.a_hat + tab["m11"] * st.at_hat + tab["k1"] * f_a
        else:
            a, at = heat_mult * st.a_hat + heat_w * f_a, np.zeros_like(st.at_hat)
        psi = heat_mult * st.psi_hat + heat_w * f_psi
        out = step_exp(st, cfg)
        for got, expect in ((out.psi_hat, psi), (out.a_hat, a), (out.at_hat, at)):
            expect[0, 0] = 0.0
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 4.0])
    def test_first_order_self_convergence(self, gamma):
        # exponential Euler is first order: at an amplitude where the forcing
        # matters, halving dt halves the gap between successive final states
        g = GridSpec(32, 2 * np.pi)
        data = make_initial_data(
            "random_band", {"amplitude": 1.0, "k_max": 3.0, "seed": 3}, g)
        finals = []
        for dt in (0.02, 0.01, 0.005):
            cfg = SolverConfig(gamma=gamma, dt=dt, t_end=1.0, grid=g, snapshot_every=1000)
            st = run(cfg, data, keep_states=True).states[-1]
            finals.append(np.concatenate([st.psi_hat, st.a_hat, st.at_hat]))
        gaps = [np.linalg.norm(x - y) for x, y in zip(finals, finals[1:])]
        assert 1.8 <= gaps[0] / gaps[1] <= 2.3


class TestMhdBaseline:
    def test_single_mode_heat(self, grid16):
        cfg = SolverConfig(gamma=0.0, dt=0.05, t_end=1.0, grid=grid16, nonlinear=False)
        # b = (-cos(x + y), cos(x + y)), divergence-free
        b0 = SpectralVectorField(single_mode_field(grid16, (1, 1), 1.0).coeffs
                                 - single_mode_field(grid16, (1, 1), 1.0, component=0).coeffs,
                                 grid16)
        traj = run(cfg, (zero_field(grid16), b0, zero_field(grid16)), keep_states=True)
        got = traj.states[-1].b_hat.coeffs[1, 1, 1]
        assert got == pytest.approx(0.5 * np.exp(-2.0), rel=1e-12)

    def test_taylor_green_b_stays_zero(self):
        g = GridSpec(32, 2 * np.pi)
        u0 = make_initial_data("taylor_green", {"amplitude": 0.1}, g).u_hat
        cfg = SolverConfig(gamma=0.0, dt=0.01, t_end=0.5, grid=g)
        traj = run(cfg, (u0, zero_field(g), zero_field(g)), keep_states=True)
        final = traj.states[-1]
        assert spectral_l2(final.b_hat) == 0.0
        assert spectral_l2(final.u_hat) < spectral_l2(u0)

    def test_small_gamma_exp_matches_baseline(self, grid16):
        data = make_initial_data(
            "random_band", {"amplitude": 0.05, "k_max": 3.0, "seed": 9}, grid16
        )
        finals = {}
        for gamma in (1e-4, 0.0):
            cfg = SolverConfig(gamma=gamma, dt=0.01, t_end=1.0, grid=grid16)
            traj = run(cfg, data, keep_states=True)
            finals[gamma] = traj.states[-1]
        gap = spectral_l2(SpectralVectorField(
            finals[1e-4].b_hat.coeffs - finals[0.0].b_hat.coeffs, grid16))
        assert gap <= 1e-2 * spectral_l2(finals[0.0].b_hat)

    def test_smallest_normal_gamma_matches_baseline(self, grid16):
        # at gamma = tiny the damped-wave tables reduce to the heat tables: psi
        # and A, and so every norm of u and b, are those of the gamma = 0 run
        data = make_initial_data("random_band", {"amplitude": 0.05, "seed": 1}, grid16)
        obs = norm_observer((2.0, 4.0), (0.0, 1.0), (0.0, 1.5))
        runs = {}
        for gamma in (0.0, np.finfo(float).tiny):
            cfg = SolverConfig(gamma=gamma, dt=0.01, t_end=0.02, grid=grid16)
            final = []
            traj = run(cfg, data, obs, checkpoint_every=2, checkpoint_sink=final.append)
            runs[gamma] = traj.snapshots, final[0]
        (snaps0, final0), (snaps, final) = runs.values()
        assert snaps == snaps0
        np.testing.assert_array_equal(final.psi_hat, final0.psi_hat)
        np.testing.assert_array_equal(final.a_hat, final0.a_hat)


class TestRun:
    def test_traced_peak_within_the_memory_guard(self):
        # a short nonlinear run at n = 256, four row blocks, as simulate runs
        # it with more: the grid and the initial data built in the trace, the
        # norm observer with the energy triple and an L4 norm, a checkpoint
        # every step, and a sink that keeps each state until its next call
        # and lags the stepping, so that four states are alive at once.  What
        # the run allocates stays within the bytes per point GridSpec checks
        # n by, with what that count leaves out: the n more entries of each
        # half-spectrum array, the row blocks' scratch and 64 KiB of Python
        # objects (rows, futures)
        held = []

        def sink(state):
            time.sleep(0.05)
            held[:] = [state]

        observer = norm_observer((2.0, 4.0), (0.0, 1.0), (0.0, 1.0), m=1.0)
        tracemalloc.start()
        try:
            g = GridSpec(256, 32 * np.pi)
            data = make_initial_data("random_band",
                                     {"amplitude": 0.05, "k_max": 0.8, "seed": 5}, g)
            cfg = SolverConfig(gamma=1.0, dt=0.1, t_end=0.4, grid=g)
            run(cfg, data, observer, checkpoint_every=1, checkpoint_sink=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work = solver._Workspace(g)
        assert work.rows < g.n
        assert len(held) == 1 and held[0].t == cfg.t_end
        bound = grid_module._BYTES_PER_POINT * g.n * (g.n + 2) + work.phys.nbytes + work.prod.nbytes
        assert peak <= bound + 2**16

    def test_t_end_zero_single_snapshot(self, grid16):
        cfg = SolverConfig(gamma=1.0, dt=0.1, t_end=0.0, grid=grid16)
        u0 = random_divfree(grid16, 30)
        traj = run(cfg, (u0, u0, u0), observer=lambda s: {"n": spectral_l2(s.u_hat)})
        assert traj.times == [0.0]
        assert len(traj.snapshots) == 1

    def test_determinism(self, grid16):
        data = make_initial_data(
            "random_band", {"amplitude": 0.05, "k_max": 3.0, "seed": 4}, grid16
        )
        cfg = SolverConfig(gamma=0.5, dt=0.01, t_end=0.5, grid=grid16)
        obs = lambda s: {"e": spectral_l2(s.u_hat) ** 2 + spectral_l2(s.b_hat) ** 2}
        t1 = run(cfg, data, obs)
        t2 = run(cfg, data, obs)
        assert t1.snapshots == t2.snapshots  # bitwise-identical diagnostics

    def test_cfl_violation_aborts(self, grid16):
        data = make_initial_data(
            "random_band", {"amplitude": 50.0, "k_max": 3.0, "seed": 5}, grid16
        )
        cfg = SolverConfig(gamma=0.5, dt=0.05, t_end=1.0, grid=grid16)
        with pytest.raises(StepSizeError):
            run(cfg, data)

    def test_cfl_uses_pointwise_speed(self, grid16):
        # u = a (cos y, cos x) has max|u_i| = a but max|u| = a sqrt(2) at the
        # origin, so the limit is 0.8 (L/n) / (a sqrt(2)) = 0.0222 and not 0.0314
        a = 10.0
        u0 = SpectralVectorField(single_mode_field(grid16, (0, 1), a, component=0).coeffs
                                 + single_mode_field(grid16, (1, 0), a, component=1).coeffs,
                                 grid16)
        initial = (u0, zero_field(grid16), zero_field(grid16))
        run(SolverConfig(gamma=1.0, dt=0.02, t_end=0.02, grid=grid16), initial)
        with pytest.raises(StepSizeError):
            run(SolverConfig(gamma=1.0, dt=0.025, t_end=0.025, grid=grid16), initial)

    def test_energy_monotone_under_exp_integrator(self, grid16):
        data = make_initial_data(
            "random_band", {"amplitude": 0.05, "k_max": 3.0, "seed": 6}, grid16
        )
        cfg = SolverConfig(gamma=0.0, dt=0.01, t_end=1.0, grid=grid16)
        obs = lambda s: {"u2": spectral_l2(s.u_hat)}
        traj = run(cfg, data, obs)
        vals = traj.series("u2")
        assert np.all(np.diff(vals) <= 1e-14)

    @pytest.mark.parametrize("as_state", [True, False], ids=["state", "vectors"])
    def test_initial_grid_must_match_config(self, grid16, grid32, as_state):
        st = random_state(grid16, 9)
        initial = st if as_state else (st.u_hat, st.b_hat, st.bt_hat)
        cfg = SolverConfig(gamma=0.5, dt=0.01, t_end=0.1, grid=grid32)
        with pytest.raises(ConfigurationError, match="grid.n"):
            run(cfg, initial)

    @pytest.mark.parametrize("gammas", [[0.25, 0.5, 1.0, 2.0], [0.0, 0.25, 0.5, 1.0]],
                             ids=["exp_integrator", "mhd_baseline"])
    def test_concurrent_runs_match_sequential(self, grid16, gammas):
        # each run owns its scratch arrays: more threads than cores, switching
        # often, must reproduce the sequential final states bit for bit, with
        # damped-wave tables only, then the gamma = 0 tables beside them
        data = make_initial_data(
            "random_band", {"amplitude": 0.05, "k_max": 3.0, "seed": 11}, grid16)

        def final(gamma):
            cfg = SolverConfig(gamma=gamma, dt=0.01, t_end=1.0, grid=grid16, snapshot_every=100)
            st = run(cfg, data, keep_states=True).states[-1]
            return st.psi_hat.tobytes() + st.a_hat.tobytes() + st.at_hat.tobytes()

        expect = [final(g) for g in gammas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(gammas)) as pool:
                got = list(pool.map(final, gammas, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == expect

    @pytest.mark.parametrize("field,path", [
        ("gamma", "physics.gamma"), ("dt", "time.dt"), ("t_end", "time.t_end"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, grid16, field, path, value):
        kw = dict(dict(gamma=1.0, dt=0.1, t_end=1.0, grid=grid16), **{field: value})
        with pytest.raises(ConfigurationError, match=path):
            SolverConfig(**kw)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-310, np.nextafter(np.finfo(float).tiny, 0)])
    def test_subnormal_gamma_rejected(self, grid16, gamma):
        # the kernels' 1/(2 gamma) overflows below the smallest normal float
        with pytest.raises(ConfigurationError, match=r"physics.gamma: gamma must be 0 or in \["):
            SolverConfig(gamma=gamma, dt=0.1, t_end=1.0, grid=grid16)
        SolverConfig(gamma=np.finfo(float).tiny, dt=0.1, t_end=1.0, grid=grid16)

    def test_small_amplitude_run_stays_bounded(self, grid16):
        # sup_t of the energy functional never exceeds its initial value by
        # more than a small reported factor (no growth for small data)
        gamma, m = 0.5, 1.0
        data = make_initial_data(
            "random_band", {"amplitude": 0.05, "k_max": 3.0, "seed": 13}, grid16
        )
        cfg = SolverConfig(gamma=gamma, dt=0.01, t_end=2.0, grid=grid16)
        obs = norm_observer((2.0,), (m,), (m,), m=m, gamma=gamma)
        traj = run(cfg, data, obs)
        x = traj.series("X_m")
        factor = float(np.max(x) / x[0])
        assert factor <= 1.05
        hm_u = traj.series(f"u_H{m:g}") ** 2
        assert np.max(hm_u) <= 1.05 * x[0]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=hst.sampled_from([16, 32]), seed=hst.integers(0, 2**32 - 1),
       scale=hst.sampled_from([0.05, 0.5]), lam=hst.sampled_from([0.5, 2.0, 4.0]),
       gamma=hst.one_of(hst.just(0.0), hst.floats(-2.0, 2.0).map(lambda e: 10.0**e)),
       nonlinear=hst.booleans())
def test_parabolic_scaling_is_bitwise(n, seed, scale, lam, gamma, nonlinear):
    # x -> x / lam, t -> t / lam^2 maps the system at gamma on a box L to the
    # system at gamma / lam^2 on the box L / lam: on the same lattice psi_hat
    # and A_hat keep their arrays and d_t A_hat is lam^2 times its array.  At
    # a power of two lam every table, transform and product scales exactly.
    # The speed on the box L / lam is lam times vmax; dt is inside both CFL
    # limits, where the floor max(1, vmax) does not enter.
    grid, small = GridSpec(n, 4 * np.pi), GridSpec(n, 4 * np.pi / lam)
    st = random_state(grid, seed, scale)
    vmax = sum(float(np.max(magnitude(grid_values(f)))) for f in (st.u_hat, st.b_hat))
    dt = 0.4 * grid.box_length / n * min(1.0 / max(1.0, vmax), lam / max(1.0, lam * vmax))
    runs = []
    for cfg, initial in (
            (SolverConfig(gamma=gamma, dt=dt, t_end=4 * dt, grid=grid, nonlinear=nonlinear),
             st),
            (SolverConfig(gamma=gamma / lam**2, dt=dt / lam**2, t_end=4 * dt / lam**2,
                          grid=small, nonlinear=nonlinear),
             State(st.psi_hat, st.a_hat, lam**2 * st.at_hat, small))):
        last = []
        run(cfg, initial, checkpoint_every=4, checkpoint_sink=last.append)
        runs.append(last[-1])
    big, mapped = runs
    assert mapped.t == big.t / lam**2
    assert np.array_equal(mapped.psi_hat, big.psi_hat)
    assert np.array_equal(mapped.a_hat, big.a_hat)
    assert np.array_equal(mapped.at_hat, lam**2 * big.at_hat)


class TestState:
    def test_vector_round_trip(self, grid32):
        fields = [random_divfree(grid32, seed) for seed in (1, 2, 3)]
        st = state_from_vectors(*fields)
        for f, view in zip(fields, (st.u_hat, st.b_hat, st.bt_hat)):
            assert np.max(np.abs(view.coeffs - f.coeffs)) <= 1e-15 * np.max(np.abs(f.coeffs))

    def test_vector_map_projects(self, grid16):
        # the map to potentials keeps the divergence-free, mean-free part
        f = random_spectral(grid16, 4)
        u = state_from_vectors(f, zero_field(grid16), zero_field(grid16)).u_hat
        p = leray_project(f)
        p.coeffs[:, 0, 0] = 0.0
        assert np.max(np.abs(u.coeffs - p.coeffs)) <= 1e-15 * np.max(np.abs(p.coeffs))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=hst.sampled_from([8, 16, 32]), box_length=hst.floats(0.1, 100.0),
           seed=hst.integers(0, 2**16), scale=hst.floats(1e-8, 1e8))
    def test_vector_map_inverts_the_views(self, n, box_length, seed, scale):
        # on mean-free, dealiased states the map of run's vector branch
        # undoes grad^perp to round-off
        st = random_state(GridSpec(n, box_length), seed, scale)
        back = state_from_vectors(st.u_hat, st.b_hat, st.bt_hat)
        for a, b in ((st.psi_hat, back.psi_hat), (st.a_hat, back.a_hat),
                     (st.at_hat, back.at_hat)):
            assert np.max(np.abs(b - a)) <= 1e-15 * np.max(np.abs(a))

    def test_views_read_only(self, grid16):
        st = random_state(grid16, 5)
        for view in (st.u_hat, st.b_hat, st.bt_hat):
            assert view.coeffs.shape == (2, 16, 9)
            with pytest.raises(ValueError):
                view.coeffs *= 2.0

    def test_wrong_shape_rejected(self, grid16):
        with pytest.raises(ConfigurationError):
            State(np.zeros((16, 16), complex), np.zeros((16, 9), complex),
                  np.zeros((16, 9), complex), grid16)

    def test_run_accepts_state(self, grid16):
        # a state steps from its own time: t = 3.0 to 3.1 is the run of the
        # vector triple from 0 to 0.1, bit for bit, on a shifted clock
        data = make_initial_data(
            "random_band", {"amplitude": 0.05, "k_max": 3.0, "seed": 7}, grid16)
        fields = (data.u_hat, data.b_hat, data.bt_hat)
        cfg = SolverConfig(gamma=0.5, dt=0.01, t_end=0.1, grid=grid16)
        by_fields = run(cfg, fields, keep_states=True)
        start = state_from_vectors(*fields, t=3.0)
        by_state = run(replace(cfg, t_end=3.1), start, keep_states=True)
        assert by_fields.times[-1] == 0.1
        assert by_state.times[-1] == by_state.states[-1].t == 3.1
        assert len(by_state.times) == len(by_fields.times) == 11
        for a, b in ((by_fields.states[-1].psi_hat, by_state.states[-1].psi_hat),
                     (by_fields.states[-1].a_hat, by_state.states[-1].a_hat),
                     (by_fields.states[-1].at_hat, by_state.states[-1].at_hat)):
            assert np.array_equal(a, b)


class SinkError(Exception):
    pass


class Interrupt(BaseException):
    pass


class TestCheckpointSink:
    """``run`` hands each checkpoint to its writer thread and steps on."""

    @staticmethod
    def config(grid, t_end=0.2):
        return SolverConfig(gamma=0.5, dt=0.01, t_end=t_end, grid=grid)

    @staticmethod
    def data(grid):
        return make_initial_data("random_band", {"amplitude": 0.05, "k_max": 3.0, "seed": 8},
                                 grid)

    def test_every_multiple_in_order(self, grid16):
        seen = []
        run(self.config(grid16), self.data(grid16), checkpoint_every=3,
            checkpoint_sink=lambda st: seen.append(st.t))
        assert seen == [i * 0.01 for i in range(3, 21, 3)]

    def test_calls_never_overlap(self, grid16):
        # the observer stays on the caller's thread; the sink runs on another
        active, peak, threads = [0], [0], set()
        observer_threads = set()

        def sink(st):
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            threads.add(threading.get_ident())
            time.sleep(0.002)
            active[0] -= 1

        def observer(st):
            observer_threads.add(threading.get_ident())
            return {}

        run(self.config(grid16), self.data(grid16), observer, checkpoint_every=1,
            checkpoint_sink=sink)
        assert peak[0] == 1
        assert observer_threads == {threading.get_ident()}
        assert threading.get_ident() not in threads

    def test_handed_state_is_never_changed(self, grid16):
        # the run steps on while the sink sleeps: the state's bytes after the
        # sleep are those of the snapshot taken when it was handed over
        late = []

        def sink(st):
            time.sleep(0.003)
            late.append((st.t, st.psi_hat.tobytes() + st.a_hat.tobytes()
                         + st.at_hat.tobytes()))

        traj = run(self.config(grid16), self.data(grid16), keep_states=True,
                   checkpoint_every=2, checkpoint_sink=sink)
        kept = {st.t: st.psi_hat.tobytes() + st.a_hat.tobytes() + st.at_hat.tobytes()
                for st in traj.states}
        assert len(late) == 10
        for t, raw in late:
            assert raw == kept[t]

    def test_last_call_done_when_run_returns(self, grid16):
        done = []

        def sink(st):
            time.sleep(0.05)
            done.append(st.t)

        run(self.config(grid16), self.data(grid16), checkpoint_every=10, checkpoint_sink=sink)
        assert done == [0.1, 0.2]

    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_failing_call_is_raised_and_is_the_last(self, grid16, k):
        calls = []

        def sink(st):
            calls.append(st.t)
            if len(calls) == k:
                raise SinkError(k)

        with pytest.raises(SinkError):
            run(self.config(grid16), self.data(grid16), checkpoint_every=1,
                checkpoint_sink=sink)
        # a call after the failed one would have landed by now
        time.sleep(0.01)
        assert len(calls) == k

    def test_sink_error_before_later_step_error(self, grid16, monkeypatch):
        # step 2 fails while the sink call of step 1 is still in flight
        step = solver._STEPPERS["exp_integrator"]
        steps = []

        def failing_step(state, config, cache):
            steps.append(state.t)
            if len(steps) == 2:
                raise StepSizeError("step 2", t=state.t)
            return step(state, config, cache)

        def sink(st):
            time.sleep(0.05)
            raise SinkError(st.t)

        monkeypatch.setitem(solver._STEPPERS, "exp_integrator", failing_step)
        with pytest.raises(SinkError):
            run(self.config(grid16), self.data(grid16), checkpoint_every=1,
                checkpoint_sink=sink)
        assert len(steps) == 2

    def test_sink_error_before_later_observer_error(self, grid16):
        rows = []

        def observer(st):
            rows.append(st.t)
            if len(rows) == 3:  # the row of step 2
                raise ValueError("observer")
            return {}

        def sink(st):
            time.sleep(0.05)
            raise SinkError(st.t)

        with pytest.raises(SinkError):
            run(self.config(grid16), self.data(grid16), observer, checkpoint_every=1,
                checkpoint_sink=sink)
        assert len(rows) == 3

    def test_interrupt_leaves_no_writer_thread(self, grid16, monkeypatch):
        step = solver._STEPPERS["exp_integrator"]
        steps = []

        def interrupted(state, config, cache):
            steps.append(state.t)
            if len(steps) == 4:
                raise Interrupt
            return step(state, config, cache)

        before = threading.active_count()
        monkeypatch.setitem(solver._STEPPERS, "exp_integrator", interrupted)
        with pytest.raises(Interrupt):
            run(self.config(grid16), self.data(grid16), checkpoint_every=1,
                checkpoint_sink=lambda st: time.sleep(0.01))
        assert threading.active_count() == before
