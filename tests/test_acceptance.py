"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The decay experiments
(criteria 7-9) integrate a 256^2 box for three gammas to t = 26, the end of
their fit window: a later snapshot enters no fit, so stepping on would
change no asserted value.  Each criterion takes seconds.
"""

import math
import time

import numpy as np
import pytest

from mhdwave.cli import main as cli_main
from mhdwave.decay import (
    DecayExperimentConfig,
    run_decay_experiment,
    singular_limit_experiment,
    verify_expintegral,
)
from mhdwave.diagnostics import linear_energy_residual, norm_observer
from mhdwave.grid import GridSpec
from mhdwave.initial import make_initial_data
from mhdwave.kernels import kernel_pair, propagator_tables
from mhdwave.checkpoint import load_checkpoint, save_checkpoint
from mhdwave.solver import SolverConfig, run

from conftest import (
    SpectralVectorField,
    compute_nonlinear,
    dealias,
    expand_half_spectrum,
    leray_project,
    propagator_matrix,
    random_state,
    single_mode_field,
    spectral_inner,
    spectral_l2,
    zero_field,
)


def _report(cid: str, name: str, ok: bool, detail: str) -> None:
    print(f"[{cid}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid} {name}: {detail}"


# --------------------------------------------------------------------------
# expensive shared runs


def _acceptance_decay_config(gamma: float) -> DecayExperimentConfig:
    return DecayExperimentConfig(
        grid=GridSpec(256, 32 * np.pi), gamma=gamma, dt=0.1, t_end=26.0,
        family="random_band",
        params={"amplitude": 0.05, "k_max": 0.8, "seed": 11},
        q_list=(2.0,), s_list_u=(0.0, 1.0), s_list_b=(0.0, 1.5),
        m=1.0, window=(5.0, 26.0), snapshot_every=2,
    )


@pytest.fixture(scope="module")
def decay_results():
    return {g: run_decay_experiment(_acceptance_decay_config(g))
            for g in (1.0, 0.5, 0.25)}


# --------------------------------------------------------------------------
# criteria


def test_c01_kernel_exactness(grid16):
    gamma, dt, steps = 0.5, 0.01, 100
    b0 = single_mode_field(grid16, (1, 0), 1.0)
    z = zero_field(grid16)
    cfg = SolverConfig(gamma=gamma, dt=dt, t_end=steps * dt, grid=grid16,
                       nonlinear=False)
    run(cfg, (z, b0, z))  # warm the transform and table caches
    t0 = time.perf_counter()
    traj = run(cfg, (z, b0, z), keep_states=True)
    elapsed = time.perf_counter() - t0
    final = traj.states[-1]
    m = propagator_tables(gamma, 1.0, steps * dt)
    rel_b = abs(final.b_hat.coeffs[1, 1, 0] - 0.5 * m["m00"]) / abs(0.5 * m["m00"])
    rel_bt = abs(final.bt_hat.coeffs[1, 1, 0] - 0.5 * m["m10"]) / abs(0.5 * m["m10"])
    err = max(rel_b, rel_bt)
    _report("C01", "kernel exactness", err <= 1e-10 and elapsed < 1.0,
            f"rel err {err:.2e}, runtime {elapsed:.3f}s")


def test_c02_kernel_ode_residual():
    h = 1e-4
    stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    worst = 0.0
    count = 0
    for gamma in (0.05, 0.25, 1.0, 4.0):
        k2s = list(np.geomspace(1e-3, 50.0, 16))
        k2s += [(1 - 1e-7) / (4 * gamma), (1 + 1e-7) / (4 * gamma)]  # |D| < 1e-6
        for k2 in k2s:
            for t in np.linspace(1e-3 + 2 * h, 3.0, 14):
                K0s, K1s = kernel_pair(gamma, k2, t + stencil)
                for f in (K0s, K1s):
                    d1 = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
                    d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h**2)
                    worst = max(worst, abs(gamma * d2 + d1 + k2 * f[2]) / max(1.0, k2))
                count += 1
    _report("C02", "kernel ODE residual", worst <= 1e-6 and count >= 1000,
            f"max residual {worst:.2e} over {count} (gamma,k2,t) points")


def test_c03_propagator_semigroup():
    rng = np.random.default_rng(7)
    worst_sg = worst_det = 0.0
    for _ in range(50):
        gamma = 10 ** rng.uniform(-0.7, 0.5)
        k2 = 10 ** rng.uniform(-2, 1)
        d1, d2 = 10 ** rng.uniform(-2, -0.3, 2)
        p = propagator_matrix(gamma, k2, d1) @ propagator_matrix(gamma, k2, d2)
        m = propagator_matrix(gamma, k2, d1 + d2)
        worst_sg = max(worst_sg, np.max(np.abs(p - m)) / np.max(np.abs(m)))
        det_ref = math.exp(-(d1 + d2) / gamma)
        worst_det = max(worst_det, abs(np.linalg.det(m) - det_ref) / det_ref)
    _report("C03", "propagator semigroup", worst_sg <= 1e-10 and worst_det <= 1e-10,
            f"semigroup {worst_sg:.2e}, det {worst_det:.2e}")


def test_c04_heat_limit():
    t = np.linspace(0.0, 5.0, 2001)
    heat = np.exp(-t)
    sups = []
    gamma = 0.1
    while gamma > 0.99e-4:
        K0, K1 = kernel_pair(gamma, 1.0, t)
        sups.append(np.max(np.abs(K0 + 0.5 * K1 - heat)))
        gamma /= 2
    ratios = np.array(sups[1:]) / np.array(sups[:-1])
    ok = bool(np.all((ratios >= 0.4) & (ratios <= 0.6)))
    _report("C04", "heat limit first order in gamma", ok,
            f"halving ratios in [{ratios.min():.3f}, {ratios.max():.3f}]")


def test_c05_linear_energy_identity():
    g = GridSpec(16, 2 * np.pi)
    gamma, dt = 0.5, 2e-3
    data = make_initial_data(
        "random_band",
        {"amplitude": 1.0, "k_min": 0.9, "k_max": 2.1, "seed": 3, "a0_amplitude": 0.5},
        g,
    )
    cfg = SolverConfig(gamma=gamma, dt=dt, t_end=1.0, grid=g, nonlinear=False)
    obs = norm_observer((2.0,), (0.0,), (0.0,), m=1.0, gamma=gamma)
    traj = run(cfg, data, obs)
    resid = np.max(np.abs(linear_energy_residual(traj, gamma, 1.0)))
    _report("C05", "linear energy identity", resid <= 1e-8,
            f"max relative residual {resid:.2e} per step (multi-mode run)")


def _brute_force_nonlinear(state):
    """Integer-index convolution of the advective terms, then projection."""
    g = state.grid
    n = g.n
    idx = np.fft.fftfreq(n, 1.0 / n).astype(int)
    k1 = g.k1d

    def conv_adv(a_hat, f_hat):
        out = np.zeros((2, n, n), dtype=complex)
        supp_a = [(i, j) for i in range(n) for j in range(n)
                  if abs(a_hat[0, i, j]) + abs(a_hat[1, i, j]) > 0]
        supp_f = [(i, j) for i in range(n) for j in range(n)
                  if abs(f_hat[0, i, j]) + abs(f_hat[1, i, j]) > 0]
        for i1, j1 in supp_a:
            for i2, j2 in supp_f:
                s1, s2 = idx[i1] + idx[i2], idx[j1] + idx[j2]
                if abs(s1) >= n // 2 or abs(s2) >= n // 2:
                    continue
                adotq = (a_hat[0, i1, j1] * 1j * k1[i2]
                         + a_hat[1, i1, j1] * 1j * k1[j2])
                out[0, s1 % n, s2 % n] += adotq * f_hat[0, i2, j2]
                out[1, s1 % n, s2 % n] += adotq * f_hat[1, i2, j2]
        return out

    ku = expand_half_spectrum(state.u_hat.coeffs, n)
    kb = expand_half_spectrum(state.b_hat.coeffs, n)
    nu = conv_adv(kb, kb) - conv_adv(ku, ku)
    nb = conv_adv(kb, ku) - conv_adv(ku, kb)
    n_u = leray_project(dealias(SpectralVectorField(nu[:, :, : g.half], g)))
    n_u.coeffs[:, 0, 0] = 0.0
    n_b = dealias(SpectralVectorField(nb[:, :, : g.half], g))
    n_b.coeffs[:, 0, 0] = 0.0
    return n_u, n_b


def test_c06_nonlinear_cancellation_and_oracle(grid16):
    worst = 0.0
    for seed in range(100):
        st = random_state(grid16, seed)
        n_u, n_b = compute_nonlinear(st)
        s = abs(spectral_inner(n_u, st.u_hat) + spectral_inner(n_b, st.b_hat))
        scale = (spectral_l2(st.u_hat) + spectral_l2(st.b_hat)) ** 3
        worst = max(worst, s / scale)

    st = random_state(grid16, 1234)
    n_u, n_b = compute_nonlinear(st)
    ref_u, ref_b = _brute_force_nonlinear(st)
    mask = grid16.dealias_mask
    err_u = np.max(np.abs((n_u.coeffs - ref_u.coeffs) * mask)) / np.max(np.abs(ref_u.coeffs))
    err_b = np.max(np.abs((n_b.coeffs - ref_b.coeffs) * mask)) / np.max(np.abs(ref_b.coeffs))
    ok = worst <= 1e-10 and err_u <= 1e-12 and err_b <= 1e-12
    _report("C06", "nonlinear cancellation + convolution oracle", ok,
            f"cancellation {worst:.2e}, oracle errs {err_u:.2e}/{err_b:.2e}")


def test_c07_decay_exponents(decay_results):
    res = decay_results[1.0]
    checks = [
        ("u_L2", -0.5, 0.15),
        ("b_L2", -0.5, 0.15),
        ("u_H1", -1.0, 0.20),
    ]
    details = []
    ok = True
    for norm_id, theory, tol in checks:
        fit = res.comparison(norm_id).fit
        details.append(f"{norm_id}: {fit.exponent:+.3f} vs {theory:+.2f} +- {tol}")
        ok = ok and abs(fit.exponent - theory) <= tol
    _report("C07", "decay exponents at desk scale", ok, "; ".join(details))


def test_c08_b_higher_order_decay(decay_results):
    fit = decay_results[1.0].comparison("b_H1.5").fit
    ok = abs(fit.exponent - (-1.25)) <= 0.25
    _report("C08", "b-only higher-order decay", ok,
            f"b_H1.5 exponent {fit.exponent:+.3f} vs -1.25 +- 0.25")


def test_c09_gamma_sweep_stability(decay_results):
    exps = [decay_results[g].comparison("u_L2").fit.exponent for g in (0.25, 0.5, 1.0)]
    spread = max(exps) - min(exps)
    _report("C09", "gamma-sweep exponent stability", spread <= 0.1,
            f"u_L2 exponents {[f'{e:+.3f}' for e in exps]}, spread {spread:.3f}")


def test_c10_singular_limit():
    cfg = DecayExperimentConfig(
        grid=GridSpec(128, 16 * np.pi), gamma=1.0, dt=0.02, t_end=5.0,
        family="random_band", params={"amplitude": 0.05, "k_max": 2.0, "seed": 21},
    )
    gs, errs = singular_limit_experiment([0.1, 0.05, 0.025], 5.0, cfg)
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    ok = all(e2 < e1 for e1, e2 in zip(errs, errs[1:])) and all(r <= 0.7 for r in ratios)
    _report("C10", "singular limit gamma -> 0", ok,
            f"e(gamma) = {[f'{e:.3e}' for e in errs]}, ratios {[f'{r:.3f}' for r in ratios]}")


def test_c11_exponential_integral_lemma():
    # R in (0.1, 1, 10), kappa in (0.5, 1, 2), t in (1, 10, 100), 64 panels
    rep = verify_expintegral()
    finite = all(np.isfinite(v) for v in rep.c_emp.values())
    drift = max(abs(rep.c_emp_refined[k] - v) / v for k, v in rep.c_emp.items())
    ok = finite and rep.stable()
    cases = ", ".join(f"{k[0]}/{k[1]}={v:.3f}" for k, v in sorted(rep.c_emp.items()))
    _report("C11", "integral-inequality constants", ok,
            f"refinement drift {drift:.2e}; C_emp: {cases}")


def test_c12_determinism_and_checkpoint(tmp_path):
    import json

    doc = {
        "grid": {"n": 32, "box_length": "4*pi"},
        "physics": {"gamma": 1.0},
        "time": {"dt": 0.02, "t_end": 0.5, "snapshot_every": 5},
        "initial_data": {"family": "random_band", "amplitude": 0.05,
                         "k_max": 2.0, "seed": 7},
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = cli_main(["simulate", "--config", str(cfgp), "--output", str(out1)])
    rc2 = cli_main(["simulate", "--config", str(cfgp), "--output", str(out2)])
    identical = (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    g = GridSpec(32, 4 * np.pi)
    data = make_initial_data(
        "random_band", {"amplitude": 0.05, "k_max": 2.0, "seed": 8}, g)
    gamma, dt = 0.5, 0.01
    full = run(SolverConfig(gamma=gamma, dt=dt, t_end=1.0, grid=g),
               data, keep_states=True).states[-1]
    mid = run(SolverConfig(gamma=gamma, dt=dt, t_end=0.5, grid=g),
              data, keep_states=True).states[-1]
    ckp = tmp_path / "mid.mhdw"
    save_checkpoint(ckp, mid, gamma)
    loaded, gload = load_checkpoint(ckp)
    tail = run(SolverConfig(gamma=gload, dt=dt, t_end=0.5, grid=g),
               (loaded.u_hat, loaded.b_hat, loaded.bt_hat), keep_states=True).states[-1]
    worst = 0.0
    for a, b in ((full.u_hat, tail.u_hat), (full.b_hat, tail.b_hat),
                 (full.bt_hat, tail.bt_hat)):
        scale = max(np.max(np.abs(a.coeffs)), 1e-30)
        worst = max(worst, np.max(np.abs(a.coeffs - b.coeffs)) / scale)
    ok = rc1 == 0 and rc2 == 0 and identical and worst <= 1e-12
    _report("C12", "determinism + checkpoint round trip", ok,
            f"CSV byte-identical: {identical}, resume mismatch {worst:.2e}")
