import math
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from mhdwave import decay, solver
from mhdwave.decay import (
    DecayExperimentConfig,
    TheoryRate,
    default_fit_window,
    fit_power_law,
    gamma_prefactor_scan,
    run_decay_experiment,
    singular_limit_experiment,
    theory_rate,
    verify_expintegral,
)
from mhdwave.errors import (
    ConfigurationError,
    DataError,
    DomainError,
    StepSizeError,
    WindowError,
)
from mhdwave.grid import GridSpec
from mhdwave.initial import make_initial_data
from mhdwave.solver import SolverConfig, run

from conftest import expand_half_spectrum, linear_singular_limit_error


class TestPredictedExponent:
    def test_lq_examples(self):
        assert theory_rate("u_L2", 1.0) == TheoryRate(-0.5, 1.5)
        assert theory_rate("u_L4", 1.0) == TheoryRate(-0.75, 1.75)
        assert theory_rate("b_L4", 1.0) == TheoryRate(-0.75, 1.75)

    def test_hbeta_example(self):
        r = theory_rate("u_H1", 1.0)
        assert r.exponent == -1.0
        assert r.prefactor_gamma_power == 2.0

    def test_hrho_b(self):
        assert theory_rate("b_H1.5", 1.0) == TheoryRate(-1.25, 2.25)


class TestTheoryRate:
    def test_exact_arithmetic(self):
        # the order 1 - 2/3 is taken exactly from its float: float arithmetic
        # would give -0.6666666666666667
        assert theory_rate("u_L3", 1.0).exponent == -0.6666666666666666

    @pytest.mark.parametrize("norm_id", ["u_L1.5", "x_H1", "u_Q3", "b_Z0.5", "uu_L2",
                                         "u_Linf", "u_Lnan", "b_H1e999", "u_H", "u_L1.2.3"])
    def test_no_rate(self, norm_id):
        # no theorem covers q < 2, and the other ids name no tracked norm
        assert theory_rate(norm_id, 1.0) is None

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="u_H-0.5"):
            theory_rate("u_H-0.5", 1.0)
        with pytest.raises(DomainError, match="b_H2"):
            theory_rate("b_H2", 1.0)
        assert theory_rate("b_H1.9", 1.0).exponent == pytest.approx(-1.45)
        # u has no upper bound on its order
        assert theory_rate("u_H2", 1.0).exponent == -1.5

    def test_every_tracked_norm(self):
        cfg = DecayExperimentConfig(grid=GridSpec(16, 2 * np.pi), m=1.0,
                                    q_list=(1.0, 1.5, 2.0, 3.0, 4.0, 7.5),
                                    s_list_u=(0.0, 0.1, 1.0, 2.5), s_list_b=(0.0, 0.5, 1.5, 1.9))
        specs = [(f, "L", q) for q in cfg.q_list for f in "ub"]
        specs += [("u", "H", s) for s in cfg.s_list_u] + [("b", "H", s) for s in cfg.s_list_b]
        ids = cfg.norm_ids()
        assert len(ids) == len(specs)
        for norm_id, (field, kind, value) in zip(ids, specs):
            assert norm_id.startswith(f"{field}_{kind}")
            rate = theory_rate(norm_id, cfg.m)
            if kind == "L" and value < 2:
                assert rate is None, norm_id
                continue
            order = 1 - 2 / value if kind == "L" else value
            assert rate.exponent == pytest.approx((1 - order) / 2 - 1, abs=1e-15), norm_id
            assert rate.prefactor_gamma_power == pytest.approx((3 + order) / 2, abs=1e-15)


class TestFitPowerLaw:
    def test_exact_power_law(self):
        t = np.linspace(1.0, 20.0, 20)
        y = 3.0 * t**-0.5
        fit = fit_power_law(zip(t, y), (1.0, 20.0))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.log_prefactor) == pytest.approx(3.0, rel=1e-10)

    def test_rescale_invariance(self):
        t = np.geomspace(1.0, 50.0, 30)
        y = 2.0 * t**-1.25
        f1 = fit_power_law(zip(t, y), (1.0, 50.0))
        f2 = fit_power_law(zip(t, 7.5 * y), (1.0, 50.0))
        assert f2.exponent == pytest.approx(f1.exponent, abs=1e-12)

    def test_perturbed_power_law(self):
        t = np.linspace(1.0, 30.0, 60)
        y = 3.0 * t**-0.5 * (1 + 0.01 * np.sin(t))
        fit = fit_power_law(zip(t, y), (1.0, 30.0))
        assert fit.exponent == pytest.approx(-0.5, abs=0.01)

    def test_errors(self):
        t = np.linspace(1.0, 10.0, 10)
        with pytest.raises(DataError):
            fit_power_law(zip(t, np.zeros_like(t)), (1.0, 10.0))
        with pytest.raises(WindowError):
            fit_power_law(zip(t, t), (8.0, 9.0))
        with pytest.raises(WindowError):
            fit_power_law(zip(t, t), (10.0, 1.0))


def _fast_experiment(**over):
    grid = GridSpec(64, 16 * np.pi)
    base = dict(
        grid=grid, gamma=1.0, dt=0.05, t_end=30.0, family="random_band",
        params={"amplitude": 0.02, "k_max": 1.6, "seed": 12},
        q_list=(2.0,), s_list_u=(0.0, 1.0), s_list_b=(0.0,),
        window=(2.0, 25.0), snapshot_every=5,
    )
    base.update(over)
    return DecayExperimentConfig(**base)


class TestDecayExperiment:
    def test_zero_data_trivial(self, monkeypatch):
        # zero data has no log-log fit: a DataError before the integration
        monkeypatch.setattr(decay, "run", lambda *a, **k: pytest.fail("integrated"))
        cfg = _fast_experiment(params={"amplitude": 0.0, "seed": 1}, t_end=1.0,
                               window=None)
        with pytest.raises(DataError, match="zero initial data"):
            run_decay_experiment(cfg)

    def test_exponents_near_theory(self):
        res = run_decay_experiment(_fast_experiment(q_list=(2.0, 4.0)))
        c = res.comparison("u_L2")
        assert c.theory.exponent == -0.5
        assert abs(c.fit.exponent - c.theory.exponent) <= 0.25
        assert res.comparison("u_H1").theory.exponent == -1.0
        # an Lq norm is paired with the Sobolev-family rate at order 1 - 2/q
        assert res.comparison("u_L4").theory.exponent == -0.75

    def test_default_window(self):
        g = GridSpec(64, 16 * np.pi)
        lo, hi = default_fit_window(100.0, g)
        assert lo == 5.0
        assert hi == pytest.approx(0.1 * 64.0)


class TestGammaScan:
    def test_single_gamma_degenerate(self):
        sweep = gamma_prefactor_scan([1.0], _fast_experiment(t_end=15.0,
                                                             window=(2.0, 14.0)))
        assert list(sweep) == [1.0]
        assert np.isfinite(sweep[1.0].comparison("u_L2").fit.exponent)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            gamma_prefactor_scan([0.5, -1.0], _fast_experiment())

    def test_concurrent_members_match_solo_runs(self, monkeypatch):
        # one thread per member with 4 usable CPUs, switching often: every
        # member's series is bitwise that of its gamma run alone
        base = _fast_experiment(grid=GridSpec(32, 8 * np.pi), t_end=10.0, window=(2.0, 9.0))
        gammas = [2.0, 0.25, 1.0, 0.5]
        solo = {g: run_decay_experiment(replace(base, gamma=g)) for g in gammas}
        members, threads = {}, set()
        run_member = decay.run_decay_experiment

        def traced(cfg):
            threads.add(threading.get_ident())
            members[cfg.gamma] = run_member(cfg)
            return members[cfg.gamma]

        monkeypatch.setattr(decay, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(decay, "run_decay_experiment", traced)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweep = gamma_prefactor_scan(gammas, base)
        finally:
            sys.setswitchinterval(interval)
        assert list(sweep) == sorted(gammas)
        assert len(threads) > 1
        for g in gammas:
            assert sweep[g] is members[g]
            for nid in base.norm_ids():
                got, ref = members[g].trajectory.series(nid), solo[g].trajectory.series(nid)
                assert got.tobytes() == ref.tobytes()
                assert sweep[g].comparison(nid).fit == solo[g].comparison(nid).fit


class TestEachMember:
    @staticmethod
    def pool_sizes(monkeypatch):
        sizes, pool = [], decay.ThreadPoolExecutor

        def spy(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(decay, "ThreadPoolExecutor", spy)
        return sizes

    def test_pool_sized_by_the_affinity_set(self, monkeypatch):
        # under taskset -c 0 on a 2-CPU machine: one usable CPU, one thread
        sizes = self.pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert decay._each_member(lambda x: 2 * x, [1, 2, 3]) == [2, 4, 6]
        assert sizes == [1]

    def test_pool_falls_back_to_the_cpu_count(self, monkeypatch):
        # where the platform reports no affinity set
        sizes = self.pool_sizes(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, expect in ((3, 3), (None, 1), (8, 5)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert decay._each_member(lambda x: -x, range(5)) == [0, -1, -2, -3, -4]
            assert sizes.pop() == expect


class TestSingularLimit:
    def test_gamma_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            singular_limit_experiment([0.1, 0.0], 1.0, _fast_experiment())

    def test_linear_closed_form_oracle(self):
        # forcing-free runs admit a per-mode closed form for e(gamma)
        grid = GridSpec(32, 4 * np.pi)
        data = make_initial_data(
            "random_band", {"amplitude": 0.3, "k_max": 2.5, "seed": 3}, grid
        )
        T, gamma, dt = 1.0, 0.05, 0.01
        oracle = linear_singular_limit_error(gamma, T, data)
        finals = {}
        for g in (gamma, 0.0):
            cfg = SolverConfig(gamma=g, dt=dt, t_end=T, grid=grid, nonlinear=False,
                               snapshot_every=100)
            traj = run(cfg, data, keep_states=True)
            finals[g] = traj.states[-1]
        db = finals[gamma].b_hat.coeffs - finals[0.0].b_hat.coeffs
        du = finals[gamma].u_hat.coeffs - finals[0.0].u_hat.coeffs
        db, du = expand_half_spectrum(db, grid.n), expand_half_spectrum(du, grid.n)
        measured = grid.box_length * (np.sqrt(np.sum(np.abs(db) ** 2))
                                      + np.sqrt(np.sum(np.abs(du) ** 2)))
        assert measured == pytest.approx(oracle, rel=1e-8)

    def test_error_decreases_with_gamma(self):
        cfg = _fast_experiment(grid=GridSpec(32, 4 * np.pi), dt=0.02,
                               params={"amplitude": 0.05, "k_max": 2.0, "seed": 4})
        gs, errs = singular_limit_experiment([0.1, 0.05, 0.025], 2.0, cfg)
        assert gs == [0.1, 0.05, 0.025]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[1] / errs[0] <= 0.7 and errs[2] / errs[1] <= 0.7

    def test_concurrent_members_match_solo_runs(self, monkeypatch):
        # the baseline and the gammas run at once with 4 usable CPUs, switching
        # often: every error is bitwise that of solo runs of the baseline and
        # its gamma
        cfg = _fast_experiment(grid=GridSpec(32, 4 * np.pi), dt=0.02,
                               params={"amplitude": 0.05, "k_max": 2.0, "seed": 4})
        gammas, T = [0.1, 0.05, 0.025], 1.0
        initial = make_initial_data(cfg.family, cfg.params, cfg.grid)

        def solo(gamma):
            member = replace(cfg, gamma=gamma, t_end=T, snapshot_every=50)
            return run(member, initial, keep_states=True).states[-1]

        ref = solo(0.0)
        expect = []
        for g in gammas:
            st = solo(g)
            expect.append(sum(decay._perp_seminorm(cfg.grid, decay._power(x - y, cfg.grid), 0.0)
                              for x, y in ((st.psi_hat, ref.psi_hat), (st.a_hat, ref.a_hat))))
        threads = set()
        run_member = decay.run

        def traced(*args, **kwargs):
            threads.add(threading.get_ident())
            return run_member(*args, **kwargs)

        monkeypatch.setattr(decay, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(decay, "run", traced)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            gs, errs = singular_limit_experiment(gammas, T, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert gs == gammas
        assert len(threads) > 1
        assert [repr(e) for e in errs] == [repr(e) for e in expect]

    def test_failing_member_stops_members_not_started(self, monkeypatch):
        # dt is past the CFL limit, so the baseline fails at its first step;
        # two threads, and the gamma members are slow to build their tables:
        # the error is the baseline's, and the last member never starts
        cfg = _fast_experiment(grid=GridSpec(32, 4 * np.pi), dt=0.5,
                               params={"amplitude": 0.05, "k_max": 2.0, "seed": 4})
        gammas, T = [0.1, 0.05, 0.025], 1.0
        initial = make_initial_data(cfg.family, cfg.params, cfg.grid)
        with pytest.raises(StepSizeError) as solo:
            run(replace(cfg, gamma=0.0, t_end=T, snapshot_every=2), initial)
        builds = []
        build = solver._StepperCache

        def counted(config):
            builds.append(config.gamma)
            if config.gamma > 0:
                time.sleep(0.3)
            return build(config)

        monkeypatch.setattr(decay, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(solver, "_StepperCache", counted)
        with pytest.raises(StepSizeError) as got:
            singular_limit_experiment(gammas, T, cfg)
        assert str(got.value) == str(solo.value)
        assert got.value.t == solo.value.t == 0.0
        assert 0.0 in builds
        assert len(builds) < 4


@pytest.fixture(scope="module")
def expintegral_report():
    return verify_expintegral()


class TestExpIntegral:
    def test_constants_finite_and_stable(self, expintegral_report):
        rep = expintegral_report
        assert rep.rows
        for key, val in rep.c_emp.items():
            assert np.isfinite(val)
        assert rep.stable()

    def test_p3_example(self, expintegral_report):
        # kappa=2, R=1, t=10: LHS <= C t^{-1/2} R^{-1}
        (row,) = [r for r in expintegral_report.rows
                  if (r.ineq, r.R, r.kappa, r.t) == ("p-3", 1.0, 2.0, 10.0)]
        assert row.lhs > 0 and np.isfinite(row.ratio)
        # independent adaptive-quadrature check of the LHS
        from scipy.integrate import quad

        ref, _ = quad(lambda tau: math.exp(-(10.0 - tau)) * tau**-0.5, 0.0, 10.0,
                      points=[0.0], limit=200)
        assert row.lhs == pytest.approx(ref, rel=1e-8)

    def test_large_r_limit(self):
        R, t = 1e3, 10.0
        for ineq, kappa in (("p-1", 1.0), ("p-1", 2.0), ("p-2", 1.0), ("p-2", 2.0),
                            ("p-3", 2.0)):
            lhs = decay._lhs_integral(ineq, R, kappa, t, 64)
            assert lhs < 1e-2
            assert np.isfinite(lhs / decay._rhs_shape(ineq, R, kappa, t))

    def test_kappa_one_shape_stable_across_t(self, expintegral_report):
        rows = [r for r in expintegral_report.rows if (r.ineq, r.kappa, r.R) == ("p-1", 1.0, 1.0)]
        assert [r.t for r in rows] == [1.0, 10.0, 100.0]
        ratios = [r.ratio for r in rows]
        assert max(ratios) / min(ratios) < 10.0  # same shape up to O(1)

    def test_regime_violations(self, expintegral_report):
        # (p-3) needs kappa > 1: no p-3 row for kappa <= 1
        p3 = [r for r in expintegral_report.rows if r.ineq == "p-3"]
        assert p3 and all(r.kappa > 1.0 for r in p3)


def test_gaussian_dipole_decays_faster_than_class_rate():
    """Truly localized divergence-free data has |u_hat| ~ |k| near zero
    (its integral vanishes), so it decays strictly faster than the
    flat-spectrum class rate -1/2; the harness reports the measured gap
    rather than deciding which rate governs."""
    cfg = DecayExperimentConfig(
        grid=GridSpec(128, 16 * np.pi), gamma=1.0, dt=0.05, t_end=20.0,
        family="gaussian_vortex_pair",
        params={"amplitude": 0.05, "width": np.pi},
        q_list=(2.0,), s_list_u=(0.0,), s_list_b=(0.0,),
        window=(2.0, 18.0), snapshot_every=4,
    )
    res = run_decay_experiment(cfg)
    fit = res.comparison("u_L2").fit
    assert fit.exponent < -0.7          # steeper than the c=1 class rate
    assert fit.r2 > 0.97


def test_monotone_l2_decay_along_run():
    cfg = _fast_experiment(t_end=10.0, window=(1.0, 9.0), snapshot_every=2)
    res = run_decay_experiment(cfg)
    vals = res.trajectory.series("u_L2")
    assert np.all(np.diff(vals) <= 1e-12)
