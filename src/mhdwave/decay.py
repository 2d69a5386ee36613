"""Decay experiments: predicted rates, power-law fits, sweeps, limits.

The theorems being exercised predict, for data that is small in H^m and
integrable at order c (1 <= c < 2),

    ||u||_Lq + ||b||_Lq          ~ t^(1/q - 1/c)            (q >= 2)
    ||L^beta u|| + ||L^beta b||  ~ (1+t)^((1-beta)/2 - 1/c)  (0 <= beta <= m)
    ||L^rho b||                  ~ (1+t)^((1-rho)/2 - 1/c)   (0 <= rho < m+1)

with prefactors growing in gamma like gamma^(1 + 1/c - (1-beta)/2).  On a
periodic box the algebraic decay window closes at t ~ (L/2pi)^2 when the
spectral gap takes over, so fits are restricted to a window well inside
that scale.  Every fit is paired with the c = 1 rate (``theory_rate``),
also for data that lies in no L^1, as ``random_band`` with a spectral
exponent below 0.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, DataError, DomainError, WindowError
from .diagnostics import _perp_seminorm, _power, norm_observer
from .grid import GridSpec
from .initial import INITIAL_FAMILIES, make_initial_data
from .kernels import _gamma_refusal
from .solver import SolverConfig, Trajectory, _observed, _step_count, run

__all__ = [
    "TheoryRate",
    "PowerLawFit",
    "theory_rate",
    "fit_power_law",
    "DecayExperimentConfig",
    "DecayResult",
    "run_decay_experiment",
    "gamma_prefactor_scan",
    "singular_limit_experiment",
    "verify_expintegral",
]


@dataclass(frozen=True)
class TheoryRate:
    """Predicted exponent (and gamma power of the prefactor) for one norm."""

    exponent: float
    prefactor_gamma_power: float


def _as_fraction(x: float) -> Fraction:
    """The decimal ``x`` prints as, exactly; an integer as itself."""
    return Fraction(x) if x.is_integer() else Fraction(str(x))


# a tracked norm's column id: the field, L (an L^q norm) or H (an H^s
# seminorm), and q or s as a number
_NORM_ID = re.compile(r"([ub])_([LH])([-+.0-9e]+)")


def theory_rate(norm_id: str, m: float) -> TheoryRate | None:
    """The c = 1 rate of the tracked norm ``norm_id`` for data small in H^m.

    The order of ``u_Hs`` and ``b_Hs`` is s; an L^q norm takes the
    interpolated order 1 - 2/q (||f||_Lq <= C ||L^order f|| in 2D).  The
    exponent is (1 - order)/2 - 1 and the gamma power (3 + order)/2, in
    exact arithmetic from the order.  None for q < 2, which no theorem
    covers, and for an id that names no tracked norm; a negative order,
    or a b order >= m + 1, is a ``DomainError``.
    """
    match = _NORM_ID.fullmatch(norm_id)
    if match is None:
        return None
    name, kind, number = match.groups()
    try:
        value = float(number)
    except ValueError:  # as "1.2.3" or "e"
        return None
    if not math.isfinite(value) or (kind == "L" and value < 2):
        return None
    order = 1.0 - 2.0 / value if kind == "L" else value
    if order < 0:
        raise DomainError(f"{norm_id}: no rate for a negative order")
    if name == "b" and order >= m + 1:
        raise DomainError(f"{norm_id}: a rate of b needs an order < m + 1 = {m + 1:g}")
    half = (1 - _as_fraction(order)) / 2
    return TheoryRate(float(half - 1), float(2 - half))


@dataclass
class PowerLawFit:
    """Least-squares slope of log(value) against log(t) inside a window."""

    exponent: float
    log_prefactor: float
    r2: float


def _logfit(logt: np.ndarray, logv: np.ndarray):
    slope, intercept = np.polyfit(logt, logv, 1)
    pred = slope * logt + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _window_points(series, window) -> list:
    """The (t, value) pairs of ``series`` inside ``window``; a ``WindowError``
    unless t_lo < t_hi and at least 5 pairs fall inside."""
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise WindowError(f"window must satisfy t_lo < t_hi, got {window}")
    pts = [(t, v) for t, v in series if t_lo <= t <= t_hi]
    if len(pts) < 5:
        raise WindowError(f"window {window} holds {len(pts)} samples, need >= 5")
    return pts


def fit_power_law(series, window) -> PowerLawFit:
    """Fit ``value ~ exp(log_prefactor) * t**exponent`` over ``window``.

    ``series`` is an iterable of (t, value); the window is (t_lo, t_hi)
    with t_lo < t_hi, and must hold at least 5 samples with positive
    values (nonpositive values raise DataError).
    """
    pts = _window_points(series, window)
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(v <= 0):
        raise DataError("nonpositive values inside the fit window")
    if np.any(t <= 0):
        raise DataError("nonpositive times inside the fit window")
    return PowerLawFit(*_logfit(np.log(t), np.log(v)))


# ---------------------------------------------------------------------------
# experiment orchestration


def default_fit_window(t_end: float, grid: GridSpec):
    """[max(5, t_end/20), min(t_end, 0.1 (L/2pi)^2)]: past the transient,
    before the spectral gap closes the algebraic window."""
    lo = max(5.0, t_end / 20.0)
    hi = min(t_end, 0.1 * (grid.box_length / (2.0 * np.pi)) ** 2)
    return (lo, hi)


@dataclass(kw_only=True)
class DecayExperimentConfig(SolverConfig):
    """The validated run description shared by the library and the CLI: the
    solver config of the run plus its initial data, norms and fit window.

    ``params`` is the initial-data dict handed to ``make_initial_data``.
    Validation errors name the JSON path of the offending config entry.
    """

    gamma: float = 1.0
    dt: float = 0.05
    t_end: float = 100.0
    snapshot_every: int = 10
    family: str = "random_band"
    params: dict = field(default_factory=dict)
    q_list: tuple = (2.0, 4.0)
    s_list_u: tuple = (0.0, 1.0)
    s_list_b: tuple = (0.0, 1.5)
    m: float = 1.0
    window: tuple | None = None

    def __post_init__(self):
        super().__post_init__()
        if not self.dt > 0:
            raise ConfigurationError("dt must be > 0", path="time.dt")
        if self.family not in INITIAL_FAMILIES:
            raise ConfigurationError(f"family must be one of {tuple(INITIAL_FAMILIES)}",
                                     path="initial_data.family")
        if not 0 <= self.params.get("seed", 0) < 2**128:
            raise ConfigurationError("seed must satisfy 0 <= seed < 2**128",
                                     path="initial_data.seed")
        if any(q < 1 for q in self.q_list):
            raise ConfigurationError("q values must be >= 1", path="diagnostics.q_list")
        for key in ("s_list_u", "s_list_b"):
            # the observer weighs the potentials by |k|^(2s + 2), which overflows
            # for large |s|, and inf * 0 puts NaN in every cell
            with np.errstate(over="ignore"):
                if not all(np.all(np.isfinite(self.grid.abs_k_power(2.0 * s + 2.0)))
                           for s in getattr(self, key)):
                    raise ConfigurationError("|k|^(2s + 2) overflows on this grid",
                                             path=f"diagnostics.{key}")
        if self.m < 0:
            raise ConfigurationError("m must be >= 0", path="diagnostics.m")
        if self.window is not None and not 0 < self.window[0] < self.window[1]:
            # a log-log fit needs t > 0, and the t = 0 snapshot would fall inside
            raise ConfigurationError("window must satisfy 0 < t_lo < t_hi", path="fit.window")

    def norm_ids(self) -> list:
        """Column ids of the tracked norms, in series order; none, or two norms
        with one id (``{:g}`` of q or s), is a ``ConfigurationError`` at
        ``diagnostics``."""
        ids = []
        for q in self.q_list:
            ids += [f"u_L{q:g}", f"b_L{q:g}"]
        ids += [f"u_H{s:g}" for s in self.s_list_u]
        ids += [f"b_H{s:g}" for s in self.s_list_b]
        if not ids:
            raise ConfigurationError("no norm to track: q_list, s_list_u and s_list_b are empty",
                                     path="diagnostics")
        repeated = [norm_id for j, norm_id in enumerate(ids) if norm_id in ids[:j]]
        if repeated:
            raise ConfigurationError(f"two tracked norms share the column id {repeated[0]!r}",
                                     path="diagnostics")
        return ids


@dataclass
class FitComparison:
    norm_id: str
    fit: PowerLawFit
    theory: TheoryRate | None


@dataclass
class DecayResult:
    trajectory: Trajectory
    comparisons: list

    def comparison(self, norm_id: str) -> FitComparison:
        for c in self.comparisons:
            if c.norm_id == norm_id:
                return c
        raise KeyError(norm_id)


def _fit_norm(norm_id: str, series, window) -> PowerLawFit:
    """``fit_power_law`` of one norm's series; its errors name the norm."""
    try:
        return fit_power_law(series, window)
    except (DataError, WindowError) as exc:
        raise type(exc)(f"{norm_id}: {exc}") from None


def run_decay_experiment(cfg: DecayExperimentConfig) -> DecayResult:
    """Integrate, track the configured norms, and fit each against theory.

    Each norm is compared with its ``theory_rate``.  No tracked norm
    (``ConfigurationError`` at ``diagnostics``) and a norm that stays zero,
    which admits no log-log fit, fail before the integration: zero data,
    and in a linear run a norm of u with psi = 0 or of b with A = d_t A = 0
    (``DataError``).
    """
    ids = cfg.norm_ids()
    grid = cfg.grid
    initial = make_initial_data(cfg.family, cfg.params, grid)
    zero_u, zero_a, zero_at = (_perp_seminorm(grid, _power(c, grid), 0.0) == 0.0
                               for c in (initial.psi_hat, initial.a_hat, initial.at_hat))
    zero_b = zero_a and zero_at
    if zero_u and zero_b:
        raise DataError("zero initial data: every tracked norm is zero, nothing to fit")
    if not cfg.nonlinear:
        for norm_id in ids:
            if zero_u if norm_id.startswith("u_") else zero_b:
                raise DataError(f"{norm_id}: its potentials are zero, and a linear run keeps "
                                "them zero; nothing to fit")
    window = cfg.window if cfg.window is not None else default_fit_window(cfg.t_end, grid)
    # an order the theory does not cover, or a window that cannot hold a
    # fit of the snapshot times run will stamp, fails before the integration
    theory = {i: theory_rate(i, cfg.m) for i in ids}
    t0, n_steps = initial.t, _step_count(cfg, initial.t)
    _window_points(((t0 + i * cfg.dt, None) for i in range(n_steps + 1)
                    if _observed(i, n_steps, cfg.snapshot_every)), window)
    observer = norm_observer(cfg.q_list, cfg.s_list_u, cfg.s_list_b)
    traj = run(cfg, initial, observer)

    comps = []
    t = np.asarray(traj.times)
    for norm_id in ids:
        fit = _fit_norm(norm_id, zip(t, traj.series(norm_id)), window)
        comps.append(FitComparison(norm_id, fit, theory[norm_id]))
    return DecayResult(traj, comps)


def _positive_gammas(gammas) -> list:
    """``gammas`` as floats; an empty list, a gamma the kernels refuse
    (gamma = 0 too: it is the MHD baseline) or a repeated gamma, which would
    run one member twice, is a ``ConfigurationError`` at ``gammas``."""
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ConfigurationError("expected at least one gamma", path="gammas")
    for why in filter(None, map(_gamma_refusal, gammas)):
        raise ConfigurationError(why, path="gammas")
    if len(set(gammas)) < len(gammas):
        raise ConfigurationError(f"every gamma must appear once, got {gammas}", path="gammas")
    return gammas


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one (``os.cpu_count`` counts the machine's, also
    under ``taskset``), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_member(fn, items) -> list:
    """``[fn(x) for x in items]``, the calls run concurrently, one thread
    each up to the usable CPUs (numpy's transforms and array operations
    release the GIL).  The first error in item order is raised, and the
    members not yet started then never start."""
    pool = ThreadPoolExecutor(max_workers=min(len(items), _usable_cpus()))
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


def gamma_prefactor_scan(gammas, base: DecayExperimentConfig) -> dict:
    """Per-gamma decay fits on a fixed experiment: ``{gamma: DecayResult}``
    in ascending gamma.

    The rate is gamma-independent in the theory (only the prefactor
    carries gamma), so fitted exponents are expected stable across the
    sweep; prefactor monotonicity is reported, never asserted against the
    non-explicit constants.  Members run concurrently (``_each_member``);
    each run owns its arrays, so a member's series is bitwise that of a
    solo run.
    """
    gammas = sorted(_positive_gammas(gammas))

    def member(g):
        return run_decay_experiment(replace(base, gamma=g))

    return dict(zip(gammas, _each_member(member, gammas)))


def singular_limit_experiment(gammas, T: float, base: DecayExperimentConfig):
    """e(gamma) = ||b_g(T) - b_mhd(T)|| + ||u_g(T) - u_mhd(T)|| against the
    gamma = 0 baseline, same data and grid throughout.

    Returns (gammas_desc, errors) with gammas sorted descending; the
    expected first-order convergence shows up as successive ratios near
    1/2 when gammas are halved.  ``T`` must be a whole number of steps
    ``base.dt``; errors about it name the path ``T``.  The baseline and
    the gamma members run concurrently (``_each_member``), each with its
    own arrays, so every error is bitwise that of solo runs, and a failing
    run raises the error the first failing run in the order (baseline,
    gammas descending) would.
    """
    gammas = _positive_gammas(gammas)
    if not 0 < T < np.inf:
        raise ConfigurationError(f"must be positive and finite, got {T}", path="T")
    try:
        n_steps = _step_count(replace(base, t_end=T))
    except ConfigurationError:
        raise ConfigurationError(f"{T} is not a whole number of steps at dt={base.dt}",
                                 path="T") from None
    gammas = sorted(gammas, reverse=True)
    grid = base.grid
    initial = make_initial_data(base.family, base.params, grid)

    def final_state(gamma):
        # the sink sees the state at T and no other, so no snapshot is copied
        final = []
        run(replace(base, gamma=gamma, t_end=T), initial, checkpoint_every=n_steps,
            checkpoint_sink=final.append)
        return final[0]

    ref, *finals = _each_member(final_state, [0.0, *gammas])
    # ||grad^perp f|| of the psi and A differences, from their power spectra
    errors = [sum(_perp_seminorm(grid, _power(x - y, grid), 0.0)
                  for x, y in ((st.psi_hat, ref.psi_hat), (st.a_hat, ref.a_hat)))
              for st in finals]
    return gammas, errors


# ---------------------------------------------------------------------------
# exponential-integral inequality verification


def _gauss_legendre_integral(f, a: float, b: float, panels: int, order: int = 12) -> float:
    """Composite Gauss-Legendre quadrature with fixed panel count."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.sum(weights * f(mid + half * nodes)))
    return total


def _lhs_integral(ineq: str, R: float, kappa: float, t: float, panels: int) -> float:
    """int_0^t e^{-R(t-tau)} w(tau) dtau with w = (1+tau)^{-1/kappa} for
    (p-1)/(p-2) and w = tau^{-1/kappa} for (p-3) (endpoint singularity
    removed by the substitution tau = v^(kappa/(kappa-1)))."""
    if ineq in ("p-1", "p-2"):
        f = lambda tau: np.exp(-R * (t - tau)) * (1.0 + tau) ** (-1.0 / kappa)
        return _gauss_legendre_integral(f, 0.0, t, panels)
    a = kappa / (kappa - 1.0)

    def g(v):
        tau = v**a
        return np.exp(-R * (t - tau)) * a * v ** (a - 1.0 - a / kappa)

    return _gauss_legendre_integral(g, 0.0, t ** (1.0 / a), panels)


def _rhs_shape(ineq: str, R: float, kappa: float, t: float) -> float:
    if ineq == "p-1":
        if kappa == 1.0:
            return (1.0 + t) ** -1.0 * (1.0 / R + 1.0 / R**2)
        if kappa > 1.0:
            return (1.0 + t) ** (-1.0 / kappa) * (1.0 + 1.0 / R)
        return (1.0 + t) ** (-1.0 / kappa) * (1.0 + R ** (-1.0 / kappa) + 1.0 / R)
    if ineq == "p-2":
        if kappa == 1.0:
            return (1.0 + t) ** -1.0 * (1.0 / R + 1.0 / R**2)
        if kappa > 1.0:
            return (1.0 + t) ** (-1.0 / kappa) / R
        return (1.0 + t) ** (-1.0 / kappa) * (R ** (-1.0 / kappa) + 1.0 / R)
    if ineq == "p-3":
        return t ** (-1.0 / kappa) / R
    raise ConfigurationError(f"unknown inequality {ineq!r}")


@dataclass
class ExpIntegralRow:
    ineq: str
    regime: str
    R: float
    kappa: float
    t: float
    lhs: float
    rhs_shape: float
    ratio: float


@dataclass
class ExpIntegralReport:
    rows: list
    c_emp: dict       # (ineq, regime) -> max ratio
    c_emp_refined: dict

    def stable(self) -> bool:
        """Every refined constant within 1% of its constant."""
        return all(
            abs(self.c_emp_refined[k] - v) <= 0.01 * abs(v) for k, v in self.c_emp.items()
        )


def _regime(kappa: float) -> str:
    if kappa == 1.0:
        return "kappa=1"
    return "kappa>1" if kappa > 1.0 else "kappa<1"


def verify_expintegral() -> ExpIntegralReport:
    """Quadrature check of the three exponential-integral inequalities on
    the fixed grid R in (0.1, 1, 10), kappa in (0.5, 1, 2), t in (1, 10,
    100), with 64 quadrature panels.

    (p-3) needs kappa > 1 (singularity integrability), so it skips the
    other kappa.  Empirical constants are the max LHS/RHS ratios per
    (inequality, kappa regime), recomputed on 2x panels for the stability
    comparison.
    """
    rows = []
    c_emp = {}
    c_ref = {}
    for ineq in ("p-1", "p-2", "p-3"):
        for kappa in (0.5, 1.0, 2.0):
            if ineq == "p-3" and kappa <= 1.0:
                continue
            for R in (0.1, 1.0, 10.0):
                for t in (1.0, 10.0, 100.0):
                    lhs = _lhs_integral(ineq, R, kappa, t, 64)
                    lhs2 = _lhs_integral(ineq, R, kappa, t, 128)
                    rhs = _rhs_shape(ineq, R, kappa, t)
                    rows.append(ExpIntegralRow(ineq, _regime(kappa), R, kappa, t,
                                               lhs, rhs, lhs / rhs))
                    key = (ineq, _regime(kappa))
                    c_emp[key] = max(c_emp.get(key, 0.0), lhs / rhs)
                    c_ref[key] = max(c_ref.get(key, 0.0), lhs2 / rhs)
    return ExpIntegralReport(rows, c_emp, c_ref)
