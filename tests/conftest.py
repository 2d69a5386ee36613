from dataclasses import dataclass

import numpy as np
import pytest

from mhdwave import solver
from mhdwave.diagnostics import _perp_seminorm, _power
from mhdwave.errors import ConfigurationError, DomainError
from mhdwave.grid import GridSpec
from mhdwave.kernels import propagator_tables
from mhdwave.solver import State


# Reference implementations.  No program path calls them; the tests hold the
# package's half-spectrum layout, multiplier tables and nonlinear forcing to
# these direct forms.


@dataclass
class SpectralVectorField:
    """Half-spectrum Fourier coefficients, shape (c, n, n//2 + 1), c in {1, 2}.

    The coefficients of a real field: the unstored half of the plane is the
    Hermitian mirror of the stored one.  Only the self-conjugate columns 0
    and n/2 hold both k and -k.  The program works on the potentials; the
    oracles below work on the fields.
    """

    coeffs: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim == 2:
            c = c[None, :, :]
        if c.ndim != 3 or c.shape[0] not in (1, 2) or c.shape[1:] != (self.grid.n, self.grid.half):
            raise ConfigurationError(
                f"coefficient shape {np.shape(self.coeffs)} is not the half spectrum "
                f"of grid n={self.grid.n}"
            )
        self.coeffs = c


def state_from_vectors(u, b, bt, t=0.0) -> State:
    """The state of the fields (u, b, d_t b), through ``solver._potential``,
    the map of run's vector triple."""
    return State(*(solver._potential(f.coeffs, f.grid) for f in (u, b, bt)), u.grid, t)


def meshgrid(grid):
    """The physical grid points (X, Y), each (n, n), x along axis 0."""
    x1d = grid.box_length / grid.n * np.arange(grid.n)
    return np.meshgrid(x1d, x1d, indexing="ij")


def transform_forward(values, grid) -> SpectralVectorField:
    """Physical values, (c, n, n) or (n, n) -> half-spectrum Fourier
    coefficients (divides by n^2)."""
    coeffs = np.fft.rfft2(np.asarray(values, dtype=np.float64), axes=(-2, -1)) / grid.n**2
    return SpectralVectorField(coeffs, grid)


def grid_values(f: SpectralVectorField) -> np.ndarray:
    """Half-spectrum Fourier coefficients -> (c, n, n) physical values
    (multiplies by n^2), the call ``grid.transform_inverse`` makes."""
    g = f.grid
    return np.fft.irfft2(f.coeffs, s=(g.n, g.n), axes=(-2, -1)) * g.n**2


def magnitude(values: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean magnitude of (c, n, n) grid values, c in {1, 2}."""
    if len(values) == 1:
        return np.abs(values[0])
    return np.sqrt(values[0] ** 2 + values[1] ** 2)


def fractional_laplacian_apply(f: SpectralVectorField, s: float) -> SpectralVectorField:
    """Multiply each coefficient by |k|^s.

    ``s = 0`` is the identity.  For ``s > 0`` the k=0 coefficient is set to
    zero; for ``s < 0`` the input must be mean-free (the operator is
    undefined on constants).
    """
    if s == 0:
        return SpectralVectorField(f.coeffs.copy(), f.grid)
    g = f.grid
    mean = np.max(np.abs(f.coeffs[:, 0, 0]))
    if s < 0 and mean != 0.0:
        raise DomainError(f"negative-order multiplier on a field with nonzero mean ({mean:.3e})")
    # the table is zero on the Nyquist modes already
    return SpectralVectorField(f.coeffs * g.abs_k_power(s), g)


def leray_project(f: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields: f_hat -> f_hat - k (k.f_hat)/|k|^2."""
    if f.coeffs.shape[0] != 2:
        raise ConfigurationError("Leray projection requires a 2-component field")
    g = f.grid
    frac = (g.kx * f.coeffs[0] + g.ky * f.coeffs[1]) * g.inv_k2
    out = np.where(g.nyquist_free, f.coeffs, 0.0)
    out[0] -= g.kx * frac
    out[1] -= g.ky * frac
    # k=0 mode passes through unchanged
    out[:, 0, 0] = f.coeffs[:, 0, 0]
    return SpectralVectorField(out, g)


def dealias(f: SpectralVectorField) -> SpectralVectorField:
    """Zero every mode with max(|kx|,|ky|) at or beyond the 2/3 cutoff."""
    g = f.grid
    return SpectralVectorField(f.coeffs * g.dealias_mask, g)


def divergence(f: SpectralVectorField) -> np.ndarray:
    """Spectral divergence i k . f_hat as a raw (n, n//2 + 1) array."""
    if f.coeffs.shape[0] != 2:
        raise ConfigurationError("divergence requires a 2-component field")
    g = f.grid
    return 1j * (g.kx * f.coeffs[0] + g.ky * f.coeffs[1]) * g.nyquist_free


def spectral_l2(f: SpectralVectorField) -> float:
    """L2 norm via Parseval: L * sqrt(sum w |f_hat|^2) over the half spectrum."""
    g = f.grid
    return float(g.box_length * np.sqrt(np.sum(g.parseval_weight * np.abs(f.coeffs) ** 2)))


def spectral_inner(f: SpectralVectorField, h: SpectralVectorField) -> float:
    """Real L2 inner product of the underlying real fields."""
    g = f.grid
    return float(g.box_length**2
                 * np.sum(g.parseval_weight * np.real(f.coeffs * np.conj(h.coeffs))))


def hermitian_error(f: SpectralVectorField) -> float:
    """Max |f_hat(-k) - conj(f_hat(k))| on the self-conjugate columns 0 and n/2;
    the layout implies the mirror of every other stored mode."""
    cols = f.coeffs[:, :, [0, f.grid.n // 2]]
    mirrored = np.conj(np.roll(cols[:, ::-1], 1, axis=1))
    return float(np.max(np.abs(cols - mirrored)))


def sobolev_seminorm(f: SpectralVectorField, s: float) -> float:
    """Homogeneous Sobolev seminorm (sum_k |k|^{2s} |f_hat|^2)^(1/2) * L."""
    g = f.grid
    power = g.parseval_weight * np.abs(f.coeffs) ** 2
    if s == 0:
        total = np.sum(power)
    else:
        mean = np.max(np.abs(f.coeffs[:, 0, 0]))
        if s < 0 and mean != 0.0:
            raise DomainError("negative-order seminorm requires a mean-zero field")
        total = np.sum(g.abs_k_power(2.0 * s) * power)
    return float(g.box_length * np.sqrt(total))


def compute_nonlinear(state: State):
    """N_u = P(b.grad b - u.grad u), N_b = b.grad u - u.grad b, dealiased:
    grad^perp of the scalar forcings.

    Only the retained modes of the state enter (the input 2/3 rule), so a
    finite state and its dealiased copy give equal forcings.  Both outputs are
    mean-free and divergence-free.  Raises ``BlowUpError`` if the retained
    modes are not finite.
    """
    f_psi, f_a, _ = solver._nonlinear_terms(state)
    g = state.grid
    return (SpectralVectorField(g.grad_perp * f_psi, g),
            SpectralVectorField(g.grad_perp * f_a, g))


def energy_functionals_reference(state: State, m: float, gamma: float):
    """The triple (X_m, Y_m, Z_m) from its seminorms, as the paper writes it:
    five H^s seminorms from the power spectra of psi, A and d_t A, and the
    inner product of d_t L^m b with L^m b from the cross spectrum."""
    g = state.grid
    pu, pb, pbt = (_power(c, g) for c in (state.psi_hat, state.a_hat, state.at_hat))
    um, bm, btm = (_perp_seminorm(g, p, m) for p in (pu, pb, pbt))
    um1 = _perp_seminorm(g, pu, m + 1)
    bm1 = _perp_seminorm(g, pb, m + 1)
    x = um**2 + bm**2 + 2.0 * gamma**2 * btm**2 + 2.0 * gamma * bm1**2
    cross = g.parseval_weight * np.real(state.at_hat * np.conj(state.a_hat))
    y = 2.0 * gamma * g.box_length**2 * float(np.sum(g.abs_k_power(2.0 * m + 2.0) * cross))
    z = um1**2 + bm1**2 + gamma * btm**2
    return x, y, z


def linear_singular_limit_error(gamma: float, T: float, initial: State) -> float:
    """Closed-form per-mode e(gamma) for the linear (forcing-free) flow from
    ``initial``: psi takes the same heat flow in both systems, so only A
    differs, by (m00 - e^{-k2 T}) A + m01 d_t A."""
    g = initial.grid
    tab = propagator_tables(gamma, g.k2, T)
    da = (tab["m00"] - np.exp(-g.k2 * T)) * initial.a_hat + tab["m01"] * initial.at_hat
    return _perp_seminorm(g, _power(da, g), 0.0)


@pytest.fixture
def grid16():
    return GridSpec(16, 2 * np.pi)


@pytest.fixture
def grid32():
    return GridSpec(32, 2 * np.pi)


def random_spectral(grid, seed, ncomp=2):
    """Hermitian random spectral field (built from real white noise)."""
    rng = np.random.default_rng(seed)
    return transform_forward(rng.standard_normal((ncomp, grid.n, grid.n)), grid)


def random_divfree(grid, seed):
    """Random divergence-free, dealiased, mean-free 2-component field."""
    f = dealias(leray_project(random_spectral(grid, seed)))
    f.coeffs[:, 0, 0] = 0.0
    return f


def random_state(grid, seed, scale=1.0):
    """A state whose fields (u, b, d_t b) are ``scale`` times independent
    ``random_divfree`` fields."""
    fields = (random_divfree(grid, seed + offset) for offset in (0, 1000, 2000))
    return state_from_vectors(*(SpectralVectorField(f.coeffs * scale, grid) for f in fields))


def vector_nonlinear(state):
    """Oracle: (N_u, N_b) in the vector divergence/curl form, on the fields
    u and b of the state.

    For divergence-free, 2/3-dealiased fields u.grad u - b.grad b =
    div(u (x) u - b (x) b) on the retained band, and in 2D
    b.grad u - u.grad b = (d_y E, -d_x E) with E = u1 b2 - u2 b1; N_u is
    the Leray projection of -div T.  4 inverse and 4 forward transforms.
    """
    g = state.grid
    n = g.n
    spec = np.concatenate((state.u_hat.coeffs, state.b_hat.coeffs))
    u1, u2, b1, b2 = np.fft.irfft2(spec, s=(n, n), axes=(-2, -1))
    prod = np.stack([u1 * u1 - b1 * b1, u1 * u2 - b1 * b2, u2 * u2 - b2 * b2, u1 * b2 - u2 * b1])
    hat = np.fft.rfft2(prod, axes=(-2, -1)) * g.dealias_mask * n**2
    kx, ky = g.kx, g.ky
    div1 = kx * hat[0] + ky * hat[1]
    div2 = kx * hat[1] + ky * hat[2]
    frac = (kx * div1 + ky * div2) * g.inv_k2
    out = -1j * np.stack([div1 - kx * frac, div2 - ky * frac, -ky * hat[3], kx * hat[3]])
    return SpectralVectorField(out[0:2], g), SpectralVectorField(out[2:4], g)


def propagator_matrix(gamma, k2, dt):
    """The 2x2 step matrix of (b, d_t b) at one k2, from ``propagator_tables``."""
    tab = propagator_tables(gamma, k2, dt)
    return np.array([[tab["m00"], tab["m01"]], [tab["m10"], tab["m11"]]], dtype=np.float64)


def single_mode_field(grid, kindex, amplitude=1.0, component=1):
    """Hermitian pair at +-kindex in the given component (divergence-free
    when the polarization is orthogonal to k); each of the two modes is set
    where the half layout stores it."""
    c = np.zeros((2, grid.n, grid.half), dtype=np.complex128)
    i, j = kindex
    for p, q in ((i, j), (-i, -j)):
        if q % grid.n < grid.half:
            c[component, p % grid.n, q % grid.n] = amplitude / 2.0
    return SpectralVectorField(c, grid)


def zero_field(grid):
    return SpectralVectorField(np.zeros((2, grid.n, grid.half), dtype=np.complex128), grid)


def expand_half_spectrum(half_arr, n):
    """Rebuild the full (..., n, n) spectrum from an rfft2 half spectrum.

    The redundant columns are filled by the Hermitian mirror
    full[i, n-j] = conj(half[(n-i) % n, j]); the self-conjugate columns
    (0 and n/2) are taken from the half spectrum as is.  For brute-force
    oracles that work on the full plane.
    """
    half = n // 2 + 1
    shape = half_arr.shape[:-2] + (n, n)
    full = np.empty(shape, dtype=np.complex128)
    full[..., :, :half] = half_arr
    body = np.conj(half_arr[..., :, n // 2 - 1 : 0 : -1])  # cols n/2-1 .. 1
    full[..., 0, half:] = body[..., 0, :]
    full[..., 1:, half:] = body[..., :0:-1, :]
    return full


def count_steps(monkeypatch):
    """A list that gains one entry per step ``run`` takes."""
    steps = []
    step = solver._STEPPERS["exp_integrator"]

    def counted(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setitem(solver._STEPPERS, "exp_integrator", counted)
    return steps
