import numpy as np
import pytest

from mhdwave import solver
from mhdwave.grid import (
    GridSpec,
    RealField,
    SpectralVectorField,
    dealias,
    leray_project,
    transform_forward,
)
from mhdwave.kernels import propagator_tables
from mhdwave.solver import State


@pytest.fixture
def grid16():
    return GridSpec(16, 2 * np.pi)


@pytest.fixture
def grid32():
    return GridSpec(32, 2 * np.pi)


def random_spectral(grid, seed, ncomp=2):
    """Hermitian random spectral field (built from real white noise)."""
    rng = np.random.default_rng(seed)
    f = RealField(rng.standard_normal((ncomp, grid.n, grid.n)), grid)
    return transform_forward(f)


def random_divfree(grid, seed):
    """Random divergence-free, dealiased, mean-free 2-component field."""
    f = dealias(leray_project(random_spectral(grid, seed)))
    f.coeffs[:, 0, 0] = 0.0
    return f


def random_state(grid, seed, scale=1.0):
    """A state whose fields (u, b, d_t b) are ``scale`` times independent
    ``random_divfree`` fields."""
    fields = (random_divfree(grid, seed + offset) for offset in (0, 1000, 2000))
    return State.from_vectors(*(SpectralVectorField(f.coeffs * scale, grid) for f in fields))


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
