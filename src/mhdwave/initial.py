"""Divergence-free initial data families.

All velocity-like fields are built from stream functions, ``u = grad^perp
psi``, so they are divergence-free by construction.  Each family builds
the potentials psi (u = grad^perp psi), A (b = grad^perp A) and d_t A
directly, and ``make_initial_data`` returns them as the solver's ``State``;
d_t A defaults to zero.

Families
--------
``taylor_green``
    The classical cellular flow ``A (sin kx cos ky, -cos kx sin ky)`` with
    ``k = 2*pi/L``; ``b0`` is the same pattern shifted by a quarter box so
    the cross terms do not vanish identically.
``gaussian_vortex_pair``
    Two opposite-signed Gaussian stream-function bumps (a localized vortex
    dipole); the magnetic dipole is rotated 90 degrees.  Physical-space
    tails are Gaussian, so the data emulates integrable (L^1-type) data on
    the plane.
``random_band``
    Random-phase, deterministic-modulus fields with a prescribed isotropic
    spectral profile ``|u_hat(k)| ~ |k|**spectral_exponent`` supported on
    ``k_min <= |k| <= k_max``.  A flat profile (exponent 0) reproduces the
    low-frequency signature of borderline-integrable plane data, which is
    what makes algebraic decay rates observable on the torus.

Randomness flows through a counter-based generator (numpy Philox keyed by
the seed), so draws are reproducible across platforms.  Every family is
built directly in the half-spectrum layout of ``grid``.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigurationError
from .grid import GridSpec, transform_inverse
from .solver import State

__all__ = ["make_initial_data", "INITIAL_FAMILIES"]

# family -> the params it reads besides amplitude, amplitude_b and seed
INITIAL_FAMILIES = {
    "taylor_green": (),
    "gaussian_vortex_pair": ("width", "separation"),
    "random_band": ("k_min", "k_max", "spectral_exponent", "a0_amplitude"),
}


def _peak_normalized(psi: np.ndarray, grid: GridSpec, amplitude: float) -> np.ndarray:
    """Scale psi so the grid maximum of |grad^perp psi| equals ``amplitude``.

    Normalizes to a unit-peak shape first and multiplies by the amplitude
    last, so scaling in the amplitude parameter is exactly linear.
    """
    f = transform_inverse(psi, grid)
    peak = float(np.max(np.sqrt(f[0] ** 2 + f[1] ** 2)))
    if peak == 0.0:
        return psi
    return psi * (1.0 / peak) * amplitude


def _taylor_green(grid: GridSpec, amplitude: float, amplitude_b: float):
    kappa = 2.0 * np.pi / grid.box_length
    # psi = -(1/kappa) sin(kx) sin(ky)  =>  u = (sin kx cos ky, -cos kx sin ky)
    psi = np.zeros((grid.n, grid.half), dtype=np.complex128)
    # sin(kx)sin(ky) = -1/4 (e^{i(x+y)k} + e^{-i(x+y)k} - e^{i(x-y)k} - e^{-i(x-y)k});
    # the half layout stores the modes (1, 1) and (-1, 1), the rest are mirrors
    psi[1, 1] = -0.25
    psi[-1, 1] = 0.25
    # b: quarter-box shift in y, sin(kx)sin(k(y+L/4)) = sin(kx)cos(ky)
    psi_b = np.zeros_like(psi)
    psi_b[1, 1] = -0.25j
    psi_b[-1, 1] = 0.25j
    return (-psi / kappa) * amplitude, (-psi_b / kappa) * amplitude_b


def _gaussian_pair_stream(grid: GridSpec, width: float, centers, signs) -> np.ndarray:
    """Spectral stream function of signed Gaussian bumps exp(-|x-c|^2/(2 w^2))."""
    psi = np.zeros((grid.n, grid.half), dtype=np.complex128)
    envelope = (2.0 * np.pi * width**2 / grid.box_length**2) * np.exp(-0.5 * width**2 * grid.k2)
    for c, s in zip(centers, signs):
        phase = np.exp(-1j * (grid.kx * c[0] + grid.ky * c[1]))
        psi += s * envelope * phase
    return psi


def _gaussian_vortex_pair(grid: GridSpec, amplitude: float, amplitude_b: float,
                          width: float, separation: float):
    L = grid.box_length
    if width <= 0:
        raise ConfigurationError(f"width must be > 0, got {width}", path="initial_data.width")
    if width >= L / 4:
        raise ConfigurationError(
            f"width {width} too large for box {L}: data would not be localized",
            path="initial_data.width",
        )
    cx = cy = L / 2
    d = separation / 2
    psi_u = _gaussian_pair_stream(grid, width, [(cx, cy - d), (cx, cy + d)], [1.0, -1.0])
    psi_b = _gaussian_pair_stream(grid, width, [(cx - d, cy), (cx + d, cy)], [1.0, -1.0])
    return _peak_normalized(psi_u, grid, amplitude), _peak_normalized(psi_b, grid, amplitude_b)


def _random_phases(grid: GridSpec, rng: Generator) -> np.ndarray:
    """Hermitian-symmetric unit-modulus phases (from the spectrum of real noise)."""
    noise = rng.standard_normal((grid.n, grid.n))
    spec = np.fft.rfft2(noise)
    mag = np.abs(spec)
    return np.where(mag > 0, spec / np.where(mag > 0, mag, 1.0), 1.0)


def _random_band_field(grid: GridSpec, rng: Generator, k_min: float, k_max: float,
                       spectral_exponent: float) -> np.ndarray:
    kmag = grid.kmag
    band = (kmag >= k_min) & (kmag <= k_max) & (grid.k2 > 0) & grid.dealias_mask
    if not band.any():
        raise ConfigurationError(f"no retained mode has {k_min} <= |k| <= {k_max}",
                                 path="initial_data.k_min")
    profile = np.where(band, np.where(grid.k2 > 0, kmag, 1.0) ** spectral_exponent, 0.0)
    return _random_phases(grid, rng) * profile / np.where(grid.k2 > 0, kmag, 1.0)


def make_initial_data(family: str, params: dict, grid: GridSpec) -> State:
    """Construct divergence-free initial data as the potentials of (u0, b0, a0).

    Parameters
    ----------
    family : str
        One of ``INITIAL_FAMILIES``.
    params : dict
        ``amplitude`` (>= 0, required) scales u0 and, unless ``amplitude_b``
        (>= 0) is given, b0.  Family-specific keys: ``width``/``separation`` for
        the Gaussian pair; ``k_min``/``k_max``/``spectral_exponent``/
        ``seed``/``a0_amplitude`` (>= 0) for the random band.

    Returns
    -------
    State at t = 0 holding psi, A and d_t A, dealiased and mean-free.
    """
    params = dict(params)
    amplitude = params.pop("amplitude", None)
    if amplitude is None or amplitude < 0:
        raise ConfigurationError("params must include amplitude >= 0",
                                 path="initial_data.amplitude")
    amplitude_b = params.pop("amplitude_b", amplitude)
    if amplitude_b < 0:
        raise ConfigurationError("amplitude_b must be >= 0", path="initial_data.amplitude_b")
    at = np.zeros((grid.n, grid.half), dtype=np.complex128)

    if family == "taylor_green":
        params.pop("seed", None)
        psi, a = _taylor_green(grid, amplitude, amplitude_b)
    elif family == "gaussian_vortex_pair":
        width = params.pop("width", grid.box_length / 16)
        separation = params.pop("separation", width)
        params.pop("seed", None)
        psi, a = _gaussian_vortex_pair(grid, amplitude, amplitude_b, width, separation)
    elif family == "random_band":
        seed = int(params.pop("seed", 0))
        k_min = params.pop("k_min", 2.0 * np.pi / grid.box_length)
        k_max = params.pop("k_max", grid.n / 8 * 2.0 * np.pi / grid.box_length)
        slope = params.pop("spectral_exponent", 0.0)
        a0_amplitude = params.pop("a0_amplitude", 0.0)
        if a0_amplitude < 0:
            raise ConfigurationError("a0_amplitude must be >= 0",
                                     path="initial_data.a0_amplitude")
        rng = Generator(Philox(key=seed))

        def draw(amp):
            return _peak_normalized(_random_band_field(grid, rng, k_min, k_max, slope), grid, amp)

        # psi, A, then d_t A: the draw order fixes each seed's data
        psi, a = draw(amplitude), draw(amplitude_b)
        if a0_amplitude > 0:
            at = draw(a0_amplitude)
    else:
        raise ConfigurationError(f"unknown initial data family {family!r}",
                                 path="initial_data.family")
    if params:
        raise ConfigurationError(f"unknown initial-data keys {sorted(params)}",
                                 path="initial_data")
    # keep initial data inside the retained band so products stay alias-free;
    # the mean of a potential carries no field
    mask = grid.dealias_mask
    state = State(psi * mask, a * mask, at * mask, grid)
    for c in (state.psi_hat, state.a_hat, state.at_hat):
        c[0, 0] = 0.0
    return state
