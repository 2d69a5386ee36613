"""Periodic-box spectral infrastructure.

A square box of side ``L`` is discretized with ``n`` points per axis.
Real fields live on the physical grid.  Spectral fields hold the Fourier
coefficients of a real field in the rfft2 half-spectrum layout, shape
``(c, n, n//2 + 1)``: row ``i`` is the x wavenumber ``2*pi*i/L`` in numpy
FFT order, column ``j = 0 .. n/2`` the y wavenumber.  The other half of
the plane is the Hermitian mirror ``f_hat(-k) = conj(f_hat(k))`` and is
never stored; every table of ``GridSpec`` has the half shape.

Normalization: a forward transform divides by ``n**2`` and
``transform_inverse`` multiplies, so a coefficient is the amplitude of
``exp(i k.x)`` and Parseval reads ``||f||_L2^2 = L^2 * sum_k w_k |f_hat(k)|^2`` over the
stored modes.  The weight ``GridSpec.parseval_weight`` is 1 on the
self-conjugate columns 0 and n/2 and 2 on the others, which stand for
their mirrors too.

Nyquist modes (index ``n/2``) carry an ambiguous sign of k, so the
multiplier tables ``abs_k_power``, ``inv_k2`` and ``grad_perp`` are zero
there, which keeps derivative operators skew-symmetric; the inverse
transform leaves them untouched.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "GridSpec",
    "transform_inverse",
]


# Bytes a nonlinear run with an observer and a checkpoint sink holds per
# grid point at its peak.  A (n, n//2 + 1) complex array is about 8 B a
# point (it has n more entries than n^2 / 2), a real one 4 B and a
# boolean one 0.5 B.  For the whole run: the grid's kx, ky, k2, |k|,
# 1/k2 and grad^perp (36) and its two masks (1), the eight step tables
# and three forcing tables (44), the masked grad^perp table of the
# inverse (2 complex on the retained two thirds of the half-spectrum
# columns: 11), the scratch spectrum of (u, b), which also takes the
# forward transform (4 complex: 32), and the norm observer's |k|^p
# tables (three, as for the energy triple: 12).  Four states (12
# complex: 96): the initial state ``run`` is given, the newest (the one
# a step is making, or the one observed), the one before it, which the
# step reads and the checkpoint writer may still be writing, and the one
# a sink may keep until its next call.  On top, the larger of what a
# step makes besides its state (one linear-update temporary: 8; the step
# adds its second products in place) and what an observer call makes
# (72: the power spectra, and u and b on the grid with the transforms'
# temporaries for an L^q norm with q != 2).  The inverse and the
# products of one row block are 7 real rows of n, under 1 MB at any
# n <= 2**14, and are left out.
_BYTES_PER_POINT = 304


@dataclass(frozen=True)
class GridSpec:
    """Geometry and resolution of the periodic box.

    Parameters
    ----------
    n : int
        Points per axis; must be even and at least 8 (powers of two give
        the fastest transforms), and small enough that a nonlinear run
        fits in physical memory.
    box_length : float
        Physical side length L of the box.
    """

    n: int
    box_length: float

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ConfigurationError(f"n must be even and >= 8, got {self.n}", path="grid.n")
        need = _BYTES_PER_POINT * self.n**2
        if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise ConfigurationError(
                f"n={self.n} needs about {need / 2**30:.3g} GiB to run, more than the "
                "physical memory", path="grid.n")
        if not 0 < self.box_length < np.inf:
            raise ConfigurationError(
                f"box_length must be positive and finite, got {self.box_length}",
                path="grid.box_length",
            )

    @cached_property
    def k1d(self) -> np.ndarray:
        """1D wavenumbers 2*pi*j/L in FFT order."""
        return 2.0 * np.pi / self.box_length * np.fft.fftfreq(self.n, 1.0 / self.n)

    @cached_property
    def half(self) -> int:
        """Columns of the rfft2 half spectrum (n // 2 + 1)."""
        return self.n // 2 + 1

    @cached_property
    def kx(self) -> np.ndarray:
        return self.k1d[:, None] * np.ones((1, self.half))

    @cached_property
    def ky(self) -> np.ndarray:
        return np.ones((self.n, 1)) * self.k1d[None, : self.half]

    @cached_property
    def k2(self) -> np.ndarray:
        return self.kx**2 + self.ky**2

    @cached_property
    def kmag(self) -> np.ndarray:
        return np.sqrt(self.k2)

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """Per-column Parseval weight: 1 on columns 0 and n/2, 2 elsewhere."""
        w = np.full(self.half, 2.0)
        w[[0, -1]] = 1.0
        w.flags.writeable = False
        return w

    @cached_property
    def _abs_k_powers(self) -> dict:
        return {}

    def abs_k_power(self, s: float) -> np.ndarray:
        """The multiplier |k|^s, zero at k = 0 and on the Nyquist modes.

        Built once per grid and ``s``; the shared table is read-only.
        """
        table = self._abs_k_powers.get(s)
        if table is None:
            table = np.where(self.nyquist_free & (self.k2 > 0),
                             np.where(self.k2 > 0, self.kmag, 1.0) ** s, 0.0)
            table.flags.writeable = False
            self._abs_k_powers[s] = table
        return table

    @cached_property
    def nyquist_free(self) -> np.ndarray:
        """Mask selecting modes without a Nyquist index on either axis."""
        idx = np.fft.fftfreq(self.n, 1.0 / self.n)
        ok = np.abs(idx) != self.n // 2
        return ok[:, None] & ok[None, : self.half]

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule with strict inequality retained at the cutoff."""
        cutoff = (self.n / 3.0) * (2.0 * np.pi / self.box_length)
        return (np.abs(self.kx) < cutoff) & (np.abs(self.ky) < cutoff)

    @cached_property
    def inv_k2(self) -> np.ndarray:
        """The Leray table 1/|k|^2, zero at k = 0 and on the Nyquist modes."""
        inv = np.zeros_like(self.k2)
        np.divide(1.0, self.k2, out=inv, where=self.nyquist_free & (self.k2 > 0))
        return inv

    @cached_property
    def grad_perp(self) -> np.ndarray:
        """The (2, n, n//2 + 1) symbol (-i ky, i kx) of grad^perp = (-d_y, d_x),
        zero on the Nyquist modes; read-only."""
        perp = np.stack([-1j * self.ky, 1j * self.kx]) * self.nyquist_free
        perp.flags.writeable = False
        return perp

    @property
    def cell_area(self) -> float:
        return (self.box_length / self.n) ** 2


def transform_inverse(potential: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The (2, n, n) grid values of grad^perp of a half-spectrum potential
    (multiplies by n^2)."""
    return np.fft.irfft2(grid.grad_perp * potential, s=(grid.n, grid.n), axes=(-2, -1)) * grid.n**2
