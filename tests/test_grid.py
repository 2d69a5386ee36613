import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from mhdwave.diagnostics import lq_norm
from mhdwave.errors import ConfigurationError, DomainError
from mhdwave.grid import GridSpec, transform_inverse

from conftest import (
    SpectralVectorField,
    dealias,
    divergence,
    expand_half_spectrum,
    fractional_laplacian_apply,
    grid_values,
    hermitian_error,
    leray_project,
    magnitude,
    meshgrid,
    random_divfree,
    random_spectral,
    single_mode_field,
    spectral_inner,
    spectral_l2,
    transform_forward,
)


class TestGridSpec:
    def test_rejects_small_or_odd_n(self):
        with pytest.raises(ConfigurationError):
            GridSpec(6, 1.0)
        with pytest.raises(ConfigurationError):
            GridSpec(17, 1.0)
        with pytest.raises(ConfigurationError):
            GridSpec(16, -1.0)

    def test_rejects_n_beyond_physical_memory(self):
        # checked before any table is built, so nothing is allocated
        with pytest.raises(ConfigurationError, match="grid.n"):
            GridSpec(2**40, 1.0)

    @pytest.mark.parametrize("box_length", [float("inf"), float("nan")])
    def test_rejects_non_finite_box_length(self, box_length):
        with pytest.raises(ConfigurationError, match="grid.box_length"):
            GridSpec(16, box_length)

    def test_wavenumber_lattice(self):
        g = GridSpec(8, 4 * np.pi)
        assert g.k1d[0] == 0.0
        assert g.k1d[1] == pytest.approx(0.5)
        assert g.k1d[-1] == pytest.approx(-0.5)

    def test_dealias_mask_boundary_zeroed(self):
        # cutoff at n/3 with strict inequality retained
        g = GridSpec(24, 2 * np.pi)
        assert g.dealias_mask[7, 0]       # |k| = 7 < 8
        assert not g.dealias_mask[8, 0]   # |k| = 8 = n/3: zeroed


class TestTransforms:
    def test_single_harmonic(self, grid32):
        X, _ = meshgrid(grid32)
        f = transform_forward(np.cos(X)[None], grid32)
        assert f.coeffs[0, 1, 0] == pytest.approx(0.5, abs=1e-14)
        assert f.coeffs[0, -1, 0] == pytest.approx(0.5, abs=1e-14)
        rest = np.sum(np.abs(f.coeffs)) - np.abs(f.coeffs[0, 1, 0]) - np.abs(f.coeffs[0, -1, 0])
        assert rest < 1e-13

    def test_zero_field(self, grid16):
        f = transform_forward(np.zeros((2, 16, 16)), grid16)
        assert np.all(f.coeffs == 0)

    def test_round_trip(self, grid32):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((2, 32, 32))
        back = grid_values(transform_forward(vals, grid32))
        assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_parseval(self, grid32):
        f = random_spectral(grid32, 3)
        l2_phys = np.sqrt(np.sum(magnitude(grid_values(f)) ** 2) * grid32.cell_area)
        assert spectral_l2(f) == pytest.approx(l2_phys, rel=1e-12)

    def test_dimension_mismatch(self, grid32):
        # the reference field carries its grid and checks its shape against it
        with pytest.raises(ConfigurationError):
            SpectralVectorField(np.zeros((2, 16, 9)), grid32)

    def test_transform_inverse_is_grad_perp_of_the_potential(self, grid32):
        # psi = sin x sin 2y: grad^perp psi = (-d_y psi, d_x psi)
        X, Y = meshgrid(grid32)
        psi = transform_forward(np.sin(X) * np.sin(2 * Y), grid32).coeffs[0]
        u = transform_inverse(psi, grid32)
        assert u.shape == (2, 32, 32)
        assert np.max(np.abs(u[0] + 2 * np.sin(X) * np.cos(2 * Y))) < 1e-13
        assert np.max(np.abs(u[1] - np.cos(X) * np.sin(2 * Y))) < 1e-13
        # the call and scaling of the inverse of the vector field grad^perp psi
        assert np.array_equal(
            u, grid_values(SpectralVectorField(grid32.grad_perp * psi, grid32)))

    def test_hermitian_symmetry_of_real_transforms(self, grid16):
        f = random_spectral(grid16, 4)
        assert hermitian_error(f) < 1e-14


class TestHalfLayoutProperties:
    """The half layout over random real fields: transforms, Parseval weights
    and the self-conjugate columns 0 and n/2."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=hst.integers(4, 32).map(lambda h: 2 * h), box_length=hst.floats(0.1, 100.0),
           ncomp=hst.sampled_from([1, 2]), seed=hst.integers(0, 2**32 - 1))
    def test_transforms_and_parseval(self, n, box_length, ncomp, seed):
        g = GridSpec(n, box_length)
        vals, noise = np.random.default_rng(seed).standard_normal((2, ncomp, n, n))
        fh, hh = transform_forward(vals, g), transform_forward(vals + noise, g)
        assert fh.coeffs.shape == (ncomp, n, n // 2 + 1)
        back = grid_values(fh)
        assert np.max(np.abs(back - vals)) <= 1e-13 * np.max(np.abs(vals))
        assert spectral_l2(fh) == pytest.approx(lq_norm(magnitude(vals), g, 2), rel=1e-12)
        direct = np.sum(vals * (vals + noise)) * g.cell_area
        assert spectral_inner(fh, hh) == pytest.approx(direct, rel=1e-12)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=hst.integers(4, 32).map(lambda h: 2 * h), box_length=hst.floats(0.1, 100.0),
           seed=hst.integers(0, 2**32 - 1), row=hst.integers(1, 2**16))
    def test_hermitian_error_watches_self_conjugate_columns(self, n, box_length, seed, row):
        g = GridSpec(n, box_length)
        vals = np.random.default_rng(seed).standard_normal((2, n, n))
        f = transform_forward(vals, g)
        scale = np.max(np.abs(f.coeffs))
        assert hermitian_error(f) <= 1e-15 * scale
        defect = 1e-6 * scale
        for col in (0, n // 2):
            bad = SpectralVectorField(f.coeffs.copy(), f.grid)
            bad.coeffs[1, row % n, col] += defect * (1 + 1j)
            assert hermitian_error(bad) >= defect


class TestFractionalLaplacian:
    def test_single_mode_scaling(self, grid16):
        f = single_mode_field(grid16, (2, 0))
        out = fractional_laplacian_apply(f, 1.0)
        assert np.allclose(out.coeffs, 2.0 * f.coeffs)

    def test_s_zero_identity(self, grid16):
        f = random_spectral(grid16, 5)
        out = fractional_laplacian_apply(f, 0.0)
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_round_trip_mean_zero(self, grid16):
        f = random_divfree(grid16, 6)
        out = fractional_laplacian_apply(fractional_laplacian_apply(f, 1.0), -1.0)
        ref = dealias(f)  # multiplier path zeroes Nyquist; f is already dealiased
        scale = np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(out.coeffs - ref.coeffs)) <= 1e-12 * scale

    def test_negative_s_on_nonzero_mean_rejected(self, grid16):
        c = np.zeros((1, 16, 9), dtype=complex)
        c[0, 0, 0] = 1.0
        with pytest.raises(DomainError):
            fractional_laplacian_apply(SpectralVectorField(c, grid16), -0.5)

    def test_exponent_additivity(self, grid16):
        f = random_divfree(grid16, 7)
        a = fractional_laplacian_apply(fractional_laplacian_apply(f, 0.7), 0.8)
        b = fractional_laplacian_apply(f, 1.5)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(b.coeffs))


class TestLeray:
    def test_annihilates_gradients(self, grid16):
        # f = grad(phi) for a random mean-zero phi
        phi = random_spectral(grid16, 8, ncomp=1)
        phi.coeffs[:, 0, 0] = 0.0
        c = np.empty((2, 16, 9), dtype=complex)
        c[0] = 1j * grid16.kx * phi.coeffs[0] * grid16.nyquist_free
        c[1] = 1j * grid16.ky * phi.coeffs[0] * grid16.nyquist_free
        out = leray_project(SpectralVectorField(c, grid16))
        assert np.max(np.abs(out.coeffs)) <= 1e-12 * np.max(np.abs(c))

    def test_identity_on_divergence_free(self, grid16):
        f = random_divfree(grid16, 9)
        out = leray_project(f)
        assert np.max(np.abs(out.coeffs - f.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))

    def test_output_divergence_free_and_idempotent(self, grid16):
        f = random_spectral(grid16, 10)
        p = leray_project(f)
        assert np.max(np.abs(divergence(p))) <= 1e-12 * spectral_l2(p)
        pp = leray_project(p)
        assert np.max(np.abs(pp.coeffs - p.coeffs)) <= 1e-13 * np.max(np.abs(p.coeffs))

    def test_orthogonality(self, grid16):
        f = random_spectral(grid16, 11)
        p = leray_project(f)
        rest = SpectralVectorField(f.coeffs - p.coeffs, grid16)
        inner = spectral_inner(p, rest)
        assert abs(inner) <= 1e-12 * spectral_l2(f) ** 2


class TestDealias:
    def test_band_limited_unchanged(self, grid16):
        f = single_mode_field(grid16, (3, 2))
        out = dealias(f)
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_boundary_mode_zeroed(self):
        g = GridSpec(24, 2 * np.pi)
        f = single_mode_field(g, (8, 0))  # exactly at n/3
        out = dealias(f)
        assert np.all(out.coeffs == 0)

    def test_product_matches_direct_convolution(self, grid16):
        # scalar product of two retained-band fields vs the integer-index
        # convolution, compared on the retained band
        g = grid16
        rng = np.random.default_rng(12)
        a = dealias(random_spectral(g, 13, ncomp=1))
        b = dealias(random_spectral(g, 14, ncomp=1))
        prod = transform_forward(grid_values(a) * grid_values(b), g)
        prod = dealias(prod)

        idx = np.fft.fftfreq(g.n, 1.0 / g.n).astype(int)
        fa = expand_half_spectrum(a.coeffs[0], g.n)
        fb = expand_half_spectrum(b.coeffs[0], g.n)
        truth = np.zeros((g.n, g.n), dtype=complex)
        supp = [(i, j) for i in range(g.n) for j in range(g.n) if fa[i, j] != 0]
        suppb = [(i, j) for i in range(g.n) for j in range(g.n) if fb[i, j] != 0]
        for i1, j1 in supp:
            for i2, j2 in suppb:
                s1, s2 = idx[i1] + idx[i2], idx[j1] + idx[j2]
                if abs(s1) >= g.n // 2 or abs(s2) >= g.n // 2:
                    continue
                truth[s1 % g.n, s2 % g.n] += fa[i1, j1] * fb[i2, j2]
        truth = truth[:, : g.half] * g.dealias_mask
        scale = np.max(np.abs(truth))
        assert np.max(np.abs(prod.coeffs[0] - truth)) <= 1e-12 * scale


def test_expand_half_spectrum_exact(grid16):
    # the test-side helper behind the brute-force oracles, against a full fft2
    n = grid16.n
    full = np.fft.fft2(np.random.default_rng(15).standard_normal((2, n, n))) / n**2
    half = n // 2 + 1
    rebuilt = expand_half_spectrum(full[:, :, :half].copy(), n)
    scale = np.max(np.abs(full))
    # same field up to the round-off already present in the redundant half
    assert np.max(np.abs(rebuilt - full)) < 1e-13 * scale
    mirrored = np.roll(np.conj(rebuilt[:, ::-1, ::-1]), (1, 1), axis=(1, 2))
    assert np.max(np.abs(rebuilt - mirrored)) < 1e-14 * scale
