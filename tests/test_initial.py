import numpy as np
import pytest

from mhdwave.errors import ConfigurationError
from mhdwave.grid import GridSpec, transform_inverse
from mhdwave.initial import make_initial_data
from mhdwave.solver import State

from conftest import divergence, magnitude, meshgrid, spectral_l2, state_from_vectors


def fields(st):
    """The vector triple (u0, b0, a0) of an initial state."""
    return st.u_hat, st.b_hat, st.bt_hat


def spectral_div_rel(f):
    norm = spectral_l2(f)
    if norm == 0:
        return 0.0
    return np.max(np.abs(divergence(f))) / norm


class TestTaylorGreen:
    def test_exact_pattern(self):
        g = GridSpec(32, 2 * np.pi)
        amp = 1.7
        st = make_initial_data("taylor_green", {"amplitude": amp}, g)
        u0, b0, a0 = fields(st)
        X, Y = meshgrid(g)
        u = transform_inverse(st.psi_hat, g)
        assert np.max(np.abs(u[0] - amp * np.sin(X) * np.cos(Y))) < 1e-13
        assert np.max(np.abs(u[1] + amp * np.cos(X) * np.sin(Y))) < 1e-13
        assert np.max(np.abs(divergence(u0))) < 1e-13

    def test_all_fields_divergence_free(self):
        g = GridSpec(32, 4 * np.pi)
        u0, b0, a0 = fields(make_initial_data("taylor_green", {"amplitude": 0.3}, g))
        for f in (u0, b0, a0):
            assert spectral_div_rel(f) <= 1e-12
        assert spectral_l2(a0) == 0.0

    def test_zero_amplitude(self):
        g = GridSpec(16, 2 * np.pi)
        u0, b0, a0 = fields(make_initial_data("taylor_green", {"amplitude": 0.0}, g))
        assert spectral_l2(u0) == 0.0 and spectral_l2(b0) == 0.0


class TestGaussianVortexPair:
    def test_divergence_and_tail(self):
        L = 16 * np.pi
        g = GridSpec(128, L)
        width = L / 16
        st = make_initial_data("gaussian_vortex_pair", {"amplitude": 1.0, "width": width}, g)
        u0, b0, _ = fields(st)
        assert spectral_div_rel(u0) <= 1e-12
        assert spectral_div_rel(b0) <= 1e-12
        u = magnitude(transform_inverse(st.psi_hat, g))
        peak = np.max(u)
        assert peak == pytest.approx(1.0, rel=1e-12)  # peak-normalized amplitude
        # physical decay at distance L/2 from the center (box corner)
        corner = max(u[0, 0], u[0, -1], u[-1, 0], u[-1, -1])
        assert corner < 1e-8 * peak

    def test_amplitude_scaling_exact(self):
        g = GridSpec(64, 8 * np.pi)
        params = {"width": np.pi}
        a = make_initial_data("gaussian_vortex_pair", dict(params, amplitude=1.0), g)
        b = make_initial_data("gaussian_vortex_pair", dict(params, amplitude=2.5), g)
        assert np.allclose(b.psi_hat, 2.5 * a.psi_hat, rtol=0, atol=0)
        assert np.allclose(b.a_hat, 2.5 * a.a_hat, rtol=0, atol=0)

    def test_wide_data_rejected(self):
        g = GridSpec(64, 8 * np.pi)
        with pytest.raises(ConfigurationError):
            make_initial_data(
                "gaussian_vortex_pair", {"amplitude": 1.0, "width": 2.1 * np.pi}, g
            )


class TestRandomBand:
    def test_divergence_free_and_band_limited(self):
        g = GridSpec(64, 4 * np.pi)
        u0, b0, a0 = fields(make_initial_data(
            "random_band", {"amplitude": 0.1, "k_max": 3.0, "seed": 5}, g
        ))
        assert spectral_div_rel(u0) <= 1e-12
        assert spectral_div_rel(b0) <= 1e-12
        outside = ~((g.kmag <= 3.0) & (g.k2 > 0))
        assert np.max(np.abs(u0.coeffs[:, outside])) == 0.0

    def test_seed_reproducibility(self):
        g = GridSpec(32, 2 * np.pi)
        p = {"amplitude": 1.0, "k_max": 4.0, "seed": 42}
        a = make_initial_data("random_band", dict(p), g)
        b = make_initial_data("random_band", dict(p), g)
        c = make_initial_data("random_band", dict(p, seed=43), g)
        assert np.array_equal(a.psi_hat, b.psi_hat) and np.array_equal(a.a_hat, b.a_hat)
        assert not np.array_equal(a.psi_hat, c.psi_hat)

    def test_flat_profile_modulus(self):
        # spectral_exponent 0: every retained band mode has equal |psi| * |k|
        g = GridSpec(32, 2 * np.pi)
        u0 = make_initial_data(
            "random_band", {"amplitude": 1.0, "k_min": 1.5, "k_max": 3.5, "seed": 1}, g
        ).u_hat
        band = (g.kmag >= 1.5) & (g.kmag <= 3.5) & g.dealias_mask
        mods = np.sqrt(np.abs(u0.coeffs[0][band]) ** 2 + np.abs(u0.coeffs[1][band]) ** 2)
        assert np.max(mods) / np.min(mods) == pytest.approx(1.0, rel=1e-10)

    def test_a0_amplitude(self):
        g = GridSpec(32, 2 * np.pi)
        st = make_initial_data(
            "random_band", {"amplitude": 1.0, "k_max": 4.0, "seed": 2, "a0_amplitude": 0.5}, g
        )
        assert spectral_l2(st.bt_hat) > 0
        assert np.max(magnitude(transform_inverse(st.at_hat, g))) == pytest.approx(0.5)


def test_unknown_family_rejected():
    g = GridSpec(16, 2 * np.pi)
    with pytest.raises(ConfigurationError):
        make_initial_data("plume", {"amplitude": 1.0}, g)


def test_unknown_param_rejected():
    g = GridSpec(16, 2 * np.pi)
    with pytest.raises(ConfigurationError):
        make_initial_data("taylor_green", {"amplitude": 1.0, "vorticity": 3}, g)


@pytest.mark.parametrize("family,key", [
    ("taylor_green", "amplitude_b"),
    ("gaussian_vortex_pair", "amplitude_b"),
    ("random_band", "amplitude_b"),
    ("random_band", "a0_amplitude"),
])
def test_negative_amplitude_rejected(family, key):
    # a negative amplitude_b would flip the sign of b and a negative
    # a0_amplitude would drop d_t A: each is refused at its key, as the
    # config parser refuses it
    g = GridSpec(16, 2 * np.pi)
    with pytest.raises(ConfigurationError, match=f"{key} must be >= 0") as exc:
        make_initial_data(family, {"amplitude": 1.0, key: -0.5}, g)
    assert exc.value.path == f"initial_data.{key}"


@pytest.mark.parametrize("family,params", [
    ("taylor_green", {"amplitude": 0.3}),
    ("gaussian_vortex_pair", {"amplitude": 1.0, "amplitude_b": 0.4}),
    ("random_band", {"amplitude": 0.1, "k_max": 3.0, "seed": 5, "a0_amplitude": 0.2}),
])
def test_potentials_match_the_vector_round_trip(family, params):
    # before the families built potentials, run mapped the vector triple
    # (u0, b0, a0) to them with State.from_vectors: same state to round-off
    g = GridSpec(64, 4 * np.pi)
    st = make_initial_data(family, params, g)
    assert isinstance(st, State) and st.t == 0.0
    old = state_from_vectors(*fields(st))
    for new, ref in ((st.psi_hat, old.psi_hat), (st.a_hat, old.a_hat), (st.at_hat, old.at_hat)):
        assert np.max(np.abs(new - ref)) <= 1e-15 * max(np.max(np.abs(ref)), 1e-300)
        assert new[0, 0] == 0.0 and np.all(new[~g.dealias_mask] == 0.0)
