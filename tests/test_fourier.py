import math

import numpy as np
import pytest

from lzphi import (
    CircularState,
    PendulumState,
    RotorSuperposition,
    coefficients,
    line_transform,
    parseval_check,
    wavefunction,
    width_product,
)

from lzphi.engine import EngineSettings
from lzphi.numerics import MAX_HERMITE_NODES

from .conftest import random_rotor, random_spherical
from .oracles import legendre_nodes

TWO_PI = 2.0 * math.pi


class TestCoefficients:
    def test_circular_is_a_basis_vector(self):
        coeffs = coefficients(CircularState(m=3))
        assert coeffs.ms == (3,)
        assert coeffs.values[0] == pytest.approx(1.0)

    def test_rotor_returns_stored_amplitudes(self):
        state = RotorSuperposition({-1: 2**-0.5, 1: 2**-0.5})
        coeffs = coefficients(state)
        assert coeffs.values == pytest.approx((2**-0.5, 2**-0.5))

    def test_quadrature_path_recovers_mode(self):
        coeffs = coefficients(CircularState(m=2), method="quadrature")
        assert coeffs.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_pendulum_rejected(self):
        with pytest.raises(ValueError):
            coefficients(PendulumState(n=0))

    def test_quadrature_matches_analytic_for_random_rotor(self):
        state = random_rotor(np.random.default_rng(3))
        exact = coefficients(state).values
        quad = coefficients(state, method="quadrature").values
        assert np.max(np.abs(np.array(exact) - np.array(quad))) < 1e-11


class TestRoundTrip:
    def test_rotor_reconstruction_at_samples(self):
        state = random_rotor(np.random.default_rng(17), span=6)
        coeffs = coefficients(state)
        phi = np.linspace(0.0, TWO_PI, 64)
        rebuilt = coeffs.reconstruct(phi)
        direct = wavefunction(state, phi)
        assert np.max(np.abs(rebuilt - direct)) < 1e-9


class TestParseval:
    def test_circular(self):
        assert parseval_check(CircularState(m=4)) < 1e-12

    def test_spherical_random(self):
        for l in (2, 64):
            state = random_spherical(np.random.default_rng(21), l)
            assert parseval_check(state) < 1e-10

    def test_pendulum(self):
        assert parseval_check(PendulumState(n=3)) < 1e-8

    def test_all_fixtures_tight(self, fixture_states):
        for state in fixture_states:
            assert parseval_check(state) < 1e-10

    @pytest.mark.parametrize("nodes", [257, MAX_HERMITE_NODES])
    def test_pendulum_at_large_hermite_rules(self, nodes):
        # the line-transform rules are sized from n; nodes reach only var_phi's grid
        settings = EngineSettings(hermite_nodes=nodes)
        for n in (0, 5, 16):
            state = PendulumState(n=n)
            assert parseval_check(state, settings=settings) < 1e-10
            assert width_product(state, method="quadrature", settings=settings) == pytest.approx(
                (n + 0.5) ** 2, abs=1e-8
            )

    @pytest.mark.parametrize("nodes", [2, 16, 128, MAX_HERMITE_NODES])
    def test_pendulum_up_to_n_64_at_any_hermite_nodes(self, nodes):
        settings = EngineSettings(hermite_nodes=nodes)
        for n in range(65):
            state = PendulumState(n=n, hbar=1.7, inertia=0.37, omega=2.9)
            assert parseval_check(state, settings=settings) < 1e-10


class TestLineTransform:
    def test_gaussian_at_origin(self):
        got = line_transform(PendulumState(n=0), 0.0)
        assert got == pytest.approx(math.pi**-0.25, abs=1e-8)

    def test_odd_state_vanishes_at_origin(self):
        assert abs(line_transform(PendulumState(n=1), 0.0)) < 1e-10

    def test_rejects_periodic_families(self):
        with pytest.raises(ValueError):
            line_transform(CircularState(m=0), 1.0)

    @staticmethod
    def _closed_form_error(n):
        # Hermite functions are Fourier eigenfunctions:
        # psi~(k) = (A/s) * (-i)^n * exp(-q^2/2) * H_n(q) with q = k/s
        state = PendulumState(n=n, hbar=1.7, inertia=0.37, omega=2.9)
        s = state.scale
        k = np.linspace(-1.0, 1.0, 201) * s * (math.sqrt(2 * n + 1) + 8.0)
        q = k / s
        h_n = np.polynomial.hermite.hermval(q, [0.0] * n + [1.0])
        exact = state.amplitude / s * (-1j) ** n * np.exp(-q * q / 2) * h_n
        return np.max(np.abs(line_transform(state, k) - exact))

    def test_matches_the_closed_form(self):
        for n in range(13):
            assert self._closed_form_error(n) < 1e-13

    def test_matches_the_closed_form_up_to_n_64(self):
        for n in range(65):
            assert self._closed_form_error(n) < 1e-13, n

    def test_parity_is_exact(self):
        k = np.linspace(0.0, 30.0, 97)
        for n in range(65):
            state = PendulumState(n=n, hbar=1.7, inertia=0.37, omega=2.9)
            assert np.array_equal(line_transform(state, -k), (-1) ** n * line_transform(state, k))
            assert line_transform(state, -2.5) == (-1) ** n * line_transform(state, 2.5)

    def test_self_reciprocal_density(self):
        # |psi~(k)|^2 of an eigenstate is the scaled position density
        state = PendulumState(n=2, inertia=2.0, omega=0.5)
        s = state.scale
        k = np.linspace(-3.0, 3.0, 11)
        lhs = np.abs(line_transform(state, k)) ** 2
        rhs = np.abs(wavefunction(state, k / s**2)) ** 2 / s**2
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestWidthProduct:
    def test_ladder_values(self):
        for n in range(6):
            assert width_product(PendulumState(n=n)) == pytest.approx((n + 0.5) ** 2, abs=1e-9)

    def test_bound_saturates_only_at_ground(self):
        assert width_product(PendulumState(n=0)) == pytest.approx(0.25, abs=1e-9)
        for n in range(1, 5):
            assert width_product(PendulumState(n=n)) > 0.25 + 1e-6

    def test_quadrature_oracle_agrees(self):
        for n in (0, 1, 4):
            state = PendulumState(n=n)
            assert width_product(state, method="quadrature") == pytest.approx(
                (n + 0.5) ** 2, abs=1e-8
            )

    @pytest.mark.parametrize("settings", [None, EngineSettings(hermite_nodes=MAX_HERMITE_NODES)])
    def test_quadrature_oracle_up_to_n_64(self, settings):
        for n in range(65):
            state = PendulumState(n=n, hbar=1.7, inertia=0.37, omega=2.9)
            assert width_product(state, method="quadrature", settings=settings) == pytest.approx(
                (n + 0.5) ** 2, abs=1e-8
            )


class TestFactoredSphericalCoefficients:
    def test_factors_match_direct_azimuthal_integration(self):
        state = random_spherical(np.random.default_rng(14), 2)
        coeffs = coefficients(state)
        assert coeffs.factored
        theta_samples = np.linspace(0.05, math.pi - 0.05, 32)
        phi, w = legendre_nodes(256, 0.0, TWO_PI)
        for theta in theta_samples:
            psi_row = wavefunction(state, (np.full_like(phi, theta), phi))
            for k, m in enumerate(coeffs.ms):
                direct = np.sum(w * psi_row * np.exp(-1j * m * phi)) / math.sqrt(TWO_PI)
                assert coeffs.at_theta(theta)[k] == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("l", [0, 2, 64])
    def test_quadrature_factors_match_the_stored_ones(self, l):
        """The c_m factors come back from the sampled state: phi sums, then the polar projection."""
        state = random_spherical(np.random.default_rng(21), l)
        quad = coefficients(state, method="quadrature")
        assert quad.factored and quad.l == l
        exact = coefficients(state).values
        assert np.max(np.abs(np.array(exact) - np.array(quad.values))) < 1e-12


class TestDerivationDiscriminants:
    """The lambda-quadratics behind the width bounds stay nonnegative."""

    def _quadratic(self, var_phi, cross, var_m, lam):
        return var_phi * lam**2 + cross * lam + var_m

    def test_periodic_discriminant(self):
        from lzphi import LZ, PHI, std_dev

        state = RotorSuperposition({0: 0.6, 1: 0.8})
        var_phi = std_dev(PHI, state) ** 2
        var_m = std_dev(LZ, state) ** 2  # hbar = 1 so m-variance equals Lz-variance
        cross = -(1.0 - TWO_PI * abs(wavefunction(state, TWO_PI)) ** 2)
        for lam in (-2.0, -0.5, 0.0, 0.3, 1.5):
            assert self._quadratic(var_phi, cross, var_m, lam) >= -1e-10

    def test_spherical_discriminant(self):
        from lzphi import LZ, PHI, std_dev
        from lzphi.relations import gamma_weighted_sum

        state = random_spherical(np.random.default_rng(2), 2)
        var_phi = std_dev(PHI, state) ** 2
        var_m = std_dev(LZ, state) ** 2
        cross = gamma_weighted_sum(state) - 1.0
        for lam in (-1.0, -0.2, 0.1, 0.9, 3.0):
            assert self._quadratic(var_phi, cross, var_m, lam) >= -1e-10

    def test_line_discriminant(self):
        from lzphi import LZ, PHI, std_dev

        state = PendulumState(n=2)
        var_phi = std_dev(PHI, state) ** 2
        var_k = std_dev(LZ, state) ** 2
        cross = -1.0  # boundary-free integration by parts on the full line
        for lam in (-2.0, 0.0, 0.25, 1.0):
            assert self._quadratic(var_phi, cross, var_k, lam) >= -1e-10
