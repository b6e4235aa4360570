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
    theta_lm,
    wavefunction,
    width_product,
)

from lzphi import engine, fourier
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
    def test_pendulum_at_large_hermite_rules(self, nodes, oracle_rule):
        # the line-transform rules are sized from n; the grid's rule reaches only var_phi
        oracle_rule("hermite_rule_size", nodes)
        for n in (0, 5, 16):
            state = PendulumState(n=n)
            assert parseval_check(state) < 1e-10
            assert width_product(state, method="quadrature") == pytest.approx(
                (n + 0.5) ** 2, abs=1e-8
            )

    @pytest.mark.parametrize("nodes", [2, 16, 128, MAX_HERMITE_NODES])
    def test_pendulum_up_to_n_64_at_any_hermite_nodes(self, nodes, oracle_rule):
        """Parseval reads its own rules: the pendulum grid's Hermite rule never reaches it."""
        oracle_rule("hermite_rule_size", nodes)
        for n in range(65):
            state = PendulumState(n=n, hbar=1.7, inertia=0.37, omega=2.9)
            assert parseval_check(state) < 1e-10


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

    @staticmethod
    def _reach(state):
        return state.scale * (math.sqrt(2 * state.n + 1) + 8.0)

    def test_parity_is_exact(self):
        grid = np.linspace(0.0, 30.0, 97)
        for n in range(65):
            state = PendulumState(n=n, hbar=1.7, inertia=0.37, omega=2.9)
            k = grid[grid <= self._reach(state)]
            assert np.array_equal(line_transform(state, -k), (-1) ** n * line_transform(state, k))
            assert line_transform(state, -2.5) == (-1) ** n * line_transform(state, 2.5)
            with pytest.raises(ValueError, match="line_transform needs finite"):
                line_transform(state, grid)

    @pytest.mark.parametrize("n", [0, 2, 5, 64])
    def test_refuses_k_past_the_reach(self, n):
        """Past scale*(sqrt(2n+1) + 8) the rule is unresolved, so no value comes back."""
        state = PendulumState(n=n, hbar=1.7, inertia=0.37, omega=2.9)
        reach = self._reach(state)
        assert np.isfinite(line_transform(state, np.array([-reach, reach]))).all()
        for k in (np.nextafter(reach, math.inf), -1.5 * reach, 1e300, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=repr(reach)):
                line_transform(state, k)
        with pytest.raises(ValueError):
            line_transform(state, np.array([0.0, 1.0, math.nan]))

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

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: width_product(CircularState(m=1)), "defined for pendulum states"),
            (lambda: width_product(PendulumState(n=1), method="x"), "unknown method 'x'"),
            (lambda: coefficients(CircularState(m=1), method="x"), "unknown method 'x'"),
        ],
        ids=["circular", "width-method", "coefficients-method"],
    )
    def test_refused_inputs(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

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

    @pytest.mark.parametrize("inertia", [1e-200, 1e200, 1e300])
    def test_quadrature_oracle_at_extreme_widths(self, inertia):
        """scale^2 * sum w t^2 F^2 overflowed at I = 1e200 before the division: the oracle gave inf."""
        state = PendulumState(n=64, inertia=inertia)
        quad = width_product(state, method="quadrature")
        assert quad == pytest.approx(width_product(state), rel=1e-12)
        assert quad == pytest.approx(64.5**2, rel=1e-12)

    @pytest.mark.parametrize("nodes", [None, MAX_HERMITE_NODES])
    def test_quadrature_oracle_up_to_n_64(self, nodes, oracle_rule):
        oracle_rule("hermite_rule_size", nodes)
        for n in range(65):
            state = PendulumState(n=n, hbar=1.7, inertia=0.37, omega=2.9)
            assert width_product(state, method="quadrature") == pytest.approx(
                (n + 0.5) ** 2, abs=1e-8
            )


class TestPendulumTables:
    """The momentum rule, its folded Hermite sum, the position norm and the grid's H_n depend on n alone."""

    @staticmethod
    def _far_apart(n):
        # scale = sqrt(I*omega/hbar) = 1e-2 and 1e2
        return (PendulumState(n=n, inertia=1e-2, omega=1.0, hbar=1e2),
                PendulumState(n=n, inertia=1.0, omega=1e2, hbar=1e-2))

    def test_one_table_per_n_serves_every_scale(self):
        fourier._k_table.cache_clear()
        for n in range(65):
            before = fourier._k_table.cache_info().misses
            for state in self._far_apart(n):
                assert parseval_check(state) < 1e-10, n
                assert width_product(state, method="quadrature") == pytest.approx(
                    (n + 0.5) ** 2, abs=1e-8
                ), n
            assert fourier._k_table.cache_info().misses - before == 1, n

    def test_line_transform_reads_the_tabulated_sum(self):
        """One folded kernel: where k = scale*t gives t back exactly, the values are the table's."""
        for n in range(65):
            t, _, folded, _, _ = fourier._k_table(n)
            # scales 2**-7 and 2**7: k/scale is exact, so line_transform sums at the table's t
            for inertia in (2.0**-14, 2.0**14):
                state = PendulumState(n=n, inertia=inertia, omega=1.0, hbar=1.0)
                want = fourier._prefactor(state) * folded * (-1j) ** (n % 2)
                assert np.array_equal(line_transform(state, state.scale * t), want), n
            # elsewhere t moves by an ulp, and the angle t*u (up to ~300) with it
            state = PendulumState(n=n, hbar=1.7, inertia=0.37, omega=2.9)
            want = fourier._prefactor(state) * folded * (-1j) ** (n % 2)
            got = line_transform(state, state.scale * t)
            assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want)), n

    def test_tables_are_read_only(self):
        for n in (0, 33, 64):
            t, w, folded, _, _ = fourier._k_table(n)
            size = engine.hermite_rule_size(n)
            for arr in (t, w, folded, engine._hermite_table(size)):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0


class TestFactoredSphericalCoefficients:
    def test_factors_match_direct_azimuthal_integration(self):
        state = random_spherical(np.random.default_rng(14), 2)
        coeffs = coefficients(state)
        assert coeffs.l == 2
        theta_samples = np.linspace(0.05, math.pi - 0.05, 32)
        phi, w = legendre_nodes(256, 0.0, TWO_PI)
        for theta in theta_samples:
            psi_row = wavefunction(state, (np.full_like(phi, theta), phi))
            for m, c in zip(coeffs.ms, coeffs.values):
                direct = np.sum(w * psi_row * np.exp(-1j * m * phi)) / math.sqrt(TWO_PI)
                assert c * theta_lm(coeffs.l, m, theta) == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("l", [0, 2, 64])
    def test_quadrature_factors_match_the_stored_ones(self, l):
        """The c_m factors come back from the sampled state: phi sums, then the polar projection."""
        state = random_spherical(np.random.default_rng(21), l)
        quad = coefficients(state, method="quadrature")
        assert quad.l == l
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
