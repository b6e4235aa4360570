import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lzphi.engine import EngineSettings
from lzphi.numerics import (
    MAX_HERMITE_DEGREE,
    MAX_HERMITE_NODES,
    MAX_LEGENDRE_NODES,
    MAX_ORBITAL_L,
    _leggauss,
    basis_on_grid,
    gauss_hermite,
    gauss_legendre,
    hermite_poly,
    phi_rule,
    theta_lm,
    theta_overlap_matrix,
    theta_rule,
)

TWO_PI = 2.0 * math.pi


class TestGaussLegendre:
    def test_two_point_rule_is_textbook(self):
        rule = gauss_legendre(2, -1.0, 1.0)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_constant_on_circle(self):
        rule = gauss_legendre(64, 0.0, TWO_PI)
        assert rule.integrate(np.ones_like(rule.nodes)) == pytest.approx(TWO_PI, abs=1e-13)

    def test_phi_squared(self):
        # antiderivative phi^3/3 evaluated at 2*pi gives 8*pi^3/3
        rule = gauss_legendre(64, 0.0, TWO_PI)
        assert rule.integrate(rule.nodes**2) == pytest.approx(8 * math.pi**3 / 3, abs=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gauss_legendre(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 1.0)

    def test_exact_for_degree_2n_minus_1(self):
        rule = gauss_legendre(3, 0.0, 1.0)
        # x^5 integrates to 1/6 exactly with a 3-point rule
        assert rule.integrate(rule.nodes**5) == pytest.approx(1 / 6, abs=1e-15)

    def test_domain_measures(self):
        circle = gauss_legendre(64, 0.0, TWO_PI)
        assert circle.integrate(np.ones(64)) == pytest.approx(TWO_PI, rel=1e-12)
        polar = theta_rule(128)
        assert polar.integrate(np.sin(polar.nodes)) == pytest.approx(2.0, rel=1e-12)


class TestRuleCache:
    """Every Legendre rule, the oracle's included, maps the one cached [-1, 1] rule of its node count."""

    @pytest.mark.parametrize("n", [2, 3, 64, 512, MAX_LEGENDRE_NODES])
    def test_bit_identical_to_a_direct_build(self, n):
        x, w = _leggauss(n)
        assert _leggauss(n) is _leggauss(n)
        for a, b in ((-3.7, 3.7), (0.0, TWO_PI), (0.0, math.pi)):
            rule = gauss_legendre(n, a, b)
            assert rule.nodes.tobytes() == (0.5 * (b - a) * x + 0.5 * (b + a)).tobytes()
            assert rule.weights.tobytes() == (0.5 * (b - a) * w).tobytes()
        for cached, b in ((phi_rule(n), TWO_PI), (theta_rule(n), math.pi)):
            direct = gauss_legendre(n, 0.0, b)
            assert cached.nodes.tobytes() == direct.nodes.tobytes()
            assert cached.weights.tobytes() == direct.weights.tobytes()

    def test_reference_arrays_are_read_only(self):
        for arr in _leggauss(16):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_writing_into_a_rule_leaves_the_next_intact(self):
        first = gauss_legendre(16, 0.0, 1.0)
        fresh = (first.nodes.copy(), first.weights.copy())
        first.nodes[:] = 0.0
        first.weights[:] = -1.0
        second = gauss_legendre(16, 0.0, 1.0)
        assert np.array_equal(second.nodes, fresh[0])
        assert np.array_equal(second.weights, fresh[1])


def _sized_legendre_counts():
    """Every node count a Legendre rule of the package is built with."""
    from lzphi import engine, fourier

    return sorted(
        {engine.phi_rule_size((0, span)) for span in range(engine.MAX_ORACLE_SPAN + 1)}
        | {engine.theta_rule_size(l) for l in range(MAX_ORBITAL_L + 1)}
        | {2 * l + 32 for l in range(MAX_ORBITAL_L + 1)}
        | {fourier._rule_nodes(n) for n in range(MAX_HERMITE_DEGREE + 1)}
    )


class TestPolishedOracleRules:
    """The Newton-built rules keep round-off accuracy at counts that are not powers of two."""

    @pytest.mark.parametrize("n", [320, 448, 512, 992])
    def test_fourier_modes_integrate_to_zero(self, n):
        # numpy's own weights leave 2.7e-13 (phi) and 1.3e-13 (theta) at 320 nodes
        ks = np.arange(1, n // 4)
        phi = phi_rule(n)
        assert np.max(np.abs(np.exp(1j * np.outer(ks, phi.nodes)) @ phi.weights)) < 5e-14
        theta = theta_rule(n)
        assert np.max(np.abs(np.cos(np.outer(ks, theta.nodes)) @ theta.weights)) < 1e-14

    def test_nodes_stay_numpys_to_round_off(self):
        for n in (2, 3, 320, MAX_LEGENDRE_NODES):
            reference, _ = np.polynomial.legendre.leggauss(n)
            assert np.max(np.abs(_leggauss(n)[0] - reference)) < 2e-16

    def test_cos_modes_vanish_at_every_overlap_count(self):
        # theta_overlap_matrix integrates on 2l + 32 nodes; numpy's weights leave 4.2e-14
        for l in range(MAX_ORBITAL_L + 1):
            rule = gauss_legendre(2 * l + 32, 0.0, math.pi)
            ks = np.arange(1, rule.nodes.size // 4)
            assert np.max(np.abs(np.cos(np.outer(ks, rule.nodes)) @ rule.weights)) < 1e-14, l

    def test_fourier_modes_vanish_at_every_line_transform_count(self):
        # the pendulum k rule has fourier._rule_nodes(n) nodes; numpy's weights leave 2.7e-13
        from lzphi import fourier

        for n in sorted({fourier._rule_nodes(n) for n in range(MAX_HERMITE_DEGREE + 1)}):
            rule = gauss_legendre(n, 0.0, TWO_PI)
            ks = np.arange(1, n // 4)
            assert np.max(np.abs(np.exp(1j * np.outer(ks, rule.nodes)) @ rule.weights)) < 5e-14, n

    def test_rules_are_mirror_symmetric_bit_for_bit(self):
        """_k_rule's halving needs x[i] == -x[n-1-i], equal mirrored weights and an exact 0.0 middle."""
        for n in sorted(set(range(2, 201)) | set(_sized_legendre_counts())):
            x, w = _leggauss(n)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n
            if n % 2:
                assert x[n // 2] == 0.0 and not np.signbit(x[n // 2]), n


class TestGaussHermite:
    def test_gaussian_integral(self):
        rule = gauss_hermite(32)
        assert rule.integrate(np.ones_like(rule.nodes)) == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_second_moment(self):
        rule = gauss_hermite(32)
        assert rule.integrate(rule.nodes**2) == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-12)

    def test_odd_moment_vanishes(self):
        rule = gauss_hermite(32)
        assert abs(rule.integrate(rule.nodes)) < 1e-13

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gauss_hermite(1)


class TestRuleLimits:
    """The node-count bounds are the largest counts whose rules build correctly."""

    def test_largest_legendre_rule_is_exact(self):
        rule = gauss_legendre(MAX_LEGENDRE_NODES, -1.0, 1.0)
        x, w = rule.nodes, rule.weights
        # every Legendre polynomial of degree 1..2n-1 integrates to 0
        worst = max(abs(w.sum() - 2.0), abs(w @ x))
        prev, cur = np.ones_like(x), x
        for k in range(1, 2 * MAX_LEGENDRE_NODES - 1):
            prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
            worst = max(worst, abs(w @ cur))
        assert worst < 1e-13

    def test_largest_hermite_rule_is_exact(self):
        rule = gauss_hermite(MAX_HERMITE_NODES)
        assert np.all(rule.weights > 0)
        root_pi = math.sqrt(math.pi)
        assert rule.integrate(np.ones_like(rule.nodes)) == pytest.approx(root_pi, rel=1e-12)
        assert rule.integrate(rule.nodes**2) == pytest.approx(root_pi / 2, rel=1e-12)
        assert rule.integrate(rule.nodes**4) == pytest.approx(3 * root_pi / 4, rel=1e-12)

    @pytest.mark.parametrize(
        "build, top",
        [
            (lambda n: gauss_legendre(n, 0.0, 1.0), MAX_LEGENDRE_NODES),
            (gauss_hermite, MAX_HERMITE_NODES),
        ],
    )
    def test_counts_past_the_limit_are_rejected_before_building(self, build, top):
        with pytest.raises(ValueError, match=str(top)):
            build(top + 1)
        with pytest.raises(ValueError, match=str(top)):
            build(100000)  # refused before any node is computed

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tolerance", float("nan")),
            ("tolerance", float("inf")),
            ("tolerance", -1e-12),
        ],
    )
    def test_settings_reject_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineSettings(**{field: value})

    def test_settings_accept_the_bounds(self):
        EngineSettings(tolerance=0.0)

    def test_settings_hold_no_node_counts(self):
        """The oracle sizes its rules from the state; no node count is a setting."""
        assert [f.name for f in dataclasses.fields(EngineSettings)] == [
            "tolerance", "hbar", "normalize"
        ]

    def test_oracle_rules_stay_within_the_rule_limits(self):
        from lzphi import engine

        assert engine.phi_rule_size((0, engine.MAX_ORACLE_SPAN)) == MAX_LEGENDRE_NODES
        assert max(engine.theta_rule_size(l) for l in range(MAX_ORBITAL_L + 1)) <= MAX_LEGENDRE_NODES
        assert max(engine.hermite_rule_size(n) for n in range(MAX_HERMITE_DEGREE + 1)) <= MAX_HERMITE_NODES


class TestHermitePoly:
    def test_low_orders(self):
        assert hermite_poly(0, 1.7) == 1.0
        assert hermite_poly(1, 0.5) == pytest.approx(1.0)

    def test_h4_at_one(self):
        # 16*1 - 48*1 + 12 expanded by hand
        assert hermite_poly(4, 1.0) == pytest.approx(-20.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hermite_poly(65, 0.0)
        with pytest.raises(ValueError):
            hermite_poly(-1, 0.0)

    @settings(max_examples=60)
    @given(hst.integers(min_value=1, max_value=20), hst.floats(min_value=-5, max_value=5))
    def test_recurrence_consistency(self, n, xi):
        lhs = hermite_poly(n + 1, xi) - 2 * xi * hermite_poly(n, xi) + 2 * n * hermite_poly(n - 1, xi)
        scale = max(1.0, abs(hermite_poly(n + 1, xi)))
        assert abs(lhs) / scale < 1e-9


class TestThetaLm:
    def test_constant_mode(self):
        for theta in (0.0, 1.0, math.pi):
            assert theta_lm(0, 0, theta) == pytest.approx(1 / math.sqrt(2))

    def test_l1_m0_at_pole(self):
        assert theta_lm(1, 0, 0.0) == pytest.approx(math.sqrt(1.5))

    def test_normalization_via_quadrature(self):
        rule = gauss_legendre(128, 0.0, math.pi)
        vals = theta_lm(2, 1, rule.nodes)
        assert rule.integrate(vals**2 * np.sin(rule.nodes)) == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality_to_l6(self):
        rule = theta_rule(128)
        sin_t = np.sin(rule.nodes)
        for m in range(0, 4):
            for l in range(m, 7):
                for lp in range(m, 7):
                    vals = theta_lm(l, m, rule.nodes) * theta_lm(lp, m, rule.nodes)
                    got = rule.integrate(vals * sin_t)
                    assert got == pytest.approx(1.0 if l == lp else 0.0, abs=1e-9)
        diagonal = np.diag(theta_overlap_matrix(64, 0))
        assert np.max(np.abs(diagonal - 1.0)) < 1e-10

    def test_condon_shortley_reflection(self):
        theta = 0.8
        for l, m in ((1, 1), (2, 1), (2, 2), (3, 2)):
            assert theta_lm(l, -m, theta) == pytest.approx(((-1) ** m) * theta_lm(l, m, theta))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            theta_lm(1, 2, 0.5)
        with pytest.raises(ValueError):
            theta_lm(1, 0, 3.5)


class TestThetaOverlapBounds:
    @pytest.mark.parametrize("l", [65, -1])
    def test_rejects_l_outside_documented_range(self, l):
        with pytest.raises(ValueError, match="0 <= l <= 64"):
            theta_overlap_matrix(l, 0)

    def test_accepts_l_at_the_bound(self):
        assert theta_overlap_matrix(64, 0).shape == (129, 129)


class TestThetaOverlapRule:
    """The polar rule is sized from l: exact to round-off at every l and power."""

    def test_diagonal_is_one_at_every_l(self):
        for l in range(MAX_ORBITAL_L + 1):
            diagonal = np.diag(theta_overlap_matrix(l, 0))
            assert np.max(np.abs(diagonal - 1.0)) < 1e-14, l

    @pytest.mark.parametrize("l", [0, 1, 8, 16, 32, 48, 64])
    def test_matches_the_finest_rule(self, l):
        rule = theta_rule(MAX_LEGENDRE_NODES)
        polar, _ = basis_on_grid(range(-l, l + 1), l, rule.nodes, None)
        for power in (0, 1, 2, 6, 12):
            fine = (polar * (rule.weights * np.sin(rule.nodes) * rule.nodes**power)) @ polar.T
            error = np.max(np.abs(theta_overlap_matrix(l, power) - fine))
            assert error <= 2e-13 * np.max(np.abs(fine)), power


def test_quadrature_convergence_on_moments(fixture_states, monkeypatch):
    """Doubling the oracle's sized node counts moves no moment integral by more than 1e-10."""
    from lzphi import PHI, engine, mean

    coarse = [mean(PHI, state, method="quadrature") for state in fixture_states]
    for helper in ("phi_rule_size", "theta_rule_size", "hermite_rule_size"):
        sized = getattr(engine, helper)
        monkeypatch.setattr(engine, helper, lambda arg, sized=sized: 2 * sized(arg))
    for state, value in zip(fixture_states, coarse):
        refined = mean(PHI, state, method="quadrature")
        assert abs(value - refined) <= 1e-10 * max(1.0, abs(refined))
