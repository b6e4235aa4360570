import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lzphi import (
    LZ,
    PHI,
    COS_PHI,
    PHI_SQUARED,
    SIN_PHI,
    THETA,
    THETA_PHI,
    CircularState,
    PendulumState,
    RelationId,
    RelationParams,
    RotorSuperposition,
    SphericalState,
    chi,
    commutator_mean,
    correlation,
    evaluate,
    higher_correlation,
    mean,
    moment_set,
    std_dev,
    symmetry_deficit,
)
from lzphi import _kernels, engine, fourier, moments, numerics, observables

from .conftest import pendulums_of_two_widths, random_rotor, random_spherical
from .oracles import (
    SphericalOracle,
    pendulum_dense_commutator,
    pendulum_dense_pair,
    pendulum_lz_pow,
)

TWO_PI = 2.0 * math.pi


class TestMean:
    def test_phi_uniform(self):
        for m in (-3, 0, 5):
            assert mean(PHI, CircularState(m=m)) == pytest.approx(math.pi)

    def test_lz_eigenstate(self):
        assert mean(LZ, CircularState(m=3)) == pytest.approx(3.0)
        assert mean(LZ, CircularState(m=3, hbar=2.0)) == pytest.approx(6.0)

    def test_pendulum_odd_density(self):
        for n in (0, 1, 4):
            assert mean(PHI, PendulumState(n=n)) == 0.0

    def test_kind_family_mismatch(self):
        with pytest.raises(ValueError):
            mean(THETA, CircularState(m=0))
        with pytest.raises(ValueError):
            mean(SIN_PHI, PendulumState(n=0))


class TestStdDev:
    def test_circular_phi(self):
        assert std_dev(PHI, CircularState(m=7)) == pytest.approx(math.pi / math.sqrt(3), abs=1e-12)

    def test_circular_lz(self):
        assert std_dev(LZ, CircularState(m=7)) == 0.0

    def test_pendulum_lz(self):
        assert std_dev(LZ, PendulumState(n=2)) == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_spherical_phi_against_2d_oracle(self):
        state = SphericalState(l=1, coefficients=(2**-0.5, 0, 2**-0.5))
        oracle = SphericalOracle(1, state.coefficients)
        phi = oracle.phi_grid()
        var = oracle.mean_of(phi**2) - oracle.mean_of(phi) ** 2
        assert std_dev(PHI, state) == pytest.approx(math.sqrt(var), abs=1e-9)

    def test_variance_decomposition(self, fixture_states):
        """std^2 equals the second moment recomputed on the oracle grid."""
        from lzphi.observables import applicable
        from lzphi.states import family_of

        for state in fixture_states:
            for kind in (LZ, PHI):
                if not applicable(kind, family_of(state)):
                    continue
                second = higher_correlation(kind, kind, 1, 1, state, method="quadrature").real
                assert std_dev(kind, state) ** 2 == pytest.approx(second, abs=1e-10)


class TestCorrelation:
    def test_phi_variance_of_uniform(self):
        got = correlation(PHI, PHI, CircularState(m=1))
        assert got.value == pytest.approx(math.pi**2 / 3)
        assert got.hermitized == pytest.approx(math.pi**2 / 3)

    def test_eigenstate_centered_lz_vanishes(self):
        assert correlation(LZ, PHI, CircularState(m=0)).value == 0

    def test_theta_phi_matches_2d_oracle(self):
        rng = np.random.default_rng(5)
        state = random_spherical(rng, 1)
        oracle = SphericalOracle(1, state.coefficients)
        theta, phi = oracle.theta_grid(), oracle.phi_grid()
        want = oracle.mean_of(theta * phi) - oracle.mean_of(theta) * oracle.mean_of(phi)
        got = correlation(THETA, PHI, state)
        assert got.value == pytest.approx(want, abs=1e-9)

    def test_conjugate_symmetry(self):
        state = random_rotor(np.random.default_rng(8))
        ab = correlation(LZ, PHI, state).value
        ba = correlation(PHI, LZ, state).value
        assert ab == pytest.approx(np.conj(ba), abs=1e-12)

    def test_self_correlation_nonnegative(self, fixture_states):
        from lzphi.observables import applicable
        from lzphi.states import family_of

        for state in fixture_states:
            for kind in (LZ, PHI):
                if not applicable(kind, family_of(state)):
                    continue
                c = correlation(kind, kind, state)
                assert abs(c.value.imag) < 1e-11
                assert c.value.real >= -1e-12


class TestHigherCorrelation:
    def test_order_one_matches_correlation(self, fixture_states):
        for state in fixture_states[:8]:
            a = higher_correlation(PHI, PHI, 1, 1, state)
            b = correlation(PHI, PHI, state).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_fourth_central_moment_of_uniform(self):
        got = higher_correlation(PHI, PHI, 2, 2, CircularState(m=6))
        assert got.real == pytest.approx(TWO_PI**4 / 80, rel=1e-12)
        assert abs(got.imag) < 1e-12

    def test_centered_eigenstate_power_vanishes(self):
        assert higher_correlation(LZ, PHI, 2, 1, CircularState(m=4)) == 0

    def test_rejects_out_of_range_orders(self):
        with pytest.raises(ValueError):
            higher_correlation(PHI, PHI, 0, 1, CircularState(m=0))
        with pytest.raises(ValueError):
            higher_correlation(PHI, PHI, 7, 1, CircularState(m=0))

    def test_pendulum_fourth_moment_against_quadrature(self):
        state = PendulumState(n=3)
        exact = higher_correlation(PHI, PHI, 2, 2, state)
        quad = higher_correlation(PHI, PHI, 2, 2, state, method="quadrature")
        assert exact == pytest.approx(quad, abs=1e-10)

    def test_mixed_orders_match_quadrature(self):
        state = random_rotor(np.random.default_rng(13))
        exact = higher_correlation(LZ, PHI, 2, 3, state)
        quad = higher_correlation(LZ, PHI, 2, 3, state, method="quadrature")
        assert exact == pytest.approx(quad, abs=1e-8)


class TestOracleEquivalence:
    def test_mean_and_std_all_families(self, fixture_states):
        from lzphi.observables import applicable
        from lzphi.states import family_of

        for state in fixture_states:
            for kind in (LZ, PHI, PHI_SQUARED, SIN_PHI):
                if not applicable(kind, family_of(state)):
                    continue
                assert mean(kind, state) == pytest.approx(
                    mean(kind, state, method="quadrature"), abs=1e-9
                )
                assert std_dev(kind, state) == pytest.approx(
                    std_dev(kind, state, method="quadrature"), abs=1e-9
                )

    def test_moment_set_provenance(self):
        state = CircularState(m=1)
        assert moment_set(PHI, state).provenance == "analytic"
        assert moment_set(PHI, state, method="quadrature").provenance == "quadrature"


class TestChiTranslation:
    def test_mean_shifts_by_full_turns(self, fixture_states):
        for state in fixture_states:
            from lzphi.states import family_of

            if family_of(state) == "pendulum":
                continue
            base = mean(PHI, state)
            for n in (-2, 1, 5):
                assert mean(chi(n), state) == pytest.approx(base + TWO_PI * n, abs=1e-10)

    def test_std_is_winding_independent(self):
        state = RotorSuperposition({0: 0.6, 1: 0.8})
        widths = {std_dev(chi(n), state) for n in (-3, 0, 4)}
        spread = max(widths) - min(widths)
        assert spread < 1e-10


WINDINGS = (0, 1, 10**4, 10**8)


class TestChiCentering:
    """Chi - <Chi> = Phi - <Phi> exactly, so no winding enters a centered moment."""

    @pytest.mark.parametrize("method", ["analytic", "quadrature"])
    @pytest.mark.parametrize(
        "state",
        [CircularState(m=3), RotorSuperposition({0: 0.6, 1: 0.8j}), SphericalState(2, {1: 0.6, -2: 0.8j})],
        ids=["circular", "rotor", "spherical"],
    )
    def test_centered_moments_are_phis(self, state, method):
        want_std = std_dev(PHI, state, method=method)
        want_corr = correlation(LZ, PHI, state, method=method).value
        want_high = higher_correlation(PHI, SIN_PHI, 3, 2, state, method=method)
        for n in WINDINGS:
            assert std_dev(chi(n), state, method=method) == want_std
            assert correlation(LZ, chi(n), state, method=method).value == want_corr
            assert higher_correlation(chi(n), SIN_PHI, 3, 2, state, method=method) == want_high
            assert mean(chi(n), state, method=method) == pytest.approx(
                mean(PHI, state, method=method) + TWO_PI * n, rel=1e-13
            )

    def test_spread_of_a_circular_state_at_a_large_winding(self):
        assert std_dev(chi(10**8), CircularState(m=3)) == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-14)

    def test_chi_is_not_defined_on_the_pendulum(self):
        with pytest.raises(ValueError, match="not defined"):
            std_dev(chi(2), PendulumState(n=1))
        with pytest.raises(ValueError, match="not defined"):
            correlation(LZ, chi(2), PendulumState(n=1))

    def test_a_winding_without_a_finite_offset_is_refused(self):
        chi(10**300)
        with pytest.raises(ValueError, match="not a finite float"):
            chi(10**400)


class TestSchwarz:
    @settings(max_examples=80)
    @given(hst.integers(min_value=1, max_value=3), hst.integers(min_value=0, max_value=10**6))
    def test_correlation_bounded_by_variances(self, l, seed):
        rng = np.random.default_rng(seed)
        state = random_spherical(rng, l)
        cab = correlation(LZ, PHI, state).value
        caa = correlation(LZ, LZ, state).value.real
        cbb = correlation(PHI, PHI, state).value.real
        assert abs(cab) ** 2 <= caa * cbb + 1e-10


class TestCommutator:
    def test_lz_phi_is_minus_i_hbar(self, fixture_states):
        for state in fixture_states:
            got = commutator_mean(LZ, PHI, state)
            assert got == pytest.approx(-1j * state.hbar, abs=1e-10)

    def test_multiplicative_pairs_commute(self):
        state = SphericalState(l=1, coefficients=(0, 0.6, 0.8j))
        assert commutator_mean(THETA, PHI, state) == 0

    def test_antisymmetry(self):
        state = RotorSuperposition({0: 0.6, 2: 0.8})
        assert commutator_mean(PHI_SQUARED, LZ, state) == pytest.approx(
            -commutator_mean(LZ, PHI_SQUARED, state)
        )

    def test_lz_phi_squared(self):
        # [Lz, phi^2] = -2i*hbar*phi, so the mean is -2i*hbar*<phi>
        state = CircularState(m=2)
        got = commutator_mean(LZ, PHI_SQUARED, state)
        assert got == pytest.approx(-2j * math.pi, abs=1e-12)


def test_means_of_hermitian_kinds_are_real(fixture_states):
    from lzphi.observables import applicable
    from lzphi.states import family_of

    for state in fixture_states:
        for kind in (LZ, PHI, PHI_SQUARED, SIN_PHI):
            if not applicable(kind, family_of(state)):
                continue
            grid_mean = mean(kind, state, method="quadrature")
            assert abs(complex(grid_mean).imag) < 1e-11


def _drawn_pendulum(n, seed):
    rng = np.random.default_rng(seed)
    return PendulumState(n=n, inertia=float(rng.uniform(0.5, 2.0)), omega=float(rng.uniform(0.5, 2.0)))


#: the oracle's own pendulum inputs up to the documented n = 64, each at its
#: own drawn width; fixture_states reach n = 64 at unit width
EDGE_PENDULUMS = [_drawn_pendulum(n, seed) for seed, n in enumerate((20, 30, 64))]
PENDULUM_KINDS = (LZ, PHI, PHI_SQUARED)


#: the Hermite rule of the pendulum oracle: None is the rule sized from n,
#: 128 and 370 pin it above that size
HERMITE_RULES = [None, 128, 370]


@pytest.mark.parametrize("nodes", HERMITE_RULES)
@pytest.mark.parametrize("state", EDGE_PENDULUMS, ids=lambda s: f"n{s.n}")
class TestPendulumOracleEdges:
    @pytest.fixture(autouse=True)
    def _rule(self, nodes, oracle_rule):
        oracle_rule("hermite_rule_size", nodes)

    def test_std_dev(self, state):
        for kind in PENDULUM_KINDS:
            quad = std_dev(kind, state, method="quadrature")
            assert quad == pytest.approx(std_dev(kind, state), abs=1e-9)

    def test_correlation(self, state):
        for a, b in ((LZ, PHI), (LZ, PHI_SQUARED), (PHI, PHI_SQUARED), (PHI_SQUARED, LZ)):
            quad = correlation(a, b, state, method="quadrature").value
            assert quad == pytest.approx(correlation(a, b, state).value, abs=1e-9)

    def test_mixed_order_higher_correlation(self, state):
        for a, b, r, s in ((PHI, LZ, 1, 2), (LZ, PHI, 1, 3), (LZ, PHI, 2, 3), (PHI_SQUARED, PHI, 2, 1)):
            quad = higher_correlation(a, b, r, s, state, method="quadrature")
            assert quad == pytest.approx(higher_correlation(a, b, r, s, state), rel=1e-9)

    def test_symmetry_deficit(self, state):
        for a, b in ((LZ, PHI), (LZ, PHI_SQUARED), (PHI, PHI_SQUARED)):
            assert symmetry_deficit(a, b, state) == 0
            assert abs(symmetry_deficit(a, b, state, method="quadrature")) < 1e-10


@pytest.mark.parametrize("nodes", HERMITE_RULES)
def test_pendulum_oracle_over_the_whole_range(nodes, oracle_rule):
    oracle_rule("hermite_rule_size", nodes)
    for n in range(65):
        state = _drawn_pendulum(n, 100 + n)
        for kind in (LZ, PHI):
            quad = std_dev(kind, state, method="quadrature")
            assert quad == pytest.approx(std_dev(kind, state), rel=1e-9), (n, kind)
        quad = correlation(LZ, PHI, state, method="quadrature").value
        assert quad == pytest.approx(correlation(LZ, PHI, state).value, abs=1e-9), n
        deficit = symmetry_deficit(LZ, PHI, state, method="quadrature")
        assert abs(deficit) <= 1e-9, n


class TestPendulumLadder:
    """Lz on the pendulum grid: a ladder on the Hermite coefficients, read out through one table."""

    def test_lz_pow_matches_the_series_algebra(self):
        for n in range(65):
            state = PendulumState(n=n, inertia=1.3, omega=0.7, hbar=1.1)
            grid = engine.PendulumGrid(state)
            for j in range(engine.MAX_CORRELATION_ORDER + 1):
                for mu in (0.0, 0.37, -2.5):
                    want = pendulum_lz_pow(state, j, mu, grid.xi)
                    got = grid.lz_pow(j, mu)
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n, j, mu)

    def test_psi_is_the_tabulated_hermite_row(self):
        for n in range(65):
            state = PendulumState(n=n, inertia=0.4, omega=2.1, hbar=0.9)
            grid = engine.PendulumGrid(state)
            assert np.array_equal(grid.psi, state.amplitude * numerics.hermite_poly(n, grid.xi)), n

    @pytest.mark.parametrize("size", [16, 80, numerics.MAX_HERMITE_NODES])
    def test_table_rows_are_the_recurrence_bit_for_bit(self, size):
        table = engine._hermite_table(size)
        nodes = numerics.hermite_rule(size).nodes
        assert table.shape == (engine.HERMITE_TABLE_DEGREE + 1, size)
        for k in range(engine.HERMITE_TABLE_DEGREE + 1):
            assert np.array_equal(table[k], _kernels.hermite_grid(k, nodes)), k

    @pytest.mark.parametrize("n, j", [(64, 7), (60, 11), (0, 71)])
    def test_a_degree_past_the_table_is_refused(self, n, j):
        grid = engine.PendulumGrid(PendulumState(n=n))
        with pytest.raises(ValueError, match=str(engine.HERMITE_TABLE_DEGREE)):
            grid.lz_pow(j)
        assert grid.lz_pow(engine.HERMITE_TABLE_DEGREE - n).shape == grid.xi.shape


#: three seeded (inertia, omega, hbar) and the orders of the oscillator-ladder checks
LADDER_WIDTHS = [tuple(np.random.default_rng(seed).uniform(0.3, 3.0, 3)) for seed in range(3)]
LADDER_ORDERS = list(itertools.product((1, 2, 3, 6), repeat=2))
PENDULUM_PAIRS = list(itertools.product(PENDULUM_KINDS, repeat=2))


def _ladder_sweep(width):
    inertia, omega, hbar = width
    return [PendulumState(n=n, inertia=inertia, omega=omega, hbar=hbar) for n in range(65)]


@pytest.mark.parametrize("width", LADDER_WIDTHS, ids=["w0", "w1", "w2"])
class TestOscillatorLadder:
    """Pendulum moments as ladder steps, against the dense matrices of ``tests/oracles.py``.

    A step sums the same two products a dense matrix row does, so every
    value without PhiSquared is the dense one bit for bit; two X steps
    round differently from the product X @ X.
    """

    def test_pairs_without_phi_squared_are_the_dense_products(self, width):
        got, want = [], []
        for state in _ladder_sweep(width):
            for a, b in itertools.product((LZ, PHI), repeat=2):
                for r, s in LADDER_ORDERS:
                    got.append(higher_correlation(a, b, r, s, state))
                    want.append(pendulum_dense_pair(a.name, b.name, r, s, state))
        assert np.array_equal(got, want)

    def test_commutators_are_the_dense_products(self, width):
        got, want = [], []
        for state in _ladder_sweep(width):
            for a, b in PENDULUM_PAIRS:
                got.append(commutator_mean(a, b, state))
                want.append(pendulum_dense_commutator(a.name, b.name, state))
        assert np.array_equal(got, want)

    def test_phi_squared_pairs_within_the_schwarz_scale(self, width):
        for state in _ladder_sweep(width):
            own = {(kind, r): abs(pendulum_dense_pair(kind.name, kind.name, r, r, state))
                   for kind in PENDULUM_KINDS for r in (1, 2, 3, 6)}
            for a, b in PENDULUM_PAIRS:
                if PHI_SQUARED not in (a, b):
                    continue
                for r, s in LADDER_ORDERS:
                    want = pendulum_dense_pair(a.name, b.name, r, s, state)
                    scale = math.sqrt(own[a, r] * own[b, s])
                    got = higher_correlation(a, b, r, s, state)
                    assert abs(got - want) <= 1e-14 * scale, (state.n, a, b, r, s)

    def test_phi_squared_variance_is_the_closed_form(self, width):
        for state in _ladder_sweep(width):
            n = state.n
            want = (state.hbar / (state.inertia * state.omega)) ** 2 * (n * n + n + 1) / 2
            got = higher_correlation(PHI_SQUARED, PHI_SQUARED, 1, 1, state)
            assert abs(got - want) <= 1e-15 * want, n

    def test_a_lone_row_is_its_row_of_an_n_sweep(self, width):
        states = _ladder_sweep(width)
        sweep = moments.MomentStack(states)
        lone = [moments.MomentStack((state,)) for state in states]
        for a, b in PENDULUM_PAIRS:
            assert np.array_equal(sweep.commutator(a, b), [row.commutator(a, b)[0] for row in lone])
            for r, s in LADDER_ORDERS:
                column = sweep.pair(a, b, r, s)
                assert np.array_equal(column, [row.pair(a, b, r, s)[0] for row in lone]), (a, b, r, s)


#: every relation that applies to the pendulum, R60 with each of its pendulum pairs
PENDULUM_SELECTIONS = (
    [(RelationId(rid), RelationParams()) for rid in ("R5", "R6", "R7", "R14", "R30", "R33")]
    + [(RelationId.R8, RelationParams(alpha=1.0)), (RelationId.R12, RelationParams(N=1, N1=0))]
    + [(RelationId.R60, RelationParams(pair=pair))
       for pair in ((LZ, PHI), (LZ, PHI_SQUARED), (PHI, PHI_SQUARED))]
)


def test_pendulum_moments_build_no_symbol_matrix(monkeypatch):
    """Correlations, commutators and relation columns of a pendulum are ladder steps, not matrices."""
    calls = []
    build = observables.symbol_matrix

    def counted(sym, basis):
        calls.append(basis)
        return build(sym, basis)

    monkeypatch.setattr(observables, "symbol_matrix", counted)
    state = PendulumState(n=9, inertia=1.3, omega=0.7, hbar=1.1)
    for a, b in PENDULUM_PAIRS:
        commutator_mean(a, b, state)
        for r, s in LADDER_ORDERS:
            higher_correlation(a, b, r, s, state)
    for relation, params in PENDULUM_SELECTIONS:
        evaluate(relation, state, params)
    assert calls == []


def test_symbol_matrices_are_refused_on_the_oscillator_basis():
    basis = observables.basis_of(PendulumState(n=3))
    with pytest.raises(ValueError, match="ladder"):
        observables.symbol_matrix(observables.kind_symbol(PHI), basis)


@pytest.mark.parametrize("n", [0, 20, 64])
@pytest.mark.parametrize("a, b, r, s", [(PHI, LZ, 1, 2), (LZ, PHI, 1, 3), (PHI_SQUARED, LZ, 3, 1)])
def test_mixed_orders_on_the_pendulum(n, a, b, r, s):
    """Sides of different order share one padded number basis."""
    state = PendulumState(n=n)
    exact = higher_correlation(a, b, r, s, state)
    quad = higher_correlation(a, b, r, s, state, method="quadrature")
    assert exact == pytest.approx(quad, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("a, b", [(PHI_SQUARED, PHI_SQUARED), (LZ, PHI_SQUARED), (LZ, LZ), (PHI, LZ)])
def test_sixth_orders_at_the_top_of_the_number_basis(a, b):
    """n = 64 at order 6 on both sides: (PhiSquared, PhiSquared) reaches phi^24, 12 levels above n."""
    state = PendulumState(n=64)
    quad = higher_correlation(a, b, 6, 6, state, method="quadrature")
    assert higher_correlation(a, b, 6, 6, state) == pytest.approx(quad, rel=1e-9)


def test_centered_sixth_order_of_phi_squared_at_n_64():
    """(X^2 - mu)^6 |n> is applied directly, not expanded in uncentered powers of phi^2."""
    state = PendulumState(n=64)
    quad = higher_correlation(PHI_SQUARED, PHI_SQUARED, 6, 6, state, method="quadrature")
    exact = higher_correlation(PHI_SQUARED, PHI_SQUARED, 6, 6, state)
    assert abs(exact - quad) <= 1e-14 * abs(quad)


@pytest.mark.parametrize(
    "state",
    [
        RotorSuperposition({100: 0.6, 101: 0.8}),
        RotorSuperposition({60: 0.6, 61: 0.8}),
        SphericalState(64, {60: 0.6, 64: 0.8}),
    ],
    ids=["rotor-100-101", "rotor-60-61", "spherical-l64"],
)
def test_quadrature_lz_is_centered_before_it_is_powered(state):
    """The oracle's (Lz - mu)^6 Psi takes (hbar*m - mu)^6 per mode, with no binomial in Lz^k."""
    exact = higher_correlation(LZ, LZ, 6, 6, state)
    quad = higher_correlation(LZ, LZ, 6, 6, state, method="quadrature")
    assert abs(quad - exact) <= 1e-10 * abs(exact)


class TestSphericalOracleIndependence:
    """The oracle's polar rule (2l + 48 up to 32) never is the analytic rule's 2l + 32."""

    def test_polar_rules_differ_at_every_l(self):
        for l in range(65):
            assert engine.theta_rule_size(l) != 2 * l + 32, l

    def test_too_few_nodes_show_in_the_oracle(self, oracle_rule):
        """A coarse polar rule of l + 2 nodes shows in the oracle, not in the analytic route."""
        state = SphericalState(l=64, coefficients={0: 1.0})
        exact = std_dev(THETA, state)
        oracle_rule("theta_rule_size", 64 + 2)
        assert abs(std_dev(THETA, state, method="quadrature") - exact) > 1e-3
        assert std_dev(THETA, state) == exact

    @pytest.mark.parametrize("l", [8, 32, 64])
    def test_enough_nodes_agree(self, l):
        state = random_spherical(np.random.default_rng(l), l)
        for kind in (THETA, THETA_PHI, PHI, PHI_SQUARED, COS_PHI, LZ):
            quad = std_dev(kind, state, method="quadrature")
            assert abs(quad - std_dev(kind, state)) < 1e-12, kind
        quad = correlation(THETA, PHI, state, method="quadrature").value
        assert abs(quad - correlation(THETA, PHI, state).value) < 1e-12
        quad = symmetry_deficit(LZ, THETA_PHI, state, method="quadrature")
        assert abs(quad - symmetry_deficit(LZ, THETA_PHI, state)) < 1e-12


def _span_480_rotors():
    rng = np.random.default_rng(480)
    ms = sorted({0, 480, *(int(m) for m in rng.integers(1, 480, size=6))})
    c = rng.normal(size=len(ms)) + 1j * rng.normal(size=len(ms))
    return [
        RotorSuperposition({0: 0.6, 480: 0.8}),
        RotorSuperposition(dict(zip(ms, c / np.linalg.norm(c)))),
    ]


class TestRotorOracleEdges:
    """The azimuthal rule is sized from the span max m - min m, up to 480 (1024 nodes)."""

    @pytest.mark.parametrize("state", _span_480_rotors(), ids=["two-modes", "random"])
    def test_span_480_agrees_with_the_analytic_route(self, state):
        for kind in (PHI, PHI_SQUARED, SIN_PHI, COS_PHI):
            exact = std_dev(kind, state)
            assert abs(std_dev(kind, state, method="quadrature") - exact) <= 1e-12 * exact, kind

    def test_span_481_is_out_of_the_oracle_domain(self):
        state = RotorSuperposition({0: 0.6, 481: 0.8})
        with pytest.raises(ValueError, match="480"):
            std_dev(PHI, state, method="quadrature")

    def test_the_rule_grows_with_the_span(self):
        assert [engine.phi_rule_size((0, span)) for span in (0, 1, 16, 17, 200)] == [64, 96, 96, 128, 480]


class TestLargeM:
    """Lz is held about the basis's middle m, so every m the parser accepts keeps its digits."""

    @pytest.mark.parametrize("m0", [0, 10**6, 2**30, 2**40, 2**52 - 1])
    def test_both_routes_agree_on_an_adjacent_pair(self, m0):
        state = RotorSuperposition({m0: 0.6, m0 + 1: 0.8j})
        assert std_dev(LZ, state) == pytest.approx(0.48, rel=1e-14)
        assert mean(LZ, state) == pytest.approx(m0 + 0.64, rel=1e-15, abs=1e-15)
        for kind in (LZ, PHI, PHI_SQUARED, SIN_PHI, COS_PHI):
            for moment in (mean, std_dev):
                exact = moment(kind, state)
                quad = moment(kind, state, method="quadrature")
                assert abs(quad - exact) <= 1e-12 * max(abs(exact), 1.0), (kind, moment.__name__)
        low = RotorSuperposition({0: 0.6, 1: 0.8j})
        assert std_dev(PHI, state) == pytest.approx(std_dev(PHI, low), rel=1e-14)


def test_pendulums_stack_by_width():
    """An n sweep at one width is one stack; a pendulum of another width gets its own."""
    states = pendulums_of_two_widths()
    sweep = tuple(states[:-1])
    assert [stack.states for stack in moments.stacks(sweep)] == [sweep]
    assert [stack.states for stack in moments.stacks(states)] == [sweep, (states[-1],)]


def test_one_grid_per_quadrature_check(monkeypatch):
    calls = []
    build = engine.state_grid

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(engine, "state_grid", counted)
    quad = {"method": "quadrature"}
    checks = (
        lambda s: mean(PHI, s, **quad),
        lambda s: std_dev(PHI, s, **quad),
        lambda s: std_dev(LZ, s, **quad),
        lambda s: correlation(LZ, PHI, s, **quad),
        lambda s: higher_correlation(PHI, LZ, 2, 3, s, **quad),
    )
    states = (
        CircularState(m=2),
        random_rotor(np.random.default_rng(3)),
        random_spherical(np.random.default_rng(4), 2),
        PendulumState(n=5),
    )
    fourier_checks = (
        fourier.parseval_check,
        lambda s: fourier.coefficients(s, **quad),
    )
    for state in states:
        periodic = not isinstance(state, PendulumState)
        for check in checks + fourier_checks * periodic:
            calls.clear()
            check(state)
            assert calls == [state]


def test_one_centered_vector_per_quadrature_variance(monkeypatch):
    """A quadrature std_dev takes its side's grid mean once, not once per side."""
    calls = []
    grid_mean = moments._grid_mean

    def counted(grid, kind):
        calls.append(kind)
        return grid_mean(grid, kind)

    monkeypatch.setattr(moments, "_grid_mean", counted)
    states = [random_spherical(np.random.default_rng(5), 3), PendulumState(n=4)]
    for k in range(20):
        std_dev(PHI if k % 2 else LZ, states[k % 2], method="quadrature")
    assert len(calls) == 20


def test_each_default_form_is_computed_once_per_stack(monkeypatch):
    """R5 R30 R36 R58 on one spherical stack take each distinct form (c, M c) once.

    Fourteen reads of a form (c, M c) enter those columns: the Phi and Theta
    means and the binomial terms of std(Phi), std(Theta) and C(Theta, Phi).
    They come from six symbols (1, phi, phi^2, theta, theta*phi, theta^2); the
    seam density (c, Gamma c), which R5's gate and R58's rhs both read, is
    a seventh. Every einsum whose left factor is conj(C) is counted by its
    right factor M C.
    """
    from lzphi import relations

    rng = np.random.default_rng(11)
    states = [random_spherical(rng, 3) for _ in range(4)]
    conj = np.conj(np.array([s.coefficients for s in states]))
    einsum = np.einsum
    forms = []

    def counted(subscripts, *operands, **kwargs):
        left = operands[0]
        if subscripts == "pi,pi->p" and left.shape == conj.shape and np.array_equal(left, conj):
            forms.append(operands[1].tobytes())
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    named = tuple((f"s{k}", state) for k, state in enumerate(states))
    selection = tuple((rid, None) for rid in (RelationId.R5, RelationId.R30, RelationId.R36, RelationId.R58))
    assert len(list(relations.report_rows([(named, selection)], 1e-9))) == 16
    assert len(forms) == len(set(forms)) == 7


def test_stacks_derive_each_basis_once_and_take_the_rows_bit_for_bit(monkeypatch):
    """Mixed families: each stack's P x n block holds every state's ``expansion`` amplitudes, bit for bit."""
    from lzphi import states as st

    rng = np.random.default_rng(17)
    ring = CircularState(m=3)
    states = [
        random_spherical(rng, 2), random_spherical(rng, 5), random_spherical(rng, 2),
        SphericalState(5, {-5: 0.6, 5: 0.8j}, hbar=0.5),
        ring, RotorSuperposition({3: -1j}), RotorSuperposition({-1: 0.6, 2: 0.8j}), ring,
        *pendulums_of_two_widths(),
    ]
    calls = []
    basis_of = observables.basis_of

    def counted(state):
        calls.append(state)
        return basis_of(state)

    monkeypatch.setattr(observables, "basis_of", counted)
    stacks = moments.stacks(states)
    distinct = list({id(s): s for s in states}.values())
    assert len(calls) == len(distinct) and all(a is b for a, b in zip(calls, distinct))
    assert [len(stack.states) for stack in stacks] == [2, 2, 2, 1, len(pendulums_of_two_widths()) - 1, 1]
    for stack in stacks:
        for state, row in zip(stack.states, stack._coeffs):
            if isinstance(state, PendulumState):
                want = np.zeros(row.size, dtype=np.complex128)
                want[state.n] = 1.0
            else:
                want = np.array(st.expansion(state)[1], dtype=np.complex128)
            assert row.dtype == want.dtype and row.tobytes() == want.tobytes()
            assert stack._basis == basis_of(state)
    # the moments of a row do not depend on which states share its stack
    for stack in stacks:
        for index, state in enumerate(stack.states):
            lone = moments.MomentStack((state,))
            assert stack.std(PHI)[index].tobytes() == lone.std(PHI)[0].tobytes()
