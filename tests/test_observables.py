import math

import numpy as np
import pytest

from lzphi import (
    LZ,
    PHI,
    PHI_SQUARED,
    SIN_PHI,
    COS_PHI,
    THETA,
    THETA_PHI,
    CircularState,
    PendulumState,
    RotorBasis,
    RotorSuperposition,
    SphericalBasis,
    SphericalState,
    chi,
    lz_phi_symmetry_deficit,
    matrix_element,
    matrix_table,
    symmetry_deficit,
)
from lzphi.numerics import theta_overlap_matrix
from lzphi.observables import (
    MAX_CORRELATION_ORDER,
    ObservableKind,
    applicable,
    kind_symbol,
    phi_fourier_moment,
    product_symbol,
    symbol_matrix,
)

from .conftest import random_spherical
from .oracles import SphericalOracle, lz_phi_deficit, phi_fourier_moment_exact, symbol_sum

ROTOR_7 = RotorBasis(tuple(range(-3, 4)))


class TestRotorElements:
    def test_phi_diagonal_is_pi(self):
        assert matrix_element(PHI, ROTOR_7, 2, 2) == pytest.approx(math.pi)

    def test_phi_off_diagonal(self):
        # (1/2pi) int phi e^{i phi} dphi = -i by parts
        assert matrix_element(PHI, ROTOR_7, 0, 1) == pytest.approx(-1j)
        assert matrix_element(PHI, ROTOR_7, 1, 0) == pytest.approx(1j)
        assert matrix_element(PHI, ROTOR_7, -1, 2) == pytest.approx(1j / (-1 - 2))

    def test_sin_element(self):
        assert matrix_element(SIN_PHI, ROTOR_7, 0, 1) == pytest.approx(0.5j)

    def test_lz_is_diagonal(self):
        table = matrix_table(LZ, ROTOR_7, hbar=2.0)
        assert table.element(3, 3) == pytest.approx(6.0)
        assert table.element(1, 2) == 0.0

    def test_trig_tables_are_banded(self):
        for kind in (SIN_PHI, COS_PHI):
            table = matrix_table(kind, ROTOR_7)
            for i, mi in enumerate(ROTOR_7.ms):
                for j, mj in enumerate(ROTOR_7.ms):
                    if abs(mi - mj) != 1:
                        assert abs(table.matrix[i, j]) < 1e-12

    def test_chi_shifts_the_diagonal(self):
        table = matrix_table(chi(3), ROTOR_7)
        assert table.element(0, 0) == pytest.approx(math.pi + 6 * math.pi)
        assert table.element(0, 1) == pytest.approx(matrix_element(PHI, ROTOR_7, 0, 1))


def test_phi_fourier_moments_match_the_exact_sum():
    """Every moment a stack reads, up to the order-6 products of PhiSquared, to 1e-14."""
    top = 4 * MAX_CORRELATION_ORDER
    for k in (*range(-10, 0), *range(1, 11)):
        assert phi_fourier_moment(k, 0) == 0
        for p in range(1, top + 1):
            exact = phi_fourier_moment_exact(k, p)
            assert abs(phi_fourier_moment(k, p) - exact) <= 1e-14 * abs(exact), (k, p)


class TestHermiticity:
    @pytest.mark.parametrize("kind", [LZ, PHI, PHI_SQUARED, SIN_PHI, COS_PHI])
    def test_rotor_tables(self, kind):
        mat = matrix_table(kind, ROTOR_7).matrix
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-10

    @pytest.mark.parametrize("kind", [LZ, PHI, PHI_SQUARED, SIN_PHI, COS_PHI, THETA, THETA_PHI])
    def test_spherical_tables(self, kind):
        mat = matrix_table(kind, SphericalBasis(2)).matrix
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-10


class TestAnalyticVersusQuadrature:
    @pytest.mark.parametrize("kind", [LZ, PHI, PHI_SQUARED, SIN_PHI, COS_PHI, chi(1)])
    def test_rotor_all_kinds(self, kind):
        basis = RotorBasis(tuple(range(-6, 7)))
        exact = matrix_table(kind, basis).matrix
        oracle = matrix_table(kind, basis, method="quadrature").matrix
        assert np.max(np.abs(exact - oracle)) < 1e-9

    @pytest.mark.parametrize("kind", [LZ, PHI, PHI_SQUARED, SIN_PHI, COS_PHI, chi(1)])
    def test_sparse_rotor_all_kinds(self, kind):
        # widely spaced modes: the offsets are the pairs themselves, not -span..span
        basis = RotorBasis((-7, 0, 3, 20))
        exact = matrix_table(kind, basis).matrix
        oracle = matrix_table(kind, basis, method="quadrature").matrix
        assert np.max(np.abs(exact - oracle)) < 1e-9

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4, 24, 64])
    @pytest.mark.parametrize("kind", [LZ, PHI, PHI_SQUARED, SIN_PHI, COS_PHI, THETA, THETA_PHI])
    def test_spherical_all_kinds(self, kind, l):
        basis = SphericalBasis(l)
        exact = matrix_table(kind, basis).matrix
        oracle = matrix_table(kind, basis, method="quadrature").matrix
        assert np.max(np.abs(exact - oracle)) < 1e-9

    def test_provenance_labels(self):
        assert matrix_table(PHI, ROTOR_7).provenance == "analytic"
        assert matrix_table(PHI, SphericalBasis(1)).provenance == "quadrature"
        assert matrix_table(LZ, SphericalBasis(1)).provenance == "analytic"


class TestKindValidation:
    def test_theta_rejected_on_rotor(self):
        with pytest.raises(ValueError):
            matrix_table(THETA, ROTOR_7)

    def test_unknown_kind_name(self):
        with pytest.raises(ValueError):
            ObservableKind("Momentum")

    def test_winding_only_for_chi(self):
        with pytest.raises(ValueError):
            ObservableKind("Phi", winding=2)


class TestSymmetryDeficit:
    def test_circular_is_i_hbar(self):
        for m in range(-5, 6):
            assert lz_phi_symmetry_deficit(CircularState(m=m)) == pytest.approx(1j)
        assert lz_phi_symmetry_deficit(CircularState(m=2, hbar=3.0)) == pytest.approx(3j)
        # exactly i*hbar: the Phi jump is 1 in units of 2*pi, so no 2*pi is divided out
        for k in range(1, 200):
            hbar = k / 10
            assert lz_phi_symmetry_deficit(CircularState(m=1, hbar=hbar)) == complex(0, hbar)

    def test_pendulum_is_zero(self):
        assert lz_phi_symmetry_deficit(PendulumState(n=0)) == 0
        quad = lz_phi_symmetry_deficit(PendulumState(n=4), method="quadrature")
        assert abs(quad) < 1e-10

    def test_single_coefficient_spherical(self):
        state = SphericalState(l=1, coefficients=(0, 1, 0))
        assert lz_phi_symmetry_deficit(state) == pytest.approx(1j, abs=1e-12)

    def test_spherical_against_independent_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            l = int(rng.integers(1, 4))
            state = random_spherical(rng, l)
            oracle = SphericalOracle(l, state.coefficients)
            got = lz_phi_symmetry_deficit(state)
            assert got == pytest.approx(oracle.deficit_lz_phi(), abs=1e-9)

    def test_quadrature_method_matches_closed_form(self, fixture_states):
        for state in fixture_states:
            closed = lz_phi_symmetry_deficit(state)
            quad = lz_phi_symmetry_deficit(state, method="quadrature")
            assert abs(closed - quad) < 1e-9

    def test_general_route_matches_closed_form_on_fixtures(self, fixture_states):
        for state in fixture_states:
            assert abs(symmetry_deficit(LZ, PHI, state) - lz_phi_deficit(state)) < 1e-12

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6, 7, 8, 64])
    def test_general_route_matches_closed_form_spherical(self, l):
        state = random_spherical(np.random.default_rng(100 + l), l)
        assert abs(symmetry_deficit(LZ, PHI, state) - lz_phi_deficit(state)) < 1e-12

    def test_multiplicative_pairs_have_no_deficit(self):
        state = SphericalState(l=2, coefficients=(0, 0.6, 0, 0.8j, 0))
        assert symmetry_deficit(THETA, PHI, state) == 0
        assert abs(symmetry_deficit(THETA, PHI, state, method="quadrature")) < 1e-12

    def test_lz_with_bounded_symbols_has_no_deficit(self):
        state = _mixed_rotor()
        assert symmetry_deficit(LZ, SIN_PHI, state) == 0
        assert abs(symmetry_deficit(LZ, SIN_PHI, state, method="quadrature")) < 1e-12

    def test_lz_phi_squared_deficit_matches_quadrature(self):
        state = _mixed_rotor()
        closed = symmetry_deficit(LZ, PHI_SQUARED, state)
        quad = symmetry_deficit(LZ, PHI_SQUARED, state, method="quadrature")
        assert closed == pytest.approx(quad, abs=1e-8)

    def test_oracle_deficit_with_lz_second_is_zero(self, fixture_states):
        """(A Psi, Lz Psi) - (Psi, A Lz Psi) is exactly 0 analytically; the oracle agrees.

        The bound is 1e-13 relative to max(1, dA*dLz): the pendulum at n = 64
        reads 1.4e-13 for (Lz, Lz), with dLz^2 = 64.5.
        """
        from lzphi import std_dev
        from lzphi.states import family_of

        states = list(fixture_states) + [RotorSuperposition({10**12: 0.6, 10**12 + 1: 0.8j})]
        checked = 0
        for state in states:
            for a in (LZ, PHI, COS_PHI, PHI_SQUARED, THETA):
                if not applicable(a, family_of(state)):
                    continue
                assert symmetry_deficit(a, LZ, state) == 0
                quad = symmetry_deficit(a, LZ, state, method="quadrature")
                scale = max(1.0, std_dev(a, state) * std_dev(LZ, state))
                assert abs(quad) <= 1e-13 * scale, (state, a)
                checked += 1
        # circular 4 x 4 kinds, rotor 4 x 4, spherical 4 x 5, pendulum 9 x 3
        assert checked == 79

    def test_deficit_linearity_on_random_states(self):
        """Closed form against direct quadrature for 100 seeded states."""
        rng = np.random.default_rng(77)
        for _ in range(100):
            l = int(rng.integers(1, 4))
            state = random_spherical(rng, l)
            closed = lz_phi_symmetry_deficit(state)
            quad = lz_phi_symmetry_deficit(state, method="quadrature")
            assert abs(closed - quad) < 1e-9


def _double_sum_matrix(sym, basis):
    """The definition of symbol_matrix: one phi moment per (m, m') pair."""
    ms = basis.ms
    out = np.zeros((len(ms), len(ms)), dtype=np.complex128)
    for (a, j, p), v in sym.terms.items():
        theta_fac = (
            theta_overlap_matrix(basis.l, a)
            if isinstance(basis, SphericalBasis)
            else 1.0
        )
        phi_fac = np.array([[phi_fourier_moment(mj - mi + j, p) for mj in ms] for mi in ms])
        out = out + v * theta_fac * phi_fac
    return out


_MULTIPLICATIVE_KINDS = (PHI, PHI_SQUARED, SIN_PHI, COS_PHI, THETA, THETA_PHI, chi(1), chi(-2))


class TestSharedSymbols:
    """The symbols of the kinds and their products are built once per process and read-only."""

    KINDS = (PHI, PHI_SQUARED, SIN_PHI, COS_PHI, THETA, THETA_PHI, chi(3))

    def test_a_kept_symbol_cannot_be_written(self):
        phi = kind_symbol(PHI)
        assert kind_symbol(ObservableKind("Phi")) is phi
        with pytest.raises(TypeError):
            phi.terms[(0, 0, 1)] = 2.0
        with pytest.raises(TypeError):
            del phi.terms[(0, 0, 1)]
        assert dict(phi.terms) == {(0, 0, 1): 1.0}

    def test_products_and_derivatives_leave_their_factors_unchanged(self):
        before = {kind: dict(kind_symbol(kind).terms) for kind in self.KINDS}
        for a in self.KINDS:
            for b in self.KINDS:
                product = kind_symbol(a) ** 2 * kind_symbol(b) * 3.0
                product.phi_derivative()
                kept = product_symbol(a, 2, b, 1)
                assert product_symbol(a, 2, b, 1) is kept
                assert kept.terms == (kind_symbol(a) ** 2 * kind_symbol(b)).terms
            kind_symbol(a).phi_derivative()
            assert product_symbol(a, 0, a, 0).key == (((0, 0, 0), 1 + 0j),)
        assert {kind: dict(kind_symbol(kind).terms) for kind in self.KINDS} == before


class TestToeplitzSymbolMatrix:
    """symbol_matrix indexes one moment per offset; the floats must not change."""

    @pytest.mark.parametrize(
        "basis",
        [
            RotorBasis((-3, 0, 5)),
            RotorBasis((4,)),
            RotorBasis(tuple(range(-8, 9))),
            RotorBasis((-2, 100000)),
            SphericalBasis(0),
            SphericalBasis(1),
            SphericalBasis(8),
            SphericalBasis(64),
        ],
        ids=["rotor-gaps", "rotor-single", "rotor-17", "rotor-wide", "l0", "l1", "l8", "l64"],
    )
    def test_equals_double_sum_exactly(self, basis):
        symbols = [kind_symbol(k) for k in _MULTIPLICATIVE_KINDS if applicable(k, basis.family)]
        symbols += [
            symbol_sum(kind_symbol(SIN_PHI), -0.3) ** 2,
            symbol_sum(kind_symbol(PHI_SQUARED), -2.3) ** 2,
            kind_symbol(COS_PHI).phi_derivative(),
        ]
        if basis.family == "spherical":
            symbols.append(symbol_sum(kind_symbol(THETA_PHI), -1.1) ** 2)
        for sym in symbols:
            assert np.array_equal(symbol_matrix(sym, basis), _double_sum_matrix(sym, basis))


def _mixed_rotor():
    from lzphi import RotorSuperposition

    return RotorSuperposition({-1: 0.6, 1: 0.8})


class TestSymbolMatrixCache:
    """``cached_symbol_matrix`` keeps one read-only matrix per (symbol, basis) within a byte bound."""

    @pytest.mark.parametrize(
        "state, orders",
        [
            (SphericalState(0, [1.0]), 6),
            (SphericalState(1, [0.6, 0.0, 0.8j]), 6),
            (SphericalState(8, {-3: 0.6, 5: 0.8j}), 3),
            (SphericalState(64, {0: 0.6, 1: 0.8j}), 1),
            (RotorSuperposition({-2: 0.6, 1: 0.48j, 5: 0.64}), 6),
        ],
        ids=["l0", "l1", "l8", "l64", "rotor"],
    )
    def test_every_matrix_a_stack_reads_is_a_fresh_build_bit_for_bit(self, state, orders, monkeypatch):
        """Each product ``MomentStack.pair`` forms, and each phi derivative, as built and as kept."""
        from lzphi import moments, observables

        read = []
        cached = observables.cached_symbol_matrix

        def spy(sym, basis):
            mat = cached(sym, basis)
            read.append((sym, basis, mat))
            return mat

        monkeypatch.setattr(observables, "cached_symbol_matrix", spy)
        kinds = [k for k in _MULTIPLICATIVE_KINDS if applicable(k, observables.basis_of(state).family)]
        for stack in (moments.MomentStack((state,)), moments.MomentStack((state,))):
            for a in [LZ, *kinds]:
                for b in kinds:
                    stack.commutator(a, b)
                    for r in range(1, orders + 1):
                        stack.pair(a, b, r, orders + 1 - r)
        built = len(read) // 2
        assert built > 0 and len(read) == 2 * built
        # the second stack reads the first one's matrices, unless they outgrow the bound
        fits = sum(mat.nbytes for _, _, mat in read[:built]) <= observables.SYMBOL_CACHE_BYTES
        for (sym, basis, first), (_, _, second) in zip(read[:built], read[built:]):
            # the key is the symbol's sorted terms, the order symbol_matrix sums them in
            assert second is first or not fits
            fresh = symbol_matrix(sym, basis)
            assert first.tobytes() == fresh.tobytes() and second.tobytes() == fresh.tobytes()

    def test_kept_matrices_are_read_only(self):
        from lzphi.observables import cached_symbol_matrix

        basis = SphericalBasis(3)
        mat = cached_symbol_matrix(kind_symbol(THETA_PHI), basis)
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        assert cached_symbol_matrix(kind_symbol(THETA_PHI), basis) is mat
        for kind in (PHI, LZ):
            for method in ("analytic", "quadrature"):
                table = matrix_table(kind, basis, method=method)
                assert not table.matrix.flags.writeable, (kind, method)
        assert matrix_table(PHI, basis).matrix is cached_symbol_matrix(kind_symbol(PHI), basis)

    def test_one_symbol_has_one_key_and_one_kept_matrix(self):
        """A product built in either order holds one term order and reads one kept matrix."""
        from lzphi.observables import cached_symbol_matrix

        basis = RotorBasis(tuple(range(-4, 5)))
        first = kind_symbol(chi(1)) * kind_symbol(SIN_PHI)
        second = kind_symbol(SIN_PHI) * kind_symbol(chi(1))
        assert list(first.terms) == list(second.terms) == sorted(first.terms)
        assert first.key == second.key == tuple(first.terms.items())
        mat = cached_symbol_matrix(first, basis)
        assert cached_symbol_matrix(second, basis) is mat
        assert mat.tobytes() == symbol_matrix(second, basis).tobytes()

    def test_the_byte_bound_holds_as_span_480_rotors_fill_it(self):
        """Rotor bases of span 480: the least recently used go first; a matrix past the bound is not kept."""
        from lzphi.observables import SYMBOL_CACHE_BYTES, SYMBOL_MATRICES, cached_symbol_matrix

        rng = np.random.default_rng(480)
        kept = []
        for modes in (100, 200, 300, 443, 481, 250, 150):
            ms = tuple(sorted({0, 480, *(int(m) for m in rng.choice(np.arange(1, 480), modes - 2,
                                                                        replace=False))}))
            basis = RotorBasis(ms)
            assert len(ms) == modes
            for kind in (PHI, PHI_SQUARED):
                mat = cached_symbol_matrix(kind_symbol(kind), basis)
                assert mat.shape == (modes, modes) and not mat.flags.writeable
                kept.append(((basis, tuple(kind_symbol(kind).terms.items())), mat))
                assert SYMBOL_MATRICES.nbytes <= SYMBOL_MATRICES.max_bytes == SYMBOL_CACHE_BYTES
                entries = SYMBOL_MATRICES._entries
                assert SYMBOL_MATRICES.nbytes == sum(m.nbytes for m in entries.values())
                if mat.nbytes > SYMBOL_CACHE_BYTES:
                    assert modes == 481 and kept[-1][0] not in entries
                else:
                    assert entries[kept[-1][0]] is mat
        # the most recently used matrices that fit are the ones kept
        total, expected = 0, []
        for key, mat in reversed(kept):
            if mat.nbytes > SYMBOL_CACHE_BYTES:
                continue
            if total + mat.nbytes > SYMBOL_CACHE_BYTES:
                break
            total += mat.nbytes
            expected.append(key)
        assert list(SYMBOL_MATRICES._entries) == expected[::-1]

    def test_threads_sharing_the_cache_keep_its_count(self, monkeypatch):
        """More threads than cores, a short switch interval and a small bound: no lost update."""
        import sys
        import threading

        from lzphi import observables

        cache = observables._MatrixCache(200_000)
        monkeypatch.setattr(observables, "SYMBOL_MATRICES", cache)
        bases = [SphericalBasis(l) for l in range(2, 12)]
        symbols = [kind_symbol(k) for k in (PHI, THETA, THETA_PHI)]
        failures = []

        def work(offset):
            try:
                for i in range(60):
                    basis = bases[(offset + i) % len(bases)]
                    sym = symbols[i % len(symbols)]
                    mat = observables.cached_symbol_matrix(sym, basis)
                    if mat.tobytes() != symbol_matrix(sym, basis).tobytes():
                        failures.append((sym.terms, basis))
            except Exception as exc:  # reported below; a thread's exception is otherwise lost
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert cache.nbytes == sum(m.nbytes for m in cache._entries.values()) <= cache.max_bytes
