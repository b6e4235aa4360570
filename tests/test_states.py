from decimal import Decimal, localcontext
import math

import numpy as np
import pytest

from lzphi import (
    LZ,
    PHI,
    CircularState,
    PendulumState,
    RotorSuperposition,
    SphericalState,
    energy,
    mean,
    norm,
    std_dev,
    wavefunction,
)
from lzphi.states import FAMILIES, expansion, family_of

TWO_PI = 2.0 * math.pi


class TestNorm:
    def test_circular(self):
        assert norm(CircularState(m=3)) == pytest.approx(1.0, abs=1e-12)

    def test_spherical(self):
        state = SphericalState(l=1, coefficients=(2**-0.5, 0, 2**-0.5))
        assert norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_pendulum(self):
        assert norm(PendulumState(n=2)) == pytest.approx(1.0, abs=1e-10)

    def test_all_fixtures(self, fixture_states):
        for state in fixture_states:
            assert norm(state) == pytest.approx(1.0, abs=1e-9)


class TestWavefunction:
    def test_circular_modulus(self):
        assert wavefunction(CircularState(m=0), 1.234) == pytest.approx(1 / math.sqrt(TWO_PI))

    def test_circular_phase_wraps(self):
        got = wavefunction(CircularState(m=2), math.pi)
        assert got == pytest.approx(1 / math.sqrt(TWO_PI))

    def test_pendulum_odd_state_vanishes_at_origin(self):
        assert wavefunction(PendulumState(n=1), 0.0) == pytest.approx(0.0)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            wavefunction(CircularState(m=1), -0.5)
        with pytest.raises(ValueError):
            wavefunction(SphericalState(l=0, coefficients=[1.0]), (4.0, 1.0))

    def test_pendulum_domain_is_the_line(self):
        assert abs(wavefunction(PendulumState(n=0), -9.0)) < 1e-15

    @pytest.mark.parametrize("state, point", [
        (PendulumState(n=64), 1e20),  # H_64 overflows from |xi| ~ 3.3e4
        (PendulumState(n=64), -3.4e4),
        (PendulumState(n=5), 1e200),  # xi^2 overflows
        (PendulumState(n=5), -1.7e308),
        (PendulumState(n=64, inertia=1e200), 1e300),  # phi*scale overflows
    ])
    def test_a_far_pendulum_point_is_exactly_zero(self, state, point):
        """Past |xi| = 43, where the amplitude is below every double, it is 0 with no float warning."""
        assert wavefunction(state, point) == 0
        near = 0.5 / state.scale
        vals = wavefunction(state, np.array([point, near, -point]))
        assert vals[0] == vals[2] == 0 and vals[1] == wavefunction(state, near) != 0

    @pytest.mark.parametrize("state, point", [
        (CircularState(m=1), math.nan),
        (RotorSuperposition({0: 0.6, 1: 0.8}), math.nan),
        (RotorSuperposition({0: 0.6, 1: 0.8}), np.array([1.0, math.nan])),
        (SphericalState(l=1, coefficients=(0, 1, 0)), (math.nan, 1.0)),
        (SphericalState(l=1, coefficients=(0, 1, 0)), (1.0, math.nan)),
        (PendulumState(n=5), math.nan),
        (PendulumState(n=5), math.inf),
        (PendulumState(n=64), np.array([0.0, -math.inf])),
    ])
    def test_a_non_finite_point_is_refused(self, state, point):
        with pytest.raises(ValueError, match="must be finite"):
            wavefunction(state, point)

    @pytest.mark.parametrize("m0", [10**6, 2**30, 2**52 - 1])
    def test_density_at_large_m_is_that_at_m_zero(self, m0):
        """The waves are taken about the middle m, so |psi|^2 keeps its digits near m = 2^52."""
        phi = np.append(np.linspace(0.0, TWO_PI, 17), 1.625)
        want = TWO_PI * np.abs(wavefunction(RotorSuperposition({0: 0.6, 1: 0.8}), phi)) ** 2
        state = RotorSuperposition({m0: 0.6, m0 + 1: 0.8})
        assert want[-1] == pytest.approx(0.9480, abs=1e-4)
        psi = wavefunction(state, phi)
        assert np.max(np.abs(TWO_PI * np.abs(psi) ** 2 - want)) < 1e-12


_PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def _pendulum_amplitude(n: int, xi: float) -> float:
    """N_n exp(-xi^2/2) H_n(xi) at unit scale, to 50 digits at the exact float xi."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(xi)
        below, h = Decimal(0), Decimal(1)
        for k in range(n):  # H_{k+1} = 2 xi H_k - 2k H_{k-1}
            below, h = h, 2 * x * h - 2 * k * below
        norm_n = (1 / _PI_50).sqrt().sqrt() / Decimal(2**n * math.factorial(n)).sqrt()
        return float(norm_n * (-(x * x) / 2).exp() * h)


@pytest.mark.parametrize("n", [0, 1, 10, 30, 64])
def test_a_pendulum_amplitude_is_right_wherever_it_is_a_normal_double(n):
    """No factor of the amplitude underflows first: at n = 64 it is 6.18e-218 at xi = 36."""
    xi = np.array([12.0, 20.0, 30.0, 35.0, 36.0, 37.0, 38.0, 39.0, 40.0, 41.0, 42.0])
    want = np.array([_pendulum_amplitude(n, x) for x in xi])
    normal = np.abs(want) >= np.finfo(float).tiny
    got = wavefunction(PendulumState(n=n), xi)
    assert np.all(got[normal] != 0)
    assert np.max(np.abs(got[normal] / want[normal] - 1)) < 1e-12


def test_each_state_class_is_its_familys_record():
    for state in (CircularState(m=1), RotorSuperposition({0: 1.0}),
                  SphericalState(l=1, coefficients=(0, 1, 0)), PendulumState(n=2)):
        assert FAMILIES[state.family] is type(state)
        assert family_of(state) == state.family
    assert list(FAMILIES) == ["circular", "rotor", "spherical", "pendulum"]


class TestEnergy:
    def test_pendulum_ground(self):
        assert energy(PendulumState(n=0)) == pytest.approx(0.5)

    def test_spherical(self):
        assert energy(SphericalState(l=2, coefficients=(0, 0, 1, 0, 0))) == pytest.approx(3.0)

    def test_not_defined_families(self):
        assert energy(CircularState(m=1)) is None
        assert energy(RotorSuperposition({0: 1.0})) is None


class TestNormalizationPolicy:
    def test_rejects_unnormalized_without_flag(self):
        with pytest.raises(ValueError):
            RotorSuperposition({0: 1.0, 1: 1.0})

    def test_rescales_with_flag(self):
        state = RotorSuperposition({0: 1.0, 1: 1.0}, normalize=True)
        total = sum(abs(c) ** 2 for _, c in state.coefficients)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_idempotent_and_global_only(self):
        once = SphericalState(l=1, coefficients=(3.0, 0, 4.0j), normalize=True)
        again = SphericalState(l=1, coefficients=once.coefficients, normalize=True)
        assert once.coefficients == again.coefficients
        # rescaling touched only the global amplitude: moments unchanged
        raw_ratio = once.coefficients[2] / once.coefficients[0]
        assert raw_ratio == pytest.approx(4j / 3)

    def test_moments_invariant_under_rescale(self):
        scaled = RotorSuperposition({0: 0.6 * 2.0, 2: 0.8 * 2.0}, normalize=True)
        reference = RotorSuperposition({0: 0.6, 2: 0.8})
        for kind in (PHI, LZ):
            assert mean(kind, scaled) == pytest.approx(mean(kind, reference), abs=1e-12)
            assert std_dev(kind, scaled) == pytest.approx(std_dev(kind, reference), abs=1e-12)

    def test_tight_tolerance_accepted(self):
        RotorSuperposition({0: math.sqrt(1.0 - 5e-7), 1: math.sqrt(5e-7)})


class TestSingleModeEquivalence:
    def test_rotor_single_mode_matches_circular_bitwise(self):
        circ = CircularState(m=4)
        rot = RotorSuperposition({4: 1.0})
        for kind in (PHI, LZ):
            assert mean(kind, rot) == mean(kind, circ)
            assert std_dev(kind, rot) == std_dev(kind, circ)

    def test_rotor_single_mode_quadrature_close(self):
        circ = CircularState(m=-2)
        rot = RotorSuperposition({-2: 1.0})
        a = mean(PHI, rot, method="quadrature")
        b = mean(PHI, circ, method="quadrature")
        assert abs(a - b) < 1e-12


def test_density_integrates_to_one(fixture_states):
    for state in fixture_states:
        assert norm(state) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_spherical_coefficient_count_enforced():
    with pytest.raises(ValueError):
        SphericalState(l=1, coefficients=(1.0, 0.0))
    with pytest.raises(ValueError):
        SphericalState(l=1, coefficients={2: 1.0})


def test_spherical_mapping_keys_are_converted_before_use():
    """A key that int() accepts names that m; a key repeated after conversion is refused."""
    state = SphericalState(l=1, coefficients={"1": 0.6, 0: 0.8})
    assert state.coefficients == (0, 0.8, 0.6)
    with pytest.raises(ValueError, match="duplicate m"):
        SphericalState(l=1, coefficients={1: 0.6, "1": 0.8}, normalize=True)


def test_rotor_mapping_keys_are_converted_before_use():
    """A key that int() accepts names that m; an m repeated after conversion is refused, not compared."""
    state = RotorSuperposition({"1": 0.6, 0: 0.8})
    assert state.coefficients == ((0, 0.8), (1, 0.6))
    with pytest.raises(ValueError, match="duplicate m"):
        RotorSuperposition({"1": 0.6, 1: 0.8})
    with pytest.raises(ValueError, match="duplicate m"):
        RotorSuperposition([(1, 0.6), (1, 0.8j)])


def test_rotor_pairs_build_the_state_a_mapping_builds():
    pairs = RotorSuperposition([(1, 0.6), (0, 0.8j)])
    assert pairs == RotorSuperposition({0: 0.8j, 1: 0.6})
    assert pairs.coefficients == ((0, 0.8j), (1, 0.6))


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: RotorSuperposition({}), ValueError, "at least one coefficient"),
        (lambda: expansion(PendulumState(n=1)), ValueError, "no azimuthal Fourier basis"),
        (lambda: family_of(3), TypeError, "not a state: 3"),
    ],
    ids=["empty-rotor", "pendulum-expansion", "not-a-state"],
)
def test_what_no_family_holds_is_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_wavefunction_array_broadcast():
    state = CircularState(m=1)
    phi = np.linspace(0.0, TWO_PI, 7)
    vals = wavefunction(state, phi)
    assert vals.shape == phi.shape
    assert vals[0] == pytest.approx(vals[-1])
    grid = np.linspace(0.1, 3.0, 12).reshape(3, 4)
    for state in (RotorSuperposition({-1: 0.6, 2: 0.8j}), PendulumState(n=5)):
        vals = wavefunction(state, grid)
        assert vals.shape == grid.shape
        assert vals[2, 1] == pytest.approx(wavefunction(state, grid[2, 1]), abs=1e-14)
    state = SphericalState(l=3, coefficients=np.full(7, 7**-0.5))
    vals = wavefunction(state, (grid[:, :1], grid[0] * 2.0))
    assert vals.shape == grid.shape
    assert vals[2, 1] == pytest.approx(wavefunction(state, (grid[2, 0], grid[0, 1] * 2.0)), abs=1e-14)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: CircularState(m=1, hbar=INF),
        lambda: CircularState(m=1, hbar=NAN),
        lambda: CircularState(m=1, hbar=1e200),  # hbar**2 overflows in the bounds
        lambda: RotorSuperposition({0: 1.0}, hbar=INF),
        lambda: RotorSuperposition({0: INF, 1: 1.0}, normalize=True),
        lambda: SphericalState(l=1, coefficients=(0, 1, 0), inertia=INF),
        lambda: SphericalState(l=1, coefficients=(0, 1, 0), hbar=NAN),
        lambda: PendulumState(n=2, inertia=INF),
        lambda: PendulumState(n=2, omega=NAN),
        lambda: PendulumState(n=2, inertia=1e300, omega=1e300),
        lambda: PendulumState(n=2, inertia=1e-300, omega=1e-300),
        lambda: PendulumState(n=2, inertia=1e200, hbar=1e-150),
    ],
)
def test_non_finite_or_degenerate_parameters_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_wide_but_representable_parameters_accepted():
    state = PendulumState(n=2, inertia=1e100, omega=1e-90, hbar=1e-20)
    assert math.isfinite(std_dev(PHI, state)) and math.isfinite(std_dev(LZ, state))
    assert CircularState(m=1, hbar=1e150).hbar == 1e150


@pytest.mark.parametrize(
    "build",
    [
        lambda: CircularState(m=10**20),
        lambda: CircularState(m=-(2**52) - 1),
        lambda: RotorSuperposition({2**62: 0.6, -(2**62): 0.8}),
        lambda: RotorSuperposition({0: 0.6, 2**52 + 1: 0.8}),
    ],
)
def test_m_beyond_2_to_the_52_rejected(build):
    with pytest.raises(ValueError, match=r"2\*\*52"):
        build()


def test_m_at_2_to_the_52_accepted():
    assert CircularState(m=2**52).m == 2**52
    assert dict(RotorSuperposition({2**52: 0.6, -(2**52): 0.8}).coefficients)[-(2**52)] == 0.8


@pytest.mark.parametrize(
    "field, build",
    [
        ("m", lambda: CircularState(m=1.5)),
        ("m", lambda: CircularState(m=NAN)),
        ("n", lambda: PendulumState(n=1.5)),
        ("m", lambda: RotorSuperposition({1.5: 1.0})),
        ("l", lambda: SphericalState(1.5, [1, 0, 0])),
        ("m", lambda: SphericalState(1, {0.5: 1.0})),
    ],
)
def test_quantum_numbers_that_are_not_integers_rejected(field, build):
    with pytest.raises(ValueError, match=f"^{field} must be a finite integer"):
        build()


def test_integral_quantum_numbers_are_stored_as_int():
    """numpy integers, integer-valued floats and integer-string keys convert to the int they name."""
    assert type(CircularState(m=np.int64(3)).m) is int
    assert type(PendulumState(n=2.0).n) is int
    assert type(SphericalState(np.int64(1), (0, 1, 0)).l) is int
    assert dict(RotorSuperposition({"1": 0.6, 0: 0.8}).coefficients) == {0: 0.8, 1: 0.6}
