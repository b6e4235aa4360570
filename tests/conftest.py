import numpy as np
import pytest
from hypothesis import settings as hyp_settings

from lzphi import engine
from lzphi.states import CircularState, PendulumState, RotorSuperposition, SphericalState

hyp_settings.register_profile("suite", deadline=None, derandomize=True)
hyp_settings.load_profile("suite")


def random_spherical(rng, l, hbar=1.0):
    c = rng.normal(size=2 * l + 1) + 1j * rng.normal(size=2 * l + 1)
    c /= np.linalg.norm(c)
    return SphericalState(l=l, coefficients=c, hbar=hbar)


def random_rotor(rng, span=4, hbar=1.0):
    ms = rng.choice(np.arange(-span, span + 1), size=rng.integers(1, 5), replace=False)
    c = rng.normal(size=ms.size) + 1j * rng.normal(size=ms.size)
    c /= np.linalg.norm(c)
    return RotorSuperposition({int(m): cc for m, cc in zip(ms, c)}, hbar=hbar)


def pendulums_of_two_widths():
    """An n = 0..64 sweep at one (I, omega, hbar), then one pendulum of another width."""
    sweep = [PendulumState(n=n, inertia=1.3, omega=0.7, hbar=1.1) for n in range(65)]
    return sweep + [PendulumState(n=7, inertia=0.4, omega=0.7, hbar=1.1)]


@pytest.fixture
def oracle_rule(monkeypatch):
    """``fix(helper, nodes)`` pins one oracle rule size of ``engine`` at ``nodes``.

    ``helper`` names ``phi_rule_size``, ``theta_rule_size`` or
    ``hermite_rule_size``; ``nodes`` None keeps the rule sized from the state.
    """

    def fix(helper, nodes):
        if nodes is not None:
            monkeypatch.setattr(engine, helper, lambda *_: nodes)

    return fix


@pytest.fixture(scope="session")
def fixture_states():
    """A spread of states across all four families, deterministic."""
    rng = np.random.default_rng(2024)
    states = [
        CircularState(m=-5),
        CircularState(m=0),
        CircularState(m=3),
        CircularState(m=7, hbar=2.0),
        RotorSuperposition({0: 2**-0.5, 1: 2**-0.5}),
        RotorSuperposition({-1: 0.6, 2: 0.8j}),
        random_rotor(rng, span=6),
        SphericalState(l=1, coefficients=(0, 1, 0)),
        SphericalState(l=1, coefficients=(2**-0.5, 0, 2**-0.5)),
        random_spherical(rng, 2),
        random_spherical(rng, 3),
        PendulumState(n=0),
        PendulumState(n=1),
        PendulumState(n=3),
        PendulumState(n=10),
        PendulumState(n=20),
        PendulumState(n=30),
        PendulumState(n=64),
        PendulumState(n=2, inertia=2.0, omega=0.5),
        PendulumState(n=1, hbar=2.0),
    ]
    return states
