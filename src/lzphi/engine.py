"""Engine settings and the quadrature grids behind every oracle path.

Grids sample a state on the family's quadrature rule, and every grid has
one interface: ``psi``, ``lz_pow(j, mu)``, ``symbol_values(sym)`` and
``inner(f, g)``. Circular, rotor and spherical states share one grid,
``AngularGrid``; the pendulum has ``PendulumGrid``. Operator applications
never differentiate numerically: (Lz - mu)^j acts before sampling, by the
exact per-mode factor (periodic families) or on the Hermite series
(pendulum family), so a centered power is never expanded binomially.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from numpy.polynomial import hermite as H

from . import numerics
from . import states as st
# unused here: perfbench's tracer patches this name in engine, and its tests check it
from ._kernels import fourier_sum  # noqa: F401


@dataclass(frozen=True)
class EngineSettings:
    """Node counts and tolerances shared by oracles, parser and CLI.

    Node counts govern only the sampled grids of ``method="quadrature"``
    (the analytic route reads no settings; the pendulum's line transform
    sizes its own rules from n, so ``hermite_nodes`` reaches only
    ``PendulumGrid``) and must lie in 2..the largest count their rule
    builds correctly; the tolerance must be finite and >= 0. Else: ValueError.
    """

    phi_nodes: int = 256
    theta_nodes: int = 128
    hermite_nodes: int = 128
    tolerance: float = 1e-9
    hbar: float = 1.0
    normalize: bool = False

    def __post_init__(self):
        for name, top in (
            ("phi_nodes", numerics.MAX_LEGENDRE_NODES),
            ("theta_nodes", numerics.MAX_LEGENDRE_NODES),
            ("hermite_nodes", numerics.MAX_HERMITE_NODES),
        ):
            if not 2 <= getattr(self, name) <= top:
                raise ValueError(f"{name} must be in 2..{top}, got {getattr(self, name)}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")


DEFAULT_SETTINGS = EngineSettings()


def resolve(settings: EngineSettings | None) -> EngineSettings:
    return DEFAULT_SETTINGS if settings is None else settings


def polar_tables(ms, l, settings: EngineSettings):
    """(polar factors, polar weights, theta column) of the basis on the polar rule.

    ``polar[k]`` holds theta_lm(l, ms[k], theta) at the nodes of the theta
    rule, whose weights carry sin(theta). A circle (``l`` None) is one
    polar node of weight 1 and factor 1, with theta None.
    """
    if l is None:
        return np.ones((len(ms), 1)), np.ones(1), None
    rule = numerics.theta_rule(settings.theta_nodes)
    polar, _ = numerics.basis_on_grid(ms, l, rule.nodes, None)
    return polar, rule.weights * np.sin(rule.nodes), rule.nodes[:, None]


class AngularGrid:
    """Circular, rotor and fixed-l states on the theta x phi tensor rule.

    Grid functions are (polar nodes) x (phi nodes) arrays; a circle has
    one polar node (see ``polar_tables``), so one formula serves all three
    families. The polar and azimuthal basis tables are built once per grid
    and serve every sampling and every azimuthal projection.
    """

    def __init__(self, state, settings: EngineSettings):
        rule = numerics.phi_rule(settings.phi_nodes)
        ms = st.basis_ms(state)
        l = state.l if st.family_of(state) == "spherical" else None
        self.phi = rule.nodes
        self.phi_weights = rule.weights
        self.polar, self.polar_weights, self.theta = polar_tables(ms, l, settings)
        self.weights = np.outer(self.polar_weights, self.phi_weights)
        _, self._waves = numerics.basis_on_grid(ms, None, None, self.phi)
        self._lz = state.hbar * np.array(ms, dtype=np.float64)
        self._coeffs = st.coeff_vector(state)
        self.psi = self._sample(self._coeffs)

    def _sample(self, coeffs) -> np.ndarray:
        return (coeffs[:, None] * self.polar).T @ self._waves

    def lz_pow(self, j: int, mu: float = 0.0) -> np.ndarray:
        """Values of (Lz - mu)^j Psi via the exact per-mode factor (hbar*m - mu)^j."""
        return self._sample((self._lz - mu) ** j * self._coeffs)

    def azimuthal_coefficients(self, f) -> np.ndarray:
        """b_m at every polar node: the phi rule's sum of f * exp(-i*m*phi)/sqrt(2*pi)."""
        return (f * self.phi_weights) @ np.conj(self._waves).T

    def symbol_values(self, sym) -> np.ndarray:
        return sym.evaluate(self.theta, self.phi[None, :])

    def inner(self, f, g) -> complex:
        return complex(np.sum(self.weights * np.conj(f) * g))


class PendulumGrid:
    """Pendulum states sampled at the Gauss-Hermite nodes xi = scale * phi.

    A grid function holds exp(xi^2/2) times the function's values: the
    rule's weight exp(-xi^2) carries the Gaussian envelope of both sides,
    so inner products are weighted sums as on the other grids. Lz acts
    exactly on the Hermite series f of the state before sampling,
    Lz [exp(-xi^2/2) f] = -i*hbar*scale * exp(-xi^2/2) * (f' - xi*f).
    """

    def __init__(self, state, settings: EngineSettings):
        rule = numerics.hermite_rule(settings.hermite_nodes)
        self.xi = rule.nodes
        self.weights = rule.weights / state.scale
        self.scale = state.scale
        self.hbar = state.hbar
        self._series = np.zeros(state.n + 1, dtype=np.complex128)
        self._series[state.n] = state.amplitude
        self.psi = H.hermval(self.xi, self._series)

    def lz_pow(self, j: int, mu: float = 0.0) -> np.ndarray:
        """Values of (Lz - mu)^j Psi, each factor applied to the Hermite series."""
        series, step = self._series, -1j * self.hbar * self.scale
        for _ in range(j):
            lz_series = step * H.hermsub(H.hermder(series), H.hermmulx(series))
            series = H.hermsub(lz_series, mu * series)
        return H.hermval(self.xi, series)

    def symbol_values(self, sym) -> np.ndarray:
        return sym.evaluate(None, self.xi / self.scale)

    def inner(self, f, g) -> complex:
        return complex(np.dot(self.weights, np.conj(f) * g))


def state_grid(state, settings: EngineSettings | None = None):
    settings = resolve(settings)
    if st.family_of(state) == "pendulum":
        return PendulumGrid(state, settings)
    return AngularGrid(state, settings)
