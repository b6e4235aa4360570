"""Engine settings and the quadrature grids behind every oracle path.

Grids sample a state on the family's quadrature rule, and every grid has
one interface: ``psi``, ``lz_pow(j)``, ``symbol_values(sym)`` and
``inner(f, g)``. Operator applications never differentiate numerically:
angular-momentum action uses the exact per-mode factor (periodic
families) or the exact derivative of the Hermite series (pendulum family)
before sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from numpy.polynomial import hermite as H

from . import numerics
from . import states as st
from ._kernels import fourier_sum
from .numerics import TWO_PI


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


class PeriodicGrid:
    """Circular / rotor states sampled on the [0, 2*pi] rule."""

    def __init__(self, state, settings: EngineSettings):
        rule = numerics.phi_rule(settings.phi_nodes)
        self.phi = rule.nodes
        self.weights = rule.weights
        self.hbar = state.hbar
        self.ms = np.array(st.basis_ms(state), dtype=np.int64)
        self.coeffs = st.coeff_vector(state) / math.sqrt(TWO_PI)
        self.psi = fourier_sum(self.ms, self.coeffs, self.phi)

    def lz_pow(self, j: int) -> np.ndarray:
        """Values of Lz^j Psi via the exact per-mode factor (hbar*m)^j."""
        scaled = (self.hbar * self.ms.astype(np.float64)) ** j * self.coeffs
        return fourier_sum(self.ms, scaled, self.phi)

    def symbol_values(self, sym) -> np.ndarray:
        return sym.evaluate(None, self.phi)

    def inner(self, f, g) -> complex:
        return complex(np.dot(self.weights, np.conj(f) * g))


class SphericalGrid:
    """Fixed-l states sampled on the theta x phi tensor rule."""

    def __init__(self, state, settings: EngineSettings):
        prule = numerics.phi_rule(settings.phi_nodes)
        trule = numerics.theta_rule(settings.theta_nodes)
        self.phi = prule.nodes
        self.theta = trule.nodes[:, None]
        self.hbar = state.hbar
        self.ms = np.arange(-state.l, state.l + 1)
        self.coeffs = st.coeff_vector(state)
        self._tl, self._ph = numerics.basis_on_grid(self.ms, state.l, trule.nodes, self.phi)
        self.psi = (self.coeffs[:, None] * self._tl).T @ self._ph
        self.weights2d = np.outer(
            trule.weights * np.sin(trule.nodes), prule.weights
        )

    def lz_pow(self, j: int) -> np.ndarray:
        scaled = (self.hbar * self.ms.astype(np.float64)) ** j * self.coeffs
        return (scaled[:, None] * self._tl).T @ self._ph

    def symbol_values(self, sym) -> np.ndarray:
        return sym.evaluate(self.theta, self.phi[None, :])

    def inner(self, f, g) -> complex:
        return complex(np.sum(self.weights2d * np.conj(f) * g))


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

    def lz_pow(self, j: int) -> np.ndarray:
        series = self._series
        for _ in range(j):
            series = -1j * self.hbar * self.scale * H.hermsub(H.hermder(series), H.hermmulx(series))
        return H.hermval(self.xi, series)

    def symbol_values(self, sym) -> np.ndarray:
        return sym.evaluate(None, self.xi / self.scale)

    def inner(self, f, g) -> complex:
        return complex(np.dot(self.weights, np.conj(f) * g))


def state_grid(state, settings: EngineSettings | None = None):
    settings = resolve(settings)
    fam = st.family_of(state)
    if fam in ("circular", "rotor"):
        return PeriodicGrid(state, settings)
    if fam == "spherical":
        return SphericalGrid(state, settings)
    return PendulumGrid(state, settings)
