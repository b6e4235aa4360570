"""Engine settings and the quadrature grids behind every oracle path.

Grids turn a state into sampled (or, for the pendulum, polynomial)
representations on the family's quadrature rule. Operator applications
never differentiate numerically: angular-momentum action uses the exact
per-mode factor (periodic families) or exact polynomial calculus against
the Gaussian envelope (pendulum family).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from numpy.polynomial import polynomial as P

from . import numerics
from . import states as st
from ._kernels import fourier_sum
from .numerics import TWO_PI


@dataclass(frozen=True)
class EngineSettings:
    """Node counts and tolerances shared by oracles, parser and CLI.

    Node counts must lie in 2..the largest count their rule builds
    correctly, and the tolerance must be finite and >= 0; anything else
    raises ValueError.
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
        self.theta = None

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
        self.psi = np.einsum("m,mt,mp->tp", self.coeffs, self._tl, self._ph)
        self.weights2d = np.outer(
            trule.weights * np.sin(trule.nodes), prule.weights
        )

    def lz_pow(self, j: int) -> np.ndarray:
        scaled = (self.hbar * self.ms.astype(np.float64)) ** j * self.coeffs
        return np.einsum("m,mt,mp->tp", scaled, self._tl, self._ph)

    def symbol_values(self, sym) -> np.ndarray:
        return sym.evaluate(self.theta, self.phi[None, :])

    def inner(self, f, g) -> complex:
        return complex(np.sum(self.weights2d * np.conj(f) * g))


class PendulumGrid:
    """Pendulum states as polynomial factors against exp(-xi^2/2).

    A grid function is a complex coefficient array c with value
    exp(-xi^2/2) * polyval(xi, c); products, the phi multiplication and
    the Lz action stay inside this family, so Gauss-Hermite sums are
    exact up to the rule's degree.
    """

    def __init__(self, state, settings: EngineSettings):
        rule = numerics.hermite_rule(settings.hermite_nodes)
        self.xi = rule.nodes
        self.weights = rule.weights
        self.scale = state.scale
        self.hbar = state.hbar
        herm = np.zeros(state.n + 1)
        herm[state.n] = 1.0
        self.psi = state.amplitude * np.polynomial.hermite.herm2poly(herm)
        self.theta = None

    def lz_apply(self, coeffs: np.ndarray) -> np.ndarray:
        # Lz [e^(-xi^2/2) p] = -i*hbar*s * e^(-xi^2/2) * (p' - xi*p)
        deriv = P.polyder(coeffs) if len(coeffs) > 1 else np.zeros(1)
        return -1j * self.hbar * self.scale * P.polysub(deriv, P.polymulx(coeffs))

    def lz_pow(self, j: int) -> np.ndarray:
        out = self.psi.astype(np.complex128)
        for _ in range(j):
            out = self.lz_apply(out)
        return out

    def multiply_phi_poly(self, coeffs: np.ndarray, phi_poly: np.ndarray) -> np.ndarray:
        """Multiply by a polynomial in phi, given by coefficients in phi."""
        xi_poly = np.array(
            [c / self.scale**k for k, c in enumerate(phi_poly)], dtype=np.complex128
        )
        return P.polymul(coeffs, xi_poly)

    def inner(self, f, g) -> complex:
        fv = P.polyval(self.xi, np.conj(np.asarray(f, dtype=np.complex128)))
        gv = P.polyval(self.xi, np.asarray(g, dtype=np.complex128))
        return complex(np.dot(self.weights, fv * gv) / self.scale)


def state_grid(state, settings: EngineSettings | None = None):
    settings = resolve(settings)
    fam = st.family_of(state)
    if fam in ("circular", "rotor"):
        return PeriodicGrid(state, settings)
    if fam == "spherical":
        return SphericalGrid(state, settings)
    return PendulumGrid(state, settings)
