"""Engine settings, the oracle's rule sizes and the quadrature grids behind every oracle path.

Grids sample a state on the family's quadrature rule, and every grid has
one interface: ``psi``, ``lz_origin``, ``lz_pow(j, mu)``,
``symbol_values(sym)`` and ``inner(f, g)``; ``lz_pow`` measures Lz from
``lz_origin``. Circular, rotor and spherical states share one grid,
``AngularGrid``; the pendulum has ``PendulumGrid``. Operator applications
never differentiate numerically: (Lz - mu)^j acts before sampling, by the
exact per-mode factor (periodic families) or on the Hermite series
(pendulum family), so a centered power is never expanded binomially.
Each rule is sized from what it samples, never from a setting: see
``phi_rule_size``, ``theta_rule_size`` and ``hermite_rule_size``. The
pendulum's psi is A*H_n on its Hermite rule, and the H_n samples depend on
n and the rule size alone, so ``_hermite_on_rule`` builds them once per
(n, size).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from numpy.polynomial import hermite as H

from . import numerics
from . import states as st
# unused here: perfbench's tracer patches this name in engine, and its tests check it
from ._kernels import fourier_sum  # noqa: F401

#: the widest span the phi rule resolves: 2*span + 64 <= numerics.MAX_LEGENDRE_NODES
MAX_ORACLE_SPAN = (numerics.MAX_LEGENDRE_NODES - 64) // 2


@dataclass(frozen=True)
class EngineSettings:
    """Parser and CLI settings; none reaches a moment or a grid.

    The tolerance must be finite and >= 0, else ValueError.
    """

    tolerance: float = 1e-9
    hbar: float = 1.0
    normalize: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")


DEFAULT_SETTINGS = EngineSettings()


def phi_rule_size(ms) -> int:
    """2*span + 64 rounded up to 32 (64..1024); a span past MAX_ORACLE_SPAN is a ValueError."""
    span = max(ms) - min(ms)
    if span > MAX_ORACLE_SPAN:
        raise ValueError(f"the oracle needs max m - min m <= {MAX_ORACLE_SPAN}, got {span}")
    return -(-(2 * span + 64) // 32) * 32


def theta_rule_size(l: int) -> int:
    """2l + 48 rounded up to 32: always more nodes than the analytic overlap rule's 2l + 32."""
    return -(-(2 * l + 48) // 32) * 32


def hermite_rule_size(n: int) -> int:
    """n + 16 rounded up to 16: exact for centered moments to order 6 (degree <= 2n + 24)."""
    return -(-(n + 16) // 16) * 16


def polar_tables(ms, l):
    """(polar factors, polar weights, theta column) of the basis on the oracle's polar rule.

    ``polar[k]`` holds theta_lm(l, ms[k], theta) at the nodes of the theta
    rule, whose weights carry sin(theta). A circle (``l`` None) is one
    polar node of weight 1 and factor 1, with theta None.
    """
    if l is None:
        return np.ones((len(ms), 1)), np.ones(1), None
    rule = numerics.theta_rule(theta_rule_size(l))
    polar, _ = numerics.basis_on_grid(ms, l, rule.nodes, None)
    return polar, rule.weights * np.sin(rule.nodes), rule.nodes[:, None]


@lru_cache(maxsize=numerics.MAX_HERMITE_DEGREE + 1)
def _hermite_on_rule(n: int, size: int) -> np.ndarray:
    """Read-only H_n at the nodes of the Hermite rule of ``size`` nodes."""
    out = numerics.hermite_poly(n, numerics.hermite_rule(size).nodes)
    out.flags.writeable = False
    return out


class AngularGrid:
    """Circular, rotor and fixed-l states on the theta x phi tensor rule.

    Grid functions are (polar nodes) x (phi nodes) arrays; a circle has
    one polar node (see ``polar_tables``), so one formula serves all three
    families. The polar and azimuthal basis tables are built once per grid
    and serve every sampling and every azimuthal projection.
    """

    def __init__(self, state):
        ms = st.basis_ms(state)
        rule = numerics.phi_rule(phi_rule_size(ms))
        l = state.l if st.family_of(state) == "spherical" else None
        self.phi = rule.nodes
        self.phi_weights = rule.weights
        self.polar, self.polar_weights, self.theta = polar_tables(ms, l)
        self.weights = np.outer(self.polar_weights, self.phi_weights)
        # the waves are exp(i*(m - m0)*phi): the common phase cancels in every inner product
        m0 = st.middle_m(ms)
        offsets = [m - m0 for m in ms]
        _, self._waves = numerics.basis_on_grid(offsets, None, None, self.phi)
        self.lz_origin = state.hbar * m0
        self._lz = state.hbar * np.array(offsets, dtype=np.float64)
        self._coeffs = st.coeff_vector(state)
        self.psi = self._sample(self._coeffs)

    def _sample(self, coeffs) -> np.ndarray:
        return (coeffs[:, None] * self.polar).T @ self._waves

    def lz_pow(self, j: int, mu: float = 0.0) -> np.ndarray:
        """Values of (Lz - mu)^j Psi via the exact per-mode factor (hbar*(m - m0) - mu)^j.

        Lz is measured from ``lz_origin`` = hbar*m0, so ``mu`` is too.
        """
        return self._sample((self._lz - mu) ** j * self._coeffs)

    def azimuthal_coefficients(self, f) -> np.ndarray:
        """b_m at every polar node: the phi rule's sum of f against the waves exp(i*(m - m0)*phi)/sqrt(2*pi)."""
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

    lz_origin = 0.0

    def __init__(self, state):
        size = hermite_rule_size(state.n)
        rule = numerics.hermite_rule(size)
        self.xi = rule.nodes
        self.weights = rule.weights / state.scale
        self.scale = state.scale
        self.hbar = state.hbar
        self._series = np.zeros(state.n + 1, dtype=np.complex128)
        self._series[state.n] = state.amplitude
        self.psi = state.amplitude * _hermite_on_rule(state.n, size)

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
        """Weighted sum over mirrored node pairs: an odd integrand (a parity zero) is exactly 0."""
        h = np.conj(f) * g
        return complex(np.dot(self.weights, h + h[::-1]) / 2)


def state_grid(state):
    if st.family_of(state) == "pendulum":
        return PendulumGrid(state)
    return AngularGrid(state)
