"""The oracle: its rule sizes, its quadrature grids, and every oracle moment as a grid method.

Grids sample a state on the family's quadrature rule: ``psi``, ``hbar``,
``lz_origin``, ``lz_pow(j, mu)`` (Lz from ``lz_origin``),
``symbol_values(sym)`` and ``inner(f, g)``. The one algebra over them,
``mean``, ``std``, ``pair`` and ``deficit`` of a state, is ``_Grid``'s. Each
circular, rotor and spherical state has its own ``AngularGrid``. Operator
applications never differentiate numerically: (Lz - mu)^j acts before
sampling, by the exact per-mode factor (periodic families) or on the Hermite
series (pendulum family), so a centered power is never expanded binomially.
Each rule is sized from what it samples, never from a setting: see
``phi_rule_size``, ``theta_rule_size`` and ``hermite_rule_size``.

Every spherical grid and every oracle matrix table of degree l reads its
polar factors from one read-only table, ``numerics.polar_table(l,
theta_rule_size(l))`` (see ``polar_tables``), built at the first use of l.
Their azimuthal waves are ``numerics.waves`` on the phi rule.

The pendulum grid reads one read-only table per rule size,
``_hermite_table(size)``: rows H_0..H_K at the rule's nodes, with
K = MAX_HERMITE_DEGREE + MAX_CORRELATION_ORDER, stacked from the one
Hermite recurrence. Its psi is A*H_n, row n times the amplitude, and Lz
acts on the Hermite series by an exact two-term ladder (see
``PendulumGrid``): the oracle stays a quadrature of sampled values. All
pendulums of one n share one ``PendulumGrid`` of unit width
(``oracle_grid``), and a state's width enters as factors.
"""

from __future__ import annotations

from functools import lru_cache
import math

import numpy as np

from . import _kernels, numerics
from . import observables as obs
from . import states as st
# unused here: perfbench's tracer patches this name in engine, and its tests check it
from ._kernels import fourier_sum  # noqa: F401

MAX_CORRELATION_ORDER = numerics.MAX_CORRELATION_ORDER

#: the top degree of the pendulum grid's Hermite table: H_n raised by that many Lz steps
HERMITE_TABLE_DEGREE = numerics.MAX_HERMITE_DEGREE + MAX_CORRELATION_ORDER

#: the widest span the phi rule resolves: 2*span + 64 <= numerics.MAX_LEGENDRE_NODES
MAX_ORACLE_SPAN = (numerics.MAX_LEGENDRE_NODES - 64) // 2


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
    polar = numerics.polar_rows(numerics.polar_table(l, rule.nodes.size), ms)
    return polar, rule.weights * np.sin(rule.nodes), rule.nodes[:, None]


@lru_cache(maxsize=16)
def _hermite_table(size: int) -> np.ndarray:
    """Read-only rows H_0..H_HERMITE_TABLE_DEGREE at the nodes of the Hermite rule of ``size`` nodes.

    Row n is ``numerics.hermite_poly(n, nodes)`` bit for bit: both read ``_kernels.hermite_rows``.
    """
    xi = numerics.hermite_rule(size).nodes
    out = np.stack(list(_kernels.hermite_rows(HERMITE_TABLE_DEGREE, xi)))
    out.flags.writeable = False
    return out


class _Grid:
    """The oracle's algebra over a subclass's sampling, each moment kept in the memo (``moment``).

    A moment is computed once per grid, in its units, centered by the same grid's means.
    """

    lz_origin = 0.0

    def __init__(self):
        self._memo = {}

    def moment(self, state, sides, compute, *args):
        """``compute(self, *args)``, kept in the memo, at the width of ``state``: see ``_at``."""
        key = (compute, *args)
        value = self._memo.get(key)  # a moment is a number, never None
        if value is None:
            value = self._memo[key] = compute(self, *args)
        return self._at(state, sides, value)

    def _at(self, state, sides, value):
        """``value`` at the width of ``state``; ``sides`` are the moment's (kind name, power) pairs."""
        return value  # the state's own grid

    def mean(self, kind, state) -> float:
        """<A> = (Psi, A Psi)."""
        mu = self.moment(state, [(kind.name, 1)], _Grid._mean, kind)
        return (self.lz_origin if kind.name == "Lz" else 0.0) + mu

    def std(self, kind, state) -> float:
        """(C(A, A))^(1/2)."""
        return self.moment(state, [(kind.name, 1)], _Grid._std, kind)

    def pair(self, a, b, r: int, s: int, state) -> complex:
        """((A - <A>)^r Psi, (B - <B>)^s Psi)."""
        return self.moment(state, [(a.name, r), (b.name, s)], _Grid._pair, a, b, r, s)

    def deficit(self, a, b, state) -> complex:
        """(A Psi, B Psi) - (Psi, A B Psi), Lz acting on f Psi by the product rule.

        Lz (f Psi) = -i*hbar*f' Psi + f Lz Psi: the only numerics is the final weighted sum.
        """
        return self.moment(state, [(a.name, 1), (b.name, 1)], _Grid._deficit, a, b)

    def _mean(self, kind) -> float:
        return float(np.real(self.inner(self.psi, self._centered(kind, 1, 0.0))))

    def _std(self, kind) -> float:
        return math.sqrt(max(float(np.real(self._pair(kind, kind, 1, 1))), 0.0))

    def _pair(self, a, b, r, s) -> complex:
        """A variance, (a, r) == (b, s), builds its one centered vector once."""
        a, b = obs.unwound(a), obs.unwound(b)
        va = self._centered(a, r, self.moment(None, (), _Grid._mean, a))
        if (a, r) == (b, s):
            return self.inner(va, va)
        return self.inner(va, self._centered(b, s, self.moment(None, (), _Grid._mean, b)))

    def _deficit(self, a, b) -> complex:
        psi, lz_psi = self.psi, self.lz_pow(1)
        a_vals, b_vals = (None if k.name == "Lz" else self.symbol_values(obs.kind_symbol(k))
                          for k in (a, b))
        # (A Psi, B Psi) first, so its two vectors are freed before A B Psi is formed
        first = self.inner(*(lz_psi if vals is None else vals * psi for vals in (a_vals, b_vals)))
        if a_vals is not None:  # two multiplicative sides multiply first: (a*b)*psi
            ab_psi = a_vals * lz_psi if b_vals is None else a_vals * b_vals * psi
        elif b_vals is None:
            ab_psi = self.lz_pow(2)
        else:
            deriv = self.symbol_values(obs.kind_symbol(b).phi_derivative())
            ab_psi = -1j * self.hbar * deriv * psi + b_vals * lz_psi
        return first - self.inner(psi, ab_psi)

    def _centered(self, kind, power, mu):
        """(A - mu)^power Psi: the grid's exact centered Lz powers, else pointwise."""
        if kind.name == "Lz":
            return self.lz_pow(power, mu)
        return (self.symbol_values(obs.kind_symbol(kind)) - mu) ** power * self.psi


class AngularGrid(_Grid):
    """Circular, rotor and fixed-l states on the theta x phi tensor rule.

    Grid functions are (polar nodes) x (phi nodes) arrays; a circle has
    one polar node (see ``polar_tables``), so one formula serves all three
    families. The polar and azimuthal basis tables are built once per grid
    and serve every sampling and every azimuthal projection.
    """

    def __init__(self, state):
        super().__init__()
        ms, amps = st.expansion(state)
        self._coeffs = np.array(amps, dtype=np.complex128)
        rule = numerics.phi_rule(phi_rule_size(ms))
        l = state.l if st.family_of(state) == "spherical" else None
        self.phi = rule.nodes
        self.phi_weights = rule.weights
        self.polar, self.polar_weights, self.theta = polar_tables(ms, l)
        self.weights = np.outer(self.polar_weights, self.phi_weights)
        # the waves are exp(i*(m - m0)*phi): the common phase cancels in every inner product
        m0 = st.middle_m(ms)
        offsets = [m - m0 for m in ms]
        self._waves = numerics.waves(offsets, self.phi)
        self.hbar = state.hbar
        self.lz_origin = state.hbar * m0
        self._lz = state.hbar * np.array(offsets, dtype=np.float64)
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


class PendulumGrid(_Grid):
    """The pendulum of number n at scale 1 and hbar 1, sampled at the Gauss-Hermite nodes xi.

    A grid function holds exp(xi^2/2) times the function's values: the
    rule's weight exp(-xi^2) carries the Gaussian envelope of both sides,
    so inner products are weighted sums as on the other grids. Lz acts
    exactly on the Hermite series f of the state before sampling,
    Lz [exp(-xi^2/2) f] = -i * exp(-xi^2/2) * (f' - xi*f).
    By H_k' = 2k H_(k-1) and xi H_k = H_(k+1)/2 + k H_(k-1), f' - xi*f maps
    c_k H_k to k c_k H_(k-1) - c_k/2 H_(k+1). In xi the pendulums of one n are
    one function, phi = xi/scale and Lz = hbar*scale*(-i d/dxi): ``_at``.
    """

    hbar = 1.0

    def __init__(self, n: int, size: int):
        super().__init__()
        rule = numerics.hermite_rule(size)
        self.xi, self.weights = rule.nodes, rule.weights
        self._n, self._amplitude = n, st.PendulumState(n=n).amplitude
        self._table = _hermite_table(size)
        self.psi = self._amplitude * self._table[n]
        self.psi.flags.writeable = False  # one grid serves every pendulum of n

    def _at(self, state, sides, value):
        """Per power of each side: hbar*scale for Lz, 1/scale for phi (PhiSquared twice).

        The factors are taken in turns, so only a moment past a float overflows.
        """
        lz = sum(power for name, power in sides if name == "Lz")
        phi = sum(power * (1 + (name == "PhiSquared")) for name, power in sides) - lz
        for k in range(max(lz, phi)):
            value *= state.hbar * state.scale if k < lz else 1.0
            value *= 1.0 / state.scale if k < phi else 1.0
        return value

    def lz_pow(self, j: int, mu: float = 0.0) -> np.ndarray:
        """Values of (Lz - mu)^j Psi: j ladder steps on the Hermite coefficients, read out by the table.

        A power of degree n + j past HERMITE_TABLE_DEGREE is a ValueError.
        """
        top = self._n + j
        if top > HERMITE_TABLE_DEGREE:
            raise ValueError(
                f"lz_pow needs n + j <= {HERMITE_TABLE_DEGREE}, got n={self._n}, j={j}"
            )
        series = np.zeros(top + 1, dtype=np.complex128)
        series[self._n] = self._amplitude
        lowered = np.arange(1, top + 1)  # k at index k - 1: the factor of c_k H_k -> H_(k-1)
        step = -1j * self.hbar
        for _ in range(j):
            new = -mu * series
            new[:-1] += step * (lowered * series[1:])
            new[1:] -= (0.5 * step) * series[:-1]
            series = new
        return series @ self._table[: top + 1]

    def symbol_values(self, sym) -> np.ndarray:
        return sym.evaluate(None, self.xi)

    def inner(self, f, g) -> complex:
        """Weighted sum over mirrored node pairs: an odd integrand (a parity zero) is exactly 0."""
        h = np.conj(f) * g
        return complex(np.dot(self.weights, h + h[::-1]) / 2)


def state_grid(state) -> AngularGrid:
    return AngularGrid(state)


def oracle_grid(state) -> _Grid:
    """The state's own grid; a pendulum's is the unit grid of its n at the rule size read now."""
    if st.family_of(state) != "pendulum":
        return state_grid(state)
    return _unit_pendulum_grid(state.n, hermite_rule_size(state.n))


#: the unit grid of each (n, rule size)
_unit_pendulum_grid = lru_cache(maxsize=4 * (numerics.MAX_HERMITE_DEGREE + 1))(PendulumGrid)
