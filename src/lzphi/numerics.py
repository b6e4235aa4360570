"""Quadrature rules and special functions behind every analytic cross-check.

``basis_on_grid`` tabulates the basis theta_lm(theta) * exp(i*m*phi)/sqrt(2*pi)
on a grid. The wave functions, the polar overlaps, the engine's circle and
sphere grid (both of its tables) and the polar tables of the oracle matrix
tables are built from it. Two routes tabulate on their own: the oracle
matrix tables sum their phi side over offsets m' - m, and the pendulum
grid evaluates a Hermite series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from . import _kernels

TWO_PI = 2.0 * math.pi

#: documented upper bounds for the recurrence-based special functions
MAX_HERMITE_DEGREE = 64
MAX_ORBITAL_L = 64

#: the largest node counts whose rules build correctly. numpy's leggauss
#: builds an n x n companion matrix (0.27 s at 1024 nodes, 7.8 s and 128 MB
#: at 4096, 80 GB at 100000) and integrates every polynomial of degree
#: <= 2n - 1 within 3.1e-14 at 1024 nodes, drifting to 1e-13..6e-13 above;
#: hermgauss overflows its normalized Hermite values from 371 nodes on,
#: which zeroes the outermost weights.
MAX_LEGENDRE_NODES = 1024
MAX_HERMITE_NODES = 370


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for a fixed integration domain.

    ``domain`` is a label: ``legendre[a,b]`` for a finite interval or
    ``hermite`` for the real line against the weight exp(-xi^2).
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain: str

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape or self.nodes.size < 2:
            raise ValueError("nodes and weights must have equal length >= 2")
        if np.any(self.weights <= 0):
            raise ValueError("all quadrature weights must be positive")

    def integrate(self, values: np.ndarray) -> complex:
        """Weighted sum of integrand values sampled at the nodes."""
        return np.dot(self.weights, values)


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule on [a, b], exact for polynomials of degree <= 2n-1.

    The nodes and weights are the affine map of the cached [-1, 1] rule of
    n nodes; they are fresh arrays, so a caller may write into them.

    Parameters
    ----------
    n : int
        Number of nodes, 2..MAX_LEGENDRE_NODES.
    a, b : float
        Integration bounds with a < b.
    """
    if not 2 <= n <= MAX_LEGENDRE_NODES:
        raise ValueError(f"gauss_legendre needs 2 <= n <= {MAX_LEGENDRE_NODES}, got {n}")
    if not a < b:
        raise ValueError(f"gauss_legendre needs a < b, got a={a}, b={b}")
    x, w = _leggauss(n)
    nodes = 0.5 * (b - a) * x + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w
    return QuadratureRule(nodes, weights, f"legendre[{a!r},{b!r}]")


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    Every interval's rule is an affine map of this one, so the companion
    matrix eigensolve runs once per node count, not once per interval.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule: sum w_i f(xi_i) ~ int f(xi) exp(-xi^2) dxi.

    Exact for polynomial f of degree <= 2n-1; n is 2..MAX_HERMITE_NODES.
    """
    if not 2 <= n <= MAX_HERMITE_NODES:
        raise ValueError(f"gauss_hermite needs 2 <= n <= {MAX_HERMITE_NODES}, got {n}")
    x, w = np.polynomial.hermite.hermgauss(n)
    return QuadratureRule(x, w, "hermite")


def _polished_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """gauss_legendre(n, a, b) after one Newton step on P_n, weights 2 / ((1 - x^2) P_n'(x)^2).

    numpy's weights are off by up to 2e-10 at counts that are not powers of two.
    """
    rule = gauss_legendre(n, a, b)
    x, _ = _leggauss(n)
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
    x = x - p1 / dp
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return QuadratureRule(0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w, rule.domain)


@lru_cache(maxsize=64)
def phi_rule(n: int) -> QuadratureRule:
    """The oracle's cached azimuthal rule on [0, 2*pi], polished."""
    return _polished_legendre(n, 0.0, TWO_PI)


@lru_cache(maxsize=64)
def theta_rule(n: int) -> QuadratureRule:
    """The oracle's cached polar rule on [0, pi], polished; sin(theta) stays in integrands."""
    return _polished_legendre(n, 0.0, math.pi)


@lru_cache(maxsize=64)
def hermite_rule(n: int) -> QuadratureRule:
    return gauss_hermite(n)


def hermite_poly(n: int, xi):
    """Physicists' Hermite polynomial H_n(xi) via the stable recurrence.

    Accepts a scalar or an array; degrees above MAX_HERMITE_DEGREE are
    rejected.
    """
    if n < 0 or n > MAX_HERMITE_DEGREE:
        raise ValueError(f"hermite_poly supports 0 <= n <= {MAX_HERMITE_DEGREE}, got {n}")
    arr = np.asarray(xi, dtype=np.float64)
    out = _kernels.hermite_grid(n, arr)
    return float(out) if arr.ndim == 0 else out


def theta_lm(l: int, m: int, theta):
    """Normalized polar factor of the spherical harmonic (Condon-Shortley).

    Satisfies int_0^pi theta_lm(l, m, t)^2 sin(t) dt = 1, and the full
    harmonic is theta_lm * (2*pi)**-0.5 * exp(i*m*phi). Negative orders
    follow theta_lm(l, -m) = (-1)**m * theta_lm(l, m).
    """
    if l < 0 or l > MAX_ORBITAL_L:
        raise ValueError(f"theta_lm supports 0 <= l <= {MAX_ORBITAL_L}, got {l}")
    if abs(m) > l:
        raise ValueError(f"theta_lm needs |m| <= l, got l={l}, m={m}")
    arr = np.asarray(theta, dtype=np.float64)
    if np.any(arr < -1e-12) or np.any(arr > math.pi + 1e-12):
        raise ValueError("theta_lm needs theta in [0, pi]")
    out = theta_lm_grid(l, m, arr)
    return float(out) if arr.ndim == 0 else out


def theta_lm_grid(l: int, m: int, theta: np.ndarray) -> np.ndarray:
    """theta_lm values on an array of any shape; no domain checks."""
    polar, _ = basis_on_grid((m,), l, theta, None)
    return polar[0]


def basis_on_grid(ms, l, theta, phi):
    """Polar and azimuthal basis tables on grids of any shape; no domain checks.

    Returns ``(polar, azimuthal)`` with ``polar[k] = theta_lm(l, ms[k], theta)``
    and ``azimuthal[k] = exp(i*ms[k]*phi)/sqrt(2*pi)``. ``polar`` is None when
    ``l`` is None (the circle-only families) and ``azimuthal`` is None when
    ``phi`` is None.
    """
    polar = None
    if l is not None:
        # one recurrence for every |m|; theta_l,-m = (-1)**m * theta_lm
        orders = sorted({abs(m) for m in ms})
        table = _kernels.legendre_grid(l, orders, np.cos(np.asarray(theta, dtype=np.float64)))
        polar = table[[orders.index(abs(m)) for m in ms]]
        odd_negative = [m < 0 and m % 2 == 1 for m in ms]
        polar[odd_negative] = -polar[odd_negative]
    azimuthal = None
    if phi is not None:
        ms_f = np.asarray(ms, dtype=np.float64)
        angles = np.multiply.outer(ms_f, np.asarray(phi, dtype=np.float64))
        azimuthal = np.exp(1j * angles) / math.sqrt(TWO_PI)
    return polar, azimuthal


@lru_cache(maxsize=512)
def theta_overlap_matrix(l: int, power: int) -> np.ndarray:
    """Matrix of int theta_lm * theta^power * theta_lm' * sin(theta) dtheta.

    Indexed by (m, m') offsets with m = -l..l; power = 0 gives the plain
    overlap of polar factors. The integrand, sin(theta) explicit, is a
    trigonometric polynomial of degree 2l + 1 times theta^power, so a rule of
    2l + 32 nodes sized from l alone gives every entry to round-off: no
    setting enters the analytic route. The result is read-only.
    """
    if l < 0 or l > MAX_ORBITAL_L:
        raise ValueError(f"theta_overlap_matrix supports 0 <= l <= {MAX_ORBITAL_L}, got {l}")
    rule = gauss_legendre(2 * l + 32, 0.0, math.pi)
    th = rule.nodes
    big, _ = basis_on_grid(range(-l, l + 1), l, th, None)
    weighted = big * (rule.weights * np.sin(th) * th**power)
    out = weighted @ big.T
    out.flags.writeable = False
    return out
