"""Quadrature rules and special functions behind every analytic cross-check.

One recurrence tabulates each basis function. ``theta_lm_grid`` reads
rows theta_lm off ``_kernels.legendre_grid``, which gives every order
0..l; on the n-node polar rule ``polar_table(l, n)`` holds them once per
(l, n), for the analytic overlaps (2l + 32 nodes) and the oracle
(``engine.theta_rule_size(l)`` nodes). ``waves`` gives the rows
exp(i*m*phi)/sqrt(2*pi), one exp per |m|, and ``_kernels.hermite_rows``
the Hermite rows. The oracle matrix tables sum weighted exp(i*k*phi) over
offsets k = m' - m, which are not basis waves, so they build that sum.

Every Gauss-Legendre rule in the package, analytic or oracle, is an affine
map of ``_leggauss(n)``: Newton's method on the Legendre three-term
recurrence, started from asymptotic nodes. Gauss-Hermite rules solve the
half-size Laguerre eigenproblem that the symmetric weight reduces to
(Golub & Welsch, Math. Comp. 23 (1969) 221), polished by one Newton step.
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
#: highest order r, s of a centered moment ((A - <A>)^r Psi, (B - <B>)^s Psi)
MAX_CORRELATION_ORDER = 6

#: the largest node counts. The Legendre bound is the oracle's widest phi
#: rule, 2*480 + 64 nodes (tens of ms to build; the cost grows as n^2).
#: The Hermite rule's outermost weight is 2.4e-308 at 370 nodes; from 371
#: on it underflows below the smallest normal double.
MAX_LEGENDRE_NODES = 1024
MAX_HERMITE_NODES = 370


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights: a finite interval's, or the real line's against exp(-xi^2)."""

    nodes: np.ndarray
    weights: np.ndarray

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
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    Three Newton steps on P_n from Tricomi's first-order nodes, with P_n and
    P_n' from the three-term recurrence; the weights are 2 / ((1 - x^2) P_n'^2).
    Mirrored pairs are then averaged as numpy does, so the rule is exactly
    symmetric (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652).
    """
    k = np.arange(n, 0, -1)
    x = np.cos(math.pi * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n**3))
    for step in range(4):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        if step < 3:  # three Newton steps; the last pass gives P_n' at the nodes
            x = x - p1 / dp
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x = (x - x[::-1]) / 2
    w = (w + w[::-1]) / 2
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule: sum w_i f(xi_i) ~ int f(xi) exp(-xi^2) dxi.

    Exact for polynomial f of degree <= 2n-1; n is 2..MAX_HERMITE_NODES.
    The squared positive nodes are the zeros of L_(n/2)^(-1/2), or for odd
    n those of L_((n-1)/2)^(1/2) besides the node 0: the eigenvalues of a
    Jacobi matrix of n // 2 rows. One Newton step on the orthonormal
    Hermite functions psi_k (psi_0 = pi^(-1/4) exp(-xi^2/2)) polishes them,
    and the weights are exp(-xi^2) / (n psi_(n-1)^2). The positive half is
    mirrored, so the nodes ascend and the rule is exactly symmetric, with a
    middle node of exactly 0 for odd n.
    """
    if not 2 <= n <= MAX_HERMITE_NODES:
        raise ValueError(f"gauss_hermite needs 2 <= n <= {MAX_HERMITE_NODES}, got {n}")
    alpha = 0.5 if n % 2 else -0.5
    k = np.arange(n // 2, dtype=np.float64)
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(np.sqrt(k[1:] * (k[1:] + alpha)), -1)
    x = np.sqrt(np.linalg.eigvalsh(jacobi, UPLO="L"))
    if n % 2:
        x = np.concatenate(([0.0], x))
    prev, psi = _hermite_functions(n, x)
    x = x - psi / (math.sqrt(2.0 * n) * prev)  # Newton: psi_n' = sqrt(2n) psi_(n-1) at a zero
    prev, _ = _hermite_functions(n, x)
    w = np.exp(-x * x) / (n * prev * prev)
    mirrored = slice(n % 2, None)  # the node 0 of an odd rule is not mirrored
    nodes = np.concatenate((-x[mirrored][::-1], x))
    weights = np.concatenate((w[mirrored][::-1], w))
    return QuadratureRule(nodes, weights)


def _hermite_functions(n: int, x: np.ndarray) -> tuple:
    """(psi_(n-1), psi_n) at x: the orthonormal Hermite functions by their three-term recurrence."""
    prev = math.pi**-0.25 * np.exp(-0.5 * x * x)
    cur = math.sqrt(2.0) * x * prev
    for j in range(1, n):
        prev, cur = cur, math.sqrt(2.0 / (j + 1)) * x * cur - math.sqrt(j / (j + 1)) * prev
    return prev, cur


@lru_cache(maxsize=64)
def phi_rule(n: int) -> QuadratureRule:
    """The oracle's cached azimuthal rule on [0, 2*pi]."""
    return gauss_legendre(n, 0.0, TWO_PI)


@lru_cache(maxsize=64)
def theta_rule(n: int) -> QuadratureRule:
    """The oracle's cached polar rule on [0, pi]; sin(theta) stays in integrands."""
    return gauss_legendre(n, 0.0, math.pi)


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
    out = theta_lm_grid(l, (m,), arr)[0]
    return float(out) if arr.ndim == 0 else out


def theta_lm_grid(l: int, ms, theta: np.ndarray) -> np.ndarray:
    """Rows theta_lm, one per m of ``ms``, on an array of any shape; no domain checks."""
    return polar_rows(_kernels.legendre_grid(l, np.cos(np.asarray(theta, dtype=np.float64))), ms)


def waves(ms, phi: np.ndarray) -> np.ndarray:
    """Rows exp(i*m*phi)/sqrt(2*pi), one per m of ``ms``, on an array of any shape.

    Each order |m| is computed once: a negative order's wave is the
    conjugate of its positive one.
    """
    orders = sorted({abs(m) for m in ms})
    position = {order: row for row, order in enumerate(orders)}
    angles = np.multiply.outer(np.array(orders, dtype=np.float64), phi)
    out = (np.exp(1j * angles) / math.sqrt(TWO_PI))[[position[abs(m)] for m in ms]]
    negative = [m < 0 for m in ms]
    out[negative] = np.conj(out[negative])
    return out


def polar_rows(table, ms) -> np.ndarray:
    """Rows theta_lm, one per m of ``ms``, from a table of rows theta_l,|m|, |m| = 0..l.

    Negative orders follow theta_l,-m = (-1)**m * theta_lm; the result is a fresh array.
    """
    out = table[[abs(m) for m in ms]]
    odd_negative = [m < 0 and m % 2 == 1 for m in ms]
    out[odd_negative] = -out[odd_negative]
    return out


@lru_cache(maxsize=2 * (MAX_ORBITAL_L + 1))
def polar_table(l: int, n: int) -> np.ndarray:
    """Read-only rows theta_l,|m|, |m| = 0..l, at the nodes of ``gauss_legendre(n, 0, pi)``.

    That is the rule ``theta_rule(n)`` caches. One recurrence serves every
    order, and each row holds the same bits as that order's recurrence
    alone. The cache holds one table per (l, rule): every l <= 64 on both
    the analytic and the oracle polar rule is about 4.6 MB.
    """
    nodes = gauss_legendre(n, 0.0, math.pi).nodes
    out = _kernels.legendre_grid(l, np.cos(nodes))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=512)
def theta_overlap_matrix(l: int, power: int) -> np.ndarray:
    """Matrix of int theta_lm * theta^power * theta_lm' * sin(theta) dtheta.

    Indexed by (m, m') offsets with m = -l..l; power = 0 gives the plain
    overlap of polar factors. The integrand, sin(theta) explicit, is a
    trigonometric polynomial of degree 2l + 1 times theta^power, so a rule of
    2l + 32 nodes sized from l alone gives every entry to round-off: no
    setting enters the analytic route. Every power reads the same
    ``polar_table``. The result is read-only.
    """
    if l < 0 or l > MAX_ORBITAL_L:
        raise ValueError(f"theta_overlap_matrix supports 0 <= l <= {MAX_ORBITAL_L}, got {l}")
    size = 2 * l + 32
    rule = gauss_legendre(size, 0.0, math.pi)
    th = rule.nodes
    big = polar_rows(polar_table(l, size), range(-l, l + 1))
    weighted = big * (rule.weights * np.sin(th) * th**power)
    # einsum, not `weighted @ big.T`: a BLAS gemm's summation order follows its
    # thread count and kernel, and with it the last bits of every spherical report
    out = np.einsum("it,jt->ij", weighted, big)
    out.flags.writeable = False
    return out
