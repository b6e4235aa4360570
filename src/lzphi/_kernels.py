"""Grid kernels for the hot inner loops.

Every quadrature oracle in the package reduces to evaluating basis
functions on quadrature grids: normalized associated-Legendre recurrences,
Hermite recurrences, and Fourier sums. The recurrences run elementwise in
numpy, so the grids may have any shape.
"""

from __future__ import annotations

import math

import numpy as np

#: numba is not used; the constant stays for provenance records that read it
USING_NUMBA = False


def legendre_grid(l: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal associated-Legendre factors (Condon-Shortley) of degree l, every order 0..l.

    Row m holds order m on the grid x, normalized so that its square
    integrates to 1 over x in [-1, 1]. One degree recurrence runs for all
    orders at once: row m joins it at degree m + 2, and each step applies
    to each row the same operations a recurrence for that order alone would.
    """
    x = np.asarray(x, dtype=np.float64)
    # (2m-1)!!/sqrt((2m)!) for every m up to l, by one running product
    facts, fact = [1.0], 1.0
    for i in range(1, 2 * l + 1):
        if i % 2:
            fact *= i
        fact /= math.sqrt(i)
        if i % 2 == 0:
            facts.append(fact)
    base = 1.0 - x * x
    pmm = np.stack([((-1.0) ** m) * facts[m] * base ** (m / 2.0) for m in range(l + 1)])
    m_col = np.arange(l + 1, dtype=np.float64).reshape((-1,) + (1,) * x.ndim)
    pm1 = x * np.sqrt(2.0 * m_col + 1.0) * pmm
    m2 = m_col * m_col
    for ll in range(2, l + 1):
        k = ll - 1  # the rows m <= ll - 2, whose recurrence has begun
        pll = (x * (2 * ll - 1) * pm1[:k] - np.sqrt((ll - 1) ** 2 - m2[:k]) * pmm[:k]) / np.sqrt(
            ll * ll - m2[:k]
        )
        pmm[:k], pm1[:k] = pm1[:k], pll
    pm1[-1] = pmm[-1]
    return math.sqrt((2 * l + 1) / 2.0) * pm1


def hermite_rows(n: int, xi: np.ndarray):
    """Physicists' Hermite polynomials H_0..H_n on a grid, yielded by the three-term recurrence."""
    h0 = np.ones_like(xi)
    yield h0
    if n == 0:
        return
    h1 = 2.0 * xi
    yield h1
    for k in range(1, n):
        h0, h1 = h1, 2.0 * xi * h1 - 2.0 * k * h0
        yield h1


def hermite_grid(n: int, xi: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_n on a grid: the last of ``hermite_rows(n, xi)``."""
    for row in hermite_rows(n, xi):
        pass
    return row


def fourier_sum(ms: np.ndarray, coeffs: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * exp(i * ms[k] * phi) on a grid."""
    return np.exp(1j * np.outer(phi, ms.astype(np.float64))) @ coeffs
