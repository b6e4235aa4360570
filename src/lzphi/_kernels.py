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


def legendre_grid(l: int, m: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal associated-Legendre factor (Condon-Shortley), m >= 0.

    Returns values normalized so that the square integrates to 1 over
    x in [-1, 1]; the degree recurrence runs per grid point.
    """
    fact = 1.0
    for i in range(1, 2 * m + 1):
        if i % 2:
            fact *= i
        fact /= math.sqrt(i)
    pmm = ((-1.0) ** m) * fact * (1.0 - x * x) ** (m / 2.0)
    if l == m:
        return math.sqrt((2 * l + 1) / 2.0) * pmm
    pm1 = x * math.sqrt(2.0 * m + 1.0) * pmm
    if l == m + 1:
        return math.sqrt((2 * l + 1) / 2.0) * pm1
    for ll in range(m + 2, l + 1):
        pll = (x * (2 * ll - 1) * pm1 - math.sqrt((ll - 1) ** 2 - m * m) * pmm) / math.sqrt(
            ll * ll - m * m
        )
        pmm, pm1 = pm1, pll
    return math.sqrt((2 * l + 1) / 2.0) * pm1


def hermite_grid(n: int, xi: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_n on a grid, three-term recurrence."""
    h0 = np.ones_like(xi)
    if n == 0:
        return h0
    h1 = 2.0 * xi
    for k in range(1, n):
        h0, h1 = h1, 2.0 * xi * h1 - 2.0 * k * h0
    return h1


def fourier_sum(ms: np.ndarray, coeffs: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * exp(i * ms[k] * phi) on a grid."""
    return np.exp(1j * np.outer(phi, ms.astype(np.float64))) @ coeffs
