import numpy as np
import pytest

from lzphi import _kernels

from . import oracles


@pytest.fixture(scope="module")
def grids():
    rng = np.random.default_rng(42)
    return {
        "xi": rng.uniform(-6.0, 6.0, 257),
        "phi": rng.uniform(0.0, 2 * np.pi, 257),
    }


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 64])
def test_hermite_grid_matches_hermval(grids, n):
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    want = np.polynomial.hermite.hermval(grids["xi"], coeffs)
    got = _kernels.hermite_grid(n, grids["xi"])
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_fourier_sum_matches_direct_sum(grids):
    rng = np.random.default_rng(7)
    ms = np.array([-4, -1, 0, 2, 5], dtype=np.int64)
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    want = sum(c * np.exp(1j * m * grids["phi"]) for m, c in zip(ms, coeffs))
    got = _kernels.fourier_sum(ms, coeffs, grids["phi"])
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("l", [0, 1, 2, 9, 33, 64])
def test_legendre_grid_rows_match_one_order_at_a_time(l):
    """One recurrence over every order gives each row bit for bit as that order's recurrence alone."""
    theta = np.linspace(0.01, np.pi - 0.01, 41)
    table = _kernels.legendre_grid(l, np.cos(theta))
    assert table.shape == (l + 1, theta.size)
    for m in range(l + 1):
        assert np.array_equal(table[m], oracles.theta_part(l, m, theta)), m


@pytest.mark.parametrize("l", [0, 1, 5, 20, 64])
def test_legendre_grid_is_orthonormal(l):
    """Each row of the all-orders table is normalized and orthogonal to its order at degree l - 1."""
    x, w = np.polynomial.legendre.leggauss(l + 2)
    table = _kernels.legendre_grid(l, x)
    assert np.max(np.abs(table**2 @ w - 1.0)) < 1e-12
    if l:
        below = _kernels.legendre_grid(l - 1, x)
        assert np.max(np.abs((table[:l] * below) @ w)) < 1e-12
    want = np.polynomial.legendre.legval(x, [0.0] * l + [1.0]) * np.sqrt((2 * l + 1) / 2.0)
    assert np.max(np.abs(table[0] - want)) < 1e-12


def test_hermite_rows_are_hermite_grid_bit_for_bit(grids):
    """Row k of the one recurrence is H_k, and the rows stop at H_n."""
    top = 70
    rows = list(_kernels.hermite_rows(top, grids["xi"]))
    assert len(rows) == top + 1
    for k, row in enumerate(rows):
        assert np.array_equal(row, _kernels.hermite_grid(k, grids["xi"])), k
    assert len(list(_kernels.hermite_rows(0, grids["xi"]))) == 1
