import numpy as np
import pytest

from lzphi import _kernels


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
