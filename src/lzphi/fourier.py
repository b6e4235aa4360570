"""Fourier-side representation: periodic coefficients, line transform, Parseval.

Periodic families expand over exp(i*m*phi)/sqrt(2*pi); spherical states
keep theta-dependent coefficients that factor as c_m times the polar
part; the pendulum uses the full line transform against its Gaussian
envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import engine, numerics
from . import moments as mo
from . import observables as obs
from . import states as st
from .numerics import TWO_PI


@dataclass(frozen=True)
class FourierCoefficients:
    """m-indexed coefficients; spherical states carry the factored form.

    For periodic families ``values[k]`` is b_m for m = ms[k]. For
    spherical states the coefficients are theta-dependent,
    b_m(theta) = c_m * theta_lm(l, m, theta); ``values`` then holds the
    c_m factors and ``at_theta`` evaluates the full functions.
    """

    ms: tuple
    values: tuple
    l: int | None = None

    @property
    def factored(self) -> bool:
        return self.l is not None

    def at_theta(self, theta) -> np.ndarray:
        if not self.factored:
            raise ValueError("only spherical coefficients are theta-dependent")
        return np.array(
            [c * numerics.theta_lm(self.l, m, theta) for m, c in zip(self.ms, self.values)]
        )

    def reconstruct(self, phi) -> np.ndarray:
        """Sum b_m exp(i*m*phi)/sqrt(2*pi) back on the circle (periodic only)."""
        if self.factored:
            raise ValueError("reconstruct applies to plain periodic coefficients")
        _, ph = numerics.basis_on_grid(self.ms, None, None, phi)
        return np.tensordot(np.array(self.values), ph, axes=1)


def coefficients(state, *, method: str = "analytic", settings=None) -> FourierCoefficients:
    """Fourier coefficients b_m = (2*pi)**-0.5 int psi exp(-i*m*phi) dphi.

    The analytic path returns the stored expansion coefficients exactly;
    the quadrature path is the oracle: it integrates the sampled state on
    its grid, along phi at each polar node and then against the polar
    factor theta_lm (a circle's one polar node has factor 1), over the same
    index support. Pendulum states have a continuous transform instead;
    see line_transform.
    """
    fam = st.family_of(state)
    if fam == "pendulum":
        raise ValueError("pendulum states have a line transform, not Fourier coefficients")
    l = state.l if fam == "spherical" else None
    if method == "analytic":
        return FourierCoefficients(st.basis_ms(state), tuple(st.coeff_vector(state)), l=l)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    grid = engine.state_grid(state, settings)
    bm = grid.azimuthal_coefficients(grid.psi)
    vals = np.einsum("t,mt,tm->m", grid.polar_weights, grid.polar, bm)
    return FourierCoefficients(st.basis_ms(state), tuple(complex(v) for v in vals), l=l)


def parseval_check(state, *, settings=None) -> float:
    """|coefficient-side norm - position-side norm|, both sides independent.

    Circular, rotor and spherical: the polar sum of sum_m |b_m(theta)|^2,
    with b_m(theta) from direct azimuthal integration at each polar node of
    the state's grid, against the grid norm of psi (a circle has one polar
    node of weight 1). Pendulum: the k-integral of the numerically
    transformed |psi~|^2 against the Gauss-Hermite position norm, both on
    rules sized from n alone, so this branch reads no settings.
    """
    if st.family_of(state) != "pendulum":
        grid = engine.state_grid(state, settings)
        position = float(np.real(grid.inner(grid.psi, grid.psi)))
        bm = grid.azimuthal_coefficients(grid.psi)
        return abs(float(grid.polar_weights @ np.sum(np.abs(bm) ** 2, axis=1)) - position)
    # pendulum: int |psi|^2 dphi = (A^2/s) int exp(-xi^2) H_n(xi)^2 dxi, exact on the rule
    rule = numerics.hermite_rule(_rule_nodes(state.n))
    herm = numerics.hermite_poly(state.n, rule.nodes)
    position = state.amplitude**2 / state.scale * float(rule.weights @ (herm * herm))
    krule = _k_rule(state)
    momentum = float(krule.integrate(np.abs(line_transform(state, krule.nodes)) ** 2))
    return abs(momentum - position)


def _rule_nodes(n: int) -> int:
    """Node count of both line-transform rules of the pendulum with number n.

    96 + 4n rounded up to a multiple of 32: 96..352 for n <= 64, within the
    largest Hermite rule. The count is even, so each symmetric rule splits
    into exact halves with no node at 0, and the rounding keeps the number
    of distinct (cached) rules small.
    """
    return -(-(96 + 4 * n) // 32) * 32


def _k_rule(state) -> numerics.QuadratureRule:
    """Nonnegative half of a Legendre rule over k in +-scale*(sqrt(2n+1) + 8).

    The full rule is symmetric with _rule_nodes(n) nodes; the half keeps
    its k > 0 nodes with doubled weights, so it integrates a function even
    in k, such as |psi~(k)|^2, exactly as the full rule does.
    """
    spread = state.scale * (math.sqrt(2.0 * state.n + 1.0) + 8.0)
    full = numerics.gauss_legendre(_rule_nodes(state.n), -spread, spread)
    half = full.nodes.size // 2
    return numerics.QuadratureRule(
        full.nodes[half:], 2.0 * full.weights[half:], f"legendre[0,{spread!r}] doubled"
    )


def line_transform(state, k):
    """psi~(k) = (2*pi)**-0.5 int psi(phi) exp(-i*k*phi) dphi (pendulum only).

    Evaluated by Gauss-Hermite quadrature on _rule_nodes(n) nodes with the
    Gaussian envelope fully absorbed into the weight, so the remaining
    factor is entire and the sum converges spectrally in the node count.
    The rule is symmetric and H_n has the parity of n, so the sum folds onto
    the positive nodes: 2 * sum w h cos(...) for even n and -2i * sum w h
    sin(...) for odd n. Hence psi~(-k) = (-1)**n * psi~(k) exactly.
    """
    if st.family_of(state) != "pendulum":
        raise ValueError("line_transform is defined for pendulum states")
    rule = numerics.hermite_rule(_rule_nodes(state.n))
    half = rule.nodes.size // 2
    u = math.sqrt(2.0) * rule.nodes[half:]
    s = state.scale
    weighted = rule.weights[half:] * numerics.hermite_poly(state.n, u)
    k_arr = np.asarray(k, dtype=np.float64)
    angles = np.multiply.outer(np.atleast_1d(k_arr), u / s)
    prefactor = 2.0 * state.amplitude * math.sqrt(2.0) / (s * math.sqrt(TWO_PI))
    if state.n % 2 == 0:
        vals = (prefactor * (np.cos(angles) @ weighted)).astype(np.complex128)
    else:
        vals = -1j * (prefactor * (np.sin(angles) @ weighted))
    return complex(vals[0]) if k_arr.ndim == 0 else vals.reshape(k_arr.shape)


def width_product(state, *, method: str = "analytic", settings=None) -> float:
    """Variance product <(k - <k>)^2> * <(phi - <phi>)^2> for the pendulum.

    Analytic path uses the ladder-relation moments (equals (n + 1/2)^2);
    the quadrature path integrates |psi~|^2 on the k rule of _k_rule and
    |psi|^2 on the oracle grid of the settings.
    """
    if st.family_of(state) != "pendulum":
        raise ValueError("width_product is defined for pendulum states")
    settings = engine.resolve(settings)
    if method == "analytic":
        var_phi = mo.std_dev(obs.PHI, state, settings=settings) ** 2
        var_k = (mo.std_dev(obs.LZ, state, settings=settings) / state.hbar) ** 2
        return var_k * var_phi
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    var_phi = mo.std_dev(obs.PHI, state, method="quadrature", settings=settings) ** 2
    krule = _k_rule(state)
    density = np.abs(line_transform(state, krule.nodes)) ** 2
    # the density is even in k, so <k> = 0 and no mean is subtracted
    var_k = float(krule.integrate(krule.nodes**2 * density)) / float(krule.integrate(density))
    return var_k * var_phi
