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
    the quadrature path integrates on the azimuthal rule over the same
    index support and serves as the oracle. Pendulum states have a
    continuous transform instead; see line_transform.
    """
    fam = st.family_of(state)
    if fam == "pendulum":
        raise ValueError("pendulum states have a line transform, not Fourier coefficients")
    ms = st.basis_ms(state)
    if fam == "spherical":
        return FourierCoefficients(ms, tuple(st.coeff_vector(state)), l=state.l)
    if method == "analytic":
        return FourierCoefficients(ms, tuple(st.coeff_vector(state)))
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    settings = engine.resolve(settings)
    rule = numerics.phi_rule(settings.phi_nodes)
    psi = st.wavefunction(state, rule.nodes)
    _, ph = numerics.basis_on_grid(ms, None, None, rule.nodes)
    vals = np.conj(ph) @ (rule.weights * psi)
    return FourierCoefficients(ms, tuple(complex(v) for v in vals))


def parseval_check(state, *, settings=None) -> float:
    """|coefficient-side norm - position-side norm|, both sides independent.

    Periodic: sum |b_m|^2 (quadrature coefficients) against the grid norm
    of psi. Spherical: sum_m of the polar integrals of |b_m(theta)|^2,
    with b_m(theta) from direct azimuthal integration at the polar nodes.
    Pendulum: the k-integral of the numerically transformed |psi~|^2
    against the Gauss-Hermite position norm.
    """
    settings = engine.resolve(settings)
    fam = st.family_of(state)
    if fam in ("circular", "rotor"):
        rule = numerics.phi_rule(settings.phi_nodes)
        psi = st.wavefunction(state, rule.nodes)
        position = float(np.real(rule.integrate(np.abs(psi) ** 2)))
        coeffs = coefficients(state, method="quadrature", settings=settings)
        return abs(sum(abs(v) ** 2 for v in coeffs.values) - position)
    if fam == "spherical":
        trule = numerics.theta_rule(settings.theta_nodes)
        prule = numerics.phi_rule(settings.phi_nodes)
        tl, ph = numerics.basis_on_grid(st.basis_ms(state), state.l, trule.nodes, prule.nodes)
        psi = (st.coeff_vector(state)[:, None] * tl).T @ ph
        polar_weights = trule.weights * np.sin(trule.nodes)
        position = float(polar_weights @ np.abs(psi) ** 2 @ prule.weights)
        # b_m(theta) by direct azimuthal integration at each polar node
        bm = psi @ (np.conj(ph) * prule.weights).T
        side = float(np.sum(polar_weights @ np.abs(bm) ** 2))
        return abs(side - position)
    # pendulum: compare int |psi~(k)|^2 dk with the position norm
    grid = engine.state_grid(state, settings)
    position = float(np.real(grid.inner(grid.psi, grid.psi)))
    krule = _k_rule(state, settings)
    transformed = line_transform(state, krule.nodes, settings=settings)
    momentum = float(np.real(krule.integrate(np.abs(transformed) ** 2)))
    return abs(momentum - position)


def _k_rule(state, settings) -> numerics.QuadratureRule:
    """Legendre rule over k in +-scale*(sqrt(2n+1) + 8) for the pendulum's psi~.

    4 * hermite_nodes nodes, at least 512 and at most the largest count a
    Legendre rule builds, so every accepted hermite_nodes works.
    """
    spread = state.scale * (math.sqrt(2.0 * state.n + 1.0) + 8.0)
    nodes = min(numerics.MAX_LEGENDRE_NODES, max(512, 4 * settings.hermite_nodes))
    return numerics.gauss_legendre(nodes, -spread, spread)


def line_transform(state, k, *, settings=None):
    """psi~(k) = (2*pi)**-0.5 int psi(phi) exp(-i*k*phi) dphi (pendulum only).

    Evaluated by Gauss-Hermite quadrature with the Gaussian envelope fully
    absorbed into the weight, so the remaining factor is entire and the
    sum converges spectrally in the node count.
    """
    if st.family_of(state) != "pendulum":
        raise ValueError("line_transform is defined for pendulum states")
    settings = engine.resolve(settings)
    rule = numerics.hermite_rule(settings.hermite_nodes)
    u = rule.nodes
    s = state.scale
    herm = numerics.hermite_poly(state.n, math.sqrt(2.0) * u)
    k_arr = np.asarray(k, dtype=np.float64)
    phase = np.exp(-1j * np.multiply.outer(np.atleast_1d(k_arr), math.sqrt(2.0) * u / s))
    vals = (
        state.amplitude
        * math.sqrt(2.0)
        / (s * math.sqrt(TWO_PI))
        * (phase * (rule.weights * herm)[None, :]).sum(axis=1)
    )
    return complex(vals[0]) if k_arr.ndim == 0 else vals.reshape(k_arr.shape)


def width_product(state, *, method: str = "analytic", settings=None) -> float:
    """Variance product <(k - <k>)^2> * <(phi - <phi>)^2> for the pendulum.

    Analytic path uses the ladder-relation moments (equals (n + 1/2)^2);
    the quadrature path integrates |psi~|^2 and |psi|^2 directly.
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
    krule = _k_rule(state, settings)
    density = np.abs(line_transform(state, krule.nodes, settings=settings)) ** 2
    total = float(krule.integrate(density))
    mean_k = float(krule.integrate(krule.nodes * density)) / total
    var_k = float(krule.integrate((krule.nodes - mean_k) ** 2 * density)) / total
    return var_k * var_phi
