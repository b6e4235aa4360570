"""Fourier-side representation: periodic coefficients, line transform, Parseval.

Periodic families expand over exp(i*m*phi)/sqrt(2*pi); spherical states
keep theta-dependent coefficients that factor as c_m times the polar
part; the pendulum uses the full line transform against its Gaussian
envelope.

The pendulum's momentum rule is held in units of the state's scale,
k = scale*t, so the angle k*u/scale = t*u carries no scale. Its nodes and
weights, the folded Hermite sum F_n(t) on them, <t^2> and the Parseval
residual therefore depend on n alone: ``_k_table(n)`` builds them once
per n (read-only, like the cached rules of ``numerics``), and a state
only scales them. All are quadratures of sampled values, never a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from . import engine, numerics
from . import moments as mo
from . import observables as obs
from . import states as st
from .numerics import TWO_PI


@dataclass(frozen=True)
class FourierCoefficients:
    """m-indexed coefficients; for a spherical state, the c_m factors.

    For periodic families ``values[k]`` is b_m for m = ms[k], and ``l`` is
    None. For a spherical state the coefficients depend on theta,
    b_m(theta) = c_m * theta_lm(l, m, theta): ``l`` is set, and ``values``
    holds the c_m factors.
    """

    ms: tuple
    values: tuple
    l: int | None = None


def coefficients(state, *, method: str = "analytic") -> FourierCoefficients:
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
    ms, amps = st.expansion(state)
    if method == "analytic":
        return FourierCoefficients(ms, amps, l=l)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    grid = engine.state_grid(state)
    bm = grid.azimuthal_coefficients(grid.psi)
    vals = np.einsum("t,mt,tm->m", grid.polar_weights, grid.polar, bm)
    return FourierCoefficients(ms, tuple(complex(v) for v in vals), l=l)


def parseval_check(state) -> float:
    """|coefficient-side norm - position-side norm|, both sides independent.

    Circular, rotor and spherical: the polar sum of sum_m |b_m(theta)|^2,
    with b_m(theta) from direct azimuthal integration at each polar node of
    the state's grid, against the grid norm of psi (a circle has one polar
    node of weight 1). Pendulum: the k-integral of the numerically
    transformed |psi~|^2 against the Gauss-Hermite position norm, one
    number per n (see _k_table).
    """
    if st.family_of(state) != "pendulum":
        grid = engine.state_grid(state)
        position = float(np.real(grid.inner(grid.psi, grid.psi)))
        bm = grid.azimuthal_coefficients(grid.psi)
        return abs(float(grid.polar_weights @ np.sum(np.abs(bm) ** 2, axis=1)) - position)
    return _k_table(state.n)[4]


def _rule_nodes(n: int) -> int:
    """Node count of both line-transform rules of the pendulum with number n.

    96 + 4n rounded up to a multiple of 32: 96..352 for n <= 64, within the
    largest Hermite rule. The count is even, so each symmetric rule splits
    into exact halves with no node at 0, and the rounding keeps the number
    of distinct (cached) rules small.
    """
    return -(-(96 + 4 * n) // 32) * 32


def _reach(n: int) -> float:
    """sqrt(2n + 1) + 8: the momentum rule's half-width in units of the state's scale."""
    return math.sqrt(2.0 * n + 1.0) + 8.0


def _folded(n: int, t) -> np.ndarray:
    """F_n(t) = sum_j w_j H_n(u_j) cos(t*u_j) (sin for odd n), u_j = sqrt(2)*xi_j.

    The sum runs over the positive nodes xi_j of the Hermite rule of
    _rule_nodes(n) nodes: the rule is symmetric and H_n has the parity of
    n, so the full sum is twice this one. ``t`` is k/scale, so F_n depends
    on n alone.
    """
    rule = numerics.hermite_rule(_rule_nodes(n))
    half = rule.nodes.size // 2
    u = math.sqrt(2.0) * rule.nodes[half:]
    weighted = rule.weights[half:] * numerics.hermite_poly(n, u)
    angles = np.multiply.outer(t, u)
    return (np.cos(angles) if n % 2 == 0 else np.sin(angles)) @ weighted


@lru_cache(maxsize=numerics.MAX_HERMITE_DEGREE + 1)
def _k_table(n: int) -> tuple:
    """(t, w, F_n(t)) read-only, <t^2> and the Parseval residual of the pendulum with number n.

    (t, w) is the nonnegative half of the symmetric Legendre rule of
    _rule_nodes(n) nodes over t in +-_reach(n), with doubled weights, so it
    integrates a function even in t, such as F_n(t)^2, exactly as the full
    rule does. The momentum rule of a state is k = scale*t with weights
    scale*w, so the scale cancels from every angle k*u/scale = t*u. <t^2> is
    (sum w t^2 F_n^2)/(sum w F_n^2); F_n^2 is even, so <t> = 0. Parseval
    compares s * prefactor^2 * sum w F_n^2 with (A^2/s) * sum w H_n(xi)^2 on
    the Hermite rule of _folded, and both factors are the same at every s.
    """
    size, reach = _rule_nodes(n), _reach(n)
    full = numerics.gauss_legendre(size, -reach, reach)
    half = size // 2
    t, w = full.nodes[half:], 2.0 * full.weights[half:]
    folded = _folded(n, t)
    for arr in (t, w, folded):
        arr.flags.writeable = False
    rule, unit = numerics.hermite_rule(size), st.PendulumState(n=n)
    herm = numerics.hermite_poly(n, rule.nodes)
    momentum = float(w @ (folded * folded))
    position = unit.amplitude**2 * float(rule.weights @ (herm * herm))
    spread = float(w @ (t * t * folded * folded)) / momentum
    return t, w, folded, spread, abs(_prefactor(unit) ** 2 * momentum - position)


def _prefactor(state) -> float:
    """psi~(k) = prefactor * F_n(k/scale), times -i for odd n."""
    return 2.0 * state.amplitude * math.sqrt(2.0) / (state.scale * math.sqrt(TWO_PI))


def line_transform(state, k):
    """psi~(k) = (2*pi)**-0.5 int psi(phi) exp(-i*k*phi) dphi (pendulum only).

    Evaluated by Gauss-Hermite quadrature on _rule_nodes(n) nodes with the
    Gaussian envelope fully absorbed into the weight, so the remaining
    factor is entire and the sum converges spectrally in the node count.
    The rule is symmetric and H_n has the parity of n, so the sum folds onto
    the positive nodes (see _folded): 2 * sum w h cos(...) for even n and
    -2i * sum w h sin(...) for odd n. Hence psi~(-k) = (-1)**n * psi~(k)
    exactly. The rule resolves |k| <= scale*(sqrt(2n + 1) + 8), the reach
    of the momentum rule; a k past it, or not finite, is a ValueError.
    """
    if st.family_of(state) != "pendulum":
        raise ValueError("line_transform is defined for pendulum states")
    s = state.scale
    reach = s * _reach(state.n)
    k_arr = np.asarray(k, dtype=np.float64)
    if not np.all(np.abs(k_arr) <= reach):
        raise ValueError(
            f"line_transform needs finite |k| <= scale*(sqrt(2n+1) + 8) = {reach!r} for n={state.n}"
        )
    vals = _prefactor(state) * _folded(state.n, np.atleast_1d(k_arr) / s)
    vals = vals.astype(np.complex128) if state.n % 2 == 0 else -1j * vals
    return complex(vals[0]) if k_arr.ndim == 0 else vals.reshape(k_arr.shape)


def width_product(state, *, method: str = "analytic") -> float:
    """Variance product <(k - <k>)^2> * <(phi - <phi>)^2> for the pendulum.

    Analytic path uses the ladder-relation moments (equals (n + 1/2)^2);
    the quadrature path integrates |psi~|^2 on the momentum rule of _k_table
    and |psi|^2 on the pendulum's width-free oracle grid.
    """
    if st.family_of(state) != "pendulum":
        raise ValueError("width_product is defined for pendulum states")
    if method == "analytic":
        stack = mo.MomentStack((state,))
        var_phi = float(stack.std(obs.PHI)[0]) ** 2
        var_k = (float(stack.std(obs.LZ)[0]) / state.hbar) ** 2
        return var_k * var_phi
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    # <k^2> = scale^2 <t^2> with k = scale*t; scale*std(phi) is in range at every width
    wide_phi = state.scale * mo.std_dev(obs.PHI, state, method="quadrature")
    return _k_table(state.n)[3] * wide_phi * wide_phi
