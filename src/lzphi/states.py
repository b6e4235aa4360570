"""The four rotational state families, with exact normalization metadata.

All states are immutable value objects. ``hbar`` (and, where relevant,
``inertia`` / ``omega``) live on the state so mixed-unit sweeps work;
the dimensionless default is hbar = 1. Each state checks them on
construction: they, hbar**2 and the pendulum's widths must be finite and
positive, and every coefficient must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import cmath
import math
from typing import Mapping, Union

import numpy as np

from . import numerics
from .numerics import TWO_PI

#: |sum |c|^2 - 1| beyond this is rejected unless normalize=True rescales
NORM_INPUT_TOL = 1e-6

#: the largest accepted |m| of the periodic families: m is exact as a
#: float, and every offset m' - m of a basis fits in int64
MAX_ABS_M = 2**52


@dataclass(frozen=True)
class CircularState:
    """Single angular-momentum eigenstate exp(i*m*phi)/sqrt(2*pi) on [0, 2*pi]."""

    m: int
    hbar: float = 1.0

    def __post_init__(self):
        _require_bounded_m(self.m)
        _require_finite_positive(hbar=self.hbar)


@dataclass(frozen=True)
class RotorSuperposition:
    """Finite superposition sum_m c_m exp(i*m*phi)/sqrt(2*pi) on [0, 2*pi].

    ``coefficients`` maps integer m to a complex amplitude. Input whose
    squared amplitudes do not sum to 1 within NORM_INPUT_TOL is rejected
    unless ``normalize=True``, in which case the whole vector is rescaled.
    """

    coefficients: tuple
    hbar: float = 1.0
    normalize: bool = field(default=False, compare=False)

    def __init__(self, coefficients, hbar: float = 1.0, normalize: bool = False):
        if isinstance(coefficients, Mapping):
            items = coefficients.items()
        else:
            items = coefficients
        pairs = sorted((int(m), complex(c)) for m, c in items)
        if not pairs:
            raise ValueError("rotor superposition needs at least one coefficient")
        if len({m for m, _ in pairs}) != len(pairs):
            raise ValueError("duplicate m in rotor coefficients")
        for m, _ in pairs:
            _require_bounded_m(m)
        pairs = _normalized_pairs(pairs, normalize)
        object.__setattr__(self, "coefficients", tuple(pairs))
        object.__setattr__(self, "hbar", float(hbar))
        object.__setattr__(self, "normalize", bool(normalize))
        _require_finite_positive(hbar=self.hbar)

    @property
    def coeff_map(self) -> dict:
        return dict(self.coefficients)


@dataclass(frozen=True)
class SphericalState:
    """Fixed-l superposition sum_m c_m Y_lm(theta, phi), m = -l..l."""

    l: int
    coefficients: tuple
    hbar: float = 1.0
    inertia: float = 1.0
    normalize: bool = field(default=False, compare=False)

    def __init__(self, l, coefficients, hbar=1.0, inertia=1.0, normalize=False):
        l = int(l)
        if l < 0 or l > numerics.MAX_ORBITAL_L:
            raise ValueError(f"l must be in 0..{numerics.MAX_ORBITAL_L}")
        if isinstance(coefficients, Mapping):
            for m in coefficients:
                if abs(int(m)) > l:
                    raise ValueError(f"coefficient index |m|={abs(int(m))} exceeds l={l}")
            vec = [complex(coefficients.get(m, 0.0)) for m in range(-l, l + 1)]
        else:
            vec = [complex(c) for c in coefficients]
            if len(vec) != 2 * l + 1:
                raise ValueError(f"spherical state needs 2l+1={2 * l + 1} coefficients, got {len(vec)}")
        pairs = _normalized_pairs(list(zip(range(-l, l + 1), vec)), normalize)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "coefficients", tuple(c for _, c in pairs))
        object.__setattr__(self, "hbar", float(hbar))
        object.__setattr__(self, "inertia", float(inertia))
        object.__setattr__(self, "normalize", bool(normalize))
        _require_finite_positive(hbar=self.hbar, inertia=self.inertia)


@dataclass(frozen=True)
class PendulumState:
    """Angular harmonic oscillator number eigenstate on phi in (-inf, inf).

    The wave function is N_n exp(-xi^2/2) H_n(xi) with xi = phi*sqrt(I*omega/hbar).
    """

    n: int
    inertia: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.n < 0 or self.n > numerics.MAX_HERMITE_DEGREE:
            raise ValueError(f"n must be in 0..{numerics.MAX_HERMITE_DEGREE}")
        _require_finite_positive(inertia=self.inertia, omega=self.omega, hbar=self.hbar)
        # the widths scale as hbar/(I*omega) and hbar*I*omega, the grids as
        # I*omega/hbar; none of them may overflow or vanish
        stiffness = self.inertia * self.omega
        if not 0 < stiffness < math.inf or not all(
            0 < x < math.inf
            for x in (stiffness / self.hbar, stiffness * self.hbar, self.hbar / stiffness)
        ):
            raise ValueError(
                f"inertia={self.inertia!r}, omega={self.omega!r} and hbar={self.hbar!r} "
                "give the state widths that are not finite and nonzero"
            )

    @property
    def scale(self) -> float:
        """sqrt(I*omega/hbar): converts phi to the dimensionless coordinate."""
        return math.sqrt(self.inertia * self.omega / self.hbar)

    @property
    def amplitude(self) -> float:
        """Normalization constant N_n of the position-space wave function."""
        return (self.scale**2 / math.pi) ** 0.25 / math.sqrt(2.0**self.n * math.factorial(self.n))


State = Union[CircularState, RotorSuperposition, SphericalState, PendulumState]

_FAMILIES = {
    CircularState: "circular",
    RotorSuperposition: "rotor",
    SphericalState: "spherical",
    PendulumState: "pendulum",
}


def _require_bounded_m(m):
    if abs(m) > MAX_ABS_M:
        raise ValueError(f"|m| must be at most 2**52, got m={m}")


def _require_finite_positive(**values):
    """Each value must be finite and > 0, and so must hbar**2, which the bounds use."""
    if "hbar" in values:
        values["hbar**2"] = values["hbar"] * values["hbar"]
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _normalized_pairs(pairs, normalize):
    if not all(cmath.isfinite(c) for _, c in pairs):
        raise ValueError("coefficients must be finite")
    total = sum(abs(c) ** 2 for _, c in pairs)
    if normalize:
        if total == 0:
            raise ValueError("cannot normalize an all-zero coefficient vector")
        if abs(total - 1.0) <= 1e-12:  # already normalized; keep rescaling idempotent
            return pairs
        root = math.sqrt(total)
        return [(m, c / root) for m, c in pairs]
    if abs(total - 1.0) > NORM_INPUT_TOL:
        raise ValueError(
            f"squared amplitudes sum to {total!r}, not 1; pass normalize=True to rescale"
        )
    return pairs


def family_of(state: State) -> str:
    """One of 'circular', 'rotor', 'spherical', 'pendulum'."""
    try:
        return _FAMILIES[type(state)]
    except KeyError:
        raise TypeError(f"not a state: {state!r}") from None


def basis_ms(state: State) -> tuple:
    """Angular-momentum indices spanned by the state's basis expansion."""
    fam = family_of(state)
    if fam == "circular":
        return (state.m,)
    if fam == "rotor":
        return tuple(m for m, _ in state.coefficients)
    if fam == "spherical":
        return tuple(range(-state.l, state.l + 1))
    raise ValueError("pendulum states have no azimuthal Fourier basis")


def middle_m(ms) -> int:
    """The basis's middle m, m0 = (min + max) // 2; 0 on a sphere.

    Both routes hold Lz as hbar*(m - m0) and sample exp(i*(m - m0)*phi), so
    an m near the parser's bound 2^52 costs no digits.
    """
    return (min(ms) + max(ms)) // 2


def coeff_vector(state: State) -> np.ndarray:
    """Complex amplitudes aligned with basis_ms(state), or over the number states |0>..|n> of a pendulum."""
    fam = family_of(state)
    if fam == "circular":
        return np.array([1.0 + 0.0j])
    if fam == "rotor":
        return np.array([c for _, c in state.coefficients])
    if fam == "spherical":
        return np.array(state.coefficients)
    return np.eye(state.n + 1, dtype=np.complex128)[state.n]


def wavefunction(state: State, point):
    """Complex amplitude at a point of the family's domain.

    ``point`` is phi for circular/rotor/pendulum states and a
    (theta, phi) pair for spherical states. Points outside the domain
    (phi in [0, 2*pi], theta in [0, pi]; pendulum phi unrestricted)
    are rejected. Arrays broadcast.
    """
    fam = family_of(state)
    if fam == "spherical":
        theta, phi = point
        theta = np.asarray(theta, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        _check_range(theta, 0.0, math.pi, "theta")
        _check_range(phi, 0.0, TWO_PI, "phi")
        tl, ph = numerics.basis_on_grid(basis_ms(state), state.l, theta, phi)
        out = np.einsum("m,m...,m...->...", coeff_vector(state), tl, ph)
        return complex(out) if out.ndim == 0 else out

    phi = np.asarray(point, dtype=np.float64)
    if fam == "pendulum":
        xi = phi * state.scale
        vals = state.amplitude * np.exp(-(xi**2) / 2.0) * numerics.hermite_poly(state.n, xi)
        out = np.asarray(vals, dtype=np.complex128)
    else:
        _check_range(phi, 0.0, TWO_PI, "phi")
        _, ph = numerics.basis_on_grid(basis_ms(state), None, None, phi)
        out = np.tensordot(coeff_vector(state), ph, axes=1)
    return complex(out) if phi.ndim == 0 else out


def norm(state: State) -> float:
    """(Psi, Psi)^(1/2) computed on the family's oracle grid."""
    from . import engine

    grid = engine.state_grid(state)
    return math.sqrt(abs(grid.inner(grid.psi, grid.psi)))


def energy(state: State):
    """Closed-form energy, or None for families with no unique energy here.

    Pendulum: hbar*omega*(n + 1/2). Spherical: hbar^2*l*(l+1)/(2*I).
    """
    if isinstance(state, PendulumState):
        return state.hbar * state.omega * (state.n + 0.5)
    if isinstance(state, SphericalState):
        return state.hbar**2 * state.l * (state.l + 1) / (2.0 * state.inertia)
    return None


def _check_range(arr, lo, hi, name):
    if np.any(arr < lo - 1e-12) or np.any(arr > hi + 1e-12):
        raise ValueError(f"{name} outside [{lo}, {hi}]")
