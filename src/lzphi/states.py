"""The four rotational state families, with exact normalization metadata.

Each state class is its family's record: ``family`` names it, ``kinds``
lists the ``ObservableKind`` names it takes, ``l`` is its polar degree
(None on the circle), and its fields, in order, are its spec line's keys.
``FAMILIES`` maps each name to its class.

All states are immutable value objects. ``hbar`` (and, where relevant,
``inertia`` / ``omega``) live on the state so mixed-unit sweeps work;
the dimensionless default is hbar = 1. Each state checks them on
construction: they, hbar**2 and the pendulum's widths must be finite and
positive, every coefficient must be finite, and each quantum number (m, n,
l, a coefficient's m) must be a finite integer; it is stored as an int.
``expansion`` is the one reader of a periodic state's (m, amplitude) pairs,
from which every route takes its moments; a pendulum has none.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
import cmath
import math
import numbers
import operator
from typing import ClassVar, Union

import numpy as np

from . import numerics
from .numerics import TWO_PI

#: |sum |c|^2 - 1| beyond this is rejected unless normalize=True rescales
NORM_INPUT_TOL = 1e-6

#: the largest accepted |m| of the periodic families: m is exact as a
#: float, and every offset m' - m of a basis fits in int64
MAX_ABS_M = 2**52

#: the kinds of a periodic family: every kind but the polar ones
_PERIODIC_KINDS = ("Lz", "Phi", "PhiSquared", "SinPhi", "CosPhi", "Chi")


@dataclass(frozen=True)
class CircularState:
    """Single angular-momentum eigenstate exp(i*m*phi)/sqrt(2*pi) on [0, 2*pi]."""

    family: ClassVar[str] = "circular"
    kinds: ClassVar[tuple] = _PERIODIC_KINDS
    l: ClassVar[None] = None

    m: int
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "m"))
        _require_bounded_m(self.m)
        _require_finite_positive(("hbar",), self.hbar)


@dataclass(frozen=True)
class RotorSuperposition:
    """Finite superposition sum_m c_m exp(i*m*phi)/sqrt(2*pi) on [0, 2*pi].

    ``coefficients`` holds the (m, c) pairs, sorted by m. Input whose
    squared amplitudes do not sum to 1 within NORM_INPUT_TOL is rejected
    unless ``normalize=True``, in which case the whole vector is rescaled.
    """

    family: ClassVar[str] = "rotor"
    kinds: ClassVar[tuple] = _PERIODIC_KINDS
    l: ClassVar[None] = None

    coefficients: tuple
    hbar: float = 1.0

    def __init__(self, coefficients, hbar: float = 1.0, normalize: bool = False):
        if isinstance(coefficients, Mapping):
            items = coefficients.items()
        else:
            items = coefficients
        # sorted on m alone, so a repeated m reaches the duplicate check
        pairs = sorted(((_integer(m, "m"), complex(c)) for m, c in items), key=lambda mc: mc[0])
        if not pairs:
            raise ValueError("rotor superposition needs at least one coefficient")
        if len({m for m, _ in pairs}) != len(pairs):
            raise ValueError("duplicate m in rotor coefficients")
        for m, _ in pairs:
            _require_bounded_m(m)
        values = _normalized([c for _, c in pairs], normalize)
        object.__setattr__(self, "coefficients", tuple(zip([m for m, _ in pairs], values)))
        object.__setattr__(self, "hbar", float(hbar))
        _require_finite_positive(("hbar",), self.hbar)


@dataclass(frozen=True)
class SphericalState:
    """Fixed-l superposition sum_m c_m Y_lm(theta, phi), m = -l..l."""

    family: ClassVar[str] = "spherical"
    kinds: ClassVar[tuple] = _PERIODIC_KINDS + ("Theta", "ThetaPhi")

    l: int
    coefficients: tuple
    hbar: float = 1.0
    inertia: float = 1.0

    def __init__(self, l, coefficients, hbar=1.0, inertia=1.0, normalize=False):
        l = require_degree(_integer(l, "l"))
        if isinstance(coefficients, Mapping):
            by_m = {_integer(m, "m"): c for m, c in coefficients.items()}
            if len(by_m) != len(coefficients):
                raise ValueError("duplicate m in spherical coefficients")
            for m in by_m:
                if abs(m) > l:
                    raise ValueError(f"coefficient index |m|={abs(m)} exceeds l={l}")
            vec = [complex(by_m.get(m, 0.0)) for m in range(-l, l + 1)]
        else:
            vec = [complex(c) for c in coefficients]
            if len(vec) != 2 * l + 1:
                raise ValueError(f"spherical state needs 2l+1={2 * l + 1} coefficients, got {len(vec)}")
        vec = _normalized(vec, normalize)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "coefficients", tuple(vec))
        object.__setattr__(self, "hbar", float(hbar))
        object.__setattr__(self, "inertia", float(inertia))
        _require_finite_positive(("hbar", "inertia"), self.hbar, self.inertia)


@dataclass(frozen=True)
class PendulumState:
    """Angular harmonic oscillator number eigenstate on phi in (-inf, inf).

    The wave function is N_n exp(-xi^2/2) H_n(xi) with xi = phi*sqrt(I*omega/hbar).
    """

    family: ClassVar[str] = "pendulum"
    kinds: ClassVar[tuple] = ("Lz", "Phi", "PhiSquared")

    n: int
    inertia: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 0 or self.n > numerics.MAX_HERMITE_DEGREE:
            raise ValueError(f"n must be in 0..{numerics.MAX_HERMITE_DEGREE}")
        _require_finite_positive(("inertia", "omega", "hbar"), self.inertia, self.omega, self.hbar)
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

#: each family's name to its class
FAMILIES = {cls.family: cls for cls in (CircularState, RotorSuperposition, SphericalState, PendulumState)}


def _integer(value, name: str) -> int:
    """``value`` as an int: an integral number, a float with an integer value or an integer string.

    Anything else, a non-finite float included, is a ValueError naming ``name``.
    """
    if type(value) is int:
        return value
    try:
        return operator.index(value)
    except TypeError:
        pass
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, numbers.Real) and math.isfinite(value) and value == math.floor(value):
        return int(value)
    raise ValueError(f"{name} must be a finite integer, got {value!r}")


def require_degree(l: int) -> int:
    """``l`` if it is a spherical degree in 0..MAX_ORBITAL_L, else ValueError."""
    if l < 0 or l > numerics.MAX_ORBITAL_L:
        raise ValueError(f"l must be in 0..{numerics.MAX_ORBITAL_L}")
    return l


def _require_bounded_m(m):
    if abs(m) > MAX_ABS_M:
        raise ValueError(f"|m| must be at most 2**52, got m={m}")


def _require_finite_positive(names: tuple, *values) -> None:
    """Each value must be finite and > 0, and so must hbar**2, which the bounds use.

    ``names`` names ``values`` in order; one of them is hbar.
    """
    hbar = values[names.index("hbar")]
    for name, value in zip((*names, "hbar**2"), (*values, hbar * hbar)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _normalized(coeffs: list, normalize: bool) -> list:
    """The complex ``coeffs``, checked finite and of unit norm, or rescaled to it if ``normalize``."""
    if not all(map(cmath.isfinite, coeffs)):
        raise ValueError("coefficients must be finite")
    try:
        total = sum([abs(c) ** 2 for c in coeffs])
    except OverflowError:  # abs or ** of a finite amplitude above about 1.3e154
        total = math.inf
    if normalize:
        if not math.isfinite(total) or (total == 0 and any(coeffs)):
            # |c|^2 overflows or underflows: divide by the largest component first
            scale = max(max(abs(c.real), abs(c.imag)) for c in coeffs)
            return _normalized([c / scale for c in coeffs], True)
        if total == 0:
            raise ValueError("cannot normalize an all-zero coefficient vector")
        if abs(total - 1.0) <= 1e-12:  # already normalized; keep rescaling idempotent
            return coeffs
        root = math.sqrt(total)
        return [c / root for c in coeffs]
    if abs(total - 1.0) > NORM_INPUT_TOL:
        raise ValueError(
            f"squared amplitudes sum to {total!r}, not 1; pass normalize=True to rescale"
        )
    return coeffs


def family_of(state: State) -> str:
    """One of 'circular', 'rotor', 'spherical', 'pendulum'."""
    if FAMILIES.get(getattr(state, "family", None)) is not type(state):
        raise TypeError(f"not a state: {state!r}")
    return state.family


def expansion(state: State) -> tuple:
    """(ms, amplitudes): two tuples, each basis function's m and its complex amplitude.

    No array is built: a reader that needs one builds it, with dtype
    complex128. A pendulum has no expansion.
    """
    fam = family_of(state)
    if fam == "circular":
        return (state.m,), (1 + 0j,)
    if fam == "rotor":
        return tuple(zip(*state.coefficients))
    if fam == "spherical":
        return tuple(range(-state.l, state.l + 1)), state.coefficients
    raise ValueError("pendulum states have no azimuthal Fourier basis")


def middle_m(ms) -> int:
    """The basis's middle m, m0 = (min + max) // 2; 0 on a sphere.

    Both routes hold Lz as hbar*(m - m0) and sample exp(i*(m - m0)*phi), so
    an m near the parser's bound 2^52 costs no digits.
    """
    return (min(ms) + max(ms)) // 2


def wavefunction(state: State, point):
    """Complex amplitude at a point of the family's domain.

    ``point`` is phi for circular/rotor/pendulum states and a
    (theta, phi) pair for spherical states. Points outside the domain
    (phi in [0, 2*pi], theta in [0, pi]; pendulum phi any finite float)
    are rejected. Arrays broadcast. A pendulum's amplitude is formed as
    exp(-xi^2/4) * H_n * exp(-xi^2/4) * N_n, so no factor underflows while
    the amplitude is a normal double. Past |xi| = 43, where it is below the
    smallest subnormal for every n <= 64, it is 0 and H_n (it overflows) is not formed.
    """
    fam = family_of(state)
    if fam == "spherical":
        theta, phi = point
        theta = np.asarray(theta, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        _check_range(theta, 0.0, math.pi, "theta")
        _check_range(phi, 0.0, TWO_PI, "phi")
        ms, amps = expansion(state)
        tl, ph = numerics.theta_lm_grid(state.l, ms, theta), numerics.waves(ms, phi)
        out = np.einsum("m,m...,m...->...", amps, tl, ph)
        return complex(out) if out.ndim == 0 else out

    phi = np.asarray(point, dtype=np.float64)
    if fam == "pendulum":
        _check_range(phi, -math.inf, math.inf, "phi")
        far = np.abs(phi) > 43.0 / state.scale
        xi = np.where(far, 0.0, phi) * state.scale
        half = np.exp(-(xi**2) / 4.0)
        vals = half * numerics.hermite_poly(state.n, xi) * half * state.amplitude
        out = np.where(far, 0.0, vals).astype(np.complex128)
    else:
        _check_range(phi, 0.0, TWO_PI, "phi")
        # waves about the middle m0, times the common phase exp(i*m0*phi) last, as on the
        # oracle grids, so an m near 2^52 costs |psi| no digits
        ms, amps = expansion(state)
        m0 = middle_m(ms)
        ph = numerics.waves([m - m0 for m in ms], phi)
        out = np.tensordot(amps, ph, axes=1) * np.exp(1j * (float(m0) * phi))
    return complex(out) if phi.ndim == 0 else out


def norm(state: State) -> float:
    """(Psi, Psi)^(1/2) computed on the family's oracle grid."""
    from . import engine

    grid = engine.oracle_grid(state)
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
    if not np.all(np.isfinite(arr) & (arr >= lo - 1e-12) & (arr <= hi + 1e-12)):
        raise ValueError(f"{name} must be finite and in [{lo}, {hi}]")
