"""Angular observables: exact matrix elements and boundary-term diagnostics.

Multiplicative observables are carried as finite symbol sums
``coeff * theta^a * phi^p * exp(i*j*phi)``, exact matrices on each
family's basis (``basis_of``). In the exp(i*m*phi)/sqrt(2*pi) basis they
close over azimuthal Fourier moments of phi^p, which obey an exact
integration-by-parts recurrence. The phi factor of element (m, m') depends
only on the offset m' - m, so each term's matrix is Toeplitz: every
distinct offset's moment is computed once and indexed out. On the fixed-l
spherical basis each term factorizes into a polar overlap integral times
the rotor element, so no 2-D quadrature enters the analytic path. On the
pendulum's oscillator basis phi and Lz/hbar are ladder matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math
from typing import ClassVar

import numpy as np

from . import engine, numerics
from . import states as st
from .numerics import TWO_PI

#: highest order r, s of a centered moment ((A - <A>)^r Psi, (B - <B>)^s Psi)
MAX_CORRELATION_ORDER = 6

_KIND_NAMES = ("Lz", "Phi", "PhiSquared", "SinPhi", "CosPhi", "Theta", "ThetaPhi", "Chi")


@dataclass(frozen=True)
class ObservableKind:
    """One of the supported angular observables; Chi carries its winding N."""

    name: str
    winding: int = 0

    def __post_init__(self):
        if self.name not in _KIND_NAMES:
            raise ValueError(f"unknown observable kind {self.name!r}")
        if self.winding and self.name != "Chi":
            raise ValueError("only Chi carries a winding number")
        try:
            offset = TWO_PI * self.winding
        except OverflowError:
            offset = math.inf
        if not math.isfinite(offset):
            raise ValueError("Chi's winding N is too large: 2*pi*N is not a finite float")

    def __str__(self):
        return f"Chi({self.winding})" if self.name == "Chi" else self.name


LZ = ObservableKind("Lz")
PHI = ObservableKind("Phi")
PHI_SQUARED = ObservableKind("PhiSquared")
SIN_PHI = ObservableKind("SinPhi")
COS_PHI = ObservableKind("CosPhi")
THETA = ObservableKind("Theta")
THETA_PHI = ObservableKind("ThetaPhi")


def chi(n: int) -> ObservableKind:
    """The unwound angle chi = phi + 2*pi*N."""
    return ObservableKind("Chi", int(n))


_PENDULUM_KINDS = ("Lz", "Phi", "PhiSquared")
_SPHERICAL_ONLY = ("Theta", "ThetaPhi")


def applicable(kind: ObservableKind, family: str) -> bool:
    if family == "pendulum":
        return kind.name in _PENDULUM_KINDS
    if kind.name in _SPHERICAL_ONLY:
        return family == "spherical"
    return family in ("circular", "rotor", "spherical")


def check_applicable(kind: ObservableKind, state) -> str:
    fam = st.family_of(state)
    if not applicable(kind, fam):
        raise ValueError(f"observable {kind} is not defined on the {fam} family")
    return fam


class Symbol:
    """Finite sum of coeff * theta^a * phi^p * exp(i*j*phi) terms.

    Keys are (a, j, p) triples. The algebra is closed under products,
    integer powers and d/dphi, which is all the moment machinery needs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: complex(v) for k, v in terms.items() if v != 0}

    @classmethod
    def constant(cls, value) -> "Symbol":
        return cls({(0, 0, 0): value})

    def __add__(self, other):
        if not isinstance(other, Symbol):
            other = Symbol.constant(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return Symbol(out)

    def __sub__(self, other):
        if not isinstance(other, Symbol):
            other = Symbol.constant(other)
        return self + (other * -1.0)

    def __mul__(self, other):
        if not isinstance(other, Symbol):
            return Symbol({k: v * other for k, v in self.terms.items()})
        out = {}
        for (a1, j1, p1), v1 in self.terms.items():
            for (a2, j2, p2), v2 in other.terms.items():
                k = (a1 + a2, j1 + j2, p1 + p2)
                out[k] = out.get(k, 0.0) + v1 * v2
        return Symbol(out)

    __rmul__ = __mul__

    def __pow__(self, r: int):
        out = Symbol.constant(1.0)
        for _ in range(r):
            out = out * self
        return out

    def phi_derivative(self) -> "Symbol":
        out = {}
        for (a, j, p), v in self.terms.items():
            if p:
                k = (a, j, p - 1)
                out[k] = out.get(k, 0.0) + v * p
            if j:
                k = (a, j, p)
                out[k] = out.get(k, 0.0) + v * 1j * j
        return Symbol(out)

    def boundary_jump(self) -> dict:
        """Per theta-power totals of term(2*pi) - term(0) along phi."""
        out = {}
        for (a, j, p), v in self.terms.items():
            if p:
                out[a] = out.get(a, 0.0) + v * TWO_PI**p
        return out

    def evaluate(self, theta, phi):
        """Pointwise values; theta is None for the plain periodic families."""
        total = 0.0
        for (a, j, p), v in self.terms.items():
            term = v * phi**p if p else v * np.ones_like(phi, dtype=np.complex128)
            if j:
                term = term * np.exp(1j * j * phi)
            if a:
                if theta is None:
                    raise ValueError("theta-dependent symbol on a circle-only grid")
                term = term * theta**a
            total = total + term
        return total


def kind_symbol(kind: ObservableKind) -> Symbol:
    """The symbol of a multiplicative observable (everything but Lz)."""
    if kind.name == "Phi":
        return Symbol({(0, 0, 1): 1.0})
    if kind.name == "PhiSquared":
        return Symbol({(0, 0, 2): 1.0})
    if kind.name == "SinPhi":
        return Symbol({(0, 1, 0): -0.5j, (0, -1, 0): 0.5j})
    if kind.name == "CosPhi":
        return Symbol({(0, 1, 0): 0.5, (0, -1, 0): 0.5})
    if kind.name == "Theta":
        return Symbol({(1, 0, 0): 1.0})
    if kind.name == "ThetaPhi":
        return Symbol({(1, 0, 1): 1.0})
    if kind.name == "Chi":
        return Symbol({(0, 0, 1): 1.0, (0, 0, 0): TWO_PI * kind.winding})
    raise ValueError(f"{kind} is not multiplicative")


@lru_cache(maxsize=4096)
def phi_fourier_moment(k: int, p: int) -> complex:
    """(1/2*pi) * int_0^2pi phi^p exp(i*k*phi) dphi, exact by recurrence."""
    if k == 0:
        return TWO_PI**p / (p + 1)
    t = 0.0 + 0.0j
    for q in range(1, p + 1):
        t = TWO_PI ** (q - 1) / (1j * k) - (q / (1j * k)) * t
    return t


def _offset_index(ms):
    """Offsets k and an index with ks[index[i, j]] = ms[j] - ms[i].

    The offsets run over -span..span when the basis has as many pairs as
    offsets, else over the pairs themselves (a few widely spaced rotor
    modes), so each distinct offset's value is computed once.
    """
    ms = np.asarray(ms, dtype=np.int64)
    offsets = np.subtract.outer(ms, ms).T
    span = int(ms.max() - ms.min())
    if 2 * span + 1 <= offsets.size:
        return range(-span, span + 1), offsets + span
    return offsets.ravel().tolist(), np.arange(offsets.size).reshape(offsets.shape)


def _offset_moments(ms, j: int, p: int) -> np.ndarray:
    """Matrix of phi_fourier_moment(m' - m + j, p) over (m, m') in ms x ms."""
    ks, index = _offset_index(ms)
    return np.array([phi_fourier_moment(k + j, p) for k in ks])[index]


@dataclass(frozen=True)
class RotorBasis:
    """Fourier basis exp(i*m*phi)/sqrt(2*pi) over an explicit index tuple."""

    ms: tuple

    @property
    def family(self) -> str:
        return "rotor"


@dataclass(frozen=True)
class SphericalBasis:
    """Spherical harmonics Y_lm at fixed l, m = -l..l."""

    l: int

    @property
    def ms(self) -> tuple:
        return tuple(range(-self.l, self.l + 1))

    @property
    def family(self) -> str:
        return "spherical"


@dataclass(frozen=True)
class OscillatorBasis:
    """Number states |0>..|size - 1> of a pendulum of width ``scale`` = sqrt(I*omega/hbar).

    A centered moment expands into powers up to phi^(4*MAX_CORRELATION_ORDER),
    and <n|phi^p|n> sums over walks that climb p/2 levels above n, so
    ``size`` keeps it exact for every n <= MAX_HERMITE_DEGREE.
    """

    scale: float
    size: ClassVar[int] = numerics.MAX_HERMITE_DEGREE + 2 * MAX_CORRELATION_ORDER + 1


@dataclass(frozen=True)
class MatrixElementTable:
    """Dense matrix of <basis_i| A |basis_j> with its provenance."""

    basis: object
    kind: ObservableKind
    matrix: np.ndarray
    provenance: str

    def element(self, mi: int, mj: int) -> complex:
        ms = self.basis.ms
        return complex(self.matrix[ms.index(mi), ms.index(mj)])


def basis_of(state) -> RotorBasis | SphericalBasis | OscillatorBasis:
    """The basis of the state's coefficient vector; equal bases share every matrix."""
    fam = st.family_of(state)
    if fam in ("circular", "rotor"):
        return RotorBasis(st.basis_ms(state))
    if fam == "spherical":
        return SphericalBasis(state.l)
    return OscillatorBasis(state.scale)


def symbol_matrix(sym: Symbol, basis) -> np.ndarray:
    """Exact-in-phi matrix of a multiplicative symbol on a basis.

    On the oscillator basis phi^p is X^p, X = (a + a^dagger)/(sqrt(2)*scale).
    """
    if isinstance(basis, OscillatorBasis):
        if any(a or j for (a, j, _) in sym.terms):
            raise ValueError("only polynomials in phi act on the oscillator basis")
        lower = _lowering(basis)
        x = (lower + lower.T) / (math.sqrt(2.0) * basis.scale)
        out = np.zeros((basis.size, basis.size), dtype=np.complex128)
        for (_, _, p), v in sym.terms.items():
            out = out + v * np.linalg.matrix_power(x, p)
        return out
    ms = basis.ms
    n = len(ms)
    out = np.zeros((n, n), dtype=np.complex128)
    spherical = isinstance(basis, SphericalBasis)
    if not spherical and not all(a == 0 for (a, _, _) in sym.terms):
        raise ValueError("theta-dependent symbol on a non-spherical basis")
    for (a, j, p), v in sym.terms.items():
        theta_fac = numerics.theta_overlap_matrix(basis.l, a) if spherical else 1.0
        out = out + v * theta_fac * _offset_moments(ms, j, p)
    return out


def apply_to_rows(mat: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Row p of the result is mat @ coeffs[p], for a P x n coefficient matrix.

    Each row is summed in an order that no other row affects (a BLAS
    product blocks its sums by the row count), so a state's moments do not
    depend on which states share its stack.
    """
    return np.einsum("ij,pj->pi", mat, coeffs)


def lz_diagonal(basis, hbar: float) -> np.ndarray:
    return hbar * np.array(basis.ms, dtype=np.float64)


def lz_ladder(basis: OscillatorBasis) -> np.ndarray:
    """Lz/hbar on the oscillator basis: scale*i*(a^dagger - a)/sqrt(2)."""
    lower = _lowering(basis)
    return 1j * (basis.scale / math.sqrt(2.0)) * (lower.T - lower)


def _lowering(basis: OscillatorBasis) -> np.ndarray:
    """The lowering operator a on the oscillator basis."""
    return np.diag(np.sqrt(np.arange(1.0, basis.size)), 1)


def matrix_table(
    kind: ObservableKind,
    basis,
    *,
    hbar: float = 1.0,
    method: str = "analytic",
    settings: engine.EngineSettings | None = None,
) -> MatrixElementTable:
    """Build the full table for one kind; ``method='quadrature'`` is the oracle.

    Analytic provenance means closed-form azimuthal elements; spherical
    tables other than Lz fold in the 1-D polar overlap integrals and are
    flagged as quadrature-backed. Only the quadrature route reads
    ``settings``.
    """
    if isinstance(basis, OscillatorBasis):
        raise ValueError("pendulum moments come from MomentStack, not matrix tables")
    if not applicable(kind, basis.family):
        raise ValueError(f"observable {kind} is not defined on the {basis.family} basis")
    if method == "analytic":
        if kind.name == "Lz":
            mat = np.diag(lz_diagonal(basis, hbar)).astype(np.complex128)
            prov = "analytic"
        else:
            mat = symbol_matrix(kind_symbol(kind), basis)
            prov = "quadrature" if isinstance(basis, SphericalBasis) else "analytic"
        return MatrixElementTable(basis, kind, mat, prov)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    matrix = _quadrature_matrix(kind, basis, hbar, engine.resolve(settings))
    return MatrixElementTable(basis, kind, matrix, "quadrature")


def _quadrature_matrix(kind, basis, hbar, settings):
    """<basis_i| A |basis_j> as a sum-factorized quadrature of the sampled A.

    A is sampled on the polar tables of ``engine.polar_tables`` times the
    phi rule, as on the oracle grid of the basis's states. The phi sums
    come first: F_k(theta) = (1/2*pi) sum_phi w * A * exp(i*k*phi) for every
    offset k = m_j - m_i. Element (i, j) is then the polar sum of
    theta_i * theta_j * F_{m_j - m_i} * w * sin(theta). Every number is still
    a weighted sum of sampled values, independent of the closed-form moments.
    """
    ms = basis.ms
    prule = numerics.phi_rule(settings.phi_nodes)
    l = basis.l if isinstance(basis, SphericalBasis) else None
    polar, polar_weights, theta = engine.polar_tables(ms, l, settings)
    # Lz: integrand 1, then column j scaled by the eigenvalue hbar*m_j
    sym = Symbol.constant(1.0) if kind.name == "Lz" else kind_symbol(kind)
    integrand = np.broadcast_to(
        sym.evaluate(theta, prule.nodes), (polar_weights.size, prule.nodes.size)
    )
    ks, index = _offset_index(ms)
    waves = np.exp(1j * np.multiply.outer(prule.nodes, ks)) * (prule.weights / TWO_PI)[:, None]
    by_offset = integrand @ waves
    left = polar * polar_weights
    out = np.array([(polar * by_offset[:, row].T) @ w for row, w in zip(index, left)])
    if kind.name == "Lz":
        out = out * (hbar * np.array(ms, dtype=np.float64))
    return out


def matrix_element(
    kind: ObservableKind,
    basis,
    i: int,
    j: int,
    *,
    hbar: float = 1.0,
    method: str = "analytic",
    settings: engine.EngineSettings | None = None,
) -> complex:
    """<basis_i| A |basis_j> with i, j given as m values of the basis."""
    table = matrix_table(kind, basis, hbar=hbar, method=method, settings=settings)
    return table.element(i, j)


def lz_phi_symmetry_deficit(
    state,
    *,
    method: str = "analytic",
    settings: engine.EngineSettings | None = None,
) -> complex:
    """(Lz Psi, phi Psi) - (Psi, Lz phi Psi), the condition gate for the pair.

    Closed forms per family: i*hbar for a single circular mode,
    i*hbar*|sum_m c_m|^2 for rotor superpositions, the double-sum closed
    form over polar overlaps for spherical states, and exactly 0 for the
    pendulum (nothing survives at the line's infinities).
    """
    if method == "quadrature":
        return _deficit_quadrature(LZ, PHI, state, engine.resolve(settings))
    if method != "analytic":
        raise ValueError(f"unknown method {method!r}")
    fam = st.family_of(state)
    if fam == "circular":
        return 1j * state.hbar
    if fam == "rotor":
        total = sum(c for _, c in state.coefficients)
        return 1j * state.hbar * abs(total) ** 2
    if fam == "pendulum":
        return 0.0 + 0.0j
    basis = SphericalBasis(state.l)
    c = st.coeff_vector(state)
    gam = numerics.theta_overlap_matrix(state.l, 0)
    phi_el = _offset_moments(basis.ms, 0, 1)
    ms = np.array(basis.ms, dtype=np.float64)
    double_sum = np.einsum("i,j,i,ij,ij->", np.conj(c), c, ms, gam, phi_el)
    return 1j * state.hbar * (1.0 + 2.0 * float(np.imag(double_sum)))


def symmetry_deficit(
    a: ObservableKind,
    b: ObservableKind,
    state,
    *,
    method: str = "analytic",
    settings: engine.EngineSettings | None = None,
) -> complex:
    """(A Psi, B Psi) - (Psi, A B Psi) for any applicable ordered pair.

    Nonzero only when A is Lz and B carries a phi power whose boundary
    values at 0 and 2*pi differ; multiplicative A never contributes, and
    the pendulum family has no boundary at all.
    """
    check_applicable(a, state)
    check_applicable(b, state)
    if method == "quadrature":
        return _deficit_quadrature(a, b, state, engine.resolve(settings))
    if method != "analytic":
        raise ValueError(f"unknown method {method!r}")
    c = st.coeff_vector(state)[None, :]
    return complex(symmetry_deficits(a, b, basis_of(state), c, state.hbar)[0])


def symmetry_deficits(a, b, basis, coeffs, hbar) -> np.ndarray:
    """``symmetry_deficit(a, b)`` for each row of a P x n coefficient matrix.

    The rows are states on one basis; ``hbar`` is a scalar or one value
    per row. The deficit is i*hbar/(2*pi) times the boundary jump of B
    weighted by the state's density along phi = 0: |sum_m c_m|^2 on a rotor
    basis, and the polar-overlap form (c, T_a c) per theta power a of the
    jump on a spherical basis. B is real and each T_a is real and symmetric,
    so the jump and each form are real, and every deficit's real part is an
    exact +0.0. The pendulum's line has no boundary, so on the oscillator
    basis every deficit is zero.
    """
    out = np.zeros(len(coeffs), dtype=np.complex128)
    if a.name != "Lz" or b.name == "Lz" or isinstance(basis, OscillatorBasis):
        return out
    jump = kind_symbol(b).boundary_jump()
    if not jump:
        return out
    if isinstance(basis, SphericalBasis):
        total = sum(
            coeff.real * np.einsum(
                "pi,pi->p",
                np.conj(coeffs),
                apply_to_rows(numerics.theta_overlap_matrix(basis.l, a_pow), coeffs),
            ).real
            for a_pow, coeff in jump.items()
        )
    else:
        total = jump[0].real * np.abs(coeffs.sum(axis=1)) ** 2
    # set the imaginary part alone: 1j * x would give the real part -0.0 for x < 0
    out.imag = hbar * total / TWO_PI
    return out


def _deficit_quadrature(a, b, state, settings) -> complex:
    """Oracle twin of symmetry_deficit: both inner products on the grid.

    Lz acts through the grid's exact derivative (per-mode factors on the
    periodic families, the Hermite series on the pendulum) and Lz B Psi
    through the product rule; the only numerics is the final weighted sum,
    so no integration by parts is ever performed.
    """
    grid = engine.state_grid(state, settings)
    hbar = state.hbar
    psi = grid.psi
    lz_psi = grid.lz_pow(1)
    if a.name == "Lz" and b.name == "Lz":
        return grid.inner(lz_psi, lz_psi) - grid.inner(psi, grid.lz_pow(2))
    if a.name == "Lz":
        sym = kind_symbol(b)
        b_vals = grid.symbol_values(sym)
        deriv_vals = grid.symbol_values(sym.phi_derivative())
        first = grid.inner(lz_psi, b_vals * psi)
        second = grid.inner(psi, -1j * hbar * deriv_vals * psi + b_vals * lz_psi)
        return first - second
    a_vals = grid.symbol_values(kind_symbol(a))
    if b.name == "Lz":
        return grid.inner(a_vals * psi, lz_psi) - grid.inner(psi, a_vals * lz_psi)
    b_vals = grid.symbol_values(kind_symbol(b))
    return grid.inner(a_vals * psi, b_vals * psi) - grid.inner(psi, a_vals * b_vals * psi)
