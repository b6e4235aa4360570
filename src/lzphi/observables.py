"""Angular observables: exact matrix elements and boundary-term diagnostics.

Multiplicative observables are carried as finite symbol sums
``coeff * theta^a * phi^p * exp(i*j*phi)``, exact matrices on each
family's basis (``basis_of``). The kinds a family takes are its state
class's ``kinds`` (``applicable``). In the exp(i*m*phi)/sqrt(2*pi) basis they
close over azimuthal Fourier moments of phi^p, which obey an exact
integration-by-parts recurrence. The phi factor of element (m, m') depends
only on the offset m' - m, so each term's matrix is Toeplitz: every
distinct offset's moment is computed once and indexed out. On the fixed-l
spherical basis each term factorizes into a polar overlap integral times
the rotor element, so no 2-D quadrature enters the analytic path. None
of these matrices depends on the state, so each is built once per basis
and kept read-only (``cached_symbol_matrix``, within SYMBOL_CACHE_BYTES).
On the pendulum's oscillator basis there are no matrices: phi and Lz/hbar act
on each number-state row as two-term ladder steps, level k of the result
reading levels k - 1 and k + 1 with weights sqrt(k) (``x_steps``,
``lz_step``).

Every boundary term is one number per state, its seam density
2*pi*|psi|^2 along phi = 0 = 2*pi: the symmetry deficits are i*hbar
times a boundary jump weighted by it, and the R15/R52 boundary term and
R58's gamma sum read it too. Both are rows of a ``moments.MomentStack``
(``seam``, ``deficit``); the analytic ``symmetry_deficit`` is the
one-row case, and its oracle is the grid's (``engine._Grid.deficit``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
import math
import threading
from typing import ClassVar

import numpy as np

from . import engine, numerics
from . import states as st
from .numerics import TWO_PI

MAX_CORRELATION_ORDER = numerics.MAX_CORRELATION_ORDER

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


def unwound(kind: ObservableKind) -> ObservableKind:
    """Phi for Chi = phi + 2*pi*N, whose centered powers are Phi's; else ``kind``."""
    return PHI if kind.name == "Chi" else kind


def applicable(kind: ObservableKind, family: str) -> bool:
    return kind.name in st.FAMILIES[family].kinds


def check_applicable(kind: ObservableKind, state) -> str:
    fam = st.family_of(state)
    if not applicable(kind, fam):
        raise ValueError(f"observable {kind} is not defined on the {fam} family")
    return fam


class Symbol:
    """Finite sum of coeff * theta^a * phi^p * exp(i*j*phi) terms.

    ``terms`` is the sorted tuple of ((a, j, p), coeff) pairs. The algebra
    is closed under products, integer powers and d/dphi, which is all the
    moment machinery needs. A tuple cannot be written, so ``kind_symbol``
    and ``product_symbol`` share their symbols process-wide; sorted, equal
    symbols sum in one order, and ``terms`` names the symbol in
    ``cached_symbol_matrix`` and every ``MomentStack`` memo.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(sorted((k, complex(v)) for k, v in terms.items() if v != 0))

    @classmethod
    def constant(cls, value) -> "Symbol":
        return cls({(0, 0, 0): value})

    def __mul__(self, other):
        if not isinstance(other, Symbol):
            return Symbol({k: v * other for k, v in self.terms})
        out = {}
        for (a1, j1, p1), v1 in self.terms:
            for (a2, j2, p2), v2 in other.terms:
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
        for (a, j, p), v in self.terms:
            if p:
                k = (a, j, p - 1)
                out[k] = out.get(k, 0.0) + v * p
            if j:
                k = (a, j, p)
                out[k] = out.get(k, 0.0) + v * 1j * j
        return Symbol(out)

    def boundary_jump(self) -> dict:
        """Per theta-power totals of term(2*pi) - term(0) along phi, in units of 2*pi."""
        out = {}
        for (a, j, p), v in self.terms:
            if p:
                out[a] = out.get(a, 0.0) + v * TWO_PI ** (p - 1)
        return out

    def evaluate(self, theta, phi):
        """Pointwise values; theta is None for the plain periodic families."""
        total = 0.0
        for (a, j, p), v in self.terms:
            term = v * phi**p if p else v * np.ones_like(phi, dtype=np.complex128)
            if j:
                term = term * np.exp(1j * j * phi)
            if a:
                if theta is None:
                    raise ValueError("theta-dependent symbol on a circle-only grid")
                term = term * theta**a
            total = total + term
        return total


@lru_cache(maxsize=1024)
def kind_symbol(kind: ObservableKind) -> Symbol:
    """The symbol of a multiplicative observable (everything but Lz), built once per process."""
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


@lru_cache(maxsize=1024)
def product_symbol(a: ObservableKind, i: int, b: ObservableKind, k: int) -> Symbol:
    """kind_symbol(a)**i * kind_symbol(b)**k, built once per process."""
    return kind_symbol(a) ** i * kind_symbol(b) ** k


@lru_cache(maxsize=4096)
def phi_fourier_moment(k: int, p: int) -> complex:
    """(1/2*pi) * int_0^2pi phi^p exp(i*k*phi) dphi, exact by recurrence.

    By parts, t_q = ((2*pi)^(q-1) - q*t_(q-1))/(i*k). Run forward, each step
    scales an error by q/(2*pi*|k|), so it runs forward only while
    p <= 2*pi*|k|. Past that, u_q = t_q/(2*pi)^q runs backward,
    u_(q-1) = (1 - 2*pi*i*k*u_q)/q from u_(p+60) = 0, and each step scales
    the start's error by 2*pi*|k|/q < 1 (Gautschi, SIAM Rev. 9 (1967) 24).
    """
    if k == 0:
        return TWO_PI**p / (p + 1)
    if p <= TWO_PI * abs(k):
        t = 0.0 + 0.0j
        for q in range(1, p + 1):
            t = TWO_PI ** (q - 1) / (1j * k) - (q / (1j * k)) * t
        return t
    u = 0.0 + 0.0j
    for q in range(p + 60, p, -1):
        u = (1.0 - 1j * TWO_PI * k * u) / q
    return u * TWO_PI**p


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


@dataclass(frozen=True)
class RotorBasis:
    """Fourier basis exp(i*m*phi)/sqrt(2*pi) over an explicit index tuple."""

    family: ClassVar[str] = "rotor"
    l: ClassVar[None] = None

    ms: tuple


@dataclass(frozen=True)
class SphericalBasis:
    """Spherical harmonics Y_lm at fixed l, m = -l..l."""

    family: ClassVar[str] = "spherical"

    l: int

    @property
    def ms(self) -> tuple:
        return tuple(range(-self.l, self.l + 1))


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
    """Dense matrix of <basis_i| A |basis_j> with its provenance.

    ``matrix`` is read-only: an analytic table of a multiplicative kind is
    the kept ``cached_symbol_matrix``, shared with every moment stack on the
    basis.
    """

    basis: object
    kind: ObservableKind
    matrix: np.ndarray
    provenance: str

    def element(self, mi: int, mj: int) -> complex:
        ms = self.basis.ms
        return complex(self.matrix[ms.index(mi), ms.index(mj)])


def basis_key(state) -> tuple:
    """("periodic", ms), ("spherical", l) or ("pendulum", scale): equal exactly when the bases are."""
    fam = st.family_of(state)
    if fam in ("circular", "rotor"):
        return "periodic", st.expansion(state)[0]
    return fam, state.l if fam == "spherical" else state.scale


def basis_of(state) -> RotorBasis | SphericalBasis | OscillatorBasis:
    """The basis of the state's coefficient vector; equal bases share every matrix."""
    family, field = basis_key(state)
    return {"periodic": RotorBasis, "spherical": SphericalBasis, "pendulum": OscillatorBasis}[family](field)


def symbol_matrix(sym: Symbol, basis) -> np.ndarray:
    """Exact-in-phi matrix of a multiplicative symbol on a rotor or spherical basis.

    The oscillator basis has no symbol matrices: its phi acts as ladder
    steps (``x_steps``).
    """
    if isinstance(basis, OscillatorBasis):
        raise ValueError("pendulum moments come from ladder steps, not symbol matrices")
    ks, index = _offset_index(basis.ms)
    out = np.zeros(index.shape, dtype=np.complex128)
    spherical = isinstance(basis, SphericalBasis)
    if not spherical and not all(a == 0 for (a, _, _), _ in sym.terms):
        raise ValueError("theta-dependent symbol on a non-spherical basis")
    for (a, j, p), v in sym.terms:
        # element (m, m') of the phi factor is phi_fourier_moment(m' - m + j, p)
        phi_fac = np.array([phi_fourier_moment(k + j, p) for k in ks])[index]
        theta_fac = numerics.theta_overlap_matrix(basis.l, a) if spherical else 1.0
        out = out + v * theta_fac * phi_fac
    return out


#: the most bytes of symbol matrices ``cached_symbol_matrix`` keeps: about a dozen
#: matrices at l = 64 (266 KB each); a rotor basis of more than 443 modes (3.7 MB at
#: span 480) has matrices larger than that, which are built and not kept
SYMBOL_CACHE_BYTES = 3 * 2**20


class _MatrixCache:
    """Read-only matrices by key, the least recently used dropped first past ``max_bytes``."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            mat = self._entries.get(key)
            if mat is not None:
                self._entries.move_to_end(key)
            return mat

    def put(self, key, mat: np.ndarray) -> None:
        """Keep ``mat``, unless it alone is larger than the bound."""
        if mat.nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            self.nbytes += mat.nbytes - (0 if old is None else old.nbytes)
            self._entries[key] = mat
            while self.nbytes > self.max_bytes:
                self.nbytes -= self._entries.popitem(last=False)[1].nbytes


SYMBOL_MATRICES = _MatrixCache(SYMBOL_CACHE_BYTES)


def cached_symbol_matrix(sym: Symbol, basis) -> np.ndarray:
    """``symbol_matrix(sym, basis)``, built once per (symbol, basis) and returned read-only.

    The key is (basis, ``sym.terms``): equal symbols sum their sorted terms
    in one order, so they share one kept matrix, a fresh build bit for bit. At
    most SYMBOL_CACHE_BYTES of matrices are kept (``SYMBOL_MATRICES``).
    """
    key = (basis, sym.terms)
    mat = SYMBOL_MATRICES.get(key)
    if mat is None:
        mat = symbol_matrix(sym, basis)
        mat.flags.writeable = False
        SYMBOL_MATRICES.put(key, mat)
    return mat


def apply_to_rows(mat: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Row p of the result is mat @ coeffs[p], for a P x n coefficient matrix.

    Each row is summed in an order that no other row affects (a BLAS
    product blocks its sums by the row count), so a state's moments do not
    depend on which states share its stack.
    """
    return np.einsum("ij,pj->pi", mat, coeffs)


#: sqrt(k) for the levels k = 1..size - 1 of the oscillator basis
_SQRT_LEVELS = np.sqrt(np.arange(1.0, OscillatorBasis.size))


def _ladder(rows: np.ndarray, weights: np.ndarray, lower_sign: float) -> np.ndarray:
    """w_k c_(k-1) + lower_sign * w_(k+1) c_(k+1) at every level k of every row.

    These are the only two nonzero terms of row k of a dense ladder
    matrix, so each level is the sum a matrix product would form.
    """
    out = np.zeros_like(rows)
    out[:, 1:] = weights * rows[:, :-1]
    out[:, :-1] += lower_sign * weights * rows[:, 1:]
    return out


def x_steps(basis: OscillatorBasis, rows: np.ndarray, power: int) -> np.ndarray:
    """phi^power applied to every row of a P x size block, as ``power`` ladder steps.

    Each step is X = (a + a^dagger)/(sqrt(2)*scale), whose weights are
    sqrt(k)/(sqrt(2)*scale).
    """
    weights = _SQRT_LEVELS / (math.sqrt(2.0) * basis.scale)
    for _ in range(power):
        rows = _ladder(rows, weights, 1.0)
    return rows


def lz_step(basis: OscillatorBasis, rows: np.ndarray) -> np.ndarray:
    """Lz/hbar = i*scale*(a^dagger - a)/sqrt(2) applied to every row of a P x size block."""
    return 1j * _ladder(rows, (basis.scale / math.sqrt(2.0)) * _SQRT_LEVELS, -1.0)


def polynomial_rows(sym: Symbol, basis: OscillatorBasis, rows: np.ndarray) -> np.ndarray:
    """Row p holds S(X) c_p for a polynomial symbol S in phi, each phi^q as ``x_steps``."""
    if any(a or j for (a, j, _), _ in sym.terms):
        raise ValueError("only polynomials in phi act on the oscillator basis")
    return sum((v * x_steps(basis, rows, q) for (_, _, q), v in sym.terms),
               np.zeros_like(rows))


def matrix_table(
    kind: ObservableKind,
    basis,
    *,
    hbar: float = 1.0,
    method: str = "analytic",
) -> MatrixElementTable:
    """Build the full table for one kind; ``method='quadrature'`` is the oracle.

    Analytic provenance means closed-form azimuthal elements; spherical
    tables other than Lz fold in the 1-D polar overlap integrals and are
    flagged as quadrature-backed.
    """
    if isinstance(basis, OscillatorBasis):
        raise ValueError("pendulum moments come from MomentStack, not matrix tables")
    if not applicable(kind, basis.family):
        raise ValueError(f"observable {kind} is not defined on the {basis.family} basis")
    if method == "analytic":
        if kind.name == "Lz":
            mat = np.diag(hbar * np.array(basis.ms, dtype=np.float64)).astype(np.complex128)
            mat.flags.writeable = False
            prov = "analytic"
        else:
            mat = cached_symbol_matrix(kind_symbol(kind), basis)
            prov = "quadrature" if isinstance(basis, SphericalBasis) else "analytic"
        return MatrixElementTable(basis, kind, mat, prov)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    matrix = _quadrature_matrix(kind, basis, hbar)
    matrix.flags.writeable = False
    return MatrixElementTable(basis, kind, matrix, "quadrature")


def _quadrature_matrix(kind, basis, hbar):
    """<basis_i| A |basis_j> as a sum-factorized quadrature of the sampled A.

    A is sampled on the polar tables of ``engine.polar_tables`` times the
    phi rule of ``engine.phi_rule_size``, as on the oracle grid of the
    basis's states. The phi sums come first: F_k(theta) = (1/2*pi) sum_phi
    w * A * exp(i*k*phi) for every offset k = m_j - m_i. Element (i, j) is
    then the polar sum of theta_i * theta_j * F_{m_j - m_i} * w * sin(theta).
    Every number is still a weighted sum of sampled values, independent of
    the closed-form moments.
    """
    ms = basis.ms
    prule = numerics.phi_rule(engine.phi_rule_size(ms))
    polar, polar_weights, theta = engine.polar_tables(ms, basis.l)
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
) -> complex:
    """<basis_i| A |basis_j> with i, j given as m values of the basis."""
    table = matrix_table(kind, basis, hbar=hbar, method=method)
    return table.element(i, j)


def lz_phi_symmetry_deficit(state, *, method: str = "analytic") -> complex:
    """(Lz Psi, phi Psi) - (Psi, Lz phi Psi), the condition gate for the pair.

    It is i*hbar times the state's seam density
    (``moments.MomentStack.seam``): i*hbar for a single circular mode,
    i*hbar*|sum_m c_m|^2 for rotor superpositions, i*hbar*(c, Gamma c) over
    the polar overlaps for spherical states, and exactly 0 for the pendulum
    (nothing survives at the line's infinities).
    """
    return symmetry_deficit(LZ, PHI, state, method=method)


def symmetry_deficit(
    a: ObservableKind, b: ObservableKind, state, *, method: str = "analytic"
) -> complex:
    """(A Psi, B Psi) - (Psi, A B Psi) for any applicable ordered pair.

    Nonzero only when A is Lz and B carries a phi power whose boundary
    values at 0 and 2*pi differ; multiplicative A never contributes, and
    the pendulum family has no boundary at all. The analytic value is the
    row of a one-row ``moments.MomentStack`` (``deficit``).
    """
    check_applicable(a, state)
    check_applicable(b, state)
    if method == "quadrature":
        return _deficit_quadrature(a, b, state)
    if method != "analytic":
        raise ValueError(f"unknown method {method!r}")
    from . import moments  # moments imports this module

    return complex(moments.MomentStack((state,)).deficit(a, b)[0])


def _deficit_quadrature(a, b, state) -> complex:
    """Oracle twin of symmetry_deficit, on the state's oracle grid (``engine._Grid.deficit``)."""
    return engine.oracle_grid(state).deficit(a, b, state)
