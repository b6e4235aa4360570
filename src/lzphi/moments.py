"""First-, second- and higher-order probabilistic parameters of observables.

The analytic path works in each family's own basis: exact azimuthal
Fourier moments for circular/rotor states, polar-overlap-factorized
tables for fixed-l spherical states, and oscillator ladder matrices for
the pendulum. It lives in ``MomentStack``, which holds the moments of a
stack of states that share one basis: every quantity is a binomial
combination of quadratic forms (c, M c) over basis matrices M that do not
depend on the state, so each M is built once per stack and each form is
taken over all rows at once. The public analytic functions below are the
one-row case. The quadrature path re-derives every number on the family's
grid and serves as the oracle; each call samples the state on one grid and
takes the means it centers by from that same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from . import engine, numerics
from . import observables as obs
from . import states as st

MAX_CORRELATION_ORDER = 6


@dataclass(frozen=True)
class MomentSet:
    """Mean and standard deviation of one observable, with provenance."""

    mean: float
    std_dev: float
    provenance: str


@dataclass(frozen=True)
class Correlation:
    """Centered pair inner product; ``hermitized`` is its real part.

    The real part equals half the mean anticommutator of the centered
    operators whenever both orderings are defined, since swapping the
    sides conjugates the value.
    """

    value: complex
    hermitized: float


def mean(kind, state, *, method: str = "analytic", settings=None) -> float:
    """<A> = (Psi, A Psi)."""
    obs.check_applicable(kind, state)
    if method == "analytic":
        return float(MomentStack((state,), settings).mean(kind)[0])
    return _grid_mean(_quadrature_grid(state, method, settings), kind)


def std_dev(kind, state, *, method: str = "analytic", settings=None) -> float:
    """Standard deviation (C(A, A))^(1/2) of the observable in the state."""
    obs.check_applicable(kind, state)
    if method == "analytic":
        return float(MomentStack((state,), settings).std(kind)[0])
    var = _grid_pair(_quadrature_grid(state, method, settings), kind, kind, 1, 1)
    return math.sqrt(max(float(np.real(var)), 0.0))


def moment_set(kind, state, *, method: str = "analytic", settings=None) -> MomentSet:
    return MomentSet(
        mean=mean(kind, state, method=method, settings=settings),
        std_dev=std_dev(kind, state, method=method, settings=settings),
        provenance=method,
    )


def correlation(a, b, state, *, method: str = "analytic", settings=None) -> Correlation:
    """C(A, B) = (dA Psi, dB Psi) with dA = A - <A>."""
    value = higher_correlation(a, b, 1, 1, state, method=method, settings=settings)
    return Correlation(value=value, hermitized=float(np.real(value)))


def higher_correlation(a, b, r: int, s: int, state, *, method: str = "analytic", settings=None) -> complex:
    """((dA)^r Psi, (dB)^s Psi) for orders up to MAX_CORRELATION_ORDER."""
    if not (1 <= r <= MAX_CORRELATION_ORDER and 1 <= s <= MAX_CORRELATION_ORDER):
        raise ValueError(f"orders must be in 1..{MAX_CORRELATION_ORDER}, got r={r}, s={s}")
    if method == "analytic":
        return complex(MomentStack((state,), settings).pair(a, b, r, s)[0])
    obs.check_applicable(a, state)
    obs.check_applicable(b, state)
    return complex(_grid_pair(_quadrature_grid(state, method, settings), a, b, r, s))


def commutator_mean(a, b, state, *, settings=None) -> complex:
    """<[A, B]> evaluated with the product rule inside the domain.

    Multiplicative pairs commute exactly; mixed pairs reduce to the mean
    of -i*hbar times the phi derivative of the multiplicative symbol.
    """
    return complex(MomentStack((state,), settings).commutator(a, b)[0])


def stacks(states, settings=None) -> list:
    """One MomentStack per basis over the distinct state objects in ``states``.

    Rows keep the order in which the states first appear; pendulum states
    form one stack whatever their n.
    """
    groups = {}
    for state in {id(s): s for s in states}.values():
        groups.setdefault(_stack_key(state), []).append(state)
    return [MomentStack(group, settings) for group in groups.values()]


def _stack_key(state):
    return "pendulum" if st.family_of(state) == "pendulum" else obs.basis_of(state)


def _memoized(method):
    """Compute a stack quantity for every row on first use and keep it in the stack."""

    @functools.wraps(method)
    def once(self, *args):
        key = (method.__name__, *args)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = method(self, *args)
            return value

    return once


class MomentStack:
    """Analytic moments of a stack of states, each quantity computed once for all rows.

    Circular, rotor and spherical rows share one basis; their coefficient
    vectors are the rows of a P x n matrix C. A basis matrix M (the
    ``symbol_matrix`` of a product of observable symbols, or of a phi
    derivative) enters only through the products M c_p of every row,
    built on first use, so the stack holds O(P*n) numbers per matrix and
    never a P x n x n array. The Lz diagonal scales each row by its own
    hbar. Pendulum rows may differ in n; their quantities come row by row
    from the oscillator ladder matrices. Every method returns one value
    per row, in the order of ``states``. The stack keeps its states
    alive, and a state's moments depend only on the state and the
    settings, so a stack never goes stale.
    """

    def __init__(self, states, settings=None):
        self.states = tuple(states)
        if not self.states:
            raise ValueError("a moment stack needs at least one state")
        self.settings = engine.resolve(settings)
        key = _stack_key(self.states[0])
        if any(_stack_key(s) != key for s in self.states[1:]):
            raise ValueError("stacked states must share one basis (or all be pendulum states)")
        self._pendulum = key == "pendulum"
        self._basis = None if self._pendulum else key
        #: hbar of every row
        self.hbar = np.array([s.hbar for s in self.states])
        if not self._pendulum:
            self._coeffs = np.array([st.coeff_vector(s) for s in self.states])
            ms = np.array(key.ms, dtype=np.float64)
            self._lz = np.multiply.outer(self.hbar, ms)
        self._memo = {}
        self._applied_rows = {}

    def _check(self, *kinds):
        for kind in kinds:
            obs.check_applicable(kind, self.states[0])

    def _applied(self, sym) -> np.ndarray:
        """Row p holds M c_p for the symbol's basis matrix M."""
        key = tuple(sorted(sym.terms.items()))
        rows = self._applied_rows.get(key)
        if rows is None:
            mat = obs.symbol_matrix(sym, self._basis, self.settings.theta_nodes)
            rows = self._applied_rows[key] = obs.apply_to_rows(mat, self._coeffs)
        return rows

    def _form(self, sym, left=None) -> np.ndarray:
        """(left_p, M c_p) for every row p; ``left`` defaults to C."""
        left = self._coeffs if left is None else left
        return np.einsum("pi,pi->p", np.conj(left), self._applied(sym))

    @_memoized
    def mean(self, kind) -> np.ndarray:
        """<A> for every row."""
        self._check(kind)
        if self._pendulum:
            return np.array([_pendulum_mean(kind, s) for s in self.states])
        if kind.name == "Lz":
            return np.sum(np.abs(self._coeffs) ** 2 * self._lz, axis=1)
        return np.real(self._form(obs.kind_symbol(kind)))

    @_memoized
    def std(self, kind) -> np.ndarray:
        """(C(A, A))^(1/2) for every row."""
        if self._pendulum:
            closed = [_pendulum_closed_std(kind, s) for s in self.states]
            if closed[0] is not None:  # a closed form exists per kind, for all n
                return np.array(closed)
        return np.sqrt(np.maximum(np.real(self.pair(kind, kind, 1, 1)), 0.0))

    @_memoized
    def pair(self, a, b, r: int, s: int) -> np.ndarray:
        """((A - <A>)^r Psi, (B - <B>)^s Psi) for every row.

        Multiplicative sides expand binomially into the uncentered
        products A^i B^k, whose matrices are shared by every row and every
        mean; an Lz side is the diagonal (hbar*m - <Lz>)^r on the left.
        """
        mu_a, mu_b = self.mean(a), self.mean(b)
        if self._pendulum:
            return np.array([
                _pendulum_pair(a, b, r, s, ma, mb, state)
                for state, ma, mb in zip(self.states, mu_a, mu_b)
            ])
        if b.name == "Lz" and a.name != "Lz":
            return np.conj(self.pair(b, a, s, r))
        if a.name == "Lz":
            left = (self._lz - mu_a[:, None]) ** r
            if b.name == "Lz":
                weights = np.abs(self._coeffs) ** 2 * left * (self._lz - mu_b[:, None]) ** s
                return np.sum(weights, axis=1)
            left = left * self._coeffs
            sym_b = obs.kind_symbol(b)
            return sum(
                math.comb(s, k) * (-mu_b) ** (s - k) * self._form(sym_b**k, left)
                for k in range(s + 1)
            )
        sym_a, sym_b = obs.kind_symbol(a), obs.kind_symbol(b)
        return sum(
            math.comb(r, i) * math.comb(s, k) * (-mu_a) ** (r - i) * (-mu_b) ** (s - k)
            * self._form(sym_a**i * sym_b**k)
            for i in range(r + 1)
            for k in range(s + 1)
        )

    @_memoized
    def commutator(self, a, b) -> np.ndarray:
        """<[A, B]> for every row; see ``commutator_mean``."""
        self._check(a, b)
        if (a.name == "Lz") == (b.name == "Lz"):
            return np.zeros(len(self.states), dtype=np.complex128)
        mult = b if a.name == "Lz" else a
        sign = 1.0 if a.name == "Lz" else -1.0
        deriv = obs.kind_symbol(mult).phi_derivative()
        if self._pendulum:
            val = np.array([_pendulum_symbol_mean(deriv, state) for state in self.states])
        else:
            val = self._form(deriv)
        return sign * (-1j) * self.hbar * val

    @_memoized
    def deficit(self, a, b) -> np.ndarray:
        """(A Psi, B Psi) - (Psi, A B Psi) for every row; see ``observables.symmetry_deficit``."""
        self._check(a, b)
        if self._pendulum:
            return np.zeros(len(self.states), dtype=np.complex128)
        return obs.symmetry_deficits(
            a, b, self._basis, self._coeffs, self.hbar, self.settings.theta_nodes
        )

    @_memoized
    def gamma_sum(self) -> np.ndarray:
        """sum_mm' conj(c_m) c_m' gamma(l, m, m') for every row of a spherical stack."""
        if not isinstance(self._basis, obs.SphericalBasis):
            raise ValueError("the gamma-weighted sum needs spherical states")
        table = numerics.theta_overlap_matrix(self._basis.l, 0, self.settings.theta_nodes)
        rows = obs.apply_to_rows(table, self._coeffs)
        return np.real(np.einsum("pi,pi->p", np.conj(self._coeffs), rows))


# ---------------------------------------------------------------------------
# pendulum family: oscillator ladder matrices, exact in a padded number basis

def _ladder_ops(state, size):
    root = np.sqrt(np.arange(1.0, size))
    lower = np.diag(root, 1)
    raise_ = lower.T
    # hbar enters against the stiffness I*omega, the product the state bounds
    stiffness = state.inertia * state.omega
    phi_m = math.sqrt(state.hbar / (2.0 * stiffness)) * (lower + raise_)
    lz_m = 1j * math.sqrt(state.hbar * stiffness / 2.0) * (raise_ - lower)
    return phi_m.astype(np.complex128), lz_m


def _pendulum_kind_matrix(kind, state, size):
    phi_m, lz_m = _ladder_ops(state, size)
    if kind.name == "Lz":
        return lz_m
    if kind.name == "Phi":
        return phi_m
    if kind.name == "PhiSquared":
        return phi_m @ phi_m
    raise ValueError(f"observable {kind} is not defined on the pendulum family")


def _pendulum_pair(a, b, r, s, mu_a, mu_b, state) -> complex:
    # bandwidth 2 per application of PhiSquared; both sides share one
    # padding, wide enough that truncation is inert
    size = state.n + 2 * max(r, s) + 6
    left = _pendulum_centered_vector(a, r, mu_a, state, size)
    return complex(np.conj(left) @ _pendulum_centered_vector(b, s, mu_b, state, size))


def _pendulum_centered_vector(kind, power, mu, state, size):
    mat = _pendulum_kind_matrix(kind, state, size) - mu * np.eye(size)
    vec = np.zeros(size, dtype=np.complex128)
    vec[state.n] = 1.0
    for _ in range(power):
        vec = mat @ vec
    return vec


def _pendulum_mean(kind, state) -> float:
    if kind.name in ("Lz", "Phi"):
        return 0.0
    if kind.name == "PhiSquared":
        return state.hbar / (state.inertia * state.omega) * (state.n + 0.5)
    raise ValueError(f"observable {kind} is not defined on the pendulum family")


def _pendulum_closed_std(kind, state):
    n_half = state.n + 0.5
    stiffness = state.inertia * state.omega
    if kind.name == "Lz":
        return math.sqrt(state.hbar * stiffness * n_half)
    if kind.name == "Phi":
        return math.sqrt(state.hbar / stiffness * n_half)
    return None


def _pendulum_symbol_mean(sym, state) -> complex:
    phi_poly = sym.phi_polynomial()
    size = state.n + 2 * len(phi_poly) + 6
    phi_m, _ = _ladder_ops(state, size)
    acc = np.zeros((size, size), dtype=np.complex128)
    pw = np.eye(size, dtype=np.complex128)
    for coeff in phi_poly:
        acc = acc + coeff * pw
        pw = pw @ phi_m
    return complex(acc[state.n, state.n])


# ---------------------------------------------------------------------------
# quadrature path: centered operator applications on the family grid

def _quadrature_grid(state, method, settings):
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    return engine.state_grid(state, engine.resolve(settings))


def _grid_mean(grid, kind) -> float:
    return float(np.real(grid.inner(grid.psi, _centered_grid_vector(grid, kind, 1, 0.0))))


def _grid_pair(grid, a, b, r, s):
    """((dA)^r Psi, (dB)^s Psi) on one grid, centered by that grid's own means."""
    va = _centered_grid_vector(grid, a, r, _grid_mean(grid, a))
    vb = _centered_grid_vector(grid, b, s, _grid_mean(grid, b))
    return grid.inner(va, vb)


def _centered_grid_vector(grid, kind, power, mu):
    """(A - mu)^power Psi: binomially over the exact Lz^k Psi, else pointwise."""
    if kind.name == "Lz":
        terms = [
            math.comb(power, k) * (-mu) ** (power - k) * grid.lz_pow(k)
            for k in range(power + 1)
        ]
        return sum(terms[1:], terms[0])
    vals = grid.symbol_values(obs.kind_symbol(kind))
    return (vals - mu) ** power * grid.psi
