"""First-, second- and higher-order probabilistic parameters of observables.

The analytic path is one algebra over each family's own basis
(``observables.basis_of``): exact azimuthal Fourier moments for
circular/rotor states, polar-overlap-factorized tables for fixed-l
spherical states, and the padded oscillator number basis of the
pendulum's width. It lives in ``MomentStack``, which holds the moments of
a stack of states that share one basis: every quantity is a quadratic
form (c, M c) over basis matrices M that do not depend on the state, or a
binomial combination of them, so each M is built once per basis
(``observables.cached_symbol_matrix``), the symbol algebra behind it once
per process (``observables.kind_symbol``, ``observables.product_symbol``),
and each form once per stack, over all of its rows at once. One key, the
symbol's sorted terms (``observables.Symbol.key``), names both its kept
matrix and its forms. The seam density (``MomentStack.seam``) is one such
form; the symmetry deficits (``MomentStack.deficit``, and
``observables.symmetry_deficit`` as its one-row case) and the boundary
terms of R15, R52 and R58 read it. On the
oscillator basis no matrix is built: phi and Lz act on the number-state
rows as ladder steps. An Lz side, and every side on the oscillator basis,
is centered before it is powered. All a stack computes, the relation
columns of ``relations`` included, is kept in its one memo.
The public analytic functions below are the one-row case, and no setting
enters them. The quadrature path re-derives every number on the family's
grid as the oracle, with rules sized from the state (see ``engine``);
each call samples the state on one grid and takes the means it centers
by from that same grid, and its Lz sides are centered before they are
powered too.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from . import engine, numerics
from . import observables as obs
from . import states as st

MAX_CORRELATION_ORDER = obs.MAX_CORRELATION_ORDER


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


def mean(kind, state, *, method: str = "analytic") -> float:
    """<A> = (Psi, A Psi)."""
    obs.check_applicable(kind, state)
    if method == "analytic":
        return float(MomentStack((state,)).mean(kind)[0])
    grid = _quadrature_grid(state, method)
    return (grid.lz_origin if kind.name == "Lz" else 0.0) + _grid_mean(grid, kind)


def std_dev(kind, state, *, method: str = "analytic") -> float:
    """Standard deviation (C(A, A))^(1/2) of the observable in the state."""
    obs.check_applicable(kind, state)
    if method == "analytic":
        return float(MomentStack((state,)).std(kind)[0])
    var = _grid_pair(_quadrature_grid(state, method), kind, kind, 1, 1)
    return math.sqrt(max(float(np.real(var)), 0.0))


def moment_set(kind, state, *, method: str = "analytic") -> MomentSet:
    return MomentSet(
        mean=mean(kind, state, method=method),
        std_dev=std_dev(kind, state, method=method),
        provenance=method,
    )


def correlation(a, b, state, *, method: str = "analytic") -> Correlation:
    """C(A, B) = (dA Psi, dB Psi) with dA = A - <A>."""
    value = higher_correlation(a, b, 1, 1, state, method=method)
    return Correlation(value=value, hermitized=float(np.real(value)))


def higher_correlation(a, b, r: int, s: int, state, *, method: str = "analytic") -> complex:
    """((dA)^r Psi, (dB)^s Psi) for orders up to MAX_CORRELATION_ORDER."""
    if not (1 <= r <= MAX_CORRELATION_ORDER and 1 <= s <= MAX_CORRELATION_ORDER):
        raise ValueError(f"orders must be in 1..{MAX_CORRELATION_ORDER}, got r={r}, s={s}")
    if method == "analytic":
        return complex(MomentStack((state,)).pair(a, b, r, s)[0])
    obs.check_applicable(a, state)
    obs.check_applicable(b, state)
    return complex(_grid_pair(_quadrature_grid(state, method), a, b, r, s))


def commutator_mean(a, b, state) -> complex:
    """<[A, B]> evaluated with the product rule inside the domain.

    Multiplicative pairs commute exactly; mixed pairs reduce to the mean
    of -i*hbar times the phi derivative of the multiplicative symbol.
    """
    return complex(MomentStack((state,)).commutator(a, b)[0])


def stacks(states) -> list:
    """One MomentStack per basis over the distinct state objects in ``states``.

    Rows keep the order in which the states first appear; pendulum states
    of one width form one stack whatever their n. Each state's basis is
    derived once, here.
    """
    groups = {}
    for state in {id(s): s for s in states}.values():
        groups.setdefault(obs.basis_of(state), []).append(state)
    return [MomentStack(group, basis=basis) for basis, group in groups.items()]


def _memoized(method):
    """Compute a stack quantity for every row on first use and keep it in the stack."""

    @functools.wraps(method)
    def once(self, *args):
        return self.once((method.__name__, *args), method, self, *args)

    return once


class MomentStack:
    """Analytic moments of a stack of states, each quantity computed once for all rows.

    The rows share one basis; their coefficient vectors are the rows of a
    P x n matrix C, built by one ``np.array`` over the rows' amplitudes. A
    basis matrix M (the ``symbol_matrix`` of a product of observable
    symbols, or of a phi derivative, kept once per basis by
    ``observables.cached_symbol_matrix``) enters only through the products
    M c_p of every row, built on first use, so the stack holds O(P*n)
    numbers per matrix and never a P x n x n array. Lz scales each
    row by its own hbar through the diagonal hbar*m. A pendulum row is its
    number n, the 1 of |n> scattered into the padded number basis; there
    means and standard deviations are closed forms in n, and phi and Lz act
    on the block as two-term ladder steps (``observables.x_steps``,
    ``observables.lz_step``), with no matrix built. Every method returns
    one value per row, in the order of ``states``. No setting enters: the
    stack keeps its states alive, and a state's moments depend only on the
    state, so a stack never goes stale. ``basis``, when given, is the
    states' shared ``observables.basis_of``, already derived (``stacks``);
    else it is derived and checked here.
    """

    def __init__(self, states, *, basis=None):
        self.states = tuple(states)
        if not self.states:
            raise ValueError("a moment stack needs at least one state")
        if basis is None:
            basis = obs.basis_of(self.states[0])
            if any(obs.basis_of(s) != basis for s in self.states[1:]):
                raise ValueError("stacked states must share one basis")
        self._basis = basis
        #: hbar of every row
        self.hbar = np.array([s.hbar for s in self.states])
        if isinstance(basis, obs.OscillatorBasis):
            self._coeffs = np.zeros((len(self.states), basis.size), dtype=np.complex128)
            self._coeffs[np.arange(len(self.states)), [s.n for s in self.states]] = 1.0
        else:
            self._coeffs = np.array([st.expansion(s)[1] for s in self.states], dtype=np.complex128)
            m0 = st.middle_m(basis.ms)
            offsets = np.array([m - m0 for m in basis.ms], dtype=np.float64)
            # Lz = hbar*m0 + hbar*(m - m0); the rows center the offsets by their own mean
            self._lz_origin = self.hbar * m0
            self._lz = np.multiply.outer(self.hbar, offsets)
            self._lz_mean = np.sum(np.abs(self._coeffs) ** 2 * self._lz, axis=1)
        self._memo = {}

    def once(self, key, compute, *args):
        """``compute(*args)`` on first use of ``key``, then kept in the stack's one memo."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(*args)
            return value

    def _check(self, *kinds):
        for kind in kinds:
            obs.check_applicable(kind, self.states[0])

    def _applied(self, sym) -> np.ndarray:
        """Row p holds M c_p for the symbol's basis matrix M, or S(X) c_p by ladder steps."""
        key = ("applied", sym.key)
        if isinstance(self._basis, obs.OscillatorBasis):
            return self.once(key, obs.polynomial_rows, sym, self._basis, self._coeffs)
        return self.once(key, lambda: obs.apply_to_rows(
            obs.cached_symbol_matrix(sym, self._basis), self._coeffs))

    def _form(self, sym) -> np.ndarray:
        """(c_p, M c_p) for every row p, computed once per symbol (``sym.key``).

        Every mean, binomial term and commutator of the stack reads these
        forms; conj(C) is taken with the first one, not before.
        """
        return self.once(("form", sym.key), lambda: np.einsum(
            "pi,pi->p", self.once(("conj",), np.conj, self._coeffs), self._applied(sym)))

    def _centered(self, kind, mu, power) -> np.ndarray:
        """Row p holds (A - mu_p)^power c_p, each factor applied to the row.

        A is Lz, a diagonal on rotor and spherical bases, or any kind on
        the oscillator basis, whose padding keeps every power up to the
        highest order exact: there each factor is ladder steps, hbar times
        ``lz_step`` for Lz, one ``x_steps`` step for Phi and two for
        PhiSquared. The Lz diagonal centers its offsets hbar*(m - m0) by
        their mean, which is mu_p - hbar*m0 with no cancellation.
        """
        if not isinstance(self._basis, obs.OscillatorBasis):
            return (self._lz - self._lz_mean[:, None]) ** power * self._coeffs
        rows = self._coeffs
        for _ in range(power):
            if kind.name == "Lz":
                applied = self.hbar[:, None] * obs.lz_step(self._basis, rows)
            else:
                applied = obs.x_steps(self._basis, rows, 1 if kind.name == "Phi" else 2)
            rows = applied - mu[:, None] * rows
        return rows

    @_memoized
    def mean(self, kind) -> np.ndarray:
        """<A> for every row."""
        self._check(kind)
        if isinstance(self._basis, obs.OscillatorBasis):
            return np.array([_pendulum_mean(kind, s) for s in self.states])
        if kind.name == "Lz":
            return self._lz_origin + self._lz_mean
        return np.real(self._form(obs.kind_symbol(kind)))

    @_memoized
    def std(self, kind) -> np.ndarray:
        """(C(A, A))^(1/2) for every row."""
        if isinstance(self._basis, obs.OscillatorBasis):
            return np.array([_pendulum_closed_std(kind, s) for s in self.states])
        return np.sqrt(np.maximum(np.real(self.pair(kind, kind, 1, 1)), 0.0))

    @_memoized
    def pair(self, a, b, r: int, s: int) -> np.ndarray:
        """((A - <A>)^r Psi, (B - <B>)^s Psi) for every row.

        Sides that ``_centered`` applies directly (Lz, and every kind on the
        oscillator basis) are centered before they are powered. Other
        multiplicative sides expand binomially into the uncentered products
        A^i B^k, whose matrices are shared by every row and every mean.
        Chi - <Chi> = Phi - <Phi>: a Chi side is a Phi side.
        """
        if "Chi" in (a.name, b.name):
            self._check(a, b)
            return self.pair(_unwound(a), _unwound(b), r, s)
        mu_a, mu_b = self.mean(a), self.mean(b)
        if b.name == "Lz" and a.name != "Lz":
            return np.conj(self.pair(b, a, s, r))
        if isinstance(self._basis, obs.OscillatorBasis) or b.name == "Lz":
            # both sides centered directly: Lz with Lz, or any pair on the oscillator basis
            right = self._centered(b, mu_b, s)
            return np.einsum("pi,pi->p", np.conj(self._centered(a, mu_a, r)), right)
        if a.name == "Lz":
            left = np.conj(self._centered(a, mu_a, r))
            return sum(
                math.comb(s, k) * (-mu_b) ** (s - k)
                * np.einsum("pi,pi->p", left, self._applied(obs.kind_symbol(b) ** k))
                for k in range(s + 1)
            )
        return sum(
            math.comb(r, i) * math.comb(s, k) * (-mu_a) ** (r - i) * (-mu_b) ** (s - k)
            * self._form(obs.product_symbol(a, i, b, k))
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
        return sign * (-1j) * self.hbar * self._form(deriv)

    @_memoized
    def deficit(self, a, b) -> np.ndarray:
        """(A Psi, B Psi) - (Psi, A B Psi) for every row; see ``observables.symmetry_deficit``.

        The deficit is i*hbar times the boundary jump of B in units of
        2*pi, each theta power a of the jump weighted by the rows'
        ``seam(a)``; the Phi jump is exactly 1, so a circular mode reads
        exactly i*hbar. B is real and each density is real, so every
        deficit's real part is an exact +0.0. The pendulum's line has no
        boundary, so on the oscillator basis every deficit is zero.
        """
        self._check(a, b)
        out = np.zeros(len(self.states), dtype=np.complex128)
        if a.name != "Lz" or b.name == "Lz" or isinstance(self._basis, obs.OscillatorBasis):
            return out
        jump = obs.kind_symbol(b).boundary_jump()
        if not jump:
            return out
        total = sum(coeff.real * self.seam(a_pow) for a_pow, coeff in jump.items())
        # set the imaginary part alone: 1j * x would give the real part -0.0 for x < 0
        out.imag = self.hbar * total
        return out

    @_memoized
    def seam(self, theta_power: int) -> np.ndarray:
        """The density 2*pi*|psi|^2 along the seam phi = 0 = 2*pi of every row.

        exp(i*m*2*pi) = 1 for every integer m, so on a rotor basis it is
        exactly |sum_m c_m|^2, with no phase formed in floating point. On a
        spherical basis it is the polar-overlap form Re (c, T_a c), T_a the
        overlap of theta^``theta_power`` (``numerics.theta_overlap_matrix``);
        T_0 is R58's gamma table. The pendulum's line has no seam.
        """
        if isinstance(self._basis, obs.OscillatorBasis):
            raise ValueError("the pendulum's line has no seam")
        if isinstance(self._basis, obs.SphericalBasis):
            table = numerics.theta_overlap_matrix(self._basis.l, theta_power)
            rows = obs.apply_to_rows(table, self._coeffs)
            return np.einsum("pi,pi->p", np.conj(self._coeffs), rows).real
        return np.abs(self._coeffs.sum(axis=1)) ** 2


def _unwound(kind):
    """Phi for Chi = phi + 2*pi*N, whose centered powers are Phi's; else ``kind``."""
    return obs.PHI if kind.name == "Chi" else kind


# ---------------------------------------------------------------------------
# pendulum family: closed forms of the means and standard deviations

def _pendulum_mean(kind, state) -> float:
    if kind.name in ("Lz", "Phi"):
        return 0.0
    if kind.name == "PhiSquared":
        return state.hbar / (state.inertia * state.omega) * (state.n + 0.5)
    raise ValueError(f"observable {kind} is not defined on the pendulum family")


def _pendulum_closed_std(kind, state) -> float:
    n_half = state.n + 0.5
    stiffness = state.inertia * state.omega
    if kind.name == "Lz":
        return math.sqrt(state.hbar * stiffness * n_half)
    if kind.name == "Phi":
        return math.sqrt(state.hbar / stiffness * n_half)
    if kind.name == "PhiSquared":
        return state.hbar / stiffness * math.sqrt((state.n * (state.n + 1) + 1) / 2.0)
    raise ValueError(f"observable {kind} is not defined on the pendulum family")


# ---------------------------------------------------------------------------
# quadrature path: centered operator applications on the family grid

def _quadrature_grid(state, method):
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    return engine.state_grid(state)


def _grid_mean(grid, kind) -> float:
    return float(np.real(grid.inner(grid.psi, _centered_grid_vector(grid, kind, 1, 0.0))))


def _grid_pair(grid, a, b, r, s):
    """((dA)^r Psi, (dB)^s Psi) on one grid, centered by that grid's own means.

    A variance, (a, r) == (b, s), builds its one centered vector once.
    """
    a, b = _unwound(a), _unwound(b)
    va = _centered_grid_vector(grid, a, r, _grid_mean(grid, a))
    if (a, r) == (b, s):
        return grid.inner(va, va)
    vb = _centered_grid_vector(grid, b, s, _grid_mean(grid, b))
    return grid.inner(va, vb)


def _centered_grid_vector(grid, kind, power, mu):
    """(A - mu)^power Psi: the grid's exact centered Lz powers, else pointwise."""
    if kind.name == "Lz":
        return grid.lz_pow(power, mu)
    vals = grid.symbol_values(obs.kind_symbol(kind))
    return (vals - mu) ** power * grid.psi
