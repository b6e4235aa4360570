"""Independent brute-force oracles for the test suite.

Everything here integrates on its own grids built straight from
numpy.polynomial rules, touching none of the package's engine or table
machinery, so analytic paths are checked against a genuinely separate
route.
"""

import decimal
from fractions import Fraction
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def legendre_nodes(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


def theta_part(l, m, theta):
    """Normalized polar factor, direct recurrence (Condon-Shortley)."""
    am = abs(m)
    x = np.cos(theta)
    fact = 1.0
    for i in range(1, 2 * am + 1):
        if i % 2:
            fact *= i
        fact /= math.sqrt(i)
    pmm = ((-1.0) ** am) * fact * (1.0 - x * x) ** (am / 2.0)
    if l == am:
        res = pmm
    else:
        pm1 = x * math.sqrt(2 * am + 1) * pmm
        for ll in range(am + 2, l + 1):
            pll = (x * (2 * ll - 1) * pm1 - math.sqrt((ll - 1) ** 2 - am * am) * pmm) / math.sqrt(
                ll * ll - am * am
            )
            pmm, pm1 = pm1, pll
        res = pm1 if l > am else pmm
    res = math.sqrt((2 * l + 1) / 2.0) * res
    return -res if (m < 0 and am % 2) else res


class SphericalOracle:
    """Dense 2-D sampling of a fixed-l state for direct integrals."""

    def __init__(self, l, coeffs, hbar=1.0, n_theta=160, n_phi=320):
        self.l = l
        self.hbar = hbar
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.ms = np.arange(-l, l + 1)
        self.theta, wt = legendre_nodes(n_theta, 0.0, math.pi)
        self.phi, wp = legendre_nodes(n_phi, 0.0, TWO_PI)
        self.weights = np.outer(wt * np.sin(self.theta), wp)
        tl = np.array([theta_part(l, m, self.theta) for m in self.ms])
        ph = np.exp(1j * np.outer(self.ms, self.phi)) / math.sqrt(TWO_PI)
        self.psi = np.einsum("m,mt,mp->tp", self.coeffs, tl, ph)
        self.lz_psi = np.einsum("m,mt,mp->tp", hbar * self.ms * self.coeffs, tl, ph)

    def integral(self, values):
        return complex(np.sum(self.weights * values))

    def mean_of(self, pointwise):
        return self.integral(pointwise * np.abs(self.psi) ** 2).real

    def theta_grid(self):
        return self.theta[:, None]

    def phi_grid(self):
        return self.phi[None, :]

    def deficit_lz_phi(self):
        """(Lz Psi, phi Psi) - (Psi, Lz phi Psi) by direct 2-D quadrature."""
        phi = self.phi_grid()
        first = self.integral(np.conj(self.lz_psi) * phi * self.psi)
        lz_phi_psi = -1j * self.hbar * self.psi + phi * self.lz_psi
        second = self.integral(np.conj(self.psi) * lz_phi_psi)
        return first - second


def pendulum_lz_pow(state, j, mu, xi):
    """(Lz - mu)^j Psi of a pendulum state at the points xi = scale * phi, times exp(xi^2/2).

    Lz acts j times on the Hermite series through numpy.polynomial.hermite's
    series algebra, Lz f = -i*hbar*scale*(f' - xi*f), and the series is
    summed by Clenshaw's recurrence (``hermval``).
    """
    herm = np.polynomial.hermite
    series = np.zeros(state.n + 1, dtype=complex)
    series[state.n] = state.amplitude
    step = -1j * state.hbar * state.scale
    for _ in range(j):
        series = herm.hermsub(step * herm.hermsub(herm.hermder(series), herm.hermmulx(series)), mu * series)
    return herm.hermval(xi, series)


def lz_phi_deficit(state):
    """(Lz Psi, phi Psi) - (Psi, Lz phi Psi) by the closed form of the state's family.

    i*hbar on a circular mode, i*hbar*|sum_m c_m|^2 on a rotor and 0 on the
    pendulum. A spherical state's is i*hbar*(1 + 2*Im S), with the double sum
    S = sum_mm' conj(c_m) c_m' m gamma_mm' phi_mm' over the polar overlaps
    gamma_mm' (on this module's own rule) and the azimuthal elements
    phi_mm' = (1/2pi) int phi exp(i(m' - m)phi) dphi: pi on the diagonal and
    -i/(m' - m) off it.
    """
    family = type(state).__name__
    if family == "CircularState":
        return 1j * state.hbar
    if family == "PendulumState":
        return 0j
    if family == "RotorSuperposition":
        return 1j * state.hbar * abs(sum(c for _, c in state.coefficients)) ** 2
    l = state.l
    ms = np.arange(-l, l + 1)
    c = np.asarray(state.coefficients, dtype=complex)
    theta, w = legendre_nodes(2 * l + 64, 0.0, math.pi)
    polar = np.array([theta_part(l, m, theta) for m in ms])
    gamma = (polar * (w * np.sin(theta))) @ polar.T
    offsets = np.subtract.outer(ms, ms).T  # m' - m
    phi = np.where(offsets == 0, math.pi, -1j / np.where(offsets == 0, 1, offsets))
    double_sum = np.einsum("i,j,i,ij,ij->", np.conj(c), c, ms, gamma, phi)
    return 1j * state.hbar * (1.0 + 2.0 * double_sum.imag)


def periodic_mean(state_fn, pointwise_fn, n=2048):
    """int f(phi) |psi(phi)|^2 dphi on a dense [0, 2*pi] rule."""
    phi, w = legendre_nodes(n, 0.0, TWO_PI)
    psi = state_fn(phi)
    return float(np.real(np.sum(w * pointwise_fn(phi) * np.abs(psi) ** 2)))


#: the padded number basis |0>..|76> of the analytic pendulum moments
OSCILLATOR_SIZE = 77


def oscillator_lowering(size=OSCILLATOR_SIZE):
    """The lowering operator a on |0>..|size - 1> as a dense matrix."""
    return np.diag(np.sqrt(np.arange(1.0, size)), 1)


def oscillator_matrix(name, scale, size=OSCILLATOR_SIZE):
    """Dense Lz/hbar, Phi or PhiSquared on the number basis of a pendulum of width ``scale``.

    Lz/hbar = i*scale*(a^dagger - a)/sqrt(2); phi^p is the matrix power X^p
    of X = (a + a^dagger)/(sqrt(2)*scale).
    """
    lower = oscillator_lowering(size)
    if name == "Lz":
        return 1j * (scale / math.sqrt(2.0)) * (lower.T - lower)
    x = (lower + lower.T) / (math.sqrt(2.0) * scale)
    return np.linalg.matrix_power(x, {"Phi": 1, "PhiSquared": 2}[name]).astype(complex)


def _pendulum_closed_mean(name, state):
    return state.hbar / (state.inertia * state.omega) * (state.n + 0.5) if name == "PhiSquared" else 0.0


def _number_state(state, size):
    c = np.zeros((1, size), dtype=complex)
    c[0, state.n] = 1.0
    return c


def pendulum_dense_pair(a, b, r, s, state, size=OSCILLATOR_SIZE):
    """((A - <A>)^r Psi, (B - <B>)^s Psi) of a pendulum by dense matrices on |0>..|size - 1>.

    Each centered factor is one matrix-vector product over the whole row,
    Lz times hbar; a Phi side against an Lz side is the conjugate of the
    swapped pair.
    """
    if b == "Lz" and a != "Lz":
        return np.conj(pendulum_dense_pair(b, a, s, r, state, size))

    def centered(name, power):
        mat = oscillator_matrix(name, state.scale, size)
        factor = state.hbar if name == "Lz" else 1.0
        mu = _pendulum_closed_mean(name, state)
        rows = _number_state(state, size)
        for _ in range(power):
            rows = factor * np.einsum("ij,pj->pi", mat, rows) - mu * rows
        return rows

    return complex(np.einsum("pi,pi->p", np.conj(centered(a, r)), centered(b, s))[0])


def pendulum_dense_commutator(a, b, state, size=OSCILLATOR_SIZE):
    """<[A, B]> of a pendulum: -i*hbar <d(phi symbol)/dphi> by a dense matrix, signed by the Lz side."""
    if (a == "Lz") == (b == "Lz"):
        return 0j
    mult, sign = (b, 1.0) if a == "Lz" else (a, -1.0)
    if mult == "Phi":
        deriv = np.eye(size, dtype=complex)
    else:
        deriv = 2.0 * oscillator_matrix("Phi", state.scale, size)
    c = _number_state(state, size)
    form = np.einsum("pi,pi->p", np.conj(c), np.einsum("ij,pj->pi", deriv, c))
    return complex(sign * (-1j) * state.hbar * form[0])


def split_top(text, sep):
    """Split on ``sep`` at bracket depth zero, one character at a time."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def hermite_rule(n):
    """numpy's Gauss-Hermite nodes and weights: the full-size companion eigensolve."""
    return np.polynomial.hermite.hermgauss(n)


def theta_overlap_per_power(l, power):
    """The polar overlap matrix built as before polar tables were shared.

    One Legendre table per call, on the package's own 2l + 32 node rule and
    recurrence, so that the shared-table matrices can be compared bit for bit.
    """
    from lzphi import _kernels, numerics

    rule = numerics.gauss_legendre(2 * l + 32, 0.0, math.pi)
    th = rule.nodes
    table = _kernels.legendre_grid(l, np.cos(th))
    ms = range(-l, l + 1)
    big = table[[abs(m) for m in ms]]
    odd_negative = [m < 0 and m % 2 == 1 for m in ms]
    big[odd_negative] = -big[odd_negative]
    weighted = big * (rule.weights * np.sin(th) * th**power)
    return np.einsum("it,jt->ij", weighted, big)


def symbol_sum(symbol, constant):
    """``symbol`` plus a constant term, as a new Symbol of the package's algebra."""
    terms = dict(symbol.terms)
    terms[(0, 0, 0)] = terms.get((0, 0, 0), 0.0) + constant
    return type(symbol)(terms)


def decimal_pi(digits):
    """pi to ``digits`` significant digits, by the series of the decimal module's recipe."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 2
        lasts, t, s, n, na, d, da = 0, decimal.Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        ctx.prec = digits
        return +s


def phi_fourier_moment_exact(k, p, digits=60):
    """(1/2*pi) int_0^2pi phi^p exp(i*k*phi) dphi for k != 0, summed at ``digits`` digits.

    p integrations by parts with exp(2*pi*i*k) = 1 leave the finite sum
    (2*pi)^p sum_(j=0..p-1) (-1)^j p!/(p-j)! (2*pi*i*k)^(-(j+1)). Its
    coefficients are exact fractions and its powers of i exact signs; only
    pi is rounded.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        two_pi = 2 * decimal_pi(digits)
        parts = [decimal.Decimal(0), decimal.Decimal(0)]
        for j in range(p):
            coeff = Fraction((-1) ** j * math.factorial(p) // math.factorial(p - j), k ** (j + 1))
            value = decimal.Decimal(coeff.numerator) / coeff.denominator * two_pi ** (p - j - 1)
            # i^(-(j+1)) = (-i)^(j+1) is -i, -1, i, 1 in turn
            part, sign = [(1, -1), (0, -1), (1, 1), (0, 1)][j % 4]
            parts[part] += sign * value
        return complex(float(parts[0]), float(parts[1]))
