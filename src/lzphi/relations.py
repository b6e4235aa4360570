"""The uncertainty-relation catalog and its applicability diagnostics.

Each relation compares a left-hand side built from standard deviations
against the right-hand side printed in the source inequality. Relations
whose derivation assumes the symmetric-pairing conditions carry a gate:
when the symmetry deficit of the operative pair is nonzero the verdict
is NotApplicable rather than a numeric comparison.

Every moment a relation reads (standard deviations, means, correlations,
commutator means, the gamma-weighted sum and the pair deficits) comes
from a ``moments.MomentStack``, which computes each quantity once for all
of its rows. A relation is evaluated the same way: for each
``(relation, params, tol)`` its lhs, rhs, verdict, condition31 and
diagnostics are one column over all rows of a stack, computed on first
use and kept beside the stack. ``share_moments`` stacks a set of states,
one stack per basis, and ``evaluate`` reads a state's row while the state
is the same object; for any other state it stacks that state alone. No
setting enters these moments and states are immutable, so an identical
state always has the same moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import enum
import math

import numpy as np

from . import moments as mo
from . import numerics
from . import observables as obs
from . import states as st


class RelationId(str, enum.Enum):
    R5 = "R5"
    R6 = "R6"
    R7 = "R7"
    R8 = "R8"
    R10 = "R10"
    R11 = "R11"
    R12 = "R12"
    R14 = "R14"
    R15 = "R15"
    R30 = "R30"
    R33 = "R33"
    R36 = "R36"
    R52 = "R52"
    R58 = "R58"
    R60 = "R60"


class Verdict(str, enum.Enum):
    SATISFIED = "Satisfied"
    SATISFIED_WITH_EQUALITY = "SatisfiedWithEquality"
    VIOLATED = "Violated"
    INDETERMINATE = "Indeterminate"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class RelationParams:
    """Optional knobs: alpha for R8, the winding pair for R12, a pair for R60."""

    alpha: float | None = None
    N: int | None = None
    N1: int | None = None
    pair: tuple | None = None


NO_PARAMS = RelationParams()


@dataclass(frozen=True)
class RelationReport:
    relation: RelationId
    lhs: float
    rhs: float
    verdict: Verdict
    diagnostics: dict = field(compare=False)
    condition31: bool = True
    state_name: str = ""


_ALL = ("circular", "rotor", "spherical", "pendulum")
_PERIODIC = ("circular", "rotor")
_NO_PENDULUM = ("circular", "rotor", "spherical")

#: family applicability, parameter names, and a plain-text rendering per id
CATALOG = {
    RelationId.R5: (_ALL, (), "dLz*dphi >= hbar/2"),
    RelationId.R6: (_ALL, (), "dLz*dphi / (1 - 3*(dphi/pi)^2) >= 0.16*hbar"),
    RelationId.R7: (_ALL, (), "dLz^2*dphi^2 / (1 - dphi^2) >= hbar^2/4"),
    RelationId.R8: (
        _ALL,
        ("alpha",),
        "dLz^2 + (hbar*alpha/2)^2*dphi^2 >= (hbar^2/2)*(sqrt(9/pi^2 + alpha^2) - 3/pi^2)",
    ),
    RelationId.R10: (_NO_PENDULUM, (), "dLz^2*d(sin phi)^2 >= (hbar^2/4)*<cos^2 phi>"),
    RelationId.R11: (_NO_PENDULUM, (), "dLz^2*d(cos phi)^2 >= (hbar^2/4)*<sin^2 phi>"),
    RelationId.R12: (
        _ALL,
        ("N", "N1"),
        "dLz*dchi >= hbar/2 with dchi = sqrt(2*pi^2*(1/12 + N^2 - N1^2 + N - N1)), N != N1",
    ),
    RelationId.R14: (_ALL, (), "dLz^2 + hbar^2*dphi^2 >= hbar^2"),
    RelationId.R15: (_PERIODIC, (), "dLz*dphi >= (hbar/2)*|1 - 2*pi*|psi(2*pi)|^2|"),
    RelationId.R30: (_ALL, (), "dLz*dphi >= |corr(Lz, phi)|"),
    RelationId.R33: (_ALL, (), "dLz*dphi >= hbar/2 [gated on zero Lz-phi deficit]"),
    RelationId.R36: (("spherical",), (), "dtheta*dphi >= |corr(theta, phi)|"),
    RelationId.R52: (_PERIODIC, (), "dLz*dphi >= (hbar/2)*|1 - 2*pi*|psi(2*pi)|^2|"),
    RelationId.R58: (
        ("spherical",),
        (),
        "dLz*dphi >= (hbar/2)*|1 - sum_mm' conj(c_m)*c_m'*gamma(l,m,m')|",
    ),
    RelationId.R60: (
        _ALL,
        ("a", "b"),
        "dA*dB >= (1/2)*|<[A, B]>| [gated on zero pair deficits]",
    ),
}

#: excluded inequalities, kept out of the enumeration on purpose
EXCLUDED = {"R9": "excluded: under-specified", "R13": "excluded: under-specified"}


def gamma(l: int, m: int, m1: int) -> float:
    """Polar overlap integral of two same-l factors over [0, pi], on the rule sized from l.

    With the Condon-Shortley convention gamma(l, m, -m) = (-1)**m; only the
    magnitude enters the relation that consumes it.
    """
    if l < 0 or l > numerics.MAX_ORBITAL_L:
        raise ValueError(f"gamma supports 0 <= l <= {numerics.MAX_ORBITAL_L}, got {l}")
    if abs(m) > l or abs(m1) > l:
        raise ValueError(f"gamma needs |m|, |m1| <= l, got l={l}, m={m}, m1={m1}")
    table = numerics.theta_overlap_matrix(l, 0)
    return float(np.real(table[m + l, m1 + l]))


def delta_chi(N: int, N1: int) -> float:
    """The printed state-independent width of chi = phi + 2*pi*N."""
    if N == N1:
        raise ValueError("delta_chi requires N != N1")
    whole = (N - N1) * (N + N1 + 1)  # N^2 - N1^2 + N - N1 with no float cancellation
    if whole < 0:
        raise ValueError(f"delta_chi radicand is negative ({whole} + 1/12) for N={N}, N1={N1}")
    try:
        radicand = 2.0 * math.pi**2 * (whole + 1.0 / 12.0)
    except OverflowError:
        radicand = math.inf
    if not math.isfinite(radicand):
        raise ValueError("delta_chi is not a finite float: the windings N, N1 are too large")
    return math.sqrt(radicand)


def fourier_boundary_term(state) -> float:
    """|1 - 2*pi*|psi(2*pi)|^2| for periodic-in-phi states.

    exp(i*m*2*pi) = 1 for every integer m, so 2*pi*|psi(2*pi)|^2 is exactly
    |sum_m c_m|^2, with no phase formed in floating point.
    """
    fam = st.family_of(state)
    if fam not in _PERIODIC:
        raise ValueError(f"fourier_boundary_term needs a periodic family, got {fam}")
    return abs(1.0 - abs(st.coeff_vector(state).sum()) ** 2)


def gamma_weighted_sum(state) -> float:
    """sum_mm' conj(c_m) c_m' gamma(l, m, m') for a spherical state."""
    return float(mo.MomentStack((state,)).gamma_sum()[0])


def share_moments(states) -> None:
    """Have ``evaluate`` read the moments of ``states`` from shared stacks.

    States that share a basis become the rows of one ``moments.MomentStack``,
    so each quantity, and each relation's verdict, is computed once for all
    of them. The stacks are kept until the next call, or until ``evaluate``
    meets a state outside them.
    """
    global _shared
    _shared = _stacked(states)


def evaluate(
    relation: RelationId,
    state,
    params: RelationParams | None = None,
    tol: float = 1e-9,
    *,
    state_name: str = "",
) -> RelationReport:
    """Evaluate one relation against one state and report the verdict.

    Raises ValueError on family mismatch, invalid parameters, or a left
    side, right side or diagnostic that is not finite; every other numeric
    outcome (including trivial 0 >= 0 degenerations and gate failures)
    comes back as a report. The numbers are the state's row of a column
    computed once for every row of its moment stack.
    """
    relation = RelationId(relation)
    params = params or NO_PARAMS
    fam = st.family_of(state)
    families, _, _ = CATALOG[relation]
    if fam not in families:
        raise ValueError(f"relation {relation.value} is not defined on the {fam} family")
    constants = _checked_constants(relation, params, state)
    rows, index = _moment_row(state)
    return rows.column(relation, params, tol).report(index, constants, state_name)


def _checked_constants(relation, params, state) -> dict:
    """The diagnostics that depend on ``params`` alone; raises on invalid params."""
    if relation == RelationId.R8:
        if params.alpha is None or not math.isfinite(params.alpha):
            raise ValueError("R8 requires a finite real parameter alpha")
        return {"alpha": params.alpha}
    if relation == RelationId.R12:
        if params.N is None or params.N1 is None:
            raise ValueError("R12 requires integer parameters N and N1")
        return {"delta_chi": delta_chi(params.N, params.N1)}
    if relation == RelationId.R60:
        for kind in _operative_pair(relation, params):
            obs.check_applicable(kind, state)
    return {}


#: verdict codes of a column, in the order the decision rule tries them
_VERDICTS = (
    Verdict.NOT_APPLICABLE,
    Verdict.INDETERMINATE,
    Verdict.SATISFIED_WITH_EQUALITY,
    Verdict.SATISFIED,
    Verdict.VIOLATED,
)


class _Column:
    """One relation's numbers for every row of a moment stack, as Python lists."""

    __slots__ = ("relation", "lhs", "rhs", "verdicts", "condition31", "trivial", "finite",
                 "diagnostics")

    def __init__(self, relation, lhs, rhs, codes, condition31, trivial, diagnostics):
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        for values in diagnostics.values():
            finite &= np.isfinite(values)
        self.relation = relation
        self.lhs = lhs.tolist()
        self.rhs = rhs.tolist()
        self.verdicts = [_VERDICTS[code] for code in codes.tolist()]
        self.condition31 = condition31.tolist()
        self.trivial = trivial.tolist()
        self.finite = finite.tolist()
        self.diagnostics = [(name, values.tolist()) for name, values in diagnostics.items()]

    def report(self, index, constants, state_name) -> RelationReport:
        """The report of row ``index``; a row with a non-finite number is a ValueError."""
        if not self.finite[index]:
            raise ValueError(
                f"relation {self.relation.value} is not finite on this state "
                f"(lhs={self.lhs[index]!r}, rhs={self.rhs[index]!r}); its moments overflow"
            )
        diag = {name: values[index] for name, values in self.diagnostics}
        diag.update(constants)
        if self.trivial[index]:
            diag["trivial_zero"] = 1.0
        return RelationReport(
            relation=self.relation,
            lhs=self.lhs[index],
            rhs=self.rhs[index],
            verdict=self.verdicts[index],
            diagnostics=diag,
            condition31=self.condition31[index],
            state_name=state_name,
        )


class _StackRows:
    """A moment stack and its relation columns, each computed on first use."""

    __slots__ = ("moments", "columns")

    def __init__(self, moments):
        self.moments = moments
        self.columns = {}

    def column(self, relation, params, tol) -> _Column:
        key = (relation, params, tol)
        try:
            return self.columns[key]
        except KeyError:
            # a row whose numbers overflow is refused when it is read
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                column = _relation_column(self.moments, relation, params, tol)
            self.columns[key] = column
            return column


def _relation_column(stack, relation, params, tol) -> _Column:
    """lhs, rhs, verdict, condition31 and diagnostics of ``relation`` on every row.

    Each expression is the scalar formula of the catalog applied to whole
    rows.
    """
    fam = st.family_of(stack.states[0])
    pair = _operative_pair(relation, params)
    deficits = _pair_deficits(pair, stack, fam)
    deficit_abs = np.maximum.reduce([_cabs(d) for d in deficits.values()])
    condition31 = deficit_abs <= tol
    diag = {
        "deficit_ab_re": deficits["ab"].real,
        "deficit_ab_im": deficits["ab"].imag,
        "deficit_abs": deficit_abs,
    }

    hbar = stack.hbar
    gated = relation in (RelationId.R33, RelationId.R60)
    indeterminate = np.zeros(len(hbar), dtype=bool)

    if relation in (RelationId.R5, RelationId.R33):
        lhs = stack.std(obs.LZ) * stack.std(obs.PHI)
        rhs = hbar / 2.0
    elif relation == RelationId.R6:
        dphi = stack.std(obs.PHI)
        den = 1.0 - 3.0 * (dphi / math.pi) ** 2
        diag["denominator"] = den
        indeterminate = (den <= 0) | (np.abs(den) < tol)
        lhs = np.where(indeterminate, 0.0, stack.std(obs.LZ) * dphi / den)
        rhs = 0.16 * hbar
    elif relation == RelationId.R7:
        dphi = stack.std(obs.PHI)
        den = 1.0 - dphi**2
        diag["denominator"] = den
        indeterminate = (den <= 0) | (np.abs(den) < tol)
        lhs = np.where(indeterminate, 0.0, stack.std(obs.LZ) ** 2 * dphi**2 / den)
        rhs = hbar**2 / 4.0
    elif relation == RelationId.R8:
        alpha = params.alpha
        lhs = stack.std(obs.LZ) ** 2 + (hbar * alpha / 2.0) ** 2 * stack.std(obs.PHI) ** 2
        rhs = hbar**2 / 2.0 * (math.hypot(3.0 / math.pi, alpha) - 3.0 / math.pi**2)
    elif relation in (RelationId.R10, RelationId.R11):
        trig = obs.SIN_PHI if relation == RelationId.R10 else obs.COS_PHI
        other = obs.COS_PHI if relation == RelationId.R10 else obs.SIN_PHI
        sq = stack.mean(other) ** 2 + stack.std(other) ** 2
        diag["mean_square"] = sq
        lhs = stack.std(obs.LZ) ** 2 * stack.std(trig) ** 2
        rhs = hbar**2 / 4.0 * sq
    elif relation == RelationId.R12:
        lhs = stack.std(obs.LZ) * delta_chi(params.N, params.N1)
        rhs = hbar / 2.0
    elif relation == RelationId.R14:
        lhs = stack.std(obs.LZ) ** 2 + hbar**2 * stack.std(obs.PHI) ** 2
        rhs = hbar**2
    elif relation in (RelationId.R15, RelationId.R52):
        boundary = np.array([fourier_boundary_term(state) for state in stack.states])
        diag["boundary_term"] = boundary
        lhs = stack.std(obs.LZ) * stack.std(obs.PHI)
        rhs = hbar / 2.0 * boundary
    elif relation in (RelationId.R30, RelationId.R36):
        a = obs.LZ if relation == RelationId.R30 else obs.THETA
        corr = stack.pair(a, obs.PHI, 1, 1)
        diag["corr_re"] = corr.real
        diag["corr_im"] = corr.imag
        lhs = stack.std(a) * stack.std(obs.PHI)
        rhs = _cabs(corr)
    elif relation == RelationId.R58:
        gsum = stack.gamma_sum()
        diag["gamma_sum"] = gsum
        lhs = stack.std(obs.LZ) * stack.std(obs.PHI)
        rhs = hbar / 2.0 * np.abs(1.0 - gsum)
    elif relation == RelationId.R60:
        a, b = pair
        comm = stack.commutator(a, b)
        diag["commutator_re"] = comm.real
        diag["commutator_im"] = comm.imag
        lhs = stack.std(a) * stack.std(b)
        rhs = _cabs(comm) / 2.0
    else:  # pragma: no cover - closed enumeration
        raise AssertionError(relation)

    # the decision rule; np.select takes the first condition that holds
    not_applicable = ~condition31 if gated else np.zeros_like(condition31)
    trivial = (lhs <= tol) & (rhs <= tol)
    codes = np.select(
        [not_applicable, indeterminate, trivial, np.abs(lhs - rhs) <= tol, lhs >= rhs - tol],
        [0, 1, 2, 2, 3],
        default=4,
    )
    trivial &= ~not_applicable & ~indeterminate
    return _Column(relation, lhs, rhs, codes, condition31, trivial, diag)


def _cabs(z: np.ndarray) -> np.ndarray:
    """|z| by libm hypot, as Python's abs(complex) computes it."""
    return np.hypot(z.real, z.imag)


def _stacked(states):
    """{id(state): (stack rows, index)} over the stacks of ``states``.

    Each stack holds its states, so an id found here names that state.
    """
    rows = {}
    for stack in mo.stacks(states):
        stack_rows = _StackRows(stack)
        for index, state in enumerate(stack.states):
            rows[id(state)] = (stack_rows, index)
    return rows


#: the shared rows of the last ``share_moments``; replaced in one assignment,
#: so a thread race costs a recomputation, not a wrong number
_shared = {}


def _moment_row(state):
    """(stack rows, index) of ``state`` in the shared stacks, or of a fresh one-row stack."""
    global _shared
    row = _shared.get(id(state))
    if row is None:
        _shared = fresh = _stacked((state,))
        row = fresh[id(state)]
    return row


def _operative_pair(relation, params):
    if relation == RelationId.R36:
        return (obs.THETA, obs.PHI)
    if relation == RelationId.R60:
        if not params.pair:
            raise ValueError("R60 requires an observable pair in params")
        return params.pair
    return (obs.LZ, obs.PHI)


def _pair_deficits(pair, stack, fam):
    """The aa, ab, ba and bb symmetry deficits of every row; zero where a side is undefined."""
    a, b = pair
    out = {}
    for key, (x, y) in (("aa", (a, a)), ("ab", (a, b)), ("ba", (b, a)), ("bb", (b, b))):
        if obs.applicable(x, fam) and obs.applicable(y, fam):
            out[key] = stack.deficit(x, y)
        else:
            out[key] = np.zeros(len(stack.states), dtype=np.complex128)
    return out
