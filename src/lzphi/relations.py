"""The uncertainty-relation catalog and its applicability diagnostics.

Each relation compares a left-hand side built from standard deviations
against the right-hand side printed in the source inequality. Relations
whose derivation assumes the symmetric-pairing conditions carry a gate:
when the symmetry deficit of the operative pair is nonzero the verdict
is NotApplicable rather than a numeric comparison.

Every moment a relation reads (standard deviations, means, correlations,
commutator means, the seam density and the pair deficits) comes from a
``moments.MomentStack``, which computes each quantity once for all of its
rows. The seam density 2*pi*|psi(2*pi)|^2 is the one boundary quantity:
the gate's Lz-phi deficit is i*hbar times it, and R15, R52 and R58 all
read rhs = (hbar/2)*|1 - seam density|. A relation is evaluated the same
way: for each ``(relation, params, tol)`` its lhs, rhs, verdict,
condition31 and diagnostics are one column over all rows of a stack,
computed on first use and kept in the stack's one memo, beside its
moments. One builder, ``_relation_column``, checks the family and the
params, computes lhs, rhs and the diagnostics (the params-only alpha and
delta_chi as columns of equal rows), and ends in one decision step,
``_decide``, that reads the column's own numbers alone. A report is a row
of its column. ``report_rows`` stacks every state it walks, one stack per
basis, then walks a document in report order (point, state, selection),
one ``evaluate`` per report, and releases its stacks when it ends; a lone
``evaluate`` on any other state is a one-row stack. No setting enters
these moments and states are immutable, so an identical state always has
the same moments.
"""

from __future__ import annotations

from dataclasses import dataclass
import enum
import math
import numbers
import operator

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
    """Optional knobs: alpha for R8, the winding pair for R12, a pair for R60.

    N is R12's alone: a Chi side of R60 carries its own winding (``observables.chi``).
    """

    alpha: float | None = None
    N: int | None = None
    N1: int | None = None
    pair: tuple | None = None


NO_PARAMS = RelationParams()


class RowOverflowError(ValueError):
    """A report whose lhs, rhs or a diagnostic is not a finite float: its moments overflow.

    An input error, coded ``[overflow]`` in its message. ``point`` is the
    index of the point ``report_rows`` was walking (0 for a lone ``evaluate``).
    """

    point = 0


class RelationReport:
    """One report: row ``index`` of a relation's column, for the state named ``state_name``.

    ``relation``, ``lhs``, ``rhs``, ``verdict``, ``condition31`` and
    ``diagnostics`` read through to the column. Reports come from
    ``evaluate``.
    """

    __slots__ = ("column", "index", "state_name")

    def __init__(self, column, index, state_name):
        self.column = column
        self.index = index
        self.state_name = state_name

    relation = property(lambda self: self.column.relation)
    lhs = property(lambda self: self.column.lhs[self.index])
    rhs = property(lambda self: self.column.rhs[self.index])
    verdict = property(lambda self: self.column.verdicts[self.index])
    condition31 = property(lambda self: self.column.condition31[self.index])

    @property
    def diagnostics(self) -> dict:
        """The row's diagnostics, then trivial_zero = 1 on a trivial 0 >= 0 row."""
        diag = {name: values[self.index] for name, values in self.column.diagnostics}
        if self.column.trivial[self.index]:
            diag["trivial_zero"] = 1.0
        return diag

    def __repr__(self):
        return (f"RelationReport({self.relation.value}, lhs={self.lhs!r}, rhs={self.rhs!r}, "
                f"verdict={self.verdict.value}, state_name={self.state_name!r})")


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
    """|1 - 2*pi*|psi(2*pi)|^2| for periodic-in-phi states; 2*pi*|psi(2*pi)|^2 is the seam density."""
    fam = st.family_of(state)
    if fam not in _PERIODIC:
        raise ValueError(f"fourier_boundary_term needs a periodic family, got {fam}")
    return float(np.abs(1.0 - mo.MomentStack((state,)).seam(0)[0]))


def gamma_weighted_sum(state) -> float:
    """sum_mm' conj(c_m) c_m' gamma(l, m, m'), the seam density of a spherical state."""
    if st.family_of(state) != "spherical":
        raise ValueError("the gamma-weighted sum needs spherical states")
    return float(mo.MomentStack((state,)).seam(0)[0])


def report_rows(points, tol: float):
    """Yield (point index, report) over ``points``, (states, selections) pairs, in report order.

    The states of all points are stacked first, one ``moments.MomentStack``
    per basis, so each quantity and verdict is computed once for all rows.
    The order is point, then state, then selection; a report that cannot be
    made raises when it is reached, so the first error in report order is
    the one raised (a ``RowOverflowError`` names its point). The stacks are
    released when the walk ends, however it ends.
    """
    global _shared
    points = list(points)
    _shared = _stacked(state for states, _ in points for _, state in states)
    try:
        for point, (states, selections) in enumerate(points):
            for name, state in states:
                for relation, params in selections:
                    try:
                        report = evaluate(relation, state, params, tol, state_name=name)
                    except RowOverflowError as exc:
                        exc.point = point
                        raise
                    yield point, report
    finally:
        _shared = {}


def evaluate(
    relation: RelationId,
    state,
    params: RelationParams | None = None,
    tol: float = 1e-9,
    *,
    state_name: str = "",
) -> RelationReport:
    """Evaluate one relation against one state and report the verdict.

    Raises ValueError on family mismatch, invalid parameters or tolerance, and its
    ``RowOverflowError`` on a left side, right side or diagnostic that is
    not finite; every other numeric outcome (including trivial 0 >= 0
    degenerations and gate failures) comes back as a report.
    """
    params = params or NO_PARAMS
    stack, index = _moment_row(state)
    # a str names its RelationId in the key: the two hash and compare alike
    try:
        column = stack.once((relation, params, tol), _relation_column, stack, relation, params, tol)
    except TypeError:
        param_constants(RelationId(relation), params)  # an unhashable field it refuses: ValueError
        raise
    if not column.finite[index]:
        raise RowOverflowError(
            f"[overflow] relation {column.relation.value} is not finite on "
            f"{f'state {state_name}' if state_name else 'this state'} "
            f"(lhs={column.lhs[index]!r}, rhs={column.rhs[index]!r}); its moments overflow"
        )
    return RelationReport(column, index, state_name)


def _check_family(relation, params, state) -> None:
    """Raise ValueError if ``relation``, or a side of its R60 pair, is not defined on the state's family."""
    fam = st.family_of(state)
    if fam not in CATALOG[relation][0]:
        raise ValueError(f"relation {relation.value} is not defined on the {fam} family")
    if relation == RelationId.R60:
        for kind in params.pair:
            obs.check_applicable(kind, state)


def param_constants(relation, params) -> dict:
    """The diagnostics of ``params`` alone (alpha, delta_chi); ValueError on params ``relation`` refuses."""
    if relation == RelationId.R8:
        alpha = params.alpha
        if not (isinstance(alpha, numbers.Real) and math.isfinite(alpha)):
            raise ValueError("R8 requires a finite real parameter alpha")
        return {"alpha": float(alpha)}
    if relation == RelationId.R12:
        try:
            N, N1 = operator.index(params.N), operator.index(params.N1)
        except TypeError:
            raise ValueError("R12 requires integer parameters N and N1") from None
        return {"delta_chi": delta_chi(N, N1)}
    if relation == RelationId.R60:
        if params.N is not None:
            raise ValueError("R60 takes no N: a Chi side carries its own winding (observables.chi)")
        pair = params.pair
        if not (isinstance(pair, tuple) and len(pair) == 2
                and all(isinstance(kind, obs.ObservableKind) for kind in pair)):
            raise ValueError(f"R60 requires an observable pair in params: two ObservableKinds, got {pair!r}")
    return {}


#: verdict codes of a column, in the order the decision rule tries them
_VERDICTS = np.array([
    Verdict.NOT_APPLICABLE,
    Verdict.INDETERMINATE,
    Verdict.SATISFIED_WITH_EQUALITY,
    Verdict.SATISFIED,
    Verdict.VIOLATED,
], dtype=object)


class _Column:
    """One relation's numbers for every row of a moment stack, as Python lists,
    and ``distinct_verdicts``, the verdicts its rows take."""

    __slots__ = ("relation", "lhs", "rhs", "verdicts", "distinct_verdicts", "condition31",
                 "trivial", "finite", "diagnostics")

    def __init__(self, relation, lhs, rhs, codes, condition31, trivial, diagnostics):
        # lhs, rhs and the diagnostics as the rows of one block: one finiteness test, one list
        block = np.array([lhs, rhs, *diagnostics.values()])
        self.relation = relation
        self.lhs, self.rhs, *values = block.tolist()
        self.verdicts = _VERDICTS[codes].tolist()
        self.distinct_verdicts = tuple(_VERDICTS[np.bincount(codes, minlength=len(_VERDICTS)) > 0])
        self.condition31 = condition31.tolist()
        self.trivial = trivial.tolist()
        self.finite = np.isfinite(block).all(axis=0).tolist()
        self.diagnostics = list(zip(diagnostics, values))


# a row whose numbers overflow is refused when evaluate reads it
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _relation_column(stack, relation, params, tol) -> _Column:
    """lhs, rhs, verdict, condition31 and diagnostics of ``relation`` on every row.

    The family and the params are checked first; each expression is the catalog's scalar
    formula applied to whole rows; one decision step reads the column's numbers alone.
    """
    relation = RelationId(relation)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    constants = param_constants(relation, params)  # first: _check_family reads R60's pair
    _check_family(relation, params, stack.states[0])
    # the ab and ba symmetry deficits; the aa and bb deficits are 0 by structure
    a, b = _operative_pair(relation, params)
    ab, ba = stack.deficit(a, b), stack.deficit(b, a)
    deficit_abs = np.maximum(_cabs(ab), _cabs(ba))
    condition31 = deficit_abs <= tol
    diag = {"deficit_ab_re": ab.real, "deficit_ab_im": ab.imag, "deficit_abs": deficit_abs}

    hbar = stack.hbar

    if relation in (RelationId.R5, RelationId.R33):
        lhs = stack.std(obs.LZ) * stack.std(obs.PHI)
        rhs = hbar / 2.0
    elif relation == RelationId.R6:
        dphi = stack.std(obs.PHI)
        den = 1.0 - 3.0 * (dphi / math.pi) ** 2
        diag["denominator"] = den
        lhs = stack.std(obs.LZ) * dphi / den
        rhs = 0.16 * hbar
    elif relation == RelationId.R7:
        dphi = stack.std(obs.PHI)
        den = 1.0 - dphi**2
        diag["denominator"] = den
        lhs = stack.std(obs.LZ) ** 2 * dphi**2 / den
        rhs = hbar**2 / 4.0
    elif relation == RelationId.R8:
        alpha = constants["alpha"]
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
        lhs = stack.std(obs.LZ) * constants["delta_chi"]
        rhs = hbar / 2.0
    elif relation == RelationId.R14:
        lhs = stack.std(obs.LZ) ** 2 + hbar**2 * stack.std(obs.PHI) ** 2
        rhs = hbar**2
    elif relation in (RelationId.R15, RelationId.R52, RelationId.R58):
        # |1 - seam density|: |1 - 2*pi*|psi(2*pi)|^2| on the circle, |1 - gamma sum| on a sphere
        seam = stack.seam(0)
        boundary = np.abs(1.0 - seam)
        if relation == RelationId.R58:
            diag["gamma_sum"] = seam
        else:
            diag["boundary_term"] = boundary
        lhs = stack.std(obs.LZ) * stack.std(obs.PHI)
        rhs = hbar / 2.0 * boundary
    elif relation in (RelationId.R30, RelationId.R36):
        # a is the operative pair's Lz (R30) or Theta (R36)
        corr = stack.pair(a, obs.PHI, 1, 1)
        diag["corr_re"] = corr.real
        diag["corr_im"] = corr.imag
        lhs = stack.std(a) * stack.std(obs.PHI)
        rhs = _cabs(corr)
    elif relation == RelationId.R60:
        comm = stack.commutator(a, b)
        diag["commutator_re"] = comm.real
        diag["commutator_im"] = comm.imag
        lhs = stack.std(a) * stack.std(b)
        rhs = _cabs(comm) / 2.0
    else:  # pragma: no cover - closed enumeration
        raise AssertionError(relation)

    diag.update((name, np.full(len(hbar), value)) for name, value in constants.items())
    gated = relation in (RelationId.R33, RelationId.R60)
    lhs, codes, trivial = _decide(lhs, rhs, condition31, diag.get("denominator"), gated, tol)
    return _Column(relation, lhs, rhs, codes, condition31, trivial, diag)


def _decide(lhs, rhs, condition31, den, gated: bool, tol: float):
    """The decision step over a column's rows: (lhs, verdict codes, trivial flags).

    A row takes the first rule that holds: NotApplicable (a gated relation
    with condition31 false), Indeterminate (a denominator ``den`` <= 0 or
    below tol in size), SatisfiedWithEquality (a trivial 0 >= 0, lhs and rhs
    both <= tol, or |lhs - rhs| <= tol), Satisfied (lhs >= rhs - tol), else
    Violated. Each rule, from the last to the first, overwrites the codes of
    the rows it holds on. An indeterminate row prints lhs 0; ``trivial``
    marks the trivial rows that no earlier rule took.
    """
    indeterminate = None if den is None else (den <= 0) | (np.abs(den) < tol)
    if indeterminate is not None:
        lhs = np.where(indeterminate, 0.0, lhs)
    trivial = (lhs <= tol) & (rhs <= tol)
    codes = np.full(len(lhs), 4)
    codes[lhs >= rhs - tol] = 3
    codes[trivial | (np.abs(lhs - rhs) <= tol)] = 2
    if indeterminate is not None:
        codes[indeterminate] = 1
        trivial &= ~indeterminate
    if gated:
        codes[~condition31] = 0
        trivial &= condition31
    return lhs, codes, trivial


def _cabs(z: np.ndarray) -> np.ndarray:
    """|z| by libm hypot, as Python's abs(complex) computes it."""
    return np.hypot(z.real, z.imag)


def _stacked(states):
    """{id(state): (stack, index)} over the stacks of ``states``.

    Each stack holds its states, so an id found here names that state.
    """
    return {id(state): (stack, index)
            for stack in mo.stacks(states) for index, state in enumerate(stack.states)}


#: the rows of the walk under way or of the last lone state; replaced in one
#: assignment, so a thread race costs a recomputation, not a wrong number
_shared = {}


def _moment_row(state):
    """(stack, index) of ``state`` in the shared stacks, or of a fresh one-row stack."""
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
        return params.pair
    return (obs.LZ, obs.PHI)

