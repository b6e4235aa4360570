"""The uncertainty-relation catalog and its applicability diagnostics.

Each relation compares a left-hand side built from standard deviations
against the right-hand side printed in the source inequality. Relations
whose derivation assumes the symmetric-pairing conditions carry a gate:
when the symmetry deficit of the operative pair is nonzero the verdict
is NotApplicable rather than a numeric comparison.

Every moment a relation reads (standard deviations, means, correlations,
commutator means, the gamma-weighted sum and the pair deficits) comes
from a ``moments.MomentStack``, which computes each quantity once for all
of its rows. ``share_moments`` stacks a set of states, one stack per
basis, and ``evaluate`` reads a state's row while the state and settings
are the same objects; for any other state or settings object it stacks
that state alone. States and settings are immutable, so an identical
object always has the same moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import enum
import math

import numpy as np

from . import engine
from . import moments as mo
from . import numerics
from . import observables as obs
from . import states as st
from .numerics import TWO_PI


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


def gamma(l: int, m: int, m1: int, *, settings: engine.EngineSettings | None = None) -> float:
    """Polar overlap integral of two same-l factors over [0, pi], by quadrature.

    With the Condon-Shortley convention gamma(l, m, -m) = (-1)**m; only the
    magnitude enters the relation that consumes it.
    """
    if l < 0 or l > numerics.MAX_ORBITAL_L:
        raise ValueError(f"gamma supports 0 <= l <= {numerics.MAX_ORBITAL_L}, got {l}")
    if abs(m) > l or abs(m1) > l:
        raise ValueError(f"gamma needs |m|, |m1| <= l, got l={l}, m={m}, m1={m1}")
    settings = engine.resolve(settings)
    table = numerics.theta_overlap_matrix(l, 0, settings.theta_nodes)
    return float(np.real(table[m + l, m1 + l]))


def delta_chi(N: int, N1: int) -> float:
    """The printed state-independent width of chi = phi + 2*pi*N."""
    if N == N1:
        raise ValueError("delta_chi requires N != N1")
    radicand = 2.0 * math.pi**2 * (1.0 / 12.0 + N * N - N1 * N1 + N - N1)
    if radicand < 0:
        raise ValueError(f"delta_chi radicand is negative ({radicand!r}) for N={N}, N1={N1}")
    return math.sqrt(radicand)


def fourier_boundary_term(state) -> float:
    """|1 - 2*pi*|psi(2*pi)|^2| for periodic-in-phi states."""
    fam = st.family_of(state)
    if fam not in _PERIODIC:
        raise ValueError(f"fourier_boundary_term needs a periodic family, got {fam}")
    psi_edge = st.wavefunction(state, TWO_PI)
    return abs(1.0 - TWO_PI * abs(psi_edge) ** 2)


def gamma_weighted_sum(state, *, settings=None) -> float:
    """sum_mm' conj(c_m) c_m' gamma(l, m, m') for a spherical state."""
    return float(mo.MomentStack((state,), settings).gamma_sum()[0])


def share_moments(states, settings: engine.EngineSettings | None = None) -> None:
    """Have ``evaluate`` read the moments of ``states`` from shared stacks.

    States that share a basis become the rows of one ``moments.MomentStack``,
    so each quantity is computed once for all of them. The stacks are kept
    until the next call, or until ``evaluate`` meets a state or settings
    object outside them.
    """
    global _shared
    _shared = _stacked(states, engine.resolve(settings))


def evaluate(
    relation: RelationId,
    state,
    params: RelationParams | None = None,
    tol: float = 1e-9,
    *,
    settings: engine.EngineSettings | None = None,
    state_name: str = "",
) -> RelationReport:
    """Evaluate one relation against one state and report the verdict.

    Raises ValueError on family mismatch or invalid parameters; every
    numeric outcome (including trivial 0 >= 0 degenerations and gate
    failures) comes back as a report.
    """
    relation = RelationId(relation)
    params = params or NO_PARAMS
    settings = engine.resolve(settings)
    fam = st.family_of(state)
    families, _, _ = CATALOG[relation]
    if fam not in families:
        raise ValueError(f"relation {relation.value} is not defined on the {fam} family")
    pair = _operative_pair(relation, params)
    table = _moment_row(state, settings)
    deficits = _pair_deficits(pair, table, fam)
    deficit_abs = max(abs(d) for d in deficits.values())
    condition31 = deficit_abs <= tol
    diag = {f"deficit_{k}_re": d.real for k, d in deficits.items() if k == "ab"}
    diag.update({f"deficit_{k}_im": d.imag for k, d in deficits.items() if k == "ab"})
    diag["deficit_abs"] = deficit_abs

    hbar = state.hbar
    gated = relation in (RelationId.R33, RelationId.R60)
    indeterminate = False

    if relation in (RelationId.R5, RelationId.R33):
        lhs = table.std(obs.LZ) * table.std(obs.PHI)
        rhs = hbar / 2.0
    elif relation == RelationId.R6:
        dphi = table.std(obs.PHI)
        den = 1.0 - 3.0 * (dphi / math.pi) ** 2
        diag["denominator"] = den
        if den <= 0 or abs(den) < tol:
            lhs, rhs, indeterminate = 0.0, 0.16 * hbar, True
        else:
            lhs = table.std(obs.LZ) * dphi / den
            rhs = 0.16 * hbar
    elif relation == RelationId.R7:
        dphi = table.std(obs.PHI)
        den = 1.0 - dphi**2
        diag["denominator"] = den
        if den <= 0 or abs(den) < tol:
            lhs, rhs, indeterminate = 0.0, hbar**2 / 4.0, True
        else:
            lhs = table.std(obs.LZ) ** 2 * dphi**2 / den
            rhs = hbar**2 / 4.0
    elif relation == RelationId.R8:
        if params.alpha is None or not math.isfinite(params.alpha):
            raise ValueError("R8 requires a finite real parameter alpha")
        alpha = params.alpha
        diag["alpha"] = alpha
        lhs = table.std(obs.LZ) ** 2 + (hbar * alpha / 2.0) ** 2 * table.std(obs.PHI) ** 2
        rhs = hbar**2 / 2.0 * (math.sqrt(9.0 / math.pi**2 + alpha**2) - 3.0 / math.pi**2)
    elif relation in (RelationId.R10, RelationId.R11):
        trig = obs.SIN_PHI if relation == RelationId.R10 else obs.COS_PHI
        other = obs.COS_PHI if relation == RelationId.R10 else obs.SIN_PHI
        sq = table.mean(other) ** 2 + table.std(other) ** 2
        diag["mean_square"] = sq
        lhs = table.std(obs.LZ) ** 2 * table.std(trig) ** 2
        rhs = hbar**2 / 4.0 * sq
    elif relation == RelationId.R12:
        if params.N is None or params.N1 is None:
            raise ValueError("R12 requires integer parameters N and N1")
        if params.N == params.N1:
            raise ValueError("R12 requires N != N1")
        dchi = delta_chi(params.N, params.N1)
        diag["delta_chi"] = dchi
        lhs = table.std(obs.LZ) * dchi
        rhs = hbar / 2.0
    elif relation == RelationId.R14:
        lhs = table.std(obs.LZ) ** 2 + hbar**2 * table.std(obs.PHI) ** 2
        rhs = hbar**2
    elif relation in (RelationId.R15, RelationId.R52):
        boundary = fourier_boundary_term(state)
        diag["boundary_term"] = boundary
        lhs = table.std(obs.LZ) * table.std(obs.PHI)
        rhs = hbar / 2.0 * boundary
    elif relation == RelationId.R30:
        corr = table.correlation(obs.LZ, obs.PHI)
        diag["corr_re"] = corr.real
        diag["corr_im"] = corr.imag
        lhs = table.std(obs.LZ) * table.std(obs.PHI)
        rhs = abs(corr)
    elif relation == RelationId.R36:
        corr = table.correlation(obs.THETA, obs.PHI)
        diag["corr_re"] = corr.real
        diag["corr_im"] = corr.imag
        lhs = table.std(obs.THETA) * table.std(obs.PHI)
        rhs = abs(corr)
    elif relation == RelationId.R58:
        gsum = table.gamma_sum()
        diag["gamma_sum"] = gsum
        lhs = table.std(obs.LZ) * table.std(obs.PHI)
        rhs = hbar / 2.0 * abs(1.0 - gsum)
    elif relation == RelationId.R60:
        a, b = pair
        comm = table.commutator(a, b)
        diag["commutator_re"] = comm.real
        diag["commutator_im"] = comm.imag
        lhs = table.std(a) * table.std(b)
        rhs = abs(comm) / 2.0
    else:  # pragma: no cover - closed enumeration
        raise AssertionError(relation)

    if gated and not condition31:
        verdict = Verdict.NOT_APPLICABLE
    elif indeterminate:
        verdict = Verdict.INDETERMINATE
    elif lhs <= tol and rhs <= tol:
        diag["trivial_zero"] = 1.0
        verdict = Verdict.SATISFIED_WITH_EQUALITY
    elif abs(lhs - rhs) <= tol:
        verdict = Verdict.SATISFIED_WITH_EQUALITY
    elif lhs >= rhs - tol:
        verdict = Verdict.SATISFIED
    else:
        verdict = Verdict.VIOLATED

    return RelationReport(
        relation=relation,
        lhs=float(lhs),
        rhs=float(rhs),
        verdict=verdict,
        diagnostics=diag,
        condition31=condition31,
        state_name=state_name,
    )


class _MomentRow:
    """One state's moments: its row of a shared ``moments.MomentStack``."""

    __slots__ = ("stack", "index")

    def __init__(self, stack, index):
        self.stack = stack
        self.index = index

    def std(self, kind) -> float:
        return float(self.stack.std(kind)[self.index])

    def mean(self, kind) -> float:
        return float(self.stack.mean(kind)[self.index])

    def correlation(self, a, b) -> complex:
        return complex(self.stack.pair(a, b, 1, 1)[self.index])

    def commutator(self, a, b) -> complex:
        return complex(self.stack.commutator(a, b)[self.index])

    def deficit(self, a, b) -> complex:
        return complex(self.stack.deficit(a, b)[self.index])

    def gamma_sum(self) -> float:
        return float(self.stack.gamma_sum()[self.index])


def _stacked(states, settings):
    """(settings, {id(state): row}) over the stacks of ``states``.

    Each stack holds its states, so an id found here names that state.
    """
    rows = {
        id(state): _MomentRow(stack, index)
        for stack in mo.stacks(states, settings)
        for index, state in enumerate(stack.states)
    }
    return settings, rows


#: the shared rows of the last ``share_moments``; replaced in one assignment,
#: so a thread race costs a recomputation, not a wrong number
_shared = (None, {})


def _moment_row(state, settings) -> _MomentRow:
    """The row of ``state`` in the shared stacks, or a fresh one-row stack."""
    global _shared
    shared_settings, rows = _shared
    row = rows.get(id(state)) if shared_settings is settings else None
    if row is None:
        fresh = _stacked((state,), settings)
        row = fresh[1][id(state)]
        _shared = fresh
    return row


def _operative_pair(relation, params):
    if relation == RelationId.R36:
        return (obs.THETA, obs.PHI)
    if relation == RelationId.R60:
        if not params.pair:
            raise ValueError("R60 requires an observable pair in params")
        return params.pair
    return (obs.LZ, obs.PHI)


def _pair_deficits(pair, table, fam):
    a, b = pair
    out = {}
    for key, (x, y) in (("aa", (a, a)), ("ab", (a, b)), ("ba", (b, a)), ("bb", (b, b))):
        if obs.applicable(x, fam) and obs.applicable(y, fam):
            out[key] = table.deficit(x, y)
        else:
            out[key] = 0.0 + 0.0j
    return out
