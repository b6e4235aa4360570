"""Command-line interface: evaluate spec files, list the catalog, run sweeps.

Exit codes: 0 when every verdict is Satisfied or SatisfiedWithEquality,
1 when any verdict is Violated, 2 when any verdict is Indeterminate or
NotApplicable (and none Violated), 3 on input errors, usage errors included.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
import functools
import math
import sys

import numpy as np

from . import relations, specio
from .observables import chi as chi_kind
from .relations import RelationId, Verdict
from .specio import SpecParseError
from .states import PendulumState, RotorSuperposition, SphericalState

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INDETERMINATE = 2
EXIT_INPUT_ERROR = 3

_SWEEPABLE = "alpha, n, N, N1, mix, cmag:<m>, cphase:<m>"
#: per sweep parameter, why a sweep whose first point is the document itself changes nothing
_IDLE_REASONS = {
    "alpha": "no R8 relation",
    "n": "no pendulum state",
    "N": "no R12 relation and no R60 Chi side",
    "N1": "no R12 relation",
    "mix": "no spherical state",
    "cmag": "no state carries coefficient m={m}",
    "cphase": "no state carries coefficient m={m}",
}

#: the most points one scan visits, refused before any is built: about 50 times the
#: longest benchmark sweep; 10**4 rows of an l = 64 stack hold 20 MB of coefficients
MAX_SWEEP_STEPS = 10_000


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (SpecParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 3): argparse's exit 2 means Indeterminate here."""

    def error(self, message):  # add_subparsers builds each subcommand with this class
        raise ValueError(f"[usage] {self.prog}: {message}")


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="lzphi",
        description="Evaluate angular-momentum/angle uncertainty relations on quantum rotational states.",
    )
    sub = parser.add_subparsers(required=True)

    cmd_eval = sub.add_parser("eval", help="evaluate every (state, relation) pair of a spec file")
    cmd_eval.add_argument("specfile")
    _add_common_flags(cmd_eval)
    cmd_eval.set_defaults(handler=_run_eval)

    cmd_catalog = sub.add_parser("catalog", help="list every relation with formula and applicability")
    cmd_catalog.set_defaults(handler=_run_catalog)

    cmd_scan = sub.add_parser("scan", help="sweep one parameter and report each point")
    cmd_scan.add_argument("specfile")
    cmd_scan.add_argument(
        "--sweep",
        required=True,
        metavar="NAME=START:STOP:STEPS",
        help=f"parameter to sweep; one of {_SWEEPABLE}",
    )
    _add_common_flags(cmd_scan)
    cmd_scan.set_defaults(handler=_run_scan)
    return parser


def _add_common_flags(cmd):
    cmd.add_argument("--format", choices=("json", "csv"), default="json")
    cmd.add_argument("--tolerance", type=float, default=None)
    cmd.add_argument("--normalize", action="store_true")
    cmd.add_argument("--output", default=None)


def _flag_overrides(args) -> dict:
    overrides = {}
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    if args.normalize:
        overrides["normalize"] = True
    return overrides


def _load_document(args) -> specio.SpecDocument:
    try:
        with open(args.specfile, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"[encoding] spec file {args.specfile!r} is not UTF-8: {exc}") from None
    except OSError as exc:
        raise ValueError(f"[io] spec file {args.specfile!r}: {exc.strerror or exc}") from None
    return specio.parse(text, overrides=_flag_overrides(args))


def _emit(args, text: str) -> None:
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"[io] output file {args.output!r}: {exc.strerror or exc}") from None


def exit_code_for(verdicts) -> int:
    verdicts = list(verdicts)
    if any(v == Verdict.VIOLATED for v in verdicts):
        return EXIT_VIOLATED
    if any(v in (Verdict.INDETERMINATE, Verdict.NOT_APPLICABLE) for v in verdicts):
        return EXIT_INDETERMINATE
    return EXIT_OK


def _run_eval(args) -> int:
    doc = _load_document(args)
    return _report(args, [(doc.states, doc.selections)], doc.settings.tolerance)


def _report(args, points, tol, sweep=None) -> int:
    """Emit the reports of ``points``, (states, selections) pairs; return the exit code.

    The points share their selections (``eval``, a state sweep) or their
    states (a selection sweep), so every row of each column the walk yields
    is reported, and the exit code reads the verdicts of the distinct columns.
    """
    rows = list(relations.report_rows(points, tol))
    _emit(args, specio.serialize_report(rows, args.format, sweep=sweep))
    columns = {report.column for _, report in rows}
    return exit_code_for(v for column in columns for v in column.distinct_verdicts)


def _run_catalog(args) -> int:
    lines = ["ID    eq  families                             params"]
    for rid in RelationId:
        families, params, formula = relations.CATALOG[rid]
        fam_text = ",".join(families)
        param_text = ",".join(params) if params else "-"
        lines.append(f"{rid.value:<5} {rid.value[1:]:>3} {fam_text:<36} {param_text}")
        lines.append(f"      {formula}")
    for rid_text, note in sorted(relations.EXCLUDED.items(), key=lambda kv: int(kv[0][1:])):
        lines.append(f"{rid_text:<5} {note}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _run_scan(args) -> int:
    doc = _load_document(args)
    param, values = _parse_sweep(args.sweep)
    try:
        points = [_apply_sweep(doc, param, value) for value in values]
    except ValueError as exc:
        raise ValueError(f"sweep {args.sweep!r}: {exc}") from None
    states, selections = points[0]
    if all(new[1] is old[1] for new, old in zip(states + selections, doc.states + doc.selections)):
        base, _, index = param.partition(":")
        raise ValueError(f"sweep {args.sweep!r}: [idle-sweep] "
                         + _IDLE_REASONS[base].format(m=_spec_int(index)))
    swept = [float(v) for v in values]
    try:
        return _report(args, points, doc.settings.tolerance, (param, swept))
    except relations.RowOverflowError as exc:
        raise ValueError(f"sweep {args.sweep!r} at {param}={swept[exc.point]:.12g}: {exc}") from None


def _parse_sweep(text: str):
    """(name, values) of ``NAME=START:STOP:STEPS``; the numbers follow the spec's grammar."""
    name, eq, spec = text.partition("=")
    pieces = spec.split(":")
    if not eq or len(pieces) != 3:
        raise ValueError("[syntax] sweep reads NAME=START:STOP:STEPS")
    try:
        start, stop = (specio._parse_float(piece, 0, 0) for piece in pieces[:2])
    except SpecParseError:
        raise ValueError(f"[bad-value] sweep {text!r} needs a finite START and STOP") from None
    if not math.isfinite(stop - start):
        # np.linspace forms STOP - START, which would overflow to inf
        raise ValueError(f"sweep {text!r}: [bad-value] STOP - START is not a finite float")
    steps = _spec_int(pieces[2]) or 0
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(
            f"sweep {text!r}: [bad-value] STEPS must be a whole number from 1 to {MAX_SWEEP_STEPS}, "
            f"got {pieces[2]!r}"
        )
    base, colon, index = name.partition(":")
    if base not in _IDLE_REASONS or (colon and base not in ("cmag", "cphase")):
        raise ValueError(f"[unknown-key] unknown sweep parameter {name!r}; choose one of {_SWEEPABLE}")
    if base in ("cmag", "cphase") and _spec_int(index) is None:
        raise ValueError(f"[syntax] sweep {name!r} reads {base}:<m>=START:STOP:STEPS")
    values = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
    if base in ("n", "N", "N1"):
        # Python ints, rounded half to even: a numpy int64 cast would wrap
        values = [round(v) for v in values.tolist()]
    return name, values


def _apply_sweep(doc, param: str, value):
    """The (states, selections) of the sweep point ``param`` = ``value``.

    Each state and params object the sweep does not reach is the
    document's own, so a point that is the document itself changes nothing.
    A point that a state refuses raises a ``[bad-value]`` ValueError.
    """
    base = param.split(":", 1)[0]
    if base in ("alpha", "N", "N1"):
        return doc.states, tuple((rid, _swept(rid, p, base, value)) for rid, p in doc.selections)
    try:
        if base == "n":
            states = tuple(
                (name, replace(s, n=int(value)) if isinstance(s, PendulumState) else s)
                for name, s in doc.states
            )
        elif base == "mix":
            states = tuple((name, _mixed(s, float(value))) for name, s in doc.states)
        else:
            index = int(param.partition(":")[2])
            states = tuple((name, _retuned(s, index, base, float(value))) for name, s in doc.states)
    except ValueError as exc:
        raise ValueError(f"[bad-value] {exc}") from None
    return states, doc.selections


def _swept(rid, params, name: str, value):
    """``params`` of ``rid`` with ``name`` set (an R60's Chi sides for ``N``), else ``params`` itself.

    New params that ``rid`` refuses raise ValueError here, as the point is built,
    coded as ``eval`` codes them: a winding past a float is a ``[bad-value]``,
    the rest a ``[param-constraint]``.
    """
    if name in relations.CATALOG[rid][1]:
        params = replace(params, **{name: float(value) if name == "alpha" else int(value)})
    elif name == "N" and rid == RelationId.R60 and any(k.name == "Chi" for k in params.pair or ()):
        try:
            pair = tuple(chi_kind(int(value)) if k.name == "Chi" else k for k in params.pair)
        except ValueError as exc:
            raise ValueError(f"[bad-value] {exc}") from None
        params = replace(params, pair=pair)
    else:
        return params
    try:
        relations.param_constants(rid, params)
    except ValueError as exc:
        raise ValueError(f"[param-constraint] {exc}") from None
    return params


def _mixed(state, angle: float):
    """Mixing-angle family on a spherical state: c_0 = cos t, c_l = i sin t.

    The quadrature relative phase is what makes the polar/azimuthal
    correlation visible; real mixtures have exactly zero correlation.
    At l = 0 both terms land on c_0 = cos t + i sin t, which is Y_00 at
    every t.
    """
    if not isinstance(state, SphericalState):
        return state
    l = state.l
    c0, cl = math.cos(angle), 1j * math.sin(angle)
    vec = [0j] * (2 * l + 1)  # m = -l..l: c_0 at index l, c_l at index 2l
    if l == 0:
        vec[0] = c0 + cl
    else:
        vec[l], vec[2 * l] = c0, cl
    return SphericalState(l, vec, hbar=state.hbar, inertia=state.inertia, normalize=True)


def _spec_int(text: str):
    """``text`` as an integer of the spec grammar, else None."""
    try:
        return specio._parse_int(text, 0, 0)
    except SpecParseError:
        return None


def _retuned(state, index: int, base: str, value: float):
    """Set the magnitude or phase of coefficient m = index, then renormalize; else ``state`` itself."""
    if isinstance(state, RotorSuperposition):
        cmap = dict(state.coefficients)
        if index in cmap:
            cmap[index] = _adjust(cmap[index], base, value)
            return RotorSuperposition(cmap, hbar=state.hbar, normalize=True)
    elif isinstance(state, SphericalState) and abs(index) <= state.l:
        vec = list(state.coefficients)
        vec[index + state.l] = _adjust(vec[index + state.l], base, value)
        return SphericalState(
            l=state.l, coefficients=vec, hbar=state.hbar, inertia=state.inertia, normalize=True
        )
    return state


def _adjust(coeff: complex, base: str, value: float) -> complex:
    if base == "cmag":
        phase = coeff / abs(coeff) if coeff else 1.0
        return phase * value
    magnitude = abs(coeff)
    return magnitude * complex(math.cos(value), math.sin(value))


if __name__ == "__main__":
    sys.exit(main())
