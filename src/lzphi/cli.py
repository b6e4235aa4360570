"""Command-line interface: evaluate spec files, list the catalog, run sweeps.

Exit codes: 0 when every verdict is Satisfied or SatisfiedWithEquality,
1 when any verdict is Violated, 2 when any verdict is Indeterminate or
NotApplicable (and none Violated), 3 on input errors.
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
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
    cmd.add_argument("--quad-nodes", type=int, default=None)
    cmd.add_argument("--normalize", action="store_true")
    cmd.add_argument("--output", default=None)


def _flag_overrides(args) -> dict:
    overrides = {}
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    if args.quad_nodes is not None:
        overrides["phi_nodes"] = args.quad_nodes
        overrides["theta_nodes"] = args.quad_nodes
        overrides["hermite_nodes"] = args.quad_nodes
    if args.normalize:
        overrides["normalize"] = True
    return overrides


def _load_document(args) -> specio.SpecDocument:
    with open(args.specfile, "r", encoding="utf-8") as handle:
        text = handle.read()
    return specio.parse(text, overrides=_flag_overrides(args))


def _evaluate_document(doc) -> list:
    tol = doc.settings.tolerance
    return [
        relations.evaluate(rid, state, params, tol, state_name=name)
        for name, state in doc.states
        for rid, params in doc.selections
    ]


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def exit_code_for(verdicts) -> int:
    verdicts = list(verdicts)
    if any(v == Verdict.VIOLATED for v in verdicts):
        return EXIT_VIOLATED
    if any(v in (Verdict.INDETERMINATE, Verdict.NOT_APPLICABLE) for v in verdicts):
        return EXIT_INDETERMINATE
    return EXIT_OK


def _run_eval(args) -> int:
    doc = _load_document(args)
    reports = _evaluate_document(doc)
    _emit(args, specio.serialize_report(reports, args.format))
    return exit_code_for(r.verdict for r in reports)


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
    if param.split(":", 1)[0] in ("cmag", "cphase"):
        index = _sweep_index(param)
        if not any(_carries(state, index) for _, state in doc.states):
            raise ValueError(f"sweep {args.sweep!r}: no state carries coefficient m={index}")
    points = [_apply_sweep(doc, param, value) for value in values]
    # the points of a sweep share their bases, so each basis is one stacked table
    relations.share_moments(s for point in points for _, s in point.states)
    reports = []
    for value, point_doc in zip(values, points):
        for report in _evaluate_document(point_doc):
            report.diagnostics["sweep_value"] = float(value)
            report.diagnostics["sweep_param_name"] = param
            reports.append(report)
    _emit(args, specio.serialize_report(reports, args.format))
    return exit_code_for(r.verdict for r in reports)


def _parse_sweep(text: str):
    if "=" not in text:
        raise ValueError("sweep reads NAME=START:STOP:STEPS")
    name, spec = text.split("=", 1)
    pieces = spec.split(":")
    if len(pieces) != 3:
        raise ValueError("sweep reads NAME=START:STOP:STEPS")
    start, stop, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep {text!r} needs a finite START and STOP")
    if steps < 1:
        raise ValueError("sweep needs at least one step")
    base = name.split(":", 1)[0]
    if base not in ("alpha", "n", "N", "N1", "mix", "cmag", "cphase"):
        raise ValueError(f"unknown sweep parameter {name!r}; choose one of {_SWEEPABLE}")
    values = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
    if base in ("n", "N", "N1"):
        # Python ints, rounded half to even: a numpy int64 cast would wrap
        values = [round(v) for v in values.tolist()]
    return name, values


def _apply_sweep(doc, param: str, value):
    base = param.split(":", 1)[0]
    states = doc.states
    selections = doc.selections
    if base == "alpha":
        selections = tuple(
            (rid, replace(p, alpha=float(value)) if rid == RelationId.R8 else p)
            for rid, p in selections
        )
    elif base in ("N", "N1"):
        selections = tuple(_wind_selection(rid, p, base, int(value)) for rid, p in selections)
    elif base == "n":
        states = tuple(
            (name, replace(s, n=int(value)) if isinstance(s, PendulumState) else s)
            for name, s in states
        )
    elif base == "mix":
        states = tuple((name, _mixed(s, float(value))) for name, s in states)
    else:
        index = _sweep_index(param)
        states = tuple((name, _retuned(s, index, base, float(value))) for name, s in states)
    return replace(doc, states=states, selections=selections)


def _wind_selection(rid, params, which, value):
    if rid == RelationId.R12:
        return (rid, replace(params, **{which: value}))
    if rid == RelationId.R60 and which == "N" and params.pair:
        pair = tuple(chi_kind(value) if k.name == "Chi" else k for k in params.pair)
        return (rid, replace(params, pair=pair, N=value))
    return (rid, params)


def _mixed(state, angle: float):
    """Mixing-angle family on a spherical state: c_0 = cos t, c_l = i sin t.

    The quadrature relative phase is what makes the polar/azimuthal
    correlation visible; real mixtures have exactly zero correlation.
    At l = 0 both terms land on c_0 = cos t + i sin t, which is Y_00 at
    every t.
    """
    if not isinstance(state, SphericalState):
        return state
    c0, cl = math.cos(angle), 1j * math.sin(angle)
    coeffs = {0: c0 + cl} if state.l == 0 else {0: c0, state.l: cl}
    return SphericalState(
        l=state.l, coefficients=coeffs, hbar=state.hbar, inertia=state.inertia, normalize=True
    )


def _sweep_index(param: str) -> int:
    """The m of a ``cmag:<m>`` or ``cphase:<m>`` sweep."""
    base, _, index = param.partition(":")
    try:
        return int(index)
    except ValueError:
        raise ValueError(f"sweep {param!r} reads {base}:<m>=START:STOP:STEPS") from None


def _carries(state, index: int) -> bool:
    """Whether the state has a coefficient c_m with m = index."""
    if isinstance(state, RotorSuperposition):
        return index in state.coeff_map
    return isinstance(state, SphericalState) and abs(index) <= state.l


def _retuned(state, index: int, base: str, value: float):
    """Set the magnitude or phase of one coefficient, then renormalize."""
    if not _carries(state, index):
        return state
    if isinstance(state, RotorSuperposition):
        cmap = state.coeff_map
        cmap[index] = _adjust(cmap[index], base, value)
        return RotorSuperposition(cmap, hbar=state.hbar, normalize=True)
    vec = list(state.coefficients)
    vec[index + state.l] = _adjust(vec[index + state.l], base, value)
    return SphericalState(
        l=state.l, coefficients=vec, hbar=state.hbar, inertia=state.inertia, normalize=True
    )


def _adjust(coeff: complex, base: str, value: float) -> complex:
    if base == "cmag":
        phase = coeff / abs(coeff) if coeff else 1.0
        return phase * value
    magnitude = abs(coeff)
    return magnitude * complex(math.cos(value), math.sin(value))


if __name__ == "__main__":
    sys.exit(main())
