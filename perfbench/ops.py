"""Run one benchmark op and decide whether it succeeded.

An op fails when it crashes, exits 3 (input error), emits a report that
fails the report check, or (oracle ops) leaves a residual above the bound
the tier-1 tests use for the same comparison. Exit codes 1 and 2
(Violated / NotApplicable verdicts) are results, not failures.

The report check re-derives each verdict from the printed lhs, rhs,
condition31 and diagnostics with the catalog's decision rule, allowing
for the 12-significant-digit rounding of the printed numbers, and checks
the report count and the exit code against the verdicts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_TOL = 1e-9

SATISFIED = "Satisfied"
EQUALITY = "SatisfiedWithEquality"
VIOLATED = "Violated"
INDETERMINATE = "Indeterminate"
NOT_APPLICABLE = "NotApplicable"
GATED = ("R33", "R60")
#: relations whose verdict turns Indeterminate on a vanishing denominator
DENOMINATOR = ("R6", "R7")

#: residual bounds, each the one a tier-1 test uses for the same comparison
ORACLE_BOUNDS = {
    "std_dev": 1e-9,  # test_moments TestOracleEquivalence
    "correlation": 1e-9,  # test_moments test_theta_phi_matches_2d_oracle
    "symmetry_deficit": 1e-9,  # test_observables test_quadrature_method_matches_closed_form
    "parseval": 1e-10,  # test_fourier test_all_fixtures_tight
    "width_product": 1e-8,  # test_fourier test_quadrature_oracle_agrees
    "matrix_table": 1e-9,  # test_observables TestAnalyticVersusQuadrature
}
#: test_observables test_lz_phi_squared_deficit_matches_quadrature
DEFICIT_PHI_SQUARED_BOUND = 1e-8

#: the console-script entry point, `lzphi = "lzphi.cli:main"`
CLI_ENTRY = "import sys; from lzphi.cli import main; sys.exit(main())"


def child_env(extra_paths=()) -> dict:
    """Environment for every process the benchmark starts: one thread each."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *map(str, extra_paths)])
    env.pop("LZPHI_PURE_NUMPY", None)
    return env


# ---------------------------------------------------------------------------
# report checks; the verdict rule and the exit-code rule are restated here,
# not imported, so the check does not trust the code it checks

def _decide(relation, lhs, rhs, tol, condition31, denominator):
    """The catalog's verdict rule (relations.evaluate), on printed numbers."""
    if relation in GATED and not condition31:
        return NOT_APPLICABLE
    if denominator is not None and (denominator <= 0 or abs(denominator) < tol):
        return INDETERMINATE
    if lhs <= tol and rhs <= tol:
        return EQUALITY
    if abs(lhs - rhs) <= tol:
        return EQUALITY
    if lhs >= rhs - tol:
        return SATISFIED
    return VIOLATED


def _band(x: float) -> tuple:
    eps = 1e-11 * max(1.0, abs(x))  # %.12g keeps 12 significant digits
    return (x - eps, x, x + eps)


def possible_verdicts(report: dict, tol: float = DEFAULT_TOL) -> set:
    """Verdicts consistent with the printed numbers, within their rounding."""
    relation = report["relation"]
    den = report["diagnostics"].get("denominator") if relation in DENOMINATOR else None
    dens = _band(den) if den is not None else (None,)
    c31s = (report["condition31"],)
    if abs(report["deficit_abs"] - tol) <= 1e-11 * max(1.0, tol):
        c31s = (True, False)
    out = set()
    for lhs in _band(report["lhs"]):
        for rhs in _band(report["rhs"]):
            for d in dens:
                for c31 in c31s:
                    out.add(_decide(relation, lhs, rhs, tol, c31, d))
    return out


def exit_code_for(verdicts) -> int:
    verdicts = list(verdicts)
    if VIOLATED in verdicts:
        return 1
    if INDETERMINATE in verdicts or NOT_APPLICABLE in verdicts:
        return 2
    return 0


def check_reports(text: str, expected: int, code: int, *, sweep: str | None = None,
                  tol: float = DEFAULT_TOL):
    """Parse a JSON report stream and list every problem found in it.

    Returns (reports, problems); an empty problem list means the reports
    pass the check.
    """
    try:
        reports = json.loads(text)
    except ValueError as exc:
        return [], [f"report is not valid JSON: {exc}"]
    problems = []
    if len(reports) != expected:
        problems.append(f"{len(reports)} reports, expected {expected}")
    for k, rep in enumerate(reports):
        try:
            numbers = (rep["lhs"], rep["rhs"], rep["deficit_abs"])
            if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in numbers):
                problems.append(f"report {k}: non-finite number")
                continue
            if rep["condition31"] != (rep["deficit_abs"] <= tol) and abs(
                rep["deficit_abs"] - tol
            ) > 1e-11:
                problems.append(f"report {k}: condition31 disagrees with deficit_abs")
            if rep["verdict"] not in possible_verdicts(rep, tol):
                problems.append(
                    f"report {k} ({rep['state_name']} {rep['relation']}): verdict "
                    f"{rep['verdict']} does not follow from lhs={rep['lhs']} rhs={rep['rhs']}"
                )
            if sweep is not None and rep.get("sweep_param") != sweep.split("=", 1)[0]:
                problems.append(f"report {k}: sweep_param {rep.get('sweep_param')!r}")
        except (KeyError, TypeError) as exc:
            problems.append(f"report {k}: malformed ({exc!r})")
    if not problems and code != exit_code_for(r["verdict"] for r in reports):
        problems.append(f"exit code {code} does not match the verdicts")
    return reports, problems


def sweep_values(sweep: str) -> list:
    """The values a `--sweep NAME=START:STOP:STEPS` visits (as numpy.linspace)."""
    start, stop, steps = sweep.split("=", 1)[1].split(":")
    start, stop, steps = float(start), float(stop), int(steps)
    if steps == 1:
        return [start]
    return [start + (stop - start) * k / (steps - 1) for k in range(steps)]


def check_scan(text: str, op, code: int):
    reports, problems = check_reports(text, op.reports, code, sweep=op.sweep)
    if not problems:
        values = sweep_values(op.sweep)
        per_point = op.reports // op.points
        for k, rep in enumerate(reports):
            want = values[k // per_point]
            if abs(rep["sweep_value"] - want) > 1e-9 * max(1.0, abs(want)):
                problems.append(f"report {k}: sweep_value {rep['sweep_value']} != {want}")
                break
    return reports, problems


WRONG_REPORT = "wrong report"


def _wrong(problems) -> str | None:
    """One problem text for an op whose reports failed the check, else None."""
    return f"{WRONG_REPORT}: " + "; ".join(problems[:3]) if problems else None


# ---------------------------------------------------------------------------
# op runners; each returns (seconds, results, problem-or-None)

def run_eval_process(op, spec_path: Path, out_path: Path, *, trace_state: Path | None = None):
    """One `lzphi eval` in a fresh interpreter; traced through perfbench.trace if asked."""
    if trace_state is None:
        argv = [sys.executable, "-c", CLI_ENTRY]
        env = child_env()
    else:
        argv = [sys.executable, "-m", "perfbench.trace", str(trace_state), "--"]
        env = child_env([ROOT])
    argv += ["eval", str(spec_path), "--output", str(out_path)]
    if out_path.exists():
        out_path.unlink()
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    return seconds, *judge_eval(op, proc.returncode, out_path, proc.stderr)


def judge_eval(op, code: int, out_path: Path, stderr: str = ""):
    if code == 3:
        first = stderr.strip().splitlines()[:1]
        return 0, f"exit 3: {first[0] if first else 'input error'}"
    if code not in (0, 1, 2):
        return 0, f"crashed with exit code {code}: {stderr.strip()[-300:]}"
    reports, problems = check_reports(out_path.read_text(encoding="utf-8"), op.reports, code)
    return len(reports), _wrong(problems)


def run_cli_inprocess(cli, argv):
    """Call cli.main(argv) and time it; an escaping exception is a crash.

    Returns (seconds, exit code, problem); the problem of an exit 3 is its
    first line of standard error.
    """
    errors = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(errors):
            code = cli.main(argv)
    except Exception as exc:  # a crash is an op result, recorded and counted
        return time.perf_counter() - start, None, f"crashed: {exc!r}"
    seconds = time.perf_counter() - start
    if code == 3:
        first = errors.getvalue().strip().splitlines()[:1]
        return seconds, code, f"exit 3: {first[0] if first else 'input error'}"
    return seconds, code, None


def run_scan(cli, op, spec_path: Path, out_path: Path):
    seconds, code, problem = run_cli_inprocess(
        cli, ["scan", str(spec_path), "--sweep", op.sweep, "--output", str(out_path)]
    )
    if problem:
        return seconds, 0, problem
    if code not in (0, 1, 2):
        return seconds, 0, f"unexpected exit code {code}"
    reports, problems = check_scan(out_path.read_text(encoding="utf-8"), op, code)
    return seconds, len(reports), _wrong(problems)


def build_state(lz, spec: dict):
    fam = spec["family"]
    if fam == "rotor":
        return lz.RotorSuperposition({m: c for m, c in spec["coefficients"]}, normalize=True)
    if fam == "spherical":
        return lz.SphericalState(l=spec["l"], coefficients=spec["coefficients"], normalize=True)
    if fam == "pendulum":
        return lz.PendulumState(n=spec["n"], inertia=spec["inertia"], omega=spec["omega"])
    if fam == "spherical_basis":
        return lz.SphericalBasis(spec["l"])
    return lz.RotorBasis(tuple(spec["ms"]))


def kind(lz, name: str):
    return {"Lz": lz.LZ, "Phi": lz.PHI, "PhiSquared": lz.PHI_SQUARED, "SinPhi": lz.SIN_PHI,
            "CosPhi": lz.COS_PHI, "Theta": lz.THETA, "ThetaPhi": lz.THETA_PHI}[name]


def oracle_residual(lz, op) -> tuple:
    """Run both routes of one check; return (residual, bound)."""
    target = build_state(lz, op.state)
    check, args = op.check, op.args
    bound = ORACLE_BOUNDS[check]
    if check == "std_dev":
        k = kind(lz, args["kind"])
        return abs(lz.std_dev(k, target) - lz.std_dev(k, target, method="quadrature")), bound
    if check == "correlation":
        a, b = (kind(lz, n) for n in args["pair"])
        exact = lz.correlation(a, b, target).value
        return abs(exact - lz.correlation(a, b, target, method="quadrature").value), bound
    if check == "symmetry_deficit":
        a, b = (kind(lz, n) for n in args["pair"])
        if args["pair"] == ["Lz", "PhiSquared"]:
            bound = DEFICIT_PHI_SQUARED_BOUND
        exact = lz.symmetry_deficit(a, b, target)
        return abs(exact - lz.symmetry_deficit(a, b, target, method="quadrature")), bound
    if check == "parseval":
        return lz.parseval_check(target), bound
    if check == "width_product":
        exact = lz.width_product(target)
        return abs(lz.width_product(target, method="quadrature") - exact), bound
    k = kind(lz, args["kind"])
    exact = lz.matrix_table(k, target).matrix
    quad = lz.matrix_table(k, target, method="quadrature").matrix
    return float(abs(exact - quad).max()), bound


def run_oracle(lz, op):
    """Returns (seconds, results, problem, residual)."""
    start = time.perf_counter()
    try:
        residual, bound = oracle_residual(lz, op)
    except Exception as exc:  # a crash is an op result, recorded and counted
        return time.perf_counter() - start, 0, f"crashed: {exc!r}", None
    seconds = time.perf_counter() - start
    residual = float(residual)
    if not residual <= bound:
        return seconds, 1, f"residual {residual:.3g} > bound {bound:g}", residual
    return seconds, 1, None, residual
