"""Correctness gate, run before anything is timed.

(a) Report bytes are identical between two runs of the same build: a cold
    and a warm pass in one process, a fresh interpreter, and traced runs
    (in process and in a fresh interpreter).
(b) For the default seed, verdicts, condition31 and report counts equal
    the reference in ``reference.json``, generated at the seed commit.
    lhs and rhs are compared within a relative/absolute tolerance, not
    byte for byte: ``%.12g`` also prints round-off-sized values that any
    reordered sum changes.
(c) Closed forms: circular dLz = 0 and dphi = pi/sqrt(3); pendulum
    dLz*dphi = n + 1/2, with R5 equality only at n = 0; |gamma(l, m, -m)| = 1.

``python -m perfbench.gate --write-reference`` regenerates the reference;
run it only on a commit whose verdicts are known to be right.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import tempfile
from pathlib import Path

from perfbench import gen, ops
from perfbench import trace as tr

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-9
ABS_TOL = 1e-9


def gate_cases() -> tuple:
    """The default seed's gate inputs: eval documents of every kind and two scans."""
    cycle = gen.eval_cycle(gen.DEFAULT_SEED, 0)
    evals = sorted((op for op in cycle if ".spherical." not in op.name), key=lambda op: op.name)
    rng = random.Random("gate")
    for l in (3, 12, 24):
        text, reports = gen.spherical_doc(rng, l)
        evals.append(gen.EvalOp(f"gate.spherical.l{l}", text, reports))
    scans = [gen.scan_op(rng, 2, 12, "gate"), gen.scan_op(rng, 6, 5, "gate")]
    return evals, scans


def _summary(reports) -> list:
    return [[r["state_name"], r["relation"], r["verdict"], r["condition31"], r["lhs"], r["rhs"]]
            for r in reports]


def _run_case(cli, op, workdir: Path):
    """(exit code, output text) of one gate case through cli.main in this process."""
    spec, out = workdir / "gate.spec", workdir / "gate.out"
    spec.write_text(op.text, encoding="utf-8")
    if out.exists():
        out.unlink()
    argv = ["eval", str(spec)] if isinstance(op, gen.EvalOp) else ["scan", str(spec),
                                                                    "--sweep", op.sweep]
    _, code, problem = ops.run_cli_inprocess(cli, argv + ["--output", str(out)])
    if code is None:
        return problem, ""
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def _pass(cli, cases, workdir):
    return {op.name: _run_case(cli, op, workdir) for op in cases}


def collect(workdir: Path) -> dict:
    """Run every gate case in this process; return name -> (code, text)."""
    import lzphi.cli

    evals, scans = gate_cases()
    return _pass(lzphi.cli, evals + scans, workdir)


def compare_reference(outputs: dict, reference: dict) -> list:
    """Problems of outputs against the stored reference (gate part b)."""
    problems = []
    cases = reference["cases"]
    if sorted(cases) != sorted(outputs):
        problems.append("gate cases differ from the reference's")
    for name, want in cases.items():
        if name not in outputs:
            continue
        code, text = outputs[name]
        if code != want["exit"]:
            problems.append(f"{name}: exit {code}, reference {want['exit']}")
            continue
        got = _summary(json.loads(text)) if text else []
        if len(got) != len(want["reports"]):
            problems.append(f"{name}: {len(got)} reports, reference {len(want['reports'])}")
            continue
        for k, (g, w) in enumerate(zip(got, want["reports"])):
            if g[:4] != w[:4]:
                problems.append(f"{name} report {k}: {g[:4]} != reference {w[:4]}")
            for label, a, b in (("lhs", g[4], w[4]), ("rhs", g[5], w[5])):
                if abs(a - b) > max(REL_TOL * max(abs(a), abs(b)), ABS_TOL):
                    problems.append(f"{name} report {k}: {label} {a!r} != reference {b!r}")
    return problems


def check_outputs(outputs: dict) -> list:
    """Every gate output passes the per-op report check the workloads apply."""
    evals, scans = gate_cases()
    problems = []
    for op in evals + scans:
        code, text = outputs[op.name]
        if code not in (0, 1, 2):
            continue  # an exit code, not a report; part b compares it
        if isinstance(op, gen.ScanOp):
            _, found = ops.check_scan(text, op, code)
        else:
            _, found = ops.check_reports(text, op.reports, code)
        problems += [f"{op.name}: {p}" for p in found]
    return problems


def check_identity(workdir: Path, first: dict) -> list:
    """Gate part a: same bytes warm, traced, and from fresh interpreters."""
    import lzphi.cli

    evals, scans = gate_cases()
    problems = []
    warm = _pass(lzphi.cli, evals + scans, workdir)
    tracer = tr.Tracer().install()
    try:
        traced = _pass(lzphi.cli, evals + scans, workdir)
    finally:
        tracer.uninstall()
    for label, other in (("warm", warm), ("traced", traced)):
        for name, result in first.items():
            if other[name] != result:
                problems.append(f"{name}: {label} run differs from the first run")
    probe = next(op for op in evals if ".pendulum." in op.name)
    spec, out = workdir / "probe.spec", workdir / "probe.out"
    spec.write_text(probe.text, encoding="utf-8")
    for label, state in (("fresh interpreter", None), ("traced fresh interpreter",
                                                        workdir / "probe-trace.json")):
        _, _, problem = ops.run_eval_process(probe, spec, out, trace_state=state)
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        if problem or text != first[probe.name][1]:
            problems.append(f"{probe.name}: {label} output differs from the in-process run"
                            + (f" ({problem})" if problem else ""))
    return problems


def check_closed_forms() -> list:
    """Gate part c."""
    import lzphi as lz

    problems = []
    for m in (-7, 0, 3):
        state = lz.CircularState(m=m)
        if abs(lz.std_dev(lz.LZ, state)) > 1e-12:
            problems.append(f"circular m={m}: dLz != 0")
        if abs(lz.std_dev(lz.PHI, state) - math.pi / math.sqrt(3.0)) > 1e-9:
            problems.append(f"circular m={m}: dphi != pi/sqrt(3)")
    for n in (0, 1, 7, 30, 64):
        state = lz.PendulumState(n=n)
        product = lz.std_dev(lz.LZ, state) * lz.std_dev(lz.PHI, state)
        if abs(product - (n + 0.5)) > 1e-9:
            problems.append(f"pendulum n={n}: dLz*dphi = {product!r}, not n + 1/2")
        verdict = lz.evaluate(lz.RelationId.R5, state).verdict
        want = lz.Verdict.SATISFIED_WITH_EQUALITY if n == 0 else lz.Verdict.SATISFIED
        if verdict != want:
            problems.append(f"pendulum n={n}: R5 verdict {verdict.value}, expected {want.value}")
    for l, m in ((1, 1), (2, 1), (2, 2), (12, 5), (64, 0), (64, 33), (64, 64)):
        if abs(abs(lz.gamma(l, m, -m)) - 1.0) > 1e-9:
            problems.append(f"|gamma({l}, {m}, {-m})| != 1")
    return problems


def run_gate(workdir: Path) -> list:
    """Every gate problem; an empty list means the gate passed."""
    first = collect(workdir)
    if not REFERENCE.exists():
        return [f"missing {REFERENCE.name}"]
    problems = compare_reference(first, json.loads(REFERENCE.read_text(encoding="utf-8")))
    problems += check_outputs(first)
    problems += check_identity(workdir, first)
    problems += check_closed_forms()
    return problems


def write_reference():
    workdir = Path(tempfile.mkdtemp(dir=ops.ROOT / ".perfbench_out"))
    try:
        outputs = collect(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f'{{"seed": {gen.DEFAULT_SEED}, "cases": {{']
    for k, (name, (code, text)) in enumerate(sorted(outputs.items())):
        reports = _summary(json.loads(text)) if text else []
        lines.append(f'{json.dumps(name)}: {{"exit": {code}, "reports": [')
        lines.append(",\n".join(json.dumps(r) for r in reports))
        lines.append("]}" + ("," if k + 1 < len(outputs) else ""))
    lines.append("}}")
    REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the gate reference.")
    parser.add_argument("--write-reference", action="store_true", required=True)
    parser.parse_args()
    (ops.ROOT / ".perfbench_out").mkdir(exist_ok=True)
    write_reference()
