"""Tests of the benchmark itself: generator, gate, tracer and metric names.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import random
import re
import subprocess
import sys

import pytest

from perfbench import gate, gen, ops
from perfbench import trace as tr
from perfbench import workloads

SPEC = json.loads((ops.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _fingerprint(op):
    return (op.name, getattr(op, "text", None), getattr(op, "sweep", None),
            json.dumps(getattr(op, "state", None), default=repr),
            json.dumps(getattr(op, "args", None)))


def _first_cycles(workload, seed, count=3):
    out = []
    for _, cycle in zip(range(count), gen.cycles(workload, seed)):
        out += [_fingerprint(op) for op in cycle]
    return out


# ---------------------------------------------------------------------------
# generator

@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first_cycles(workload, 5) == _first_cycles(workload, 5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_differs_across_seeds(workload):
    assert _first_cycles(workload, 5) != _first_cycles(workload, 6)


def test_cycles_keep_their_shape_across_seeds():
    at_limit = sum(lo == 64 for lo, _ in gen.EVAL_SPHERICAL_STRATA)
    for seed in (1, 2):
        names = [op.name for op in gen.eval_cycle(seed, 0)]
        assert sum(".spherical.l64" in n for n in names) >= at_limit >= 1
        assert sum("readme-sample" in n for n in names) == 1
        assert len(names) == len(gen.eval_cycle(seed + 10, 3))
        assert len(gen.scan_cycle(seed, 0)) == len(gen.SCAN_L_STRATA)
        assert len(gen.oracle_cycle(seed, 0)) == len(gen.oracle_cycle(seed + 10, 3))


def _oracle_shape(seed, index):
    """The seed-free part of an oracle cycle: check, family, n stratum, pendulum args."""
    shape = []
    for op in gen.oracle_cycle(seed, index):
        stratum = None
        if op.state["family"] == "pendulum":
            stratum = next(s for s in gen.ORACLE_PENDULUM_N if s[0] <= op.state["n"] <= s[1])
        args = json.dumps(op.args) if stratum is not None else None
        shape.append((op.check, op.state["family"], stratum, args))
    return sorted(shape, key=repr)


def test_oracle_cycle_shape_and_so_its_failures_are_seed_free():
    assert _oracle_shape(1, 2) == _oracle_shape(7, 2)
    assert _oracle_shape(1, 0) != _oracle_shape(1, 1)  # the spherical checks rotate


def test_scan_ops_are_sized_to_about_the_same_cost():
    for op in gen.scan_cycle(4, 0):
        l = int(re.search(r"\.l(\d+)\.", op.name).group(1))
        cost = op.points * gen.scan_point_ms(l)
        if l < 64:  # the limit rounds to a single point
            assert gen.SCAN_OP_MS[0] * 0.9 <= cost <= gen.SCAN_OP_MS[1] * 1.1
    assert gen.scan_point_ms(1) == gen.SCAN_POINT_MS[0][1]
    assert gen.scan_point_ms(64) == gen.SCAN_POINT_MS[-1][1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_length_is_fixed_per_budget(workload):
    cycles = workloads.planned_cycles(workload, 1, SPEC["run_seconds"])
    assert cycles == workloads.planned_cycles(workload, 2, SPEC["run_seconds"])
    assert cycles * len(next(gen.cycles(workload, 1))) >= workloads.MIN_OPS


def test_eval_documents_select_every_relation_of_their_family():
    import lzphi

    seen = set()
    for op in gen.eval_cycle(3, 0):
        if "readme" in op.name:
            assert op.text == gen.README_SPEC
            continue
        doc = lzphi.parse(op.text)
        assert len(doc.states) * len(doc.selections) == op.reports
        seen.update(rid.value for rid, _ in doc.selections)
    assert seen == {rid.value for rid in lzphi.RelationId}


def test_oracle_cases_reach_the_documented_limits():
    ops_ = gen.oracle_cycle(0, 0)
    pendulum = {op.state["n"] for op in ops_ if op.state.get("family") == "pendulum"}
    spherical = {op.state["l"] for op in ops_ if op.state.get("family") == "spherical"}
    tables = {op.state["l"] for op in ops_ if op.state.get("family") == "spherical_basis"}
    assert {0, 20, 30, 64} <= pendulum
    assert 64 in spherical
    assert max(tables) <= 32


# ---------------------------------------------------------------------------
# gate and report check

def _reference_outputs():
    reference = json.loads(gate.REFERENCE.read_text(encoding="utf-8"))
    outputs = {}
    for name, case in reference["cases"].items():
        reports = [dict(zip(("state_name", "relation", "verdict", "condition31", "lhs", "rhs"), r))
                   for r in case["reports"]]
        outputs[name] = (case["exit"], json.dumps(reports) if reports else "")
    return reference, outputs


def _tamper(outputs, change):
    name = next(n for n, (_, text) in outputs.items() if text)
    code, text = outputs[name]
    reports = json.loads(text)
    change(reports[0])
    return {**outputs, name: (code, json.dumps(reports))}


def test_gate_accepts_the_reference_itself():
    reference, outputs = _reference_outputs()
    assert gate.compare_reference(outputs, reference) == []


def test_gate_rejects_a_flipped_verdict():
    reference, outputs = _reference_outputs()

    def flip(report):
        report["verdict"] = "Violated" if report["verdict"] != "Violated" else "Satisfied"

    assert gate.compare_reference(_tamper(outputs, flip), reference)


def test_gate_rejects_a_perturbed_lhs():
    reference, outputs = _reference_outputs()

    def nudge(report):
        report["lhs"] = report["lhs"] * (1 + 1e-6) + 1e-6

    assert gate.compare_reference(_tamper(outputs, nudge), reference)


def test_gate_tolerates_round_off():
    reference, outputs = _reference_outputs()

    def wiggle(report):
        report["lhs"] = report["lhs"] * (1 + 1e-13)

    assert gate.compare_reference(_tamper(outputs, wiggle), reference) == []


def _real_reports(tmp_path):
    import lzphi.cli

    op = next(op for op in gen.eval_cycle(4, 0) if ".periodic" in op.name)
    spec, out = tmp_path / "x.spec", tmp_path / "x.out"
    spec.write_text(op.text)
    _, code, problem = ops.run_cli_inprocess(lzphi.cli, ["eval", str(spec), "--output", str(out)])
    assert problem is None
    return op, code, json.loads(out.read_text())


def test_report_check_accepts_real_output(tmp_path):
    op, code, reports = _real_reports(tmp_path)
    assert ops.check_reports(json.dumps(reports), op.reports, code)[1] == []


def test_report_check_rejects_a_flipped_verdict(tmp_path):
    op, code, reports = _real_reports(tmp_path)
    k = next(i for i, r in enumerate(reports) if r["verdict"] == "Satisfied")
    reports[k]["verdict"] = "Violated"
    assert ops.check_reports(json.dumps(reports), op.reports, code)[1]


def test_report_check_rejects_a_perturbed_lhs(tmp_path):
    op, code, reports = _real_reports(tmp_path)
    k = next(i for i, r in enumerate(reports) if r["verdict"] == "Satisfied")
    reports[k]["lhs"] = reports[k]["rhs"] - 0.5
    assert ops.check_reports(json.dumps(reports), op.reports, code)[1]


def test_report_check_allows_printed_rounding():
    base = {"relation": "R5", "rhs": 0.5, "condition31": True, "deficit_abs": 0.0,
            "diagnostics": {}, "state_name": "s"}
    edge = dict(base, lhs=0.5 - 1e-9 - 1e-12, verdict="SatisfiedWithEquality")
    assert "SatisfiedWithEquality" in ops.possible_verdicts(edge)
    far = dict(base, lhs=0.4, verdict="SatisfiedWithEquality")
    assert ops.possible_verdicts(far) == {"Violated"}


def test_closed_form_checks_pass():
    assert gate.check_closed_forms() == []


# ---------------------------------------------------------------------------
# tracer and metric names

def test_tracer_restores_every_patched_name():
    import lzphi
    from lzphi import _kernels, engine, moments, states

    before = (moments.std_dev, lzphi.std_dev, engine.fourier_sum, _kernels.fourier_sum,
              states.SphericalState.__init__)
    tracer = tr.Tracer().install()
    assert engine.fourier_sum is _kernels.fourier_sum is not before[2]
    assert lzphi.std_dev is moments.std_dev is not before[0]
    tracer.uninstall()
    assert (moments.std_dev, lzphi.std_dev, engine.fourier_sum, _kernels.fourier_sum,
            states.SphericalState.__init__) == before


def test_self_time_subtracts_children():
    spans = [[0, -1, "a.x", 0, 100, 0], [1, 0, "b.y", 10, 40, 0], [2, 0, "b.y", 50, 60, 0]]
    assert tr.self_times(spans) == [60, 30, 10]


def _traced_metrics(tmp_path, workload):
    runner = workloads.RUNNERS[workload](tmp_path)
    tracer = tr.Tracer().install()
    try:
        done = []
        cases = (gen.oracle_cycle(1, 0)[:8] if workload == "oracle-crosscheck"
                 else [gen.scan_op(random.Random(1), 3, 4, "t")])
        for op in cases:
            tracer.begin_op(len(done))
            done.append(runner.run(op, True))
            tracer.end_op()
    finally:
        tracer.uninstall()
    return tr.layer_metrics(tracer.state(), results=sum(r[1] for r in done), checks=len(done),
                            import_ms=runner.import_ms, overhead_ratio=0.0,
                            oracle_mismatches=0, oracle_max_residual=0.0)


def test_traced_layer_metric_set_is_complete(tmp_path):
    scan = _traced_metrics(tmp_path, "scan-mix")
    assert sorted(scan) == sorted(PER_LAYER)
    assert scan["relations.evaluate_calls"] == 16
    assert scan["engine.state_grid_calls"] == 0
    assert scan["fourier.calls"] == 0
    assert scan["specio.bytes_out"] > 0
    oracle = _traced_metrics(tmp_path, "oracle-crosscheck")
    assert sorted(oracle) == sorted(PER_LAYER)
    assert oracle["engine.state_grid_calls"] > 0
    assert oracle["relations.evaluate_calls"] == 0


def test_end_to_end_metric_names_match_the_benchmark_file():
    sys.path.insert(0, str(ops.ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.pop(0)
    fake = {"ops": [["a", 0.1, 3, None], ["b", 0.2, 5, "exit 3: x"]], "peak_rss_mb": 30.0}
    metrics, samples = run.end_to_end(fake, [0.15, 0.16])
    assert sorted(metrics) == sorted(END_TO_END) == sorted(samples)


def test_printed_metric_names_appear_in_the_benchmark_file():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan-mix",
                           "--seed", "3", "--seconds", "1"],
                          cwd=ops.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(last["metrics"]) == sorted(END_TO_END)
    printed = [line.split()[0] for line in lines if line.startswith("  ") and " n: " in line]
    assert sorted(printed) == sorted(END_TO_END)


# ---------------------------------------------------------------------------
# the benchmark file

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_file_shape():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer", "run_seconds",
                            "workloads"]
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(sorted(w) == ["name", "why"] and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"] and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ops.ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
