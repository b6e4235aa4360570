import collections
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as hst
import numpy as np
import pytest

from lzphi import cli, relations, specio
from lzphi.cli import exit_code_for, main
from lzphi.relations import Verdict

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_pendulum_equality_exits_zero(self, tmp_path, capsys):
        spec = write(tmp_path, "p.spec", "state pendulum n=0\nrelations R5\n")
        code, out, _ = run_main(["eval", spec], capsys)
        assert code == 0
        assert '"verdict": "SatisfiedWithEquality"' in out

    def test_gated_relation_exits_two(self, tmp_path, capsys):
        spec = write(tmp_path, "c.spec", "state circular m=1\nrelations R33\n")
        code, out, _ = run_main(["eval", spec], capsys)
        assert code == 2
        assert "NotApplicable" in out

    def test_violated_exits_one(self, tmp_path, capsys):
        spec = write(tmp_path, "v.spec", "state circular m=1\nrelations R5\n")
        code, _, _ = run_main(["eval", spec], capsys)
        assert code == 1

    def test_malformed_spec_exits_three(self, tmp_path, capsys):
        spec = write(tmp_path, "bad.spec", "state spherical l=1 c=[(1,0)]\nrelations R5\n")
        code, _, err = run_main(["eval", spec], capsys)
        assert code == 3
        assert "error:" in err

    def test_readme_sample_spec_is_accepted(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```text\n", 1)[1].split("```", 1)[0]
        code, _, err = run_main(["eval", write(tmp_path, "readme.spec", block)], capsys)
        assert code != 3, err

    def test_readme_python_tour_evaluates_to_its_comments(self):
        """Each line of the README's Python block evaluates to the value its comment names."""
        from lzphi.moments import Correlation

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        imports, lines = block.split("\n\n", 1)
        names = {}
        exec(imports, names)
        comment_names = {"pi": math.pi, "sqrt": math.sqrt, "Correlation": Correlation,
                         **{verdict.value: verdict for verdict in Verdict}}
        checked = 0
        for line in lines.splitlines():
            expr, comment = line.split("#", 1)
            got, want = eval(expr, names), eval(comment, comment_names)
            if isinstance(want, Correlation):
                assert got.value == pytest.approx(want.value, abs=1e-15), line
                assert got.hermitized == want.hermitized, line
            elif isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-15), line
            else:
                assert got == want, line
            checked += 1
        assert checked == 4

    def test_missing_file_exits_three(self, tmp_path, capsys):
        code, _, err = run_main(["eval", str(tmp_path / "absent.spec")], capsys)
        assert code == 3

    def test_family_mismatch_is_input_error(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", "state circular m=1\nrelations R58\n")
        code, _, err = run_main(["eval", spec], capsys)
        assert code == 3

    def test_output_file_and_csv(self, tmp_path, capsys):
        spec = write(tmp_path, "p.spec", "state pendulum n=0\nrelations R5 R30\n")
        out_path = tmp_path / "report.csv"
        code, _, _ = run_main(["eval", spec, "--format", "csv", "--output", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_flags_override_settings(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "n.spec",
            "setting normalize false\nstate rotor c={0:(1,0),1:(1,0)}\nrelations R5\n",
        )
        code, _, _ = run_main(["eval", spec], capsys)
        assert code == 3  # rejected without normalization
        code, _, _ = run_main(["eval", spec, "--normalize"], capsys)
        assert code in (0, 1, 2)

    def test_determinism_byte_identical(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "d.spec",
            "state spherical l=1 c=[(0.6,0),(0,0),(0,0.8)]\nstate pendulum n=2\nrelations R5 R30 R33\n",
        )
        _, first, _ = run_main(["eval", spec], capsys)
        _, second, _ = run_main(["eval", spec], capsys)
        assert first == second


class TestCatalog:
    def test_catalog_content(self, capsys):
        code, out, _ = run_main(["catalog"], capsys)
        assert code == 0
        r58_line = next(line for line in out.splitlines() if line.startswith("R58"))
        assert "spherical" in r58_line and r58_line.rstrip().endswith("-")
        r8_line = next(line for line in out.splitlines() if line.startswith("R8 "))
        assert "alpha" in r8_line
        assert "R9    excluded: under-specified" in out
        assert "R13   excluded: under-specified" in out


class TestScan:
    def test_pendulum_ladder_sweep(self, tmp_path, capsys):
        spec = write(tmp_path, "p.spec", "state pendulum n=0\nrelations R5\n")
        code, out, _ = run_main(["scan", spec, "--sweep", "n=0:5:6", "--format", "csv"], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 6
        lhs = [float(row.split(",")[2]) for row in rows]
        assert lhs == pytest.approx([n + 0.5 for n in range(6)], abs=1e-9)

    def test_mixing_angle_sweep_reaches_nonzero_bound(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "s.spec",
            "state spherical l=1 c=[(0,0),(1,0),(0,0)]\nrelations R36\n",
        )
        code, out, _ = run_main(
            ["scan", spec, "--sweep", "mix=0:3.141592653589793:32", "--format", "csv"], capsys
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 32
        rhs = [float(row.split(",")[3]) for row in rows]
        assert max(rhs) > 0.01

    def test_mixing_angle_sweep_on_l0(self, tmp_path, capsys):
        """At l = 0 both mixing terms land on c_0, so every point is Y_00."""
        spec = write(
            tmp_path, "s0.spec", "state spherical l=0 c=[(1,0)]\nrelations R5 R30 R36 R58\n"
        )
        code, out, err = run_main(["scan", spec, "--sweep", "mix=0:1:3", "--format", "csv"], capsys)
        assert code in (0, 1, 2), err
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3 * 4
        for k in range(4):
            lhs = [float(row.split(",")[2]) for row in rows[k::4]]
            assert lhs == pytest.approx([lhs[0]] * 3, abs=1e-12)

    def test_a_scan_releases_its_stacks(self, tmp_path):
        """What a 2000-point l = 64 scan computed goes with it: under 2 MB stays traced after it.

        A 2-point scan first warms the process-wide caches (symbol matrices, overlap tables), so
        what stays traced is the walk's own; the reports go to the null device.
        """
        import contextlib
        import gc
        import os
        import tracemalloc

        coefficients = ",".join("(1,0)" if m == 0 else "(0,0)" for m in range(-64, 65))
        spec = write(tmp_path, "l64.spec", f"state spherical l=64 c=[{coefficients}]\nrelations R5 R30 R58\n")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            codes = [main(["scan", spec, "--sweep", "mix=0:1:2"])]
            gc.collect()
            tracemalloc.start()
            try:
                codes.append(main(["scan", spec, "--sweep", "mix=0:1:2000"]))
                gc.collect()
                traced = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert codes == [1, 1]  # R5 is Violated at mix = 0
        assert traced < 2 * 2**20, traced

    def test_alpha_sweep_varies_rhs(self, tmp_path, capsys):
        spec = write(tmp_path, "a.spec", "state circular m=1\nrelations R8(alpha=0)\n")
        code, out, _ = run_main(
            ["scan", spec, "--sweep", "alpha=0:10:3", "--format", "csv"], capsys
        )
        rows = out.strip().split("\n")[1:]
        rhs = [float(row.split(",")[3]) for row in rows]
        assert len(set(rhs)) == 3

    def test_unknown_sweep_parameter(self, tmp_path, capsys):
        spec = write(tmp_path, "p.spec", "state pendulum n=0\nrelations R5\n")
        code, _, err = run_main(["scan", spec, "--sweep", "mass=0:1:2"], capsys)
        assert code == 3

    def test_sweep_rows_carry_value(self, tmp_path, capsys):
        spec = write(tmp_path, "p.spec", "state pendulum n=0\nrelations R5\n")
        _, out, _ = run_main(["scan", spec, "--sweep", "n=0:2:3"], capsys)
        assert '"sweep_param": "n"' in out
        assert '"sweep_value": 2' in out


def _fresh_scan(text, sweep, fmt, shared=False):
    """Exit code and report text of a scan evaluated one report at a time.

    Each point's states are evaluated alone, or, if ``shared``, from the
    moment stacks of all the points, which a walk of ``report_rows`` builds
    as the scan does.
    """
    doc = specio.parse(text)
    param, values = cli._parse_sweep(sweep)
    tol = doc.settings.tolerance
    points = [cli._apply_sweep(doc, param, value) for value in values]
    if shared:
        list(relations.report_rows(points, tol))
    reports = []
    for point, (states, selections) in enumerate(points):
        for name, state in states:
            for rid, params in selections:
                reports.append((point, relations.evaluate(rid, state, params, tol, state_name=name)))
    code = exit_code_for(r.verdict for _, r in reports)
    return code, specio.serialize_report(reports, fmt, sweep=(param, [float(v) for v in values]))


def _rows(text, fmt):
    return json.loads(text) if fmt == "json" else list(csv.DictReader(io.StringIO(text)))


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
        return
    try:
        got_x, want_x = float(got), float(want)
    except (TypeError, ValueError):
        assert got == want, where
        return
    if isinstance(want, bool):
        assert got == want, where
        return
    assert abs(got_x - want_x) <= 1e-11 * max(1.0, abs(want_x)), (where, got, want)


def assert_scan_matches_fresh(text, sweep, fmt="json"):
    """The batched scan gives every point's verdicts and numbers of a lone evaluation."""
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "s.spec", Path(tmp) / "out"
        spec.write_text(text)
        code = main(["scan", str(spec), "--sweep", sweep, "--format", fmt, "--output", str(out)])
        got = out.read_text()
    want_code, want = _fresh_scan(text, sweep, fmt)
    assert code == want_code
    got_rows, want_rows = _rows(got, fmt), _rows(want, fmt)
    assert len(got_rows) == len(want_rows)
    for k, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
        _assert_close(got_row, want_row, f"report {k}")
    return got_rows


#: one state of each family and the relations each sweep kind changes on it
FAMILY_STATES = {
    "circular": "state circular name=circ m=3\n",
    "rotor": "state rotor name=rot c={-1:(0.6,0),2:(0,0.8)}\n",
    "spherical": "state spherical name=sph l=2 c={-1:(0.6,0),0:(0,0.3),2:(0.2,-0.7)}\n",
    "pendulum": "state pendulum name=pend n=2 inertia=2 omega=0.5\n",
}
_COMMON = "relations R5 R8(alpha=1) R12(N=3,N1=0) R14 R30 R33"
FAMILY_RELATIONS = {
    "circular": _COMMON + " R15 R52 R60(a=Lz,b=Chi,N=2)\n",
    "rotor": _COMMON + " R15 R52 R60(a=Lz,b=Chi,N=2)\n",
    "spherical": _COMMON + " R36 R58 R60(a=Lz,b=Chi,N=2) R60(a=Theta,b=ThetaPhi)\n",
    "pendulum": _COMMON + " R60(a=Lz,b=PhiSquared)\n",
}
#: every sweep kind with the families it applies to
SWEEP_FAMILIES = [
    ("alpha=-2:3:4", ("circular", "rotor", "spherical", "pendulum")),
    ("n=0:6:4", ("pendulum",)),
    ("N=1:4:4", ("circular", "rotor", "spherical", "pendulum")),
    ("N1=-2:0:3", ("circular", "rotor", "spherical", "pendulum")),
    ("mix=0:3:4", ("spherical",)),
    ("cmag:2=0.1:2:3", ("rotor", "spherical")),
    ("cphase:-1=0:6:4", ("rotor", "spherical")),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "sweep,family",
    [(sweep, family) for sweep, families in SWEEP_FAMILIES for family in families],
)
def test_scan_bytes_are_those_of_per_report_evaluation(sweep, family, fmt):
    """The columnar scan prints the bytes of evaluate + serialize_report on the same shared points."""
    text = "setting normalize true\n" + FAMILY_STATES[family] + FAMILY_RELATIONS[family]
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "s.spec", Path(tmp) / "out"
        spec.write_text(text)
        code = main(["scan", str(spec), "--sweep", sweep, "--format", fmt, "--output", str(out)])
        got = out.read_text()
    want_code, want = _fresh_scan(text, sweep, fmt, shared=True)
    assert code == want_code
    assert got == want
    assert len(_rows(got, fmt)) == int(sweep.rsplit(":", 1)[1]) * (len(FAMILY_RELATIONS[family].split()) - 1)


#: report text as the per-report formatter printed it before the column walk, byte for byte:
#: a trivial row (trivial_zero), params constants (alpha, delta_chi) and a swept integer
PINNED_SPECS = {
    "eval": ("state circular name=c m=3\nrelations R30 R8(alpha=1.5) R12(N=2,N1=0)\n", None),
    "scan": ("state rotor name=r c={0:(0.6,0),1:(0,0.8)}\nrelations R8(alpha=1) R12(N=1,N1=0)\n",
             "N=2:3:2"),
}
PINNED_OUTPUT = {
    ("eval", "json"): (1, """[
  {"condition31": false, "deficit_abs": 1, "diagnostics": {"corr_im": 0, "corr_re": 0, "deficit_ab_im": 1, "deficit_ab_re": 0, "trivial_zero": 1}, "lhs": 0, "relation": "R30", "rhs": 0, "state_name": "c", "verdict": "SatisfiedWithEquality"},
  {"condition31": false, "deficit_abs": 1, "diagnostics": {"alpha": 1.5, "deficit_ab_im": 1, "deficit_ab_re": 0}, "lhs": 1.8505508252, "relation": "R8", "rhs": 0.737103520329, "state_name": "c", "verdict": "Satisfied"},
  {"condition31": false, "deficit_abs": 1, "diagnostics": {"deficit_ab_im": 1, "deficit_ab_re": 0, "delta_chi": 10.9581105525}, "lhs": 0, "relation": "R12", "rhs": 0.5, "state_name": "c", "verdict": "Violated"}
]
"""),
    ("eval", "csv"): (1, """state_name,relation,lhs,rhs,verdict,condition31,deficit_abs
c,R30,0,0,SatisfiedWithEquality,false,1
c,R8,1.8505508252,0.737103520329,Satisfied,false,1
c,R12,0,0.5,Violated,false,1
"""),
    ("scan", "json"): (0, """[
  {"condition31": false, "deficit_abs": 1, "diagnostics": {"alpha": 1, "deficit_ab_im": 1, "deficit_ab_re": 0}, "lhs": 0.822467033424, "relation": "R8", "rhs": 0.539373895082, "state_name": "r", "sweep_param": "N", "sweep_value": 2, "verdict": "Satisfied"},
  {"condition31": false, "deficit_abs": 1, "diagnostics": {"deficit_ab_im": 1, "deficit_ab_re": 0, "delta_chi": 10.9581105525}, "lhs": 5.25989306518, "relation": "R12", "rhs": 0.5, "state_name": "r", "sweep_param": "N", "sweep_value": 2, "verdict": "Satisfied"},
  {"condition31": false, "deficit_abs": 1, "diagnostics": {"alpha": 1, "deficit_ab_im": 1, "deficit_ab_re": 0}, "lhs": 0.822467033424, "relation": "R8", "rhs": 0.539373895082, "state_name": "r", "sweep_param": "N", "sweep_value": 3, "verdict": "Satisfied"},
  {"condition31": false, "deficit_abs": 1, "diagnostics": {"deficit_ab_im": 1, "deficit_ab_re": 0, "delta_chi": 15.4439450819}, "lhs": 7.41309363932, "relation": "R12", "rhs": 0.5, "state_name": "r", "sweep_param": "N", "sweep_value": 3, "verdict": "Satisfied"}
]
"""),
    ("scan", "csv"): (0, """state_name,relation,lhs,rhs,verdict,condition31,deficit_abs,sweep_param,sweep_value
r,R8,0.822467033424,0.539373895082,Satisfied,false,1,N,2
r,R12,5.25989306518,0.5,Satisfied,false,1,N,2
r,R8,0.822467033424,0.539373895082,Satisfied,false,1,N,3
r,R12,7.41309363932,0.5,Satisfied,false,1,N,3
"""),
}


@pytest.mark.parametrize("command,fmt", sorted(PINNED_OUTPUT))
def test_report_bytes_are_pinned(command, fmt, tmp_path, capsys):
    text, sweep = PINNED_SPECS[command]
    spec = write(tmp_path, "p.spec", text)
    argv = [command, spec, "--format", fmt] + (["--sweep", sweep] if sweep else [])
    assert run_main(argv, capsys)[:2] == PINNED_OUTPUT[command, fmt]


def _cpx_list(values):
    return ",".join(f"({float(z.real)!r},{float(z.imag)!r})" for z in values)


def _spherical_line(rng, l, name="sph"):
    c = rng.normal(size=2 * l + 1) + 1j * rng.normal(size=2 * l + 1)
    return f"state spherical name={name} l={l} c=[{_cpx_list(c)}]\n"


SPHERICAL_RELATIONS = (
    "relations R5 R6 R7 R8(alpha=1.5) R10 R11 R12(N=1,N1=0) R14 R30 R33 R36 R58 "
    "R60(a=Lz,b=Phi) R60(a=Lz,b=PhiSquared) R60(a=Theta,b=ThetaPhi)\n"
)
PERIODIC_RELATIONS = (
    "relations R5 R6 R7 R8(alpha=0.5) R10 R11 R12(N=2,N1=0) R14 R15 R30 R33 R52 "
    "R60(a=Lz,b=SinPhi) R60(a=Lz,b=Chi,N=2)\n"
)
ALL_FAMILY_RELATIONS = "relations R5 R6 R7 R8(alpha=1) R12(N=1,N1=-1) R14 R30 R33 R60(a=Lz,b=PhiSquared)\n"


@pytest.mark.parametrize("l", [0, 1, 8, 32, 64])
def test_spherical_reports_ignore_theta_nodes(l, tmp_path, capsys, oracle_rule):
    """The oracle's polar rule never reaches a report: every spherical report is the same at any size."""
    rng = np.random.default_rng(300 + l)
    spec = write(
        tmp_path,
        "s.spec",
        "setting normalize true\n"
        + _spherical_line(rng, l, "a")
        + f"state spherical name=zonal l={l} c={{0:(1,0)}}\n"
        + SPHERICAL_RELATIONS,
    )
    outputs = []
    for nodes in (2, 64, 128, 1024):
        oracle_rule("theta_rule_size", nodes)
        code, out, err = run_main(["eval", spec], capsys)
        assert code in (0, 1, 2), err
        outputs.append((code, out))
    assert outputs[0][1].count('"relation"') == 2 * 15
    assert outputs[1:] == outputs[:1] * 3


def test_spherical_deficit_real_parts_print_zero(tmp_path, capsys):
    """(c, T_a c) is real, so every spherical deficit_ab_re is an exact 0, never round-off or -0."""
    rng = np.random.default_rng(41)
    body = "".join(_spherical_line(rng, l, f"s{l}") for l in (1, 2, 5, 8, 17, 32, 64))
    spec = write(tmp_path, "s.spec", "setting normalize true\n" + body + SPHERICAL_RELATIONS)
    code, out, err = run_main(["eval", spec], capsys)
    assert code in (0, 1, 2), err
    printed = re.findall(r'"deficit_ab_re": ([^,}]*)', out)
    assert len(printed) == 7 * 15
    assert set(printed) == {"0"}


class TestBatchedScan:
    """Every point of a batched sweep equals an evaluation of its state alone."""

    @pytest.mark.parametrize("l", [0, 1, 2, 8, 64])
    @pytest.mark.parametrize("kind", ["mix", "cphase"])
    def test_spherical_sweeps(self, l, kind):
        rng = np.random.default_rng(l)
        text = "setting normalize true\n" + _spherical_line(rng, l) + SPHERICAL_RELATIONS
        points = 3 if l == 64 else 5
        name = "mix" if kind == "mix" else f"cphase:{l // 2}"
        rows = assert_scan_matches_fresh(text, f"{name}=0.1:2.9:{points}")
        assert len(rows) == points * 15

    @pytest.mark.parametrize("sweep", ["cphase:1=0:6:7", "cmag:-2=0:2:5"])
    def test_rotor_sweeps(self, sweep):
        text = (
            "setting normalize true\n"
            "state circular name=circ m=1\n"
            "state rotor name=one c={1:(1,0)}\n"
            "state rotor name=rot c={-2:(0.3,0.1),0:(0.5,0),1:(0,-0.4),3:(0.2,0.6)}\n"
            + PERIODIC_RELATIONS
        )
        rows = assert_scan_matches_fresh(text, sweep)
        assert {row["state_name"] for row in rows} == {"circ", "one", "rot"}

    @pytest.mark.parametrize("sweep", ["mix=0:3:4", "cphase:1=0:6:4"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_mixed_families(self, sweep, fmt):
        rng = np.random.default_rng(7)
        text = (
            "setting normalize true\n"
            + _spherical_line(rng, 3, "sph3")
            + _spherical_line(rng, 3, "sph3b")
            + _spherical_line(rng, 1, "sph1")
            + "state rotor name=rot c={0:(0.6,0),1:(0,0.8)}\n"
            + "state circular name=circ m=2\n"
            + "state pendulum name=pend n=2 inertia=2 omega=0.5\n"
            + ALL_FAMILY_RELATIONS
        )
        rows = assert_scan_matches_fresh(text, sweep, fmt)
        assert len(rows) == 4 * 6 * 9

    def test_pendulum_ladder_sweep_with_other_families(self):
        text = (
            "state pendulum name=pend n=0\n"
            "state rotor name=rot c={0:(0.6,0),1:(0,0.8)}\n" + ALL_FAMILY_RELATIONS
        )
        assert_scan_matches_fresh(text, "n=0:64:5")

    @pytest.mark.parametrize("sweep", ["alpha=-2:3:6", "N=1:4:4", "N1=-3:2:6"])
    def test_relation_parameter_sweeps(self, sweep):
        """alpha, N and N1 change the relations, not the states: each point has its own columns."""
        rng = np.random.default_rng(4)
        text = (
            "setting normalize true\n"
            + _spherical_line(rng, 2, "sph")
            + "state rotor name=rot c={-1:(0.6,0),2:(0,0.8)}\n"
            + "state circular name=circ m=3\n"
            + "relations R5 R8(alpha=1) R12(N=3,N1=0) R14 R60(a=Lz,b=Phi)\n"
            + "relations R8(alpha=0.5) R12(N=4,N1=-1) R60(a=Lz,b=Chi,N=2)\n"
        )
        rows = assert_scan_matches_fresh(text, sweep)
        points = int(sweep.rsplit(":", 1)[1])
        key = "alpha" if sweep.startswith("alpha") else "delta_chi"
        assert len({row["diagnostics"][key] for row in rows if key in row["diagnostics"]}) >= points
        assert len(rows) == points * 3 * 8

    @pytest.mark.parametrize("sweep", ["alpha=-2:3:6", "N=1:4:4", "N1=-3:2:6"])
    def test_relation_parameter_sweeps_on_the_pendulum(self, sweep):
        text = (
            "state pendulum name=pend n=4 inertia=2 omega=0.5\n"
            "state pendulum name=top n=64 hbar=3\n"
            "relations R5 R8(alpha=1) R12(N=3,N1=0) R12(N=4,N1=-1) R14 R60(a=Lz,b=PhiSquared)\n"
        )
        rows = assert_scan_matches_fresh(text, sweep)
        assert len(rows) == int(sweep.rsplit(":", 1)[1]) * 2 * 6

    def test_alpha_sweep_computes_one_r8_column_per_point(self, tmp_path, monkeypatch):
        from lzphi import relations

        computed = collections.Counter()
        real = relations._relation_column

        def column(stack, relation, params, tol):
            computed[(len(stack.states), relation.value)] += 1
            return real(stack, relation, params, tol)

        monkeypatch.setattr(relations, "_relation_column", column)
        spec = write(
            tmp_path,
            "s.spec",
            "state rotor c={0:(0.6,0),1:(0,0.8)}\nstate rotor c={0:(0,0.6),1:(0.8,0)}\n"
            "relations R5 R8(alpha=1) R30\n",
        )
        main(["scan", spec, "--sweep", "alpha=0:3:4", "--output", str(tmp_path / "out")])
        # the points share their two states, so each column covers both rows
        assert computed == {(2, "R5"): 1, (2, "R8"): 4, (2, "R30"): 1}

    @given(
        l=hst.integers(0, 10),
        data=hst.data(),
        kind=hst.sampled_from(["mix", "cphase"]),
        points=hst.integers(1, 4),
    )
    @settings(max_examples=25)
    def test_random_spherical_states(self, l, data, kind, points):
        part = hst.floats(-1.0, 1.0, allow_nan=False)
        coeffs = [
            complex(*data.draw(hst.tuples(part, part))) for _ in range(2 * l + 1)
        ]
        if sum(abs(c) ** 2 for c in coeffs) < 1e-6:
            coeffs[l] = 1.0
        text = (
            "setting normalize true\n"
            f"state spherical l={l} c=[{_cpx_list(coeffs)}]\n" + SPHERICAL_RELATIONS
        )
        m = data.draw(hst.integers(-l, l))
        name = "mix" if kind == "mix" else f"cphase:{m}"
        assert_scan_matches_fresh(text, f"{name}=0:3:{points}")


class TestInputErrors:
    """Out-of-domain input is a coded input error (exit 3), never a number or a trace."""

    SPEC = "state spherical l=2 c=[(0,0),(0.6,0),(0,0),(0,0.8),(0,0)]\nrelations R5 R30\n"

    @pytest.mark.parametrize(
        "relation", [f"R12(N={10**400},N1=0)", f"R60(a=Chi,b=Chi,N={10**400})"], ids=["R12", "R60"]
    )
    def test_windings_without_a_finite_float_are_input_errors(self, tmp_path, capsys, relation):
        spec = write(tmp_path, "w.spec", f"state circular m=3\nrelations {relation}\n")
        code, out, err = run_main(["eval", spec], capsys)
        assert code == 3
        assert err.startswith("error:") and "not a finite float" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tolerance", "nan"],
            ["--tolerance", "inf"],
            ["--tolerance=-1e-9"],
            ["--tolerance=-inf"],
            ["--tolerance", "1e400"],
            ["--tolerance", "-1"],
        ],
    )
    def test_bad_flag_values(self, tmp_path, capsys, flags):
        spec = write(tmp_path, "s.spec", self.SPEC)
        code, out, err = run_main(["eval", spec, *flags], capsys)
        assert code == 3
        assert "[bad-value]" in err
        assert out == ""

    @pytest.mark.parametrize(
        "line, where",
        [
            pytest.param("setting tolerance -1e-9", "col 19: [bad-value]", id="setting tolerance -1e-9"),
            # the oracle sizes its own rules: a node count is no setting at all
            *(
                pytest.param(line, "col 9: [unknown-setting]", id=line)
                for line in (
                    "setting phi_nodes 1",
                    "setting phi_nodes 1025",
                    "setting theta_nodes 1",
                    "setting theta_nodes 1025",
                    "setting hermite_nodes 0",
                    "setting hermite_nodes 371",
                )
            ),
        ],
    )
    def test_bad_setting_lines(self, tmp_path, capsys, line, where):
        spec = write(tmp_path, "s.spec", line + "\n" + self.SPEC)
        code, out, err = run_main(["eval", spec], capsys)
        assert code == 3
        assert f"line 1, {where}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "{spec}", "--format", "xml"],
            ["eval"],
            ["eval", "{spec}", "--tolerance", "x"],
            ["eval", "{spec}", "--quad-nodes", "abc"],
            ["eval", "{spec}", "--quad-nodes", "64"],
            ["eval", "{spec}", "--bogus"],
            ["scan", "{spec}"],
            ["frobnicate", "{spec}"],
            [],
        ],
        ids=["format-xml", "no-specfile", "tolerance-x", "quad-nodes-abc", "quad-nodes-64",
             "bogus-flag", "scan-without-sweep", "unknown-subcommand", "no-subcommand"],
    )
    def test_usage_errors_exit_three(self, tmp_path, capsys, args):
        """argparse's usage errors are input errors (exit 3), not its own exit 2."""
        spec = write(tmp_path, "s.spec", self.SPEC)
        code, out, err = run_main([a.format(spec=spec) for a in args], capsys)
        assert code == 3
        assert err.startswith("error: [usage] lzphi") and "Traceback" not in err
        assert out == ""

    #: per kind of unreadable spec file, its code and the reason its message gives
    UNREADABLE = {
        "missing": ("io", "No such file or directory"),
        "directory": ("io", "Is a directory"),
        "not-utf8": ("encoding", "is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    }

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    @pytest.mark.parametrize("command", [["eval"], ["scan", "--sweep", "alpha=0:1:2"]])
    def test_unreadable_spec_files_are_coded(self, tmp_path, capsys, case, command):
        """A spec file that cannot be read is an input error that names its code and the file."""
        path = tmp_path / "s.spec"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b"state circular m=1 \xff\nrelations R5\n")
        code, reason = self.UNREADABLE[case]
        exit_code, out, err = run_main([command[0], str(path), *command[1:]], capsys)
        assert exit_code == 3 and out == ""
        assert err.startswith(f"error: [{code}] spec file {str(path)!r}") and reason in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", [["eval"], ["scan", "--sweep", "mix=0:1:2"]])
    def test_an_output_path_that_cannot_be_written_is_coded(self, tmp_path, capsys, command):
        spec = write(tmp_path, "s.spec", self.SPEC)
        target = tmp_path / "out"
        target.mkdir()
        exit_code, out, err = run_main([command[0], spec, *command[1:], "--output", str(target)], capsys)
        assert exit_code == 3 and out == ""
        assert err == f"error: [io] output file {str(target)!r}: Is a directory\n"

    @pytest.mark.parametrize("args", [["--help"], ["eval", "--help"], ["scan", "--help"]])
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 0
        assert "usage: lzphi" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text",
        [
            "setting hbar 1e400\nstate circular m=1\n",
            "state pendulum n=2 inertia=1e400\n",
            "state pendulum n=2 inertia=1e300 omega=1e300\n",
            "state pendulum n=2 inertia=1e-300 omega=1e-300\n",
            "state circular m=1 hbar=1e200\n",
        ],
    )
    def test_non_finite_state_parameters(self, tmp_path, capsys, text):
        spec = write(tmp_path, "s.spec", text + "relations R5 R7\n")
        code, out, err = run_main(["eval", spec], capsys)
        assert code == 3
        assert "[bad-value]" in err
        assert out == ""

    @pytest.mark.parametrize(
        "line",
        [
            f"state circular m={10**20}",
            f"state circular m={2**52 + 1}",
            f"state rotor c={{{2**62}:(0.6,0),{-2**62}:(0,0.8)}}",
            f"state rotor c={{0:(0.6,0),{-2**52 - 1}:(0,0.8)}}",
        ],
        ids=["circular-1e20", "circular-2^52+1", "rotor-2^62", "rotor-2^52+1"],
    )
    def test_huge_m_is_a_bad_value(self, tmp_path, capsys, line):
        spec = write(tmp_path, "s.spec", "state circular m=0\n" + line + "\nrelations R5 R6\n")
        code, out, err = run_main(["eval", spec], capsys)
        assert code == 3
        assert err.startswith("error: line 2, col 7: [bad-value]") and "2**52" in err
        assert "Traceback" not in err
        assert out == ""

    def test_largest_m_is_accepted(self, tmp_path, capsys):
        """The numbers at |m| = 2^52 are those of the same state near m = 0."""
        top = 2**52
        spec = write(
            tmp_path,
            "s.spec",
            f"state circular m={-top}\n"
            f"state rotor c={{{top}:(0.6,0),{-top}:(0,0.8)}}\n"
            f"state rotor name=edge c={{{top - 1}:(0.6,0),{top}:(0.8,0)}}\n"
            "state rotor name=low c={0:(0.6,0),1:(0.8,0)}\n"
            "relations R5 R6 R15\n",
        )
        code, out, err = run_main(["eval", spec], capsys)
        assert code in (0, 1, 2), err
        reports = {(r["state_name"], r["relation"]): r for r in json.loads(out)}
        assert len(reports) == 12
        assert reports["s1", "R5"]["lhs"] == 0
        wide = 0.96 * top * math.pi / math.sqrt(3.0)  # dLz = 0.96 * 2^52, dphi of the uniform density
        assert reports["s2", "R5"]["lhs"] == pytest.approx(wide, rel=1e-10)
        for relation in ("R5", "R6", "R15"):
            edge, low = reports["edge", relation], reports["low", relation]
            assert edge["lhs"] == pytest.approx(low["lhs"], rel=1e-12), relation
            assert edge["rhs"] == pytest.approx(low["rhs"], rel=1e-12), relation
            assert edge["verdict"] == low["verdict"], relation
        assert reports["edge", "R15"]["diagnostics"]["boundary_term"] == pytest.approx(0.96, abs=1e-15)

    def test_overflowing_relation_is_an_input_error(self, tmp_path, capsys):
        """hbar^2*dphi^2 above 1e308 is refused, not printed as inf."""
        spec = write(
            tmp_path, "s.spec", "state pendulum n=3 inertia=1e-200 omega=1e-50 hbar=1e50\nrelations R14\n"
        )
        code, out, err = run_main(["eval", spec], capsys)
        assert code == 3
        assert "R14 is not finite" in err
        assert out == ""

    def test_huge_alpha_is_an_input_error(self, tmp_path, capsys):
        """alpha**2 above 1e308 is refused with exit 3, not an OverflowError."""
        spec = write(tmp_path, "s.spec", "state circular m=1\nrelations R8(alpha=1e200)\n")
        code, out, err = run_main(["eval", spec], capsys)
        assert code == 3
        assert "R8 is not finite" in err and "Traceback" not in err
        assert out == ""

    def test_huge_alpha_sweep_is_an_input_error(self, tmp_path, capsys):
        spec = write(tmp_path, "s.spec", "state circular m=1\nrelations R8(alpha=1)\n")
        code, out, err = run_main(["scan", spec, "--sweep", "alpha=1e200:1e300:2"], capsys)
        assert code == 3
        assert "R8 is not finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            ("state circular m=1\nrelations R8(alpha=1e200)\n", [],
             "[overflow] relation R8 is not finite on state s1 (lhs=inf, rhs=5e+199); "
             "its moments overflow"),
            ("state pendulum name=osc n=0 inertia=1e-200 omega=1 hbar=1e100\nrelations R5 R14\n", [],
             "[overflow] relation R14 is not finite on state osc (lhs=inf, rhs=1e+200); "
             "its moments overflow"),
            ("state circular name=ring m=1\nrelations R5 R8(alpha=1)\n", ["--sweep", "alpha=1:1e200:2"],
             "sweep 'alpha=1:1e200:2' at alpha=1e+200: [overflow] relation R8 is not finite on "
             "state ring (lhs=inf, rhs=5e+199); its moments overflow"),
            ("state circular m=1\nrelations R8(alpha=1)\n", ["--sweep", "alpha=1e200:2e200:2"],
             "sweep 'alpha=1e200:2e200:2' at alpha=1e+200: [overflow] relation R8 is not finite on "
             "state s1 (lhs=inf, rhs=5e+199); its moments overflow"),
        ],
        ids=["eval-alpha", "eval-pendulum", "scan-second-point", "scan-first-point"],
    )
    def test_an_overflowing_row_is_coded_and_named(self, tmp_path, capsys, text, argv, message):
        """The code, the state and the relation; in a scan also the sweep and the point's value."""
        spec = write(tmp_path, "s.spec", text)
        for fmt in ("json", "csv"):
            command = ["scan", spec, *argv] if argv else ["eval", spec]
            code, out, err = run_main([*command, "--format", fmt], capsys)
            assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_integer_sweeps_do_not_wrap(self, tmp_path, capsys):
        """Sweep values beyond int64 stay exact Python ints: answered or refused, never wrapped."""
        assert cli._parse_sweep("N=1:1e19:2")[1] == [1, 10**19]
        assert cli._parse_sweep("n=0.5:2.5:3")[1] == [0, 2, 2]  # half to even, as before
        spec = write(tmp_path, "s.spec", "state rotor c={0:(0.6,0),1:(0,0.8)}\nrelations R12(N=1,N1=0)\n")
        code, out, err = run_main(["scan", spec, "--sweep", "N=1:1e19:2"], capsys)
        assert code in (0, 1, 2), err
        assert [row["sweep_value"] for row in json.loads(out)] == [1, 1e19]
        code, out, err = run_main(["scan", spec, "--sweep", "N=1:1e300:2"], capsys)
        assert code == 3 and "delta_chi" in err and out == ""
        spec = write(tmp_path, "p.spec", "state pendulum n=0\nrelations R5\n")
        code, out, err = run_main(["scan", spec, "--sweep", "n=0:1e19:2"], capsys)
        assert code == 3 and err == "error: sweep 'n=0:1e19:2': [bad-value] n must be in 0..64\n" and out == ""

    def test_extreme_pendulum_products_stay_finite(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "s.spec",
            "state pendulum n=3 inertia=1e200 omega=1e-200 hbar=1e150\nrelations R5 R30 R33\n",
        )
        code, out, err = run_main(["eval", spec], capsys)
        assert code == 0, err
        assert [row["lhs"] for row in json.loads(out)] == [3.5e150] * 3

    @pytest.mark.parametrize(
        "selection", ["R12(N=1,N1=0)", "R12(N=1,N1=0) R8(alpha=1e200)"], ids=["params", "row-first"]
    )
    def test_first_error_in_report_order(self, tmp_path, capsys, selection):
        """Point N = 0 meets N == N1 as it is built, before any row is evaluated.

        R8 overflows on point N = -1, whose rows come first in report order.
        """
        spec = write(tmp_path, "s.spec", f"state circular m=1\nrelations {selection}\n")
        code, out, err = run_main(["scan", spec, "--sweep", "N=-1:1:3"], capsys)
        assert code == 3
        assert err == "error: sweep 'N=-1:1:3': [param-constraint] delta_chi requires N != N1\n"
        assert out == ""

    @pytest.mark.parametrize(
        "state,reports",
        [
            ("setting normalize true\nstate rotor c={0:(1e200,0),1:(0,1e200)}", True),
            ("setting normalize true\nstate rotor c={0:(1e-320,0),1:(0,1e-320)}", True),
            ("setting normalize true\nstate rotor c={0:(1.7e308,-1.7e308),5:(0,1e308)}", True),
            ("setting normalize true\nstate spherical l=1 c=[(1e300,0),(0,0),(0,-1e300)]", True),
            ("setting normalize true\nstate spherical l=2 c={-2:(5e-324,0),2:(0,5e-324)}", True),
            ("state rotor c={0:(1e200,0),1:(0,1e200)}", False),
            ("setting normalize true\nstate rotor c={0:(0,0),1:(0,0)}", False),
        ],
        ids=["rotor-1e200", "rotor-1e-320", "rotor-1.7e308", "spherical-1e300",
             "spherical-5e-324", "unnormalized-1e200", "all-zero"],
    )
    @pytest.mark.parametrize("sweep", [None, "cmag:0=1e-320:1e300:3"])
    def test_huge_and_tiny_coefficients(self, tmp_path, capsys, state, reports, sweep):
        """A finite amplitude normalizes to finite reports; the rest is a coded input error, never a traceback."""
        spec = write(tmp_path, "s.spec", state + "\nrelations R5 R14 R30 R33\n")
        args = ["eval", spec] if sweep is None else ["scan", spec, "--sweep", sweep]
        code, out, err = run_main(args, capsys)
        assert "Traceback" not in err
        if not reports:
            assert code == 3
            assert re.match(r"error: line \d+, col \d+: \[not-normalized\] ", err), err
            assert out == ""
            return
        assert code in (0, 1, 2), err
        for row in json.loads(out, parse_constant=pytest.fail):
            assert all(math.isfinite(row[key]) for key in ("lhs", "rhs", "deficit_abs"))
            assert all(math.isfinite(value) for value in row["diagnostics"].values())

    @pytest.mark.parametrize(
        "sweep", ["mix=nan:1:3", "mix=0:inf:3", "cphase:1=-inf:0:2", "cmag:0=0:nan:2"]
    )
    def test_non_finite_sweep_bounds(self, tmp_path, capsys, sweep):
        spec = write(tmp_path, "s.spec", self.SPEC)
        code, out, err = run_main(["scan", spec, "--sweep", sweep], capsys)
        assert code == 3
        assert sweep in err
        assert out == ""

    @pytest.mark.parametrize("sweep", ["alpha=-1e308:1e308:3", "mix=1.7e308:-1.7e308:2", "N=-1e308:1e308:3"])
    def test_a_sweep_whose_span_overflows_is_refused(self, tmp_path, capsys, sweep):
        """STOP - START past a float is refused before any point is built, and numpy never warns."""
        spec = write(tmp_path, "s.spec", "state circular m=1\nrelations R8(alpha=1)\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(["scan", spec, "--sweep", sweep], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: sweep {sweep!r}: [bad-value] STOP - START is not a finite float\n"

    @pytest.mark.parametrize("sweep", ["cphase:9=0:1:3", "cmag:-3=0:1:3", "cphase=0:1:3"])
    def test_coefficient_no_state_carries(self, tmp_path, capsys, sweep):
        spec = write(
            tmp_path,
            "s.spec",
            "state rotor c={0:(0.6,0),1:(0,0.8)}\nstate pendulum n=1\n" + self.SPEC,
        )
        code, out, err = run_main(["scan", spec, "--sweep", sweep], capsys)
        assert code == 3
        assert sweep.split("=")[0] in err
        assert out == ""

    @pytest.mark.parametrize(
        "steps", ["100000000000", "10001", "1e3", "2.5", "0", "-3", "many", "1_0", " 2",
         pytest.param("2" * 5000, id="5000-digits")]
    )
    def test_sweep_steps_must_be_a_whole_number_within_the_bound(self, tmp_path, capsys, steps):
        """STEPS is checked before any point is allocated: no MemoryError, no raw int() message."""
        spec = write(tmp_path, "s.spec", self.SPEC)
        sweep = f"mix=0:1:{steps}"
        code, out, err = run_main(["scan", spec, "--sweep", sweep], capsys)
        assert code == 3
        assert err.startswith(f"error: sweep {sweep!r}: [bad-value] STEPS must be a whole number from 1 to 10000")
        assert "Traceback" not in err and out == ""

    def test_sweep_steps_at_the_bound_run(self, tmp_path, capsys):
        spec = write(tmp_path, "s.spec", "state circular m=2\nrelations R8(alpha=1)\n")
        code, out, err = run_main(["scan", spec, "--sweep", "alpha=0:1:10000", "--format", "csv"], capsys)
        assert code in (0, 1, 2), err
        assert len(out.strip().split("\n")) == 1 + 10000

    IDLE_SPEC = (
        "state circular m=2\nstate spherical l=2 c=[(0,0),(0.6,0),(0,0),(0,0.8),(0,0)]\n"
        "relations R5 R30\n"
    )

    @pytest.mark.parametrize(
        "sweep, spec, reason",
        [
            ("n=0:3:4", IDLE_SPEC, "no pendulum state"),
            ("alpha=0:2:3", IDLE_SPEC, "no R8 relation"),
            ("N=0:2:3", IDLE_SPEC, "no R12 relation and no R60 Chi side"),
            ("N=0:2:3", "state circular m=2\nrelations R60(a=Lz,b=Phi)\n", "no R60 Chi side"),
            ("N1=0:2:3", IDLE_SPEC, "no R12 relation"),
            ("N1=0:2:3", "state circular m=2\nrelations R60(a=Chi,b=Lz,N=1)\n", "no R12"),
            ("mix=0:3:4", "state circular m=2\nstate pendulum n=1\nrelations R5\n", "no spherical"),
        ],
    )
    def test_a_sweep_that_changes_nothing_is_refused(self, tmp_path, capsys, sweep, spec, reason):
        path = write(tmp_path, "s.spec", spec)
        code, out, err = run_main(["scan", path, "--sweep", sweep], capsys)
        assert code == 3
        assert err.startswith(f"error: sweep {sweep!r}: [idle-sweep] ") and reason in err
        assert out == ""

    @pytest.mark.parametrize(
        "sweep, spec",
        [
            ("n=0:3:4", "state circular m=2\nstate pendulum n=1\nrelations R5\n"),
            ("alpha=0:2:3", "state circular m=2\nrelations R8(alpha=1)\n"),
            ("N=0:2:3", "state circular m=2\nrelations R60(a=Chi,b=Lz,N=1)\n"),
            ("N1=0:2:3", "state circular m=2\nrelations R12(N=5,N1=0)\n"),
            ("mix=0:3:4", "state spherical l=0 c=[(1,0)]\nrelations R5\n"),
            ("cmag:1=0.5:1:3", "state circular m=2\nstate rotor c={0:(0.6,0),1:(0,0.8)}\nrelations R5\n"),
            ("cphase:-2=0:1:3", "state pendulum n=1\n" + IDLE_SPEC),
        ],
    )
    def test_a_sweep_with_a_target_runs(self, tmp_path, capsys, sweep, spec):
        path = write(tmp_path, "s.spec", spec)
        code, out, err = run_main(["scan", path, "--sweep", sweep], capsys)
        assert code in (0, 1, 2), err
        assert out

    EVERY_TARGET = (
        "state circular m=2\nstate rotor c={0:(0.6,0),1:(0,0.8)}\n"
        "state spherical l=2 c=[(0,0),(0.6,0),(0,0),(0,0.8),(0,0)]\nstate pendulum n=1\n"
        "relations R5 R8(alpha=1) R12(N=2,N1=-1) R60(a=Lz,b=Phi)\n"
    )

    @pytest.mark.parametrize(
        "sweep, reached",
        [
            ("alpha=0:2:3", ["R8"]),
            ("n=0:3:4", ["pendulum"]),
            ("N=0:2:3", ["R12"]),  # not the R60 without a Chi side
            ("N1=0:2:3", ["R12"]),
            ("mix=0:3:4", ["spherical"]),
            ("cmag:1=0.5:1:3", ["rotor", "spherical"]),
            ("cphase:-2=0:1:3", ["spherical"]),
        ],
    )
    def test_a_sweep_point_keeps_the_objects_it_does_not_reach(self, sweep, reached):
        """Whatever a sweep does not reach is the document's own object: that is how a scan tells an idle sweep."""
        labels = ["circular", "rotor", "spherical", "pendulum", "R5", "R8", "R12", "R60"]
        doc = specio.parse(self.EVERY_TARGET)
        param, values = cli._parse_sweep(sweep)
        states, selections = cli._apply_sweep(doc, param, values[0])
        pairs = zip(labels, states + selections, doc.states + doc.selections)
        assert [label for label, new, old in pairs if new[1] is not old[1]] == reached

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ("N=-1:1:3", "delta_chi requires N != N1"),
            ("N1=2:3:2", "delta_chi radicand is negative (-4 + 1/12) for N=1, N1=2"),
            ("N=1:1e300:2", "delta_chi is not a finite float: the windings N, N1 are too large"),
        ],
        ids=["equal", "radicand", "width"],
    )
    def test_a_point_its_relation_refuses_is_refused_as_built(self, tmp_path, capsys, sweep, message):
        """The first refused point names the sweep, and no point is evaluated."""
        spec = write(tmp_path, "s.spec", "state circular m=1\nrelations R8(alpha=1e200) R12(N=1,N1=0)\n")
        code, out, err = run_main(["scan", spec, "--sweep", sweep], capsys)
        assert code == 3 and out == ""
        assert err == f"error: sweep {sweep!r}: [param-constraint] {message}\n"

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ("alpha:junk=0:1:2", "[unknown-key] unknown sweep parameter 'alpha:junk'; choose one of alpha, n,"),
            ("n:1=0:2:3", "[unknown-key] unknown sweep parameter 'n:1'; choose one of alpha, n,"),
            ("mix:=0:1:2", "[unknown-key] unknown sweep parameter 'mix:'; choose one of alpha, n,"),
            ("cmag:1_0=0:1:2", "[syntax] sweep 'cmag:1_0' reads cmag:<m>=START:STOP:STEPS"),
            ("cphase: 1=0:1:2", "[syntax] sweep 'cphase: 1' reads cphase:<m>=START:STOP:STEPS"),
        ],
        ids=["alpha-suffix", "n-suffix", "mix-empty-suffix", "cmag-underscore", "cphase-space"],
    )
    def test_only_coefficient_sweeps_take_an_integer_index(self, tmp_path, capsys, sweep, message):
        spec = write(
            tmp_path,
            "s.spec",
            "state pendulum n=1\nstate spherical l=1 c=[(0,0),(1,0),(0,0)]\n"
            "state rotor c={0:(0.6,0),1:(0,0.8)}\nrelations R5 R8(alpha=1)\n",
        )
        code, out, err = run_main(["scan", spec, "--sweep", sweep], capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {message}"), err

    def test_state_without_the_coefficient_is_left_as_is(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "s.spec",
            "state rotor name=rot c={0:(0.6,0),1:(0,0.8)}\n"
            "state spherical name=sph l=3 c={3:(1,0)}\nrelations R5 R30\n",
        )
        code, out, err = run_main(["scan", spec, "--sweep", "cphase:3=0:3:3", "--format", "csv"], capsys)
        assert code in (0, 1, 2), err
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3 * 2 * 2
        rotor_rows = {tuple(row.split(",")[1:7]) for row in rows if row.startswith("rot,")}
        assert len(rotor_rows) == 2


    @pytest.mark.parametrize(
        "text, where, message",
        [
            ("setting hbar 0\nstate circular m=1\n", "line 1, col 14", "hbar must be finite"),
            ("state circular m=1 hbar=2\nsetting hbar -1\n", "line 2, col 14", "hbar must be finite"),
            ("setting hbar 0\nstate circular m=1 hbar=1\n", "line 1, col 14", "hbar must be finite"),
            ("setting hbar -1\nstate rotor c={0:(1,0)} hbar=2\n", "line 1, col 14", "hbar must be finite"),
            ("setting hbar 1e-170\nstate circular m=1 hbar=1\n", "line 1, col 14", "hbar**2 must be"),
            ("setting hbar 1e400\nstate circular m=1 hbar=1\n", "line 1, col 14", "too large for a float"),
        ],
        ids=["zero", "negative-after-state", "zero-shadowed", "negative-shadowed", "square-underflows",
             "overflows-shadowed"],
    )
    def test_a_bad_hbar_setting_is_blamed_on_its_own_line(self, tmp_path, capsys, text, where, message):
        """The setting is checked as the states check hbar, whether or not a state reads it."""
        spec = write(tmp_path, "h.spec", text + "relations R5\n")
        code, out, err = run_main(["eval", spec], capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {where}: [bad-value] ") and message in err, err

    @pytest.mark.parametrize(
        "text, args, expected",
        [
            ("state circular m=1\nrelations R8(alpha=1e400)\n", [],
             "line 2, col 11: [bad-value] '1e400' is too large for a float"),
            ("state pendulum n=1 inertia=1e400\nrelations R5\n", [],
             "line 1, col 20: [bad-value] '1e400' is too large for a float"),
            ("state rotor c={0:(1e400,0)}\nrelations R5\n", [],
             "line 1, col 13: [bad-value] '1e400' is too large for a float"),
            (f"state rotor c={{0:(1,0)}}\nrelations R60(a=Lz,b=Chi,N={10**400})\n", [],
             "line 2, col 11: [bad-value] Chi's winding N is too large"),
            ("state spherical l=1 c=[(0,0),(1,0),(0,0)]\nrelations R5\n", ["--sweep", "mix=a:1:3"],
             "[bad-value] sweep 'mix=a:1:3' needs a finite START and STOP"),
            ("state circular m=1\nrelations R8(alpha=1)\n", ["--sweep", "alpha=0:1e400x:3"],
             "[bad-value] sweep 'alpha=0:1e400x:3' needs a finite START and STOP"),
            # the spec grammar has no digit separators and no spaces, which float() accepts
            ("state circular m=1\nrelations R8(alpha=1)\n", ["--sweep", "alpha=1_0:2_0:2"],
             "[bad-value] sweep 'alpha=1_0:2_0:2' needs a finite START and STOP"),
            ("state circular m=1\nrelations R8(alpha=1)\n", ["--sweep", "alpha= 0:1:2"],
             "[bad-value] sweep 'alpha= 0:1:2' needs a finite START and STOP"),
            ("state rotor c={0:(1,0)}\nrelations R60(a=Lz,b=Chi)\n", ["--sweep", "N=0:1e308:2"],
             "sweep 'N=0:1e308:2': [bad-value] Chi's winding N is too large"),
        ],
        ids=["alpha", "inertia", "coefficient", "chi-winding", "sweep-start", "sweep-stop",
             "sweep-underscore", "sweep-space", "sweep-chi-winding"],
    )
    def test_values_past_a_float_are_coded_at_their_token(self, tmp_path, capsys, text, args, expected):
        spec = write(tmp_path, "o.spec", text)
        code, out, err = run_main(["scan" if args else "eval", spec, *args], capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {expected}"), err


class TestExitCodes:
    @pytest.mark.parametrize(
        "verdicts, code",
        [
            ([Verdict.SATISFIED], 0),
            ([Verdict.SATISFIED, Verdict.SATISFIED_WITH_EQUALITY], 0),
            ([Verdict.SATISFIED, Verdict.VIOLATED, Verdict.INDETERMINATE], 1),
            ([Verdict.NOT_APPLICABLE], 2),
            ([Verdict.INDETERMINATE, Verdict.SATISFIED], 2),
            ([], 0),
        ],
    )
    def test_mapping_is_exhaustive(self, verdicts, code):
        assert exit_code_for(verdicts) == code


def test_console_entry_point_runs(tmp_path):
    spec = tmp_path / "p.spec"
    spec.write_text("state pendulum n=0\nrelations R5\n")
    first = subprocess.run(
        [sys.executable, "-m", "lzphi.cli", "eval", str(spec)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    second = subprocess.run(
        [sys.executable, "-m", "lzphi.cli", "eval", str(spec)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_cli_import_leaves_numpy_polynomial_unloaded():
    """Nothing in lzphi loads numpy.polynomial: not the CLI, not the oracle's Hermite rules."""
    probe = (
        "import sys, numpy; before = 'numpy.polynomial' in sys.modules; import lzphi.cli; "
        "loaded = 'numpy.polynomial' in sys.modules; "
        "from lzphi import LZ, PendulumState, gauss_hermite, std_dev; gauss_hermite(64); "
        "std_dev(LZ, PendulumState(n=3), method='quadrature'); "
        "print(before, loaded, 'numpy.polynomial' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    before, after_import, after_oracle = result.stdout.split()
    assert (after_import, after_oracle) == ("False", "False") or before == "True"


def test_the_benchmark_tracer_installs_on_the_package(tmp_path, capsys):
    """The benchmark's gate installs its tracer on every run, so every name it patches must resolve.

    A traced eval prints the untraced bytes, and uninstalling restores every
    name of the package.
    """
    import lzphi
    from perfbench import trace as tr

    pkg, modules = tr._modules()
    for module, attr in tr.CACHES:
        assert callable(getattr(modules[module], attr).cache_info), (module, attr)
    spec = tmp_path / "t.spec"
    spec.write_text("state pendulum n=2\nstate rotor c={0:(0.6,0),1:(0,0.8)}\nrelations R5 R30\n")
    main(["eval", str(spec)])
    plain = capsys.readouterr().out
    before = dict(vars(lzphi))
    tracer = tr.Tracer().install()
    try:
        cli.main(["eval", str(spec)])
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    assert {span[2] for span in tracer.spans} >= {"cli.main", "specio.parse", "relations.evaluate"}
    assert dict(vars(lzphi)) == before and pkg is lzphi
