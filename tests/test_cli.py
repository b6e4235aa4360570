import collections
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as hst
import numpy as np
import pytest

from lzphi import cli, specio
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


def _fresh_scan(text, sweep, fmt):
    """Exit code and report text of a scan whose point states are each evaluated alone."""
    doc = specio.parse(text)
    param, values = cli._parse_sweep(sweep)
    reports = []
    for value in values:
        for report in cli._evaluate_document(cli._apply_sweep(doc, param, value)):
            report.diagnostics["sweep_value"] = float(value)
            report.diagnostics["sweep_param_name"] = param
            reports.append(report)
    code = exit_code_for(r.verdict for r in reports)
    return code, specio.serialize_report(reports, fmt)


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
        assert err.startswith("error: lzphi") and "Traceback" not in err
        assert out == ""

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
        assert code == 3 and "n must be in 0..64" in err and out == ""

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
        "sweep", ["mix=nan:1:3", "mix=0:inf:3", "cphase:1=-inf:0:2", "cmag:0=0:nan:2"]
    )
    def test_non_finite_sweep_bounds(self, tmp_path, capsys, sweep):
        spec = write(tmp_path, "s.spec", self.SPEC)
        code, out, err = run_main(["scan", spec, "--sweep", sweep], capsys)
        assert code == 3
        assert sweep in err
        assert out == ""

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
