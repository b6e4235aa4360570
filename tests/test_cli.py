import subprocess
import sys
from pathlib import Path

import pytest

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
