import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from lzphi import (
    LZ,
    PHI,
    SIN_PHI,
    CircularState,
    PendulumState,
    RelationId,
    RelationParams,
    RotorSuperposition,
    SphericalState,
    canonical_text,
    chi,
    evaluate,
    parse,
    serialize_report,
)
from lzphi.specio import EngineSettings, SpecDocument, SpecParseError, _split_top

from .conftest import random_spherical
from .oracles import split_top


class TestParse:
    def test_minimal_document(self):
        doc = parse("state circular m=2\nrelations R5 R33\n")
        assert len(doc.states) == 1
        name, state = doc.states[0]
        assert name == "s1"
        assert state == CircularState(m=2)
        assert [rid for rid, _ in doc.selections] == [RelationId.R5, RelationId.R33]

    def test_spherical_with_list_coefficients(self):
        doc = parse(
            "state spherical l=1 c=[(0.7071068,0),(0,0),(0.7071068,0)]\nrelations R36 R58\n"
        )
        _, state = doc.states[0]
        assert isinstance(state, SphericalState)
        assert len(state.coefficients) == 3

    def test_comments_and_blank_lines(self):
        doc = parse(
            """
# a comment
state pendulum n=1   # trailing comment

relations R5
"""
        )
        assert isinstance(doc.states[0][1], PendulumState)

    def test_settings_apply_document_wide(self):
        doc = parse(
            "state rotor c={0:(1,0),1:(1,0)}\nrelations R5\nsetting normalize true\nsetting tolerance 1e-7\n"
        )
        assert doc.settings.tolerance == 1e-7
        total = sum(abs(c) ** 2 for _, c in doc.states[0][1].coefficients)
        assert total == pytest.approx(1.0)

    def test_relation_params(self):
        doc = parse("state circular m=0\nrelations R8(alpha=1.5) R12(N=1,N1=0) R60(a=Lz,b=Phi)\n")
        (r8, p8), (r12, p12), (r60, p60) = doc.selections
        assert p8.alpha == 1.5
        assert (p12.N, p12.N1) == (1, 0)
        assert p60.pair[0].name == "Lz"

    def test_named_states(self):
        doc = parse("state circular name=ring m=1\nrelations R5\n")
        assert doc.states[0][0] == "ring"


_S, _R = "state circular m=0\n", "relations R5\n"
#: (spec text, error code) for the raise sites of each code that ``parse`` documents
_ERROR_CODES = [
    (_S + "relations\n", "syntax"),
    ("setting tolerance\n" + _S + _R, "syntax"),
    ("state\n" + _R, "syntax"),
    ("state circular m\n" + _R, "syntax"),
    (_S + "relations r5\n", "syntax"),
    (_S + "relations R8(alpha)\n", "syntax"),
    ("state circular name=a m=0\nstate circular name=a m=1\n" + _R, "bad-value"),
    ("setting normalize yes\n" + _S + _R, "bad-value"),
    ("state rotor c={0:1}\n" + _R, "bad-value"),
    ("state circular m=0 m=1\n" + _R, "bad-value"),
    ("state circular name=1a m=0\n" + _R, "bad-value"),
    ("state rotor c=[(1,0)]\n" + _R, "bad-value"),
    ("state rotor c={}\n" + _R, "bad-value"),
    ("state rotor c={1(0,1)}\n" + _R, "bad-value"),
    ("state spherical l=0 c=(1,0)\n" + _R, "bad-value"),
    ("state circular\n" + _R, "missing-field"),
    ("state rotor\n" + _R, "missing-field"),
    ("state spherical c=[(1,0)]\n" + _R, "missing-field"),
    ("state spherical l=0\n" + _R, "missing-field"),
    ("state pendulum omega=2\n" + _R, "missing-field"),
    ("state circular m=0 q=1\n" + _R, "unknown-key"),
    (_S + "relations R5(x=1)\n", "unknown-key"),
    (_S + "relations R60(a=Lz,b=Psi)\n", "unknown-key"),
    (_S + "relations R8\n", "param-constraint"),
    (_S + "relations R12(N=1)\n", "param-constraint"),
    (_S + "relations R60(a=Lz)\n", "param-constraint"),
    (_S + "relations R12(N=0,N1=1)\n", "param-constraint"),
    (_S + f"relations R12(N={10**160},N1=0)\n", "param-constraint"),
    (_S + "relations R36\n", "wrong-family"),
    ("state pendulum n=0\nrelations R60(a=Lz,b=SinPhi)\n", "wrong-family"),
]


class TestParseErrors:
    def assert_code(self, text, code):
        with pytest.raises(SpecParseError) as excinfo:
            parse(text)
        assert excinfo.value.code == code
        assert excinfo.value.line >= 1
        assert excinfo.value.col >= 1

    @pytest.mark.parametrize("text,code", _ERROR_CODES)
    def test_error_code_table(self, text, code):
        self.assert_code(text, code)

    def test_unknown_relation(self):
        self.assert_code("state circular m=0\nrelations R99\n", "unknown-relation")

    def test_r12_equal_windings(self):
        with pytest.raises(SpecParseError, match="N != N1") as excinfo:
            parse("state circular m=0\nrelations R12(N=1,N1=1)\n")
        assert excinfo.value.code == "param-constraint"

    def test_m_out_of_range(self):
        self.assert_code(
            "state spherical l=1 c={2:(1,0)}\nrelations R5\n", "m-out-of-range"
        )

    def test_not_normalized(self):
        self.assert_code("state rotor c={0:(1,0),1:(1,0)}\nrelations R5\n", "not-normalized")

    def test_integer_with_decimal_point_rejected(self):
        self.assert_code("state circular m=2.0\nrelations R5\n", "bad-value")

    def test_unknown_family(self):
        self.assert_code("state toroidal m=0\nrelations R5\n", "unknown-family")

    def test_unknown_directive(self):
        self.assert_code("observe circular m=0\n", "unknown-directive")

    def test_unknown_setting(self):
        self.assert_code("setting nodes 10\nstate circular m=0\nrelations R5\n", "unknown-setting")

    def test_empty_document(self):
        self.assert_code("# nothing here\n", "empty-document")

    @pytest.mark.parametrize(
        "line",
        ["state rotor c={0:(1,0),1:(0,0),0:(1,0)}", "state spherical l=1 c={0:(0.6,0),0:(1,0)}"],
    )
    def test_repeated_m_in_coefficient_map(self, line):
        with pytest.raises(SpecParseError, match="m=0 given twice") as excinfo:
            parse(line + "\nrelations R5\n")
        assert excinfo.value.code == "bad-value"

    @pytest.mark.parametrize(
        "text",
        [
            "setting hbar 1e400\nstate circular m=1\n",
            "state pendulum n=2 inertia=1e400\n",
            "state pendulum n=2 inertia=1e300 omega=1e300\n",
            "state pendulum n=2 inertia=1e-300 omega=1e-300\n",
            "state spherical l=1 c=[(0,0),(1,0),(0,0)] inertia=1e400\n",
            "setting normalize true\nstate rotor c={0:(1e400,0),1:(1,0)}\n",
        ],
    )
    def test_non_finite_state_parameters(self, text):
        self.assert_code(text + "relations R5\n", "bad-value")

    def test_malformed_coefficient_list(self):
        self.assert_code("state spherical l=1 c=[(1,0),(0,0)]\nrelations R5\n", "bad-value")

    @pytest.mark.parametrize("line", ["setting tolerance -1e-9"])
    def test_out_of_range_settings_are_bad_values(self, line):
        self.assert_code(line + "\nstate circular m=0\nrelations R5\n", "bad-value")

    @pytest.mark.parametrize("hbar", [0.0, -1.0, float("inf"), float("nan"), 1e-170, 1e160])
    def test_settings_refuse_an_hbar_the_states_refuse(self, hbar):
        """No document holds an hbar setting its states would refuse, so canonical_text never prints one."""
        with pytest.raises(ValueError, match="hbar"):
            EngineSettings(hbar=hbar)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("state circular m={big}\n" + _R, (1, 16)),
            ("state pendulum n={big}\n" + _R, (1, 16)),
            ("state spherical l={big} c=[(1,0)]\n" + _R, (1, 17)),
            ("state rotor c={{{big}:(1,0)}}\n" + _R, (1, 13)),
            ("state spherical l=1 c={{-{big}:(1,0)}}\n" + _R, (1, 21)),
            (_S + "relations R12(N={big},N1=0)\n", (2, 11)),
            (_S + "relations R12(N=0,N1={big})\n", (2, 11)),
            (_S + "relations R60(a=Chi,b=Lz,N={big})\n", (2, 11)),
        ],
    )
    def test_integers_past_the_digit_limit_are_coded_at_their_token(self, text, where):
        """An integer longer than int() reads is a bad value at its own token, not Python's text."""
        with pytest.raises(SpecParseError, match="5000 digits is too long to read") as excinfo:
            parse(text.format(big="9" * 5000))
        assert excinfo.value.code == "bad-value"
        assert (excinfo.value.line, excinfo.value.col) == where

    @pytest.mark.parametrize("key", ["phi_nodes", "theta_nodes", "hermite_nodes"])
    def test_node_counts_are_unknown_settings(self, key):
        """The oracle sizes its own rules: no node count is a setting."""
        with pytest.raises(SpecParseError) as excinfo:
            parse(f"state circular m=0\nsetting {key} 128\nrelations R5\n")
        assert excinfo.value.code == "unknown-setting"
        assert (excinfo.value.line, excinfo.value.col) == (2, 9)

    @pytest.mark.parametrize(
        "overrides",
        [{"tolerance": float("nan")}, {"tolerance": -1.0}, {"tolerance": float("inf")}],
    )
    def test_out_of_range_overrides_are_bad_values(self, overrides):
        with pytest.raises(SpecParseError) as excinfo:
            parse("state circular m=0\nrelations R5\n", overrides=overrides)
        assert excinfo.value.code == "bad-value"
        assert excinfo.value.line == 0
        assert str(excinfo.value).startswith("[bad-value]")

    def test_wrong_family_is_raised_at_the_selection_in_report_order(self):
        """States come first in report order: s1's R36 fails before the pendulum's R60 side."""
        with pytest.raises(SpecParseError) as excinfo:
            parse("state circular m=1\nstate pendulum name=p n=0\nrelations R5 R60(a=Lz,b=SinPhi) R36\n")
        assert str(excinfo.value) == (
            "line 3, col 33: [wrong-family] relation R36 is not defined on the circular family (state s1)"
        )
        with pytest.raises(SpecParseError) as excinfo:
            parse("state pendulum name=p n=0\nstate circular m=1\nrelations R5 R60(a=Lz,b=SinPhi) R36\n")
        assert str(excinfo.value) == (
            "line 3, col 14: [wrong-family] observable SinPhi is not defined on the pendulum family (state p)"
        )

    def test_error_position_is_reported(self):
        with pytest.raises(SpecParseError) as excinfo:
            parse("state circular m=1\nrelations R5 R99\n")
        assert excinfo.value.line == 2
        assert excinfo.value.col == 14


@pytest.mark.parametrize("line", [
    "state spherical l=-1 c={0:(1,0)}",
    "state spherical l=-1 c=[]",
    "state spherical l=65 c=[(1,0)]",
    "state spherical l=65 c={0:(1,0)}",
    "state spherical l=-1",
])
def test_an_out_of_range_l_is_refused_before_its_coefficients_are_read(line):
    with pytest.raises(SpecParseError, match=r"\[bad-value\] l must be in 0\.\.64$") as excinfo:
        parse(line + "\nrelations R5\n")
    assert (excinfo.value.line, excinfo.value.col) == (1, 7)


class TestRoundTrip:
    def test_canonical_identity_on_random_documents(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            doc = _random_document(rng)
            text = canonical_text(doc)
            again = parse(text)
            assert again == doc
            assert canonical_text(again) == text

    def test_every_field_of_every_family_round_trips(self):
        """Each field off its default: m near 2^52, l = 64, n = 64, a sparse rotor, inertia, omega, hbar."""
        rng = np.random.default_rng(44)
        states = (
            ("c", CircularState(m=2**52 - 3, hbar=0.5)),
            ("cneg", CircularState(m=-(2**52), hbar=3.0)),
            ("r", RotorSuperposition({-2**52: 0.6, 7: 0.48j, 2**52 - 1: -0.64}, hbar=2.5)),
            ("sp", SphericalState(l=64, coefficients=random_spherical(rng, 64).coefficients,
                                  hbar=1.5, inertia=3.25)),
            ("p", PendulumState(n=64, inertia=2.5, omega=0.75, hbar=1.25)),
        )
        doc = SpecDocument(EngineSettings(tolerance=1e-7, hbar=0.25, normalize=True), states,
                           ((RelationId.R5, RelationParams()),))
        text = canonical_text(doc)
        assert parse(text) == doc
        assert canonical_text(parse(text)) == text
        lines = text.splitlines()
        assert lines[3] == "state circular name=c m=4503599627370493 hbar=0.5"
        assert lines[5] == ("state rotor name=r c={-4503599627370496:(0.6,0.0),7:(0.0,0.48),"
                            "4503599627370495:(-0.64,0.0)} hbar=2.5")
        assert lines[6].startswith("state spherical name=sp l=64 c=[(")
        assert lines[6].endswith(")] hbar=1.5 inertia=3.25")
        assert lines[7] == "state pendulum name=p n=64 inertia=2.5 omega=0.75 hbar=1.25"

    def test_round_trip_keeps_settings(self):
        doc = parse("setting tolerance 1e-7\nstate circular m=1\nrelations R5\n")
        assert parse(canonical_text(doc)) == doc

    def test_r60_windings_round_trip(self):
        """The winding lives in the Chi side, whether a library or the parser built it."""
        state = (("s", CircularState(m=1)),)
        pairs = [(LZ, chi(3)), (chi(-2), SIN_PHI), (chi(0), LZ), (LZ, PHI)]
        built = SpecDocument(EngineSettings(), state,
                             tuple((RelationId.R60, RelationParams(pair=pair)) for pair in pairs))
        assert parse(canonical_text(built)) == built
        parsed = parse("state circular name=s m=1\n"
                       "relations R60(a=Lz,b=Chi,N=3) R60(a=Chi,b=Lz,N=-2) R60(a=Lz,b=Chi)\n")
        assert [params.pair for _, params in parsed.selections] == [
            (LZ, chi(3)), (chi(-2), LZ), (LZ, chi(0))]
        assert parse(canonical_text(parsed)) == parsed
        # an N with no Chi side is accepted and changes nothing
        bare = "state circular m=1\nrelations R60(a=Lz,b=Phi)\n"
        assert parse(bare.replace("Phi)", "Phi,N=4)")) == parse(bare)

    def test_r60_pairs_the_text_cannot_hold_are_refused(self):
        """One N prints both Chi windings, and R60 reads no params.N: neither may be lost."""
        state = (("s", CircularState(m=1)),)
        same = SpecDocument(EngineSettings(), state,
                            ((RelationId.R60, RelationParams(pair=(chi(2), chi(2)))),))
        assert parse(canonical_text(same)) == same
        for params in (RelationParams(pair=(chi(1), chi(2))), RelationParams(pair=(LZ, PHI), N=5)):
            doc = SpecDocument(EngineSettings(), state, ((RelationId.R60, params),))
            with pytest.raises(ValueError, match="R60 prints as"):
                canonical_text(doc)


class TestSerialization:
    def test_pendulum_equality_report_json(self):
        report = evaluate(RelationId.R5, PendulumState(n=0), state_name="ground")
        text = serialize_report([report], "json")
        assert '"lhs": 0.5' in text
        assert '"rhs": 0.5' in text
        assert '"verdict": "SatisfiedWithEquality"' in text

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            serialize_report([], "json")

    def test_csv_shape(self):
        reports = [
            evaluate(RelationId.R5, PendulumState(n=0), state_name="a"),
            evaluate(RelationId.R5, PendulumState(n=1), state_name="b"),
        ]
        text = serialize_report(reports, "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("state_name,relation,lhs,rhs,verdict,condition31,deficit_abs")

    def test_deterministic_bytes(self):
        reports = [evaluate(RelationId.R33, CircularState(m=1), state_name="x")]
        a = serialize_report(reports, "json")
        reports2 = [evaluate(RelationId.R33, CircularState(m=1), state_name="x")]
        b = serialize_report(reports2, "json")
        assert a == b

    def test_twelve_significant_digits(self):
        report = evaluate(RelationId.R14, CircularState(m=1), state_name="x")
        text = serialize_report([report], "json")
        assert '"lhs": 3.2898681337' in text  # pi^2/3 rendered at 12 significant digits

    def test_escaped_state_name_bytes(self):
        """A library state name with quotes, % and braces prints as the per-report formatter printed it."""
        report = evaluate(RelationId.R5, PendulumState(n=1), state_name='q"%{x}\\')
        line = (
            '  {"condition31": true, "deficit_abs": 0, "diagnostics": {"deficit_ab_im": 0, '
            '"deficit_ab_re": 0}, "lhs": 1.5, "relation": "R5", "rhs": 0.5, '
            '"state_name": "q\\"%{x}\\\\", "verdict": "Satisfied"}'
        )
        assert serialize_report([report, report], "json") == f"[\n{line},\n{line}\n]\n"
        row = 'q"%{x}\\,R5,1.5,0.5,Satisfied,true,0'
        assert serialize_report([report, report], "csv") == (
            f"state_name,relation,lhs,rhs,verdict,condition31,deficit_abs\n{row}\n{row}\n"
        )

    def test_each_column_is_formatted_once_whatever_its_state_names(self, monkeypatch):
        """A walk of two stacks under R relations formats 2R columns, not one per (column, name).

        Each line is the body line of the report serialized alone.
        """
        from lzphi import relations, specio

        rng = np.random.default_rng(30)
        states = [(f"sph{k}", random_spherical(rng, 2)) for k in range(12)] + [
            (f"osc{n}", PendulumState(n=n, inertia=1.3, omega=0.7)) for n in range(6)
        ]
        selection = ((RelationId.R5, None), (RelationId.R8, RelationParams(alpha=1.5)),
                     (RelationId.R14, None), (RelationId.R33, None))
        rows = list(relations.report_rows([(tuple(states), selection)], 1e-9))
        assert len(rows) == 18 * len(selection)
        calls = []
        real = specio._column_texts

        def counted(column, *args):
            calls.append(column)
            return real(column, *args)

        monkeypatch.setattr(specio, "_column_texts", counted)
        for fmt in ("json", "csv"):
            calls.clear()
            lines = serialize_report(rows, fmt).splitlines()[1:len(rows) + 1]
            assert len(calls) == len(set(calls)) == 2 * len(selection)
            for line, (_, report) in zip(lines, rows):
                assert line.rstrip(",") == serialize_report([report], fmt).splitlines()[1]

    def test_unknown_format(self):
        report = evaluate(RelationId.R5, PendulumState(n=0))
        with pytest.raises(ValueError):
            serialize_report([report], "yaml")


def _random_document(rng) -> SpecDocument:
    settings = EngineSettings(
        tolerance=float(rng.choice([1e-9, 1e-8])),
        hbar=float(rng.choice([1.0, 2.0])),
        normalize=bool(rng.integers(0, 2)),
    )
    states = []
    for k in range(int(rng.integers(1, 4))):
        kind = rng.integers(0, 4)
        name = f"st{k}"
        if kind == 0:
            states.append((name, CircularState(m=int(rng.integers(-6, 7)), hbar=settings.hbar)))
        elif kind == 1:
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            states.append(
                (name, RotorSuperposition({0: c[0], int(rng.integers(1, 5)): c[1]}, hbar=settings.hbar))
            )
        elif kind == 2:
            l = int(rng.integers(1, 3))
            c = rng.normal(size=2 * l + 1) + 1j * rng.normal(size=2 * l + 1)
            c /= np.linalg.norm(c)
            states.append((name, SphericalState(l=l, coefficients=c, hbar=settings.hbar)))
        else:
            states.append((name, PendulumState(n=int(rng.integers(0, 8)), hbar=settings.hbar)))
    pool = [
        (RelationId.R5, RelationParams()),
        (RelationId.R30, RelationParams()),
        (RelationId.R33, RelationParams()),
        (RelationId.R8, RelationParams(alpha=float(np.round(rng.normal(), 6)))),
        (RelationId.R12, RelationParams(N=1, N1=0)),
    ]
    count = int(rng.integers(1, len(pool) + 1))
    picks = rng.choice(len(pool), size=count, replace=False)
    selections = tuple(pool[i] for i in sorted(picks))
    return SpecDocument(settings=settings, states=tuple(states), selections=selections)


@given(hst.text(alphabet="()[]{},:0123456789.-+eE ", max_size=80))
def test_split_top_matches_the_character_walk(text):
    """Only brackets and commas are visited, with the same parts, unbalanced brackets included."""
    assert _split_top(text) == split_top(text, ",")
