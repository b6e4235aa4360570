"""Parse the line-oriented state-spec format and serialize relation reports.

Grammar (one directive per line, '#' starts a comment, values carry no
whitespace)::

    setting <key> <value>
    state <family> <key>=<value> ...
    relations <ID>[(<k>=<v>,...)] ...

Families: circular | rotor | spherical | pendulum. Complex numbers are
written ``(re,im)``; spherical coefficients as ``c=[(re,im),...]`` (or a
``{m:(re,im),...}`` map), rotor coefficients as ``c={m:(re,im),...}``.
Settings apply document-wide regardless of position. Integers must not
carry a decimal point; floats accept decimal and scientific notation.

The settings (``hbar``, ``tolerance``, ``normalize``) are an
``EngineSettings``, owned here: the parser and the CLI read them, and no
moment or grid does. Observable names are those of
``observables.ObservableKind``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math
import re

from . import observables as obs
from . import relations
from .relations import CATALOG, RelationId, RelationParams, Verdict
from .states import (
    CircularState,
    PendulumState,
    RotorSuperposition,
    SphericalState,
    _require_finite_positive,
)


@dataclass(frozen=True)
class EngineSettings:
    """The document settings of the parser and the CLI; none reaches a moment or a grid.

    The tolerance must be finite and >= 0, and hbar passes the states' own
    check (hbar and hbar**2 finite and > 0), else ValueError.
    """

    tolerance: float = 1e-9
    hbar: float = 1.0
    normalize: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")
        _require_finite_positive(("hbar",), self.hbar)


DEFAULT_SETTINGS = EngineSettings()


class SpecParseError(Exception):
    """Parse or validation failure with a stable code and source position.

    Line 0 marks a value that came from the overrides (the CLI flags), not
    from a line of the spec.
    """

    def __init__(self, code: str, line: int, col: int, message: str):
        self.code = code
        self.line = line
        self.col = col
        where = f"line {line}, col {col}: " if line else ""
        super().__init__(f"{where}[{code}] {message}")


@dataclass(frozen=True)
class SpecDocument:
    settings: EngineSettings
    states: tuple  # of (name, State) pairs
    selections: tuple  # of (RelationId, RelationParams) pairs


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
#: the characters ``_split_top`` acts on: brackets and the comma
_SPLIT_RE = re.compile(r"[][(){},]")

_SETTING_KEYS = ("hbar", "tolerance", "normalize")


def parse(text: str, overrides: dict | None = None) -> SpecDocument:
    """Parse spec text into a validated document.

    ``overrides`` maps setting names to values that win over the
    document's own ``setting`` lines (the CLI flag precedence rule).
    Raises SpecParseError with a distinct code per failure class:
    ``syntax``, ``bad-value``, ``unknown-directive``, ``unknown-family``,
    ``unknown-setting``, ``unknown-key``, ``unknown-relation``,
    ``missing-field``, ``m-out-of-range``, ``not-normalized``,
    ``param-constraint``, ``empty-document``, ``wrong-family`` (a relation,
    or a side of an R60 pair, that a state's family does not take; raised
    at the selection, naming the state, for the first such pair in report
    order).
    """
    lines = [_tokens(raw) for raw in text.splitlines()]
    settings = _collect_settings(lines)
    if overrides:
        settings = _with_settings(settings, overrides, 0, 0)
    states: list = []
    selections: list = []
    where: list = []  # (line, col) of each selection
    auto = 0
    for lineno, tokens in enumerate(lines, start=1):
        if not tokens:
            continue
        word, col = tokens[0]
        if word == "setting":
            continue
        if word == "state":
            auto += 1
            states.append(_parse_state(tokens, lineno, settings, auto))
        elif word == "relations":
            if len(tokens) == 1:
                raise SpecParseError("syntax", lineno, col, "relations line lists no IDs")
            for tok, tcol in tokens[1:]:
                selections.append(_parse_selection(tok, lineno, tcol))
                where.append((lineno, tcol))
        else:
            raise SpecParseError(
                "unknown-directive", lineno, col, f"unknown directive {word!r}"
            )
    if not states or not selections:
        raise SpecParseError(
            "empty-document", len(lines) + 1, 1, "need at least one state and one relation"
        )
    names = [n for n, _ in states]
    if len(set(names)) != len(names):
        raise SpecParseError("bad-value", len(lines) + 1, 1, "duplicate state names")
    for name, state in states:
        for (rid, params), (lineno, col) in zip(selections, where):
            try:
                relations._check_family(rid, params, state)
            except ValueError as exc:
                raise SpecParseError("wrong-family", lineno, col, f"{exc} (state {name})") from None
    return SpecDocument(settings=settings, states=tuple(states), selections=tuple(selections))


def _collect_settings(lines) -> EngineSettings:
    settings = DEFAULT_SETTINGS
    for lineno, tokens in enumerate(lines, start=1):
        if not tokens or tokens[0][0] != "setting":
            continue
        if len(tokens) != 3:
            raise SpecParseError(
                "syntax", lineno, tokens[0][1], "setting lines read: setting <key> <value>"
            )
        (key, kcol), (value, vcol) = tokens[1], tokens[2]
        if key not in _SETTING_KEYS:
            raise SpecParseError("unknown-setting", lineno, kcol, f"unknown setting {key!r}")
        if key == "normalize":
            if value not in ("true", "false"):
                raise SpecParseError("bad-value", lineno, vcol, "normalize takes true or false")
            parsed = value == "true"
        else:
            parsed = _parse_float(value, lineno, vcol)
        settings = _with_settings(settings, {key: parsed}, lineno, vcol)
    return settings


def _with_settings(settings, changes: dict, lineno: int, col: int) -> EngineSettings:
    """``settings`` with ``changes`` applied; out-of-range values are bad-value errors."""
    try:
        return replace(settings, **changes)
    except ValueError as exc:
        raise SpecParseError("bad-value", lineno, col, str(exc)) from None


def _tokens(raw: str):
    body = raw.split("#", 1)[0]
    out = []
    for match in re.finditer(r"\S+", body):
        out.append((match.group(), match.start() + 1))
    return out


def _parse_int(text: str, lineno: int, col: int) -> int:
    if not _INT_RE.match(text):
        raise SpecParseError(
            "bad-value", lineno, col, f"expected an integer without a decimal point, got {text!r}"
        )
    try:
        return int(text)
    except ValueError:  # more digits than int() reads
        digits = len(text.lstrip("+-"))
        raise SpecParseError(
            "bad-value", lineno, col, f"an integer of {digits} digits is too long to read"
        ) from None


def _parse_float(text: str, lineno: int, col: int) -> float:
    if not _FLOAT_RE.match(text):
        raise SpecParseError("bad-value", lineno, col, f"expected a number, got {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise SpecParseError("bad-value", lineno, col, f"{text!r} is too large for a float")
    return value


def _parse_complex(text: str, lineno: int, col: int) -> complex:
    if not (text.startswith("(") and text.endswith(")")) or text.count(",") != 1:
        raise SpecParseError("bad-value", lineno, col, f"complex values read (re,im), got {text!r}")
    re_part, im_part = text[1:-1].split(",")
    return complex(_parse_float(re_part, lineno, col), _parse_float(im_part, lineno, col))


def _split_top(text: str):
    """Split on commas at bracket depth zero, visiting only brackets and commas."""
    parts, depth, start = [], 0, 0
    for match in _SPLIT_RE.finditer(text):
        ch = match.group()
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0:
            parts.append(text[start:match.start()])
            start = match.end()
    parts.append(text[start:])
    return parts


def _parse_state(tokens, lineno, settings, auto_index):
    if len(tokens) < 2:
        raise SpecParseError("syntax", lineno, tokens[0][1], "state lines name a family")
    family, fcol = tokens[1]
    if family not in ("circular", "rotor", "spherical", "pendulum"):
        raise SpecParseError("unknown-family", lineno, fcol, f"unknown family {family!r}")
    fields = {}
    cols = {}
    for tok, col in tokens[2:]:
        if "=" not in tok:
            raise SpecParseError("syntax", lineno, col, f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key in fields:
            raise SpecParseError("bad-value", lineno, col, f"duplicate key {key!r}")
        fields[key] = value
        cols[key] = col
    name = fields.pop("name", f"s{auto_index}")
    if not _NAME_RE.match(name):
        raise SpecParseError("bad-value", lineno, cols.get("name", fcol), f"bad state name {name!r}")
    hbar = _parse_float(fields.pop("hbar"), lineno, cols.get("hbar", fcol)) if "hbar" in fields else settings.hbar

    def take_int(key):
        if key not in fields:
            raise SpecParseError("missing-field", lineno, fcol, f"{family} state needs {key}=")
        return _parse_int(fields.pop(key), lineno, cols[key])

    def take_float(key, default):
        if key not in fields:
            return default
        return _parse_float(fields.pop(key), lineno, cols[key])

    try:
        if family == "circular":
            state = CircularState(m=take_int("m"), hbar=hbar)
        elif family == "pendulum":
            state = PendulumState(
                n=take_int("n"),
                inertia=take_float("inertia", 1.0),
                omega=take_float("omega", 1.0),
                hbar=hbar,
            )
        elif family == "rotor":
            cmap = _coeff_map(fields, cols, lineno, fcol)
            state = RotorSuperposition(cmap, hbar=hbar, normalize=settings.normalize)
        else:
            l = take_int("l")
            coeffs = _spherical_coeffs(l, fields, cols, lineno, fcol)
            state = SphericalState(
                l=l,
                coefficients=coeffs,
                hbar=hbar,
                inertia=take_float("inertia", 1.0),
                normalize=settings.normalize,
            )
    except SpecParseError:
        raise
    except ValueError as exc:
        code = "not-normalized" if "normalize" in str(exc) else "bad-value"
        raise SpecParseError(code, lineno, fcol, str(exc)) from exc
    if fields:
        stray = sorted(fields)[0]
        raise SpecParseError("unknown-key", lineno, cols[stray], f"unknown key {stray!r} for {family}")
    return (name, state)


def _coeff_map(fields, cols, lineno, fcol):
    if "c" not in fields:
        raise SpecParseError("missing-field", lineno, fcol, "rotor state needs c={m:(re,im),...}")
    text, col = fields.pop("c"), cols["c"]
    if not (text.startswith("{") and text.endswith("}")):
        raise SpecParseError("bad-value", lineno, col, "rotor coefficients read c={m:(re,im),...}")
    out = _parse_coeff_entries(text, lineno, col)
    if not out:
        raise SpecParseError("bad-value", lineno, col, "empty coefficient map")
    return out


def _parse_coeff_entries(text, lineno, col):
    """The {m:(re,im),...} map of a ``c=`` value; an m given twice is a bad value."""
    out = {}
    for item in _split_top(text[1:-1]):
        if not item:
            continue
        if ":" not in item:
            raise SpecParseError("bad-value", lineno, col, f"coefficient entries read m:(re,im), got {item!r}")
        m_text, c_text = item.split(":", 1)
        m = _parse_int(m_text, lineno, col)
        if m in out:
            raise SpecParseError("bad-value", lineno, col, f"coefficient m={m} given twice")
        out[m] = _parse_complex(c_text, lineno, col)
    return out


def _spherical_coeffs(l, fields, cols, lineno, fcol):
    if "c" not in fields:
        raise SpecParseError("missing-field", lineno, fcol, "spherical state needs c=[...] or c={...}")
    text, col = fields.pop("c"), cols["c"]
    if text.startswith("{") and text.endswith("}"):
        cmap = _parse_coeff_entries(text, lineno, col)
        for m in cmap:
            if abs(m) > l:
                raise SpecParseError("m-out-of-range", lineno, col, f"|m|={abs(m)} exceeds l={l}")
        return cmap
    if not (text.startswith("[") and text.endswith("]")):
        raise SpecParseError("bad-value", lineno, col, "spherical coefficients read c=[(re,im),...]")
    vec = [
        _parse_complex(item, lineno, col)
        for item in _split_top(text[1:-1])
        if item
    ]
    if len(vec) != 2 * l + 1:
        raise SpecParseError("bad-value", lineno, col, f"need 2l+1={2 * l + 1} coefficients, got {len(vec)}")
    return vec


def _parse_selection(token: str, lineno: int, col: int):
    match = re.match(r"(R\d+)(\((.*)\))?\Z", token)
    if not match:
        raise SpecParseError("syntax", lineno, col, f"bad relation selection {token!r}")
    rid_text, _, inner = match.groups()
    try:
        rid = RelationId(rid_text)
    except ValueError:
        raise SpecParseError(
            "unknown-relation", lineno, col, f"unknown relation ID {rid_text!r}"
        ) from None
    kv = {}
    if inner:
        for item in _split_top(inner):
            if "=" not in item:
                raise SpecParseError("syntax", lineno, col, f"relation params read k=v, got {item!r}")
            key, value = item.split("=", 1)
            kv[key] = value
    params = _build_params(rid, kv, lineno, col)
    try:  # relations.param_constants alone holds the rules a relation's params obey
        relations.param_constants(rid, params)
    except ValueError as exc:
        raise SpecParseError("param-constraint", lineno, col, str(exc)) from None
    return (rid, params)


def _build_params(rid, kv, lineno, col) -> RelationParams:
    _, wanted, _ = CATALOG[rid]
    for key in kv:
        if key not in wanted and not (key == "N" and rid == RelationId.R60):
            raise SpecParseError("unknown-key", lineno, col, f"{rid.value} takes no parameter {key!r}")
    if rid == RelationId.R8:
        if "alpha" not in kv:
            raise SpecParseError("param-constraint", lineno, col, "R8 requires alpha=<real>")
        return RelationParams(alpha=_parse_float(kv["alpha"], lineno, col))
    if rid == RelationId.R12:
        if "N" not in kv or "N1" not in kv:
            raise SpecParseError("param-constraint", lineno, col, "R12 requires N= and N1=")
        return RelationParams(N=_parse_int(kv["N"], lineno, col), N1=_parse_int(kv["N1"], lineno, col))
    if rid == RelationId.R60:
        if "a" not in kv or "b" not in kv:
            raise SpecParseError("param-constraint", lineno, col, "R60 requires a=<kind> and b=<kind>")
        winding = _parse_int(kv["N"], lineno, col) if "N" in kv else 0
        pair = tuple(_parse_kind(kv[key], winding, lineno, col) for key in ("a", "b"))
        return RelationParams(pair=pair)
    return RelationParams()


def _parse_kind(text, winding, lineno, col):
    if text == "Chi":
        try:
            return obs.chi(winding)
        except ValueError as exc:
            raise SpecParseError("bad-value", lineno, col, str(exc)) from None
    try:
        return obs.ObservableKind(text)
    except ValueError:
        raise SpecParseError("unknown-key", lineno, col, f"unknown observable kind {text!r}") from None


# ---------------------------------------------------------------------------
# canonical printing (round-trip partner of parse)

def canonical_text(doc: SpecDocument) -> str:
    """Render a document so that parse(canonical_text(doc)) == doc.

    A document the text cannot hold is a ValueError: an R60 pair of two Chi
    sides with unequal windings, or an R60 with ``params.N`` set.
    """
    out = []
    s = doc.settings
    out.append(f"setting hbar {s.hbar!r}")
    out.append(f"setting normalize {'true' if s.normalize else 'false'}")
    out.append(f"setting tolerance {s.tolerance!r}")
    for name, state in doc.states:
        out.append(_state_line(name, state))
    if doc.selections:
        out.append("relations " + " ".join(_selection_text(sel) for sel in doc.selections))
    return "\n".join(out) + "\n"


def _cpx(z: complex) -> str:
    return f"({z.real!r},{z.imag!r})"


def _state_line(name, state) -> str:
    if isinstance(state, CircularState):
        return f"state circular name={name} m={state.m} hbar={state.hbar!r}"
    if isinstance(state, PendulumState):
        return (
            f"state pendulum name={name} n={state.n} inertia={state.inertia!r} "
            f"omega={state.omega!r} hbar={state.hbar!r}"
        )
    if isinstance(state, RotorSuperposition):
        body = ",".join(f"{m}:{_cpx(c)}" for m, c in state.coefficients)
        return f"state rotor name={name} c={{{body}}} hbar={state.hbar!r}"
    body = ",".join(_cpx(c) for c in state.coefficients)
    return (
        f"state spherical name={name} l={state.l} c=[{body}] "
        f"hbar={state.hbar!r} inertia={state.inertia!r}"
    )


def _selection_text(sel) -> str:
    rid, params = sel
    if rid == RelationId.R8:
        return f"{rid.value}(alpha={params.alpha!r})"
    if rid == RelationId.R12:
        return f"{rid.value}(N={params.N},N1={params.N1})"
    if rid == RelationId.R60:
        a, b = params.pair
        windings = [k.winding for k in params.pair if k.name == "Chi"]
        if len(set(windings)) > 1 or params.N is not None:
            raise ValueError(
                "R60 prints as R60(a=..,b=..,N=..): its Chi sides need one winding and params.N "
                f"must be unset, got windings {windings} and N={params.N!r}"
            )
        extra = f",N={windings[0]}" if windings else ""
        return f"{rid.value}(a={a.name},b={b.name}{extra})"
    return rid.value


# ---------------------------------------------------------------------------
# deterministic report serialization

def _quoted(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def serialize_report(reports, format: str = "json", *, sweep=None) -> str:
    """Render reports deterministically: sorted keys, 12 significant digits.

    ``reports`` holds ``RelationReport`` objects or the (point index,
    report) pairs of ``relations.report_rows``; ``sweep``, for a scan, is
    (parameter name, one value per point). Row text is keyed by column
    alone: the first report of a column formats every row of it once,
    each distinct state name and each sweep point is formatted once, and
    a report's line joins its row's pieces with its name's and its
    point's text. CSV columns: state_name, relation, lhs, rhs, verdict,
    condition31, deficit_abs (plus sweep_param, sweep_value for a scan).
    """
    reports = list(reports)
    if not reports:
        raise ValueError("serialize_report needs at least one report")
    if format not in ("json", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    json = format == "json"
    if sweep is None:
        points = ("",)
    else:
        param, values = sweep
        if json:
            field = f', "sweep_param": {_quoted(param)}, "sweep_value": '
            points = [field + "%.12g" % v for v in values]
        else:
            points = [f",{param},{v:.12g}" for v in values]
    if not isinstance(reports[0], tuple):
        reports = [(0, report) for report in reports]
    texts, names, lines = {}, {}, []
    for point, report in reports:
        rows = texts.get(report.column)
        if rows is None:
            rows = texts[report.column] = _column_texts(report.column, json)
        name = names.get(report.state_name)
        if name is None:
            name = names[report.state_name] = _quoted(report.state_name) if json else report.state_name
        head, middle, tail = rows[report.index]
        lines.append(head + name + middle + points[point] + tail)
    if json:
        return "[\n" + ",\n".join(lines) + "\n]\n"
    header = "state_name,relation,lhs,rhs,verdict,condition31,deficit_abs"
    return "\n".join([header + ("" if sweep is None else ",sweep_param,sweep_value"), *lines]) + "\n"


#: the text after a JSON report's sweep fields, by verdict
_JSON_TAILS = {verdict: f', "verdict": "{verdict.value}"}}' for verdict in Verdict}


def _column_texts(column, json) -> list:
    """Per row of ``column``, the report text before the state name, up to the sweep fields and after.

    A row's values are condition31, deficit_abs, the other diagnostics by
    sorted key, lhs and rhs.
    """
    diag = dict(column.diagnostics)
    deficit = diag.pop("deficit_abs")
    truth = ["true" if c else "false" for c in column.condition31]
    numbers = zip(truth, deficit, *(diag[key] for key in sorted(diag)), column.lhs, column.rhs)
    if json:
        templates = [_json_template(column, trivial) for trivial in (False, True)]
        return [(templates[trivial] % row, "", _JSON_TAILS[verdict])
                for row, trivial, verdict in zip(numbers, column.trivial, column.verdicts)]
    template = _csv_template(column)
    return [("", template.format(*row, verdict.value), "")
            for row, verdict in zip(numbers, column.verdicts)]


def _json_template(column, trivial) -> str:
    """The %-template of a column's reports up to the state name's value, every key sorted."""
    inner = {key: "%.12g" for key, _ in column.diagnostics if key != "deficit_abs"}
    if trivial:
        inner["trivial_zero"] = "1"
    printed = ", ".join(f'"{key.replace("%", "%%")}": {inner[key]}' for key in sorted(inner))
    fields = ['"condition31": %s', '"deficit_abs": %.12g', '"diagnostics": {' + printed + "}",
              '"lhs": %.12g', f'"relation": "{column.relation.value}"', '"rhs": %.12g',
              '"state_name": ']
    return "  {" + ", ".join(fields)


def _csv_template(column) -> str:
    """The str.format template of a column's CSV lines after the state name, up to the sweep fields.

    It picks lhs, rhs, the verdict (the last value), condition31 and
    deficit_abs out of a row's values.
    """
    lhs = 1 + len(column.diagnostics)  # after condition31, deficit_abs and the other diagnostics
    fields = ["", column.relation.value, f"{{{lhs}:.12g}}", f"{{{lhs + 1}:.12g}}",
              f"{{{lhs + 2}}}", "{0}", "{1:.12g}"]
    return ",".join(fields)
