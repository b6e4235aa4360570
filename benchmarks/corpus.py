"""Report bytes of a committed corpus of spec documents, replayed through ``lzphi.cli.main``.

Each ``*.spec`` file under ``corpus/`` is one document. Its first line may
name the command it runs, as ``# lzphi scan --sweep mix=0:1:5``; without
one it runs as ``lzphi eval``. Every document runs once with
``--format json`` and once with ``--format csv``, and ``lzphi catalog``
runs once. ``corpus.json`` holds, per output, the exit code, the first
line of standard error and the SHA-256 of standard output. A JSON output
also holds one verdict letter and a 16-bit digest per report, so that an
update can count the reports and verdicts a change moved. The record
names the platform it was made on (see ``platform``): there the check
compares every byte; elsewhere, where report round-off may print other
last digits, it compares exit codes, error lines and verdicts.

    python benchmarks/corpus.py --check    # list the outputs that differ; exit 1 if any
    python benchmarks/corpus.py --update   # rewrite corpus.json; print what changed
    python benchmarks/corpus.py --build    # rewrite corpus/gen from perfbench.gen

Run it with the ``lzphi`` to be checked importable (``PYTHONPATH=src``
in a checkout); it prints which copy it replayed. Only ``--build`` reads
``perfbench``: ``corpus/gen`` holds the benchmark gate's cases and the
eval and scan documents of seeds 1-5, cycles 0-2. ``corpus/edge`` is
written by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform as host
import re
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
DIGESTS = HERE / "corpus.json"
FORMATS = ("json", "csv")
#: one letter per verdict in the per-report field of a JSON output
LETTERS = {"Satisfied": "S", "SatisfiedWithEquality": "E", "Violated": "V",
           "Indeterminate": "I", "NotApplicable": "N"}
_VERDICT_RE = re.compile(r'"verdict": "(\w+)"\}$')
_HEADER = "# lzphi "


def documents() -> list:
    """(key, argv) of every output: each spec file in both formats, then the catalog."""
    out = []
    for path in sorted(CORPUS.rglob("*.spec")):
        first = path.read_text(encoding="utf-8").split("\n", 1)[0]
        command = shlex.split(first[len(_HEADER):]) if first.startswith(_HEADER) else ["eval"]
        name = path.relative_to(CORPUS).as_posix()
        for fmt in FORMATS:
            out.append((f"{name} {fmt}", [command[0], str(path), *command[1:], "--format", fmt]))
    out.append(("catalog", ["catalog"]))
    return out


def run(argv) -> list:
    """[exit code, first stderr line, SHA-256 of stdout] of ``cli.main(argv)``, in process.

    A warning counts as a line of standard error, ahead of what the
    command writes there. A JSON output gets a fourth field: per report, its
    verdict letter and the first four hex digits of the BLAKE2b of its line.
    """
    from lzphi import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception as exc:  # a crash is an output too, pinned like any other
            code, stderr = "crash", io.StringIO(f"{type(exc).__name__}: {exc}")
    lines = [f"{w.category.__name__}: {w.message}" for w in caught]
    lines += stderr.getvalue().splitlines()
    text = stdout.getvalue()
    entry = [code, lines[0] if lines else "", hashlib.sha256(text.encode()).hexdigest()]
    if argv[-2:] == ["--format", "json"]:
        entry.append("".join(_report_token(line) for line in text.splitlines()[1:-1]))
    return entry


def _report_token(line: str) -> str:
    line = line.rstrip(",")
    verdict = _VERDICT_RE.search(line)
    letter = LETTERS.get(verdict.group(1), "?") if verdict else "?"
    return letter + hashlib.blake2b(line.encode(), digest_size=2).hexdigest()


def replay() -> dict:
    return {key: run(argv) for key, argv in documents()}


def platform() -> str:
    """What the round-off of a report depends on: numpy's version, the machine and numpy's SIMD targets.

    numpy picks its SIMD kernels (sums, exp, sin, cos) by CPU at run time,
    so a report that prints round-off, such as a correlation's imaginary
    part near 1e-17, differs in its last digits between such platforms.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return " ".join([f"numpy-{np.__version__}", host.machine(), *targets])


def load() -> dict:
    """The committed record: {"platform": platform(), "outputs": {key: entry}}."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def portable(entry):
    """What every platform must reproduce: exit code, first stderr line and the verdict letters."""
    return None if entry is None else [*entry[:2], entry[3][::5] if len(entry) > 3 else None]


def mismatches(old: dict, new: dict, exact: bool = True) -> list:
    """The keys whose outputs differ, or that only one side has; ``exact`` False compares ``portable``."""
    view = (lambda entry: entry) if exact else portable
    return sorted(key for key in old.keys() | new.keys() if view(old.get(key)) != view(new.get(key)))


def changes(old: dict, new: dict) -> dict:
    """Counts of changed outputs, reports and verdicts between two digest maps.

    Reports are compared by position within each JSON output; a report one
    side lacks counts as changed, and so does its verdict.
    """
    keys = mismatches(old, new)
    reports = verdicts = 0
    for key in keys:
        if not key.endswith(" json"):
            continue
        a = _tokens(old.get(key))
        b = _tokens(new.get(key))
        extra = abs(len(a) - len(b))
        reports += extra + sum(x != y for x, y in zip(a, b))
        verdicts += extra + sum(x[0] != y[0] for x, y in zip(a, b))
    return {"outputs": len(keys), "added": len(new.keys() - old.keys()),
            "removed": len(old.keys() - new.keys()), "reports": reports, "verdicts": verdicts}


def _tokens(entry) -> list:
    text = entry[3] if entry else ""
    return [text[i:i + 5] for i in range(0, len(text), 5)]


def write(outputs: dict) -> None:
    body = ",\n".join(f"{json.dumps(key)}: {json.dumps(outputs[key])}" for key in sorted(outputs))
    DIGESTS.write_text(f'{{"platform": {json.dumps(platform())},\n"outputs": {{\n{body}\n}}}}\n',
                       encoding="utf-8")


def build() -> int:
    """Rewrite corpus/gen from perfbench.gen; a document met twice is written once."""
    sys.path.insert(0, str(HERE.parent))
    from perfbench import gate, gen

    evals, scans = gate.gate_cases()
    ops = [("gate", op) for op in evals + scans]
    for seed in range(1, 6):
        for index in range(3):
            cycle = gen.eval_cycle(seed, index) + gen.scan_cycle(seed, index)
            ops += [(f"s{seed}", op) for op in sorted(cycle, key=lambda op: op.name)]
    target = CORPUS / "gen"
    target.mkdir(parents=True, exist_ok=True)
    for old in target.glob("*.spec"):
        old.unlink()
    seen, names = set(), set()
    for prefix, op in ops:
        text = op.text if isinstance(op, gen.EvalOp) else f"{_HEADER}scan --sweep {op.sweep}\n{op.text}"
        if text in seen:
            continue
        seen.add(text)
        stem = op.name if op.name.startswith(prefix) else f"{prefix}.{op.name}"
        stem = "readme-sample" if op.text == gen.README_SPEC else stem.replace(":", "_")
        name, copy = stem, 1
        while name in names:
            copy += 1
            name = f"{stem}-{copy}"
        names.add(name)
        (target / f"{name}.spec").write_text(text, encoding="utf-8")
    return len(names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare the outputs with corpus.json")
    mode.add_argument("--update", action="store_true", help="rewrite corpus.json and count the changes")
    mode.add_argument("--build", action="store_true", help="rewrite corpus/gen from perfbench.gen")
    args = parser.parse_args(argv)
    if args.build:
        print(f"corpus/gen: {build()} documents")
        return 0
    import lzphi

    new = replay()
    record = load() if DIGESTS.exists() else {"platform": None, "outputs": {}}
    old, here = record["outputs"], platform()
    print(f"replayed {len(new)} outputs with lzphi from {Path(lzphi.__file__).parent} on {here}")
    if args.update:
        write(new)
        counts = changes(old, new)
        print("changed: {outputs} outputs ({added} added, {removed} removed), "
              "{reports} reports, {verdicts} verdicts".format(**counts))
        return 0
    exact = record["platform"] == here
    if not exact:
        print(f"corpus.json was recorded on {record['platform']}: comparing exit codes, "
              "error lines and verdicts, not report bytes")
    keys = mismatches(old, new, exact)
    for key in keys:
        print(f"{key}:\n  corpus.json {old.get(key, ['missing'])[:3]}\n"
              f"  replayed    {new.get(key, ['missing'])[:3]}")
    print(f"{len(keys)} of {len(new)} outputs differ from corpus.json")
    return 1 if keys else 0

if __name__ == "__main__":
    sys.exit(main())
