"""Report bytes: the committed corpus of ``benchmarks/`` replays to the digests it pins.

A change that moves report bytes on purpose rewrites the digests with
``python benchmarks/corpus.py --update`` and states the counts it prints.
"""

import contextlib
import importlib.util
import io
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import lzphi

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus.py"


@pytest.fixture(scope="module")
def corpus():
    spec = importlib.util.spec_from_file_location("corpus", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replayed_outputs_match_the_committed_digests(corpus):
    """Every byte on the platform of the record; exit codes, error lines and verdicts elsewhere."""
    record = corpus.load()
    committed, replayed = record["outputs"], corpus.replay()
    differ = corpus.mismatches(committed, replayed, exact=record["platform"] == corpus.platform())
    assert not differ, "\n".join(
        f"{key}: {committed.get(key, ['missing'])[:3]} -> {replayed.get(key, ['missing'])[:3]}"
        for key in differ[:20]
    )


#: the spherical documents at l >= 60, the largest polar overlap products the corpus reads
_HIGH_L = ("edge/l64.spec", "gen/*.spherical.l6[24]*")

#: prints the replayed outputs of the corpus documents whose paths match argv[2:]
_REPLAY = """
import fnmatch, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("corpus", sys.argv[1])
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)
print(json.dumps({key: corpus.run(argv) for key, argv in corpus.documents()
                  if any(fnmatch.fnmatch(key.rsplit(" ", 1)[0], p) for p in sys.argv[2:])}))
"""


def _replay_high_l(**blas_env) -> dict:
    """The outputs of the ``_HIGH_L`` documents, replayed in a fresh interpreter under ``blas_env``.

    The child sees no BLAS variable but those given, and imports the lzphi this suite imports.
    """
    env = {"PATH": os.environ.get("PATH", ""), **blas_env,
           "PYTHONPATH": str(Path(lzphi.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", _REPLAY, str(_SCRIPT), *_HIGH_L],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def one_thread_replay(corpus):
    replayed = _replay_high_l(OPENBLAS_NUM_THREADS="1")
    specs = [path for pattern in _HIGH_L for path in corpus.CORPUS.glob(pattern)]
    assert len(specs) > 30 and len(replayed) == 2 * len(specs)
    return replayed


def _has_haswell_kernels() -> bool:
    """OpenBLAS's Haswell kernels run only where the CPU has AVX2 and FMA."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3"))


@pytest.mark.parametrize("blas_env", [{"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_CORETYPE": "Haswell"}],
                         ids=["two-threads", "haswell"])
def test_report_bytes_do_not_depend_on_the_blas(one_thread_replay, blas_env):
    """The l >= 60 spherical documents print the same bytes at 1 and 2 BLAS threads and on
    OpenBLAS's Haswell kernels: no report reads a BLAS product, whose summation order follows
    the thread count and the kernel."""
    if "OPENBLAS_CORETYPE" in blas_env and not _has_haswell_kernels():
        pytest.skip("the CPU lacks AVX2 or FMA, which OpenBLAS's Haswell kernels need")
    replayed = _replay_high_l(**blas_env)
    differ = sorted(key for key in one_thread_replay if replayed.get(key) != one_thread_replay[key])
    assert not differ, differ


def test_every_json_verdict_is_one_the_benchmark_rule_allows(corpus):
    """Each report of each JSON output the corpus prints, edge documents included: its verdict is
    among ``perfbench.ops.possible_verdicts`` of its printed numbers at the document's tolerance.

    The benchmark restates the decision rule on purpose, so this checks
    ``relations`` against an independent statement of it.
    """
    from lzphi import cli
    from perfbench import ops

    outputs = reports = 0
    wrong = []
    for key, argv in corpus.documents():
        if argv[-2:] != ["--format", "json"]:
            continue
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code == cli.EXIT_INPUT_ERROR:
            continue
        tol = cli._load_document(cli._build_parser().parse_args(argv)).settings.tolerance
        outputs += 1
        for index, report in enumerate(json.loads(stdout.getvalue())):
            reports += 1
            if report["verdict"] not in ops.possible_verdicts(report, tol):
                wrong.append(f"{key} report {index}: {report}")
    assert outputs > 300 and reports > 40000, (outputs, reports)
    assert not wrong, "\n".join(wrong[:20])


def test_every_spec_file_is_replayed_in_both_formats(corpus):
    keys = {key for key, _ in corpus.documents()}
    specs = sorted(corpus.CORPUS.rglob("*.spec"))
    assert len(specs) > 400 and keys == set(corpus.load()["outputs"])
    assert len(keys) == 2 * len(specs) + 1


def test_changes_count_outputs_reports_and_verdicts(corpus):
    old = {"a json": [0, "", "x", "S0000E1111V2222"], "a csv": [0, "", "y"], "b json": [1, "", "z", "V3333"]}
    new = {"a json": [0, "", "w", "S0000S1111V2223"], "a csv": [0, "", "v"], "c csv": [3, "e", "u"],
           "b json": [3, "error", "e", ""]}
    assert corpus.changes(old, new) == {"outputs": 4, "added": 1, "removed": 0,
                                        "reports": 3, "verdicts": 2}


def test_other_platforms_compare_exit_codes_error_lines_and_verdicts(corpus):
    old = {"a json": [1, "", "x", "S0000V1111"], "a csv": [1, "", "y"], "b csv": [3, "error: e", "z"]}
    rounded = {"a json": [1, "", "w", "S0001V1112"], "a csv": [1, "", "v"], "b csv": [3, "error: e", "z"]}
    assert corpus.mismatches(old, rounded) == ["a csv", "a json"]
    assert corpus.mismatches(old, rounded, exact=False) == []
    flipped = dict(rounded, **{"a json": [1, "", "w", "S0001S1112"], "b csv": [3, "error: f", "z"]})
    assert corpus.mismatches(old, flipped, exact=False) == ["a json", "b csv"]
