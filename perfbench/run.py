#!/usr/bin/env python3
"""lzphi benchmark: correctness gate first, then one timed workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eval-catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seed

Each run
  1. runs the correctness gate (gate.py); a failure exits 1 and prints no
     metrics;
  2. measures ``setup_s``: the median wall time of a fresh interpreter
     running ``import lzphi``, over several starts before the workload and
     as many after it, so that one slow spell of the host does not set it;
  3. runs the workload in a process of its own (workloads.py), so
     its peak RSS is its own, with BLAS/OpenMP threads pinned to 1;
  4. prints the machine and provenance record, every metric with its unit
     and sample count, the failed ops by name, and as the last line one
     JSON object: {"correct", "attempted", "failed", "metrics"}.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones; the traced run also writes its spans to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.

A failed op is a crash, an exit code 3, a report that fails the report
check, or an oracle residual above its bound; `attempted` and `failed`
count them. ``correct`` is true when the gate passed and every report the
program emitted passed the report check.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before anything can import numpy

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: interpreter starts timed before the workload, and again after it
SETUP_SAMPLES = 6
#: the workload process gets this long beyond the measured budget before it is stopped
WORKLOAD_GRACE_S = 120
WORKLOADS = ("eval-catalog", "scan-mix", "oracle-crosscheck")


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text(encoding="utf-8"))


def measure_setup(env) -> list:
    """Wall times of fresh interpreters running `import lzphi`, after one warm start."""
    argv = [sys.executable, "-c", "import lzphi"]
    times = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"`import lzphi` failed: {proc.stderr.strip()[-500:]}")
        if k:  # the first start also writes the bytecode cache
            times.append(elapsed)
    return times


def provenance(seed: int) -> dict:
    import numpy

    from lzphi import _kernels

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lzphi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_used": bool(_kernels.USING_NUMBA),
        "threads": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_THREADS")},
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unavailable (not a git checkout)"


def spawn_workload(workload, seed, seconds, traced, env) -> dict:
    """Run workloads.py in its own process group and return its result."""
    out_dir = ROOT / ".perfbench_out"
    out = out_dir / f"workload-{os.getpid()}.json"
    argv = [sys.executable, "-m", "perfbench.workloads", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
            "--out", str(out)]
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=seconds + WORKLOAD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} process overran its budget", 1)
    if code != 0:
        fail(f"{workload} process exited with code {code}", 1)
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()


def end_to_end(result: dict, setup_times: list) -> tuple:
    """(metrics, samples) for an untraced run."""
    times = [rec[1] for rec in result["ops"]]
    results = sum(rec[2] for rec in result["ops"])
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "results_per_s": results / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "setup_s": f"{len(setup_times)} interpreter starts",
        "results_per_s": f"{results} results over {len(times)} ops",
        "op_p50_ms": f"{len(times)} ops",
        "op_p90_ms": f"{len(times)} ops, {sum(t > p90 for t in times)} above",
        "peak_rss_mb": "max over the workload process and its children",
    }
    return metrics, samples


def run_workload(ops, spec, workload, seed, seconds, traced, env, setup_times, record, gate_s):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    result = spawn_workload(workload, seed, seconds, traced, env)
    if traced:
        metrics = result["layer"]
        samples = {name: f"traced run, {len(result['ops'])} ops" for name in metrics}
    else:
        metrics, samples = end_to_end(result, setup_times + measure_setup(ops.child_env()))
    if sorted(metrics) != sorted(declared):
        fail(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json", 1)
    failed = [rec for rec in result["ops"] if rec[3] is not None]
    wrong = [rec for rec in failed if rec[3].startswith(ops.WRONG_REPORT)]
    print(f"== {workload}  seed={seed} seconds={seconds} trace={int(traced)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in record.items() if k != "threads")
          + " threads=" + ",".join(f"{k}={v}" for k, v in record["threads"].items()))
    print(f"gate: passed in {gate_s:.2f} s (byte identity, reference verdicts, closed forms)")
    if traced:
        print(f"trace: spans in {Path(result['spans_file']).relative_to(ROOT)}; "
              f"traced {result['traced_s']:.2f} s, untraced {result['untraced_s']:.2f} s")
    for name in declared:
        print(f"  {name:<44} {metrics[name]:>16.6g} {units[name]:<9} n: {samples[name]}")
    attempted = len(result["ops"])
    print(f"ops: attempted {attempted}, failed {len(failed)} "
          f"(fail_rate {len(failed) / attempted:.4f})")
    for name, _, _, problem in failed:
        print(f"  failed {name}: {problem}")
    payload = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in declared},
    }
    out = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{int(traced)}.json"
    out.write_text(json.dumps({"provenance": record, "ops": result["ops"], **payload}, indent=1),
                   encoding="utf-8")
    print(json.dumps(payload), flush=True)
    return not wrong


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="lzphi benchmark (see BENCHMARK.json)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lzphi" / "__init__.py").is_file():
        fail("src/lzphi is missing: run from the root of an lzphi checkout")
    # replace the script's own directory: its module names (trace, gen) are not top-level names
    sys.path[:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench import gate, gen, ops

    seed = gen.DEFAULT_SEED if args.seed is None else args.seed
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    env = ops.child_env([ROOT])
    started = time.perf_counter()
    workdir = ROOT / ".perfbench_out" / f"gate-{os.getpid()}"
    workdir.mkdir()
    try:
        problems = gate.run_gate(workdir)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    if problems:
        for problem in problems:
            print(f"gate: {problem}", file=sys.stderr)
        fail(f"correctness gate failed ({len(problems)} problems); nothing was timed", 1)
    gate_s = time.perf_counter() - started
    setup_times = measure_setup(ops.child_env())
    record = provenance(seed)
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        ok &= run_workload(ops, spec, workload, seed, args.seconds, bool(args.trace), env,
                           setup_times, record, gate_s)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
