"""Closed-loop run of one workload, in a process of its own.

One client, one op at a time: the next op starts when the previous one has
finished. It runs a fixed number of whole input cycles (see gen.py), sized
to the time budget, so every run covers the same mix of op sizes and the
attempted and failed ops of a seed repeat exactly.

Untraced (``--trace 0``): time every op, check its output, and record the
peak resident set of this process and of every child it waited for.

Traced (``--trace 1``): run a fixed number of cycles with the tracer
installed, then replay exactly the same ops untraced. The per-layer figures
come from the traced half; traced minus untraced wall time, over the
untraced time, is the tracing overhead. Each half starts from emptied and
then warmed lzphi caches, as an untraced run does.

Usage (run.py starts it; the result goes to OUT as JSON)::

    python -m perfbench.workloads --workload scan-mix --seed 1 --seconds 30 --trace 0 --out OUT
"""

from __future__ import annotations

import argparse
import gc
import json
import os
from pathlib import Path
import resource
import shutil
import time

from perfbench import gen, ops
from perfbench import trace as tr

OUT_DIR = ops.ROOT / ".perfbench_out"
#: an untraced run has at least this many ops, so that at least ten lie
#: above the p90
MIN_OPS = 100
#: wall time of one cycle, in s, on a 2-core Xeon (CPython 3.11, numpy 2.4):
#: an untraced run executes round(seconds / CYCLE_S) whole cycles, a fixed
#: amount of work for a given budget, so that its op count does not follow
#: the speed of the host
CYCLE_S = {"eval-catalog": 4.0, "scan-mix": 2.3, "oracle-crosscheck": 4.3}
#: cycles in a traced run: a fixed amount of work, so that the per-layer
#: counts of one seed repeat exactly; sized to about half the run budget
TRACE_CYCLES = {"eval-catalog": 3, "scan-mix": 6, "oracle-crosscheck": 3}


class EvalCatalog:
    """`lzphi eval` in a fresh interpreter per op; nothing of lzphi is imported here."""

    results_are_checks = False

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.tracer_states = []
        self.import_ms = []

    def reset(self, seed):
        pass  # every op starts a cold interpreter; there is nothing to warm

    def run(self, op, traced: bool):
        spec = self.workdir / "op.spec"
        spec.write_text(op.text, encoding="utf-8")
        state_path = self.workdir / "trace-state.json" if traced else None
        seconds, results, problem = ops.run_eval_process(
            op, spec, self.workdir / "op.out", trace_state=state_path
        )
        if traced:
            state = json.loads(state_path.read_text(encoding="utf-8"))
            self.import_ms.append(state.pop("import_ms"))
            self.tracer_states.append(state)
        return seconds, results, problem, None


class ScanMix:
    """`lzphi scan` through cli.main(argv) in this process, on warm caches."""

    results_are_checks = False

    def __init__(self, workdir: Path):
        self.workdir = workdir
        start = time.perf_counter()
        import lzphi.cli

        self.import_ms = [(time.perf_counter() - start) * 1e3]
        self.cli = lzphi.cli

    def reset(self, seed):
        # empties, then fills the polar-overlap and Fourier-moment caches at
        # the sizes the timed cycles use; this cycle is never timed
        tr.clear_caches()
        for op in gen.scan_cycle(seed, -1):
            self.run(op, False)

    def run(self, op, traced: bool):
        spec = self.workdir / "op.spec"
        spec.write_text(op.text, encoding="utf-8")
        seconds, results, problem = ops.run_scan(self.cli, op, spec, self.workdir / "op.out")
        return seconds, results, problem, None


class OracleCrosscheck:
    """Analytic route against the quadrature route, in this process."""

    results_are_checks = True

    def __init__(self, workdir: Path):
        start = time.perf_counter()
        import lzphi
        import lzphi.cli  # noqa: F401 - timed with the package, as in the other workloads

        self.import_ms = [(time.perf_counter() - start) * 1e3]
        self.lz = lzphi

    def reset(self, seed):
        tr.clear_caches()
        for op in gen.oracle_cycle(seed, -1)[:6]:
            self.run(op, False)

    def run(self, op, traced: bool):
        return ops.run_oracle(self.lz, op)


RUNNERS = {"eval-catalog": EvalCatalog, "scan-mix": ScanMix,
           "oracle-crosscheck": OracleCrosscheck}


def planned_cycles(workload: str, seed: int, seconds: float) -> int:
    """Whole cycles of an untraced run: about ``seconds`` of work, at least MIN_OPS ops."""
    per_cycle = len(next(gen.cycles(workload, seed)))
    return max(-(-MIN_OPS // per_cycle), round(seconds / CYCLE_S[workload]))


def run_cycles(runner, workload, seed, count, tracer=None):
    """Run ``count`` whole cycles; return (op, record) pairs.

    record = (seconds, results, problem, residual).
    """
    done = []
    for _, cycle in zip(range(count), gen.cycles(workload, seed)):
        for op in cycle:
            if tracer is not None:
                tracer.begin_op(len(done))
            record = runner.run(op, tracer is not None)
            if tracer is not None:
                tracer.end_op()
            done.append((op, record))
    return done


def replay(runner, done):
    return [(op, runner.run(op, False)) for op, _ in done]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _records(done):
    return [[op.name, rec[0], rec[1], rec[2]] for op, rec in done]


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = RUNNERS[workload](workdir)
        runner.reset(seed)
        if not traced:
            done = run_cycles(runner, workload, seed, planned_cycles(workload, seed, seconds))
            return {"ops": _records(done), "peak_rss_mb": peak_rss_mb()}
        # eval-catalog ops trace themselves in their own interpreters
        in_process = workload != "eval-catalog"
        tracer = tr.Tracer().install() if in_process else tr.Tracer()
        try:
            done = run_cycles(runner, workload, seed, TRACE_CYCLES[workload], tracer=tracer)
        finally:
            tracer.uninstall()
        gc.freeze()  # keep the collector off the recorded spans during the replay
        runner.reset(seed)  # the replay starts from the traced half's cache state
        plain = replay(runner, done)
        state = tracer.state() if in_process else tr.merge(runner.tracer_states)
        traced_s = sum(rec[0] for _, rec in done)
        plain_s = sum(rec[0] for _, rec in plain)
        residuals = [rec[3] for _, rec in done if rec[3] is not None]
        layer = tr.layer_metrics(
            state,
            results=sum(rec[1] for _, rec in done),
            checks=sum(rec[1] for _, rec in done) if runner.results_are_checks else 0,
            import_ms=runner.import_ms,
            overhead_ratio=(traced_s - plain_s) / plain_s,
            oracle_mismatches=sum(1 for _, rec in done
                                  if rec[3] is not None and rec[2] is not None),
            oracle_max_residual=max(residuals, default=0.0),
        )
        spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tr.dump(state, spans_file)
        return {"ops": _records(done), "layer": layer, "spans_file": str(spans_file),
                "traced_s": traced_s, "untraced_s": plain_s}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
