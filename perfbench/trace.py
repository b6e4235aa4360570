"""Span tracing of the lzphi layers, installed from outside the package.

``Tracer.install()`` replaces the public functions of each module under
``src/lzphi`` (and the few private ones a per-layer metric names) with
wrappers that record one span per call: id, parent id, name, start, end
and op id. A name is patched everywhere a caller looks it up, so
``engine.fourier_sum`` is patched as well as ``_kernels.fourier_sum``, and
``lzphi.std_dev`` as well as ``moments.std_dev``. State construction is
traced by wrapping each state class's ``__init__``.

The ``lru_cache`` tables are not wrapped (``phi_fourier_moment`` runs tens
of thousands of times per matrix); their ``cache_info()`` counters are read
at each op boundary and the deltas kept instead.

Tiny accessors (``states.family_of``, ``observables.kind_symbol`` and the
like) are left unwrapped: they run on every moment call, and a span each
would cost more than the work they do. Their time counts as self time of
the caller.

Everything is kept in memory; ``dump`` writes it out when a run ends.
``layer_metrics`` turns spans into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

#: (module, attribute, span label) of every traced callable
TRACED = (
    ("cli", "main", "cli.main"),
    ("specio", "parse", "specio.parse"),
    ("specio", "serialize_report", "specio.serialize_report"),
    ("specio", "canonical_text", "specio.canonical_text"),
    ("states", "wavefunction", "states.wavefunction"),
    ("states", "norm", "states.norm"),
    ("states", "energy", "states.energy"),
    ("relations", "evaluate", "relations.evaluate"),
    ("relations", "gamma", "relations.gamma"),
    ("relations", "delta_chi", "relations.delta_chi"),
    ("relations", "fourier_boundary_term", "relations.fourier_boundary_term"),
    ("relations", "gamma_weighted_sum", "relations.gamma_weighted_sum"),
    ("moments", "mean", "moments.mean"),
    ("moments", "std_dev", "moments.std_dev"),
    ("moments", "moment_set", "moments.moment_set"),
    ("moments", "correlation", "moments.correlation"),
    ("moments", "higher_correlation", "moments.higher_correlation"),
    ("moments", "commutator_mean", "moments.commutator_mean"),
    ("observables", "symbol_matrix", "observables.symbol_matrix"),
    ("observables", "matrix_table", "observables.matrix_table"),
    ("observables", "matrix_element", "observables.matrix_element"),
    ("observables", "lz_phi_symmetry_deficit", "observables.lz_phi_symmetry_deficit"),
    ("observables", "symmetry_deficit", "observables.symmetry_deficit"),
    ("observables", "_quadrature_matrix", "observables.quadrature_matrix"),
    ("observables", "_deficit_quadrature", "observables.deficit_quadrature"),
    ("numerics", "gauss_legendre", "numerics.rule_build"),
    ("numerics", "gauss_hermite", "numerics.rule_build"),
    ("numerics", "hermite_poly", "numerics.hermite_poly"),
    ("numerics", "theta_lm", "numerics.theta_lm"),
    ("numerics", "theta_lm_grid", "numerics.theta_lm_grid"),
    ("numerics", "theta_overlap_matrix", "numerics.theta_overlap_matrix"),
    ("engine", "state_grid", "engine.state_grid"),
    ("_kernels", "legendre_grid", "kernels.legendre"),
    ("_kernels", "hermite_grid", "kernels.hermite"),
    ("_kernels", "fourier_sum", "kernels.fourier_sum"),
    ("fourier", "coefficients", "fourier.coefficients"),
    ("fourier", "parseval_check", "fourier.parseval"),
    ("fourier", "line_transform", "fourier.line_transform"),
    ("fourier", "width_product", "fourier.width_product"),
)
STATE_CLASSES = ("CircularState", "RotorSuperposition", "SphericalState", "PendulumState")
#: lru_cache tables whose counters are sampled per op
CACHES = (
    ("observables", "phi_fourier_moment"),
    ("numerics", "theta_overlap_matrix"),
    ("numerics", "phi_rule"),
    ("numerics", "theta_rule"),
    ("numerics", "hermite_rule"),
)
MODULES = ("cli", "specio", "states", "relations", "moments", "observables", "numerics",
           "engine", "_kernels", "fourier")
#: layer names as they appear in metric names (modules under src/lzphi)
LAYERS = ("cli", "specio", "states", "relations", "moments", "observables", "numerics",
          "engine", "kernels", "fourier")
_METHOD_LABELS = {"moments", "observables"}


def _modules():
    import importlib

    pkg = importlib.import_module("lzphi")
    mods = {name: importlib.import_module(f"lzphi.{name}") for name in MODULES}
    return pkg, mods


def clear_caches():
    """Empty the lzphi lru_cache tables (call with the tracer uninstalled)."""
    _, mods = _modules()
    for mod_name, attr in CACHES:
        getattr(mods[mod_name], attr).cache_clear()


class Tracer:
    """Records spans and cache deltas while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start_ns, end_ns, op]
        self.caches = {}  # cache name -> [hits, misses]
        self.counters = {"bytes_out": 0, "points": 0, "bytes_computed": 0,
                         "overlap_miss_ns": 0}
        self.op = -1
        self._stack = []
        self._patches = []
        self._cache_objs = {}
        self._cache_start = {}

    # -- installation -----------------------------------------------------
    def install(self):
        pkg, mods = _modules()
        holders = [pkg] + list(mods.values())
        self._cache_objs = {f"{m}.{a}": getattr(mods[m], a) for m, a in CACHES}
        for mod_name, attr, label in TRACED:
            orig = getattr(mods[mod_name], attr)
            wrapped = self._wrap(orig, label)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is orig:
                        self._patch(holder, name, wrapped)
        for cls_name in STATE_CLASSES:
            cls = getattr(mods["states"], cls_name)
            self._patch(cls, "__init__", self._wrap(cls.__init__, "states.construct"))
        return self

    def uninstall(self):
        for holder, name, orig in reversed(self._patches):
            setattr(holder, name, orig)
        self._patches = []

    def _patch(self, holder, name, value):
        self._patches.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def _wrap(self, fn, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self
        layer = label.split(".", 1)[0]
        with_method = layer in _METHOD_LABELS
        before_fn, after_fn = _BEFORE.get(label), _AFTER.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label
            if with_method and "method" in kwargs:
                name = f"{label}[{kwargs['method']}]"
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0, tracer.op]
            spans.append(rec)
            stack.append(rec[0])
            before = before_fn(tracer) if before_fn is not None else None
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after_fn is not None:
                after_fn(tracer, rec, args, out, before)
            return out

        return wrapper

    # -- op boundaries ------------------------------------------------------
    def begin_op(self, op: int):
        self.op = op
        self._cache_start = {k: c.cache_info() for k, c in self._cache_objs.items()}

    def end_op(self):
        for key, cache in self._cache_objs.items():
            info, start = cache.cache_info(), self._cache_start[key]
            acc = self.caches.setdefault(key, [0, 0])
            acc[0] += info.hits - start.hits
            acc[1] += info.misses - start.misses
        self.op = -1

    def state(self) -> dict:
        return {"spans": self.spans, "caches": self.caches, "counters": self.counters}


def _nbytes(values) -> int:
    return sum(int(getattr(v, "nbytes", 0)) for v in values)


def _serialize_after(tracer, rec, args, out, before):
    tracer.counters["bytes_out"] += len(out.encode("utf-8"))


def _kernel_after(tracer, rec, args, out, before):
    tracer.counters["points"] += int(out.size)
    tracer.counters["bytes_computed"] += _nbytes(args) + int(out.nbytes)


def _overlap_before(tracer):
    return tracer._cache_objs["numerics.theta_overlap_matrix"].cache_info().misses


def _overlap_after(tracer, rec, args, out, before):
    if tracer._cache_objs["numerics.theta_overlap_matrix"].cache_info().misses > before:
        tracer.counters["overlap_miss_ns"] += rec[4] - rec[3]


#: per-label hooks that record counts at the layer boundary
_BEFORE = {"numerics.theta_overlap_matrix": _overlap_before}
_AFTER = {
    "specio.serialize_report": _serialize_after,
    "kernels.legendre": _kernel_after,
    "kernels.hermite": _kernel_after,
    "kernels.fourier_sum": _kernel_after,
    "numerics.theta_overlap_matrix": _overlap_after,
}


# ---------------------------------------------------------------------------
# derived metrics

def merge(states) -> dict:
    """Concatenate tracer states from several processes, renumbering span ids."""
    spans, caches = [], {}
    counters = {"bytes_out": 0, "points": 0, "bytes_computed": 0, "overlap_miss_ns": 0}
    for st in states:
        offset = len(spans)
        for sid, parent, name, t0, t1, op in st["spans"]:
            spans.append([sid + offset, parent + offset if parent >= 0 else -1, name, t0, t1, op])
        for key, (hits, misses) in st["caches"].items():
            acc = caches.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
        for key, value in st["counters"].items():
            counters[key] += value
    return {"spans": spans, "caches": caches, "counters": counters}


def self_times(spans) -> list:
    """Per-span self time in ns: duration minus the duration of its children."""
    child = [0] * len(spans)
    for sid, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[sid] for sid, _, _, t0, t1, _ in spans]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(state, *, results: int, checks: int, import_ms, overhead_ratio: float,
                  oracle_mismatches: int, oracle_max_residual: float) -> dict:
    """Every per-layer metric, from one traced run's merged tracer state.

    ``results`` counts verdict reports, or oracle checks on the oracle
    workload (the base of moments.std_dev_per_report); ``checks`` counts
    oracle checks (the base of engine.grids_per_check) and is 0 elsewhere.
    """
    spans = state["spans"]
    selfs = self_times(spans)
    calls, total_ns, self_ns = {}, {}, {}
    layer_calls = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0 for layer in LAYERS}
    for (sid, _, name, t0, t1, _), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + (t1 - t0)
        self_ns[name] = self_ns.get(name, 0) + own
        layer = name.split(".", 1)[0]
        layer_calls[layer] += 1
        layer_self[layer] += own

    def count(prefix):
        return sum(v for k, v in calls.items() if k == prefix or k.startswith(prefix + "["))

    def ms(table, prefix):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "[")) / 1e6

    def method_self(method):
        return sum(v for k, v in self_ns.items()
                   if k.startswith("moments.") and _method_of(k) == method) / 1e6

    caches, counters = state["caches"], state["counters"]
    pfm = caches.get("observables.phi_fourier_moment", [0, 0])
    overlap = caches.get("numerics.theta_overlap_matrix", [0, 0])
    out = {
        "cli.import_ms": statistics.median(import_ms) if import_ms else 0.0,
        "specio.parse_ms": ms(total_ns, "specio.parse"),
        "specio.serialize_ms": ms(total_ns, "specio.serialize_report"),
        "specio.bytes_out": counters["bytes_out"],
        "states.construct_calls": count("states.construct"),
        "states.construct_ms": ms(total_ns, "states.construct"),
        "relations.evaluate_calls": count("relations.evaluate"),
        "relations.evaluate_self_ms": ms(self_ns, "relations.evaluate"),
        "moments.std_dev_calls": count("moments.std_dev"),
        "moments.std_dev_per_report": _ratio(count("moments.std_dev"), results),
        "moments.analytic_self_ms": method_self("analytic"),
        "moments.quadrature_self_ms": method_self("quadrature"),
        "observables.symbol_matrix_calls": count("observables.symbol_matrix"),
        "observables.symbol_matrix_ms": ms(total_ns, "observables.symbol_matrix"),
        "observables.phi_fourier_moment_hit_ratio": _ratio(pfm[0], pfm[0] + pfm[1]),
        "observables.quadrature_matrix_ms": ms(total_ns, "observables.quadrature_matrix"),
        "observables.deficit_quadrature_ms": ms(total_ns, "observables.deficit_quadrature"),
        "numerics.theta_overlap_hit_ratio": _ratio(overlap[0], overlap[0] + overlap[1]),
        "numerics.theta_overlap_miss_ms": counters["overlap_miss_ns"] / 1e6,
        "numerics.rule_build_ms": ms(total_ns, "numerics.rule_build"),
        "engine.state_grid_calls": count("engine.state_grid"),
        "engine.state_grid_ms": ms(total_ns, "engine.state_grid"),
        "engine.grids_per_check": _ratio(count("engine.state_grid"), checks),
        "kernels.legendre_ms": ms(total_ns, "kernels.legendre"),
        "kernels.hermite_ms": ms(total_ns, "kernels.hermite"),
        "kernels.fourier_sum_ms": ms(total_ns, "kernels.fourier_sum"),
        "kernels.points_evaluated": counters["points"],
        "kernels.bytes_computed": counters["bytes_computed"],
        "fourier.parseval_ms": ms(total_ns, "fourier.parseval"),
        "fourier.line_transform_ms": ms(total_ns, "fourier.line_transform"),
        "fourier.width_product_ms": ms(total_ns, "fourier.width_product"),
        "oracle.mismatches": oracle_mismatches,
        "oracle.max_residual": oracle_max_residual,
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{layer}.self_ms"] = layer_self[layer] / 1e6
    return out


def _method_of(name: str) -> str:
    return name[name.index("[") + 1:-1] if "[" in name else "analytic"


def dump(state, path):
    """Write spans (one JSON array per line) and the cache deltas to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"caches": state["caches"], "counters": state["counters"],
                                 "fields": ["id", "parent", "name", "start_ns", "end_ns", "op"]})
                     + "\n")
        for rec in state["spans"]:
            handle.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    """Traced `lzphi` entry for one op in a fresh interpreter.

    Usage: python -m perfbench.trace STATE_OUT -- <lzphi arguments>
    Times the package import, runs ``cli.main`` under the tracer, and
    writes the tracer state to STATE_OUT as JSON.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    state_out, rest = argv[0], argv[2:]
    start = time.perf_counter()
    import lzphi.cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = Tracer().install()
    tracer.begin_op(0)
    try:
        code = lzphi.cli.main(rest)
    finally:
        tracer.end_op()
        tracer.uninstall()
        payload = tracer.state()
        payload["import_ms"] = import_ms
        with open(state_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
