"""Span tracing of skewform's public functions, installed from outside.

`Tracer.install()` wraps each function in `TARGETS`.  A module-level
function is rebound in every loaded skewform module that imported it
(``zero_test``, for example, is bound separately in ``exterior``,
``duality``, ``manifold`` and ``relations``); a method is patched on its
class.  Wrappers cost one attribute test while the tracer is inactive.

Each span is kept in memory as (id, parent id, name, start, end) up to
`SPAN_CAP` spans; `write_spans` writes them out once the run is over.
Self time is a span's duration minus the durations of its child spans.
Aggregates cover every span, including those past the cap.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

# (module, attribute path): the layer boundaries timed by the traced run.
TARGETS = [
    ("symexpr", "Poly.__mul__"),
    ("symexpr", "poly_gcd"),
    ("symexpr", "_prs_gcd"),
    ("symexpr", "Expr.make"),
    ("symexpr", "Expr.eval"),
    ("symexpr", "Expr.diff"),
    ("symexpr", "Expr.subst"),
    ("symexpr", "zero_test"),
    ("symexpr", "parse_expr"),
    ("exterior", "parse_form"),
    ("exterior", "wedge"),
    ("exterior", "ext_d"),
    ("exterior", "homotopy_antiderivative"),
    ("exterior", "is_closed"),
    ("duality", "det_expr"),
    ("duality", "Metric.__init__"),
    ("duality", "hodge_star"),
    ("duality", "laplacian"),
    ("duality", "christoffel"),
    ("manifold", "riemann"),
    ("manifold", "bianchi_first_check"),
    ("relations", "Pseudostructure.__init__"),
    ("relations", "pullback"),
    ("relations", "classify"),
    ("relations", "classify_on"),
    ("relations", "integrate_chain"),
    ("relations", "degenerate_scan"),
    ("session", "parse_session"),
    ("session", "run_session"),
    ("session", "report_to_json_text"),
    ("catalog", "run_entry"),
]

SPAN_CAP = 100_000

# Sizes of the geometry-dense sweep; each names per-size rows.
DET_SIZES = (3, 4, 5, 6)
DIMS = (2, 3, 4)
SWEEP_ROWS = (
    [f"duality.det_expr.n{n}" for n in DET_SIZES]
    + [f"duality.Metric.dim{n}" for n in DIMS]
    + [f"duality.laplacian.dim{n}" for n in DIMS]
    + [f"manifold.bianchi_first_check.dim{n}" for n in DIMS]
)

# Entry points the workloads call directly; they also get a total_s row.
TOP_LEVEL = [
    "symexpr.zero_test",
    "duality.det_expr",
    "duality.Metric",
    "duality.hodge_star",
    "duality.laplacian",
    "duality.christoffel",
    "manifold.riemann",
    "manifold.bianchi_first_check",
    "relations.degenerate_scan",
    "session.parse_session",
    "session.run_session",
    "session.report_to_json_text",
]


def metric_name(module, path):
    """`Metric.__init__` -> `duality.Metric`, `Expr.make` -> `symexpr.Expr.make`."""
    return f"{module}.{path.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self.index = {}
        # per name: [calls, self_s, total_s, outermost calls]; total_s sums
        # outermost spans only, so recursion is not counted twice
        self.agg = []
        self.depth = []
        self.post = {}
        self.stack = []
        self.next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.max_terms = 0
        self.nontrivial_gcd = 0
        self.sampled_zero = 0
        self.poles = 0
        self.scan_lines = 0
        self.scan_hits = 0

    def register(self, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.agg.append([0, 0.0, 0.0, 0])
            self.depth.append(0)
        return self.index[name]

    # -- spans ------------------------------------------------------------------

    def enter(self, nid):
        parent = self.stack[-1][3] if self.stack else -1
        self.stack.append([nid, perf_counter(), 0.0, self.next_id, parent])
        self.next_id += 1
        if not self.depth[nid]:
            self.agg[nid][3] += 1
        self.depth[nid] += 1

    def exit(self, nid):
        end = perf_counter()
        _, start, child, sid, parent = self.stack.pop()
        dur = end - start
        a = self.agg[nid]
        a[0] += 1
        a[1] += dur - child
        self.depth[nid] -= 1
        if not self.depth[nid]:
            a[2] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if sid < SPAN_CAP:
            self.span_id.append(sid)
            self.span_parent.append(parent)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(end)

    def span(self, name, fn):
        """Run fn() inside a span of the given name (when active)."""
        if not self.active:
            return fn()
        nid = self.register(name)
        self.enter(nid)
        try:
            return fn()
        finally:
            self.exit(nid)

    # -- installation -------------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self.register(name)
        post = self.post.get(name)
        count_poles = name == "symexpr.Expr.eval"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(nid)
                if count_poles and isinstance(exc, tracer.pole_error):
                    tracer.poles += 1
                raise
            tracer.exit(nid)
            if post is not None:
                post(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        symexpr = importlib.import_module("skewform.symexpr")
        relations = importlib.import_module("skewform.relations")
        self.pole_error = symexpr.PoleError
        self.scan_lines_per_scan = relations.SCAN_LINES
        self.post = {
            "symexpr.Expr.make": self._post_make,
            "symexpr.poly_gcd": self._post_gcd,
            "symexpr.zero_test": self._post_zero_test,
            "relations.degenerate_scan": self._post_scan,
        }
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "skewform" or n.startswith("skewform.")]
        for module_name, path in TARGETS:
            module = importlib.import_module(f"skewform.{module_name}")
            name = metric_name(module_name, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, raw))
                continue
            orig = getattr(module, path)
            wrapped = self._wrap(name, orig)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)

    # -- counters at the same boundaries ----------------------------------------

    def _post_make(self, e):
        n = len(e.num.terms) + len(e.den.terms)
        if n > self.max_terms:
            self.max_terms = n

    def _post_gcd(self, g):
        if not g.is_const():
            self.nontrivial_gcd += 1

    def _post_zero_test(self, decision):
        if decision.probabilistic:
            self.sampled_zero += 1

    def _post_scan(self, report):
        if not report.identically_zero:
            self.scan_lines += self.scan_lines_per_scan
            self.scan_hits += len(report.zero_points)

    # -- results ---------------------------------------------------------------------

    def stat(self, name):
        nid = self.index.get(name)
        return [0, 0.0, 0.0, 0] if nid is None else self.agg[nid]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept {len(self.span_id)} of {self.next_id}\n")
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


LAYER_FUNCTIONS = [metric_name(m, p) for m, p in TARGETS if p != "_prs_gcd"]

# Metrics computed by the parent process rather than from spans.
PARENT_METRICS = [
    ("cli.interpreter.total_s", "s", "lower"),
    ("cli.import_skewform.total_s", "s", "lower"),
    ("cli.catalog_list.total_s", "s", "lower"),
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in LAYER_FUNCTIONS:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [(f"{name}.total_s", "s", "lower") for name in TOP_LEVEL]
    for row in SWEEP_ROWS:
        spec += [(f"{row}.calls", "count", "lower"), (f"{row}.total_s", "s", "lower")]
    spec += [
        ("symexpr.make.max_terms", "count", "lower"),
        ("symexpr.poly_gcd.nontrivial_ratio", "ratio", "higher"),
        ("symexpr.poly_gcd.prs_fallback_ratio", "ratio", "lower"),
        ("symexpr.zero_test.sampled_ratio", "ratio", "lower"),
        ("symexpr.zero_test.d1_miss_ratio", "ratio", "lower"),
        ("symexpr.eval.pole_ratio", "ratio", "lower"),
        ("relations.degenerate_scan.locus_hit_ratio", "ratio", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec + PARENT_METRICS


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_values(tracer):
    """Span-derived metrics of one traced pass (the trace.* overhead metrics
    compare passes, so the caller adds them)."""
    out = {}
    for name in LAYER_FUNCTIONS:
        calls, self_s, _, _ = tracer.stat(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in TOP_LEVEL:
        out[f"{name}.total_s"] = tracer.stat(name)[2]
    for row in SWEEP_ROWS:
        calls, _, total_s, _ = tracer.stat(row)
        out[f"{row}.calls"] = calls
        out[f"{row}.total_s"] = total_s
    gcd_calls = tracer.stat("symexpr.poly_gcd")[0]
    out["symexpr.make.max_terms"] = tracer.max_terms
    out["symexpr.poly_gcd.nontrivial_ratio"] = _ratio(tracer.nontrivial_gcd, gcd_calls)
    # _prs_gcd is called only by poly_gcd and by itself: its outermost calls
    # are the fallbacks
    out["symexpr.poly_gcd.prs_fallback_ratio"] = _ratio(tracer.stat("symexpr._prs_gcd")[3], gcd_calls)
    out["symexpr.zero_test.sampled_ratio"] = _ratio(tracer.sampled_zero, tracer.stat("symexpr.zero_test")[0])
    out["symexpr.eval.pole_ratio"] = _ratio(tracer.poles, tracer.stat("symexpr.Expr.eval")[0])
    out["relations.degenerate_scan.locus_hit_ratio"] = _ratio(tracer.scan_hits, tracer.scan_lines)
    return out
