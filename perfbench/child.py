"""Workload process: one pass of one client thread over generated ops.

Reads ``{"rounds": [[op, ...], ...]}`` (see gen.py) as JSON on stdin and
prints one JSON line of raw results.  The process runs the rounds in order,
each op exactly once, and starts no round after ``--seconds`` (it always
runs the first).  So no op sees an input that an earlier op of the same
process has seen, and a cache inside skewform gains only what the inputs
of one pass share.

Within a round the ops run back to back in a closed loop: the next op
starts when the previous one has returned, and each op is timed alone.
The round's answers are checked after it, untimed, against the answers
known from how the inputs were built.  An op that raises or answers wrongly
counts as failed, and the run goes on.

Checks are of three sorts.  Correctness gates (session reports, geometry
identities, scan verdicts and the soundness of every scan zero point) must
all hold for the run to be `correct`.  Other misses of the sampled methods
(a wrong zero-test verdict, a scan that finds no point on a nonempty locus)
count as failed ops.  Misses of two known defects, marked on their cases
by gen.py, are counted apart as known misses: the false "nonzero" verdict
on exp identities (ROADMAP D1) and the zeros of a determinant that never
changes sign.

With ``--trace 1`` the tracer is installed and every op runs inside a span;
the output then also holds the per-layer values of the pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

from tracing import Tracer, per_layer_values

# A scan zero point is a point where |F| < 1e-9 (relations.SCAN_TOL); the
# independent re-evaluation may differ from skewform's in the last bits.
RESIDUAL_TOL = 2e-9


class Op:
    __slots__ = ("name", "label", "call", "check", "fingerprint")

    def __init__(self, name, label, call, check, fingerprint=None):
        self.name = name
        self.label = label
        self.call = call
        self.check = check  # result -> None, a gate failure (str) or a Miss
        self.fingerprint = fingerprint  # result -> str that must repeat across passes


class Miss(str):
    """A wrong or incomplete answer of a sampled method: counted as a
    failed op, but not a correctness gate."""


class Known(Miss):
    """A miss of a known defect named on its case: counted as a known miss,
    not as a failed op."""


def _expect(cond, message):
    return None if cond else message


class OpFactory:
    """Turns generated op dicts into timed calls and their checks."""

    def __init__(self, sk, seed):
        self.sk = sk
        self.seed = seed
        self._metric_cache = {}
        self.d1_cases = 0  # zero tests of ROADMAP D1 cases checked
        self.d1_wrong = 0  # ... and judged "nonzero"

    def parse(self, text):
        return self.sk.symexpr.parse_expr(text)

    def chart(self, names):
        return self.sk.exterior.Chart(names)

    def metric(self, op):
        """The Metric that a round's laplacian, curvature and Hodge ops on
        the same g share, built untimed."""
        key = (tuple(op["chart"]), tuple(map(tuple, op["rows"])))
        if key not in self._metric_cache:
            rows = [[self.parse(t) for t in row] for row in op["rows"]]
            self._metric_cache[key] = self.sk.duality.Metric(self.chart(op["chart"]), rows)
        return self._metric_cache[key]

    def build(self, name, op):
        kind = op["kind"]
        return getattr(self, f"op_{kind}")(f"{name}:{kind}{op['size']}", op)

    def end_round(self):
        self._metric_cache.clear()

    # -- session-mix ---------------------------------------------------------------

    def op_session(self, name, op):
        session, text, fname, seed = self.sk.session, op["text"], op["name"], self.seed

        def call():
            return session.report_to_json_text(session.run_session(session.parse_session(text, fname), seed=seed))

        def check(out):
            report = json.loads(out)
            bad = [c["line"] for c in report["commands"] if c.get("ok") is False]
            return _expect(report["ok"] is True, f"report ok is false (lines {bad})")

        return Op(name, "op.session", call, check, fingerprint=lambda out: hashlib.sha256(out.encode()).hexdigest())

    # -- geometry-dense ----------------------------------------------------------------

    def op_det(self, name, op):
        duality = self.sk.duality
        rows = [[self.parse(t) for t in row] for row in op["rows"]]
        expected = self.parse(op["det"])
        return Op(
            name,
            f"duality.det_expr.n{op['size']}",
            lambda: duality.det_expr(rows),
            lambda d: _expect(d == expected, f"det_expr gave {d}, expected {expected}"),
        )

    def op_metric(self, name, op):
        duality, ZERO = self.sk.duality, self.sk.symexpr.ZERO
        chart = self.chart(op["chart"])
        rows = [[self.parse(t) for t in row] for row in op["rows"]]
        det, n = self.parse(op["det"]), op["size"]

        def check(g):
            identity = all(
                sum((g.rows[i][k] * g.inverse[k][j] for k in range(n)), ZERO) == (1 if i == j else 0)
                for i in range(n)
                for j in range(n)
            )
            exact = g.det == det and g.volume * g.volume == det
            return _expect(identity and exact, "g * g^-1 != I, or det g / sqrt|det g| wrong")

        return Op(name, f"duality.Metric.dim{n}", lambda: duality.Metric(chart, rows), check)

    def op_laplacian(self, name, op):
        duality, exterior, ZERO = self.sk.duality, self.sk.exterior, self.sk.symexpr.ZERO
        g = self.metric(op)
        f = exterior.DiffForm.scalar(g.chart, self.parse(op["scalar"]))
        expected = self.parse(op["laplacian"])
        return Op(
            name,
            f"duality.laplacian.dim{op['size']}",
            lambda: duality.laplacian(f, g),
            lambda out: _expect(out.terms.get((), ZERO) == expected, "laplacian differs from (Lap h) o F"),
        )

    def op_curvature(self, name, op):
        duality, manifold = self.sk.duality, self.sk.manifold
        g = self.metric(op)

        def check(R):
            flat = all(e.is_zero_struct() for a in R for b in a for c in b for e in c)
            return _expect(flat, "riemann of a flat J^T J metric is not zero")

        return Op(name, "op.curvature", lambda: manifold.riemann(duality.christoffel(g)), check)

    def op_hodge(self, name, op):
        duality, exterior = self.sk.duality, self.sk.exterior
        g = self.metric(op)
        n, p = op["size"], op["degree"]
        a = exterior.DiffForm(g.chart, p, {tuple(op["basis"]): self.sk.symexpr.ONE})
        volume = self.parse(op["volume"])
        point = {v: Fraction(t) for v, t in op["point"].items()}
        known = {tuple(map(int, k.split(","))) if k else (): Fraction(t) for k, t in op["star_at"].items()}

        def check(star):
            """star(a) at the generated point; sqrt|det g| is +-det J, and
            the Metric's volume fixes which."""
            sign = 1 if g.volume == volume else -1 if g.volume == -volume else 0
            at = {K: e.eval(point) for K, e in star.terms.items()}
            ok = sign and star.degree == n - p and all(at.get(K, 0) == sign * v for K, v in known.items())
            return _expect(ok and set(at) <= set(known), "star(a) differs from its known value at a point")

        return Op(name, "op.hodge", lambda: duality.hodge_star(a, g), check)

    def op_bianchi(self, name, op):
        manifold, seed = self.sk.manifold, self.seed
        entries = {}
        for s, a, b, text in op["entries"]:
            e = self.parse(text)
            entries[(s + 1, a + 1, b + 1)] = e
            entries[(s + 1, b + 1, a + 1)] = e
        conn = manifold.Connection.from_entries(self.chart(op["chart"]), entries)
        return Op(
            name,
            f"manifold.bianchi_first_check.dim{op['size']}",
            lambda: manifold.bianchi_first_check(conn, seed=seed),
            lambda ok: _expect(ok is True, "first Bianchi identity reported false"),
        )

    # -- sampled-scan ----------------------------------------------------------------

    def op_zeros(self, name, op):
        """One sheet of zero tests: every identity on one pair of arguments,
        and some of them perturbed."""
        symexpr, seed = self.sk.symexpr, self.seed
        cases = [(self.parse(c["expr"]), c["zero"], c["family"]) for c in op["cases"]]
        d1 = [c.get("defect") == "D1" for c in op["cases"]]

        def call():
            out = []
            for e, _, _ in cases:
                try:
                    out.append(symexpr.zero_test(e, seed=seed))
                except symexpr.ZeroTestError as exc:  # gave up: no sample away from poles/overflow
                    out.append(exc)
            return out

        def check(decisions):
            wrong, known = [], []
            for d, (_, want, family), is_d1 in zip(decisions, cases, d1):
                if isinstance(d, symexpr.ZeroTestError):
                    wrong.append(f"{family}: {d}")
                elif d.value != want:
                    (known if is_d1 else wrong).append(f"{family} said {d.value}")
            self.d1_cases += sum(d1)
            self.d1_wrong += len(known)
            if wrong:
                return Miss(f"zero_test wrong on {len(wrong)} of {len(cases)}: {'; '.join(wrong)}")
            return Known(f"D1: zero_test said nonzero on {len(known)} identities") if known else None

        return Op(name, "op.zero_test", call, check)

    def op_scan(self, name, op):
        relations, seed = self.sk.relations, self.seed
        chart = self.chart(op["chart"])
        if op["scan"] == "determinant":
            exprs = [[self.parse(t) for t in row] for row in op["rows"]]
        else:
            exprs = [self.parse(t) for t in op["exprs"]]
        pairing = [tuple(p) for p in op["pairing"]] if op.get("pairing") else None
        locus = op["locus"]

        def on_locus(pt):
            """|F(pt)| <= tol for F rebuilt with `math` from the known locus:
            k cos(w v + b), or the product of the linear factors."""
            if "cos" in locus:
                residual = locus["scale"] * math.cos(locus["freq"] * pt[locus["cos"]] + float(Fraction(locus["shift"])))
            else:
                residual = math.prod(math.fsum([c * pt[v] for c, v in zip(f, op["chart"])] + [f[-1]]) for f in locus["linear"])
            return abs(residual) <= RESIDUAL_TOL

        def check(report):
            if report.identically_zero != op["zero"]:
                return f"scan identically_zero={report.identically_zero}, expected {op['zero']}"
            if op["zero"]:
                return None
            if not report.zero_points:
                if op.get("defect") == "even-order":
                    return Known("even-order: scan found no zero of a determinant that never changes sign")
                return Miss("scan found no point on a known nonempty locus")
            off = [pt for pt in report.zero_points if not on_locus(pt)]
            return _expect(not off, f"{len(off)} scan zero points off the constructed locus")

        return Op(name, f"op.scan.{op['scan']}{'-zero' if op['zero'] else ''}", lambda: relations.degenerate_scan(exprs, op["scan"], chart, pairing=pairing, seed=seed), check)


class Runner:
    def __init__(self, tracer):
        self.tracer = tracer
        self.latencies = []
        self.labels = []
        self.loop_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.known = {}
        self.gate_failures = []
        self.fingerprints = {}

    def call(self, op):
        """(result, error) of one op, inside a span when traced."""
        tracer = self.tracer
        try:
            if tracer is None:
                return op.call(), None
            tracer.active = True
            return tracer.span(op.label, op.call), None
        except Exception as exc:  # a failing op is counted; it never ends the run
            return None, exc
        finally:
            if tracer is not None:
                tracer.active = False

    def run_round(self, ops):
        """The round's ops back to back, each timed alone; then their checks."""
        outcomes = []
        start = perf_counter()
        for op in ops:
            t0 = perf_counter()
            outcome = self.call(op)
            self.latencies.append(perf_counter() - t0)
            outcomes.append(outcome)
        self.loop_s += perf_counter() - start
        self.labels += [op.label for op in ops]
        for op, (result, error) in zip(ops, outcomes):
            self.record(op, result, error)

    def record(self, op, result, error):
        self.attempted += 1
        problem = f"raised {type(error).__name__}: {error}" if error is not None else op.check(result)
        if error is None and op.fingerprint is not None:
            self.fingerprints[op.name] = op.fingerprint(result)
        if problem is None:
            return
        if isinstance(problem, Known):
            self.known[op.label] = self.known.get(op.label, 0) + 1
            return
        self.failed += 1
        gate = not isinstance(problem, Miss)
        key = op.label if gate else f"{op.label}(not a gate)"
        self.failures[key] = self.failures.get(key, 0) + 1
        if gate and len(self.gate_failures) < 20:
            self.gate_failures.append(f"{op.name}: {problem}"[:300])


def _import_skewform(src):
    sys.path.insert(0, src)
    import skewform
    # every module is loaded before the tracer rebinds names in them
    from skewform import catalog, duality, exterior, manifold, relations, session, symexpr  # noqa: F401

    where = os.path.realpath(skewform.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"skewform imported from {where}, not from {src}")
    return skewform


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the skewform package")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="start no round after this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file to write the traced spans to")
    args = ap.parse_args()

    doc = json.load(sys.stdin)
    sk = _import_skewform(args.src)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    factory = OpFactory(sk, args.seed)
    runner = Runner(tracer)
    deadline = perf_counter() + args.seconds
    rounds = 0
    for r, ops in enumerate(doc["rounds"]):
        if r and perf_counter() >= deadline:
            break
        runner.run_round([factory.build(f"{r}.{i}", op) for i, op in enumerate(ops)])
        factory.end_round()
        rounds += 1

    out = dict(
        rounds=rounds,
        latencies=runner.latencies,
        labels=runner.labels,
        loop_s=runner.loop_s,
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        known=runner.known,
        gate_failures=runner.gate_failures,
        fingerprints=runner.fingerprints,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["per_layer"] = per_layer_values(tracer)
        out["per_layer"]["symexpr.zero_test.d1_miss_ratio"] = factory.d1_wrong / factory.d1_cases if factory.d1_cases else 0.0
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
