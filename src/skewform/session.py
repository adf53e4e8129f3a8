"""Line-oriented declaration DSL and the batch check runner.

A session file declares one ambient chart plus named scalars-constants,
forms, connections, metrics and pseudostructures, then issues commands
(`classify`, `check`, `scan`, `chain`, `catalog`, `eval`).  Declarations
are resolved eagerly so an undefined reference or dimension mismatch is a
parse-time diagnostic carrying its line number; so is each command, into
a `Command` whose runner fills in its report record.  Command expectations
(`expect ...`) decide the process exit code; reports are emitted as text
or deterministic JSON.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .symexpr import Expr, ExprError, ExprSyntaxError, all_zero, parse_expr
from .exterior import (
    Chart,
    DiffForm,
    form_to_text,
    is_closed,
    is_exact,
    parse_form,
)
from .manifold import Connection, evo_d
from .duality import Metric, dual_closure_check
from .relations import (
    Pseudostructure,
    Relation,
    classify,
    classify_on,
    degenerate_scan,
    dual_closure_on,
    integrate_chain,
)
from . import catalog as catalog_mod

REPORT_SCHEMA = "skewform/report@1"

VERDICT_NAMES = ("IDENTICAL", "CLOSED_RHS", "NONIDENTICAL")


class SessionError(ExprError):
    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{message}")
        self.line = line


# A parsed command: its kind, line number, source text and runner.
# `run(record, seed, tolerance, max_steps)` fills in the report record and
# returns its `ok`, or None when the command states no expectation.
Command = namedtuple("Command", "kind line text run")


class Session:
    """Parsed declarations plus the ordered list of `Command`s."""

    def __init__(self):
        self.chart = None
        self.params = []
        self.forms = {}
        self.connections = {}
        self.metrics = {}
        self.pseudos = {}
        self.relations = {}
        self.commands = []
        self.source_name = "<session>"

    def allowed_symbols(self):
        return set(self.chart.variables) | set(self.params) if self.chart else set(self.params)


def _split_top(text, sep=","):
    """Split on sep at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def _take_expect(text, line, choices):
    """Strip a trailing `expect <value>` clause; returns (rest, value|None)."""
    marker = " expect "
    idx = text.rfind(marker)
    if idx < 0:
        return text, None
    value = text[idx + len(marker):].strip()
    if choices and value not in choices:
        raise SessionError(f"expect value must be one of {', '.join(choices)}; got {value!r}", line)
    return text[:idx].strip(), value


def _take_on(session, text, line):
    """Strip a trailing `on <pseudo>` clause; returns (rest, name|None)."""
    if " on " not in text:
        return text, None
    text, _, name = text.rpartition(" on ")
    name = name.strip()
    if name not in session.pseudos:
        raise SessionError(f"undefined pseudostructure {name!r}", line)
    return text, name


def _require_chart(session, line):
    if session.chart is None:
        raise SessionError("a `chart` declaration is required first", line)


def _new_name(kind, name, table, line, scalars=()):
    """A declaration's stripped name; it must be an identifier, not yet
    declared in table, and not one of the chart variables and params in
    scalars: a form of that name would shadow the scalar in a command, and
    `session_to_text`, which prints declarations first, would change which
    one the command reads."""
    name = name.strip()
    if not name.isidentifier():
        raise SessionError(f"{kind} name must be an identifier; got {name!r}", line)
    if name in table:
        raise SessionError(f"{kind} {name!r} already declared", line)
    if name in scalars:
        raise SessionError(f"{kind} {name!r} is already a chart variable or param", line)
    return name


def _parse_indexed_assignments(body, line, rank):
    """Parse `[i,j,...] = expr` assignments separated by top-level commas."""
    entries = {}
    for chunk in _split_top(body):
        if not chunk:
            continue
        if "=" not in chunk:
            raise SessionError(f"expected `[indices] = expr`, got {chunk!r}", line)
        lhs, rhs = chunk.split("=", 1)
        lhs = lhs.strip()
        if not (lhs.startswith("[") and lhs.endswith("]")):
            raise SessionError(f"entry indices must be bracketed: {lhs!r}", line)
        try:
            idx = tuple(int(t.strip()) for t in lhs[1:-1].split(","))
        except ValueError as exc:
            raise SessionError(f"bad index tuple {lhs!r}", line) from exc
        if len(idx) != rank:
            raise SessionError(f"expected {rank} indices, got {len(idx)} in {lhs!r}", line)
        entries[idx] = rhs.strip()
    return entries


def _resolve_form(session, token, line, degree_hint=None):
    token = token.strip()
    if token == "0":
        if degree_hint is None:
            return DiffForm.zero(session.chart, 0)
        return DiffForm.zero(session.chart, degree_hint)
    if token in session.forms:
        return session.forms[token]
    # not a declared name: accept an inline form expression
    try:
        return parse_form(token, session.chart, variables=session.allowed_symbols())
    except ExprSyntaxError as exc:
        if token.isidentifier():
            raise SessionError(f"undefined form {token!r}", line) from exc
        raise


def _resolve_relation(session, ref, line):
    ref = ref.strip()
    if "=>" in ref:
        lhs, rhs = ref.split("=>", 1)
        omega = _resolve_form(session, rhs, line)
        psi = _resolve_form(session, lhs, line, degree_hint=max(omega.degree - 1, 0))
        return Relation(psi, omega)
    if ref in session.relations:
        return session.relations[ref]
    raise SessionError(f"undefined relation {ref!r}", line)


def _parse_scalar(session, text):
    return parse_expr(text, variables=session.allowed_symbols())


def parse_session(source, name="<session>"):
    """Parse DSL text (or an open path's contents) into a resolved Session."""
    session = Session()
    session.source_name = name
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _parse_line(session, line, lineno)
        except SessionError:
            raise
        except ExprError as exc:
            raise SessionError(str(exc), lineno) from exc
    return session


def load_session(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_session(fh.read(), name=str(path))


def _parse_line(session, line, lineno):
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    if head == "chart":
        if session.chart is not None:
            raise SessionError("chart already declared", lineno)
        session.chart = Chart(rest.split())
        return
    if head == "param":
        _require_chart(session, lineno)
        for name in rest.split():
            name = _new_name("symbol", name, [*session.chart.index, *session.params], lineno)
            if name in session.forms:
                raise SessionError(f"symbol {name!r} is already a form", lineno)
            session.params.append(name)
        return
    if head == "form":
        _require_chart(session, lineno)
        name, _, body = rest.partition("=")
        name = _new_name("form", name, session.forms, lineno, session.allowed_symbols())
        if not body.strip():
            raise SessionError("form declaration needs `form name = <expression>`", lineno)
        session.forms[name] = parse_form(body.strip(), session.chart, variables=session.allowed_symbols())
        return
    if head == "connection":
        _require_chart(session, lineno)
        name, _, body = rest.partition(":")
        name = _new_name("connection", name, session.connections, lineno, session.allowed_symbols())
        entries = _parse_indexed_assignments(body, lineno, 3)
        parsed = {idx: _parse_scalar(session, text) for idx, text in entries.items()}
        session.connections[name] = Connection.from_entries(session.chart, parsed)
        return
    if head == "metric":
        _require_chart(session, lineno)
        if "=" in rest and ":" not in rest.split("=", 1)[0]:
            name, _, kind = rest.partition("=")
            name = _new_name("metric", name, session.metrics, lineno, session.allowed_symbols())
            kind = kind.strip()
            if "(" in kind:
                # optional explicit dimension, e.g. euclidean(3)
                kind, _, dim_text = kind.partition("(")
                kind = kind.strip()
                dim_text = dim_text.rstrip(")").strip()
                try:
                    dim = int(dim_text)
                except ValueError as exc:
                    raise SessionError(f"bad metric dimension {dim_text!r}", lineno) from exc
                if dim != session.chart.dim:
                    raise SessionError(
                        f"metric dimension {dim} does not match chart dimension {session.chart.dim}",
                        lineno,
                    )
            if kind == "euclidean":
                session.metrics[name] = Metric.euclidean(session.chart)
            elif kind == "minkowski":
                session.metrics[name] = Metric.minkowski(session.chart)
            else:
                raise SessionError(f"unknown metric kind {kind!r} (euclidean|minkowski)", lineno)
            return
        name, _, body = rest.partition(":")
        name = _new_name("metric", name, session.metrics, lineno, session.allowed_symbols())
        entries = _parse_indexed_assignments(body, lineno, 2)
        n = session.chart.dim
        rows = [[Expr.const(0) for _ in range(n)] for _ in range(n)]
        for (i, j), text in entries.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise SessionError(f"metric index out of range: ({i},{j})", lineno)
            e = _parse_scalar(session, text)
            rows[i - 1][j - 1] = e
            rows[j - 1][i - 1] = e
        session.metrics[name] = Metric(session.chart, rows)
        return
    if head == "pseudo":
        _require_chart(session, lineno)
        sig, _, body = rest.partition(":")
        sig = sig.strip()
        if "(" not in sig or not sig.endswith(")"):
            raise SessionError("pseudo declaration is `pseudo name(u, v): x = ..., y = ...`", lineno)
        name, params_text = sig[:-1].split("(", 1)
        name = _new_name("pseudostructure", name, session.pseudos, lineno, session.allowed_symbols())
        params = Chart([p.strip() for p in params_text.split(",") if p.strip()])
        mapping = {}
        allowed = set(params.variables) | set(session.params)
        for chunk in _split_top(body):
            if not chunk:
                continue
            var, _, expr_text = chunk.partition("=")
            var = var.strip()
            if var not in session.chart.index:
                raise SessionError(f"{var!r} is not an ambient chart variable", lineno)
            mapping[var] = parse_expr(expr_text.strip(), variables=allowed)
        missing = set(session.chart.variables) - set(mapping)
        if missing:
            raise SessionError(f"pseudo must map every ambient variable; missing {sorted(missing)}", lineno)
        session.pseudos[name] = Pseudostructure(session.chart, params, mapping)
        return
    if head == "relation":
        _require_chart(session, lineno)
        name, _, body = rest.partition("=")
        name = _new_name("relation", name, session.relations, lineno, session.allowed_symbols())
        session.relations[name] = _resolve_relation(session, body, lineno)
        return
    session.commands.append(Command(head, lineno, line, _parse_command(session, head, rest, lineno)))


def _relation_text(r):
    return f"d({form_to_text(r.psi)}) = {form_to_text(r.omega)}"


def _judge(record, expect, outcome):
    """Record an `expect` clause and compare it with the outcome's name."""
    if expect is None:
        return None
    record["expected"] = expect
    return outcome == expect


def _parse_command(session, head, rest, lineno):
    """Parse, validate and resolve one command; returns its runner."""
    if head == "classify":
        _require_chart(session, lineno)
        rest, expect = _take_expect(rest, lineno, VERDICT_NAMES)
        rest, on = _take_on(session, rest, lineno)
        relation = _resolve_relation(session, rest, lineno)

        def run(record, seed, tolerance, max_steps):
            record["relation"] = _relation_text(relation)
            if on is None:
                verdict = classify(relation, seed=seed)
            else:
                record["on"] = on
                verdict = classify_on(relation, session.pseudos[on], seed=seed)
            record["verdict"] = verdict.to_json()
            return _judge(record, expect, verdict.classification)
        return run
    if head == "check":
        _require_chart(session, lineno)
        rest, expect = _take_expect(rest, lineno, ("true", "false"))
        what, _, body = rest.partition(" ")
        partner = on = None
        if what in ("dualclosed", "evoclosed"):
            body, on = _take_on(session, body, lineno)
            if on is not None and what == "evoclosed":
                raise SessionError("`on <pseudo>` applies to dualclosed checks only", lineno)
            kind_name, table = (
                ("metric", session.metrics) if what == "dualclosed" else ("connection", session.connections)
            )
            if " with " not in body:
                raise SessionError(f"check {what} needs `with <{kind_name}>`", lineno)
            body, _, partner = body.rpartition(" with ")
            partner = partner.strip()
            if partner not in table:
                raise SessionError(f"undefined {kind_name} {partner!r}", lineno)
        elif what not in ("closed", "exact"):
            raise SessionError(
                "check command is `check closed|exact <form>` or "
                "`check dualclosed <form> with <metric> [on <pseudo>]` or "
                "`check evoclosed <form> with <connection>`",
                lineno,
            )
        form = _resolve_form(session, body, lineno)

        def run(record, seed, tolerance, max_steps):
            record["form"] = body.strip()
            if partner is not None:
                record["with"] = partner
            if what == "closed":
                result = is_closed(form, seed=seed)
            elif what == "exact":
                witness = is_exact(form, seed=seed)
                result = witness is not None
                record["witness"] = None if witness is None else form_to_text(witness)
            elif on is not None:
                record["on"] = on
                result = dual_closure_on(form, table[partner], session.pseudos[on], seed=seed)
            elif what == "dualclosed":
                result = dual_closure_check(form, table[partner], seed=seed)
            else:
                result = all_zero(evo_d(form, table[partner]).terms.values(), seed).value
            record["what"] = what
            record["result"] = result
            return _judge(record, expect, "true" if result else "false")
        return run
    if head == "scan":
        _require_chart(session, lineno)
        rest, expect = _take_expect(rest, lineno, ("zero", "nonzero"))
        kind, _, body = rest.partition(" ")
        pairing = None
        if kind == "poisson":
            if " with " not in body:
                raise SessionError("poisson scan needs `with (q:p, ...)`", lineno)
            body, _, pairing_text = body.rpartition(" with ")
            pairing_text = pairing_text.strip()
            if not (pairing_text.startswith("(") and pairing_text.endswith(")")):
                raise SessionError("pairing must be parenthesized, e.g. (q:p)", lineno)
            pairing = []
            for pair in _split_top(pairing_text[1:-1]):
                qv, _, pv = pair.partition(":")
                pairing.append((qv.strip(), pv.strip()))
        if kind in ("poisson", "jacobian"):
            exprs = [_parse_scalar(session, t) for t in _split_top(body)]
        elif kind == "determinant":
            body = body.strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise SessionError("determinant scan needs a bracketed matrix `[a, b; c, d]`", lineno)
            exprs = [
                [_parse_scalar(session, t) for t in _split_top(row_text)]
                for row_text in _split_top(body[1:-1], ";")
            ]
        else:
            raise SessionError(f"unknown scan kind {kind!r} (jacobian|determinant|poisson)", lineno)

        def run(record, seed, tolerance, max_steps):
            report = degenerate_scan(exprs, kind, session.chart, pairing=pairing, seed=seed, tol=tolerance)
            record["scan"] = report.to_json()
            return _judge(record, expect, "zero" if report.identically_zero else "nonzero")
        return run
    if head == "chain":
        _require_chart(session, lineno)
        steps = None
        # a trailing `steps` with no count is a bad count; `on steps` names a pseudostructure
        body, sep, steps_text = (rest + " ").rpartition(" steps ")
        if sep and not body.rstrip().endswith(" on"):
            rest, steps_text = body, steps_text[:-1]
            try:
                steps = int(steps_text.strip())
            except ValueError as exc:
                raise SessionError(f"bad steps count {steps_text!r}", lineno) from exc
        rel_text, on = _take_on(session, rest, lineno)
        if on is None:
            raise SessionError("chain command is `chain <relation> on <pseudo> [steps N]`", lineno)
        relation = _resolve_relation(session, rel_text, lineno)

        def run(record, seed, tolerance, max_steps):
            record["relation"] = _relation_text(relation)
            record["on"] = on
            chain = integrate_chain(
                relation, session.pseudos[on], max_steps=max_steps if steps is None else steps, seed=seed
            )
            record["steps"] = [
                {
                    "degree": st.degree,
                    "left": form_to_text(st.left),
                    "right": form_to_text(st.right),
                    "difference_closed": st.difference_closed,
                }
                for st in chain
            ]
            return True
        return run
    if head == "catalog":
        sub, _, arg = rest.partition(" ")
        arg = arg.strip()
        if sub == "list" and not arg:
            def run(record, seed, tolerance, max_steps):
                record["entries"] = [{"name": n, "title": t} for n, t in catalog_mod.list_entries()]
            return run
        if sub == "run":
            if not arg:
                raise SessionError("catalog run needs an entry name or --all", lineno)
            if arg != "--all" and arg not in dict(catalog_mod.list_entries()):
                raise SessionError(f"unknown catalog entry {arg!r}", lineno)

            def run(record, seed, tolerance, max_steps):
                reports = catalog_mod.run_all(seed=seed) if arg == "--all" else [catalog_mod.run_entry(arg, seed=seed)]
                record["entries"] = [r.to_json() for r in reports]
                return all(r.passed for r in reports)
            return run
        raise SessionError("catalog command is `catalog list` or `catalog run <name|--all>`", lineno)
    if head == "eval":
        expr = _parse_scalar(session, rest) if session.chart else parse_expr(rest)

        def run(record, seed, tolerance, max_steps):
            record["input"] = rest
            record["canonical"] = str(expr)
        return run
    raise SessionError(f"unknown declaration or command {head!r}", lineno)


# -- execution ---------------------------------------------------------------------


def run_session(session, seed=0, tolerance=1e-9, max_steps=8):
    """Execute the session's commands in order; returns the report dict.

    The report's `ok` is true iff every stated expectation held and no
    command errored; that drives the CLI exit code.
    """
    records = []
    all_ok = True
    for cmd in session.commands:
        record = {"command": cmd.kind, "line": cmd.line}
        try:
            ok = cmd.run(record, seed, tolerance, max_steps)
        except ExprError as exc:
            record["error"] = str(exc)
            ok = False
        if ok is not None:
            record["ok"] = ok
            all_ok = all_ok and ok
        records.append(record)
    return {
        "schema": REPORT_SCHEMA,
        "session": session.source_name,
        "seed": seed,
        "commands": records,
        "ok": all_ok,
    }


# -- presentation --------------------------------------------------------------------


def report_to_json_text(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_text(report):
    lines = [f"session {report['session']} (seed {report['seed']})"]
    for rec in report["commands"]:
        mark = "  "
        if "ok" in rec:
            mark = "ok" if rec["ok"] else "!!"
        head = f"[{mark}] line {rec['line']}: {rec['command']}"
        detail = ""
        if rec["command"] == "classify" and "verdict" in rec:
            detail = f" {rec['relation']} -> {rec['verdict']['classification']}"
            if rec.get("on"):
                detail += f" on {rec['on']} (pi closure: {rec['verdict'].get('pi_closure')})"
        elif rec["command"] == "check" and "result" in rec:
            detail = f" {rec['what']} {rec['form']} -> {rec['result']}"
        elif rec["command"] == "scan" and "scan" in rec:
            scan = rec["scan"]
            detail = (
                f" {scan.get('kind')}: {scan.get('expression')} "
                f"(identically zero: {scan.get('identically_zero')}, "
                f"{len(scan.get('zero_points', []))} locus samples)"
            )
        elif rec["command"] == "chain" and "steps" in rec:
            detail = f" {len(rec['steps'])} step(s)"
            for st in rec["steps"]:
                detail += f"\n      degree {st['degree']}: {st['left']} = {st['right']} + const"
        elif rec["command"] == "catalog":
            entries = rec.get("entries", [])
            if entries and "passed" in entries[0]:
                detail = "\n" + "\n".join(
                    f"      {'pass' if e['passed'] else 'FAIL'} {e['name']}" for e in entries
                )
            else:
                detail = "\n" + "\n".join(f"      {e['name']}: {e['title']}" for e in entries)
        elif rec["command"] == "eval":
            detail = f" {rec.get('input')} -> {rec.get('canonical')}"
        if "error" in rec:
            detail += f"\n      error: {rec['error']}"
        lines.append(head + detail)
    lines.append("result: " + ("ok" if report["ok"] else "FAILED"))
    return "\n".join(lines) + "\n"


def session_to_text(session):
    """Pretty print: declarations in canonical form, then each command as
    written.  Re-parsing yields an equivalent session."""
    out = []
    if session.chart:
        out.append("chart " + " ".join(session.chart.variables))
    if session.params:
        out.append("param " + " ".join(session.params))
    for name, form in session.forms.items():
        out.append(f"form {name} = {form_to_text(form)}")
    for name, conn in session.connections.items():
        entries = []
        n = conn.chart.dim
        for s in range(n):
            for a in range(n):
                for b in range(n):
                    e = conn.gamma[s][a][b]
                    if not e.is_zero_struct():
                        entries.append(f"[{s + 1},{a + 1},{b + 1}] = {e}")
        out.append(f"connection {name}: " + ", ".join(entries))
    for name, metric in session.metrics.items():
        entries = []
        n = metric.chart.dim
        for i in range(n):
            for j in range(i, n):
                e = metric.rows[i][j]
                if not e.is_zero_struct():
                    entries.append(f"[{i + 1},{j + 1}] = {e}")
        out.append(f"metric {name}: " + ", ".join(entries))
    for name, ps in session.pseudos.items():
        comps = ", ".join(f"{x} = {ps.mapping[x]}" for x in ps.ambient.variables)
        out.append(f"pseudo {name}({', '.join(ps.params.variables)}): {comps}")
    for name, rel in session.relations.items():
        out.append(f"relation {name} = {_form_ref(session, rel.psi)} => {_form_ref(session, rel.omega)}")
    out.extend(cmd.text for cmd in session.commands)
    return "\n".join(out) + "\n"


def _form_ref(session, form):
    for name, val in session.forms.items():
        if val == form:
            return name
    return "0" if form.is_zero_form() else form_to_text(form)
