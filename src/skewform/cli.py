"""Command-line front end: `skewform check|catalog|eval`."""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .symexpr import ExprError, parse_expr
from . import catalog as catalog_mod
from .session import (
    REPORT_SCHEMA,
    load_session,
    report_to_json_text,
    report_to_text,
    run_session,
)


def _add_common(p):
    p.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed for probabilistic zero tests and locus sampling (default 0)")


def tolerance(text):
    """A finite float > 0: with nan or inf no sample could ever exceed it."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewform",
        description="Symbolic engine for exterior and evolutionary skew-symmetric differential forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a session file of declarations and checks")
    p_check.add_argument("file", help="session file in the skewform DSL")
    _add_common(p_check)
    p_check.add_argument(
        "--tolerance",
        type=tolerance,
        default=1e-9,
        help="numeric tolerance for zero-locus scans, and for the sampled "
        "identically-zero test of a scanned F with function atoms (default 1e-9)",
    )
    p_check.add_argument(
        "--max-steps", type=int, default=8, help="integration-chain step bound (default 8)"
    )

    p_cat = sub.add_parser("catalog", help="list or run the built-in relation catalog")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    p_list = cat_sub.add_parser("list", help="list catalog entries")
    _add_common(p_list)
    p_run = cat_sub.add_parser("run", help="run one entry, or all of them")
    p_run.add_argument("name", nargs="?", help="entry name (omit with --all)")
    p_run.add_argument("--all", action="store_true", help="run every entry")
    _add_common(p_run)

    p_eval = sub.add_parser("eval", help="canonicalize (and optionally evaluate) a scalar expression")
    p_eval.add_argument("expr", help="expression text, e.g. '(x+y)^2 - x^2'")
    p_eval.add_argument("--at", default=None, help="comma-separated bindings, e.g. x=1,y=2/3")
    _add_common(p_eval)
    return parser


def _cmd_check(args):
    try:
        session = load_session(args.file)
    except (OSError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_session(
        session, seed=args.seed, tolerance=args.tolerance, max_steps=args.max_steps
    )
    if args.json:
        sys.stdout.write(report_to_json_text(report))
    else:
        sys.stdout.write(report_to_text(report))
    return 0 if report["ok"] else 1


def _cmd_catalog(args):
    if args.action == "list":
        entries = [{"name": n, "title": t} for n, t in catalog_mod.list_entries()]
        if args.json:
            doc = {"schema": REPORT_SCHEMA, "seed": args.seed, "entries": entries, "ok": True}
            sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        else:
            for e in entries:
                print(f"{e['name']:26s} {e['title']}")
        return 0
    if args.all:
        reports = catalog_mod.run_all(seed=args.seed)
    elif args.name:
        try:
            reports = [catalog_mod.run_entry(args.name, seed=args.seed)]
        except ExprError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print("error: catalog run needs an entry name or --all", file=sys.stderr)
        return 2
    ok = all(r.passed for r in reports)
    if args.json:
        doc = {
            "schema": REPORT_SCHEMA,
            "seed": args.seed,
            "entries": [r.to_json() for r in reports],
            "ok": ok,
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        for r in reports:
            print(f"{'pass' if r.passed else 'FAIL'}  {r.name}")
            for c in r.checks:
                mark = "ok" if c["ok"] else "!!"
                print(f"    [{mark}] {c['label']}")
    return 0 if ok else 1


def _cmd_eval(args):
    try:
        e = parse_expr(args.expr)
        doc = {"input": args.expr, "canonical": str(e)}
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.at:
        bindings = {}
        try:
            for chunk in args.at.split(","):
                name, _, value = chunk.partition("=")
                bindings[name.strip()] = Fraction(value.strip())
            doc["value"] = str(e.eval(bindings))
        except (ExprError, ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.json:
        doc["schema"] = REPORT_SCHEMA
        doc["seed"] = args.seed
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        print(doc["canonical"] if "value" not in doc else doc["value"])
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "catalog":
        return _cmd_catalog(args)
    if args.command == "eval":
        return _cmd_eval(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
