import contextlib
import io
import json
import math
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from skewform import cli
from skewform.session import (
    SessionError,
    parse_session,
    report_to_json_text,
    report_to_text,
    run_session,
    session_to_text,
)

DATA = Path(__file__).parent / "data"

DEMO = textwrap.dedent(
    """\
    # extended phase chart with the momentum 1-form
    chart t q p
    form omega = p*d[q] - (p^2/2)*d[t]
    form grad = q*d[t] + t*d[q]
    pseudo traj(u, c): t = u, q = c*u, p = c
    relation r = 0 => omega
    classify r expect NONIDENTICAL
    classify r on traj expect CLOSED_RHS
    check closed omega expect false
    check exact grad expect true
    scan poisson q^2 + p^2, q*p with (q:p) expect nonzero
    scan determinant [2*q] expect nonzero
    scan jacobian q + p, q - p, t expect nonzero
    chain r on traj
    eval p*q - q*p
    """
)


class TestParse:
    def test_demo_parses(self):
        s = parse_session(DEMO)
        assert s.chart.variables == ("t", "q", "p")
        assert set(s.forms) == {"omega", "grad"}
        assert "traj" in s.pseudos and s.pseudos["traj"].params.dim == 2
        assert len(s.commands) == 9

    def test_undefined_form_reference(self):
        with pytest.raises(SessionError, match="line 2.*undefined form"):
            parse_session("chart x y\nclassify 0 => nosuch\n")

    def test_undeclared_scalar_in_form(self):
        with pytest.raises(SessionError, match="line 2.*not a declared scalar"):
            parse_session("chart x y\nform f = a*d[x]\n")

    def test_param_declares_scalar(self):
        s = parse_session("chart x y\nparam a\nform f = a*d[x]\n")
        assert "f" in s.forms

    def test_duplicate_name(self):
        with pytest.raises(SessionError, match="already declared"):
            parse_session("chart x y\nform f = d[x]\nform f = d[y]\n")

    def test_chart_required_first(self):
        with pytest.raises(SessionError, match="chart"):
            parse_session("form f = d[x]\n")

    def test_dimension_mismatch_in_connection(self):
        with pytest.raises(SessionError):
            parse_session("chart x y\nconnection G: [3,1,1] = x\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(SessionError, match="line 2"):
            parse_session("chart x y\nform f = d[x] +* d[y]\n")

    def test_differential_identifier_hint(self):
        with pytest.raises(SessionError, match="d\\[E\\]"):
            parse_session("chart E V T\nform f = dE*d[V]\n")

    def test_metric_kinds(self):
        from skewform import parse_expr

        s = parse_session("chart x y\nmetric g = euclidean\nmetric h: [1,1] = 1, [2,2] = x^2\n")
        assert s.metrics["g"].signature == (2, 0)
        assert s.metrics["h"].volume == parse_expr("x")

    def test_metric_with_explicit_dimension(self):
        s = parse_session("chart x y\nmetric g = euclidean(2)\nmetric m = minkowski(2)\n")
        assert s.metrics["m"].sign_det == -1
        with pytest.raises(SessionError, match="dimension"):
            parse_session("chart x y\nmetric g = euclidean(3)\n")

    def test_inline_classify_form(self):
        s = parse_session(
            "chart t q p\nform omega = p*d[q] - (p^2/2)*d[t]\nclassify 0 => omega expect NONIDENTICAL\n"
        )
        report = run_session(s)
        assert report["ok"] is True

    def test_dualclosed_and_evoclosed_checks(self):
        text = textwrap.dedent(
            """\
            chart x y
            metric g = euclidean
            connection G: [1,2,1] = x
            form flat = d[x]
            form torsional = y*d[x]
            check dualclosed flat with g expect true
            check dualclosed x*d[x] with g expect false
            check evoclosed torsional with G expect false
            check evoclosed 3*d[y] with G expect true
            pseudo line(u): x = 2*u, y = 0
            check dualclosed flat with g on line expect true
            """
        )
        report = run_session(parse_session(text))
        assert report["ok"] is True
        # round-trips through the pretty printer
        s2 = parse_session(session_to_text(parse_session(text)))
        assert run_session(s2)["ok"] is True

    @pytest.mark.parametrize("gap", [" ", "  "])
    def test_chain_on_a_pseudostructure_named_steps(self, gap):
        text = DEMO.replace("traj", "steps").replace("chain r on steps", f"chain r on{gap}steps")
        report = run_session(parse_session(text), max_steps=0)
        chain = next(r for r in report["commands"] if r["command"] == "chain")
        # no explicit count was read, so the run's step bound applies
        assert chain["on"] == "steps" and chain["steps"] == []

    @pytest.mark.parametrize(
        "line",
        [
            "form  = d[x]",
            "form 2w = d[x]",
            "relation  = 0 => d[x]",
            "pseudo (u): x = u, y = u",
            "metric : [1,1] = 1",
            "metric 2g = euclidean",
            "connection : [1,1,1] = x",
            "param c 2c",
        ],
    )
    def test_declaration_names_are_identifiers(self, line):
        with pytest.raises(SessionError, match="line 2: .* name must be an identifier"):
            parse_session(f"chart x y\n{line}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("chart x y\nparam a\ncheck closed a\nform a = x*d[y]\n", "line 4: form 'a' is already a chart variable or param"),
            ("chart x y\nform y = d[x]\n", "line 2: form 'y' is already a chart variable or param"),
            ("chart x y\nparam c\nrelation c = 0 => d[x]\n", "line 3: relation 'c' is already a chart variable or param"),
            ("chart x y\nmetric x = euclidean\n", "line 2: metric 'x' is already a chart variable or param"),
            ("chart x y\nform a = x*d[y]\nparam b a\n", "line 3: symbol 'a' is already a form"),
        ],
    )
    def test_names_shared_with_scalars_are_rejected(self, text, message):
        with pytest.raises(SessionError) as err:
            parse_session(text)
        assert str(err.value) == message

    def test_catalog_list_takes_no_arguments(self):
        with pytest.raises(SessionError, match="line 2: catalog command is"):
            parse_session("chart x\ncatalog list extra words\n")
        assert parse_session("catalog list\n").commands[0].kind == "catalog"

    def test_check_with_undefined_metric(self):
        with pytest.raises(SessionError, match="undefined metric"):
            parse_session("chart x y\ncheck dualclosed d[x] with g\n")


class TestRun:
    def test_demo_all_ok(self):
        report = run_session(parse_session(DEMO))
        assert report["ok"] is True
        expectation_records = [r for r in report["commands"] if "expected" in r]
        assert len(expectation_records) == 7
        assert all(r["ok"] for r in expectation_records)

    def test_failed_expectation(self):
        s = parse_session("chart x y\nform w = x*d[y]\ncheck closed w expect true\n")
        report = run_session(s)
        assert report["ok"] is False

    def test_chain_record(self):
        report = run_session(parse_session(DEMO))
        chain_rec = next(r for r in report["commands"] if r["command"] == "chain")
        assert chain_rec["steps"][0]["degree"] == 0
        assert chain_rec["steps"][0]["right"] == "1/2*c^2*u"

    def test_command_error_reported_not_raised(self):
        s = parse_session(
            "chart x y z\n"
            "form w = -y*d[x] + x*d[y]\n"
            "pseudo plane(u, v): x = u, y = v, z = 0\n"
            "chain 0 => w on plane\n"
        )
        report = run_session(s)
        assert report["ok"] is False
        rec = report["commands"][0]
        assert "error" in rec and "not closed" in rec["error"]

    def test_seed_stable_json(self):
        report1 = run_session(parse_session(DEMO), seed=7)
        report2 = run_session(parse_session(DEMO), seed=7)
        assert report_to_json_text(report1) == report_to_json_text(report2)

    def test_text_report_renders(self):
        text = report_to_text(run_session(parse_session(DEMO)))
        assert "result: ok" in text
        assert "NONIDENTICAL" in text

    @pytest.mark.parametrize("seed", range(6))
    def test_scan_bisection_across_a_domain_gap_abandons_the_line(self, seed):
        # F is defined on both sides of the gap -1/10 < x < 1/10 and changes
        # sign only across it, so bisection steps into the gap; that line
        # gives no point, as a failed grid sample gives none
        text = "chart x y\nscan determinant [-x*(ln(x^2 - 1/100)^2 + 1)] expect nonzero\n"
        report = run_session(parse_session(text), seed=seed)
        rec = report["commands"][0]
        assert report["ok"] is True and "error" not in rec
        assert rec["scan"]["identically_zero"] is False

    def test_failed_scan_text_shows_only_the_error(self):
        report = run_session(parse_session("chart x y\nscan poisson x, y, x*y with (x:y)\n"))
        assert "scan" not in report["commands"][0]
        assert report_to_text(report).splitlines()[1:3] == [
            "[!!] line 2: scan",
            "      error: poisson scan takes exactly two scalar expressions",
        ]

    def test_failed_check_classify_and_chain_text_show_only_the_error(self):
        text = (
            "chart x y z\nform w = x*ln(-x^2-1)*d[y]\n"
            "pseudo p(u): x = u, y = u, z = 0\npseudo q(u, v): x = u, y = v, z = 0\n"
            "check closed w\nclassify 0 => w\nclassify 0 => w on p\nchain 0 => x*d[y] on q\n"
        )
        report = run_session(parse_session(text))
        assert [sorted(rec) for rec in report["commands"]] == [
            ["command", "error", "form", "line", "ok"],
            ["command", "error", "line", "ok", "relation"],
            ["command", "error", "line", "ok", "on", "relation"],
            ["command", "error", "line", "ok", "on", "relation"],
        ]
        assert report_to_text(report).splitlines()[1:9] == [
            "[!!] line 5: check",
            "      error: could not sample (x^2*ln(-x^2 - 1) + 2*x^2 + ln(-x^2 - 1))/(x^2 + 1) away from poles",
            "[!!] line 6: classify",
            "      error: could not sample x*ln(-x^2 - 1) away from poles",
            "[!!] line 7: classify",
            "      error: could not sample u*ln(-u^2 - 1) away from poles",
            "[!!] line 8: chain",
            "      error: restricted right side is not closed; the degenerate transformation is not realized",
        ]


class TestRoundTrip:
    def test_pretty_print_reparses_equivalent(self):
        s1 = parse_session(DEMO)
        text = session_to_text(s1)
        s2 = parse_session(text)
        assert s1.chart == s2.chart
        assert s1.forms == s2.forms
        assert set(s1.pseudos) == set(s2.pseudos)
        for name in s1.pseudos:
            assert s1.pseudos[name].mapping == s2.pseudos[name].mapping
        assert len(s1.commands) == len(s2.commands)
        r1 = run_session(s1, seed=5)
        r2 = run_session(s2, seed=5)
        for a, b in zip(r1["commands"], r2["commands"]):
            a.pop("line")
            b.pop("line")
        assert r1["commands"] == r2["commands"]

    def test_poisson_scan_prints_every_expression(self):
        s1 = parse_session("chart x y\nscan poisson x, y, x*y with (x:y)\n")
        text = session_to_text(s1)
        assert "scan poisson x, y, x*y with (x:y)" in text
        r1 = run_session(s1, seed=5)
        r2 = run_session(parse_session(text), seed=5)
        assert "error" in r1["commands"][0]
        for a, b in zip(r1["commands"], r2["commands"]):
            a.pop("line")
            b.pop("line")
        assert r1 == r2

    def test_commands_print_as_written(self):
        s = parse_session(DEMO.replace("classify r expect", "classify   r  expect") + "catalog list  # entries\n")
        printed = session_to_text(s).splitlines()
        assert printed[-len(s.commands):] == [cmd.text for cmd in s.commands]
        assert "classify   r  expect NONIDENTICAL" in printed and printed[-1] == "catalog list"

    def test_round_trip_keeps_the_scalar_a_command_reads(self):
        # `check closed a` reads the param a; no form declared later may take its name
        text = "chart x y\nparam a\ncheck closed a expect true\nform b = a*x*d[y]\ncheck closed b expect false\n"
        s1 = parse_session(text)
        s2 = parse_session(session_to_text(s1))
        r1, r2 = run_session(s1, seed=5), run_session(s2, seed=5)
        for rec in r1["commands"] + r2["commands"]:
            rec.pop("line")
        assert r1 == r2 and r1["ok"] is True
        assert [rec["result"] for rec in r1["commands"]] == [True, False]

    @pytest.mark.parametrize("corpus", sorted(DATA.glob("golden_*.sf")), ids=lambda p: p.name)
    def test_golden_corpora_round_trip(self, corpus):
        s1 = parse_session(corpus.read_text(), corpus.name)
        s2 = parse_session(session_to_text(s1), corpus.name)
        r1, r2 = run_session(s1, seed=5), run_session(s2, seed=5)
        for rec in r1["commands"] + r2["commands"]:
            rec.pop("line")
        assert r1 == r2


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "skewform", *args], capture_output=True, text=True, **kw
    )


class TestCli:
    def test_check_exit_codes(self, tmp_path):
        good = tmp_path / "good.sf"
        good.write_text("chart x y\nform w = y*d[x] + x*d[y]\ncheck closed w expect true\n")
        assert run_cli("check", str(good)).returncode == 0
        bad = tmp_path / "bad.sf"
        bad.write_text("chart x y\nform w = y*d[x] + x*d[y]\ncheck closed w expect false\n")
        assert run_cli("check", str(bad)).returncode == 1

    def test_check_scan_with_overflowing_samples(self, tmp_path):
        # exp(x^2)^8 overflows a float at some zero-test samples; they are drawn again
        f = tmp_path / "overflow.sf"
        f.write_text("chart x y\nscan determinant [exp(x^2)^8 - exp(x^2)^7*sin(x)]\n")
        proc = run_cli("check", str(f), "--seed", "0")
        assert proc.returncode == 0 and proc.stderr == ""
        assert "(identically zero: False, 0 locus samples)" in proc.stdout

    def test_check_scan_with_non_finite_samples(self, tmp_path):
        # every zero-test sample of 2A*sin(x)^2, A = exp(x^2+200)^2*exp(y^2+200)^2, is
        # nan: the scan fails with the zero test's diagnostic, not "identically zero: True"
        A = "exp(x^2+200)^2*exp(y^2+200)^2"
        f = tmp_path / "nan.sf"
        f.write_text(f"chart x y\nscan determinant [{A}*(sin(x)^2 + 1) - {A}*cos(x)^2]\n")
        proc = run_cli("check", str(f), "--seed", "0")
        assert proc.returncode == 1 and proc.stderr == ""
        assert "identically zero" not in proc.stdout
        assert "away from poles or float overflow" in proc.stdout

    @pytest.mark.parametrize("tail, count", [("steps", "''"), ("steps x", "'x'")])
    def test_chain_bad_steps_count(self, tmp_path, tail, count):
        f = tmp_path / "chain.sf"
        f.write_text(DEMO.replace("chain r on traj", f"chain r on traj {tail}"))
        proc = run_cli("check", str(f))
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: line 14: bad steps count {count}"

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, value):
        # with nan or inf no sample exceeds the tolerance: sin(x) + 2 would scan as zero
        f = tmp_path / "scan.sf"
        f.write_text("chart x y\nscan determinant [sin(x) + 2]\n")
        proc = run_cli("check", str(f), "--tolerance", value)
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"argument --tolerance: must be a finite number > 0, got '{value}'" in proc.stderr

    @pytest.mark.parametrize(
        "line, message",
        [
            ("eval 2^(10^7)", "constant power has more than"),
            ("eval 0.5^-100000", "constant power has more than"),
            ("eval " + "1" * 5000, "number literal has more than"),
            ("form w = " + "1" * 5000 + "*d[x]", "number literal has more than"),
        ],
        ids=["power", "negative-power", "literal-in-eval", "literal-in-form"],
    )
    def test_oversized_constants_are_diagnostics(self, tmp_path, line, message):
        f = tmp_path / "big.sf"
        f.write_text(f"chart x y\n# constants\n{line}\n")
        proc = run_cli("check", str(f))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: line 3: {message}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "line",
        [
            "eval (x+1)^100000",
            "eval (x^2+1)^-3000",
            "form w = (2*x + y/3)^100000*d[y]",
            "pseudo c(u): x = u, y = (u - 1)^100000",
        ],
        ids=["(x+1)^100000", "(x^2+1)^-3000", "form", "pseudo"],
    )
    def test_powers_past_the_budget_are_refused_before_they_are_built(self, tmp_path, line):
        """The eval lines took longer than 5 s each before the power budget;
        they now exit at once, and so do powers of a folded polynomial
        inside a form or a pseudostructure."""
        f = tmp_path / "big.sf"
        f.write_text(f"chart x y\n# powers\n{line}\n")
        proc = run_cli("check", str(f), timeout=5)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 3: power too large")

    @pytest.mark.parametrize(
        "text, check_code, message",
        [
            ("10^3000 * 10^3000", 2, "constant product has more than"),
            ("(10^2000*x + 1)^3", 1, "coefficient has more than"),
            ("x + 10^3000 * (2*10^3000)", 2, "constant product has more than"),
            ("10^3000 / (1/10^3000)", 2, "constant quotient has more than"),
            ("x*y - (10^3000/3) / (7/10^3000)", 2, "constant quotient has more than"),
        ],
        ids=["constant-product", "polynomial-coefficient", "product-in-a-sum", "constant-quotient", "quotient-in-a-sum"],
    )
    def test_oversized_products_end_without_traceback(self, tmp_path, text, check_code, message):
        """A product of printable constants past the digit limit is refused at
        its operator (exit 2); a coefficient that passes it inside a
        polynomial is a recorded error of its command (exit 1).  `eval`
        prints either as a diagnostic."""
        f = tmp_path / "big.sf"
        f.write_text(f"chart x y\n# constants\neval {text}\n")
        proc = run_cli("check", str(f), "--json")
        assert proc.returncode == check_code and "Traceback" not in proc.stderr
        if check_code == 2:
            assert proc.stderr.startswith(f"error: line 3: {message}")
        else:
            (record,) = json.loads(proc.stdout)["commands"]
            assert record["ok"] is False and record["error"].startswith(message)
        proc = run_cli("eval", text)
        assert proc.returncode == 2 and proc.stderr.startswith(f"error: {message}")
        assert "Traceback" not in proc.stderr

    def test_check_diagnostic_exit(self, tmp_path):
        f = tmp_path / "broken.sf"
        f.write_text("chart x y\nclassify 0 => missing\n")
        proc = run_cli("check", str(f))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_nameless_declaration_exits_2(self, tmp_path):
        f = tmp_path / "nameless.sf"
        f.write_text("chart x y\nrelation  = 0 => d[x]\nclassify  => d[x]\n")
        proc = run_cli("check", str(f))
        assert proc.returncode == 2
        assert "line 2: relation name must be an identifier" in proc.stderr

    def test_form_named_like_a_param_exits_2(self, tmp_path):
        f = tmp_path / "shadow.sf"
        f.write_text("chart x y\nparam a\ncheck closed a\nform a = x*d[y]\n")
        proc = run_cli("check", str(f))
        assert proc.returncode == 2
        assert proc.stderr.strip() == "error: line 4: form 'a' is already a chart variable or param"

    def test_json_byte_identical(self, tmp_path):
        f = tmp_path / "demo.sf"
        f.write_text(DEMO)
        a = run_cli("check", str(f), "--json", "--seed", "7")
        b = run_cli("check", str(f), "--json", "--seed", "7")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        doc = json.loads(a.stdout)
        assert doc["schema"] == "skewform/report@1"
        assert doc["seed"] == 7

    def test_catalog_list_and_run(self):
        listing = run_cli("catalog", "list")
        assert listing.returncode == 0
        assert "poincare-invariant" in listing.stdout
        run = run_cli("catalog", "run", "poincare-invariant", "--json")
        assert run.returncode == 0
        doc = json.loads(run.stdout)
        assert doc["entries"][0]["passed"] is True

    def test_eval(self):
        proc = run_cli("eval", "(x+y)^2 - x^2 - 2*x*y")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "y^2"
        at = run_cli("eval", "x/y", "--at", "x=1,y=3")
        assert at.stdout.strip() == "1/3"

    def test_eval_error(self):
        proc = run_cli("eval", "foo(x)")
        assert proc.returncode == 2
        assert "unknown function" in proc.stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\u00b2", "unexpected character '\u00b2' (at position 0)"),
            ("\u0663", "unexpected character '\u0663' (at position 0)"),
            ("3\u0663", "unexpected character '\u0663' (at position 1)"),
            ("x*ln(1-1)", "ln of a nonpositive constant (at position 2)"),
        ],
        ids=["superscript-two", "arabic-indic-three", "digit-after-a-number", "ln-of-zero"],
    )
    def test_eval_diagnostics_carry_a_position(self, text, message):
        proc = run_cli("eval", text)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.strip() == f"error: {message}"

    @pytest.mark.parametrize(
        "line", ["form w = " + "(" * 3000 + "x" + ")" * 3000 + "*d[y]", "eval " + "x^" * 2000 + "2"]
    )
    def test_deep_nesting_is_a_diagnostic(self, tmp_path, line):
        f = tmp_path / "deep.sf"
        f.write_text(f"chart x y\n# nested\n{line}\n")
        proc = run_cli("check", str(f))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 3: expression nested deeper than")
        assert "Traceback" not in proc.stderr

    def test_eval_nesting_at_and_past_the_limit(self):
        from skewform.exterior import MAX_NESTING

        chain = "sin(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        proc = run_cli("eval", chain)
        assert proc.returncode == 0
        assert proc.stdout.strip() == chain
        at = run_cli("eval", chain, "--at", "x=1/2")
        assert at.returncode == 0
        v = 0.5
        for _ in range(MAX_NESTING):
            v = math.sin(v)
        assert float(at.stdout) == v
        deeper = run_cli("eval", "(" + chain + ")")
        assert deeper.returncode == 2
        assert "nested deeper" in deeper.stderr


def test_check_closed_on_deeply_nested_atoms():
    """`check closed` on a 100-deep sin(...(x)...) * d[y] (ROADMAP D6): its d
    multiplies out a monomial of 100 nested atoms, whose generator keys
    must compare without walking their whole nesting each time.  No timing
    is asserted."""
    inner = "x"
    for _ in range(100):
        inner = f"sin({inner})"
    text = f"chart x y\nform w = {inner}*d[y]\ncheck closed w expect false\n"
    report = run_session(parse_session(text, "deep.sf"))
    assert report["ok"] is True


# -- a session fuzzer ----------------------------------------------------------------

FUZZ_TOKENS = [
    "(", ")", "[", "]", "d[", "d[q]", "^", "^2", "^-1", "*", "/", "/0", "+", "-", "=", ",", ":", ";", "#",
    ".", "0", "1/2", "10^30", "q", "p", "t", "u", "c", "x", "sin(", "ln(", "exp(", "=>", " on ", " with ",
    " expect ", " steps ", "omega", "w", "g", "r", "traj", "²", "é", "\t", " ",
]
FUZZ_WORDS = [
    "true", "false", "zero", "nonzero", "IDENTICAL", "NONIDENTICAL", "CLOSED_RHS", "closed", "exact",
    "dualclosed", "evoclosed", "jacobian", "determinant", "poisson", "omega", "w", "g", "r", "traj", "q", "0",
]
FUZZ_FLIPS = {
    "true": "false", "false": "true", "zero": "nonzero", "nonzero": "zero",
    "IDENTICAL": "CLOSED_RHS", "CLOSED_RHS": "NONIDENTICAL", "NONIDENTICAL": "IDENTICAL",
}


def fuzzed_session(text, k):
    """The k-th seeded mutation of a session file's text: one or two edits,
    each deleting, duplicating or swapping lines, putting a token into or
    cutting characters out of a line, replacing one of its words, or turning
    its expectations into others."""
    rng = random.Random(f"session-fuzz:{k}")
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        line = lines[i]
        at = rng.randint(0, len(line))
        op = rng.randrange(7)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(j, line)
        elif op == 2:
            lines[i], lines[j] = lines[j], line
        elif op == 3:
            lines[i] = line[:at] + rng.choice(FUZZ_TOKENS) + line[at:]
        elif op == 4:
            lines[i] = line[:at] + line[at + rng.randint(1, 8):]
        elif op == 5:
            words = line.split(" ")
            words[rng.randrange(len(words))] = rng.choice(FUZZ_WORDS)
            lines[i] = " ".join(words)
        else:
            lines[i] = " ".join(FUZZ_FLIPS.get(w, w) for w in line.split(" "))
    return "\n".join(lines) + "\n"


def run_cli_in_process(*args):
    """(exit code, stdout, stderr) of `skewform` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_fuzzed_sessions_end_with_an_exit_code(tmp_path):
    """Mutated copies of the golden session, hostile or not, exit 0, 1 or 2
    from `check` and `check --json` alike, with no traceback: an error is
    one `error:` line, and a report is valid JSON."""
    source = (DATA / "golden_session.sf").read_text()
    codes = set()
    for k in range(60):
        path = tmp_path / f"fuzz{k}.sf"
        path.write_text(fuzzed_session(source, k))
        code, out, err = run_cli_in_process("check", str(path))
        json_code, json_out, json_err = run_cli_in_process("check", str(path), "--json")
        assert code in (0, 1, 2) and json_code == code, k
        assert "Traceback" not in err + json_err, k
        if code == 2:
            assert err == json_err and err.startswith("error: ") and err.count("\n") == 1, k
        else:
            assert json.loads(json_out)["ok"] is (code == 0), k
        codes.add(code)
    assert codes == {0, 1, 2}, codes


def test_fuzzed_sessions_round_trip(tmp_path):
    """Every mutation of the golden session that parses prints, with
    `session_to_text`, a session that parses again and reports the same
    records, apart from their line numbers."""
    source = (DATA / "golden_session.sf").read_text()
    parsed = 0
    for k in range(100):
        try:
            s1 = parse_session(fuzzed_session(source, k), "fuzz.sf")
        except SessionError:
            continue
        parsed += 1
        s2 = parse_session(session_to_text(s1), "fuzz.sf")
        r1, r2 = run_session(s1, seed=3), run_session(s2, seed=3)
        for rec in r1["commands"] + r2["commands"]:
            rec.pop("line")
        assert r1 == r2, k
    assert parsed > 20, parsed
