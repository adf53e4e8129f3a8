import contextlib
import gc
import io
import math
import random
import weakref
from fractions import Fraction

import pytest

from skewform.symexpr import (
    Expr,
    ExprError,
    ExprSyntaxError,
    Monomial,
    PoleError,
    Poly,
    UnboundVariableError,
    ZERO_TEST_SAMPLES,
    ZERO_TEST_TOL,
    ZeroDecision,
    ZeroTestError,
    all_zero,
    compile_numeric,
    cos,
    exp,
    is_zero,
    ln,
    parse_expr,
    sin,
    zero_test,
    _MATH_FN,
    _POLY_ONE,
    _Unfloatable,
    _to_float,
    _to_univar,
)
from skewform import symexpr
from skewform.exterior import MAX_NESTING
from conftest import random_poly

x = Expr.var("x")
y = Expr.var("y")


class TestParse:
    def test_polynomial_readback(self):
        e = parse_expr("x^2 - y^2")
        assert e == x ** 2 - y ** 2
        assert str(e) == "x^2 - y^2"

    def test_differential_identifier_rejected(self):
        with pytest.raises(ExprSyntaxError, match="dE"):
            parse_expr("(dE + p*dV)/T", variables={"E", "V", "T", "p"})

    def test_commutative_cancellation(self):
        assert parse_expr("p*q - q*p").is_zero_struct()

    def test_rational_literals(self):
        assert parse_expr("3/2").as_fraction() == Fraction(3, 2)
        assert parse_expr("0.25").as_fraction() == Fraction(1, 4)

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError, match="unknown function"):
            parse_expr("foo(x)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x + * y")
        assert err.value.pos == 4

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="integer"):
            parse_expr("x^y")
        with pytest.raises(ExprSyntaxError, match="integer"):
            parse_expr("x^(1/2)")

    def test_negative_exponent(self):
        assert parse_expr("x^-2") == 1 / x ** 2

    @pytest.mark.parametrize("text, want", [("x^0", "1"), ("0^0", "1"), ("(x - y)^0*y", "y"), ("(2*x)^1/4", "1/2*x")])
    def test_powers_of_folded_subtrees(self, text, want):
        """A zero power is 1, as an Expr's is."""
        assert str(parse_expr(text)) == want

    @pytest.mark.parametrize(
        "text, message, pos",
        [
            ("(x-x)^-1", "zero to a negative power", 5),
            ("y + (1-1)^-2", "zero to a negative power", 9),
            ("x/0", "division by zero", 1),
            ("2*x/(y - y)", "division by zero", 3),
            ("(x + 1)^(1/2)", "exponent must be an integer constant", 7),
            ("2^x", "exponent must be an integer constant", 1),
        ],
    )
    def test_folded_subtrees_keep_their_diagnostics(self, text, message, pos):
        with pytest.raises(ExprSyntaxError, match=message) as err:
            parse_expr(text)
        assert err.value.pos == pos

    @pytest.mark.parametrize("text, pos", [("\u00b2", 0), ("\u0663", 0), ("3\u0663", 1), ("x + 2\u00b9", 5), ("\u00bdx", 0)])
    def test_numbers_are_ascii_digits(self, text, pos):
        """A digit outside ASCII 0-9 (superscript two, Arabic-Indic three,
        one half) is an unexpected character where it stands."""
        with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
            parse_expr(text)
        assert err.value.pos == pos

    def test_identifiers_keep_their_unicode_rules(self):
        """An identifier begins with a letter or `_` and goes on with any
        character for which str.isalnum() is true, or `_`."""
        assert str(parse_expr("x\u00b2 + \u03b1_\u0663 + _a1")) == "_a1 + x\u00b2 + \u03b1_\u0663"

    @pytest.mark.parametrize("text, pos", [("x*ln(1-1)", 2), ("ln(-2/3)", 0), ("sin(x) + ln((x - x)*y)", 9)])
    def test_ln_of_a_nonpositive_constant_has_a_position(self, text, pos):
        with pytest.raises(ExprSyntaxError, match="ln of a nonpositive constant") as err:
            parse_expr(text)
        assert err.value.pos == pos

    def test_print_parse_idempotent(self):
        rng = random.Random(11)
        for _ in range(40):
            e = random_poly(rng, ["x", "y", "z"]) / (random_poly(rng, ["x"]) + 17)
            assert parse_expr(str(e)) == e

    def test_function_printing_roundtrip(self):
        e = sin(x * y) * 3 + cos(x) / (y + 2) + exp(x ** 2) - ln(y + 5)
        assert parse_expr(str(e)) == e

    def test_form_syntax_is_not_scalar(self):
        # without a chart `d` is an ordinary identifier and `d[` is an error
        assert parse_expr("d + d^2") == Expr.var("d") + Expr.var("d") ** 2
        with pytest.raises(ExprSyntaxError, match="trailing input"):
            parse_expr("d[x]")

    @pytest.mark.parametrize(
        "text, pos",
        [
            ("(" * 3000 + "x" + ")" * 3000, MAX_NESTING),
            ("sin(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), 4 * MAX_NESTING + 3),
            ("-" * 3000 + "x", MAX_NESTING),
            ("x^" * 2000 + "2", 2 * MAX_NESTING + 1),
        ],
    )
    def test_nesting_limit(self, text, pos):
        with pytest.raises(ExprSyntaxError, match="nested deeper") as err:
            parse_expr(text)
        assert err.value.pos == pos


class TestCanonicalForm:
    def test_reduced_fraction(self):
        assert (x ** 2 - y ** 2) / (x - y) == x + y

    def test_canonical_zero_unique(self):
        e = (x + y) ** 2 - x ** 2 - 2 * x * y - y ** 2
        assert e == Expr.const(0)
        assert e.is_zero_struct()

    def test_equal_rationals_identical_trees(self):
        a = (x / y + 1) / (x - y)
        b = (x + y) / (y * (x - y))
        assert a == b and hash(a) == hash(b) and str(a) == str(b)

    def test_denominator_monic(self):
        e = x / (2 * y)
        assert e.den.leading()[1] == 1

    def test_canonicalization_idempotent(self):
        import random

        from conftest import random_poly

        rng = random.Random(13)
        for _ in range(25):
            e = random_poly(rng, ["x", "y"]) / (random_poly(rng, ["x", "y"]) + 11)
            again = Expr.make(e.num, e.den)
            assert again == e and str(again) == str(e)

    def test_gcd_divisibility_properties(self):
        # gcd(a*c, b*c) must divide both inputs and be divisible by c
        import random

        from skewform.symexpr import NotExactDivision, _poly_divexact, poly_cofactors, poly_gcd
        from conftest import random_poly

        rng = random.Random(14)
        for _ in range(30):
            a = random_poly(rng, ["x", "y"], max_total_deg=3).num
            b = random_poly(rng, ["x", "y"], max_total_deg=3).num
            c = (random_poly(rng, ["x", "y"], max_total_deg=2) + 1).num
            f = a * c
            g = b * c
            if f.is_zero() or g.is_zero():
                continue
            h = poly_gcd(f, g)
            cofactors = poly_cofactors(f, g)
            assert cofactors[0] == h and h * cofactors[1] == f and h * cofactors[2] == g
            _poly_divexact(f, h)
            _poly_divexact(g, h)
            _poly_divexact(h, poly_gcd(h, c))
            try:
                _poly_divexact(h, c)
            except NotExactDivision:
                raise AssertionError(f"common factor not extracted: gcd({a}*{c}, {b}*{c}) = {h}")

    @pytest.mark.parametrize("path", ["heuristic", "prs"])
    def test_cofactors_on_both_paths(self, path, monkeypatch):
        """The PRS fallback gives the heuristic's gcd and cofactors, and a
        coprime pair comes back as the operands themselves on either path."""
        from skewform import symexpr
        from conftest import random_poly

        rng = random.Random(16)
        cases = []
        for _ in range(12):
            a = random_poly(rng, ["x", "y"], max_total_deg=3).num
            b = random_poly(rng, ["x", "y"], max_total_deg=3).num
            c = (random_poly(rng, ["x", "y"], max_total_deg=2) + 1).num
            f, g = (a * c).scale(Fraction(3, 2)), (b * c).scale(Fraction(-2, 5))
            if not (f.is_const() or g.is_const()):
                cases += [(f, g), (f, f)]
        wants = [symexpr.poly_cofactors(f, g) for f, g in cases]
        failed = []
        if path == "prs":

            def fail(*args):
                failed.append(args)
                raise symexpr._HeuristicFailed

            monkeypatch.setattr(symexpr, "_gcdheu", fail)
        for (f, g), want in zip(cases, wants):
            h, fh, gh = symexpr.poly_cofactors(f, g)
            assert (h, fh, gh) == want and h * fh == f and h * gh == g
            assert h.leading()[1] == 1
        f, g = parse_expr("x^2 + y + 1").num, parse_expr("3*x*y - 2").num
        h, fh, gh = symexpr.poly_cofactors(f, g)
        assert h == _POLY_ONE and fh is f and gh is g
        assert bool(failed) == (path == "prs")

    def test_heuristic_cofactors_run_packed(self, monkeypatch):
        """On a pair shaped like the denominators of geometry-dense ops, the
        heuristic gcd, its verifying division and the unpacking build no
        Monomial product and split none, and take no PRS fallback."""
        from skewform import symexpr

        f = parse_expr("(x*y + 3)*(x^2 - 2*y + 1)*(sin(x) + 2)*(y - 2)").num
        g = parse_expr("(3*x*y + 9)*(x + 1)^2*(y - 2)/5").num
        calls = {"mul": 0, "split": 0, "prs": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(Monomial, "mul", counted("mul", Monomial.mul))
        monkeypatch.setattr(Monomial, "split", counted("split", Monomial.split))
        monkeypatch.setattr(symexpr, "_prs_gcd", counted("prs", symexpr._prs_gcd))
        h, fh, gh = symexpr.poly_cofactors(f, g)
        assert calls == {"mul": 0, "split": 0, "prs": 0}
        monkeypatch.undo()
        assert h == parse_expr("(x*y + 3)*(y - 2)").num
        assert h * fh == f and h * gh == g

    def test_inexact_division_stops_at_the_quotient_bound(self, monkeypatch):
        """x^9*y^9*z^9 / (x + y + z): the first quotient term x^8*y^9*z^9 is
        past the bound less the divisor's degrees (9 - 1 for y), so the
        division ends at its first step.  The guard bits alone keep every
        product inside its fields but let each exponent run to about twice
        its bound: 29 steps here."""
        import heapq

        from skewform.symexpr import NotExactDivision, _poly_divexact

        steps = []
        pop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop", lambda heap: steps.append(1) or pop(heap))
        with pytest.raises(NotExactDivision):
            _poly_divexact(parse_expr("x^9*y^9*z^9").num, parse_expr("x + y + z").num)
        assert len(steps) == 1

    def test_division_refuses_a_laurent_quotient(self):
        """(x^2 + x) / (x*y + y) is x/y.  Its first quotient term needs y^-1,
        which borrows from x's field; the guard bit refuses it rather than
        reading the borrow as a large exponent of y."""
        from skewform.symexpr import NotExactDivision, _poly_divexact

        with pytest.raises(NotExactDivision):
            _poly_divexact(parse_expr("x^2 + x").num, parse_expr("x*y + y").num)

    def test_power_budget(self):
        """A power is estimated before it is built: past the budget it is an
        ExprError, and a syntax error at its "^" in the parser."""
        from skewform.symexpr import POWER_BUDGET, _power_size

        x1 = parse_expr("x + 1")
        assert _power_size(x1.num, 100000) > POWER_BUDGET
        with pytest.raises(ExprError, match="power too large"):
            x1 ** 100000
        with pytest.raises(ExprSyntaxError, match="power too large") as info:
            parse_expr("(x^2+1)^-3000")
        assert info.value.pos == 7
        assert (x1 ** 400).num.total_degree() == 400  # within the budget, and exact
        assert parse_expr("x^400").num.total_degree() == 400
        # the denominator 1 has its estimate too, 1 + 3n: past the budget for 0^400000
        with pytest.raises(ExprSyntaxError, match="power too large: its size estimate 1200001") as info:
            parse_expr("1 + 0^400000")
        assert info.value.pos == 5

    def test_constant_quotient_past_the_digit_limit(self):
        with pytest.raises(ExprSyntaxError, match="constant quotient has more than"):
            parse_expr("10^3000 / 10^-3000")
        # built before it is judged: operands that cancel are no error
        assert parse_expr("10^3000 / 10^3000") == Expr.const(1)

    def test_equal_products_cancel(self):
        import random

        from conftest import random_poly

        rng = random.Random(15)
        for _ in range(20):
            a = random_poly(rng, ["x", "y", "z"], max_total_deg=3)
            c = random_poly(rng, ["x", "y", "z"], max_total_deg=2) + 5
            assert (a * c) / c == a


class TestDiff:
    def test_power_rule(self):
        assert (x ** 2 * y).diff("x") == 2 * x * y

    def test_chain_rule(self):
        assert sin(x * y).diff("x") == y * cos(x * y)

    def test_constant(self):
        c = Expr.var("c")
        assert c.diff("x").is_zero_struct()

    def test_product_rule(self):
        f = (x ** 2 + 1) * sin(y)
        assert f.diff("x") == 2 * x * sin(y)
        assert f.diff("y") == (x ** 2 + 1) * cos(y)

    def test_quotient_rule(self):
        assert (x / y).diff("y") == -x / y ** 2

    def test_ln_derivative(self):
        assert ln(x).diff("x") == 1 / x

    def test_linearity_randomized(self):
        rng = random.Random(5)
        for _ in range(50):
            e1 = random_poly(rng, ["x", "y"])
            e2 = random_poly(rng, ["x", "y"])
            assert (e1 + e2).diff("x") == e1.diff("x") + e2.diff("x")

    def test_mixed_partials_commute_randomized(self):
        rng = random.Random(6)
        for _ in range(30):
            num = random_poly(rng, ["x", "y"])
            den = random_poly(rng, ["x", "y"]) + 13
            e = num / den
            assert e.diff("x").diff("y") == e.diff("y").diff("x")


class TestZeroTest:
    def test_binomial_identity(self):
        d = zero_test((x + y) ** 2 - x ** 2 - 2 * x * y - y ** 2)
        assert d.value and not d.probabilistic

    def test_pythagorean_identity_probabilistic(self):
        d = zero_test(sin(x) ** 2 + cos(x) ** 2 - 1)
        assert d.value and d.probabilistic

    def test_distinct_polynomials(self):
        d = zero_test(x * y - x)
        assert not d.value and not d.probabilistic

    def test_e_minus_e_randomized(self):
        rng = random.Random(7)
        for _ in range(25):
            e = random_poly(rng, ["x", "y", "z"]) / (random_poly(rng, ["z"]) + 9)
            assert is_zero(e - e)

    def test_seed_determinism(self):
        e = sin(x) * cos(x) - sin(x) * cos(x) + exp(x) - exp(x)
        assert zero_test(e, seed=7).value == zero_test(e, seed=7).value

    def test_nonzero_transcendental(self):
        d = zero_test(sin(x) - cos(x))
        assert not d.value and d.probabilistic

    def test_all_samples_at_poles(self):
        # ln of a strictly negative argument is undefined at every sample
        with pytest.raises(ZeroTestError):
            zero_test(ln(-1 - x ** 2))

    def test_overflowing_samples_are_resampled(self):
        # exp(x^2)^8 overflows a float for |x| > 9.41; F = e^{7x^2}(e^{x^2} - sin x) > 0
        e = parse_expr("*".join(["exp(x^2)"] * 8) + " - exp(x^2)^7*sin(x)")
        with pytest.raises(OverflowError):
            compile_numeric(e, ["x"])([Fraction(-9997, 1000)])
        for seed in range(6):
            d = zero_test(e, seed=seed)
            assert (d.value, d.probabilistic) == (False, True)

    def test_give_up_message_names_overflow(self):
        with pytest.raises(ZeroTestError, match=r"away from poles$"):
            zero_test(ln(-1 - x ** 2))
        # exp(x^2 + 700) is about 1e304 and overflows when squared
        with pytest.raises(ZeroTestError, match=r"away from poles or float overflow$"):
            zero_test(exp(x ** 2 + 700) ** 2 - sin(x))

    def test_non_finite_samples_are_drawn_again(self):
        # A*(sin^2 + 1) - A*cos^2 = 2A*sin(x)^2 is not zero, but A overflows to
        # inf at every sample point, and inf - inf is nan
        A = "exp(x^2+200)^2*exp(y^2+200)^2"
        e = parse_expr(f"{A}*(sin(x)^2 + 1) - {A}*cos(x)^2")
        assert math.isnan(compile_numeric(e, ["x", "y"])([1.0, 1.0]))
        with pytest.raises(ZeroTestError, match=r"away from poles or float overflow$"):
            zero_test(e)


class TestAllZero:
    def test_exact_nonzero_first_stops_exact(self):
        d = all_zero([x * y - x, sin(x) ** 2 + cos(x) ** 2 - 1])
        assert (d.value, d.probabilistic) == (False, False)

    def test_stops_at_first_nonzero(self):
        def exprs():
            yield x
            raise AssertionError("tested past the first nonzero expression")

        assert not all_zero(exprs())

    def test_sampled_identity_then_nonzero(self):
        d = all_zero([sin(x) ** 2 + cos(x) ** 2 - 1, x])
        assert (d.value, d.probabilistic) == (False, True)

    def test_empty_is_exact_zero(self):
        d = all_zero([])
        assert (d.value, d.probabilistic) == (True, False)


class TestEval:
    def test_exact_rational(self):
        assert (x / y).eval({"x": 1, "y": 2}) == Fraction(1, 2)

    def test_pole(self):
        with pytest.raises(PoleError):
            (x / y).eval({"x": 1, "y": 0})

    def test_exp_zero(self):
        assert exp(Expr.const(0)).eval({}) == 1.0

    def test_float_with_functions(self):
        v = (sin(x) ** 2 + cos(x) ** 2).eval({"x": Fraction(3, 7)})
        assert isinstance(v, float) and abs(v - 1.0) < 1e-12

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            (x + y).eval({"x": 1})


# The term-by-term evaluator that `compile_numeric` replaced, kept verbatim
# (apart from the recursion into atom arguments) as the oracle for it, with
# one deliberate change: it walks each polynomial's terms in the canonical
# float order (descending `Monomial.sort_key()`), not in dict order.

_ORACLE_FN = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}


def _oracle_eval(expr, point=None):
    point = dict(point or {})
    missing = expr.variables() - set(point)
    if missing:
        raise UnboundVariableError(f"unbound variables: {sorted(missing)}")
    numeric = expr.has_atoms() or any(isinstance(v, float) for v in point.values())
    n = _oracle_poly_eval(expr.num, point, numeric)
    d = _oracle_poly_eval(expr.den, point, numeric)
    if d == 0:
        raise PoleError(f"evaluation at a pole of {expr}")
    return n / d


def _oracle_poly_eval(p, point, numeric):
    total = 0.0 if numeric else Fraction(0)
    for m, c in sorted(p.terms.items(), key=lambda t: t[0].sort_key(), reverse=True):
        val = float(c) if numeric else c
        for g, e in m.items:
            if isinstance(g, str):
                gv = point[g]
                gv = float(gv) if numeric else Fraction(gv)
            else:
                arg = _oracle_eval(g.arg, point)
                try:
                    gv = _ORACLE_FN[g.fn](float(arg))
                except (ValueError, OverflowError) as exc:
                    raise PoleError(f"{g.fn} undefined at argument {arg}") from exc
            val = val * gv ** e
        total = total + val
    return total


def _random_expr(rng, depth):
    """Random Expr over x, y, z: sums, products, quotients and small powers,
    with sin/cos/exp/ln atoms nested up to `depth` levels."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.7:
            return Expr.var(rng.choice("xyz")) * rng.randint(-3, 3) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Expr.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    if roll < 0.45:
        return rng.choice([sin, cos, exp, ln])(_random_expr(rng, depth - 1))
    a, b = _random_expr(rng, depth - 1), _random_expr(rng, depth - 1)
    if roll < 0.6:
        return a + b
    if roll < 0.75:
        return a * b
    if roll < 0.9:
        return a / b
    return a ** rng.randint(2, 4)


def _random_point(rng, kind):
    def value(var):
        k = kind if kind != "mixed" else {"x": "float", "y": "fraction", "z": "int"}[var]
        if k == "float":
            return rng.uniform(-3.0, 3.0)
        if k == "fraction":
            return Fraction(rng.randint(-3000, 3000), rng.randint(1, 1000))
        if k == "int":
            return rng.randint(-3, 3)  # small integers land on poles and ln(0)
        if k == "overflow":
            return rng.choice([800.0, -800.0, 1e120, 10 ** 6, 710, 10 ** 400])  # exp, ** and float() overflow
        raise AssertionError(k)

    point = {v: value(v) for v in "xyz"}
    if kind in ("fraction", "int") and rng.random() < 0.5:
        point["unused"] = 0.5  # an unused float still forces float arithmetic
    return point


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except (ExprError, OverflowError) as exc:
        return ("raises", type(exc).__name__)
    return ("value", type(r).__name__, repr(r))


def test_compile_numeric_bit_identical_to_term_evaluator():
    """Same values (to the bit, same type) and same exception types as the
    term-by-term evaluator, through Expr.eval and through one prepared
    closure reused across points."""
    rng = random.Random("compile-numeric-oracle")
    kinds = ("float", "fraction", "int", "mixed", "overflow")
    seen = set()
    checked = 0
    while checked < 300:
        try:
            e = _random_expr(rng, 3)
        except (ZeroDivisionError, PoleError):
            continue
        checked += 1
        prepared = compile_numeric(e, ["x", "y", "z", "unused"])
        for kind in kinds:
            for _ in range(2):
                point = _random_point(rng, kind)
                want = _outcome(_oracle_eval, e, point)
                assert _outcome(Expr.eval, e, point) == want, (str(e), point)
                values = [point[v] for v in "xyz"] + [point.get("unused", 0)]
                assert _outcome(prepared, values) == want, (str(e), point)
                seen.add(want[:2])
    # the corpus reaches exact and float values, poles and overflows
    assert {("value", "Fraction"), ("value", "float"), ("raises", "PoleError"), ("raises", "OverflowError")} <= seen


def test_compile_numeric_float_order_is_canonical():
    """One polynomial built through two histories, whose `terms` dicts
    iterate in different orders, evaluates to bit-identical floats: float
    terms are summed in descending `Monomial.sort_key()` order."""
    terms = [parse_expr(t) for t in ("10^8*x^3", "-x*y^2/3", "7/11*y^3", "x*sin(y)", "-10^8*x^2*y", "1/7")]
    up, down = Expr.const(0), Expr.const(0)
    for t in terms:
        up = up + t
    for t in reversed(terms):
        down = down + t
    assert up == down and list(up.num.terms) != list(down.num.terms)
    f_up, f_down = compile_numeric(up, ["x", "y"]), compile_numeric(down, ["x", "y"])
    rng = random.Random("float-order")
    moved = 0
    for _ in range(200):
        point = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
        assert repr(f_up(point)) == repr(f_down(point)) == repr(up.eval(dict(zip("xy", point))))
        # summed in dict order, the two histories disagree in the last bits
        moved += _oracle_dict_order(up, point) != _oracle_dict_order(down, point)
    assert moved > 20, moved


def _oracle_dict_order(e, point):
    """The oracle's float sum of e's numerator, in dict order."""
    env = dict(zip("xy", point))
    total = 0.0
    for m, c in e.num.terms.items():
        val = float(c)
        for g, k in m.items:
            gv = env[g] if isinstance(g, str) else _ORACLE_FN[g.fn](float(_oracle_eval(g.arg, env)))
            val = val * gv ** k
        total = total + val
    return total


def test_compile_numeric_coefficient_beyond_float_range():
    huge = parse_expr("10^400*x")
    for e in (huge, huge + sin(x), sin(huge) + x):
        for point in ({"x": 1}, {"x": 0.5}, {"x": Fraction(1, 3)}):
            assert _outcome(Expr.eval, e, point) == _outcome(_oracle_eval, e, point), (str(e), point)


def test_compile_numeric_unbound_and_extra_names():
    with pytest.raises(UnboundVariableError):
        compile_numeric(x + y, ["x"])
    f = compile_numeric(x / y, ["y", "w", "x"])
    assert f([2, 7, 1]) == Fraction(1, 2)
    assert f([2, 0.5, 1]) == 0.5  # any float in the point selects float arithmetic


# The tuple-walking evaluator that the closure tree of `compile_numeric`
# replaced, kept verbatim (renamed) as the oracle for it: values must match
# to the bit and in type, and exceptions in type and message.

def _walker_compile_numeric(expr, names):
    """Prepare expr for evaluation at many points: return f(values), where
    values[i] is the number bound to names[i].

    The canonical tree is walked once.  Coefficients are converted once,
    atom arguments are prepared recursively, and each variable and atom
    gets a slot in a per-call work list.  A subexpression is evaluated in
    float when it has elementary-function atoms or any value in the point
    is a float (even one bound to a name the expression does not use), and
    exactly otherwise.  Float evaluation performs the operations of a
    term-by-term walk (`val * gv ** e` per factor, `total + val` per term)
    over each polynomial's terms in descending `Monomial.sort_key()` order,
    sorted once here: a value depends on the polynomial, not on the order
    in which its `terms` dict was built.
    Exact evaluation sums integer numerators over a common denominator and
    yields the same rational as Fraction arithmetic; the value of an exact
    top-level expression is a Fraction.  A zero denominator, or a domain
    or range error inside sin/cos/exp/ln, raises PoleError; an overflowing
    float power raises OverflowError.  Each atom is computed at its first
    occurrence and reused: the functions are pure, so reuse changes
    neither a value nor which exception is raised first.
    """
    position = {v: i for i, v in enumerate(names)}
    variables = expr.variables()
    missing = variables - set(position)
    if missing:
        raise UnboundVariableError(f"unbound variables: {sorted(missing)}")
    used = sorted(variables, key=position.__getitem__)
    columns = [position[v] for v in used]
    slots = {v: k for k, v in enumerate(used)}
    extra = []  # initial contents of the slots after the variables'
    atoms = {}  # slot -> (function name, math function, prepared argument)

    def slot_of(g):
        if g not in slots:
            arg = prepare(g.arg)
            slots[g] = len(columns) + len(extra)
            extra.append(None)  # filled at the atom's first occurrence
            atoms[slots[g]] = (g.fn, _MATH_FN[g.fn], arg)
        return slots[g]

    def float_terms(p):
        terms = []
        for m, c in sorted(p.terms.items(), key=lambda t: t[0].sort_key(), reverse=True):
            factors = tuple((slot_of(g), e) for g, e in m.items)
            try:
                terms.append((float(c), factors))
            except OverflowError as exc:
                # raise where float(c) would, before the term's first factor
                extra.append(_Unfloatable(str(exc)))
                terms.append((1.0, ((len(columns) + len(extra) - 1, 1),) + factors))
        return terms

    def exact_terms(p):
        """(scale, degree, terms) with, for values a / B over a common
        denominator B, p = sum(n * prod(a ** e) * B ** shift) / (scale * B ** degree)."""
        scale = math.lcm(*(c.denominator for c in p.terms.values()))
        degree = p.total_degree()
        terms = [
            (c.numerator * (scale // c.denominator), degree - m.degree, tuple((slots[g], e) for g, e in m.items))
            for m, c in p.terms.items()
        ]
        return scale, degree, terms

    def prepare(e):
        """(float num, float den, exact num, exact den, has atoms, e); a den
        of None is the constant 1, and atom-bearing nodes have no exact form."""
        one = e.den == _POLY_ONE  # canonical constant denominators are 1
        fnum, fden = float_terms(e.num), None if one else float_terms(e.den)
        if any(not isinstance(g, str) for p in (e.num, e.den) for m in p.terms for g, _ in m.items):
            return (fnum, fden, None, None, True, e)
        return (fnum, fden, exact_terms(e.num), None if one else exact_terms(e.den), False, e)

    top = prepare(expr)

    def evaluate(values):
        numeric = False
        for v in values:
            if isinstance(v, float):
                numeric = True
                break
        w = exact = None
        if numeric or atoms:
            w = [v if v.__class__ is float else _to_float(v) for v in map(values.__getitem__, columns)]
            w += extra
        if not numeric:
            q = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in map(values.__getitem__, columns)]
            common = math.lcm(*(v.denominator for v in q))
            exact = ([v.numerator * (common // v.denominator) for v in q], common)
        state = (w, exact, numeric, atoms)  # what the evaluation helpers share
        if numeric or top[4]:
            return _eval_float(top, state)
        return Fraction(*_eval_exact(top, exact))

    return evaluate


def _eval_float(node, state):
    fnum, fden, _, _, _, expr = node
    n = _sum_float(fnum, state)
    if fden is None:
        return n  # n / 1.0 is n
    d = _sum_float(fden, state)
    if d == 0:
        raise PoleError(f"evaluation at a pole of {expr}")
    return n / d


def _sum_float(terms, state):
    w = state[0]
    total = 0.0
    for c, factors in terms:
        val = c
        for k, e in factors:
            gv = w[k]
            if gv is None:
                gv = _atom_value(k, state)
            val = val * gv if e == 1 else val * gv ** e  # x ** 1 is x
        total = total + val
    return total


def _eval_exact(node, exact):
    """(n, d), d > 0, with n / d the exact value of an atom-free node."""
    _, _, num, den, _, expr = node
    a, common = exact
    n, scale = _sum_exact(num, a, common)
    if den is None:
        return n, scale
    d, dscale = _sum_exact(den, a, common)
    if d == 0:
        raise PoleError(f"evaluation at a pole of {expr}")
    n, d = n * dscale, d * scale
    return (n, d) if d > 0 else (-n, -d)


def _sum_exact(poly, a, common):
    scale, degree, terms = poly
    total = 0
    for c, shift, factors in terms:
        for k, e in factors:
            c *= a[k] if e == 1 else a[k] ** e
        if shift and common != 1:
            c *= common ** shift
        total += c
    return total, scale * common ** degree


def _atom_value(k, state):
    fn, f, node = state[3][k]
    if node[4] or state[2]:
        arg = _eval_float(node, state)
    else:
        arg = _eval_exact(node, state[1])
    try:
        # n / d of ints rounds correctly, as float(Fraction(n, d)) does
        gv = f(arg if arg.__class__ is float else arg[0] / arg[1])
    except (ValueError, OverflowError) as exc:
        shown = arg if arg.__class__ is float else Fraction(*arg)
        raise PoleError(f"{fn} undefined at argument {shown}") from exc
    state[0][k] = gv
    return gv


def _outcome_with_message(fn, *args):
    try:
        r = fn(*args)
    except (ExprError, OverflowError) as exc:
        return ("raises", type(exc).__name__, str(exc))
    return ("value", type(r).__name__, repr(r))


def test_compile_numeric_matches_the_walker():
    """On the 300-expression corpus at the five point kinds, through
    Expr.eval's names, through one prepared closure with an unused name and
    through the sorted names that scans and zero tests pass."""
    rng = random.Random("compile-numeric-oracle")
    kinds = ("float", "fraction", "int", "mixed", "overflow")
    seen = set()
    checked = 0
    while checked < 300:
        try:
            e = _random_expr(rng, 3)
        except (ZeroDivisionError, PoleError):
            continue
        checked += 1
        used = sorted(e.variables())
        prepared = [
            (names, compile_numeric(e, names), _walker_compile_numeric(e, names))
            for names in (["x", "y", "z", "unused"], used)
        ]
        for kind in kinds:
            for _ in range(2):
                point = _random_point(rng, kind)
                names = list(point)
                want = _outcome_with_message(_walker_compile_numeric(e, names), list(point.values()))
                assert _outcome_with_message(Expr.eval, e, point) == want, (str(e), point)
                for names, new, old in prepared:
                    values = [point.get(v, 0) for v in names]
                    got = _outcome_with_message(new, values)
                    assert got == _outcome_with_message(old, values), (str(e), names, values)
                seen.add(want[:2])
    assert {("value", "Fraction"), ("value", "float"), ("raises", "PoleError"), ("raises", "OverflowError")} <= seen


def _random_line(rng, kind, n):
    """(base, direction, steps) of a seeded line in n coordinates: `scan`
    lines as degenerate_scan draws them, `lattice` lines through integer
    points (poles, ln(0)) and `far` lines (exp and ** overflow)."""
    if kind == "scan":
        base = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        direction = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        return base, direction, [-5.0 + 10.0 * k / 33 for k in range(0, 34, 4)] + [rng.uniform(-5.0, 5.0)]
    if kind == "lattice":
        base = [float(rng.randint(-2, 2)) for _ in range(n)]
        direction = [float(rng.randint(-1, 1)) for _ in range(n)]
        return base, direction, [float(k) for k in range(-3, 4)]
    base = [rng.choice([800.0, -800.0, 1e120, 30.0, 0.5]) for _ in range(n)]
    return base, [rng.uniform(-1.0, 1.0) for _ in range(n)], [-5.0, 0.0, 2.5]


def test_line_entry_matches_compile_numeric_and_the_walker():
    """`f.line(base, direction)(s)` gives the value, to the bit, or the
    exception, in type and message, of f and of the walker at the point
    base + s * direction, on the 300-expression corpus along seeded lines,
    with the sorted names that scans pass and with an unused name."""
    rng = random.Random("line-entry-oracle")
    seen = set()
    checked = 0
    while checked < 300:
        try:
            e = _random_expr(rng, 3)
        except (ZeroDivisionError, PoleError):
            continue
        checked += 1
        used = sorted(e.variables())
        for names in (["x", "y", "z", "unused"], used):
            if not names:
                continue  # a point with no coordinates holds no float
            f, old = compile_numeric(e, names), _walker_compile_numeric(e, names)
            for kind in ("scan", "lattice", "far"):
                base, direction, steps = _random_line(rng, kind, len(names))
                value = f.line(base, direction)
                for s in steps:
                    values = [b + s * d for b, d in zip(base, direction)]
                    want = _outcome_with_message(old, values)
                    assert _outcome_with_message(f, values) == want, (str(e), values)
                    assert _outcome_with_message(value, s) == want, (str(e), names, base, direction, s)
                    seen.add(want[:2])
    assert {("value", "float"), ("raises", "PoleError"), ("raises", "OverflowError")} <= seen


# The zero test at Fraction points that `zero_test` replaced, kept verbatim
# (renamed) as the oracle for its integer sample points.

def _fraction_point_zero_test(e, seed=0, samples=ZERO_TEST_SAMPLES, tol=ZERO_TEST_TOL):
    """Decide whether e is identically zero.

    Exact via the canonical form when e is purely rational; with elementary
    functions present, falls back to seeded sampling at random rational
    points in [-10, 10] (poles are resampled, bounded retries).
    """
    if e.num.is_zero():
        return ZeroDecision(True, False)
    if not e.has_atoms():
        return ZeroDecision(False, False)
    names = sorted(e.variables())
    f = compile_numeric(e, names)
    rng = random.Random(f"skewform-zero:{seed}:{e}")
    for _ in range(samples):
        for attempt in range(8):
            point = [Fraction(rng.randint(-10000, 10000), 1000) for _ in names]
            try:
                val = f(point)
            except PoleError:
                continue
            break
        else:
            raise ZeroTestError(f"could not sample {e} away from poles")
        if abs(float(val)) >= tol:
            return ZeroDecision(False, True)
    return ZeroDecision(True, True)


def _decision(test, e, seed):
    try:
        d = test(e, seed=seed)
    except ZeroTestError as exc:
        return ("raises", str(exc))
    return (d.value, d.probabilistic)


def test_integer_sample_points_match_fraction_points():
    """zero_test at the points k / 1000 of ints gives the decision, or the
    ZeroTestError text, of the Fraction-point loop, on the atom-bearing
    corpus expressions, on sampled identities over them, and on ln(x) and
    1/sin(x) pole cases.  Where the old loop let an OverflowError escape the
    new one resamples, so those cases are left out (and counted)."""
    rng = random.Random("integer-points-oracle")
    cases = [ln(x), ln(x) * ln(y) * cos(x), 1 / sin(x) + x, 1 / sin(x * y) - 1 / sin(x) ** 2, ln(-1 - x ** 2)]
    cases += [sin(ln(x)) ** 2 + cos(ln(x)) ** 2 - 1, ln(x) * ln(y) * ln(Expr.var("z")) * (sin(x) ** 2 + cos(x) ** 2 - 1)]
    cases.append(1 / (sin(x) ** 2 + cos(x) ** 2 - 1))
    while len(cases) < 200:
        try:
            e = _random_expr(rng, 3)
        except (ZeroDivisionError, PoleError):
            continue
        if e.has_atoms():
            cases += [e, sin(e) ** 2 + cos(e) ** 2 - 1]
    seen, escaped = set(), 0
    for e in cases:
        for seed in (0, 1):
            try:
                want = _decision(_fraction_point_zero_test, e, seed)
            except OverflowError:
                escaped += 1
                continue
            assert _decision(zero_test, e, seed) == want, (str(e), seed)
            seen.add(want[0])
    assert seen == {True, False, "raises"} and escaped < 20, (seen, escaped)


def test_fractions_entry_matches_compile_numeric():
    """`f.at_fractions(nums, den)` gives the value, to the bit and in type
    (a Fraction for an atom-free expression), or the exception, in type and
    message, of f at the Fractions nums[i] / den."""
    rng = random.Random("fractions-entry")
    seen = set()
    for _ in range(300):
        try:
            e = _random_expr(rng, 3)
        except (ZeroDivisionError, PoleError):
            continue
        f = compile_numeric(e, ["x", "y", "z"])
        for den in (1000, 1, 7):
            nums = [rng.randint(-3 * den, 3 * den) for _ in range(3)]
            want = _outcome_with_message(f, [Fraction(n, den) for n in nums])
            assert _outcome_with_message(f.at_fractions, nums, den) == want, (str(e), nums, den)
            seen.add(want[:2])
    assert {("value", "Fraction"), ("value", "float"), ("raises", "PoleError")} <= seen


def test_compile_numeric_deep_atoms_and_huge_coefficients_match_the_walker():
    deep = parse_expr("sin(" * 99 + "x" + ")" * 99)
    want = 0.5
    for _ in range(99):
        want = math.sin(want)
    for point in ([0.5], [Fraction(1, 2)]):
        assert repr(compile_numeric(deep, ["x"])(point)) == repr(want)
        assert repr(_walker_compile_numeric(deep, ["x"])(point)) == repr(want)
    huge = parse_expr("10^400*x")
    cases = [huge, huge + sin(x), sin(huge) + x, x / (huge + y), huge * y + exp(x), parse_expr("x^2*y - 10^400")]
    # -x at 0.0 is 0.0 + -0.0; an overflowing power comes before or after a pole of ln
    cases += [-x, -x * y, parse_expr("x^400 + ln(y)"), parse_expr("x^400*y - ln(x)")]
    points = [[1, 2], [0.5, 2], [Fraction(1, 3), 0], [10 ** 400, 0.5], [2, 10 ** 400], [800.0, 1], [0.0, -1.0], [10.0, -1.0], [-10.0, 1.0]]
    for e in cases:
        for values in points:
            got = _outcome_with_message(compile_numeric(e, ["x", "y"]), values)
            assert got == _outcome_with_message(_walker_compile_numeric(e, ["x", "y"]), values), (str(e), values)


class TestSubstitution:
    def test_polynomial_compose(self):
        e = (x ** 2 + y).subst({"x": y + 1})
        assert e == y ** 2 + 3 * y + 1

    def test_atom_argument_substitution(self):
        e = sin(x).subst({"x": y ** 2})
        assert e == sin(y ** 2)

    def test_constant_simplification(self):
        assert sin(x).subst({"x": Expr.const(0)}).is_zero_struct()
        assert exp(x).subst({"x": Expr.const(0)}) == Expr.const(1)


# The multiply path that the merge multiply replaced, kept verbatim (as
# functions over today's classes) as the oracle for it: a dict merge sorted
# by generator key, and term-by-term Fraction accumulation.


def _old_gen_key(gen):
    if isinstance(gen, str):
        return ("a", gen)
    return gen.sort_key()


def _old_mono_mul(a, b):
    merged = {}
    for g, e in a.items:
        merged[g] = e
    for g, e in b.items:
        merged[g] = merged.get(g, 0) + e
    return Monomial(sorted(merged.items(), key=lambda t: _old_gen_key(t[0])))


def _old_mono_divide(a, b):
    merged = dict(a.items)
    for g, e in b.items:
        r = merged.get(g, 0) - e
        if r < 0:
            return None
        if r == 0:
            merged.pop(g, None)
        else:
            merged[g] = r
    return Monomial(sorted(merged.items(), key=lambda t: _old_gen_key(t[0])))


def _old_poly_mul(p, q, stats):
    res = {}
    popped = set()
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = _old_mono_mul(m1, m2)
            s = res.get(m, Fraction(0)) + c1 * c2
            if s:
                stats["reinserted"] += m in popped and m not in res
                res[m] = s
            else:
                res.pop(m, None)
                popped.add(m)
                stats["popped"] += 1
    return Poly(res)


def _random_kernel_poly(rng, gens):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        m = Monomial.unit()
        for g in rng.sample(gens, rng.randint(0, 3)):
            m = _old_mono_mul(m, Monomial.of(g, rng.randint(1, 3)))
        terms[m] = terms.get(m, Fraction(0)) + Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return Poly(terms)


def _assert_same_monomial(a, b):
    assert a == b and hash(a) == hash(b)
    assert a.sort_key() == b.sort_key() == tuple((_old_gen_key(g), e) for g, e in a.items)


def test_merge_multiply_matches_sorted_dict_multiply():
    """Poly products have the same terms as the old multiply, including
    monomials popped at a zero partial sum and inserted again; monomials
    built by mul, divide, `_to_univar` and the parser are equal and hash
    equal."""
    rng = random.Random("merge-multiply-oracle")
    gens = ["x", "y", "z"] + [
        atom
        for text in ("sin(x)", "exp(y + 1/2)", "ln(sin(x)^2 + 2)", "sin(exp(z) - x)")
        for atom in parse_expr(text).num.generators()
        if not isinstance(atom, str)
    ]
    stats = {"popped": 0, "reinserted": 0}
    for case in range(300):
        p, q = _random_kernel_poly(rng, gens), _random_kernel_poly(rng, gens)
        t = Poly({Monomial.of(rng.choice(gens)): Fraction(rng.randint(1, 3), rng.randint(1, 2))})
        pt = _old_poly_mul(p, t, {"popped": 0, "reinserted": 0})
        ptt = _old_poly_mul(pt, t, {"popped": 0, "reinserted": 0})
        # (p + q)(p - q) cancels its cross terms; in (p + pt + ptt)(p - pt + ptt)
        # the p^2 t^2 terms reach 0 at the middle product and come back
        f, g = rng.choice([(p, q), (p + q, p - q), (p + q, q - p), (p + pt + ptt, p - pt + ptt)])
        got, want = f * g, _old_poly_mul(f, g, stats)
        assert got.terms == want.terms
        for m in got.terms:
            _assert_same_monomial(m, _old_mono_mul(Monomial.unit(), m))
            for m2 in g.terms:
                quotient = m.divide(m2)
                assert quotient == _old_mono_divide(m, m2)
                if quotient is not None:
                    _assert_same_monomial(quotient.mul(m2), m)
        for gen in got.generators():
            for e, coeff in _to_univar(got, gen).items():
                for rest, c in coeff.terms.items():
                    m = rest.mul(Monomial.of(gen, e)) if e else rest
                    _assert_same_monomial(m, next(k for k in got.terms if k == m))
                    assert got.terms[m] == c
        if case % 10:
            continue  # parsing is slow; a tenth of the cases take that route
        e = Expr.make(got)
        parsed = parse_expr(str(e))
        assert parsed == e and hash(parsed) == hash(e)
        for m in parsed.num.terms:
            _assert_same_monomial(m, next(k for k in e.num.terms if k == m))
    # the corpus pops monomials at a zero partial sum and inserts them again
    assert stats["popped"] > 100 and stats["reinserted"] > 10, stats


def _old_poly_add(p, q, sign):
    res = dict(p.terms)
    for m, c in q.terms.items():
        s = res.get(m, Fraction(0)) + sign * c
        if s:
            res[m] = s
        else:
            res.pop(m, None)
    return Poly(res)


def test_trivial_operands_match_the_general_paths():
    """A constant factor and an empty summand give the terms, dict order and
    Fraction coefficients of the general multiply and add/sub loops."""
    rng = random.Random("trivial-operands")
    gens = ["x", "y", "z"] + [
        atom
        for text in ("sin(exp(z) - x)", "exp(sin(y)^2 + 1/3)", "exp(y + 1/2)")
        for atom in parse_expr(text).num.generators()
        if not isinstance(atom, str)
    ]
    zero = Poly.const(0)
    stats = {"popped": 0, "reinserted": 0}
    for _ in range(200):
        p = _random_kernel_poly(rng, gens)
        pairs = [(p + zero, _old_poly_add(p, zero, 1)), (zero + p, _old_poly_add(zero, p, 1)),
                 (p - zero, _old_poly_add(p, zero, -1)), (zero - p, _old_poly_add(zero, p, -1))]
        for k in (Poly.const(1), Poly.one(), Poly.const(-1), Poly.const(Fraction(2, 3))):
            pairs += [(p * k, _old_poly_mul(p, k, stats)), (k * p, _old_poly_mul(k, p, stats))]
        for got, want in pairs:
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(type(c) is Fraction for c in got.terms.values())
    # the general multiply never pops over a one-term unit factor
    assert stats["popped"] == 0


def test_parsing_makes_no_expr_arithmetic_on_atom_free_coefficients(monkeypatch):
    """Parsing the golden session adds or multiplies two atom-free
    polynomial Exprs only where a form is put together: a coefficient times
    the 1 of d[x], or added to the 0 of an index the other form lacks.  Every
    other Expr sum or product has an atom or a denominator in an operand."""
    from pathlib import Path

    from skewform.session import parse_session

    calls = []

    def counted(fn):
        def wrapper(self, other):
            calls.append((self, other))
            return fn(self, other)

        return wrapper

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Expr, name, counted(getattr(Expr, name)))
    parse_session((Path(__file__).parent / "data" / "golden_session.sf").read_text())
    monkeypatch.undo()

    def polynomial(e):
        return isinstance(e, Expr) and e.den.is_const() and not e.has_atoms()

    def unit_or_zero(e):
        return e.is_rational_constant() and e.as_fraction() in (0, 1)

    assert any(not (polynomial(a) and polynomial(b)) for a, b in calls)
    assert [(a, b) for a, b in calls if polynomial(a) and polynomial(b) and not (unit_or_zero(a) or unit_or_zero(b))] == []


@pytest.mark.parametrize("n", [1, 6, 40])
def test_diff_of_an_atom_free_polynomial_makes_no_poly_sum(monkeypatch, n):
    """The derivative of an n-term polynomial is built in one dict, with no
    running Poly sum."""
    p = parse_expr(" + ".join(f"{k}*x^{k}*y" for k in range(1, n + 1))).num
    want = parse_expr(" + ".join(f"{k * k}*x^{k - 1}*y" for k in range(1, n + 1)))
    calls = []
    real_add = Poly.__add__
    monkeypatch.setattr(Poly, "__add__", lambda a, b: calls.append(1) or real_add(a, b))
    got = symexpr._poly_diff_expr(p, "x")
    monkeypatch.undo()
    assert calls == []
    assert got == want and list(got.num.terms.items()) == list(want.num.terms.items())


def test_subst_of_polynomial_values_makes_no_expr_arithmetic(monkeypatch):
    """With polynomial values every term is a Poly product, summed in one
    dict: no Expr sum or product."""
    p = parse_expr("x^2*y - 3*x*y + y^3 + z - 2").num
    mapping = {"x": parse_expr("u + 1"), "y": parse_expr("u - 1")}
    want = parse_expr("(u + 1)^2*(u - 1) - 3*(u + 1)*(u - 1) + (u - 1)^3 + z - 2")
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        real = getattr(Expr, name)
        monkeypatch.setattr(Expr, name, lambda a, b, real=real: calls.append(1) or real(a, b))
    got = symexpr._poly_subst(p, mapping)
    monkeypatch.undo()
    assert calls == [] and got == want


@pytest.mark.parametrize(
    "text, mapping, want",
    [
        ("x - y", {"x": "u", "y": "u"}, "0"),
        ("x^2 - y^2 + z", {"x": "u + 1", "y": "-u - 1"}, "z"),
        ("x*y - 2*x + y*z", {"x": "u", "y": "2", "z": "u"}, "2*u"),
        ("x + y + x^2", {"x": "u", "y": "-u"}, "u^2"),
    ],
)
def test_subst_drops_the_terms_that_cancel(text, mapping, want):
    """A monomial whose coefficients sum to zero leaves the sum: no zero
    coefficient is kept."""
    got = parse_expr(text).subst({k: parse_expr(v) for k, v in mapping.items()})
    assert str(got) == want and all(got.num.terms.values())


def test_power_size_of_one_term_is_its_closed_form():
    """For a one-term base the estimate is 1 + n*(degree + bits + 1), the
    general formula with one term in every power."""
    for text in ("x", "-7/3*x^2*y*sin(x)", "10^40*z^5", "1"):
        p = parse_expr(text).num
        ((m, c),) = p.terms.items()
        bits = c.numerator.bit_length() + c.denominator.bit_length()
        for n in (1, 2, 7, 1000):
            assert symexpr._power_size(p, n) == 1 + n * (m.degree + bits + 1)


def test_a_first_power_passes_the_budget():
    """p^1 makes no product, so a p whose square is past the budget still
    passes at the power 1: in `**`, in the parser and in `subst`, the path
    `pullback` takes.  Its square is refused as before."""
    e = parse_expr("(1 + x + y + z + w)^11")
    assert len(e.num.ints) == 1365 and symexpr._power_size(e.num, 1) > symexpr.POWER_BUDGET
    assert e ** 1 == e
    assert parse_expr(f"({e})^1") == e
    assert parse_expr("u + 1").subst({"u": e}) == e + 1
    assert parse_expr("3*x").subst({"x": e}) == e * 3
    with pytest.raises(ExprError, match="power too large"):
        e ** 2


def test_constant_factor_makes_no_monomial_products(monkeypatch):
    """Products by a constant and sums of polynomial Exprs skip the merge:
    they call `Monomial.mul` not at all, where the merge calls it per term."""
    p = parse_expr("x^2*y + sin(x)*y - 3").num
    a, b = parse_expr("x*y + 1"), parse_expr("y^2 - x/2")
    want_scaled, want_sum = p.scale(Fraction(3)), parse_expr("x*y + 1 + y^2 - x/2")
    calls = []
    real_mul = Monomial.mul

    def counting_mul(self, other):
        calls.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(Monomial, "mul", counting_mul)
    assert p * Poly.const(1) == p
    assert Poly.const(3) * p == want_scaled
    assert a + b == want_sum
    assert calls == []


@pytest.mark.parametrize(
    "build, arg, poly",
    [(Expr.const, q, Poly.const(q)) for q in (0, 1, Fraction(-3, 7), 10**50)] + [(Expr.var, "x", Poly.gen("x"))],
    ids=["0", "1", "-3/7", "10^50", "x"],
)
def test_const_and_var_build_what_make_builds(build, arg, poly):
    """Expr.const and Expr.var skip Expr.make, and give its Expr: the same
    numerator and denominator, in the same `terms` order."""
    got, want = build(arg), Expr.make(poly)
    assert got == want
    assert list(got.num.terms.items()) == list(want.num.terms.items())
    assert list(got.den.terms.items()) == list(want.den.terms.items())


def _general_add(a, b, sign):
    return Expr.make(a.num * b.den + b.num * a.den if sign > 0 else a.num * b.den - b.num * a.den, a.den * b.den)


def test_expr_shortcuts_match_make_without_gcd(monkeypatch):
    """A zero operand, a negation, a constant factor and a sum or difference
    of two polynomials give the Expr, and the `terms` order of numerator and
    denominator, of the general `Expr.make` path, without calling poly_cofactors."""
    a, b = parse_expr("(x + sin(y))/(y^2 - 2)"), parse_expr("x^2*y - 3*y + 1/2")
    c, zero, one = Expr.const(Fraction(-3, 4)), Expr.const(0), Expr.const(1)
    p, q = parse_expr("x*y + 1 - exp(x)"), parse_expr("y^2 - x/2 - 1 + exp(x)")
    cases = [
        (lambda: a + zero, lambda: _general_add(a, zero, 1)),
        (lambda: zero + a, lambda: _general_add(zero, a, 1)),
        (lambda: a - zero, lambda: _general_add(a, zero, -1)),
        (lambda: zero - a, lambda: _general_add(zero, a, -1)),
        (lambda: -a, lambda: Expr.make(-a.num, a.den)),
        (lambda: -b, lambda: Expr.make(-b.num, b.den)),
        (lambda: p + q, lambda: _general_add(p, q, 1)),
        (lambda: p - q, lambda: _general_add(p, q, -1)),
        (lambda: q - p - b, lambda: _general_add(_general_add(q, p, -1), b, -1)),
        (lambda: p - p, lambda: _general_add(p, p, -1)),
    ]
    for u in (a, b, c, one, zero):
        for v in (c, one, zero):
            cases += [(lambda u=u, v=v: u * v, lambda u=u, v=v: Expr.make(u.num * v.num, u.den * v.den))]
            cases += [(lambda u=u, v=v: v * u, lambda u=u, v=v: Expr.make(v.num * u.num, v.den * u.den))]
    e = parse_expr("1/((x + 1)*(y^2 - 2))")  # its denominator shares y^2 - 2 with a's
    wants = [want() for _, want in cases] + [_general_add(a, e, 1)]
    calls = []
    real_cofactors = symexpr.poly_cofactors

    def counting_cofactors(f, g):
        calls.append((f, g))
        return real_cofactors(f, g)

    monkeypatch.setattr(symexpr, "poly_cofactors", counting_cofactors)
    assert a + e == wants[-1] and len(calls) == 2  # the counter sees the general path: gcd(b, d), gcd(t, g)
    calls.clear()
    for (got, _), want in zip(cases, wants):
        got = got()
        assert got == want
        assert list(got.num.terms.items()) == list(want.num.terms.items())
        assert list(got.den.terms.items()) == list(want.den.terms.items())
    assert calls == []


def _henrici_operands(rng):
    """A pair of canonical Exprs, built by Expr.make alone, whose
    denominators are equal, coprime or partly shared products of a few
    factors (one of them sin(x) + 2); some pairs sum to 0 or a constant."""
    factors = [parse_expr(t).num for t in ("x + 1", "y - 2", "x*y + 3", "sin(x) + 2", "2*x - y^2", "x^2 + y")]

    def product(picks):
        out = _POLY_ONE
        for k in picks:
            out = out * factors[k]
        return out

    def operand(den_picks):
        num = random_poly(rng, ["x", "y"], max_terms=3, max_total_deg=2).num
        if rng.random() < 0.3:
            num = num * factors[rng.choice(den_picks or [0])]  # cancels against the denominator
        return Expr.make(num, product(den_picks))

    picks = rng.sample(range(len(factors)), rng.randint(0, 3))
    shape = rng.choice(["equal", "coprime", "shared", "cancel", "constant"])
    u = operand(picks)
    if shape == "equal":
        return u, operand(picks)
    if shape == "coprime":
        return u, operand(rng.sample([k for k in range(len(factors)) if k not in picks], rng.randint(1, 2)))
    if shape == "shared":
        return u, operand(picks[:1] + rng.sample(range(len(factors)), rng.randint(1, 2)))
    if shape == "cancel":
        return u, Expr.make(-u.num, u.den)
    return u, Expr.make(u.den.scale(rng.randint(-3, 3)) - u.num, u.den)


def test_henrici_arithmetic_matches_make_of_cross_products():
    """+, -, *, / and ** take gcds of the operands' parts only (Henrici);
    the result is the Expr that Expr.make gives for the naive cross
    products, the same by ==, by text and by sort_key."""
    rng = random.Random(140)
    seen = set()
    for _ in range(300):
        a, b = _henrici_operands(rng)
        cases = [
            (a + b, Expr.make(a.num * b.den + b.num * a.den, a.den * b.den)),
            (a - b, Expr.make(a.num * b.den - b.num * a.den, a.den * b.den)),
            (a * b, Expr.make(a.num * b.num, a.den * b.den)),
            (a ** 2, Expr.make(a.num ** 2, a.den ** 2)),
        ]
        if not b.is_zero_struct():
            cases += [(a / b, Expr.make(a.num * b.den, a.den * b.num)), (b ** -3, Expr.make(b.den ** 3, b.num ** 3))]
        for got, want in cases:
            assert got == want
            assert str(got) == str(want)
            assert got.sort_key() == want.sort_key()
            seen.add("zero" if got.is_zero_struct() else "constant" if got.is_rational_constant() else "rational")
    assert seen == {"zero", "constant", "rational"}


D10_TEXT = "((x+y+z+u+3)*(x^30*y^30*z^30*u^30+1))/((x-y+z-u+5)*(x^30*y^30*z^30*u^30+1))"


def test_the_heuristic_gcd_evaluates_within_its_budget(monkeypatch):
    """ROADMAP D10: the heuristic gcd of (f h, g h), h = x^30 y^30 z^30 u^30 + 1,
    evaluates at no point past XI_BITS and hands the gcd to the PRS, which
    gives the canonical text it would give on its own."""
    from skewform import cli

    bits, prs = [], []
    real_eval, real_prs = symexpr._packed_eval, symexpr._prs_gcd
    monkeypatch.setattr(symexpr, "_packed_eval", lambda p, at, mask, xi: bits.append(xi.bit_length()) or real_eval(p, at, mask, xi))
    monkeypatch.setattr(symexpr, "_prs_gcd", lambda f, g: prs.append(1) or real_prs(f, g))
    got = parse_expr(D10_TEXT)
    assert bits and max(bits) <= symexpr.XI_BITS and prs
    monkeypatch.undo()
    h = parse_expr("x^30*y^30*z^30*u^30 + 1").num
    f, g = (parse_expr(t).num * h for t in ("x + y + z + u + 3", "x - y + z - u + 5"))
    gcd = symexpr._prs_gcd(f, g)
    assert gcd == h
    want = Expr.make(symexpr._poly_divexact(f, gcd), symexpr._poly_divexact(g, gcd))
    assert got == want and str(got) == "(-u - x - y - z - 3)/(u - x + y - z - 5)"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["eval", D10_TEXT]) == 0
    assert out.getvalue() == str(want) + "\n"


def test_equal_atoms_are_one_object_while_alive():
    a, b = parse_expr("sin(x) + 2"), parse_expr("2 + sin(x)")
    (atom_a,) = a.num.atoms()
    (atom_b,) = b.num.atoms()
    assert atom_a is atom_b and atom_a.sort_key() is atom_b.sort_key()
    assert Poly.gen("x").ints.keys() == {Monomial.of("x")} and Monomial.of("x") is Monomial.of("x")
    # the table holds its atoms weakly: an atom no Expr holds any more goes
    text = "cos(x^5 - 887/3)"
    ref = weakref.ref(next(iter(parse_expr(text).num.atoms())))
    gc.collect()
    assert ref() is None
    assert str(next(iter(parse_expr(text).num.atoms()))) == text
