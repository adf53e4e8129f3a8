import random
from fractions import Fraction
from itertools import combinations

import pytest

from skewform import exterior
from skewform.symexpr import Expr, parse_expr, sin
from skewform.exterior import (
    Chart,
    ChartError,
    DiffForm,
    FormError,
    NotClosedError,
    commutator1,
    ext_d,
    form_from_json,
    form_to_json,
    form_to_text,
    homotopy_antiderivative,
    is_closed,
    is_exact,
    parse_form,
    wedge,
)
from conftest import random_form, random_poly

ch2 = Chart(["x", "y"])
ch3 = Chart(["x", "y", "z"])
x, y = Expr.var("x"), Expr.var("y")


def dxy(name, chart=ch2):
    return DiffForm.basis(chart, name)


class TestChart:
    def test_duplicate_variables(self):
        with pytest.raises(ChartError):
            Chart(["x", "x"])

    def test_reserved_names(self):
        with pytest.raises(ChartError):
            Chart(["d"])
        with pytest.raises(ChartError):
            Chart(["sin", "x"])


class TestWedge:
    def test_repeated_differential_annihilates(self):
        assert wedge(dxy("x"), dxy("x")).is_zero_form()

    def test_transposition_sign(self):
        assert wedge(dxy("x"), dxy("y")) == parse_form("d[x]^d[y]", ch2)
        assert wedge(dxy("y"), dxy("x")) == -parse_form("d[x]^d[y]", ch2)

    def test_bilinear_example(self):
        a = dxy("y").scale(x)
        b = dxy("x").scale(y)
        assert wedge(a, b) == parse_form("-x*y * d[x]^d[y]", ch2)

    def test_chart_mismatch(self):
        with pytest.raises(ChartError):
            wedge(dxy("x"), DiffForm.basis(ch3, "x"))

    def test_graded_anticommutativity_randomized(self):
        rng = random.Random(21)
        for _ in range(30):
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            a = random_form(rng, ch3, p, max_total_deg=2)
            b = random_form(rng, ch3, q, max_total_deg=2)
            lhs = wedge(a, b)
            rhs = wedge(b, a)
            if (p * q) % 2:
                rhs = -rhs
            assert lhs == rhs

    def test_associativity_randomized(self):
        rng = random.Random(22)
        for _ in range(20):
            a = random_form(rng, ch3, 1, max_total_deg=2)
            b = random_form(rng, ch3, 1, max_total_deg=2)
            c = random_form(rng, ch3, 0, max_total_deg=2)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_bilinearity_randomized(self):
        rng = random.Random(23)
        for _ in range(20):
            a = random_form(rng, ch3, 1, max_total_deg=2)
            b = random_form(rng, ch3, 1, max_total_deg=2)
            c = random_form(rng, ch3, 1, max_total_deg=2)
            assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)

    def test_degree_above_dimension_is_zero(self):
        a = parse_form("d[x]^d[y]", ch2)
        b = dxy("x")
        assert wedge(a, b).is_zero_form()


class TestExtD:
    def test_gradient(self):
        assert ext_d(DiffForm.scalar(ch2, x ** 2)) == parse_form("2*x*d[x]", ch2)

    def test_one_form(self):
        assert ext_d(parse_form("x*d[y]", ch2)) == parse_form("d[x]^d[y]", ch2)

    def test_dd_zero_example(self):
        assert ext_d(ext_d(DiffForm.scalar(ch2, x * y))).is_zero_form()

    def test_dd_zero_randomized(self):
        rng = random.Random(24)
        for _ in range(60):
            dim = rng.randint(2, 4)
            chart = Chart([f"x{i}" for i in range(1, dim + 1)])
            p = rng.randint(0, min(3, dim))
            a = random_form(rng, chart, p)
            assert ext_d(ext_d(a)).is_zero_form()

    def test_leibniz_randomized(self):
        rng = random.Random(25)
        for _ in range(25):
            p = rng.randint(0, 2)
            a = random_form(rng, ch3, p, max_total_deg=2)
            b = random_form(rng, ch3, rng.randint(0, 2), max_total_deg=2)
            lhs = ext_d(wedge(a, b))
            rhs = wedge(ext_d(a), b) + (wedge(a, ext_d(b)) if p % 2 == 0 else -wedge(a, ext_d(b)))
            assert lhs == rhs

    def test_exact_implies_closed_randomized(self):
        rng = random.Random(26)
        for _ in range(40):
            a = random_form(rng, ch3, rng.randint(0, 2))
            assert is_closed(ext_d(a))


class TestClosedness:
    def test_closed_example(self):
        assert is_closed(parse_form("y*d[x] + x*d[y]", ch2))

    def test_unclosed_example(self):
        assert not is_closed(parse_form("-y*d[x] + x*d[y]", ch2))

    def test_top_degree_always_closed(self):
        rng = random.Random(27)
        a = random_form(rng, ch2, 2)
        assert is_closed(a)


class TestCommutator1:
    def test_closed_pair(self):
        K = commutator1(parse_form("y*d[x] + x*d[y]", ch2))
        assert K[0][1].is_zero_struct()

    def test_rotational_pair(self):
        K = commutator1(parse_form("-y*d[x] + x*d[y]", ch2))
        assert K[0][1] == Expr.const(2)

    def test_single_variable_component(self):
        a = DiffForm(ch3, 1, {(0,): parse_expr("x^3 + x")})
        K = commutator1(a)
        assert all(K[i][j].is_zero_struct() for i in range(3) for j in range(3))

    def test_degree_guard(self):
        with pytest.raises(FormError):
            commutator1(DiffForm.scalar(ch2, x))

    def test_matches_ext_d_coefficients_randomized(self):
        rng = random.Random(28)
        for _ in range(25):
            a = random_form(rng, ch3, 1)
            K = commutator1(a)
            d = ext_d(a)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert K[i][j] == d.coefficient((i, j))
            for i in range(3):
                for j in range(3):
                    assert K[i][j] == -K[j][i]


class TestHomotopy:
    def test_area_form(self):
        h = homotopy_antiderivative(parse_form("d[x]^d[y]", ch2))
        assert h == parse_form("(x/2)*d[y] - (y/2)*d[x]", ch2)
        assert ext_d(h) == parse_form("d[x]^d[y]", ch2)

    def test_line_integral(self):
        h = homotopy_antiderivative(parse_form("y*d[x] + x*d[y]", ch2))
        assert h.as_scalar() == x * y

    def test_not_closed_error(self):
        with pytest.raises(NotClosedError):
            homotopy_antiderivative(parse_form("-y*d[x] + x*d[y]", ch2))

    def test_nonpolynomial_rejected(self):
        a = DiffForm(ch2, 1, {(0,): 1 / (x + 5)})
        with pytest.raises(FormError):
            homotopy_antiderivative(a)

    def test_error_order_degree_polynomial_closure(self):
        with pytest.raises(FormError, match=r"^antiderivatives exist only for degree >= 1$"):
            homotopy_antiderivative(DiffForm.scalar(ch2, 1 / (x + 5)))
        not_closed = DiffForm(ch2, 1, {(0,): y / (x + 5)})
        with pytest.raises(FormError, match=r"^homotopy antiderivative needs polynomial coefficients$"):
            homotopy_antiderivative(not_closed)

    def test_inverse_randomized(self):
        rng = random.Random(29)
        for _ in range(40):
            dim = rng.randint(2, 4)
            chart = Chart([f"x{i}" for i in range(1, dim + 1)])
            beta = random_form(rng, chart, rng.randint(0, min(2, dim - 1)))
            a = ext_d(beta)
            assert ext_d(homotopy_antiderivative(a)) == a

    def test_nonzero_base_point(self):
        a = parse_form("d[x]^d[y]", ch2)
        h = homotopy_antiderivative(a, base=[1, 2])
        assert ext_d(h) == a


class TestIsExact:
    def test_constructed_exact(self):
        rng = random.Random(30)
        beta = random_form(rng, ch3, 1)
        witness = is_exact(ext_d(beta))
        assert witness is not None and ext_d(witness) == ext_d(beta)

    def test_unclosed_returns_none(self):
        assert is_exact(parse_form("-y*d[x] + x*d[y]", ch2)) is None

    def test_degree_zero_returns_none(self):
        assert is_exact(DiffForm.scalar(ch2, Expr.const(5))) is None

    @pytest.mark.parametrize("text, exact", [("y*d[x] + x*d[y]", True), ("-y*d[x] + x*d[y]", False)])
    def test_closure_tested_once(self, text, exact, monkeypatch):
        calls = []
        real_is_closed = exterior.is_closed

        def counting_is_closed(a, seed=0):
            calls.append(a)
            return real_is_closed(a, seed=seed)

        monkeypatch.setattr(exterior, "is_closed", counting_is_closed)
        assert (is_exact(parse_form(text, ch2)) is not None) == exact
        assert len(calls) == 1


class TestSerialization:
    def test_text_roundtrip_randomized(self):
        rng = random.Random(31)
        for _ in range(30):
            a = random_form(rng, ch3, rng.randint(0, 3))
            assert parse_form(form_to_text(a), ch3) == a

    def test_json_roundtrip_randomized(self):
        rng = random.Random(32)
        for _ in range(20):
            a = random_form(rng, ch3, rng.randint(0, 3))
            assert form_from_json(form_to_json(a)) == a

    def test_json_shape(self):
        doc = form_to_json(parse_form("p*d[q]", Chart(["q", "p"])))
        assert doc["schema"] == "skewform/form@1"
        assert doc["terms"] == [{"indices": [1], "coeff": "p"}]

    def test_function_coefficients_roundtrip(self):
        a = DiffForm(ch2, 1, {(0,): sin(x * y)})
        assert parse_form(form_to_text(a), ch2) == a

    def test_zero_form_text(self):
        assert form_to_text(DiffForm.zero(ch2, 1)) == "0"
