"""Exterior algebra over a coordinate chart.

DiffForm stores a degree-p form as a map from strictly increasing index
tuples into nonzero coefficient Exprs, so equality and zero testing reduce
to coefficientwise checks.  The homotopy antiderivative realizes closed
polynomial forms as differentials on a star-shaped domain (radial
contraction integrated exactly in an auxiliary parameter).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .symexpr import (
    Expr,
    ExprError,
    ExprSyntaxError,
    FUNCTIONS,
    PoleError,
    Poly,
    ZERO,
    _POLY_ONE,
    _join_signed,
    _make_atom_expr,
    _polynomial_expr,
    _require_power_budget,
    all_zero,
    integrate_unit_interval,
    parse_expr,
    tokenize,
)


class ChartError(ExprError):
    pass


class FormError(ExprError):
    pass


class NotClosedError(FormError):
    """Raised when an antiderivative of a non-closed form is requested."""


def _valid_identifier(name):
    if not name or not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(c.isalnum() or c == "_" for c in name)


class Chart:
    """Ordered list of distinct coordinate variables; the order fixes the
    basis-index ordering and the orientation of the volume form."""

    __slots__ = ("variables", "index")

    def __init__(self, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ChartError(f"chart variables must be distinct: {variables}")
        for v in variables:
            if not _valid_identifier(v):
                raise ChartError(f"invalid chart variable name {v!r}")
            if v == "d" or v in FUNCTIONS:
                raise ChartError(f"variable name {v!r} is reserved")
        if not variables:
            raise ChartError("chart needs at least one variable")
        self.variables = variables
        self.index = {v: i for i, v in enumerate(variables)}

    @property
    def dim(self):
        return len(self.variables)

    def var(self, i):
        return Expr.var(self.variables[i])

    def __eq__(self, other):
        return isinstance(other, Chart) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"Chart({' '.join(self.variables)})"


def _require_same_chart(a, b):
    if a.chart != b.chart:
        raise ChartError(f"chart mismatch: {a.chart} vs {b.chart}")


class DiffForm:
    """Skew-symmetric differential form with canonical increasing-index basis."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart, degree, terms):
        if degree < 0:
            raise FormError("negative form degree")
        clean = {}
        for idx, coeff in terms.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise FormError(f"index tuple {idx} does not match degree {degree}")
            if any(i < 0 or i >= chart.dim for i in idx):
                raise FormError(f"index out of range for {chart}: {idx}")
            if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                raise FormError(f"indices must be strictly increasing: {idx}")
            if not coeff.is_zero_struct():
                clean[idx] = coeff
        if degree > chart.dim:
            clean = {}
        self.chart = chart
        self.degree = degree
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(chart, degree=0):
        return DiffForm(chart, degree, {})

    @staticmethod
    def scalar(chart, value):
        e = value if isinstance(value, Expr) else Expr.const(value)
        return DiffForm(chart, 0, {(): e})

    @staticmethod
    def basis(chart, name):
        """The coordinate differential d[name] as a 1-form."""
        if name not in chart.index:
            raise ChartError(f"{name!r} is not a variable of {chart}")
        from .symexpr import ONE

        return DiffForm(chart, 1, {(chart.index[name],): ONE})

    # -- structure -----------------------------------------------------------

    def is_zero_form(self):
        return not self.terms

    def coefficient(self, indices):
        return self.terms.get(tuple(indices), ZERO)

    def as_scalar(self):
        if self.degree != 0:
            raise FormError(f"degree-{self.degree} form is not a scalar")
        return self.terms.get((), ZERO)

    def __eq__(self, other):
        """Structural equality; zero forms compare equal across degrees
        (the empty form is degree-ambiguous, e.g. after serialization)."""
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.chart != other.chart:
            return False
        if not self.terms and not other.terms:
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        if not self.terms:
            return hash((self.chart, "zero"))
        return hash((self.chart, self.degree, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        _require_same_chart(self, other)
        if self.is_zero_form() and self.degree != other.degree:
            return other
        if other.is_zero_form() and self.degree != other.degree:
            return self
        if self.degree != other.degree:
            raise FormError(f"cannot add degree {self.degree} and {other.degree} forms")
        res = dict(self.terms)
        for idx, c in other.terms.items():
            res[idx] = res.get(idx, ZERO) + c
        return DiffForm(self.chart, self.degree, res)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiffForm(self.chart, self.degree, {i: -c for i, c in self.terms.items()})

    def scale(self, factor):
        e = factor if isinstance(factor, Expr) else Expr.const(factor)
        return DiffForm(self.chart, self.degree, {i: c * e for i, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, DiffForm):
            return wedge(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __xor__(self, other):
        return wedge(self, other)

    def subst(self, mapping):
        return DiffForm(self.chart, self.degree, {i: c.subst(mapping) for i, c in self.terms.items()})

    def is_polynomial(self):
        return all(c.is_polynomial_in(self.chart.variables) for c in self.terms.values())

    # -- presentation ------------------------------------------------------------

    def __str__(self):
        return form_to_text(self)

    def __repr__(self):
        return f"DiffForm({self})"


def _merge_indices(a, b):
    """Merge two strictly increasing tuples; returns (sign, merged) with
    sign 0 on a repeated index."""
    sign = 1
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
            if (len(a) - i) % 2:
                sign = -sign
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def wedge(a, b):
    """Exterior product; repeated differentials annihilate and transpositions
    flip sign, with the result folded onto increasing index tuples."""
    _require_same_chart(a, b)
    res = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            sign, idx = _merge_indices(ia, ib)
            if sign == 0:
                continue
            c = ca * cb
            if sign < 0:
                c = -c
            res[idx] = res.get(idx, ZERO) + c
    return DiffForm(a.chart, a.degree + b.degree, res)


def ext_d(a):
    """Exterior derivative: termwise coefficient differentials wedged onto
    the basis, canonicalized."""
    chart = a.chart
    res = {}
    for idx, coeff in a.terms.items():
        for k, name in enumerate(chart.variables):
            sign, new_idx = _merge_indices((k,), idx)
            if sign == 0:
                continue
            dc = coeff.diff(name)
            if dc.is_zero_struct():
                continue
            res[new_idx] = res.get(new_idx, ZERO) + (dc if sign > 0 else -dc)
    return DiffForm(chart, a.degree + 1, res)


def is_closed(a, seed=0):
    """True iff every coefficient of ext_d(a) is (provably or probably) zero."""
    return all_zero(ext_d(a).terms.values(), seed).value


def commutator1(a):
    """Antisymmetric coefficient matrix K[i][j] = da_j/dx^i - da_i/dx^j of a
    1-form, read off ext_d(a); zero exactly when the form is closed."""
    if a.degree != 1:
        raise FormError(f"commutator of a degree-{a.degree} form (expected degree 1)")
    return _antisymmetric_matrix(ext_d(a))


def _antisymmetric_matrix(b):
    """The matrix K of a 2-form b: K[i][j] is the coefficient of
    dx^i ^ dx^j for i < j, K[j][i] = -K[i][j], and the diagonal is zero."""
    n = b.chart.dim
    K = [[ZERO] * n for _ in range(n)]
    for (i, j), c in b.terms.items():
        K[i][j] = c
        K[j][i] = -c
    return K


def homotopy_antiderivative(a, base=None, seed=0):
    """A form b with ext_d(b) = a, for a closed polynomial form a, on the
    star-shaped domain around `base` (default: origin).

    Radial-contraction construction: each term is pulled along the segment
    from the base point and the line integral is done exactly in an
    auxiliary parameter, so the result is again polynomial; d of the result
    is verified against the input before returning.
    """
    _require_antiderivable(a)
    if not is_closed(a, seed=seed):
        raise NotClosedError(f"form is not closed: {a}")
    return _radial_antiderivative(a, base)


def _require_antiderivable(a):
    if a.degree < 1:
        raise FormError("antiderivatives exist only for degree >= 1")
    if not a.is_polynomial():
        raise FormError("homotopy antiderivative needs polynomial coefficients")


def _radial_antiderivative(a, base=None):
    """`homotopy_antiderivative` of a polynomial form of degree >= 1 that
    is known to be closed."""
    p = a.degree
    chart = a.chart
    if base is None:
        base = [Fraction(0)] * chart.dim
    base = [Fraction(b) for b in base]
    if len(base) != chart.dim:
        raise FormError(f"base point needs {chart.dim} coordinates, got {len(base)}")

    t = "_t"
    while any(t in c.variables() for c in a.terms.values()):
        t = "_" + t
    te = Expr.var(t)
    radial = {
        name: Expr.const(base[i]) + te * (Expr.var(name) - base[i])
        for i, name in enumerate(chart.variables)
    }

    res = {}
    for idx, coeff in a.terms.items():
        pulled = coeff.subst(radial) * te ** (p - 1)
        for k, i in enumerate(idx):
            integrand = pulled * (Expr.var(chart.variables[i]) - base[i])
            val = integrate_unit_interval(integrand, t)
            if k % 2:
                val = -val
            rest = idx[:k] + idx[k + 1 :]
            res[rest] = res.get(rest, ZERO) + val
    out = DiffForm(chart, p - 1, res)
    if ext_d(out) != a:
        raise FormError("internal error: homotopy antiderivative failed to invert d")
    return out


def is_exact(a, base=None, seed=0):
    """Antiderivative when a is a closed polynomial form of degree >= 1;
    None otherwise (degree 0 has no lower-degree witness)."""
    if a.degree < 1:
        return None
    if not a.is_polynomial():
        return None
    try:
        return homotopy_antiderivative(a, base=base, seed=seed)
    except NotClosedError:
        return None


# -- text and JSON serialization ---------------------------------------------------


def _coeff_text(e):
    text = str(e)
    simple = len(e.num.ints) <= 1 and e.den.is_const()
    return text if simple else f"({text})"


def form_to_text(a):
    """Round-trippable text: `coeff * d[x] ^ d[y] + ...` in index order."""
    if not a.terms:
        return "0"
    chunks = []
    for idx in sorted(a.terms):
        coeff = a.terms[idx]
        basis = " ^ ".join(f"d[{a.chart.variables[i]}]" for i in idx)
        if not basis:
            body = _coeff_text(coeff)
            negative = body.startswith("-")
            chunks.append(("-" if negative else "+", body.lstrip("-")))
            continue
        if coeff == Expr.const(1):
            chunks.append(("+", basis))
        elif coeff == Expr.const(-1):
            chunks.append(("-", basis))
        else:
            body = _coeff_text(coeff)
            if body.startswith("-") and not body.startswith("(-"):
                chunks.append(("-", f"{body[1:]} * {basis}"))
            else:
                chunks.append(("+", f"{body} * {basis}"))
    return _join_signed(chunks)


FORM_SCHEMA = "skewform/form@1"


def form_to_json(a):
    return {
        "schema": FORM_SCHEMA,
        "chart": list(a.chart.variables),
        "degree": a.degree,
        "terms": [
            {"indices": [i + 1 for i in idx], "coeff": str(a.terms[idx])}
            for idx in sorted(a.terms)
        ],
    }


def form_from_json(doc, chart=None):
    if doc.get("schema") != FORM_SCHEMA:
        raise FormError(f"unsupported form schema: {doc.get('schema')!r}")
    chart = chart or Chart(doc["chart"])
    if list(chart.variables) != list(doc["chart"]):
        raise ChartError("chart in document does not match the supplied chart")
    terms = {}
    for item in doc["terms"]:
        idx = tuple(i - 1 for i in item["indices"])
        terms[idx] = parse_expr(item["coeff"])
    return DiffForm(chart, doc["degree"], terms)


MAX_NESTING = 100


class _Parser:
    """The one expression parser, typed over the scalar token stream.

    Over a chart, values are scalars or DiffForms, with `d[x]` introducing
    basis differentials.  With no chart (`symexpr.parse_expr`) every value
    is a scalar, `d[` is a syntax error and a bare `d` is an ordinary
    identifier.  A scalar subtree is a Poly until it meets an atom, a
    divisor that is not constant or a differential, and an Expr from there
    on: Poly arithmetic is the arithmetic that Expr runs on polynomials, so
    both give the same terms in the same order.  Parentheses, function
    calls, unary minus and `^` each nest one level deeper; past MAX_NESTING
    levels the input is rejected before the recursion can exhaust the
    interpreter stack.
    """

    def __init__(self, tokens, chart, variables=None):
        self.tokens = tokens
        self.i = 0
        self.chart = chart
        self.variables = None if variables is None else set(variables)
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {t.value!r}", t.pos)
        return t

    def descend(self, t):
        """Enter one nesting level at token t; the caller leaves it with
        `self.depth -= 1` once the nested parse returns."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", t.pos)

    def parse(self):
        v = _scalar(self.parse_sum())
        end = self.next()
        if end.kind != "end":
            raise ExprSyntaxError(f"trailing input {end.value!r}", end.pos)
        if self.chart is not None and isinstance(v, Expr):
            return DiffForm.scalar(self.chart, v)
        return v

    def parse_sum(self):
        v = self.parse_product()
        while self.peek().kind in ("+", "-"):
            t = self.next()
            rhs = self.parse_product()
            v = self._combine_additive(v, rhs, t)
        return v

    def _combine_additive(self, a, b, t):
        neg = t.kind == "-"
        if not (isinstance(a, Poly) and isinstance(b, Poly)):
            a, b = _scalar(a), _scalar(b)
        if not (isinstance(a, DiffForm) or isinstance(b, DiffForm)):
            return a - b if neg else a + b
        a = DiffForm.scalar(self.chart, a) if isinstance(a, Expr) else a
        b = DiffForm.scalar(self.chart, b) if isinstance(b, Expr) else b
        try:
            return a - b if neg else a + b
        except FormError as exc:
            raise ExprSyntaxError(str(exc), t.pos) from exc

    def parse_product(self):
        v = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            t = self.next()
            rhs = self.parse_unary()
            if isinstance(v, Poly) and isinstance(rhs, Poly):
                if t.kind == "*":
                    v = _printable(v * rhs, "product", t)
                    continue
                if rhs.is_const() and rhs.ints:
                    v = _printable(v.scale(1 / rhs.const_value()), "quotient", t)
                    continue
            v, rhs = _scalar(v), _scalar(rhs)
            if t.kind == "*":
                if isinstance(v, Expr) and isinstance(rhs, Expr):
                    v = _printable(v * rhs, "product", t)
                elif isinstance(v, Expr):
                    v = rhs.scale(v)
                elif isinstance(rhs, Expr):
                    v = v.scale(rhs)
                else:
                    v = wedge(v, rhs)
            else:
                if not isinstance(rhs, Expr):
                    raise ExprSyntaxError("cannot divide by a differential form", t.pos)
                if rhs.is_zero_struct():
                    raise ExprSyntaxError("division by zero", t.pos)
                if isinstance(v, Expr):
                    v = _printable(v / rhs, "quotient", t)
                else:
                    v = v.scale(Expr.const(1) / rhs)
        return v

    def parse_unary(self):
        if self.peek().kind == "-":
            self.descend(self.next())
            v = self.parse_unary()
            self.depth -= 1
            return -v
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        if self.peek().kind == "^":
            t = self.next()
            self.descend(t)
            rhs = self.parse_unary()
            self.depth -= 1
            if isinstance(base, DiffForm) or isinstance(rhs, DiffForm):
                if not (isinstance(base, DiffForm) and isinstance(rhs, DiffForm)):
                    raise ExprSyntaxError("'^' joins two differentials (wedge) or a scalar and an integer", t.pos)
                return wedge(base, rhs)
            rhs, e = _scalar(rhs), _scalar(base)
            if not rhs.is_integer_constant():
                raise ExprSyntaxError("exponent must be an integer constant", t.pos)
            n = int(rhs.as_fraction())
            if n < 0 and e.is_zero_struct():
                raise ExprSyntaxError("zero to a negative power", t.pos)
            if e.is_rational_constant():
                # refused before it is built, as it could not be printed (no limit before Python 3.10.7)
                q, limit = e.as_fraction(), getattr(sys, "get_int_max_str_digits", lambda: 0)()
                digits = math.log10(max(abs(q.numerator), q.denominator))  # per unit of |n|
                if limit and digits and abs(n) > limit / digits:
                    raise ExprSyntaxError(f"constant power has more than {limit} digits", t.pos)
            try:
                if isinstance(base, Poly) and n >= 0:
                    _require_power_budget(n, base, _POLY_ONE)  # Expr's budget, which counts the denominator 1
                    return base ** n
                return e ** n
            except ExprError as exc:  # past the power budget, refused before it is built
                raise ExprSyntaxError(str(exc), t.pos) from exc
        return base

    def parse_primary(self):
        t = self.next()
        if t.kind == "number":
            try:
                value = Fraction(t.value) if "." in t.value else int(t.value)
            except ValueError as exc:  # past the interpreter's int-to-str digit limit
                raise ExprSyntaxError(f"number literal has more than {sys.get_int_max_str_digits()} digits", t.pos) from exc
            return Poly.const(value)
        if t.kind == "(":
            self.descend(t)
            v = self.parse_sum()
            self.depth -= 1
            self.expect(")")
            return v
        if t.kind == "ident":
            if t.value == "d" and self.chart is not None and self.peek().kind == "[":
                self.next()
                name_t = self.expect("ident")
                self.expect("]")
                if name_t.value not in self.chart.index:
                    raise ExprSyntaxError(
                        f"d[{name_t.value}]: {name_t.value!r} is not a chart variable", name_t.pos
                    )
                return DiffForm.basis(self.chart, name_t.value)
            if self.peek().kind == "(":
                if t.value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {t.value!r}", t.pos)
                self.descend(self.next())
                arg = self.parse_sum()
                self.depth -= 1
                self.expect(")")
                if isinstance(arg, DiffForm):
                    raise ExprSyntaxError(f"{t.value} expects a scalar argument", t.pos)
                try:
                    return _make_atom_expr(t.value, _scalar(arg))
                except PoleError as exc:  # ln of a nonpositive constant
                    raise ExprSyntaxError(str(exc), t.pos) from exc
            name = t.value
            if self.variables is not None and name not in self.variables:
                hint = ""
                if len(name) > 1 and name.startswith("d") and name[1:] in self.variables:
                    hint = f"; differentials are written d[{name[1:]}]"
                raise ExprSyntaxError(f"{name!r} is not a declared scalar{hint}", t.pos)
            return Poly.gen(name)
        raise ExprSyntaxError(f"unexpected token {t.value!r}", t.pos)


def _scalar(v):
    """The Expr of a Poly value; an Expr or a DiffForm as it is."""
    return _polynomial_expr(v) if isinstance(v, Poly) else v


def _printable(v, what, t):
    """v, unless it is a rational constant past the interpreter's int-to-str
    digit limit: a product or quotient of printable constants has at most
    twice their digits, so it is built first and refused at its operator."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    e = _scalar(v)
    if limit and e.is_rational_constant():
        q = e.as_fraction()
        if math.log10(max(abs(q.numerator), q.denominator)) >= limit:
            raise ExprSyntaxError(f"constant {what} has more than {limit} digits", t.pos)
    return v


def parse_form(text, chart, variables=None):
    """Parse `coeff * d[x] ^ d[y] + ...` text into a DiffForm over chart.

    `variables`, when given, restricts which identifiers may appear in the
    scalar coefficients (chart variables are always allowed).
    """
    allowed = None
    if variables is not None:
        allowed = set(variables) | set(chart.variables)
    return _Parser(tokenize(text), chart, allowed).parse()
