"""Differential test of the canonical form against sympy (test-only; skipped
when sympy is absent): random rational expressions reduce to the same
rational function, in lowest terms."""

import random
from fractions import Fraction

import pytest

from skewform.symexpr import Expr, parse_expr

sympy = pytest.importorskip("sympy")

NAMES = "xyz"
SYMBOLS = {v: sympy.Symbol(v) for v in NAMES}


def _leaf(rng):
    if rng.random() < 0.6:
        v, k = rng.choice(NAMES), rng.randint(-3, 3) or 1
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Expr.var(v) * k + q, SYMBOLS[v] * k + sympy.Rational(q.numerator, q.denominator)
    q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    return Expr.const(q), sympy.Rational(q.numerator, q.denominator)


def _random_pair(rng, depth):
    """The same random expression built as an Expr and as a sympy tree:
    sums, products, quotients and integer powers (negative ones too)."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    (a, sa), (b, sb) = _random_pair(rng, depth - 1), _random_pair(rng, depth - 1)
    roll = rng.random()
    if roll < 0.3:
        return a + b, sa + sb
    if roll < 0.45:
        return a - b, sa - sb
    if roll < 0.7:
        return a * b, sa * sb
    if roll < 0.9:
        return a / b, sa / sb
    n = rng.choice([-2, -1, 2, 3])
    return a ** n, sa ** n


def _sympy(e):
    return sympy.sympify(str(e).replace("^", "**"), locals=SYMBOLS)


def test_canonical_form_matches_sympy_cancel():
    rng = random.Random("sympy-differential")
    checked = 0
    while checked < 300:
        try:
            ours, theirs = _random_pair(rng, 3)
        except ZeroDivisionError:
            continue
        if theirs.has(sympy.zoo, sympy.nan):
            continue  # sympy folded a division by zero into a number
        checked += 1
        num, den = sympy.fraction(sympy.cancel(theirs))
        our_num, our_den = _sympy(Expr.make(ours.num)), _sympy(Expr.make(ours.den))
        assert sympy.expand(our_num * den - num * our_den) == 0, (str(ours), theirs)
        # equal fractions with denominators of one degree: ours is in lowest
        # terms too, since sympy's is
        assert sympy.Poly(den, *SYMBOLS.values()).total_degree() == ours.den.total_degree(), (str(ours), theirs)
        assert parse_expr(str(ours)) == ours


def test_dense_determinants_match_sympy():
    """det_expr of dense 6 x 6 to 8 x 8 matrices of linear entries in x, y
    equals sympy's determinant, expanded."""
    from skewform.duality import det_expr

    rng = random.Random("sympy-det")
    X, Y = SYMBOLS["x"], SYMBOLS["y"]
    for n in (6, 6, 7, 7, 8, 8):
        coeffs = [[[rng.randint(-3, 3) for _ in range(3)] for _ in range(n)] for _ in range(n)]
        ours = det_expr([[Expr.var("x") * a + Expr.var("y") * b + c for a, b, c in row] for row in coeffs])
        theirs = sympy.Matrix([[a * X + b * Y + c for a, b, c in row] for row in coeffs]).det(method="domain-ge")
        assert ours.den.is_const() and sympy.expand(_sympy(ours) - sympy.expand(theirs)) == 0, n
