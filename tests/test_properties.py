"""Property and differential tests of the packed integer kernel (the
heuristic gcd with its cofactors, and exact division) and of the scan's
exact root isolation.

Random polynomials have 1-8 generators, one of them an atom, and exponents
up to 40, so the packed fields run from one bit to six.  The gcd is
checked against its defining identities and against sympy's; the division
against the leading-term division over Fractions that it replaced.

The heuristic gcd's integers grow with the product, over the generators
both operands share, of one plus the smaller degree (each level
evaluates one generator at a point about the size of the level below), so
gcd examples past a budget on that product are discarded, and so are those
whose heuristic gcd would pass its own budget, XI_BITS.

The scan's isolation takes integer polynomials of degree at most 8,
products of powers of linear factors and of quadratics irreducible over
Q, and its smallest root in [0, 1) is checked against sympy's.

Geometry: on random symmetric polynomial connections in dims 2-4 the first
Bianchi check holds, and so does every cyclic sum of the full curvature
tensor, over all index orders; on random polynomial forms of degree 0-2,
d(d w) = 0.

The parser folds atom-free subtrees as Polys: on random atom-free
expression trees it builds the Expr that Expr arithmetic builds, with the
same terms in the same order.  `_poly_diff_expr` and `_poly_subst` give the
Expr, with the same text, of the Expr loops they replace, kept below as
oracles.  With atoms, printing and parsing again gives the same Expr.

A Poly is a positive Fraction content times primitive ints.  Against an
oracle of Fraction dicts, +, -, negation, *, scale, **, exact division,
the cofactors and Expr.make give the same polynomials, with the same sort
keys, hashes, text and compile_numeric float bits, and every result keeps
the representation's invariants.

Term order is free: a Poly rebuilt with its `terms` dict in another order
keeps its `==`, hash, sort key, text and float values, and the minor table,
`diff`, `subst` and the gcd give the same results on it.  The pullback
commutes with d and with the wedge product, and the double Hodge star is
(-1)^(p(n-p)) sign(det g) on the Euclidean and Minkowski metrics.
"""

import math
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from skewform.duality import Metric, det_expr, hodge_star, minor_table  # noqa: E402
from skewform.exterior import Chart, DiffForm, ext_d, wedge  # noqa: E402
from skewform.manifold import Connection, bianchi_first_check, riemann  # noqa: E402
from skewform.relations import Pseudostructure, RelationError, _first_root, pullback  # noqa: E402
from skewform.symexpr import (  # noqa: E402
    ONE,
    ZERO,
    Expr,
    ExprError,
    Monomial,
    NotExactDivision,
    Poly,
    _MATH_FN,
    _HeuristicFailed,
    _PackedRing,
    _PastBudget,
    _atom_derivative,
    _gcd_normalize,
    _gcdheu,
    _make_atom_expr,
    _poly_diff_expr,
    _poly_divexact,
    _poly_subst,
    compile_numeric,
    parse_expr,
    poly_cofactors,
)

ATOM = next(iter(parse_expr("sin(x + 1)").num.generators()))
GENERATORS = ["x", "y", "z", "u", "v", "w", "t", ATOM]
# derandomized, and no example database written to the working tree
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def rings(draw):
    """1-8 generators, the atom always among them."""
    names = draw(st.lists(st.sampled_from(GENERATORS[:-1]), max_size=7, unique=True))
    return names + [ATOM]


@st.composite
def polys(draw, gens, max_terms=3, max_exp=40):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        powers = draw(st.lists(st.tuples(st.sampled_from(gens), st.integers(1, max_exp)), max_size=3))
        m = Monomial.unit()
        for g, e in dict(powers).items():
            m = m.mul(Monomial.of(g, e))
        c = Fraction(draw(st.integers(1, 30)) * draw(st.sampled_from([-1, 1])), draw(st.integers(1, 6)))
        terms[m] = terms.get(m, 0) + c
    p = Poly(terms)
    return p if p.terms else Poly.one()


def _reference_divexact(f, g):
    """Leading-term division over Fractions, the largest remainder monomial
    searched for at every step: the division the packed one replaced."""
    gm, gc = g.leading()
    quotient, rem = {}, dict(f.terms)
    while rem:
        rm = max(rem)
        qm = rm.divide(gm)
        if qm is None:
            raise NotExactDivision("inexact")
        qc = rem[rm] / gc
        quotient[qm] = qc
        for m, c in g.terms.items():
            key = qm.mul(m)
            s = rem.get(key, 0) - qc * c
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return Poly(quotient)


@st.composite
def triples(draw):
    gens = draw(rings())
    return tuple(draw(polys(gens)) for _ in range(3))


def _degrees(p):
    out = {}
    for m in p.terms:
        for g, e in m.items:
            out[g] = max(out.get(g, 0), e)
    return out


def _gcd_operands(fgh):
    """f*h and g*h, within the heuristic gcd's budget: past XI_BITS the PRS
    takes the gcd, and it has no bound of its own."""
    f, g, h = fgh
    F, G = f * h, g * h
    fd, gd = _degrees(F), _degrees(G)
    assume(math.prod(1 + min(e, gd[x]) for x, e in fd.items() if x in gd) <= 5000)
    ring = _PackedRing([(F, G)])
    (_, (fp,)), (_, (gp,)) = ring.pack((F,)), ring.pack((G,))
    try:
        _gcdheu(fp, gp, ring)
    except _PastBudget:
        assume(False)
    except _HeuristicFailed:
        pass
    return F, G


@SETTINGS
@given(triples())
def test_cofactors_multiply_back_and_are_monic(fgh):
    F, G = _gcd_operands(fgh)
    h = fgh[2]
    gcd, fq, gq = poly_cofactors(F, G)
    assert gcd * fq == F and gcd * gq == G
    assert gcd.leading()[1] == 1
    _poly_divexact(gcd, _gcd_normalize(h))  # h divides the gcd


@settings(SETTINGS, max_examples=20)
@given(triples())
def test_gcd_matches_sympy(fgh):
    sympy = pytest.importorskip("sympy")
    F, G = _gcd_operands(fgh)
    symbols = [sympy.Symbol(g if isinstance(g, str) else "atom") for g in GENERATORS]

    def to_sympy(p):
        terms = {tuple(dict(m.items).get(g, 0) for g in GENERATORS): sympy.QQ(c.numerator, c.denominator) for m, c in p.terms.items()}
        return sympy.Poly.from_dict(terms, *symbols, domain=sympy.QQ)

    terms = {}
    for exps, c in to_sympy(F).gcd(to_sympy(G)).terms():
        m = Monomial.unit()
        for g, e in zip(GENERATORS, exps):
            if e:
                m = m.mul(Monomial.of(g, e))
        terms[m] = Fraction(int(c.numerator), int(c.denominator))
    assert poly_cofactors(F, G)[0] == _gcd_normalize(Poly(terms))


@SETTINGS
@given(triples())
def test_divexact_inverts_multiplication(fgh):
    q, g, _ = fgh
    assert _poly_divexact(q * g, g) == q
    if not g.is_const():
        with pytest.raises(NotExactDivision):
            _poly_divexact(q * g + Poly.one(), g)


@SETTINGS
@given(triples())
def test_divexact_matches_fraction_division(fgh):
    """Unrelated operands: most divisions are inexact, and their quotients
    run past the bounds of the ring the operands pack into."""
    f, g, _ = fgh
    if g.is_const():
        return
    try:
        want = _reference_divexact(f, g)
    except NotExactDivision:
        with pytest.raises(NotExactDivision):
            _poly_divexact(f, g)
    else:
        assert _poly_divexact(f, g) == want


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def root_polys(draw):
    """Coefficients, from the constant term up, of a product of factors
    (a t - b)^k, roots b / a around [0, 1], and irreducible quadratics."""
    u = [draw(st.sampled_from([-3, -1, 1, 2]))]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            a, b = draw(st.integers(1, 12)), draw(st.integers(-2, 14))
            factor = [-b, a]
            for _ in range(draw(st.integers(1, 3)) - 1):
                factor = _int_mul(factor, [-b, a])
        else:
            a, b, c = draw(st.integers(1, 9)), draw(st.integers(-12, 12)), draw(st.integers(-9, 9))
            disc = b * b - 4 * a * c
            assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
            factor = [c, b, a]
        u = _int_mul(u, factor)
    assume(len(u) <= 9)
    return u


@settings(SETTINGS, max_examples=100)
@given(root_polys())
def test_first_root_matches_sympy(u):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    roots = []
    for (lo, hi), _ in sympy.Poly(list(reversed(u)), t).intervals(eps=Fraction(1, 10 ** 14)):
        r = (Fraction(int(lo.p), int(lo.q)) + Fraction(int(hi.p), int(hi.q))) / 2
        if 0 <= r < 1:
            roots.append(r)
    found = _first_root(u, lambda s: 0.0, 1.0)  # (s, 0.0), s = -5 + 10t
    if not roots:
        assert found is None
    else:
        assert found is not None and abs((found[0] + 5) / 10 - float(min(roots))) <= 1e-12


CHARTS = {n: Chart(["x", "y", "z", "w"][:n]) for n in (2, 3, 4)}


@st.composite
def polynomials(draw, names, max_terms=2, max_exp=2):
    """A polynomial Expr in the chart's variables, possibly zero."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = Monomial.unit()
        for v in names:
            e = draw(st.integers(0, max_exp))
            if e:
                m = m.mul(Monomial.of(v, e))
        terms[m] = terms.get(m, 0) + Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    return Expr.make(Poly({m: c for m, c in terms.items() if c}))


@st.composite
def symmetric_connections(draw):
    chart = CHARTS[draw(st.integers(2, 4))]
    n = chart.dim
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for a in range(n):
            for b in range(a, n):
                gamma[r][a][b] = gamma[r][b][a] = draw(polynomials(chart.variables))
    return Connection(chart, gamma)


@SETTINGS
@given(symmetric_connections())
def test_bianchi_holds_with_every_cyclic_sum(c):
    R = riemann(c)
    sums = [
        R[r][s][mu][nu] + R[r][mu][nu][s] + R[r][nu][s][mu]
        for r, s, mu, nu in product(range(c.chart.dim), repeat=4)
    ]
    assert all(e.is_zero_struct() for e in sums)
    assert bianchi_first_check(c) is True


@st.composite
def polynomial_forms(draw):
    chart = CHARTS[draw(st.integers(2, 4))]
    degree = draw(st.integers(0, 2))
    basis = combinations(range(chart.dim), degree)
    return DiffForm(chart, degree, {idx: draw(polynomials(chart.variables, max_terms=3, max_exp=3)) for idx in basis})


@SETTINGS
@given(polynomial_forms())
def test_d_of_d_is_zero(w):
    assert ext_d(ext_d(w)).is_zero_form()


# -- the parser's Poly folding, and the one-dict calculus paths ----------------

LITERALS = ["0", "1", "2", "7", "12", "0.5", ".25", "3.", "1.75"]


@st.composite
def trees(draw, depth=4, atoms=False):
    """(text, Expr built by Expr arithmetic) of a random expression tree:
    literals and x, y, z under + - * / ^ and unary minus, and with `atoms`
    sin, cos, exp and ln.  Every node is parenthesized."""
    kinds = ["leaf", "leaf", "neg", "+", "-", "*", "/", "^"] + (["fn"] if atoms else [])
    kind = draw(st.sampled_from(kinds)) if depth else "leaf"
    if kind == "leaf":
        if draw(st.booleans()):
            name = draw(st.sampled_from(["x", "y", "z"]))
            return name, Expr.var(name)
        text = draw(st.sampled_from(LITERALS))
        return text, Expr.const(Fraction(text))
    a_text, a = draw(trees(depth - 1, atoms))
    if kind == "neg":
        return f"(-{a_text})", -a
    if kind == "^":
        n = draw(st.integers(-2 if not a.is_zero_struct() else 0, 3))
        return f"({a_text})^{n}", a ** n
    if kind == "fn":
        fn = draw(st.sampled_from(["sin", "cos", "exp", "ln"]))
        assume(not (fn == "ln" and a.is_rational_constant() and a.as_fraction() <= 0))
        return f"{fn}({a_text})", _make_atom_expr(fn, a)
    b_text, b = draw(trees(depth - 1, atoms))
    if kind == "/":
        assume(not b.is_zero_struct())
        return f"({a_text} / {b_text})", a / b
    return f"({a_text} {kind} {b_text})", {"+": a + b, "-": a - b, "*": a * b}[kind]


def _same_terms(got, want):
    assert got == want
    assert list(got.num.terms.items()) == list(want.num.terms.items())
    assert list(got.den.terms.items()) == list(want.den.terms.items())


def _same_value(got, want):
    assert got == want and str(got) == str(want)


@settings(SETTINGS, max_examples=60)
@given(trees())
def test_parser_folds_atom_free_trees_as_expr_arithmetic_does(tree):
    text, want = tree
    _same_terms(parse_expr(text), want)


@SETTINGS
@given(trees(atoms=True))
def test_print_then_parse_is_the_identity(tree):
    _, e = tree
    again = parse_expr(str(e))
    assert again == e and str(again) == str(e)


def _diff_oracle(p, v):
    """`_poly_diff_expr` as an Expr loop: each term's derivative added to a
    running Expr sum."""
    total = ZERO
    for m, c in p.terms.items():
        for g, e in m.items:
            if isinstance(g, str):
                if g != v:
                    continue
                dgen = ONE
            else:
                darg = g.arg.diff(v)
                if darg.is_zero_struct():
                    continue
                dgen = _atom_derivative(g) * darg
            total = total + Expr.make(Poly({m.divide(Monomial.of(g)): c * e})) * dgen
    return total


def _subst_oracle(p, mapping):
    """`_poly_subst` as an Expr loop: each term a product of Expr powers,
    added to a running Expr sum."""
    total = ZERO
    for m, c in p.terms.items():
        term = Expr.const(c)
        for g, e in m.items:
            if isinstance(g, str):
                gen_e = mapping.get(g, Expr.var(g))
            else:
                gen_e = _make_atom_expr(g.fn, g.arg.subst(mapping))
            term = term * gen_e ** e
        total = total + term
    return total


@st.composite
def diff_cases(draw):
    """A Poly in x, y, z, atom-free or with the atom, and a variable."""
    gens = ["x", "y", "z"] + ([ATOM] if draw(st.booleans()) else [])
    return draw(polys(gens, max_terms=6, max_exp=6)), draw(st.sampled_from(["x", "y", "z"]))


@SETTINGS
@given(diff_cases())
def test_diff_matches_the_expr_loop(case):
    p, v = case
    _same_value(_poly_diff_expr(p, v), _diff_oracle(p, v))


@st.composite
def subst_cases(draw):
    """A Poly in x, y, z (with the atom sin(x + 1) or not) and a mapping of
    some of them to polynomials in u, v, or now and then to a quotient."""
    gens = ["x", "y", "z"] + ([ATOM] if draw(st.booleans()) else [])
    p = draw(polys(gens, max_terms=4, max_exp=3))
    mapping = {}
    shared = Expr.make(draw(polys(["u"], max_terms=2, max_exp=2)))  # so that terms cancel
    for name in draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True)):
        val = draw(st.sampled_from([shared, -shared])) if draw(st.booleans()) else Expr.make(draw(polys(["u", "v"], max_terms=3, max_exp=2)))
        if draw(st.integers(0, 4)) == 0:
            val = val / Expr.make(draw(polys(["u", "v"], max_terms=2, max_exp=2)))
        mapping[name] = val
    return p, mapping


@SETTINGS
@given(subst_cases())
@example((parse_expr("x^2 + x*y + y^2 + x").num, {"x": parse_expr("u + 1"), "y": parse_expr("u - 1")}))
@example((parse_expr("x*y - y + x^2*y").num, {"x": parse_expr("u"), "y": parse_expr("1/(u + 1)")}))
def test_subst_matches_the_expr_loop(case):
    p, mapping = case
    try:
        want = _subst_oracle(p, mapping)
    except ExprError as exc:  # a pole of ln, or past the power budget: the same error
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _poly_subst(p, mapping)
        return
    _same_value(_poly_subst(p, mapping), want)


# -- term order is free -------------------------------------------------------

EXP_ATOM = next(iter(parse_expr("exp(y/2)").num.generators()))
ORDER_GENS = ["x", "y", "z", ATOM, EXP_ATOM]


def _reordered(draw, p):
    """p rebuilt with its `terms` dict in a drawn order."""
    return Poly(dict(draw(st.permutations(list(p.terms.items())))))


def _reordered_expr(draw, e):
    return Expr(_reordered(draw, e.num), _reordered(draw, e.den), _canonical=True)


def _outcome(f, *args):
    """A value, floats as their bits, or the error raised."""
    try:
        value = f(*args)
    except (ExprError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return value.hex() if isinstance(value, float) else value


@SETTINGS
@given(st.data())
def test_a_reordered_poly_keeps_every_output(data):
    p = data.draw(polys(ORDER_GENS, max_terms=6, max_exp=4))
    q = _reordered(data.draw, p)
    assert p == q and hash(p) == hash(q) and p.sort_key() == q.sort_key()
    d = data.draw(polys(["x", "y"], max_terms=3, max_exp=2))
    e = Expr.make(p, d)
    f = _reordered_expr(data.draw, e)
    assert e == f and hash(e) == hash(f) and e.sort_key() == f.sort_key() and str(e) == str(f)
    names = ["x", "y", "z"]
    fe, ff = compile_numeric(e, names), compile_numeric(f, names)
    coords = st.fractions(-3, 3, max_denominator=7)
    for point in (data.draw(st.lists(coords, min_size=3, max_size=3)), [float(data.draw(coords)) + 0.1 for _ in names]):
        assert _outcome(fe, point) == _outcome(ff, point)


@SETTINGS
@given(st.data())
def test_the_kernel_routines_ignore_term_order(data):
    p = data.draw(polys(ORDER_GENS, max_terms=5, max_exp=3))
    v = data.draw(st.sampled_from(["x", "y", "z"]))
    q = _reordered(data.draw, p)
    _same_value(_poly_diff_expr(q, v), _poly_diff_expr(p, v))

    mapping = {}
    for name in data.draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True)):
        val = Expr.make(data.draw(polys(["u", "v"], max_terms=3, max_exp=2)))
        if data.draw(st.booleans()):
            val = val / Expr.make(data.draw(polys(["u", "v"], max_terms=2, max_exp=2)))
        mapping[name] = val
    reordered = {k: _reordered_expr(data.draw, e) for k, e in mapping.items()}
    _same_value(_poly_subst(q, reordered), _poly_subst(p, mapping))

    f, g = (data.draw(polys(ORDER_GENS[:4], max_terms=3, max_exp=3)) for _ in range(2))
    h = data.draw(polys(ORDER_GENS[:4], max_terms=2, max_exp=2))
    want = poly_cofactors(f * h, g * h)
    got = poly_cofactors(_reordered(data.draw, f * h), _reordered(data.draw, g * h))
    assert [a.sort_key() for a in got] == [a.sort_key() for a in want]

    n = data.draw(st.integers(1, 3))
    rows = [[Expr.make(data.draw(polys(ORDER_GENS[:4], max_terms=2, max_exp=2))) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):
        rows[0][0] = rows[0][0] / Expr.make(data.draw(polys(["x", "z"], max_terms=2, max_exp=2)))
    shuffled = [[_reordered_expr(data.draw, e) for e in row] for row in rows]
    got, want = minor_table(shuffled), minor_table(rows)
    for k in range(n + 1):
        for R in combinations(range(n), k):
            for C in combinations(range(n), k):
                _same_value(got(R, C), want(R, C))
    _same_value(det_expr(shuffled), det_expr(rows))


# -- one representation: content times primitive ints ------------------------


@st.composite
def fraction_dicts(draw, max_terms=4, max_exp=3):
    """The oracle's polynomial: a {Monomial: Fraction} dict with no zero
    value, over variables and two atoms; the coefficients often share a
    factor, so a content other than 1 is common."""
    out = {}
    common = draw(st.sampled_from([1, 1, 2, 6, 10, Fraction(5, 3), Fraction(4, 9)]))
    for _ in range(draw(st.integers(0, max_terms))):
        powers = draw(st.dictionaries(st.sampled_from(ORDER_GENS), st.integers(1, max_exp), max_size=3))
        m = Monomial.unit()
        for g, e in powers.items():
            m = m.mul(Monomial.of(g, e))
        out[m] = out.get(m, 0) + common * draw(st.fractions(-12, 12, max_denominator=8))
    return {m: c for m, c in out.items() if c}


def _o_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _o_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1.mul(m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _o_key(a):
    return tuple((m.sort_key(), (c.numerator, c.denominator)) for m, c in sorted(a.items(), key=lambda t: t[0].sort_key()))


def _o_text(a):
    """The canonical text of the polynomial, from its Fraction terms."""
    if not a:
        return "0"
    out = ""
    for m in sorted(a, reverse=True):
        c = a[m]
        mono = "*".join(str(g) if e == 1 else f"{g}^{e}" for g, e in m.items)
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        out += ("-" if c < 0 else "") + body if not out else (" - " if c < 0 else " + ") + body
    return out


def _o_float(a, point):
    """The float value of the polynomial at a point of floats, in the
    operation order compile_numeric documents: terms in descending monomial
    key order added to 0.0, each float(c) times its factors one by one."""
    total = 0.0
    for m, c in sorted(a.items(), key=lambda t: t[0].sort_key(), reverse=True):
        val = float(c)
        for g, e in m.items:
            v = point[g] if isinstance(g, str) else _MATH_FN[g.fn](_o_float(g.arg.num.terms, point))
            val = val * v if e == 1 else val * v ** e
        total = total + val
    return total


def _check(p, want):
    """p is the oracle's polynomial want, in its one representation: a
    positive Fraction content times primitive ints with no zero entry."""
    assert p.terms == want and all(type(c) is Fraction for c in p.terms.values())
    assert type(p.content) is Fraction and p.content > 0
    assert all(type(c) is int and c for c in p.ints.values())
    assert math.gcd(*p.ints.values()) == 1 if p.ints else p.content == 1
    assert p.sort_key() == _o_key(want) and hash(p) == hash(_o_key(want))
    assert str(Expr.make(p)) == _o_text(want)


X, Y, UNIT = Monomial.of("x"), Monomial.of("y"), Monomial.unit()


@settings(SETTINGS, max_examples=60)
@given(
    fraction_dicts(),
    fraction_dicts(),
    st.fractions(-5, 5, max_denominator=6),
    st.integers(0, 3),
    st.lists(st.floats(-2, 2), min_size=3, max_size=3),
)
# contents 6 and 4 have the factor 2 in common, and 6/5 and 4/15 the factor 2/15
@example({X: Fraction(6), Y: Fraction(6)}, {X: Fraction(4), UNIT: Fraction(2)}, Fraction(1), 2, [0.5, -1.25, 2.0])
@example({X: Fraction(6, 5), Y: Fraction(12, 5)}, {X: Fraction(4, 15)}, Fraction(-3, 2), 1, [0.1, 0.2, 0.3])
def test_the_representation_matches_a_fraction_oracle(a, b, q, n, values):
    p, r = Poly(a), Poly(b)
    _check(p, a)
    _check(r, b)
    _check(p + r, _o_add(a, b))
    _check(p - r, _o_add(a, b, -1))
    _check(-p, {m: -c for m, c in a.items()})
    _check(p * r, _o_mul(a, b))
    _check(p.scale(q), {m: c * q for m, c in a.items() if q})
    power = {Monomial.unit(): Fraction(1)}
    for _ in range(n):
        power = _o_mul(power, a)
    _check(p ** n, power)
    point = dict(zip(["x", "y", "z"], values))
    bits = compile_numeric(Expr.make(p), ["x", "y", "z"])(values)
    assert bits.hex() == _o_float(a, point).hex()
    if not b:
        return
    _check(_poly_divexact(p * r, r), a)
    e = Expr.make(p, r)
    _check(e.num, e.num.terms)
    _check(e.den, e.den.terms)
    assert e.den.leading()[1] == 1 and _o_mul(e.num.terms, b) == _o_mul(a, e.den.terms)
    if not a:
        return
    h, f1, g1 = poly_cofactors(p, r)
    for got in (h, f1, g1):
        _check(got, got.terms)
    assert h.leading()[1] == 1 and _o_mul(h.terms, f1.terms) == a and _o_mul(h.terms, g1.terms) == b


# -- pullback naturality, and the sign of ** ----------------------------------

AMBIENT = {n: Chart(["x", "y", "z"][:n]) for n in (2, 3)}
PARAMS = {m: Chart(["u", "v"][:m]) for m in (1, 2)}
SIN_X = parse_expr("sin(x)")


@st.composite
def ambient_forms(draw, chart, degree):
    """A form whose coefficients are polynomials, now and then times sin(x)."""
    terms = {}
    for idx in combinations(range(chart.dim), degree):
        c = draw(polynomials(chart.variables))
        terms[idx] = c * SIN_X if draw(st.integers(0, 3)) == 0 else c
    return DiffForm(chart, degree, terms)


@st.composite
def pseudostructures(draw):
    """An m-parameter surface in an n-dimensional chart, m < n: each ambient
    coordinate a polynomial in u, v, now and then over a denominator."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, n - 1))
    ambient, params = AMBIENT[n], PARAMS[m]
    mapping = {}
    for x in ambient.variables:
        val = draw(polynomials(params.variables, max_terms=3))
        if draw(st.integers(0, 4)) == 0:
            val = val / (Expr.var("u") ** 2 + 1)
        mapping[x] = val
    try:
        return Pseudostructure(ambient, params, mapping)
    except RelationError:  # generic rank below m
        assume(False)


@SETTINGS
@given(st.data())
def test_pullback_commutes_with_d_and_wedge(data):
    s = data.draw(pseudostructures())
    chart = s.ambient
    p = data.draw(st.integers(0, chart.dim - 1))
    a = data.draw(ambient_forms(chart, p))
    b = data.draw(ambient_forms(chart, data.draw(st.integers(0, chart.dim - p))))
    assert pullback(ext_d(a), s) == ext_d(pullback(a, s))
    assert pullback(wedge(a, b), s) == wedge(pullback(a, s), pullback(b, s))


@SETTINGS
@given(st.data())
def test_double_star_sign(data):
    n = data.draw(st.integers(2, 4))
    chart = CHARTS[n]
    g = data.draw(st.sampled_from([Metric.euclidean, Metric.minkowski]))(chart)
    p = data.draw(st.integers(0, n))
    terms = {idx: data.draw(polynomials(chart.variables)) for idx in combinations(range(n), p)}
    a = DiffForm(chart, p, terms)
    sign = (-1) ** (p * (n - p)) * (1 if g.signature[1] % 2 == 0 else -1)
    assert hodge_star(hodge_star(a, g), g) == a.scale(sign)
