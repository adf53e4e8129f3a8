import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from skewform.symexpr import ONE, ZERO, Expr, ExprError, Monomial, parse_expr, _POLY_ONE, _POLY_ZERO
from skewform.exterior import Chart, DiffForm, _merge_indices, ext_d, parse_form, wedge
from skewform.duality import (
    Metric,
    _inertia,
    _sampled_matrices,
    MetricError,
    christoffel,
    codifferential,
    det_expr,
    dual_closure_check,
    hodge_laplacian,
    hodge_star,
    laplacian,
    minor_table,
    sqrt_expr,
)
from skewform.manifold import riemann
from conftest import random_form, random_poly

ch2 = Chart(["x", "y"])
chm = Chart(["t", "x"])
x, y = Expr.var("x"), Expr.var("y")


def _charts_with_metrics(dims=(2, 3, 4)):
    out = []
    for n in dims:
        chart = Chart([f"x{i}" for i in range(1, n + 1)])
        out.append((chart, Metric.euclidean(chart)))
        out.append((chart, Metric.minkowski(chart)))
    return out


class TestMetricConstruction:
    def test_symmetry_required(self):
        with pytest.raises(MetricError):
            Metric(ch2, [[Expr.const(1), x], [y, Expr.const(1)]])

    def test_singular_rejected(self):
        with pytest.raises(MetricError):
            Metric(ch2, [[Expr.const(1), Expr.const(1)], [Expr.const(1), Expr.const(1)]])

    def test_non_square_volume_rejected(self):
        with pytest.raises(MetricError):
            Metric.diagonal(ch2, [Expr.const(1), x])

    def test_variable_square_volume(self):
        g = Metric.diagonal(ch2, [Expr.const(1), x ** 2])
        assert g.volume == x

    def test_signature(self):
        assert Metric.euclidean(ch2).signature == (2, 0)
        assert Metric.minkowski(chm).signature == (1, 1)
        assert Metric.minkowski(chm).sign_det == -1

    def test_signature_exact_for_badly_scaled_rational_metric(self):
        # float eigenvalues with a 1e-9 determinant cutoff rejected both
        tiny = Expr.const(Fraction(1, 10 ** 10))
        assert Metric.diagonal(ch2, [tiny, Expr.const(1)]).signature == (2, 0)
        assert Metric.diagonal(ch2, [-tiny, Expr.const(1)]).signature == (1, 1)

    def test_signature_with_zero_diagonal(self):
        g = Metric(ch2, [[Expr.const(0), Expr.const(1)], [Expr.const(1), Expr.const(0)]])
        assert g.signature == (1, 1)

    def test_signature_with_atoms_uses_float_fallback(self):
        g = Metric.diagonal(ch2, [Expr.const(-1), parse_expr("exp(x)^2")])
        assert g.signature == (1, 1)

    def test_signature_with_atoms_and_zero_diagonal(self):
        e = parse_expr("exp(x)")
        assert Metric(ch2, [[Expr.const(0), e], [e, Expr.const(0)]]).signature == (1, 1)

    def test_inverse_cached_exact(self):
        g = Metric.diagonal(ch2, [Expr.const(4), x ** 2])
        assert g.inverse[0][0] == Expr.const(Fraction(1, 4))
        assert g.inverse[1][1] == 1 / x ** 2


class TestHodgeStar:
    def test_euclidean_2d(self):
        g = Metric.euclidean(ch2)
        assert hodge_star(DiffForm.basis(ch2, "x"), g) == DiffForm.basis(ch2, "y")
        assert hodge_star(DiffForm.basis(ch2, "y"), g) == -DiffForm.basis(ch2, "x")

    def test_volume_form(self):
        for n in (2, 3, 4):
            chart = Chart([f"x{i}" for i in range(1, n + 1)])
            g = Metric.euclidean(chart)
            vol = hodge_star(DiffForm.scalar(chart, 1), g)
            assert vol == DiffForm(chart, n, {tuple(range(n)): Expr.const(1)})

    def test_minkowski_involution_pins_convention(self):
        g = Metric.minkowski(chm)
        dt = DiffForm.basis(chm, "t")
        ss = hodge_star(hodge_star(dt, g), g)
        assert ss == dt.scale((-1) ** (1 * 1) * g.sign_det)

    def test_involution_randomized(self):
        rng = random.Random(60)
        for chart, g in _charts_with_metrics():
            n = chart.dim
            for p in range(0, n + 1):
                a = random_form(rng, chart, p, max_total_deg=2)
                expected = a.scale((-1) ** (p * (n - p)) * g.sign_det)
                assert hodge_star(hodge_star(a, g), g) == expected

    def test_chart_mismatch(self):
        from skewform.exterior import ChartError

        with pytest.raises(ChartError):
            hodge_star(DiffForm.basis(chm, "t"), Metric.euclidean(ch2))

    def test_inner_product_defining_identity(self):
        # alpha ^ star(beta) = <alpha, beta> vol for basis 1-forms, 3D Euclidean
        ch3 = Chart(["x", "y", "z"])
        g = Metric.euclidean(ch3)
        vol = hodge_star(DiffForm.scalar(ch3, 1), g)
        for i in range(3):
            for j in range(3):
                a = DiffForm(ch3, 1, {(i,): Expr.const(1)})
                b = DiffForm(ch3, 1, {(j,): Expr.const(1)})
                lhs = wedge(a, hodge_star(b, g))
                rhs = vol.scale(Expr.const(1 if i == j else 0))
                assert lhs == rhs

    def test_defining_identity_randomized(self):
        # the same identity over random forms and metrics, with the inner
        # product computed independently from inverse-metric minors
        from skewform.duality import det_expr
        from skewform.symexpr import ZERO

        rng = random.Random(64)
        for n in (2, 3, 4):
            chart = Chart([f"x{i}" for i in range(1, n + 1)])
            metrics = [
                Metric.euclidean(chart),
                Metric.minkowski(chart),
                Metric.diagonal(chart, [Expr.const(rng.choice([1, 4, 9])) for _ in range(n)]),
            ]
            for g in metrics:
                vol = DiffForm(chart, n, {tuple(range(n)): g.volume})
                for p in range(0, n + 1):
                    alpha = random_form(rng, chart, p, max_total_deg=2)
                    beta = random_form(rng, chart, p, max_total_deg=2)
                    inner = ZERO
                    for I, ai in alpha.terms.items():
                        for J, bj in beta.terms.items():
                            minor = [[g.inverse[i][j] for j in J] for i in I]
                            inner = inner + ai * bj * det_expr(minor)
                    assert wedge(alpha, hodge_star(beta, g)) == vol.scale(inner)


class TestDualClosure:
    def test_constant_dual(self):
        assert dual_closure_check(DiffForm.basis(ch2, "x"), Metric.euclidean(ch2))

    def test_variable_dual_fails(self):
        a = DiffForm(ch2, 1, {(0,): x})
        assert not dual_closure_check(a, Metric.euclidean(ch2))

    def test_volume_form_dual(self):
        assert dual_closure_check(parse_form("d[x]^d[y]", ch2), Metric.euclidean(ch2))


class TestCodifferential:
    def test_negative_divergence(self):
        g = Metric.euclidean(ch2)
        a = DiffForm(ch2, 1, {(0,): x, (1,): y})
        assert codifferential(a, g).as_scalar() == Expr.const(-2)

    def test_constant_coefficients(self):
        g = Metric.euclidean(ch2)
        a = parse_form("3*d[x] - 7*d[y]", ch2)
        assert codifferential(a, g).is_zero_form()

    def test_degree_zero_guard(self):
        with pytest.raises(Exception):
            codifferential(DiffForm.scalar(ch2, x), Metric.euclidean(ch2))

    def test_delta_delta_zero_randomized(self):
        rng = random.Random(61)
        for n in (2, 3, 4):
            chart = Chart([f"x{i}" for i in range(1, n + 1)])
            g = Metric.euclidean(chart)
            for p in range(2, n + 1):
                a = random_form(rng, chart, p, max_total_deg=3)
                assert codifferential(codifferential(a, g), g).is_zero_form()

    def test_divergence_any_dimension(self):
        ch3 = Chart(["x", "y", "z"])
        g = Metric.euclidean(ch3)
        a = DiffForm(
            ch3,
            1,
            {(0,): parse_expr("x^2"), (1,): parse_expr("x*y"), (2,): parse_expr("z")},
        )
        assert codifferential(a, g).as_scalar() == parse_expr("-(2*x + x + 1)")


class TestLaplacian:
    def test_euclidean_scalar(self):
        g = Metric.euclidean(ch2)
        f = DiffForm.scalar(ch2, x ** 2 + y ** 2)
        assert laplacian(f, g).as_scalar() == Expr.const(4)

    def test_dalembertian(self):
        g = Metric.minkowski(chm)
        f = DiffForm.scalar(chm, parse_expr("t^2 - x^2"))
        assert laplacian(f, g).as_scalar() == Expr.const(4)

    def test_dalembertian_four_dimensional(self):
        ch4 = Chart(["t", "x", "y", "z"])
        g = Metric.minkowski(ch4)
        f = DiffForm.scalar(ch4, parse_expr("t^2 - x^2 - y^2 - z^2"))
        assert laplacian(f, g).as_scalar() == Expr.const(8)
        assert laplacian(DiffForm.scalar(ch4, parse_expr("t^2")), g).as_scalar() == Expr.const(2)
        assert laplacian(DiffForm.scalar(ch4, parse_expr("x^2")), g).as_scalar() == Expr.const(-2)

    def test_linear_is_harmonic(self):
        g = Metric.euclidean(ch2)
        f = DiffForm.scalar(ch2, parse_expr("2*x - 3*y + 1"))
        assert laplacian(f, g).is_zero_form()

    def test_matches_componentwise_laplacian_on_scalars(self):
        rng = random.Random(62)
        g = Metric.euclidean(ch2)
        for _ in range(10):
            f = random_poly(rng, ["x", "y"])
            expected = f.diff("x").diff("x") + f.diff("y").diff("y")
            assert laplacian(DiffForm.scalar(ch2, f), g).as_scalar() == expected

    def test_primary_vs_classical_combination(self):
        g = Metric.euclidean(ch2)
        f = DiffForm.scalar(ch2, x ** 2 + y ** 2)
        # on 0-forms dd* vanishes, so the two combinations differ by sign
        assert hodge_laplacian(f, g).as_scalar() == Expr.const(-4)

    def test_laplace_beltrami_constant_diagonal(self):
        rng = random.Random(63)
        g = Metric.diagonal(ch2, [Expr.const(4), Expr.const(9)])
        for _ in range(6):
            f = random_poly(rng, ["x", "y"])
            expected = f.diff("x").diff("x") / 4 + f.diff("y").diff("y") / 9
            assert laplacian(DiffForm.scalar(ch2, f), g).as_scalar() == expected

    def test_top_degree_form(self):
        # at top degree delta(d a) = 0, so the paper combination collapses
        # to d(delta a); by hand delta a = 2y dx - 2x dy, d of that = -4 dx^dy
        g = Metric.euclidean(ch2)
        a = parse_form("(x^2 + y^2) * d[x]^d[y]", ch2)
        out = laplacian(a, g)
        assert out.degree == 2 and out.coefficient((0, 1)) == Expr.const(-4)
        assert out == hodge_laplacian(a, g)


class TestAdjointness:
    def test_quadrature_spot_check(self):
        """<d a, b> = <a, delta b> against numeric quadrature on [-1,1]^2,
        using polynomial cutoffs that vanish at the boundary."""
        g = Metric.euclidean(ch2)
        cutoff = parse_expr("(1 - x^2)^2 * (1 - y^2)^2")
        a = DiffForm.scalar(ch2, cutoff * parse_expr("x + y^2"))
        b = DiffForm(
            ch2, 1, {(0,): cutoff * parse_expr("x*y"), (1,): cutoff * parse_expr("x - y")}
        )
        da = ext_d(a)
        db = codifferential(b, g)
        # <da, b> for 1-forms is the componentwise product; <a, delta b> scalar product
        integrand1 = da.coefficient((0,)) * b.coefficient((0,)) + da.coefficient((1,)) * b.coefficient((1,))
        integrand2 = a.as_scalar() * db.as_scalar()
        n = 64
        s = np.linspace(-1.0, 1.0, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (2.0 / n) / 3.0
        X, Y = np.meshgrid(s, s, indexing="ij")

        def integrate(e):
            from skewform.symexpr import compile_numeric

            f = compile_numeric(e, ["x", "y"])
            vals = np.array([[f([float(u), float(v)]) for u, v in zip(xs, ys)] for xs, ys in zip(X, Y)])
            return float(w @ vals @ w)

        assert abs(integrate(integrand1) - integrate(integrand2)) < 1e-3


class TestChristoffel:
    def test_flat_plane_polar_like(self):
        g = Metric.diagonal(ch2, [Expr.const(1), x ** 2])
        c = christoffel(g)
        assert c[(1, 0, 1)] == 1 / x
        assert c[(1, 1, 0)] == 1 / x
        assert c[(0, 1, 1)] == -x
        R = riemann(c)
        assert all(
            R[r][s][m][n].is_zero_struct()
            for r in range(2)
            for s in range(2)
            for m in range(2)
            for n in range(2)
        )

    def test_euclidean_connection_vanishes(self):
        c = christoffel(Metric.euclidean(ch2))
        assert all(
            c[(s, a, b)].is_zero_struct() for s in range(2) for a in range(2) for b in range(2)
        )


def _oracle_christoffel(g):
    """christoffel entry by entry, each metric derivative taken where it is
    used, kept as the oracle."""
    chart = g.chart
    n = chart.dim
    half = Expr.const(Fraction(1, 2))
    gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                val = ZERO
                for l in range(n):
                    if g.inverse[k][l].is_zero_struct():
                        continue
                    piece = (
                        g.rows[l][j].diff(chart.variables[i])
                        + g.rows[i][l].diff(chart.variables[j])
                        - g.rows[i][j].diff(chart.variables[l])
                    )
                    val = val + g.inverse[k][l] * piece
                gamma[k][i][j] = half * val
    return gamma


def _curved_metric(rng, chart):
    """g = J^T D J for a sparse J of linear entries with a non-constant
    det and D = diag(1, ..., 1, (x_1 + c)^2): a perfect-square det g, a
    rational inverse and, in general, nonzero curvature."""
    n = chart.dim
    v = [Expr.var(name) for name in chart.variables]
    J = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        J[i][i] = Expr.const(rng.choice([1, 2, -1]))
        J[i][(i + 1) % n] = v[i] * rng.choice([1, -1, 2]) + rng.randint(-2, 2)
    D = [ONE] * (n - 1) + [(v[0] + rng.randint(1, 3)) ** 2]
    rows = [[sum((J[k][i] * D[k] * J[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]
    return Metric(chart, rows)


class TestChristoffelSymmetry:
    """christoffel takes each dg_ab/dx^c once and fills G^k_ji from G^k_ij:
    the same connection, by == and by text, as the entry-by-entry formula."""

    def test_matches_entrywise_formula(self):
        rng = random.Random(141)
        for n in (2, 3, 4):
            chart = Chart(["x", "y", "z", "w"][:n])
            for _ in range(2 if n < 4 else 1):
                g = _curved_metric(rng, chart)
                got, want = christoffel(g).gamma, _oracle_christoffel(g)
                assert [list(map(list, plane)) for plane in got] == want
                assert str(got) == str(tuple(tuple(tuple(row) for row in plane) for plane in want))

    def test_curvature_of_the_test_metrics_is_nonzero(self):
        # so that the oracle above compares non-flat connections
        g = _curved_metric(random.Random(141), Chart(["x", "y"]))
        R = riemann(christoffel(g))
        assert any(not e.is_zero_struct() for a in R for b in a for c in b for e in c)


class TestInertia:
    def test_exact_for_rationals(self):
        near = [[1, 1], [1, 1 + Fraction(1, 10 ** 12)]]
        assert _inertia(near) == (2, 0)
        assert _inertia([[0, 1], [1, 0]]) == (1, 1)
        assert _inertia([[1, 2], [2, 4]]) == (1, 0)

    def test_relative_tolerance_for_floats(self):
        # a pivot within 1e-9 of the largest |entry| counts as zero
        assert _inertia([[1.0, 1.0], [1.0, 1.0 + 1e-12]]) == (1, 0)
        assert _inertia([[1e20, 1e20], [1e20, 1e20 + 1e8]]) == (1, 0)
        assert _inertia([[1e-20, 0.0], [0.0, -1e-20]]) == (1, 1)
        assert _inertia([[0.0, 1e-30], [1e-30, 0.0]]) == (1, 1)
        assert _inertia([[0.0, 0.0], [0.0, 0.0]]) == (0, 0)


def _oracle_sampled_matrices(rows, names, rng, lo, hi, tries):
    """Per try, `Expr.eval` of every entry at the Fraction point, or None
    where some entry has a pole there."""
    for _ in range(tries):
        point = {v: Fraction(rng.randint(lo, hi), 1000) for v in names}
        try:
            yield [[e.eval(point) for e in row] for row in rows]
        except ExprError:
            yield None


class TestSampledMatrices:
    ROWS = [
        ["1/sin(u)", "u*v/3 - 1", "exp(v) + u"],
        ["2", "ln(u)", "u^2/(v - 1)"],
        ["0", "cos(u*v)^2", "v"],
    ]

    def test_matches_eval_at_fraction_points(self):
        rows = [[parse_expr(t) for t in row] for row in self.ROWS]
        names = ["u", "v", "w"]  # w is in no entry, as when a param drops out of the Jacobian
        for lo, hi, tries in ((-2000, 2000, 64), (-2, 2, 40), (1, 4000, 16)):
            oracle = list(_oracle_sampled_matrices(rows, names, random.Random(f"s{lo}"), lo, hi, tries))
            rng = random.Random(f"s{lo}")
            got = list(_sampled_matrices(rows, names, rng, lo, hi, tries))
            want = [m for m in oracle if m is not None]
            assert [[[(type(v), repr(v)) for v in r] for r in m] for m in got] == [
                [[(type(v), repr(v)) for v in r] for r in m] for m in want
            ]
            # the same points were drawn: the rng streams end in the same state
            oracle_rng = random.Random(f"s{lo}")
            for _ in range(tries * len(names)):
                oracle_rng.randint(lo, hi)
            assert rng.random() == oracle_rng.random()
            if lo < 0:  # ln(u) and 1/sin(u) have poles at u <= 0
                assert 0 < len(want) < tries

    def test_atom_free_entries_stay_exact(self):
        rows = [[parse_expr("u/3"), parse_expr("1/(u - 1)")], [ONE, ZERO]]
        mats = list(_sampled_matrices(rows, ["u"], random.Random(0), 999, 1001, 30))
        assert mats and all(isinstance(v, Fraction) for m in mats for r in m for v in r)
        assert len(mats) < 30  # u = 1 is a pole of 1/(u - 1)


class TestDeterminantHelpers:
    def test_det_expr(self):
        rows = [[x, y], [y, x]]
        assert det_expr(rows) == x ** 2 - y ** 2

    def test_sqrt_expr(self):
        assert sqrt_expr(parse_expr("x^2 + 2*x*y + y^2")) == x + y
        assert sqrt_expr(parse_expr("4*x^2")) == 2 * x
        assert sqrt_expr(parse_expr("x^2 + 1")) is None
        assert sqrt_expr(parse_expr("9/4")) == Expr.const(Fraction(3, 2))


# The Laplace expansion over Expr that the memoized expansion replaced, kept
# verbatim as the oracle for it.


def _old_det_expr(rows):
    """Determinant of a square matrix of Exprs by Laplace expansion."""
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        if rows[0][j].is_zero_struct():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _old_det_expr(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


_DET_ATOMS = [parse_expr(t) for t in ("sin(x)", "exp(y)", "exp(x - y)")]
_DET_DENOMINATORS = [parse_expr(t) for t in ("x + 1", "y^2 + 1", "x*y - 2", "sin(x) + 2")]


def _det_entry(rng, dens):
    """A random entry over x, y, sometimes with an atom; over one of `dens`
    (the row's denominators) when there are any."""
    if rng.random() < 0.2:
        return ZERO
    e = ZERO
    for _ in range(rng.randint(1, 2 if dens else 3)):
        t = Expr.const(Fraction(rng.randint(-4, 4) or 1, rng.choice([1, 1, 2, 3])))
        for v in (x, y):
            t = t * v ** rng.randint(0, 1 if dens else 2)
        if rng.random() < 0.2:
            t = t * rng.choice(_DET_ATOMS)
        e = e + t
    if dens and rng.random() < 0.6:
        e = e / rng.choice(dens)
    return e


def _det_case(rng, n, rational):
    """A random n x n matrix; in a rational one, about half the rows have
    one or two denominators.  Some have a zero row or column, a repeated
    row or a row that is the sum of two others."""
    rows = []
    for _ in range(n):
        dens = rng.sample(_DET_DENOMINATORS, rng.randint(1, 2)) if rational and rng.random() < 0.5 else []
        rows.append([_det_entry(rng, dens) for _ in range(n)])
    shape = rng.choice(["dense", "dense", "zero row", "zero column", "repeated row", "sum of rows"])
    if n >= 1 and shape == "zero row":
        rows[rng.randrange(n)] = [ZERO] * n
    elif n >= 1 and shape == "zero column":
        j = rng.randrange(n)
        for row in rows:
            row[j] = ZERO
    elif n >= 2 and shape == "repeated row":
        i, k = rng.sample(range(n), 2)
        rows[i] = list(rows[k])
    elif n >= 3 and shape == "sum of rows":
        i, k, m = rng.sample(range(n), 3)
        rows[i] = [a + b for a, b in zip(rows[k], rows[m])]
    return rows, shape


def test_memoized_det_matches_laplace_expansion():
    """Equal Exprs, with equal text, on every matrix as the Laplace
    expansion gives."""
    rng = random.Random("det-old-vs-new")
    shapes = set()
    singular = polynomial = 0
    for case in range(300):
        n, rational = case % 6, case % 12 >= 6
        rows, shape = _det_case(rng, n, rational)
        got, want = det_expr(rows), _old_det_expr(rows)
        assert got == want and str(got) == str(want), (case, [[str(e) for e in row] for row in rows])
        polynomial += all(e.den.is_const() for row in rows for e in row)
        shapes.add(shape)
        singular += n >= 1 and got.is_zero_struct()
    assert len(shapes) == 5 and singular > 100 and 150 < polynomial < 250, (shapes, singular, polynomial)


def _jacobi_metric(rng, chart):
    """g = J^T diag(+-1) J for a random J with rational entries, so that
    sqrt|det g| = |det J| is exact; None when J is singular.  Entries are
    constant in 4D, where the oracle's determinants of blocks of a
    rational g^-1 take seconds."""
    n = chart.dim
    u, v = Expr.var(chart.variables[0]), Expr.var(chart.variables[1])

    def entry():
        pick = rng.random() if n < 4 else 1
        if pick < 0.1:
            return Expr.const(rng.randint(-2, 2)) + rng.choice([u, v])
        if pick < 0.15:
            return Expr.const(rng.choice([-1, 1])) / (rng.choice([u, v]) + rng.randint(1, 3))
        return Expr.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    J = [[entry() for _ in range(n)] for _ in range(n)]
    if det_expr(J).is_zero_struct():
        return None
    signs = [rng.choice([-1, 1]) for _ in range(n)]
    rows = [[sum((J[k][i] * J[k][j] * signs[k] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]
    return Metric(chart, rows)


def test_inverse_minors_follow_jacobi():
    """Every minor of g^-1, read by Jacobi's identity from the minors of g,
    is the determinant of that block of g^-1, and g g^-1 = I."""
    rng = random.Random("jacobi-inverse-minors")
    metrics = 0
    while metrics < 24:
        chart = Chart([f"x{i}" for i in range(1, 2 + metrics % 3 + 1)])
        g = _jacobi_metric(rng, chart)
        if g is None:
            continue
        metrics += 1
        n = chart.dim
        for i in range(n):
            for j in range(n):
                gg = sum((g.rows[i][k] * g.inverse[k][j] for k in range(n)), ZERO)
                assert gg == (ONE if i == j else ZERO)
        for p in range(n + 1):
            for I in combinations(range(n), p):
                for J in combinations(range(n), p):
                    block = [[g.inverse[j][i] for i in I] for j in J]
                    assert g.inverse_minor(J, I) == det_expr(block), (n, I, J)


def _per_term_hodge_star(a, g):
    """The Hodge star that `hodge_star` replaced, kept as its oracle: the
    coefficient on K, the complement of J, is sum_I a_I (g^-1 minor on J, I),
    times the volume, with the sign of dx^J ^ dx^K."""
    n = g.chart.dim
    res = {}
    for J in combinations(range(n), a.degree):
        s = sum((coeff * g.inverse_minor(J, I) for I, coeff in a.terms.items()), ZERO)
        if s.is_zero_struct():
            continue
        K = tuple(i for i in range(n) if i not in J)
        val = s * g.volume
        res[K] = val if _merge_indices(J, K)[0] > 0 else -val
    return DiffForm(g.chart, n - a.degree, res)


def test_hodge_star_matches_the_per_term_formula():
    """On metrics J^T diag(+-1) J with rational entries, dims 2-4, the star
    read from minors of g over the volume equals the per-term formula for
    multi-term forms of every degree, one with a sin coefficient.  The
    volume's square is sign_det * det g, and sign_det agrees with the
    sampled signature; both signs occur."""
    rng = random.Random("hodge-per-term")
    signs, metrics = set(), 0
    while metrics < 18:
        chart = Chart([f"x{i}" for i in range(1, 2 + metrics % 3 + 1)])
        g = _jacobi_metric(rng, chart)
        if g is None:
            continue
        metrics += 1
        assert g.volume * g.volume == g.det * g.sign_det
        assert g.sign_det == (-1) ** g.signature[1]
        signs.add(g.sign_det)
        n, u = chart.dim, Expr.var(chart.variables[0])
        for p in range(n + 1):
            a = random_form(rng, chart, p, density=1, max_terms=2, max_total_deg=2)
            I = rng.choice(sorted(a.terms))
            b = a + DiffForm(chart, p, {I: parse_expr(f"sin({chart.variables[-1]})") * u})
            for form in (a, b):
                assert hodge_star(form, g) == _per_term_hodge_star(form, g), (n, p, form)
    assert signs == {-1, 1}


# The `minor_table` expansion over `Poly` that the packed-integer expansion
# replaced, kept verbatim as the oracle for it.


def _old_minor_table(rows):
    mat, scales = [], []
    for row in rows:
        dens, scale = [], _POLY_ONE
        for e in row:
            if not e.den.is_const() and e.den not in dens:
                dens.append(e.den)
                scale = scale * e.den
        cleared = []
        for e in row:
            num = e.num
            for d in dens:
                if d != e.den:
                    num = num * d
            cleared.append(num)
        mat.append(cleared)
        scales.append(scale)
    memo = {}

    def poly_minor(R, C):
        if len(C) == 1:
            return mat[R[0]][C[0]]
        got = memo.get((R, C))
        if got is None:
            row, rest = mat[R[0]], R[1:]
            got = _POLY_ZERO
            for k, j in enumerate(C):
                if not row[j].terms:
                    continue
                sub = poly_minor(rest, C[:k] + C[k + 1:])
                if sub.terms:
                    term = row[j] * sub
                    got = got + term if k % 2 == 0 else got - term
            memo[(R, C)] = got
        return got

    def minor(R, C):
        if not R:
            return ONE
        den = _POLY_ONE
        for r in R:
            den = den * scales[r]
        return Expr.make(poly_minor(R, C), den)

    return minor


_WIDE = [parse_expr(t) for t in ("x^37*y^29", "x^37", "y^29", "x^18*y^11", "x")]
_NUMERATOR_ATOMS = [parse_expr(t) for t in ("sin(x)", "exp(y)")]
_MINOR_DENOMINATORS = [parse_expr(t) for t in ("sin(x) + 2", "x + 1")]


def _minor_entry(rng, kind):
    """A random entry of a `kind` matrix: "wide" has exponents that need
    wide bit fields, "atoms" has sin(x) and exp(y) as generators, and
    "rational" has sin(x) + 2 or x + 1 as a denominator.  Coefficient
    denominators differ from entry to entry."""
    if rng.random() < 0.2:
        return ZERO
    e = ZERO
    for _ in range(rng.randint(1, 2)):
        t = Expr.const(Fraction(rng.randint(-4, 4) or 1, rng.choice([1, 2, 3, 5])))
        if kind == "wide":
            t = t * rng.choice(_WIDE)
        else:
            t = t * x ** rng.randint(0, 1) * y ** rng.randint(0, 1)
            if kind == "atoms" and rng.random() < 0.4:
                t = t * rng.choice(_NUMERATOR_ATOMS)
        e = e + t
    if kind == "rational" and rng.random() < 0.5:
        e = e / rng.choice(_MINOR_DENOMINATORS)
    return e


def test_packed_minor_table_matches_poly_expansion():
    """Every minor, the empty one and the 1x1 ones included, equals the
    `Poly` expansion's, with the same text."""
    rng = random.Random("packed-minor-table")
    kinds = set()
    minors = 0
    for case in range(48):
        n, kind = 1 + case % 5, ("wide", "atoms", "rational")[case // 5 % 3]
        if kind == "rational" and n == 5:
            n = 3
        rows = [[_minor_entry(rng, kind) for _ in range(n)] for _ in range(n)]
        shape = ("dense", "zero row", "zero column")[case % 3]
        if shape == "zero row":
            rows[rng.randrange(n)] = [ZERO] * n
        elif shape == "zero column":
            j = rng.randrange(n)
            for row in rows:
                row[j] = ZERO
        kinds.add((kind, shape))
        got, want = minor_table(rows), _old_minor_table(rows)
        for p in range(n + 1):
            for R in combinations(range(n), p):
                for C in combinations(range(n), p):
                    a, b = got(R, C), want(R, C)
                    assert a == b and str(a) == str(b), (case, R, C)
                    minors += 1
    assert len(kinds) == 9 and minors > 2000, (kinds, minors)


def test_polynomial_det_makes_no_monomial_products(monkeypatch):
    """A 6x6 determinant of a dense P*L*U matrix of linear polynomials in
    x, y (the geometry-dense shape) multiplies packed ints only: no
    `Monomial.mul` call.  Its value is sign(P) times the diagonal of U."""
    rng = random.Random("packed-det-6x6")
    n = 6

    def linear():
        return sum((rng.choice([-2, -1, 1, 2]) * v for v in (x, y)), Expr.const(rng.choice([-2, -1, 1, 2])))

    L = [[Expr.const(rng.choice([-2, -1, 1, 2])) if j < i else ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    U = [[linear() if j >= i else ZERO for j in range(n)] for i in range(n)]
    LU = [[sum((L[i][k] * U[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [LU[perm[i]] for i in range(n)]
    sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    want = Expr.const(sign)
    for i in range(n):
        want = want * U[i][i]
    calls = []
    mul = Monomial.mul

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Monomial, "mul", counted)
    got = det_expr(rows)
    monkeypatch.undo()
    assert len(calls) == 0
    assert got == want and len(got.num.terms) > 20
