import random
from fractions import Fraction

import pytest

from skewform.symexpr import Expr, parse_expr
from skewform.catalog import (
    CatalogError,
    canonical_check,
    green_check,
    legendre_transform,
    list_entries,
    run_entry,
)
from conftest import random_poly


class TestLegendre:
    def test_quadratic_with_potential(self):
        rng = random.Random(80)
        for _ in range(8):
            V = random_poly(rng, ["q"], max_terms=3, max_total_deg=4)
            L = parse_expr("qdot^2/2") - V
            res = legendre_transform(L)
            assert res.p == parse_expr("qdot")
            assert res.H == parse_expr("p^2/2") + V
            assert res.degeneracy == Expr.const(1)

    def test_momentum_velocity_duality(self):
        # for quadratic L the inverse map must satisfy dH/dp = qdot at qdot = p/a
        res = legendre_transform("3*qdot^2/2 - q^4")
        assert res.H.diff("p") == parse_expr("p/3")

    def test_cubic_refusal_with_locus(self):
        res = legendre_transform("qdot^3/3")
        assert res.H is None
        assert res.degeneracy == parse_expr("2*qdot")
        assert res.locus is not None and res.locus.zero_points
        for pt in res.locus.zero_points:
            assert abs(2 * pt["qdot"]) < 1e-9

    def test_linear_rejected(self):
        with pytest.raises(CatalogError):
            legendre_transform("qdot")

    def test_quartic_rejected(self):
        with pytest.raises(CatalogError):
            legendre_transform("qdot^4")

    def test_velocity_dependent_mass(self):
        res = legendre_transform("q^2*qdot^2/2")
        assert res.degeneracy == parse_expr("q^2")
        assert res.H == parse_expr("p^2/(2*q^2)")


class TestCanonicalCheck:
    def test_rotation_by_momentum(self):
        res = canonical_check("p", "-q")
        assert res.is_canonical
        assert res.W == parse_expr("p*q")

    def test_identity(self):
        res = canonical_check("q", "p")
        assert res.is_canonical
        assert res.W == Expr.const(0)

    def test_squared_coordinate_fails(self):
        res = canonical_check("q^2", "p")
        assert not res.is_canonical
        assert res.W is None

    def test_scaling_pair(self):
        res = canonical_check("2*q", "p/2")
        assert res.is_canonical

    def test_generating_function_differential(self):
        from skewform.exterior import ext_d, DiffForm, Chart

        res = canonical_check("p", "-q")
        chart = Chart(["q", "p"])
        assert ext_d(DiffForm.scalar(chart, res.W)) == res.sigma


class TestGreenCheck:
    def test_rotational_field(self):
        rep = green_check("-y", "x", grid_n=32)
        assert abs(rep.circulation - 2.0) < 1e-12
        assert abs(rep.area_integral - 2.0) < 1e-12

    def test_closed_field(self):
        rep = green_check("x^2", "y^2", grid_n=32)
        assert abs(rep.circulation) < 1e-12
        assert abs(rep.area_integral) < 1e-12

    def test_cubic_pair_at_256(self):
        rep = green_check("-y^3", "x^3", grid_n=256)
        assert abs(rep.circulation - 2.0) < 1e-8
        assert rep.abs_diff < 1e-8

    def test_simpson_fourth_order_rate(self):
        e128 = abs(green_check("-y^5", "x^5", grid_n=128).area_integral - 2.0)
        e256 = abs(green_check("-y^5", "x^5", grid_n=256).area_integral - 2.0)
        assert e256 > 0
        assert 8.0 <= e128 / e256 <= 32.0

    def test_cubic_pair_is_exact(self):
        # polynomial integrands are summed exactly from the Simpson moments,
        # and Simpson integrates cubics exactly
        rep = green_check("-y^3", "x^3", grid_n=256)
        assert rep.circulation == 2.0
        assert rep.abs_diff == 0.0

    def test_singular_integrand(self):
        with pytest.raises(CatalogError):
            green_check("1/x", "0", grid_n=16)

    def test_overflowing_integrand(self):
        with pytest.raises(CatalogError):
            green_check("exp(700*x)*exp(600*y)", "0", grid_n=16)

    def test_odd_grid_rejected(self):
        with pytest.raises(CatalogError):
            green_check("x", "y", grid_n=33)

    def test_transcendental_integrand(self):
        from skewform.symexpr import sin, cos

        # d(sin x cos y) field: circulation of a gradient vanishes
        x, y = Expr.var("x"), Expr.var("y")
        P = cos(x) * cos(y)
        Q = -sin(x) * sin(y)
        rep = green_check(P, Q, grid_n=64)
        assert abs(rep.circulation) < 1e-9
        assert rep.abs_diff < 1e-9

    def test_float_grid_matches_numpy_reference(self):
        np = pytest.importorskip("numpy")
        n = 64
        rep = green_check("-y*exp(x)", "x*sin(y)", grid_n=n)
        s = np.linspace(0.0, 1.0, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (1.0 / n) / 3.0
        # P(s, 0) = 0 on the bottom edge and Q(0, s) = 0 on the left one
        circulation = (np.sin(s) @ w) - (-np.exp(s) @ w)
        X, Y = np.meshgrid(s, s, indexing="ij")
        area = w @ (np.sin(Y) + np.exp(X)) @ w
        assert rep.area_integral != 0.0
        assert abs(rep.circulation - circulation) < 1e-12
        assert abs(rep.area_integral - area) < 1e-12


class TestEntries:
    def test_listing(self):
        names = [n for n, _ in list_entries()]
        assert "poincare-invariant" in names
        assert len(names) == len(set(names)) == 10

    @pytest.mark.parametrize("name", [n for n, _ in list_entries()])
    def test_entry_passes(self, name):
        rep = run_entry(name, seed=0)
        failed = [c for c in rep.checks if not c["ok"]]
        assert rep.passed, f"failed checks: {failed}"

    def test_unknown_entry(self):
        with pytest.raises(CatalogError):
            run_entry("nonexistent")

    def test_reports_deterministic(self):
        a = run_entry("poincare-invariant", seed=7).to_json()
        b = run_entry("poincare-invariant", seed=7).to_json()
        assert a == b
