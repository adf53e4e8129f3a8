import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from skewform import manifold
from skewform.symexpr import ZERO, Expr, all_zero, parse_expr, sin
from skewform.exterior import Chart, ChartError, DiffForm, FormError, ext_d, parse_form, commutator1
from skewform.manifold import (
    Connection,
    TorsionError,
    bianchi_first_check,
    covariant_deriv,
    evo_commutator,
    evo_d,
    riemann,
    torsion,
    _dense_coefficient,
)
from conftest import random_form, random_poly, random_symmetric_connection, random_connection

ch2 = Chart(["x", "y"])
ch3 = Chart(["x", "y", "z"])


def torsion_fixture():
    """a = (y, 0) against the single-entry connection G^1_{21} = x."""
    a = parse_form("y*d[x]", ch2)
    c = Connection.from_entries(ch2, {(1, 2, 1): "x"})
    return a, c


class TestCovariantDeriv:
    def test_zero_connection_is_plain_derivative(self):
        rng = random.Random(40)
        a = random_form(rng, ch2, 1)
        m = covariant_deriv(a, Connection.zero(ch2))
        for b in range(2):
            for al in range(2):
                assert m[b][al] == a.coefficient((b,)).diff(ch2.variables[al])

    def test_single_entry_fixture(self):
        a, c = torsion_fixture()
        m = covariant_deriv(a, c)
        assert m[0][1] == Expr.const(1)
        assert m[1][0] == parse_expr("x*y")

    def test_constant_form_zero_connection(self):
        a = parse_form("3*d[x] - 2*d[y]", ch2)
        m = covariant_deriv(a, Connection.zero(ch2))
        assert all(m[i][j].is_zero_struct() for i in range(2) for j in range(2))

    def test_chart_mismatch(self):
        a, _ = torsion_fixture()
        with pytest.raises(ChartError):
            covariant_deriv(a, Connection.zero(ch3))


class TestEvoCommutator:
    def test_symmetric_connection_reduces_to_commutator1(self):
        rng = random.Random(41)
        for _ in range(20):
            a = random_form(rng, ch2, 1, max_total_deg=3)
            c = random_symmetric_connection(rng, ch2, max_total_deg=2)
            K = evo_commutator(a, c)
            K0 = commutator1(a)
            for i in range(2):
                for j in range(2):
                    assert K[i][j] == K0[i][j]

    def test_torsion_fixture_component(self):
        a, c = torsion_fixture()
        K = evo_commutator(a, c)
        assert K[0][1] == parse_expr("-1 + x*y")

    def test_zero_form_zero_commutator(self):
        _, c = torsion_fixture()
        K = evo_commutator(DiffForm.zero(ch2, 1), c)
        assert all(K[i][j].is_zero_struct() for i in range(2) for j in range(2))

    def test_antisymmetry_randomized(self):
        rng = random.Random(42)
        for _ in range(15):
            a = random_form(rng, ch3, 1, max_total_deg=2)
            c = random_connection(rng, ch3, max_total_deg=1)
            K = evo_commutator(a, c)
            for i in range(3):
                for j in range(3):
                    assert K[i][j] == -K[j][i]

    def test_matches_covariant_antisymmetrization(self):
        rng = random.Random(43)
        for _ in range(15):
            a = random_form(rng, ch2, 1, max_total_deg=2)
            c = random_connection(rng, ch2, max_total_deg=2)
            K = evo_commutator(a, c)
            m = covariant_deriv(a, c)
            for al in range(2):
                for b in range(2):
                    assert K[al][b] == m[b][al] - m[al][b]


def _oracle_commutator1(a):
    """commutator1 as an explicit derivative loop, kept as the oracle."""
    chart = a.chart
    comps = [a.coefficient((i,)) for i in range(chart.dim)]
    K = [[ZERO] * chart.dim for _ in range(chart.dim)]
    for i in range(chart.dim):
        for j in range(chart.dim):
            if i == j:
                continue
            K[i][j] = comps[j].diff(chart.variables[i]) - comps[i].diff(chart.variables[j])
    return K


def _oracle_evo_commutator(a, c):
    """evo_commutator as the antisymmetrized covariant derivative, kept as the oracle."""
    nabla = covariant_deriv(a, c)
    n = a.chart.dim
    return [[nabla[b][al] - nabla[al][b] for b in range(n)] for al in range(n)]


def _oracle_dense_coefficient(a, idx):
    """_dense_coefficient by counting the inversions of the sorting permutation."""
    if len(set(idx)) != len(idx):
        return ZERO
    order = sorted(range(len(idx)), key=lambda k: idx[k])
    inversions = sum(
        1 for i in range(len(order)) for j in range(i + 1, len(order)) if order[i] > order[j]
    )
    coeff = a.terms.get(tuple(sorted(idx)))
    if coeff is None:
        return ZERO
    return -coeff if inversions % 2 else coeff


def _rational_form(rng, chart, degree):
    """A random form whose coefficients have atoms and denominators, so the
    canonical text of a commutator entry is not a plain polynomial."""
    a = random_form(rng, chart, degree, max_total_deg=2)
    last = Expr.var(chart.variables[-1])
    extra = sin(random_poly(rng, chart.variables, max_terms=2, max_total_deg=2)) / (last ** 2 + rng.randint(1, 5))
    return a + random_form(rng, chart, degree, density=0.5, max_total_deg=1).scale(extra)


class TestCommutatorsReadOffD:
    """commutator1 and evo_commutator read K off ext_d and evo_d: the same
    matrices, by == and by text, as the explicit formulas."""

    CHARTS = [Chart(["x", "y"]), Chart(["x", "y", "z"]), Chart(["x", "y", "z", "w"])]

    def cases(self, seed, count):
        rng = random.Random(seed)
        for k in range(count):
            chart = self.CHARTS[k % 3]
            a = _rational_form(rng, chart, 1)
            if k % 2:
                c = random_symmetric_connection(rng, chart, max_terms=2, max_total_deg=1)
            else:
                c = random_connection(rng, chart, max_terms=2, max_total_deg=1)
            yield a, c

    @staticmethod
    def assert_same(K, want):
        assert K == want
        assert [[str(e) for e in row] for row in K] == [[str(e) for e in row] for row in want]

    def test_commutator1_matches_derivative_loop(self):
        for a, _ in self.cases(44, 30):
            self.assert_same(commutator1(a), _oracle_commutator1(a))

    def test_evo_commutator_matches_covariant_antisymmetrization(self):
        for a, c in self.cases(45, 30):
            self.assert_same(evo_commutator(a, c), _oracle_evo_commutator(a, c))

    def test_degree_and_chart_guards(self):
        a2 = parse_form("x*d[x]^d[y]", ch2)
        with pytest.raises(FormError, match=r"^commutator of a degree-2 form \(expected degree 1\)$"):
            commutator1(a2)
        with pytest.raises(FormError, match=r"^evo_commutator expects a 1-form, got degree 2$"):
            evo_commutator(a2, Connection.zero(ch2))
        with pytest.raises(FormError, match=r"^evo_commutator expects a 1-form, got degree 0$"):
            evo_commutator(DiffForm.scalar(ch2, Expr.var("x")), Connection.zero(ch2))
        with pytest.raises(FormError, match=r"^covariant_deriv expects a 1-form, got degree 2$"):
            covariant_deriv(a2, Connection.zero(ch2))
        with pytest.raises(ChartError, match=r"^chart mismatch"):
            evo_commutator(parse_form("y*d[x]", ch2), Connection.zero(ch3))

    def test_dense_coefficient_sign_matches_inversion_count(self):
        rng = random.Random(46)
        ch4 = self.CHARTS[2]
        for p in range(1, 5):
            a = random_form(rng, ch4, p, max_total_deg=2)
            for _ in range(40):
                idx = tuple(rng.randrange(4) for _ in range(p))
                assert _dense_coefficient(a, idx) == _oracle_dense_coefficient(a, idx)


class TestEvoD:
    def test_degree1_symmetric_equals_ext_d(self):
        rng = random.Random(44)
        for _ in range(15):
            a = random_form(rng, ch2, 1, max_total_deg=3)
            c = random_symmetric_connection(rng, ch2, max_total_deg=2)
            assert evo_d(a, c) == ext_d(a)

    def test_torsion_fixture_sign(self):
        a, c = torsion_fixture()
        assert evo_d(a, c) == parse_form("(-1 + x*y) * d[x]^d[y]", ch2)

    def test_zero_form_has_no_basis_term(self):
        _, c = torsion_fixture()
        f = DiffForm.scalar(ch2, parse_expr("x^2*y"))
        assert evo_d(f, c) == ext_d(f)

    def test_higher_degree_torsion_free_randomized(self):
        rng = random.Random(45)
        for _ in range(10):
            a = random_form(rng, ch3, 2, max_total_deg=2)
            c = random_symmetric_connection(rng, ch3, max_total_deg=1)
            assert evo_d(a, c) == ext_d(a)

    def test_depends_only_on_torsion(self):
        # the basis term is linear in the connection and kills symmetric
        # parts, so any connection and its antisymmetric half agree
        rng = random.Random(52)
        half = Expr.const(Fraction(1, 2))
        for degree in (1, 2):
            for _ in range(6):
                a = random_form(rng, ch3, degree, max_total_deg=2)
                c = random_connection(rng, ch3, max_total_deg=1)
                anti = Connection(
                    ch3,
                    [
                        [
                            [
                                half * (c.gamma[s][i][j] - c.gamma[s][j][i])
                                for j in range(3)
                            ]
                            for i in range(3)
                        ]
                        for s in range(3)
                    ],
                )
                assert evo_d(a, c) == evo_d(a, anti)


class TestTorsion:
    def test_symmetric_is_torsion_free(self):
        rng = random.Random(46)
        c = random_symmetric_connection(rng, ch2)
        T = torsion(c)
        assert all(
            T[s][a][b].is_zero_struct() for s in range(2) for a in range(2) for b in range(2)
        )

    def test_single_entry(self):
        _, c = torsion_fixture()
        T = torsion(c)
        assert T[0][0][1] == parse_expr("x")
        assert T[0][1][0] == parse_expr("-x")

    def test_zero_connection(self):
        T = torsion(Connection.zero(ch2))
        assert all(
            T[s][a][b].is_zero_struct() for s in range(2) for a in range(2) for b in range(2)
        )

    def test_antisymmetry_randomized(self):
        rng = random.Random(47)
        c = random_connection(rng, ch3)
        T = torsion(c)
        for s in range(3):
            for a in range(3):
                for b in range(3):
                    assert T[s][a][b] == -T[s][b][a]


def _fd_riemann(c, point, h=1e-4):
    """Finite-difference curvature oracle: central differences on the
    connection coefficients, products evaluated at the point."""
    chart = c.chart
    n = chart.dim

    def gamma_at(pt):
        return np.array(
            [[[float(c.gamma[s][a][b].eval(pt)) for b in range(n)] for a in range(n)] for s in range(n)]
        )

    g0 = gamma_at(point)
    dgamma = np.zeros((n, n, n, n))  # [mu][s][a][b] = d Gamma^s_ab / dx^mu
    for mu, name in enumerate(chart.variables):
        up = dict(point)
        dn = dict(point)
        up[name] = point[name] + h
        dn[name] = point[name] - h
        dgamma[mu] = (gamma_at(up) - gamma_at(dn)) / (2 * h)
    R = np.zeros((n, n, n, n))
    for r in range(n):
        for s in range(n):
            for mu in range(n):
                for nu in range(n):
                    val = dgamma[mu][r][nu][s] - dgamma[nu][r][mu][s]
                    for lam in range(n):
                        val += g0[r][mu][lam] * g0[lam][nu][s] - g0[r][nu][lam] * g0[lam][mu][s]
                    R[r][s][mu][nu] = val
    return R


class TestRiemann:
    def test_zero_connection(self):
        R = riemann(Connection.zero(ch2))
        assert all(
            R[a][b][m][n].is_zero_struct()
            for a in range(2)
            for b in range(2)
            for m in range(2)
            for n in range(2)
        )

    def test_constant_connection_quadratic_terms(self):
        c = Connection.from_entries(ch2, {(1, 2, 2): 1, (2, 1, 1): 1})
        R = riemann(c)
        # R^1_{112} = G^1_{1l}G^l_{21} - G^1_{2l}G^l_{11} with only G^1_{22}, G^2_{11} nonzero
        assert R[0][0][0][1] == Expr.const(-1)
        assert R[0][0][1][0] == Expr.const(1)

    def test_finite_difference_oracle(self):
        rng = random.Random(48)
        c = Connection.from_entries(
            ch2, {(1, 1, 1): "x*y", (1, 2, 2): "x^2 - y", (2, 1, 2): "y^2", (2, 2, 1): "x"}
        )
        R = riemann(c)
        for _ in range(10):
            point = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
            fd = _fd_riemann(c, point)
            for r in range(2):
                for s in range(2):
                    for mu in range(2):
                        for nu in range(2):
                            sym = float(R[r][s][mu][nu].eval(point))
                            assert abs(sym - fd[r][s][mu][nu]) < 1e-6

    def test_antisymmetry_in_last_pair(self):
        rng = random.Random(49)
        c = random_connection(rng, ch3, max_total_deg=2)
        R = riemann(c)
        for r in range(3):
            for s in range(3):
                for mu in range(3):
                    for nu in range(3):
                        assert R[r][s][mu][nu] == -R[r][s][nu][mu]


class TestBianchi:
    def test_zero_connection(self):
        assert bianchi_first_check(Connection.zero(ch3))

    def test_randomized_symmetric(self):
        rng = random.Random(50)
        for _ in range(10):
            dim = rng.choice([2, 3])
            chart = ch2 if dim == 2 else ch3
            c = random_symmetric_connection(rng, chart, max_total_deg=2)
            assert bianchi_first_check(c)

    def test_torsion_guard(self):
        _, c = torsion_fixture()
        with pytest.raises(TorsionError):
            bianchi_first_check(c)


def _oracle_riemann(c):
    """riemann with every (mu, nu) computed, kept as the oracle."""
    chart = c.chart
    n = chart.dim
    out = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for s in range(n):
            for mu in range(n):
                for nu in range(n):
                    if mu == nu:
                        continue
                    val = c.gamma[r][nu][s].diff(chart.variables[mu]) - c.gamma[r][mu][s].diff(
                        chart.variables[nu]
                    )
                    for lam in range(n):
                        t1 = c.gamma[r][mu][lam] * c.gamma[lam][nu][s]
                        t2 = c.gamma[r][nu][lam] * c.gamma[lam][mu][s]
                        val = val + t1 - t2
                    out[r][s][mu][nu] = val
    return out


def _oracle_bianchi_sums(c):
    """Every cyclic sum, over all index orders."""
    R = _oracle_riemann(c)
    return [
        R[r][s][mu][nu] + R[r][mu][nu][s] + R[r][nu][s][mu]
        for r, s, mu, nu in product(range(c.chart.dim), repeat=4)
    ]


def _rational_connection(rng, chart, symmetric):
    """A connection whose entries have atoms and denominators."""
    n = chart.dim
    c = (random_symmetric_connection if symmetric else random_connection)(rng, chart, max_terms=2, max_total_deg=1)
    gamma = [[list(row) for row in plane] for plane in c.gamma]
    last = Expr.var(chart.variables[-1])
    s, a, b = (rng.randrange(n) for _ in range(3))
    extra = sin(Expr.var(chart.variables[0])) / (last ** 2 + rng.randint(1, 5))
    gamma[s][a][b] = gamma[s][a][b] + extra
    if symmetric:
        gamma[s][b][a] = gamma[s][a][b]
    return Connection(chart, gamma)


class TestCurvatureSymmetries:
    """riemann computes each m < n once and negates it for n > m, and
    bianchi_first_check tests increasing triples only: the same tensor, by
    == and by text, as every (m, n) computed, and the same verdict."""

    CHARTS = TestCommutatorsReadOffD.CHARTS

    def cases(self, seed, count):
        rng = random.Random(seed)
        for k in range(count):
            yield _rational_connection(rng, self.CHARTS[k % 3], symmetric=k % 2 == 1)

    def test_riemann_matches_every_pair_computed(self):
        for c in self.cases(142, 12):
            got, want = riemann(c), _oracle_riemann(c)
            assert got == want
            assert str(got) == str(want)

    def test_bianchi_matches_every_cyclic_sum(self):
        for c in self.cases(143, 6):
            if c.is_symmetric():
                assert bianchi_first_check(c) is all_zero(_oracle_bianchi_sums(c)).value is True

    def test_bianchi_sees_one_failing_increasing_triple(self, monkeypatch):
        rng = random.Random(144)
        ch4 = self.CHARTS[2]
        c = random_symmetric_connection(rng, ch4, max_terms=2, max_total_deg=1)
        component = manifold._riemann_component
        for r, (s, mu, nu) in [(0, (0, 1, 2)), (3, (0, 2, 3)), (3, (1, 2, 3))]:
            # R^r_{s mu nu} + x, so the cyclic sum on (s, mu, nu) is x
            def faulty(c_, *index, bad=(r, s, mu, nu)):
                return component(c_, *index) + (Expr.var("x") if index == bad else ZERO)

            monkeypatch.setattr(manifold, "_riemann_component", faulty)
            assert bianchi_first_check(c) is False
        monkeypatch.setattr(manifold, "_riemann_component", component)
        assert bianchi_first_check(c) is True

    @pytest.mark.parametrize("k", range(3))
    def test_bianchi_builds_only_the_components_it_reads(self, monkeypatch, k):
        component = manifold._riemann_component
        asked = []

        def counted(c_, *index):
            asked.append(index)
            return component(c_, *index)

        monkeypatch.setattr(manifold, "_riemann_component", counted)
        chart = self.CHARTS[k]
        n = chart.dim
        c = random_symmetric_connection(random.Random(145 + k), chart, max_terms=2, max_total_deg=1)
        assert bianchi_first_check(c) is True
        pairs = list(combinations(range(n), 2))
        want = [(r, f, a, b) for r in range(n) for f in range(n) for a, b in pairs if f not in (a, b)]
        assert sorted(asked) == want
        assert len(asked) == {2: 0, 3: 9, 4: 48}[n]
        asked.clear()
        rng = random.Random(148 + k)
        torsionful = torsion_fixture()[1] if n == 2 else random_connection(rng, chart, max_terms=2, max_total_deg=1)
        with pytest.raises(TorsionError):
            bianchi_first_check(torsionful)
        assert asked == []


class TestConnectionConstruction:
    def test_from_entries_bounds(self):
        with pytest.raises(ChartError):
            Connection.from_entries(ch2, {(3, 1, 1): "x"})

    def test_from_json(self):
        doc = {"chart": ["x", "y"], "entries": [{"indices": [1, 2, 1], "coeff": "x"}]}
        c = Connection.from_json(doc)
        assert c[(0, 1, 0)] == parse_expr("x")
        assert c[(0, 0, 1)].is_zero_struct()

    def test_is_symmetric(self):
        rng = random.Random(51)
        assert random_symmetric_connection(rng, ch2).is_symmetric()
        _, c = torsion_fixture()
        assert not c.is_symmetric()
