import math
import random
from fractions import Fraction

import pytest

from skewform import exterior, relations
from skewform.symexpr import Expr, all_zero, parse_expr
from skewform.exterior import (
    Chart,
    ChartError,
    DiffForm,
    FormError,
    NotClosedError,
    ext_d,
    form_to_text,
    parse_form,
)
from skewform.duality import Metric
from skewform.relations import (
    CLOSED_RHS,
    IDENTICAL,
    NONIDENTICAL,
    Pseudostructure,
    Relation,
    RelationError,
    classify,
    classify_on,
    degenerate_scan,
    dual_closure_on,
    induced_metric,
    integrate_chain,
    interior_d,
    poisson_bracket,
    pullback,
)
from conftest import random_form, random_poly

amb3 = Chart(["t", "q", "p"])
ch2 = Chart(["x", "y"])
par1 = Chart(["u"])
par2 = Chart(["u", "v"])
x, y, u = Expr.var("x"), Expr.var("y"), Expr.var("u")


def poincare_setup():
    omega = parse_form("p*d[q] - (p^2/2)*d[t]", amb3)
    relation = Relation(DiffForm.zero(amb3, 0), omega)
    traj = Pseudostructure(
        amb3,
        Chart(["u", "c"]),
        {"t": Expr.var("u"), "q": Expr.var("c") * Expr.var("u"), "p": Expr.var("c")},
    )
    return relation, traj


def _two_degree_setup():
    chart = Chart(["x", "y", "z", "w"])
    params = Chart(["u", "v", "s"])
    psi = random_form(random.Random(77), chart, 1, max_total_deg=2)
    mapping = {
        "x": Expr.var("u"),
        "y": Expr.var("v"),
        "z": Expr.var("s"),
        "w": Expr.var("u") * Expr.var("v"),
    }
    return Relation(psi, ext_d(psi)), Pseudostructure(chart, params, mapping)


def random_pseudo(rng, ambient, params):
    mapping = {}
    for i, name in enumerate(ambient.variables):
        base = Expr.var(params.variables[i % params.dim])
        mapping[name] = base + random_poly(rng, params.variables, max_terms=2, max_total_deg=2)
    return Pseudostructure(ambient, params, mapping)


class TestPseudostructure:
    def test_dimension_guard(self):
        with pytest.raises(ChartError):
            Pseudostructure(ch2, ch2, {"x": x, "y": y})

    def test_missing_component(self):
        with pytest.raises(ChartError):
            Pseudostructure(ch2, par1, {"x": u})

    def test_rank_deficient_rejected(self):
        with pytest.raises(RelationError):
            Pseudostructure(Chart(["x", "y", "z"]), par2, {"x": u, "y": u, "z": Expr.const(1)})

    def test_rank_check_passes_curved(self):
        Pseudostructure(ch2, par1, {"x": u, "y": u ** 2})

    def test_rank_is_exact_for_rational_maps(self):
        # a float tolerance once judged this tiny but nonzero Jacobian rank 0
        Pseudostructure(ch2, par1, {"x": parse_expr("u/10000000000"), "y": parse_expr("0")})

    def test_rank_with_atoms_uses_float_fallback(self):
        Pseudostructure(ch2, par1, {"x": parse_expr("sin(u)"), "y": u})
        with pytest.raises(RelationError):
            Pseudostructure(Chart(["x", "y", "z"]), par2, {"x": parse_expr("sin(u)"), "y": parse_expr("2*sin(u)"), "z": u})

    def test_rank_with_atoms_rejects_rounded_rank_one_jacobian(self):
        # every row of the Jacobian is a multiple of (v, u): generic rank 1,
        # though the rounded float entries make J^T J nonsingular
        mapping = {"x": parse_expr("sin(u*v)"), "y": parse_expr("cos(u*v)"), "z": parse_expr("u*v")}
        with pytest.raises(RelationError):
            Pseudostructure(Chart(["x", "y", "z"]), par2, mapping)


class TestPullback:
    def test_degenerate_line(self):
        s = Pseudostructure(ch2, par1, {"x": u, "y": u})
        assert pullback(parse_form("d[x]^d[y]", ch2), s).is_zero_form()

    def test_poincare_restriction(self):
        relation, traj = poincare_setup()
        restricted = pullback(relation.omega, traj)
        expected = parse_form("(c^2/2)*d[u] + c*u*d[c]", Chart(["u", "c"]))
        assert restricted == expected

    def test_scalar_composition(self):
        s = Pseudostructure(ch2, par1, {"x": u ** 2, "y": u})
        f = DiffForm.scalar(ch2, x * y)
        assert pullback(f, s).as_scalar() == u ** 3

    def test_chart_mismatch(self):
        s = Pseudostructure(ch2, par1, {"x": u, "y": u ** 2})
        other = DiffForm.basis(Chart(["a", "b"]), "a")
        with pytest.raises(ChartError):
            pullback(other, s)

    def test_linear(self):
        rng = random.Random(70)
        s = random_pseudo(rng, ch2, par1)
        a = random_form(rng, ch2, 1)
        b = random_form(rng, ch2, 1)
        assert pullback(a + b, s) == pullback(a, s) + pullback(b, s)

    def test_commutes_with_wedge(self):
        from skewform.exterior import wedge

        rng = random.Random(71)
        amb = Chart(["x", "y", "z"])
        s = random_pseudo(rng, amb, par2)
        a = random_form(rng, amb, 1, max_total_deg=2)
        b = random_form(rng, amb, 1, max_total_deg=2)
        assert pullback(wedge(a, b), s) == wedge(pullback(a, s), pullback(b, s))


class TestInteriorD:
    def test_closed_ambient_restricts_closed(self):
        rng = random.Random(72)
        s = random_pseudo(rng, ch2, par1)
        beta = random_form(rng, ch2, 0)
        assert interior_d(ext_d(beta), s).is_zero_form()

    def test_chain_rule_scalar(self):
        s = Pseudostructure(ch2, par1, {"x": u ** 2, "y": Expr.const(0)})
        a = DiffForm.scalar(ch2, x)
        assert interior_d(a, s) == DiffForm(par1, 1, {(0,): 2 * u})

    def test_naturality_on_trajectory_family(self):
        chart = Chart(["t", "q", "p"])
        params = Chart(["s", "c"])
        fam = Pseudostructure(
            chart,
            params,
            {"t": Expr.var("s"), "q": Expr.var("c") * Expr.var("s"), "p": Expr.var("c")},
        )
        omega = parse_form("p*d[q] - (p^3/3)*d[t]", chart)
        assert interior_d(omega, fam) == pullback(ext_d(omega), fam)

    def test_naturality_randomized(self):
        rng = random.Random(73)
        amb = Chart(["x", "y", "z"])
        for _ in range(25):
            s = random_pseudo(rng, amb, par2)
            a = random_form(rng, amb, rng.randint(0, 2), max_total_deg=2)
            assert interior_d(a, s) == pullback(ext_d(a), s)


class TestClassify:
    def test_identical_by_construction(self):
        rng = random.Random(74)
        for _ in range(10):
            psi = random_form(rng, ch2, 0)
            v = classify(Relation(psi, ext_d(psi)))
            assert v.classification == IDENTICAL
            assert v.residual.is_zero_form()

    def test_closed_rhs(self):
        v = classify(Relation(DiffForm.zero(ch2, 0), parse_form("y*d[x] + x*d[y]", ch2)))
        assert v.classification == CLOSED_RHS
        assert v.commutator.is_zero_form()
        assert not v.residual.is_zero_form()

    def test_nonidentical(self):
        v = classify(Relation(DiffForm.zero(ch2, 0), parse_form("-y*d[x] + x*d[y]", ch2)))
        assert v.classification == NONIDENTICAL
        assert v.commutator == parse_form("2*d[x]^d[y]", ch2)

    def test_nonidentical_iff_unclosed_randomized(self):
        from skewform.exterior import is_closed

        rng = random.Random(75)
        for _ in range(20):
            omega = random_form(rng, ch2, 1)
            v = classify(Relation(DiffForm.zero(ch2, 0), omega))
            assert (v.classification == NONIDENTICAL) == (not is_closed(omega))

    def test_degree_mismatch(self):
        with pytest.raises(RelationError):
            Relation(DiffForm.zero(ch2, 0), parse_form("d[x]^d[y]", ch2))

    def test_verdict_json(self):
        v = classify(Relation(DiffForm.zero(ch2, 0), parse_form("x*d[y]", ch2)))
        doc = v.to_json()
        assert doc["classification"] == NONIDENTICAL
        assert doc["pi_closure"] is None
        assert doc["probabilistic"] is False


class TestClassifyOn:
    def test_poincare_narrative(self):
        relation, traj = poincare_setup()
        ambient = classify(relation)
        assert ambient.classification == NONIDENTICAL
        v = classify_on(relation, traj)
        assert v.classification == CLOSED_RHS
        assert v.pi_closure is True

    def test_identical_stays_identical(self):
        rng = random.Random(76)
        for _ in range(10):
            psi = random_form(rng, ch2, 0)
            s = random_pseudo(rng, ch2, par1)
            v = classify_on(Relation(psi, ext_d(psi)), s)
            assert v.classification == IDENTICAL
            assert v.pi_closure is True

    def test_violating_pseudostructure(self):
        chart = Chart(["x", "y", "z"])
        omega = parse_form("-y*d[x] + x*d[y]", chart)
        s = Pseudostructure(
            chart, par2, {"x": u, "y": Expr.var("v"), "z": u + Expr.var("v")}
        )
        v = classify_on(Relation(DiffForm.zero(chart, 0), omega), s)
        assert v.classification == NONIDENTICAL
        assert v.pi_closure is False

    @pytest.mark.parametrize(
        "omega_text, mapping",
        [
            ("-y*d[x] + x*d[y]", {"x": "u", "y": "v", "z": "u + v"}),
            ("sin(z)*d[x] + x*d[y]", {"x": "u*v", "y": "v", "z": "u"}),
            ("y*d[x] + x*d[y] + exp(z)*d[z]", {"x": "u", "y": "v^2", "z": "u - v"}),
        ],
    )
    def test_closure_of_omega_pi_tested_once(self, monkeypatch, omega_text, mapping):
        chart = Chart(["x", "y", "z"])
        s = Pseudostructure(chart, par2, {k: parse_expr(v) for k, v in mapping.items()})
        r = Relation(DiffForm.zero(chart, 0), parse_form(omega_text, chart))
        d_omega_pi = list(ext_d(pullback(r.omega, s)).terms.values())
        tested = []

        def recording_all_zero(exprs, seed=0):
            exprs = list(exprs)
            tested.append(exprs)
            return all_zero(exprs, seed)

        monkeypatch.setattr(relations, "all_zero", recording_all_zero)
        v = classify_on(r, s, seed=3)
        assert sum(1 for exprs in tested if exprs == d_omega_pi) == 1
        closure = all_zero(d_omega_pi, 3)
        assert v.pi_closure is closure.value
        assert v.probabilistic == (all_zero(list(v.residual.terms.values()), 3).probabilistic or closure.probabilistic)


class TestIntegrateChain:
    def test_poincare_chain(self):
        relation, traj = poincare_setup()
        steps = integrate_chain(relation, traj)
        assert len(steps) == 1
        assert steps[0].degree == 0
        assert steps[0].right.as_scalar() == parse_expr("c^2*u/2")
        assert ext_d(steps[0].right) == pullback(relation.omega, traj)

    @pytest.mark.parametrize("setup", [poincare_setup, _two_degree_setup])
    def test_each_right_side_tested_closed_once(self, monkeypatch, setup):
        relation, s = setup()
        real_is_closed = relations.is_closed
        seen = []

        def counting_is_closed(form, seed=0):
            seen.append(form_to_text(form))
            return real_is_closed(form, seed)

        monkeypatch.setattr(relations, "is_closed", counting_is_closed)
        monkeypatch.setattr(exterior, "is_closed", counting_is_closed)
        steps = integrate_chain(relation, s)
        assert len(seen) == len(set(seen)) == len(steps) + 1  # the entry form and each difference
        if setup is poincare_setup:
            assert seen[0] == "1/2*c^2 * d[u] + c*u * d[c]"

    def test_nonpolynomial_restriction_raises(self):
        omega = parse_form("sin(x)*d[x]", ch2)
        s = Pseudostructure(ch2, par1, {"x": u, "y": u ** 2})
        with pytest.raises(FormError, match=r"^homotopy antiderivative needs polynomial coefficients$"):
            integrate_chain(Relation(DiffForm.zero(ch2, 0), omega), s)

    def test_identical_chain_closed_difference(self):
        psi = DiffForm.scalar(ch2, x * y)
        relation = Relation(psi, ext_d(psi))
        s = Pseudostructure(ch2, par1, {"x": u, "y": u ** 2})
        steps = integrate_chain(relation, s)
        assert steps and all(st.difference_closed for st in steps)
        assert ext_d(steps[0].difference).is_zero_form()

    def test_max_steps_zero(self):
        relation, traj = poincare_setup()
        assert integrate_chain(relation, traj, max_steps=0) == []

    def test_unclosed_restriction_raises(self):
        chart = Chart(["x", "y", "z"])
        omega = parse_form("-y*d[x] + x*d[y]", chart)
        s = Pseudostructure(chart, par2, {"x": u, "y": Expr.var("v"), "z": Expr.const(0)})
        with pytest.raises(NotClosedError):
            integrate_chain(Relation(DiffForm.zero(chart, 0), omega), s)

    def test_two_degree_descent(self):
        relation, s = _two_degree_setup()
        steps = integrate_chain(relation, s)
        degrees = [st.degree for st in steps]
        assert degrees == sorted(degrees, reverse=True)
        assert degrees[-1] == 0
        # an identical entry relation always has a closed first difference;
        # deeper steps restart from a zero left side, where only the
        # antiderivative identity d(right) = omega is guaranteed
        assert steps[0].difference_closed
        omega = pullback(relation.omega, s)
        for st in steps:
            assert ext_d(st.right) == omega
            omega = st.left - st.right


class TestDegenerateScan:
    def test_poisson_bracket_example(self):
        chart = Chart(["q", "p"])
        rep = degenerate_scan(
            [parse_expr("q^2 + p^2"), parse_expr("q*p")], "poisson", chart, pairing=[("q", "p")]
        )
        assert rep.expression == parse_expr("2*(q^2 - p^2)")
        assert not rep.identically_zero
        assert rep.zero_points
        for pt in rep.zero_points:
            assert abs(abs(pt["q"]) - abs(pt["p"])) < 1e-6

    def test_poisson_self_bracket(self):
        chart = Chart(["q", "p"])
        f = parse_expr("q^3*p - p^2")
        rep = degenerate_scan([f, f], "poisson", chart, pairing=[("q", "p")])
        assert rep.identically_zero

    def test_poisson_antisymmetry_randomized(self):
        chart = Chart(["q", "p"])
        rng = random.Random(78)
        for _ in range(15):
            f = random_poly(rng, ["q", "p"])
            g = random_poly(rng, ["q", "p"])
            bracket_sum = poisson_bracket(f, g, [("q", "p")]) + poisson_bracket(g, f, [("q", "p")])
            assert bracket_sum.is_zero_struct()

    def test_poisson_bilinearity_randomized(self):
        chart = Chart(["q", "p"])
        rng = random.Random(79)
        pairing = [("q", "p")]
        for _ in range(10):
            f1 = random_poly(rng, ["q", "p"])
            f2 = random_poly(rng, ["q", "p"])
            g = random_poly(rng, ["q", "p"])
            lhs = poisson_bracket(f1 + f2, g, pairing)
            assert lhs == poisson_bracket(f1, g, pairing) + poisson_bracket(f2, g, pairing)

    def test_hessian_determinant(self):
        rep = degenerate_scan([[parse_expr("2*qdot")]], "determinant", Chart(["qdot"]))
        assert rep.expression == parse_expr("2*qdot")
        assert rep.zero_points
        for pt in rep.zero_points:
            assert abs(2 * pt["qdot"]) < 1e-9

    def test_jacobian_shape_guard(self):
        with pytest.raises(RelationError):
            degenerate_scan([parse_expr("x")], "jacobian", ch2)

    def test_jacobian_constant(self):
        rep = degenerate_scan([x + y, x - y], "jacobian", ch2)
        assert rep.expression == Expr.const(-2)
        assert not rep.identically_zero
        assert rep.zero_points == []

    def test_poisson_needs_pairing(self):
        with pytest.raises(RelationError):
            degenerate_scan([x, y], "poisson", ch2)

    def test_seed_reproducibility(self):
        chart = Chart(["q", "p"])
        args = ([parse_expr("q^2 + p^2"), parse_expr("q*p")], "poisson", chart)
        r1 = degenerate_scan(*args, pairing=[("q", "p")], seed=7)
        r2 = degenerate_scan(*args, pairing=[("q", "p")], seed=7)
        assert r1.to_json() == r2.to_json()

    def test_even_order_locus_yields_points(self):
        """3 (x + y - 1)^2 (x - 2y)^2 never changes sign, so a sign-change
        search finds none of its zeros; the exact path restricts its
        squarefree part and finds them.  Each point is checked exactly."""
        F = parse_expr("3*(x+y-1)^2*(x-2*y)^2")
        rep = degenerate_scan([[F]], "determinant", ch2, seed=5)
        assert rep.zero_points
        for pt in rep.zero_points:
            assert abs(F.eval({v: Fraction(c) for v, c in pt.items()})) <= rep.tol

    def test_squarefree_part(self):
        F = parse_expr("3*(x+y-1)^2*(x-2*y)^3*(x+1)")
        ratio = Expr.make(relations._squarefree_part(F.num)) / parse_expr("(x+y-1)*(x-2*y)*(x+1)")
        assert ratio.is_rational_constant()

    def test_rational_F_scans_its_numerator(self):
        rep = degenerate_scan([[parse_expr("x/(x*y - 1)")]], "determinant", ch2, seed=3)
        assert rep.zero_points
        assert all(abs(pt["x"]) < 1e-9 for pt in rep.zero_points)

    def test_line_restriction_matches_subst(self):
        """U(t) = L 1000^d p(x(t)) on x_i(t) = (B_i + (10t - 5) D_i) / 1000,
        by Kronecker substitution, against Expr.subst of the line."""
        rng = random.Random(91)
        names = ["x", "y", "z"]
        t = Expr.var("t")
        for _ in range(20):
            F = random_poly(rng, names, max_terms=5, max_total_deg=5, coeff_range=9) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            F = F + Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * random_poly(rng, names)
            if F.is_rational_constant():
                continue
            restrict = relations._line_restriction(F.num, names)
            for _ in range(3):
                B = [rng.randint(-3000, 3000) for _ in names]
                D = [rng.randint(-1000, 1000) for _ in names]
                line = {v: Expr.const(Fraction(b - 5 * d, 1000)) + Expr.const(Fraction(10 * d, 1000)) * t for v, b, d in zip(names, B, D)}
                scale = math.lcm(*(c.denominator for c in F.num.terms.values())) * 1000 ** F.num.total_degree()
                U = sum((Expr.const(c) * t ** k for k, c in enumerate(restrict(B, D))), Expr.const(0))
                assert U == F.subst(line) * scale

    @pytest.mark.parametrize(
        "u, root",
        [
            ([-2, 15, -36, 27], 1 / 3),  # (3t - 1)^2 (3t - 2): a repeated root first
            ([2, -15, 36, -27], 1 / 3),  # its negative
            ([-3, 5, 2], 0.5),  # (2t - 1)(t + 3): a root on the first split point
            ([1, -4, 4], 0.5),  # (2t - 1)^2, on a split point and repeated
            ([0, -1, 3], 0.0),  # t (3t - 1): a root at t = 0
            ([1, 0, 1], None),  # t^2 + 1: no real root
            ([2, -3, 1], None),  # (t - 1)(t - 2): t = 1 lies outside [0, 1)
            ([-1, 5, -7, 3], 1 / 3),  # (3t - 1)(t - 1)^2: the repeated root at t = 1 is deflated
            ([-1, 0, 2], 2 ** -0.5),  # 2t^2 - 1: an irrational root, isolated and refined
            ([0, 0, 0], 0.0),  # U = 0: the line lies in the locus
            ([7], None),
        ],
    )
    def test_first_root(self, u, root):
        found = relations._first_root(u, lambda s: 0.0, 1.0)  # (s, 0.0), s = -5 + 10t
        assert found == root if root is None else abs((found[0] + 5) / 10 - root) < 1e-12

    def test_refused_roots_are_isolated_again(self):
        """A degree-12 Jacobian: near some of its roots the float values of a
        wide node's polynomial round too coarsely for |F| < tol at the refined
        point.  Isolating such a root again in smaller nodes keeps 54 of the
        64 lines' points at seed 2; refining once kept 35."""
        fs = [parse_expr("-x^6*y - x^4*y^3 + 3*x^2*y^3 - 2*x^3*y + 2*x*y + 3*x + 2"), parse_expr("-2*x^6*y - x^4*y^3 - x*y^3 - 2*x^2*y + 1")]
        rep = degenerate_scan(fs, "jacobian", ch2, seed=2)
        assert rep.expression.num.total_degree() == 12
        assert len(rep.zero_points) >= 50

    def test_illinois_halves_the_kept_end(self):
        """s^3 - 1e-3 on [0, 10] is convex: plain regula falsi keeps s = 10
        and creeps in from the left; halving the kept end's value ends in a
        few steps."""
        calls = []

        def value(s):
            calls.append(s)
            return s ** 3 - 1e-3

        root, froot = relations._refine(value, 0.0, 10.0, -1e-3, 1000 - 1e-3, 1e-9)
        assert abs(froot) < 1e-9 and abs(root - 0.1) < 1e-6
        assert len(calls) < 40


class TestDualClosureOn:
    def test_both_orders_run(self):
        g = Metric.euclidean(amb3)
        a = parse_form("d[t]", amb3)
        flat = Pseudostructure(
            amb3,
            Chart(["u", "c"]),
            {"t": 2 * u, "q": 3 * Expr.var("c"), "p": Expr.const(0)},
        )
        assert isinstance(dual_closure_on(a, g, flat, "ambient_then_pullback"), bool)
        assert isinstance(dual_closure_on(a, g, flat, "pullback_then_induced"), bool)

    def test_induced_volume_outside_exact_class_rejected(self):
        # the trajectory family induces det = 1 + u^2 + c^2, whose square
        # root is not a rational expression; the exact kernel refuses it
        from skewform.duality import MetricError

        relation, traj = poincare_setup()
        g = Metric.euclidean(amb3)
        with pytest.raises(MetricError):
            dual_closure_on(parse_form("d[t]", amb3), g, traj, "pullback_then_induced")

    def test_induced_metric_line(self):
        s = Pseudostructure(ch2, par1, {"x": 2 * u, "y": Expr.const(3)})
        gi = induced_metric(Metric.euclidean(ch2), s)
        assert gi.rows[0][0] == Expr.const(4)

    def test_unknown_order(self):
        relation, traj = poincare_setup()
        with pytest.raises(ValueError):
            dual_closure_on(parse_form("d[t]", amb3), Metric.euclidean(amb3), traj, "bogus")
