"""Executable corpus of named identical/nonidentical relations.

Each entry builds its fixtures, runs the relevant engine operations, and
reports one pass/fail record per check, reproducible bit-for-bit for a
fixed seed.  The mechanics helpers (Legendre transform with degeneracy
reporting, canonical-transformation test with generating-function
recovery) and the Green-theorem quadrature harness live here as well.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .symexpr import Expr, ExprError, PoleError, ZERO, ONE, compile_numeric, ln, parse_expr
from .exterior import (
    Chart,
    DiffForm,
    ext_d,
    homotopy_antiderivative,
    is_closed,
    parse_form,
)
from .manifold import Connection, TorsionError, bianchi_first_check, riemann
from .duality import Metric, christoffel, codifferential, hodge_star, laplacian
from .relations import (
    CLOSED_RHS,
    IDENTICAL,
    NONIDENTICAL,
    Pseudostructure,
    Relation,
    classify,
    classify_on,
    degenerate_scan,
    integrate_chain,
    pullback,
)


class CatalogError(ExprError):
    pass


# -- mechanics helpers ---------------------------------------------------------------


class LegendreResult:
    """Momentum, Hamiltonian (None when elimination is refused), the
    degeneracy expression, and a zero-locus report for refusals."""

    __slots__ = ("p", "H", "degeneracy", "locus")

    def __init__(self, p, H, degeneracy, locus=None):
        self.p = p
        self.H = H
        self.degeneracy = degeneracy
        self.locus = locus

    def __repr__(self):
        h = self.H if self.H is not None else "<refused>"
        return f"LegendreResult(p={self.p}, H={h}, degeneracy={self.degeneracy})"


def _poly_degree_in(e, name):
    deg = 0
    for m in e.num.ints:
        for g, ge in m.items:
            if g == name:
                deg = max(deg, ge)
    return deg


def legendre_transform(L, qdot="qdot", momentum="p", seed=0):
    """Passage from a Lagrangian L(q, qdot) to the Hamiltonian side.

    For L at most quadratic in qdot the velocity is eliminated exactly and
    H = p*qdot - L is returned with the position coordinate passing
    through untouched.  For cubic L the degeneracy d^2L/dqdot^2 still
    depends on the velocity: its vanishing locus is sampled and
    elimination is refused.  An identically vanishing degeneracy is an
    error (nothing to invert).
    """
    if isinstance(L, str):
        L = parse_expr(L)
    if not L.is_polynomial_in({qdot}):
        raise CatalogError(f"Lagrangian must be polynomial in {qdot}")
    deg = _poly_degree_in(L, qdot)
    if deg > 3:
        raise CatalogError(f"Lagrangian degree {deg} in {qdot} exceeds the supported 3")
    p_expr = L.diff(qdot)
    degeneracy = p_expr.diff(qdot)
    if degeneracy.is_zero_struct():
        raise CatalogError("degenerate Lagrangian: d^2 L / d qdot^2 vanishes identically")
    if deg == 3:
        locus = degenerate_scan([[degeneracy]], "determinant", Chart([qdot]), seed=seed)
        return LegendreResult(p_expr, None, degeneracy, locus)
    p_sym = Expr.var(momentum)
    b = p_expr.subst({qdot: ZERO})
    qdot_sol = (p_sym - b) / degeneracy
    H = (p_sym * Expr.var(qdot) - L).subst({qdot: qdot_sol})
    return LegendreResult(p_expr, H, degeneracy)


class CanonicalCheckResult:
    __slots__ = ("is_canonical", "sigma", "W")

    def __init__(self, is_canonical, sigma, W):
        self.is_canonical = is_canonical
        self.sigma = sigma
        self.W = W

    def __repr__(self):
        w = f", W={self.W}" if self.W is not None else ""
        return f"CanonicalCheckResult({self.is_canonical}{w})"


def canonical_check(Q, P, q="q", p="p", seed=0):
    """Is (q,p) -> (Q(q,p), P(q,p)) canonical?  Tests closedness of
    sigma = p dq - P dQ and, for closed polynomial sigma, recovers the
    generating function W with dW = sigma."""
    if isinstance(Q, str):
        Q = parse_expr(Q)
    if isinstance(P, str):
        P = parse_expr(P)
    chart = Chart([q, p])
    p_sym = Expr.var(p)
    coeff_dq = p_sym - P * Q.diff(q)
    coeff_dp = -P * Q.diff(p)
    terms = {}
    if not coeff_dq.is_zero_struct():
        terms[(0,)] = coeff_dq
    if not coeff_dp.is_zero_struct():
        terms[(1,)] = coeff_dp
    sigma = DiffForm(chart, 1, terms)
    canonical = is_closed(sigma, seed=seed)
    W = None
    if canonical:
        if sigma.is_zero_form():
            W = ZERO
        elif sigma.is_polynomial():
            W = homotopy_antiderivative(sigma, seed=seed).as_scalar()
    return CanonicalCheckResult(canonical, sigma, W)


# -- quadrature (Green's theorem) -----------------------------------------------------


def _simpson_counts(n):
    """3n times the composite Simpson weights on [0, 1] with n panels:
    1, 4, 2, 4, ..., 2, 4, 1."""
    return [1 if i in (0, n) else 4 if i % 2 else 2 for i in range(n + 1)]


def _simpson_moment(n, k):
    """The moment M_k = sum_i w_i (i/n)^k of the composite Simpson weights
    w_i on [0, 1] with n panels, exactly."""
    return Fraction(sum(c * i ** k for i, c in enumerate(_simpson_counts(n))), 3 * n ** (k + 1))


def _moment_sum(e, n, x=None, y=None):
    """The composite Simpson sum of a polynomial e(x, y) over the unit
    square, or along the edge where x or y is fixed at the given value, as
    an exact rational: a term c x^a y^b contributes c * M_a * M_b, with x^a
    in place of the moment M_a when x is fixed, and y^b likewise."""
    total = Fraction(0)
    for m, c in e.num.ints.items():  # e.den is the constant 1
        powers = dict(m.items)
        a, b = powers.get("x", 0), powers.get("y", 0)
        fa = _simpson_moment(n, a) if x is None else x ** a
        fb = _simpson_moment(n, b) if y is None else y ** b
        total += c * fa * fb
    return total * e.num.content


def _grid_sum(e, n, x=None, y=None):
    """The same sum in float, from e's values at the grid points."""
    f = compile_numeric(e, ["x", "y"])
    line = [(c, i / n) for i, c in enumerate(_simpson_counts(n))]
    if x is not None:
        return math.fsum(c * f([float(x), t]) for c, t in line) / (3 * n)
    if y is not None:
        return math.fsum(c * f([t, float(y)]) for c, t in line) / (3 * n)
    rows = (ci * math.fsum(cj * f([s, t]) for cj, t in line) for ci, s in line)
    return math.fsum(rows) / (9 * n * n)


class GreenReport:
    __slots__ = ("circulation", "area_integral", "abs_diff", "grid_n")

    def __init__(self, circulation, area_integral, grid_n):
        self.circulation = circulation
        self.area_integral = area_integral
        self.abs_diff = abs(circulation - area_integral)
        self.grid_n = grid_n

    def to_json(self):
        return {
            "circulation": repr(self.circulation),
            "area_integral": repr(self.area_integral),
            "abs_diff": repr(self.abs_diff),
            "grid_n": self.grid_n,
        }

    def __repr__(self):
        return (
            f"GreenReport(circulation={self.circulation!r}, area={self.area_integral!r}, "
            f"diff={self.abs_diff:.3e}, n={self.grid_n})"
        )


def green_check(P, Q, grid_n=256):
    """Circulation of P dx + Q dy around the unit square against the area
    integral of dQ/dx - dP/dy, both by composite Simpson with grid_n panels.

    For polynomial P and Q the sums are exact, from the rule's moments, and
    are rounded to float once; otherwise the integrands are evaluated in
    float at the grid points."""
    if isinstance(P, str):
        P = parse_expr(P)
    if isinstance(Q, str):
        Q = parse_expr(Q)
    extra = (P.variables() | Q.variables()) - {"x", "y"}
    if extra:
        raise CatalogError(f"integrands must be functions of x and y only, found {sorted(extra)}")
    if grid_n % 2 or grid_n < 2:
        raise CatalogError(f"composite Simpson needs an even panel count, got {grid_n}")
    curl = Q.diff("x") - P.diff("y")
    polynomial = all(not e.has_atoms() and e.den.is_const() for e in (P, Q))
    integrate = _moment_sum if polynomial else _grid_sum
    try:
        edges = float(
            integrate(P, grid_n, y=0) + integrate(Q, grid_n, x=1)
            - integrate(P, grid_n, y=1) - integrate(Q, grid_n, x=0)
        )
        area = float(integrate(curl, grid_n))
    except (PoleError, OverflowError) as exc:
        raise CatalogError("singular integrand on the unit square") from exc
    if not (math.isfinite(edges) and math.isfinite(area)):
        raise CatalogError("singular integrand on the unit square")
    return GreenReport(edges, area, grid_n)


# -- entry machinery ------------------------------------------------------------------


class EntryReport:
    __slots__ = ("name", "title", "checks")

    def __init__(self, name, title):
        self.name = name
        self.title = title
        self.checks = []

    def add(self, label, ok, expected=None, actual=None):
        self.checks.append(
            {
                "label": label,
                "ok": bool(ok),
                "expected": None if expected is None else str(expected),
                "actual": None if actual is None else str(actual),
            }
        )

    def equal(self, label, actual, expected):
        """Record whether actual == expected, with both as text."""
        self.add(label, actual == expected, expected, actual)

    @property
    def passed(self):
        return all(c["ok"] for c in self.checks)

    def to_json(self):
        return {
            "name": self.name,
            "title": self.title,
            "passed": self.passed,
            "checks": self.checks,
        }

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"EntryReport({self.name}: {status}, {len(self.checks)} checks)"


def _entry_poincare(rep, seed):
    chart = Chart(["t", "q", "p"])
    omega = parse_form("p*d[q] - (p^2/2)*d[t]", chart)
    r = Relation(DiffForm.zero(chart, 0), omega)
    v = classify(r, seed=seed)
    rep.equal("ambient classification", v.classification, NONIDENTICAL)
    rep.equal("ambient commutator d(omega)", v.commutator, parse_form("p*d[t]^d[p] - d[q]^d[p]", chart))
    params = Chart(["u", "c"])
    traj = Pseudostructure(
        chart,
        params,
        {"t": Expr.var("u"), "q": Expr.var("c") * Expr.var("u"), "p": Expr.var("c")},
        seed=seed,
    )
    von = classify_on(r, traj, seed=seed)
    rep.equal("restricted classification", von.classification, CLOSED_RHS)
    rep.equal("restricted closure d_pi(omega_pi) = 0", von.pi_closure, True)
    steps = integrate_chain(r, traj, seed=seed)
    rep.add("chain descends one degree", len(steps) == 1 and steps[0].degree == 0, "1 step to degree 0", f"{len(steps)} steps")
    if steps:
        theta = steps[0].right
        rep.equal("integrated scalar", theta, DiffForm.scalar(params, parse_expr("c^2*u/2")))
        rep.add(
            "antiderivative verified: d_pi(theta) = omega_pi",
            ext_d(theta) == pullback(omega, traj),
        )


def _entry_cauchy_riemann(rep, seed):
    chart = Chart(["x", "y"])
    u = parse_expr("x^2 - y^2")
    v = parse_expr("2*x*y")
    omega1 = DiffForm(chart, 1, {(0,): u, (1,): -v})
    omega2 = DiffForm(chart, 1, {(0,): v, (1,): u})
    rep.equal("u dx - v dy closed", is_closed(omega1, seed=seed), True)
    rep.equal("v dx + u dy closed", is_closed(omega2, seed=seed), True)
    bad = DiffForm(chart, 1, {(0,): parse_expr("x*y"), (1,): u})
    rep.equal("non-conjugate pair is not closed", is_closed(bad, seed=seed), False)


def _entry_vital_force(rep, seed):
    chart = Chart(["v1", "v2"])
    m = Expr.var("m")
    T = m * (Expr.var("v1") ** 2 + Expr.var("v2") ** 2) / 2
    omega = DiffForm(chart, 1, {(0,): m * Expr.var("v1"), (1,): m * Expr.var("v2")})
    v = classify(Relation(DiffForm.scalar(chart, T), omega), seed=seed)
    rep.equal("potential force: identical", v.classification, IDENTICAL)
    rotational = omega + DiffForm(chart, 1, {(0,): -Expr.var("v2"), (1,): Expr.var("v1")})
    v2 = classify(Relation(DiffForm.scalar(chart, T), rotational), seed=seed)
    rep.equal("rotational extra force: nonidentical", v2.classification, NONIDENTICAL)
    rep.equal("rotational commutator", v2.commutator, parse_form("2*d[v1]^d[v2]", chart))


def _entry_thermo_first(rep, seed):
    chart = Chart(["E", "V", "p"])
    omega = parse_form("d[E] + p*d[V]", chart)
    v = classify(Relation(DiffForm.zero(chart, 0), omega), seed=seed)
    rep.equal("classification", v.classification, NONIDENTICAL)
    rep.equal("commutator dp ^ dV", v.commutator, parse_form("-d[V]^d[p]", chart))


def _entry_thermo_second(rep, seed):
    chart = Chart(["E", "V", "p", "T"])
    omega = parse_form("(1/T)*d[E] + (p/T)*d[V]", chart)
    r = Relation(DiffForm.zero(chart, 0), omega)
    v = classify(r, seed=seed)
    rep.equal("ambient classification", v.classification, NONIDENTICAL)
    params = Chart(["a", "b"])
    a, b = Expr.var("a"), Expr.var("b")
    third2 = Expr.const(Fraction(2, 3))
    gas = Pseudostructure(
        chart,
        params,
        {"E": a, "V": b, "p": third2 * a / b, "T": third2 * a},
        seed=seed,
    )
    von = classify_on(r, gas, seed=seed)
    rep.equal("state-surface closure", von.pi_closure, True)
    rep.equal("state-surface classification", von.classification, CLOSED_RHS)
    entropy = Expr.const(Fraction(3, 2)) * ln(a) + ln(b)
    witness = classify(
        Relation(DiffForm.scalar(params, entropy), pullback(omega, gas)), seed=seed
    )
    rep.equal("entropy witness: identical", witness.classification, IDENTICAL)
    rep.equal("witness verdict is exact", witness.probabilistic, False)


def _entry_bianchi(rep, seed):
    ch2 = Chart(["x", "y"])
    sym2 = Connection.from_entries(
        ch2,
        {
            (1, 1, 1): "x*y",
            (1, 1, 2): "x^2",
            (1, 2, 1): "x^2",
            (1, 2, 2): "y",
            (2, 1, 1): "x + y",
            (2, 1, 2): "y^2",
            (2, 2, 1): "y^2",
            (2, 2, 2): "x",
        },
    )
    rep.add("cyclic sum vanishes (2D)", bianchi_first_check(sym2, seed=seed), True)
    ch3 = Chart(["x", "y", "z"])
    sym3 = Connection.from_entries(
        ch3,
        {
            (1, 1, 2): "z",
            (1, 2, 1): "z",
            (2, 3, 3): "x*y",
            (3, 1, 3): "y",
            (3, 3, 1): "y",
            (2, 2, 2): "x + z",
        },
    )
    rep.add("cyclic sum vanishes (3D)", bianchi_first_check(sym3, seed=seed), True)
    torsionful = Connection.from_entries(ch2, {(1, 2, 1): "x"})
    try:
        bianchi_first_check(torsionful, seed=seed)
        rep.add("torsionful connection rejected", False, "TorsionError", "no error")
    except TorsionError:
        rep.add("torsionful connection rejected", True, "TorsionError", "TorsionError")
    polar_like = Metric.diagonal(ch2, [ONE, parse_expr("x^2")])
    con = christoffel(polar_like)
    rep.add("Christoffel 1/x entry", con[(1, 0, 1)] == parse_expr("1/x"), "1/x", con[(1, 0, 1)])
    R = riemann(con)
    flat = all(
        R[r][s][mu][nu].is_zero_struct()
        for r in range(2)
        for s in range(2)
        for mu in range(2)
        for nu in range(2)
    )
    rep.equal("diag(1, x^2) is flat", flat, True)


def _entry_canonical(rep, seed):
    res = canonical_check("p", "-q", seed=seed)
    rep.equal("(Q,P)=(p,-q) canonical", res.is_canonical, True)
    rep.equal("W = p*q", res.W, parse_expr("p*q"))
    res2 = canonical_check("q", "p", seed=seed)
    rep.add("identity map canonical", res2.is_canonical and res2.W == ZERO, "W = 0", res2.W)
    res3 = canonical_check("q^2", "p", seed=seed)
    rep.equal("(Q,P)=(q^2,p) not canonical", res3.is_canonical, False)


def _entry_legendre(rep, seed):
    res = legendre_transform("qdot^2/2 - q^2/2", seed=seed)
    rep.equal("p = qdot", res.p, parse_expr("qdot"))
    rep.add(
        "H = p^2/2 + q^2/2",
        res.H == parse_expr("p^2/2 + q^2/2"),
        "p^2/2 + q^2/2",
        res.H,
    )
    rep.equal("degeneracy = 1", res.degeneracy, ONE)
    cubic = legendre_transform("qdot^3/3", seed=seed)
    rep.equal("cubic: elimination refused", cubic.H, None)
    rep.equal("cubic degeneracy = 2*qdot", cubic.degeneracy, parse_expr("2*qdot"))
    locus_ok = cubic.locus is not None and cubic.locus.zero_points and all(
        abs(2 * pt["qdot"]) < 1e-9 for pt in cubic.locus.zero_points
    )
    rep.add("cubic locus at qdot = 0", locus_ok, "|2*qdot| < 1e-9", f"{len(cubic.locus.zero_points)} samples")
    try:
        legendre_transform("qdot", seed=seed)
        rep.add("linear Lagrangian rejected", False, "CatalogError", "no error")
    except CatalogError:
        rep.add("linear Lagrangian rejected", True, "CatalogError", "CatalogError")


def _entry_green(rep, seed):
    lin = green_check("-y", "x", grid_n=64)
    rep.add("curl 2 circulation", abs(lin.circulation - 2.0) < 1e-12, 2.0, lin.circulation)
    rep.add("curl 2 match", lin.abs_diff < 1e-12, "< 1e-12", lin.abs_diff)
    closed = green_check("x^2", "y^2", grid_n=64)
    rep.add("closed case: both sides 0", abs(closed.circulation) < 1e-12 and abs(closed.area_integral) < 1e-12)
    cubic = green_check("-y^3", "x^3", grid_n=256)
    rep.add("cubic circulation = 2", abs(cubic.circulation - 2.0) < 1e-8, 2.0, cubic.circulation)
    rep.add("cubic abs_diff < 1e-8", cubic.abs_diff < 1e-8, "< 1e-8", cubic.abs_diff)
    e128 = abs(green_check("-y^5", "x^5", grid_n=128).area_integral - 2.0)
    e256 = abs(green_check("-y^5", "x^5", grid_n=256).area_integral - 2.0)
    ratio = e128 / e256 if e256 else float("inf")
    rep.add("Simpson-order halving ratio in [8, 32]", 8.0 <= ratio <= 32.0, "[8, 32]", ratio)


def _entry_duality(rep, seed):
    ch = Chart(["x", "y"])
    g = Metric.euclidean(ch)
    dx, dy = DiffForm.basis(ch, "x"), DiffForm.basis(ch, "y")
    rep.equal("star dx = dy", hodge_star(dx, g), dy)
    rep.equal("star dy = -dx", hodge_star(dy, g), -dx)
    div_form = DiffForm(ch, 1, {(0,): Expr.var("x"), (1,): Expr.var("y")})
    delta = codifferential(div_form, g).as_scalar()
    rep.equal("delta(x dx + y dy) = -2", delta, Expr.const(-2))
    lap = laplacian(DiffForm.scalar(ch, parse_expr("x^2 + y^2")), g).as_scalar()
    rep.equal("laplacian(x^2 + y^2) = 4", lap, Expr.const(4))
    chm = Chart(["t", "x"])
    gm = Metric.minkowski(chm)
    wave = laplacian(DiffForm.scalar(chm, parse_expr("t^2 - x^2")), gm).as_scalar()
    rep.equal("laplacian(t^2 - x^2) = 4 on diag(1,-1)", wave, Expr.const(4))
    rep.equal("consistent operator sign", wave, lap)
    vol = hodge_star(DiffForm.scalar(ch, 1), g)
    rep.add("star 1 = volume form", vol == parse_form("d[x]^d[y]", ch))


# name -> (title, entry function filling in the entry's report)
CATALOG = {
    "poincare-invariant": ("Momentum 1-form p dq - H dt along trajectories", _entry_poincare),
    "cauchy-riemann": ("Closure of the 1-forms attached to an analytic pair", _entry_cauchy_riemann),
    "vital-force": ("Kinetic energy differential against a potential force field", _entry_vital_force),
    "thermo-first-principle": ("Heat 1-form dE + p dV is unclosed", _entry_thermo_first),
    "thermo-second-principle": ("Entropy form (dE + p dV)/T on the ideal-gas state surface", _entry_thermo_second),
    "bianchi-identity": ("First Bianchi identity and a flat-metric curvature check", _entry_bianchi),
    "canonical-transformation": ("Generating-function test p dq = P dQ + dW", _entry_canonical),
    "legendre-hamilton": ("Velocity elimination and its degenerate locus", _entry_legendre),
    "green-theorem": ("Boundary circulation against the curl integral", _entry_green),
    "duality-operators": ("Hodge duals, codifferential and the wave/Laplace operators", _entry_duality),
}


def list_entries():
    return [(name, title) for name, (title, _) in CATALOG.items()]


def run_entry(name, seed=0):
    if name not in CATALOG:
        raise CatalogError(f"unknown catalog entry {name!r}; try one of {sorted(CATALOG)}")
    title, entry = CATALOG[name]
    rep = EntryReport(name, title)
    entry(rep, seed)
    return rep


def run_all(seed=0):
    """Run every entry in catalog order."""
    return [run_entry(name, seed) for name in CATALOG]
