"""Pseudostructures and the classification of relations d(psi) = omega.

A relation pairs a (p-1)-form psi with a p-form omega.  It is IDENTICAL
when omega literally equals d(psi), CLOSED_RHS when omega is closed but
differs from d(psi), and NONIDENTICAL when omega is unclosed, in which
case d(omega) (the commutator form) measures the failure.  Restricting to
a pseudostructure (a parametrized lower-dimensional surface) can turn a
nonidentical relation into one with a closed right side; the functional
expressions whose vanishing enables such degenerate transformations
(Jacobians, determinants, Poisson brackets) are handled by
`degenerate_scan`.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from itertools import accumulate

from .symexpr import Expr, ExprError, PoleError, ZERO, all_zero, compile_numeric, poly_gcd, zero_test
from .symexpr import _poly_diff_expr, _poly_divexact, _symmetric_digits
from .exterior import (
    Chart,
    ChartError,
    DiffForm,
    NotClosedError,
    _radial_antiderivative,
    _require_antiderivable,
    ext_d,
    is_closed,
    wedge,
)
from .duality import Metric, _inertia, _sampled_matrices, det_expr, hodge_star


class RelationError(ExprError):
    pass


IDENTICAL = "IDENTICAL"
CLOSED_RHS = "CLOSED_RHS"
NONIDENTICAL = "NONIDENTICAL"


class Pseudostructure:
    """Parametrized m-dimensional surface inside an n-dimensional chart,
    m < n, given by one Expr per ambient coordinate over the parameter
    chart.  The parametrization must have generic rank m (checked by
    sampling the Jacobian at random parameter points).  `jacobian[i][k]` is
    the derivative of the i-th ambient coordinate in the k-th parameter,
    computed once here."""

    __slots__ = ("ambient", "params", "mapping", "jacobian")

    def __init__(self, ambient, params, mapping, seed=0):
        if params.dim >= ambient.dim:
            raise ChartError(
                f"pseudostructure needs fewer parameters ({params.dim}) than ambient "
                f"dimensions ({ambient.dim})"
            )
        if set(mapping) != set(ambient.variables):
            raise ChartError("parametrization must define every ambient coordinate")
        self.ambient = ambient
        self.params = params
        self.mapping = {k: (v if isinstance(v, Expr) else Expr.const(v)) for k, v in mapping.items()}
        self.jacobian = tuple(
            tuple(self.mapping[x].diff(u) for u in params.variables) for x in ambient.variables
        )
        self._check_rank(seed)

    def _check_rank(self, seed):
        m = self.params.dim
        jac = self.jacobian
        names = sorted(
            set().union(*(entry.variables() for row in jac for entry in row)) | set(self.params.variables)
        )
        rng = random.Random(f"skewform-rank:{seed}:{[str(self.mapping[v]) for v in self.ambient.variables]}")
        best = 0
        for mat in _sampled_matrices(jac, names, rng, -4000, 4000, 16):
            # rank J = rank of the Gram matrix J^T J
            gram = [[sum(r[a] * r[b] for r in mat) for b in range(m)] for a in range(m)]
            rank = sum(_inertia(gram))
            best = max(best, rank)
            if best >= m:
                return
        raise RelationError(f"parametrization Jacobian has generic rank {best} < {m}")

    def differentials(self):
        """Pullbacks of the ambient coordinate differentials, as 1-forms
        over the parameter chart."""
        return {
            x: DiffForm(self.params, 1, {(k,): d for k, d in enumerate(row) if not d.is_zero_struct()})
            for x, row in zip(self.ambient.variables, self.jacobian)
        }

    def __repr__(self):
        comps = ", ".join(f"{x}={self.mapping[x]}" for x in self.ambient.variables)
        return f"Pseudostructure({self.params} -> {self.ambient}: {comps})"


def pullback(a, s):
    """Restriction of a form to the pseudostructure: substitute the
    parametrization into coefficients and expand each dx through the
    parameter differentials.  Linear, and commutes with wedge and d."""
    if a.chart != s.ambient:
        raise ChartError(f"form lives on {a.chart}, pseudostructure on {s.ambient}")
    if a.degree > s.params.dim:
        return DiffForm.zero(s.params, a.degree)
    diffs = s.differentials()
    out = DiffForm.zero(s.params, a.degree)
    for idx, coeff in a.terms.items():
        term = DiffForm.scalar(s.params, coeff.subst(s.mapping))
        for i in idx:
            term = wedge(term, diffs[a.chart.variables[i]])
        out = out + term
    return out


def interior_d(a, s):
    """Differential taken on the pseudostructure: d in parameter
    coordinates of the pulled-back form."""
    return ext_d(pullback(a, s))


def induced_metric(g, s):
    """Metric pulled onto the parameter chart: J^T g J for the
    parametrization Jacobian J."""
    if g.chart != s.ambient:
        raise ChartError("metric chart does not match the pseudostructure")
    m = s.params.dim
    n = s.ambient.dim
    jac = s.jacobian
    sub = {k: v for k, v in s.mapping.items()}
    rows = []
    for a in range(m):
        row = []
        for b in range(m):
            val = ZERO
            for i in range(n):
                for j in range(n):
                    gij = g.rows[i][j]
                    if gij.is_zero_struct():
                        continue
                    val = val + gij.subst(sub) * jac[i][a] * jac[j][b]
            row.append(val)
        rows.append(row)
    return Metric(s.params, rows)


def dual_closure_on(a, g, s, order="ambient_then_pullback", seed=0):
    """Pseudostructure condition d_pi(star a) = 0, with the Hodge dual taken
    either in the ambient metric before pulling back (default) or in the
    induced parameter metric after."""
    if order == "ambient_then_pullback":
        dual = pullback(hodge_star(a, g), s)
    elif order == "pullback_then_induced":
        dual = hodge_star(pullback(a, s), induced_metric(g, s))
    else:
        raise ValueError(f"unknown order {order!r}")
    return is_closed(dual, seed)


class Relation:
    """Pair (psi of degree p-1, omega of degree p) over one chart."""

    __slots__ = ("psi", "omega")

    def __init__(self, psi, omega):
        if psi.chart != omega.chart:
            raise ChartError("relation sides must share a chart")
        if omega.degree != psi.degree + 1:
            raise RelationError(
                f"relation needs deg(omega) = deg(psi) + 1, got {psi.degree} and {omega.degree}"
            )
        self.psi = psi
        self.omega = omega

    @property
    def chart(self):
        return self.psi.chart

    def __repr__(self):
        return f"Relation(d({self.psi}) = {self.omega})"


class Verdict:
    """Classification of a relation plus the evidence forms."""

    __slots__ = ("classification", "residual", "commutator", "probabilistic", "pi_closure")

    def __init__(self, classification, residual, commutator, probabilistic, pi_closure=None):
        self.classification = classification
        self.residual = residual
        self.commutator = commutator
        self.probabilistic = probabilistic
        self.pi_closure = pi_closure

    def to_json(self):
        from .exterior import form_to_json

        return {
            "classification": self.classification,
            "residual": form_to_json(self.residual),
            "commutator": form_to_json(self.commutator),
            "pi_closure": self.pi_closure,
            "probabilistic": self.probabilistic,
        }

    def __repr__(self):
        extra = "" if self.pi_closure is None else f", pi_closure={self.pi_closure}"
        return f"Verdict({self.classification}{extra})"


def classify(r, seed=0):
    """IDENTICAL when omega - d(psi) vanishes coefficientwise; otherwise
    CLOSED_RHS when d(omega) = 0; otherwise NONIDENTICAL with d(omega)
    attached as the commutator form."""
    return _classify(r, seed)[0]


def _classify(r, seed):
    """The verdict and the zero decision on d(omega)."""
    residual = r.omega - ext_d(r.psi)
    commutator = ext_d(r.omega)
    res_zero = all_zero(residual.terms.values(), seed)
    com_zero = all_zero(commutator.terms.values(), seed)
    if res_zero:
        classification = IDENTICAL
    elif com_zero:
        classification = CLOSED_RHS
    else:
        classification = NONIDENTICAL
    probabilistic = res_zero.probabilistic or com_zero.probabilistic
    return Verdict(classification, residual, commutator, probabilistic), com_zero


def classify_on(r, s, seed=0):
    """Classification of the pulled-back relation over the parameter chart,
    with pi_closure reporting whether d_pi(omega_pi) = 0 (the degenerate-
    transformation success condition)."""
    psi_pi = pullback(r.psi, s)
    omega_pi = pullback(r.omega, s)
    # classify's commutator decision is the closure test of omega_pi
    verdict, closure = _classify(Relation(psi_pi, omega_pi), seed)
    verdict.pi_closure = closure.value
    return verdict


class ChainStep:
    """One integration step: the relation's left side and the antiderivative
    of its right side, both of the same (descended) degree."""

    __slots__ = ("left", "right", "difference", "difference_closed")

    def __init__(self, left, right, difference_closed):
        self.left = left
        self.right = right
        self.difference = left - right
        self.difference_closed = difference_closed

    @property
    def degree(self):
        return self.left.degree

    def __repr__(self):
        return f"ChainStep(degree {self.degree}: {self.left} = {self.right} + const)"


def integrate_chain(r, s, max_steps=8, seed=0):
    """Sequential integration of a relation restricted to a pseudostructure.

    Entry requires the restricted right side to be closed (the degenerate
    transformation realized).  Each step replaces the right side by its
    homotopy antiderivative, descending one degree, and records whether the
    step's left-minus-right difference is closed; the descent continues
    while that new right side is closed and the degree stays positive.
    """
    if max_steps <= 0:
        return []
    psi = pullback(r.psi, s)
    omega = pullback(r.omega, s)
    if not is_closed(omega, seed):
        raise NotClosedError(
            "restricted right side is not closed; the degenerate transformation is not realized"
        )
    steps = []
    while len(steps) < max_steps:
        # homotopy_antiderivative without its closure test: omega was just tested
        _require_antiderivable(omega)
        theta = _radial_antiderivative(omega)
        diff_closed = is_closed(psi - theta, seed)
        steps.append(ChainStep(psi, theta, diff_closed))
        if theta.degree == 0:
            break
        omega = psi - theta
        if not diff_closed:
            break
        psi = DiffForm.zero(psi.chart, theta.degree - 1)
    return steps


# -- degenerate-transformation scans ------------------------------------------------


SCAN_LINES = 64
SCAN_TOL = 1e-9


class ScanReport:
    """Zero-locus report for a functional expression (Jacobian determinant,
    plain determinant, or Poisson bracket)."""

    __slots__ = ("kind", "expression", "identically_zero", "probabilistic", "zero_points", "tol")

    def __init__(self, kind, expression, identically_zero, probabilistic, zero_points, tol):
        self.kind = kind
        self.expression = expression
        self.identically_zero = identically_zero
        self.probabilistic = probabilistic
        self.zero_points = zero_points
        self.tol = tol

    def to_json(self):
        return {
            "kind": self.kind,
            "expression": str(self.expression),
            "identically_zero": self.identically_zero,
            "probabilistic": self.probabilistic,
            "zero_points": [
                {k: repr(v) for k, v in sorted(pt.items())} for pt in self.zero_points
            ],
            "tolerance": self.tol,
        }

    def __repr__(self):
        return (
            f"ScanReport({self.kind}: {self.expression}, zero={self.identically_zero}, "
            f"{len(self.zero_points)} locus samples)"
        )


def poisson_bracket(f, g, pairing):
    """{f, g} over canonical pairs [(q1, p1), ...]: the alternating sum of
    q/p partial-derivative products."""
    total = ZERO
    for q, p in pairing:
        total = total + (f.diff(q) * g.diff(p) - f.diff(p) * g.diff(q))
    return total


def degenerate_scan(exprs, kind, chart, pairing=None, seed=0, tol=SCAN_TOL, lines=SCAN_LINES):
    """Build the functional expression for the requested kind, decide
    whether it vanishes identically (`zero_test` with this `tol`, which
    only an F with atoms reads), and otherwise sample points on its zero
    locus along seeded lines (`_sample_zero_locus`)."""
    if kind == "jacobian":
        flat = list(exprs)
        if len(flat) != chart.dim:
            raise RelationError(
                f"jacobian scan needs exactly {chart.dim} expressions for {chart}"
            )
        rows = [[f.diff(v) for v in chart.variables] for f in flat]
        F = det_expr(rows)
    elif kind == "determinant":
        rows = [list(r) for r in exprs]
        if any(len(r) != len(rows) for r in rows):
            raise RelationError("determinant scan needs a square matrix of expressions")
        F = det_expr(rows)
    elif kind == "poisson":
        flat = list(exprs)
        if len(flat) != 2:
            raise RelationError("poisson scan takes exactly two scalar expressions")
        if not pairing:
            raise RelationError("poisson scan needs a (q, p) pairing of chart variables")
        for q, p in pairing:
            if q not in chart.index or p not in chart.index:
                raise RelationError(f"pairing ({q}, {p}) uses variables outside {chart}")
        F = poisson_bracket(flat[0], flat[1], pairing)
    else:
        raise ValueError(f"unknown scan kind {kind!r}")

    decision = zero_test(F, seed=seed, tol=tol)
    points = []
    if not decision.value:
        points = _sample_zero_locus(F, seed=seed, tol=tol, lines=lines)
    return ScanReport(kind, F, decision.value, decision.probabilistic, points, tol)


def _sample_zero_locus(F, seed, tol, lines):
    """The first point of F = 0 from s = -5 to 5 on each seeded line
    (B + s D) / 1000, |B| <= 3000, |D| <= 1000 integers, kept when |F| < tol.
    F without atoms is restricted exactly, so a line without a point meets no
    zero of its numerator; F with atoms is sampled on a grid."""
    names = sorted(F.variables())  # none for a constant F: every line is skipped
    f = compile_numeric(F, names)
    restrict = None if F.has_atoms() else _line_restriction(_squarefree_part(F.num), names)
    rng = random.Random(f"skewform-scan:{seed}:{F}")
    points = []
    for _ in range(lines):
        B = [rng.randrange(-3000, 3001) for _ in names]
        D = [rng.randrange(-1000, 1001) for _ in names]
        if not any(D):
            continue
        base, direction = [b / 1000 for b in B], [d / 1000 for d in D]
        value = f.line(base, direction)
        try:
            root = _grid_first_root(value, tol) if restrict is None else _first_root(restrict(B, D), value, tol)
        except (PoleError, OverflowError):
            continue  # the refinement or the root stepped into a gap of F's domain
        if root and abs(root[1]) < tol:
            points.append({v: base[i] + root[0] * direction[i] for i, v in enumerate(names)})
    return points


def _grid_first_root(value, tol):
    """(s, value(s)) refined at the first sign change of value over 33 even
    steps of [-5, 5], or None; a pole or an overflow skips its sample, or the
    line when it is the first."""
    prev_v = None
    for k in range(34):
        s_cur = -5.0 + 10.0 * k / 33
        try:
            v_cur = value(s_cur)
        except (PoleError, OverflowError):
            if not k:
                return None
            prev_v = None
            continue
        if prev_v is not None and prev_v * v_cur <= 0 and (prev_v != 0 or v_cur != 0):
            return _refine(value, prev_s, s_cur, prev_v, v_cur, tol)
        prev_s, prev_v = s_cur, v_cur
    return None


def _squarefree_part(p):
    """p / gcd(p, its partial derivatives): p's distinct irreducible factors (Yun 1976)."""
    h = reduce(poly_gcd, (_poly_diff_expr(p, v).num for v in sorted(p.variables())), p)
    return p if h.is_const() else _poly_divexact(p, h)


def _line_restriction(p, names):
    """(B, D) -> the integer coefficients u_0, u_1, ... of U(t) = L 1000^d
    p((B + (10t - 5) D) / 1000), d = deg p, L the lcm of p's denominators:
    U(2^K) is the homogenized p at X_i = B_i - 5 D_i + 10 D_i 2^K, read off in
    symmetric base-2^K digits (Kronecker).  As |B_i - 5 D_i| + |10 D_i| <=
    18000 on every scan line, each |u_k| < 2^(K-1) for the K set here."""
    q, d = p.content.numerator, p.total_degree()  # L p is q times p's ints
    terms = [(q * c * 1000 ** (d - m.degree), [(names.index(g), e) for g, e in m.items]) for m, c in p.ints.items()]
    K = sum(abs(c) * 18000 ** sum(e for _, e in factors) for c, factors in terms).bit_length() + 1

    def restrict(B, D):
        X = [b - 5 * dd + (10 * dd << K) for b, dd in zip(B, D)]
        total = 0
        for c, factors in terms:
            for i, e in factors:
                c *= X[i] ** e
            total += c
        return _symmetric_digits(total, 1 << K) or [0]

    return restrict


def _first_root(u, value, tol):
    """(s, value(s)) for the smallest root t in [0, 1) of the integer polynomial u
    (coefficients from the constant term up, the last nonzero), s = -5 + 10t, or None.
    Vincent-Collins-Akritas bisection (Collins and Akritas 1976), left half first: the
    node of [c / 2^k, (c + 1) / 2^k] holds p(x) = 2^(kn) u((c + x) / 2^k), whose roots
    in (0, 1) Descartes' rule bounds by the sign variations of (x + 1)^n p(1 / (x + 1)).
    A repeated root is never isolated: a node of width 2^-48 with two variations has two
    roots within its width (the two-circle theorem), and yields its left end.  An isolated
    root is refined on p in s; where |value| is not below tol there, as where rounding
    in p's float values is large against its slope, the node is halved again, to depth 8."""
    stack = [(u, 0, 0)]
    while stack:
        p, c, k = stack.pop()
        s = -5.0 + 10.0 * c / (1 << k)  # the node's left end
        if not p[0]:  # a root there, every root left of it ruled out
            return s, value(s)
        while not sum(p):  # p(1) = 0, at t = 1 or a split point: p / (x - 1)
            p = list(accumulate(reversed(p[1:])))[::-1]
        signs = [a < 0 for a in _taylor_shift(p[::-1]) if a]
        variations = sum(x != y for x, y in zip(signs, signs[1:]))  # zero coefficients carry no sign
        if variations == 1:
            scale = 1 << max(map(abs, p)).bit_length()
            coeffs, w = [a / scale for a in reversed(p)], float(1 << k)

            def horner(s):  # p at x = 2^k t - c
                x, v = ((s + 5.0) * w - 10 * c) / 10, 0.0
                for a in coeffs:
                    v = v * x + a
                return v

            r = _refine(horner, s, -5.0 + 10.0 * (c + 1) / w, p[0] / scale, sum(p) / scale, 0.0)[0]
            if abs(v := value(r)) < tol or k >= 8:
                return r, v
        if variations:
            if k == 48:
                return s, value(s)
            n = len(p) - 1
            left = [a << (n - i) for i, a in enumerate(p)]  # 2^n p(x / 2)
            right = _taylor_shift(left)  # 2^n p((x + 1) / 2)
            stack.append((right, 2 * c + 1, k + 1))
            stack.append((left, 2 * c, k + 1))
    return None


def _taylor_shift(p):
    """The coefficients of p(x + 1)."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _refine(value, a, b, fa, fb, tol):
    """(root, value(root)) for a sign change of value on [a, b], fa = value(a), fb = value(b), by
    Illinois regula falsi: the secant point replaces b; a is kept with its value halved unless the
    sign changes between b and it.  At most 200 steps, ending at a value 0 or below tol, or a bracket under 1e-15."""
    for _ in range(200):
        c = b - fb * (b - a) / (fb - fa)
        fc = value(c)
        if not fc or abs(fc) < tol or abs(b - a) < 1e-15:
            break
        if (fc < 0) != (fb < 0):
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    return c, fc
