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

import random

from .symexpr import Expr, ExprError, PoleError, ZERO, all_zero, compile_numeric, zero_test
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
    whether it vanishes identically, and otherwise sample points on its
    zero locus by bisection along seeded random lines."""
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
    names = sorted(F.variables())
    if not names:
        return []
    f = compile_numeric(F, names)
    rng = random.Random(f"skewform-scan:{seed}:{F}")
    points = []
    for _ in range(lines):
        base = [rng.uniform(-3.0, 3.0) for _ in names]
        direction = [rng.uniform(-1.0, 1.0) for _ in names]
        if all(abs(d) < 1e-12 for d in direction):
            continue
        value = f.line(base, direction)
        samples = 33
        prev_s = -5.0
        try:
            prev_v = value(prev_s)
        except (PoleError, OverflowError):
            continue
        for k in range(1, samples + 1):
            s_cur = -5.0 + 10.0 * k / samples
            try:
                v_cur = value(s_cur)
            except (PoleError, OverflowError):
                prev_s, prev_v = s_cur, None
                continue
            if prev_v is not None and prev_v * v_cur <= 0 and (prev_v != 0 or v_cur != 0):
                try:
                    root, froot = _bisect(value, prev_s, s_cur, prev_v, tol)
                except (PoleError, OverflowError):
                    break  # the bisection stepped into a gap of F's domain: abandon the line
                if abs(froot) < tol:
                    points.append({v: base[i] + root * direction[i] for i, v in enumerate(names)})
                break
            prev_s, prev_v = s_cur, v_cur
    return points


def _bisect(value, lo, hi, flo, tol):
    """(root, value(root)) for a sign change of value on [lo, hi], where
    value(lo) = flo: at most 200 halvings, stopping early once |value| < tol
    or the interval is narrower than 1e-15."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = value(mid)
        if abs(fmid) < tol or hi - lo < 1e-15:
            return mid, fmid  # the midpoint of [lo, hi] is mid itself
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    root = 0.5 * (lo + hi)
    return root, value(root)
