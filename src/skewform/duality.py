"""Metric-dependent duality: Hodge star, codifferential, Laplace operators.

Conventions (pinned by the test suite, see docs/CONVENTIONS.md):

* the chart's variable order orients the volume form vol = sqrt|det g| dx^1..dx^n;
* the star is fixed by  alpha ^ star(beta) = <alpha, beta> vol;
* the codifferential is sign(det g) * (-1)^(n(p+1)+1) * star d star, which
  makes delta(a_i dx^i) the negative divergence on Euclidean 1-forms;
* `laplacian` is the combination d(delta a) - delta(d a); the classical
  d delta + delta d composition is exposed as `hodge_laplacian`.

Metrics are accepted only when sqrt|det g| simplifies to an exact rational
expression (constant diagonal, squares like x^2, ...); anything else is
rejected at construction so the kernel stays exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .symexpr import Expr, ExprError, ONE, ZERO, compile_numeric, zero_test, _PackedRing, _POLY_ONE, _poly_sqrt
from .exterior import Chart, ChartError, DiffForm, FormError, _merge_indices, ext_d, is_closed
from .manifold import Connection


class MetricError(ExprError):
    pass


def minor_table(rows):
    """The minors of a square matrix of Exprs, as `minor(R, C)`: the
    determinant on the increasing row tuple R and column tuple C.

    Each row is multiplied by the product of its distinct non-constant
    denominators, which leaves a matrix of polynomials, and is then packed
    with its content apart on one `_PackedRing` (see symexpr), whose bound
    for each generator is the sum over rows of the row's largest exponent,
    so no minor leaves its fields.

    A minor is the Laplace expansion along the first row of R, each packed
    minor computed once per (R, C) and shared by every minor that reaches it
    (no division, no gcd); a zero entry prunes its branch.  Each row entry
    times sub-minor product is added straight into the minor's dict, and the
    coefficients that cancel are dropped once at the end.  A minor asked for
    is unpacked once, times the contents of the rows of R; the one division,
    by the product of their cleared denominators, is an `Expr.make` at the
    end.  Both products are built once per row set R."""
    cleared, scales = [], []
    for row in rows:
        dens, scale = [], _POLY_ONE
        for e in row:
            if not e.den.is_const() and e.den not in dens:
                dens.append(e.den)
                scale = scale * e.den
        polys = []
        for e in row:
            num = e.num
            for d in dens:
                if d != e.den:
                    num = num * d
            polys.append(num)
        cleared.append(polys)
        scales.append(scale)
    ring = _PackedRing(cleared)
    mat, negated, contents = [], [], []
    for polys in cleared:
        content, row = ring.pack(polys)
        mat.append(row)
        negated.append([{m: -c for m, c in p.items()} for p in row])
        contents.append(content)
    memo = {}

    def packed_minor(R, C):
        if len(C) == 1:
            return mat[R[0]][C[0]]
        got = memo.get((R, C))
        if got is None:
            r, rest = R[0], R[1:]
            got = {}
            get = got.get
            for k, j in enumerate(C):
                a = (negated if k % 2 else mat)[r][j]
                if not a:
                    continue
                b = packed_minor(rest, C[:k] + C[k + 1:])
                for m1, c1 in a.items():
                    for m2, c2 in b.items():
                        m = m1 + m2
                        got[m] = get(m, 0) + c1 * c2
            got = {m: c for m, c in got.items() if c}
            memo[(R, C)] = got
        return got

    rowsets = {}

    def minor(R, C):
        if not R:
            return ONE
        got = rowsets.get(R)
        if got is None:
            den, num, dnm = _POLY_ONE, 1, 1
            for r in R:
                den = den * scales[r]
                num *= contents[r].numerator
                dnm *= contents[r].denominator
            got = rowsets[R] = (den, Fraction(num, dnm))
        den, content = got
        return Expr.make(ring.unpack(packed_minor(R, C), content), den)

    return minor


def det_expr(rows):
    """Determinant of a square matrix of Exprs (see `minor_table`)."""
    full = tuple(range(len(rows)))
    return minor_table(rows)(full, full)


def _inertia(mat):
    """(positive, negative) eigenvalue counts of a symmetric matrix, by
    symmetric elimination (Sylvester's law of inertia); their sum is the
    rank.  Exact when every entry is rational.  When any entry is a float,
    a pivot within 1e-9 of the largest |entry| counts as zero."""
    a = [list(row) for row in mat]
    tol = 0
    if any(isinstance(v, float) for row in a for v in row):
        tol = 1e-9 * max(abs(v) for row in a for v in row)
    rest = list(range(len(a)))
    pos = neg = 0
    while rest:
        p = max(rest, key=lambda i: abs(a[i][i]))
        if abs(a[p][p]) <= tol:
            # every diagonal entry is within tol here, so a pair above tol is off the diagonal
            i, j = max(((i, j) for i in rest for j in rest), key=lambda ij: abs(a[ij[0]][ij[1]]))
            if abs(a[i][j]) <= tol:
                break
            # the congruence row_i += row_j, col_i += col_j puts about 2*a[i][j] on the diagonal
            for k in rest:
                a[i][k] += a[j][k]
            for k in rest:
                a[k][i] += a[k][j]
            p = i
        pivot = a[p][p]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        rest.remove(p)
        for i in rest:
            f = a[i][p] / pivot
            if f:
                for j in rest:
                    a[i][j] -= f * a[p][j]
    return pos, neg


def _sampled_matrices(rows, names, rng, lo, hi, tries):
    """The matrix of Exprs `rows` at up to `tries` points names[k] =
    rng.randint(lo, hi) / 1000, skipping a point at a pole; each entry is
    compiled once and gives `Expr.eval`'s value at that point."""
    entries = [[compile_numeric(e, names).at_fractions for e in row] for row in rows]
    for _ in range(tries):
        point = [rng.randint(lo, hi) for _ in names]
        try:
            mat = [[f(point, 1000) for f in row] for row in entries]
        except ExprError:
            continue
        yield mat


def sqrt_expr(e):
    """Exact square root of an Expr, or None when not a perfect square."""
    rn = _poly_sqrt(e.num)
    if rn is None:
        return None
    rd = _poly_sqrt(e.den)
    if rd is None:
        return None
    return Expr.make(rn, rd)


class Metric:
    """Symmetric invertible matrix of Exprs over a chart, with the inverse
    and the exact volume factor cached at construction.  The determinant,
    the inverse, every minor of the inverse and every Hodge coefficient are
    read from one `minor_table` of g.  `sign_det` is the sign of det g,
    exact: the one of +-det g whose square root is `volume`."""

    __slots__ = ("chart", "rows", "inverse", "det", "volume", "sign_det", "signature", "_minor")

    def __init__(self, chart, rows, seed=0):
        n = chart.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise MetricError(f"metric must be {n}x{n}")
        rows = tuple(tuple(e if isinstance(e, Expr) else Expr.const(e) for e in r) for r in rows)
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise MetricError(f"metric not symmetric at ({i + 1},{j + 1})")
        minor = minor_table(rows)
        full = tuple(range(n))
        d = minor(full, full)
        if zero_test(d, seed=seed).value:
            raise MetricError("metric determinant is identically zero")
        vol, sign = sqrt_expr(d), 1
        if vol is None:
            vol, sign = sqrt_expr(-d), -1
        if vol is None:
            raise MetricError(
                "sqrt|det g| does not simplify to a rational expression; metric rejected"
            )
        self.chart = chart
        self.rows = rows
        self.det = d
        self._minor = minor
        self.inverse = tuple(tuple(self.inverse_minor((i,), (j,)) for j in range(n)) for i in range(n))
        self.volume = vol
        self.sign_det = sign
        self.signature = self._signature_at_sample(seed)

    def inverse_minor(self, I, J):
        """The minor of g^-1 on rows I and columns J (increasing tuples of
        equal length), by Jacobi's identity:
        (-1)^(sum I + sum J) det g[J^c, I^c] / det g."""
        n = self.chart.dim
        rest_J = tuple(k for k in range(n) if k not in J)
        rest_I = tuple(k for k in range(n) if k not in I)
        m = self._minor(rest_J, rest_I) / self.det
        return -m if (sum(I) + sum(J)) % 2 else m

    def _signature_at_sample(self, seed):
        rng = random.Random(f"skewform-metric:{seed}:{[str(e) for r in self.rows for e in r]}")
        names = sorted({v for r in self.rows for e in r for v in e.variables()})
        for mat in _sampled_matrices(self.rows, names, rng, 1, 4000, 64):
            pos, neg = _inertia(mat)
            if pos + neg == len(mat):  # else g is singular here
                return (pos, neg)
        raise MetricError("could not find a sample point with invertible metric")

    @staticmethod
    def euclidean(chart):
        return Metric.diagonal(chart, [1] * chart.dim)

    @staticmethod
    def minkowski(chart):
        """Signature (+, -, ..., -) with the chart's first variable timelike."""
        if chart.dim < 2:
            raise MetricError("Minkowski metric needs dimension >= 2")
        return Metric.diagonal(chart, [1] + [-1] * (chart.dim - 1))

    @staticmethod
    def diagonal(chart, entries):
        n = chart.dim
        entries = list(entries)
        if len(entries) != n:
            raise MetricError("diagonal metric needs one entry per chart variable")
        return Metric(chart, [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    def __repr__(self):
        return f"Metric({self.chart}, signature {self.signature})"


def _require_metric_chart(a, g):
    if a.chart != g.chart:
        raise ChartError(f"chart mismatch: {a.chart} vs {g.chart}")


def hodge_star(a, g):
    """The metric dual (n-p)-form, fixed by alpha ^ star(beta) = <alpha,beta> vol.

    The coefficient on K = J^c is +-sign_det * S_J / vol, with
    S_J = sum_I a_I (-1)^(sum I + sum J) det g[I^c, J^c] and +- the sign of
    dx^J ^ dx^K: Jacobi's identity for the minors of g^-1 and
    vol^2 = sign_det * det g make each coefficient minors of g and one
    division."""
    _require_metric_chart(a, g)
    n = g.chart.dim
    p = a.degree
    if p > n:
        return DiffForm.zero(g.chart, max(n - p, 0))
    res = {}
    for J in combinations(range(n), p):
        K = tuple(k for k in range(n) if k not in J)
        s = ZERO
        for I, coeff in a.terms.items():
            m = g._minor(tuple(k for k in range(n) if k not in I), K)
            if not m.is_zero_struct():
                s = s + coeff * m if (sum(I) + sum(J)) % 2 == 0 else s - coeff * m
        if s.is_zero_struct():
            continue
        val = s / g.volume
        res[K] = val if _merge_indices(J, K)[0] * g.sign_det > 0 else -val
    return DiffForm(g.chart, n - p, res)


def dual_closure_check(a, g, seed=0):
    """True iff the dual form is closed: d(star a) = 0."""
    return is_closed(hodge_star(a, g), seed)


def codifferential(a, g):
    """Degree-lowering operator, the signed star-d-star composition; on
    Euclidean 1-forms it is the negative divergence, and its square is zero."""
    _require_metric_chart(a, g)
    p = a.degree
    if p < 1:
        raise FormError("codifferential of a 0-form is undefined")
    n = g.chart.dim
    if p > n:
        return DiffForm.zero(g.chart, p - 1)
    sign = g.sign_det * (-1) ** (n * (p + 1) + 1)
    out = hodge_star(ext_d(hodge_star(a, g)), g)
    return out.scale(sign)


def laplacian(a, g):
    """The operator d(delta a) - delta(d a) (see module docstring for how
    it relates to the classical Laplacian / d'Alembertian)."""
    return _laplace_combination(a, g, -1)


def hodge_laplacian(a, g):
    """The classical Laplace-de Rham combination d(delta a) + delta(d a)."""
    return _laplace_combination(a, g, +1)


def _laplace_combination(a, g, sign):
    _require_metric_chart(a, g)
    n = g.chart.dim
    p = a.degree
    if p >= 1:
        term1 = ext_d(codifferential(a, g))
    else:
        term1 = DiffForm.zero(g.chart, p)
    if p < n:
        term2 = codifferential(ext_d(a), g)
    else:
        term2 = DiffForm.zero(g.chart, p)
    return term1 + term2.scale(sign)


def christoffel(g):
    """Levi-Civita connection of a metric (test-fixture helper):
    G^k_{ij} = (1/2) g^{kl} (dg_{lj}/dx^i + dg_{il}/dx^j - dg_{ij}/dx^l).
    Each derivative dg_{ab}/dx^c of the symmetric g is taken once, for
    a <= b; the bracket is formed once per (l, i <= j), and G^k_{ji} = G^k_{ij}."""
    chart = g.chart
    n = chart.dim
    half = Expr.const(Fraction(1, 2))
    dg = {(a, b): [g.rows[a][b].diff(v) for v in chart.variables] for a in range(n) for b in range(a, n)}

    def d(a, b, c):
        return dg[(a, b) if a <= b else (b, a)][c]

    gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            first = [d(l, j, i) + d(i, l, j) - d(i, j, l) for l in range(n)]
            for k in range(n):
                val = sum((g.inverse[k][l] * first[l] for l in range(n)), ZERO)
                gamma[k][i][j] = gamma[k][j][i] = half * val
    return Connection(chart, gamma)
