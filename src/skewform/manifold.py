"""Connections, torsion commutators, and curvature.

The covariant derivative follows the convention a_{b;a} = da_b/dx^a
+ G^s_{ba} a_s (note the plus sign on the lower-index correction); the
commutator of a 1-form then picks up the antisymmetric part of the
connection's lower indices as a torsion term, and `evo_d` extends that
differential to higher degrees by antisymmetrizing the termwise covariant
derivative.  With zero torsion everything collapses back to the ordinary
exterior derivative.
"""

from __future__ import annotations

from itertools import combinations

from .symexpr import Expr, ZERO, all_zero, parse_expr
from .exterior import Chart, ChartError, DiffForm, FormError, _antisymmetric_matrix, _merge_indices, ext_d


class TorsionError(FormError):
    """A symmetric-connection precondition was violated."""


def _as_expr(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse_expr(value)
    return Expr.const(value)


class Connection:
    """Rank-(1,2) coefficient array G^s_{ab}; symmetry in the lower indices
    is not assumed (torsion allowed)."""

    __slots__ = ("chart", "gamma")

    def __init__(self, chart, gamma):
        n = chart.dim
        if len(gamma) != n or any(len(r) != n or any(len(c) != n for c in r) for r in gamma):
            raise ChartError(f"connection array must be {n}x{n}x{n}")
        self.chart = chart
        self.gamma = tuple(tuple(tuple(_as_expr(e) for e in row) for row in plane) for plane in gamma)

    @staticmethod
    def zero(chart):
        n = chart.dim
        return Connection(chart, [[[ZERO] * n for _ in range(n)] for _ in range(n)])

    @staticmethod
    def from_entries(chart, entries):
        """Build from a sparse map {(s, a, b): expr} of 1-based nonzero
        entries G^s_{ab}; everything unlisted is zero."""
        n = chart.dim
        gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (s, a, b), value in entries.items():
            if not (1 <= s <= n and 1 <= a <= n and 1 <= b <= n):
                raise ChartError(f"connection index out of range: {(s, a, b)}")
            gamma[s - 1][a - 1][b - 1] = _as_expr(value)
        return Connection(chart, gamma)

    @staticmethod
    def from_json(doc, chart=None):
        chart = chart or Chart(doc["chart"])
        entries = {tuple(item["indices"]): item["coeff"] for item in doc["entries"]}
        return Connection.from_entries(chart, entries)

    def __getitem__(self, key):
        s, a, b = key
        return self.gamma[s][a][b]

    def is_symmetric(self):
        n = self.chart.dim
        return all(
            self.gamma[s][a][b] == self.gamma[s][b][a]
            for s in range(n)
            for a in range(n)
            for b in range(a + 1, n)
        )

    def __repr__(self):
        nonzero = sum(
            1 for plane in self.gamma for row in plane for e in row if not e.is_zero_struct()
        )
        return f"Connection({self.chart}, {nonzero} nonzero entries)"


def torsion(c):
    """T^s_{ab} = G^s_{ba} - G^s_{ab}, antisymmetric in the lower pair."""
    n = c.chart.dim
    return tuple(
        tuple(tuple(c.gamma[s][b][a] - c.gamma[s][a][b] for b in range(n)) for a in range(n))
        for s in range(n)
    )


def covariant_deriv(a, c):
    """Matrix m[b][a] = a_{b;a} = da_b/dx^a + G^s_{ba} a_s for a 1-form."""
    if a.degree != 1:
        raise FormError(f"covariant_deriv expects a 1-form, got degree {a.degree}")
    if a.chart != c.chart:
        raise ChartError(f"chart mismatch: {a.chart} vs {c.chart}")
    n = a.chart.dim
    return [[_covariant_component(a, c, (b,), al) for al in range(n)] for b in range(n)]


def evo_commutator(a, c):
    """Commutator K[a][b] of a 1-form on a manifold with connection:
    the plain curl plus the torsion contraction (G^s_{ba} - G^s_{ab}) a_s.
    Equals the antisymmetrized covariant derivative a_{b;a} - a_{a;b}; read
    off evo_d(a, c)."""
    if a.degree != 1:
        raise FormError(f"evo_commutator expects a 1-form, got degree {a.degree}")
    return _antisymmetric_matrix(evo_d(a, c))


def _dense_coefficient(a, idx):
    """Coefficient of the antisymmetric extension of a's term map at an
    arbitrary index tuple (sign from sorting; zero on repeats)."""
    sign, merged = 1, ()
    for i in idx:
        s, merged = _merge_indices(merged, (i,))
        if s == 0:
            return ZERO
        sign *= s
    coeff = a.terms.get(merged, ZERO)
    return coeff if sign > 0 else -coeff


def _covariant_component(a, c, idx, al):
    """A_{idx;al} with every lower index corrected by +G, matching the
    degree-1 convention."""
    chart = a.chart
    n = chart.dim
    val = _dense_coefficient(a, idx).diff(chart.variables[al])
    for m in range(len(idx)):
        for s in range(n):
            g = c.gamma[s][idx[m]][al]
            if g.is_zero_struct():
                continue
            replaced = idx[:m] + (s,) + idx[m + 1 :]
            contrib = _dense_coefficient(a, replaced)
            if not contrib.is_zero_struct():
                val = val + g * contrib
    return val


def evo_d(a, c):
    """Differential with the basis-variation term of the connection.

    Degree 0 is ext_d.  From degree 1 on, each component over increasing
    indices J is the alternating sum of the covariant components
    A_{J without J[k]; J[k]}, which reduces to ext_d when the torsion
    vanishes on the affected terms.
    """
    if a.chart != c.chart:
        raise ChartError(f"chart mismatch: {a.chart} vs {c.chart}")
    if a.degree == 0:
        return ext_d(a)
    chart = a.chart
    res = {}
    for J in combinations(range(chart.dim), a.degree + 1):
        val = ZERO
        for k in range(len(J)):
            rest = J[:k] + J[k + 1 :]
            term = _covariant_component(a, c, rest, J[k])
            val = val + (-term if k % 2 else term)
        if not val.is_zero_struct():
            res[J] = val
    return DiffForm(chart, a.degree + 1, res)


def _riemann_component(c, r, s, mu, nu):
    """R^r_{s mu nu}: dG^r_{nu s}/dx^mu - dG^r_{mu s}/dx^nu
    + G^r_{mu l} G^l_{nu s} - G^r_{nu l} G^l_{mu s}."""
    chart = c.chart
    val = c.gamma[r][nu][s].diff(chart.variables[mu]) - c.gamma[r][mu][s].diff(chart.variables[nu])
    for lam in range(chart.dim):
        t1 = c.gamma[r][mu][lam] * c.gamma[lam][nu][s]
        t2 = c.gamma[r][nu][lam] * c.gamma[lam][mu][s]
        val = val + t1 - t2
    return val


def riemann(c):
    """Curvature R[r][s][m][n] = R^r_{smn} of the connection, each
    component from `_riemann_component`.  It is antisymmetric in m, n for
    any connection, so each pair m < n is computed once and
    R^r_{snm} = -R^r_{smn}."""
    n = c.chart.dim
    out = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for s in range(n):
            for mu, nu in combinations(range(n), 2):
                val = _riemann_component(c, r, s, mu, nu)
                out[r][s][mu][nu] = val
                out[r][s][nu][mu] = -val
    return out


def bianchi_first_check(c, seed=0):
    """First Bianchi identity: the cyclic sum of R^r over its three lower
    indices vanishes.  Requires a torsion-free connection; a torsionful
    input is a precondition violation, not a failed identity.

    By R's antisymmetry in its last two indices the cyclic sum is
    antisymmetric in all three: it vanishes on a repeated index, and any
    order of distinct indices gives +-the sum on the increasing order, which
    is the only one tested: R^r_{smn} - R^r_{msn} + R^r_{nsm} for s < m < n.
    It reads only the R^r_{fab} with a < b and f not in {a, b}, builds each
    once as its sum is reached, and builds none in 2D, which has no triple."""
    if not c.is_symmetric():
        raise TorsionError("first Bianchi check requires a symmetric (torsion-free) connection")
    cyclic = (
        _riemann_component(c, r, s, mu, nu)
        - _riemann_component(c, r, mu, s, nu)
        + _riemann_component(c, r, nu, s, mu)
        for r in range(c.chart.dim)
        for s, mu, nu in combinations(range(c.chart.dim), 3)
    )
    return all_zero(cyclic, seed).value
