"""Seeded known-answer input generators for the three workloads.

Every expected verdict, closure and locus is derived here without skewform:
by construction (an identity, a product of known factors, a flat metric
J^T J) or with sympy.  The workload process receives only the generated
text and the expected answers; sympy is never imported there.

Each generator returns a JSON-able dict ``{"rounds": [[op, ...], ...]}``.
A round holds the workload's fixed mix of op shapes with fresh content; an
op is a dict with a ``kind``, a ``size`` (dimension, matrix order or
variable count) and whatever inputs and expected answers that kind needs.
"""

from __future__ import annotations

import random
from itertools import combinations

import sympy as sp

from tracing import DET_SIZES, DIMS

AMBIENT = ["x", "y", "z", "w", "t"]
CATALOG_ENTRIES = [
    "poincare-invariant",
    "cauchy-riemann",
    "vital-force",
    "thermo-first-principle",
    "thermo-second-principle",
    "bianchi-identity",
    "canonical-transformation",
    "legendre-hamilton",
    "green-theorem",
    "duality-operators",
]


# -- sympy helpers --------------------------------------------------------------


def text(e):
    """sympy expression -> skewform scalar syntax."""
    return sp.sstr(e).replace("**", "^").replace("log(", "ln(")


def rand_poly(rng, syms, degrees=(2, 1), coeff=4, const_ok=True):
    """Nonzero polynomial with one term of each listed total degree, random
    variables and small nonzero rational coefficients.  The fixed shape
    keeps the cost of an op steady from seed to seed."""
    while True:
        e = sp.Integer(0)
        for d in degrees:
            c = sp.Rational(rng.choice([k for k in range(-coeff, coeff + 1) if k]), rng.choice([1, 1, 1, 2, 3]))
            e += c * sp.prod([rng.choice(syms) for _ in range(d)])
        e = sp.expand(e)
        if e != 0 and (const_ok or e.free_symbols):
            return e


def _merge(a, b):
    """Sign and merged index tuple of dx^a ^ dx^b (sign 0 on a repeat)."""
    if set(a) & set(b):
        return 0, None
    seq = list(a) + list(b)
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return (-1) ** inversions, tuple(sorted(seq))


def f_clean(terms):
    out = {}
    for idx, c in terms.items():
        c = sp.expand(c)
        if c != 0:
            out[idx] = c
    return out


def f_add(a, b, sign=1):
    out = dict(a)
    for idx, c in b.items():
        out[idx] = out.get(idx, 0) + sign * c
    return f_clean(out)


def f_wedge(a, b):
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign, idx = _merge(ia, ib)
            if sign:
                out[idx] = out.get(idx, 0) + sign * ca * cb
    return f_clean(out)


def f_d(a, syms):
    out = {}
    for idx, c in a.items():
        for k, s in enumerate(syms):
            sign, new = _merge((k,), idx)
            if sign:
                out[new] = out.get(new, 0) + sign * sp.diff(c, s)
    return f_clean(out)


def f_pullback(a, syms, mapping, params):
    """Pull a form on chart `syms` back along x_i = mapping[i](params)."""
    subs = dict(zip(syms, mapping))
    dx = [{(k,): sp.diff(m, u) for k, u in enumerate(params)} for m in mapping]
    out = {}
    for idx, c in a.items():
        term = {(): c.subs(subs)}
        for i in idx:
            term = f_wedge(term, f_clean(dx[i]))
        out = f_add(out, term)
    return out


def f_random(rng, syms, degree):
    """Degree-p form with coefficients on half of the basis p-forms."""
    basis = list(combinations(range(len(syms)), degree))
    while True:
        terms = f_clean({idx: rand_poly(rng, syms) for idx in rng.sample(basis, (len(basis) + 1) // 2)})
        if terms:
            return terms


def f_text(a, names):
    if not a:
        return "0"
    parts = []
    for idx in sorted(a):
        basis = "*".join(f"d[{names[i]}]" for i in idx)
        parts.append(f"({text(a[idx])})" + (f"*{basis}" if basis else ""))
    return " + ".join(parts)


def verdict(psi, omega, syms):
    if not f_add(omega, f_d(psi, syms), -1):
        return "IDENTICAL"
    if not f_d(omega, syms):
        return "CLOSED_RHS"
    return "NONIDENTICAL"


# -- session-mix ----------------------------------------------------------------


def f_nonclosed(rng, syms, degree):
    """Random form whose d is nonzero (so d of it is a nonzero exact form;
    a zero form would reach the DSL as the degree-0 text "0")."""
    while True:
        f = f_random(rng, syms, degree)
        if f_d(f, syms):
            return f


def _relation(rng, syms, p, kind):
    """(psi, omega) of degrees p-1, p whose classification is `kind`."""
    if kind == "IDENTICAL":
        psi = f_nonclosed(rng, syms, p - 1)
        return psi, f_d(psi, syms)
    if kind == "CLOSED_RHS":
        phi = f_nonclosed(rng, syms, p - 1)
        while True:
            psi = f_random(rng, syms, p - 1)
            if f_d(f_add(psi, phi, -1), syms):
                return psi, f_d(phi, syms)
    return f_random(rng, syms, p - 1), f_nonclosed(rng, syms, p)


def session_file(rng, index, max_vars=5):
    """One session.  Its shape (variable count, relation kind and degree,
    scan kind, catalog entry) is fixed by `index`, its content by `rng`."""
    n = 2 + (index // 3) % (max_vars - 1)
    names = AMBIENT[:n]
    syms = sp.symbols(names)
    u, v = sp.symbols("u v")
    lines = [f"# generated session {index}", "chart " + " ".join(names)]

    curve = [u] + [rand_poly(rng, [u]) for _ in range(n - 1)]
    lines.append("pseudo c(u): " + ", ".join(f"{x} = {text(m)}" for x, m in zip(names, curve)))
    surface = None
    if n >= 3:
        surface = [u, v + rand_poly(rng, [u], degrees=(2,))] + [rand_poly(rng, [u, v]) for _ in range(n - 2)]
        lines.append("pseudo s(u, v): " + ", ".join(f"{x} = {text(m)}" for x, m in zip(names, surface)))

    # the relation d(a) = b, of a known classification
    kind = ("IDENTICAL", "CLOSED_RHS", "NONIDENTICAL")[index % 3]
    p = 1 + (index // 12) % min(3, n - 1 if kind == "NONIDENTICAL" else n)
    psi, omega = _relation(rng, syms, p, kind)
    lines += [f"form a = {f_text(psi, names)}", f"form b = {f_text(omega, names)}", "relation r = a => b"]
    lines.append(f"classify r expect {verdict(psi, omega, syms)}")
    on_name, on_map, on_params = ("s", surface, [u, v]) if surface is not None and p <= 2 else ("c", curve, [u])
    psi_on = f_pullback(psi, syms, on_map, on_params)
    omega_on = f_pullback(omega, syms, on_map, on_params)
    lines.append(f"classify r on {on_name} expect {verdict(psi_on, omega_on, on_params)}")

    # chain: a 1-form right side restricted to the curve is always closed
    lines += [
        f"form q0 = {f_text(f_random(rng, syms, 0), names)}",
        f"form q1 = {f_text(f_random(rng, syms, 1), names)}",
        "relation q = q0 => q1",
        "chain q on c",
    ]

    # closed / exact: exact <=> closed for polynomial forms on R^n
    deg = 1 + (index // 12) % min(2, n - 1)
    f = f_d(f_nonclosed(rng, syms, deg - 1), syms) if (index // 6) % 2 else f_random(rng, syms, deg)
    closed = "false" if f_d(f, syms) else "true"
    lines += [f"form f = {f_text(f, names)}", f"check closed f expect {closed}", f"check exact f expect {closed}"]

    lines.append(_session_scan(rng, index, names, syms))
    lines.append(f"catalog run {CATALOG_ENTRIES[index % len(CATALOG_ENTRIES)]}")
    return "\n".join(lines) + "\n"


def _session_scan(rng, index, names, syms):
    n = len(syms)
    kind = ("poisson", "jacobian", "poisson", "determinant")[index % 4]
    if kind == "jacobian" and n > 3:
        kind = "poisson"
    if kind == "poisson":
        pairs = [(names[2 * i], names[2 * i + 1]) for i in range(n // 2)]
        f = rand_poly(rng, syms, const_ok=False)
        g = sp.expand(2 * f ** 2 - 3 * f + 1)
        pairing = ", ".join(f"{q}:{p}" for q, p in pairs)
        return f"scan poisson {text(f)}, {text(g)} with ({pairing}) expect zero"
    if kind == "jacobian":
        fs = [rand_poly(rng, syms, const_ok=False) for _ in range(n - 1)]
        fs.append(sp.expand(fs[0] ** 2 + 2 * fs[0]))
        return "scan jacobian " + ", ".join(text(f) for f in fs) + " expect zero"
    m = min(n, 3)
    factors = [sum(rng.randint(1, 3) * s for s in rng.sample(syms, 2)) + rng.randint(1, 2) for _ in range(m)]
    perm = list(range(m))
    rng.shuffle(perm)
    rows = [[text(factors[i]) if j == perm[i] else "0" for j in range(m)] for i in range(m)]
    return "scan determinant [" + "; ".join(", ".join(r) for r in rows) + "] expect nonzero"


SESSION_ROUND = 12


def session_mix(seed, files=120, max_vars=5):
    """Rounds of SESSION_ROUND files, one of each shape (see session_file)."""
    rng = random.Random(f"perfbench-session-mix:{seed}")
    ops = []
    for i in range(files):
        text = session_file(rng, i, max_vars=max_vars)
        ops.append({"kind": "session", "size": 2 + (i // 3) % (max_vars - 1), "name": f"gen{i:03d}.sk", "text": text})
    return {"rounds": [ops[i : i + SESSION_ROUND] for i in range(0, files, SESSION_ROUND)]}


# -- geometry-dense -------------------------------------------------------------


def _lin(rng, syms):
    return sum(rng.choice([-2, -1, 1, 2]) * s for s in syms) + rng.choice([-2, -1, 1, 2])


def det_case(rng, n):
    """Dense P*L*U over Q[x, y]; det = sign(P) * prod(diag U)."""
    syms = sp.symbols("x y")
    L = sp.eye(n)
    U = sp.zeros(n)
    for i in range(n):
        for j in range(n):
            if j < i:
                L[i, j] = rng.choice([-2, -1, 1, 2])
            elif j > i:
                U[i, j] = _lin(rng, syms)
        U[i, i] = _lin(rng, syms)
    perm = list(range(n))
    rng.shuffle(perm)
    P = sp.zeros(n)
    for i, j in enumerate(perm):
        P[i, j] = 1
    M = (P * L * U).applyfunc(sp.expand)
    det = sp.expand(P.det() * sp.prod([U[i, i] for i in range(n)]))
    return {"kind": "det", "size": n, "rows": [[text(M[i, j]) for j in range(n)] for i in range(n)], "det": text(det)}


def flat_metric(rng, n):
    """g = J^T J for the polynomial map F_1 = x_1 (c_1 + a x_2),
    F_2 = c_2 x_2 + b x_1, F_i = c_i x_i + (linear in x_<i): flat, with
    det g = (det J)^2 for a non-constant det J, so the inverse and the
    connection are rational (gcd work) and sqrt|det g| is exact."""
    syms = sp.symbols(AMBIENT[:n])
    cs = [rng.choice([1, -1, 2, -2, 3]) for _ in range(n)]
    F = [syms[0] * (cs[0] + rng.choice([1, -1, 2]) * syms[1]), cs[1] * syms[1] + rng.choice([1, -1, 2]) * syms[0]]
    F += [cs[i] * syms[i] + rand_poly(rng, syms[:i], degrees=(1,)) for i in range(2, n)]
    J = sp.Matrix([[sp.diff(f, s) for s in syms] for f in F])
    g = (J.T * J).applyfunc(sp.expand)
    return F, J, g


def metric_case(rng, n):
    """A flat metric with the scalar f = h o F for the harmonic
    h = a y_1 y_n + b y_2, so that laplacian(f) = (Lap h) o F = 0.  (A
    non-harmonic h makes the 4D Laplacian several times slower and its
    cost swing with the seed.)"""
    F, J, g = flat_metric(rng, n)
    h = rng.choice([1, -1, 2, 3]) * F[0] * F[n - 1] + rng.choice([1, -2, 3]) * F[1]
    det_j = sp.expand(J.det())
    return {
        "size": n,
        "chart": AMBIENT[:n],
        "rows": [[text(g[i, j]) for j in range(n)] for i in range(n)],
        "det": text(sp.expand(det_j ** 2)),
        "volume": text(det_j),
        "scalar": text(sp.expand(h)),
        "laplacian": "0",
    }, J


def hodge_case(rng, m, J, basis):
    """star(dx^I) for I = `basis`, with its known value at a random rational
    point pt: the coefficient of dx^K is sign(L, K) det(G[L, I]) det J(pt),
    L the complement of K and G = g(pt)^-1, from alpha ^ star(beta) =
    <alpha, beta> vol with vol = det J dx^1..dx^n (the workload process
    fixes the sign of sqrt|det g| from the Metric's volume)."""
    n = len(m["chart"])
    syms = sp.symbols(m["chart"])
    while True:
        pt = {s: sp.Rational(rng.randint(-40, 40), rng.randint(1, 9)) for s in syms}
        Jp = J.subs(pt)
        if Jp.det() != 0:
            break
    Ji = Jp.inv()
    G = Ji * Ji.T
    star = {}
    for L in combinations(range(n), len(basis)):
        K = tuple(i for i in range(n) if i not in L)
        star[",".join(map(str, K))] = str(_merge(L, K)[0] * G.extract(list(L), list(basis)).det() * Jp.det())
    return dict(m, kind="hodge", degree=len(basis), basis=list(basis), point={str(s): str(v) for s, v in pt.items()}, star_at=star)


def connection_case(rng, n):
    """Dense symmetric connection: the first Bianchi identity holds."""
    syms = sp.symbols(AMBIENT[:n])
    entries = []
    for s in range(n):
        for a in range(n):
            for b in range(a, n):
                entries.append([s, a, b, text(rand_poly(rng, syms))])
    return {"kind": "bianchi", "size": n, "chart": AMBIENT[:n], "entries": entries}


# Ops per round, chosen so that p50 and p90 each fall inside a group of
# like-cost ops rather than on the edge between two groups (single-op
# timings on a 2-core x86 VM).  Of the 75 ops, 15 cost 2-10 ms (det3, 2D
# and 3D metrics, Hodge of 1-forms) and 45 cost 10-12 ms (det4, 2D
# Bianchi): p50 falls in the middle of these.  Then come five ops of 15-45
# ms, five of 60-80 ms (det5, 3D curvature, 4D Laplacian, 4D Hodge of a
# 2-form), where p90 falls, and the five costliest (Bianchi 3D and 4D,
# det6, 4D curvature, 4D Hodge of a 3-form, 120-600 ms), which lie above
# p90 and show in ops_per_s and in the per-layer sweep rows only.
DET_COUNTS = {3: 2, 4: 39, 5: 2, 6: 1}
BIANCHI_COUNTS = {2: 6, 3: 1, 4: 1}
EXTRA_METRICS = {2: 0, 3: 2, 4: 0}  # metric-only cases


def geometry_dense(seed, rounds=3, det_sizes=DET_SIZES, dims=DIMS):
    """Rounds of the dimension/degree sweep, each with fresh cases."""
    rng = random.Random(f"perfbench-geometry-dense:{seed}")
    out = []
    for _ in range(rounds):
        ops = []
        for n in det_sizes:
            ops += [det_case(rng, n) for _ in range(DET_COUNTS[n])]
        for n in dims:
            m, J = metric_case(rng, n)
            ops += [dict(m, kind=kind) for kind in ("metric", "laplacian", "curvature")]
            ops += [hodge_case(rng, m, J, [i]) for i in range(n)]
            ops += [hodge_case(rng, m, J, range(p)) for p in range(2, n)]
            ops += [dict(metric_case(rng, n)[0], kind="metric") for _ in range(EXTRA_METRICS[n])]
            ops += [connection_case(rng, n) for _ in range(BIANCHI_COUNTS[n])]
        out.append(ops)
    return {"rounds": out}


# -- sampled-scan ---------------------------------------------------------------

# (name, make) pairs: each make maps polynomial arguments p, q to an
# expression that is identically zero.
IDENTITIES = [
    ("pythagoras", lambda p, q: sp.sin(p) ** 2 + sp.cos(p) ** 2 - 1),
    ("sin-sum", lambda p, q: sp.sin(p + q) - sp.sin(p) * sp.cos(q) - sp.cos(p) * sp.sin(q)),
    ("cos-double", lambda p, q: sp.cos(2 * p) - sp.cos(p) ** 2 + sp.sin(p) ** 2),
    ("exp-sum", lambda p, q: sp.exp(p + q) - sp.exp(p) * sp.exp(q)),
    ("exp-square", lambda p, q: sp.exp(p) ** 2 - sp.exp(2 * p)),
    ("ln-product", lambda p, q: sp.log((p ** 2 + 1) * (q ** 2 + 1)) - sp.log(p ** 2 + 1) - sp.log(q ** 2 + 1)),
]

# The sampled zero test judges exp identities "nonzero" (ROADMAP D1: an
# absolute tolerance against samples of magnitude ~5e8).  They stay in the
# workload on purpose; their cases carry "defect": "D1", and the workload
# process counts such a wrong verdict as a known miss, apart from failed ops.
LITERAL_CASES = ["exp(x)^2 - exp(2*x)", "exp(x+y) - exp(x)*exp(y)"]


def zero_sheet(rng, nvars, pairs=2):
    """For each of `pairs` pairs of polynomial arguments p, q: every
    identity, and three of them once more plus a nonzero polynomial."""
    syms = sp.symbols(AMBIENT[:nvars])
    cases = []
    for k in range(pairs):
        p = rand_poly(rng, syms, coeff=2, const_ok=False)
        q = rand_poly(rng, syms, coeff=2, const_ok=False)
        for family, (name, make) in enumerate(IDENTITIES):
            with sp.evaluate(False):  # keep the identity's structure as written
                e = make(p, q)
            case = {"family": name, "expr": text(e), "zero": True}
            cases.append(dict(case, defect="D1") if name.startswith("exp") else case)
            if (family + 3 * k) % len(IDENTITIES) < 3:
                cases.append({"family": f"{name}+poly", "expr": text(e + rand_poly(rng, syms, const_ok=False)), "zero": False})
    return {"kind": "zeros", "size": nvars, "cases": cases}


def scan_case(rng, kind, nvars):
    names = AMBIENT[:nvars]
    syms = sp.symbols(names)
    x = syms[0]
    # a sin(w v + b) term makes a locus k cos(w v + b) = 0; the phase keeps
    # F, and so the scan's seeded lines, different from op to op
    freq, shift = rng.randint(1, 3), sp.Rational(rng.randint(-9, 9), rng.randint(2, 7))
    if kind == "jacobian":
        # F = (a sin(w x + b) + q(rest), c_2 x_2 + r(x_>2), ...):
        # det J = a w prod(c) cos(w x + b)
        scale = rng.choice([1, 2, -1, 3])
        fs = [scale * sp.sin(freq * x + shift) + rand_poly(rng, syms[1:], const_ok=False)]
        scale *= freq
        for i in range(1, nvars):
            c = rng.choice([1, 2, -1, -2])
            scale *= c
            fs.append(c * syms[i] + (rand_poly(rng, syms[i + 1:]) if i + 1 < nvars else rng.randint(-3, 3)))
        locus = {"cos": names[0], "scale": scale, "freq": freq, "shift": str(shift)}
        return {"kind": "scan", "scan": "jacobian", "size": nvars, "chart": names, "exprs": [text(f) for f in fs], "pairing": None, "zero": False, "locus": locus}
    if kind == "determinant":
        m = nvars
        factors = []
        for _ in range(m):
            coeffs = [rng.choice([1, 2, 3, -1, -2]) for _ in syms]
            c0 = rng.randint(-2, 2)
            factors.append(coeffs + [c0])
        perm = list(range(m))
        rng.shuffle(perm)
        lin = lambda f: sum(c * s for c, s in zip(f, syms)) + f[-1]
        rows = [[text(lin(factors[i])) if j == perm[i] else "0" for j in range(m)] for i in range(m)]
        case = {"kind": "scan", "scan": "determinant", "size": nvars, "chart": names, "rows": rows, "zero": False, "locus": {"linear": factors}}
        # det = c f^2 (two proportional factors) never changes sign, so
        # sign-change bisection cannot find its zeros: a known miss
        _, factored = sp.factor_list(sp.prod([lin(f) for f in factors]))
        return dict(case, defect="even-order") if all(k % 2 == 0 for _, k in factored) else case
    # poisson over (x:y): {c x, sin(w y + b) + s(x)} = c w cos(w y + b) has a
    # known locus; {f, h(f)} vanishes identically
    if kind == "poisson-locus":
        c = rng.choice([1, 2, -1, 3])
        exprs = [c * x, sp.sin(freq * syms[1] + shift) + rand_poly(rng, [x])]
        locus = {"cos": names[1], "scale": c * freq, "freq": freq, "shift": str(shift)}
        return {"kind": "scan", "scan": "poisson", "size": nvars, "chart": names, "exprs": [text(f) for f in exprs], "pairing": [names[:2]], "zero": False, "locus": locus}
    f = rand_poly(rng, syms[:2], const_ok=False)
    h = rng.choice([sp.sin, sp.exp, lambda u: u ** 3 - 2 * u])
    return {"kind": "scan", "scan": "poisson", "size": nvars, "chart": names, "exprs": [text(f), text(h(f))], "pairing": [names[:2]], "zero": True, "locus": None}


def sampled_scan(seed, rounds=24, nvars=(1, 2, 3)):
    """Rounds of one zero-test sheet and six scans: five with a known locus
    and one that vanishes identically.  A perturbed test, like a false
    "nonzero" verdict, returns at its first sample, so it is timed inside a
    sheet rather than alone.  Single-op timings on a 2-core x86 VM: the
    identically zero scan takes 1 ms, the locus scans 30-55 ms (p50 falls
    in the middle of these), a sheet 50-70 ms (p90 falls among these) and
    a 3D determinant scan, in a third of the rounds, about 100 ms.  The
    first sheet also holds the literal known-defect cases."""
    rng = random.Random(f"perfbench-sampled-scan:{seed}")
    out = []
    for r in range(rounds):
        sheet = zero_sheet(rng, nvars[r % len(nvars)])
        if r == 0:
            sheet["cases"] += [{"family": "literal", "expr": t, "zero": True, "defect": "D1"} for t in LITERAL_CASES]
        ops = [sheet]
        for kind in ("jacobian", "determinant", "poisson-locus", "poisson-locus", "poisson-locus", "poisson-zero"):
            ops.append(scan_case(rng, kind, max(2, nvars[r % len(nvars)])))
        out.append(ops)
    return {"rounds": out}
