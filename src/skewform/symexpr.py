"""Exact symbolic scalars used as differential-form coefficients.

An Expr is a canonical quotient of two multivariate polynomials over Q.
Generators of the polynomial ring are plain variables plus applications of
the elementary functions sin, cos, exp, ln (treated as opaque atoms whose
arguments are themselves Exprs).  Two equal rational functions always
canonicalize to the same tree: numerator/denominator are reduced by their
polynomial GCD and the denominator is made monic under a fixed monomial
order (graded lexicographic over generator names).

Zero testing is exact for pure rational functions (canonical zero is the
unique empty numerator).  When elementary-function atoms are present the
test degrades to evaluation at seeded random rational points and the
verdict is flagged as probabilistic.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
import re
import sys
import weakref
from fractions import Fraction


class ExprError(Exception):
    """Base class for symbolic-kernel errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class PoleError(ExprError):
    """Evaluation hit a zero denominator or a function-domain boundary."""


class UnboundVariableError(ExprError):
    pass


class ZeroTestError(ExprError):
    """The randomized zero test could not find pole-free sample points."""


FUNCTIONS = ("sin", "cos", "exp", "ln")

_MATH_FN = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}


def _frac_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


class Atom:
    """An elementary-function application treated as a polynomial generator.

    Atoms are interned: while one is alive, `Atom(fn, arg)` returns it for
    every equal argument, so equal atoms, and their keys, are one object and
    compare by identity.  The table holds its atoms weakly."""

    __slots__ = ("fn", "arg", "_key", "_hash", "__weakref__")

    def __new__(cls, fn, arg):
        key = _AtomKey(("b", fn, arg.sort_key()))
        self = _ATOMS.get(key)
        if self is None:
            self = _ATOMS[key] = super().__new__(cls)
            self.fn, self.arg, self._key, self._hash = fn, arg, key, key.hash
        return self

    def sort_key(self):
        return self._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.fn}({self.arg})"


class _AtomKey(tuple):
    """An atom's sort key ("b", fn, argument key), ordered and equal as that
    tuple.  Its hash is cached and compared first, so two unequal keys of
    nested atoms differ at once instead of at the bottom of their nesting,
    and `<` goes through a bounded memo: a key is compared with its
    neighbours' arguments once, not once per level above them, so merging
    and sorting nested atoms costs their depth, not its square."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        if other.__class__ is _AtomKey:
            return self is other or (self.hash == other.hash and tuple.__eq__(self, other))
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        return _key_less(self, other)

    def __gt__(self, other):
        return _key_less(other, self)


@functools.lru_cache(maxsize=4096)
def _key_less(a, b):
    return tuple.__lt__(a, b)


_ATOMS = weakref.WeakValueDictionary()
_VAR_KEYS = {}
_VAR_MONOS = {}


def _gen_key(gen):
    if isinstance(gen, str):
        # interned: one key object per variable, so merges mostly compare by identity
        key = _VAR_KEYS.get(gen)
        if key is None:
            key = _VAR_KEYS[gen] = ("a", gen)
        return key
    return gen.sort_key()


class Monomial:
    """Product of generator powers, stored as (generator, exponent) pairs
    sorted by generator key.  Ordering is graded lex.

    `_keys[i]` is the `_gen_key` of `items[i][0]`, computed once: products,
    quotients and comparisons walk the two sorted tuples in step on these
    keys.  The hash is that of `items` (an Atom hashes its key), so equal
    monomials hash equal whichever way they were built."""

    __slots__ = ("items", "degree", "_keys", "_hash")

    def __init__(self, items, keys=None, degree=None):
        self.items = items = tuple(items)
        self._keys = tuple(_gen_key(g) for g, _ in items) if keys is None else tuple(keys)
        self.degree = sum(e for _, e in items) if degree is None else degree
        self._hash = hash(items)

    @staticmethod
    def unit():
        return _MONO_UNIT

    @staticmethod
    def of(gen, exp=1):
        """gen^exp; a variable's first power is one interned Monomial."""
        if exp == 1 and isinstance(gen, str):
            m = _VAR_MONOS.get(gen)
            if m is None:
                m = _VAR_MONOS[gen] = Monomial(((gen, 1),))
            return m
        return Monomial(((gen, exp),))

    def __eq__(self, other):
        return self._hash == other._hash and self.items == other.items

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if self.degree != other.degree:
            return self.degree < other.degree
        a, b = self.items, other.items
        ka, kb = self._keys, other._keys
        i = j = 0
        while i < len(a) and j < len(b):
            if ka[i] == kb[j]:
                if a[i][1] != b[j][1]:
                    return a[i][1] < b[j][1]
                i += 1
                j += 1
            elif ka[i] < kb[j]:
                # self has a positive power at an earlier generator
                return False
            else:
                return True
        if i < len(a):
            return False
        return j < len(b)

    def mul(self, other):
        a, b = self.items, other.items
        if not b:
            return self
        if not a:
            return other
        ka, kb = self._keys, other._keys
        na, nb = len(a), len(b)
        items = []
        keys = []
        i = j = 0
        while i < na and j < nb:
            x, y = ka[i], kb[j]
            if x is y or x == y:
                items.append((a[i][0], a[i][1] + b[j][1]))
                keys.append(x)
                i += 1
                j += 1
            elif x < y:
                items.append(a[i])
                keys.append(x)
                i += 1
            else:
                items.append(b[j])
                keys.append(y)
                j += 1
        if i < na:
            items += a[i:]
            keys += ka[i:]
        elif j < nb:
            items += b[j:]
            keys += kb[j:]
        return Monomial(items, keys, self.degree + other.degree)

    def divide(self, other):
        """Exact monomial quotient, or None when not divisible."""
        a, ka = self.items, self._keys
        na = len(a)
        items = []
        keys = []
        i = 0
        for y, (_, e) in zip(other._keys, other.items):
            while i < na and ka[i] < y:
                items.append(a[i])
                keys.append(ka[i])
                i += 1
            if i == na or ka[i] != y or a[i][1] < e:
                return None
            if a[i][1] > e:
                items.append((a[i][0], a[i][1] - e))
                keys.append(y)
            i += 1
        items += a[i:]
        keys += ka[i:]
        return Monomial(items, keys, self.degree - other.degree)

    def split(self, gen):
        """(exponent of gen, self with gen removed)."""
        for i, (g, e) in enumerate(self.items):
            if g == gen:
                return e, Monomial(self.items[:i] + self.items[i + 1:], self._keys[:i] + self._keys[i + 1:])
        return 0, self

    def sort_key(self):
        return tuple(zip(self._keys, [e for _, e in self.items]))


_MONO_UNIT = Monomial(())


class Poly:
    """Sparse multivariate polynomial over Q: a positive Fraction `content`
    times `ints`, a primitive `{Monomial: int}` dict (coefficient gcd 1, no
    zero entry; the zero polynomial is 1 times `{}`).  The pair is unique,
    so `==` and the hash are structural.  A product of primitive
    polynomials is primitive (Gauss's lemma), so `*` multiplies the contents
    and convolves the ints with no gcd.  `terms` is the Fraction view,
    `{Monomial: Fraction}`, built at each read for printing and tests."""

    __slots__ = ("content", "ints", "_hash", "_key")

    def __new__(cls, terms):
        """The Poly of a `{Monomial: rational}` dict."""
        terms = {m: Fraction(c) for m, c in terms.items() if c}
        scale = math.lcm(*(c.denominator for c in terms.values()))
        return _from_ints({m: c.numerator * (scale // c.denominator) for m, c in terms.items()}, Fraction(1, scale))

    @property
    def terms(self):
        return {m: self.content * c for m, c in self.ints.items()}

    @staticmethod
    def one():
        return _POLY_ONE

    @staticmethod
    def const(q):
        q = Fraction(q)
        return _poly(q, {_MONO_UNIT: 1}) if q.numerator > 0 else _poly(-q, {_MONO_UNIT: -1}) if q else _POLY_ZERO

    @staticmethod
    def gen(g):
        return _poly(_F1, {Monomial.of(g): 1})

    def is_zero(self):
        return not self.ints

    def is_const(self):
        return not self.ints or (len(self.ints) == 1 and _MONO_UNIT in self.ints)

    def const_value(self):
        c = self.ints.get(_MONO_UNIT, 0)
        return self.content if c == 1 else self.content * c

    def __eq__(self, other):
        return self.ints == other.ints and self.content == other.content

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.sort_key())
        return self._hash

    def sort_key(self):
        if self._key is None:
            items = sorted(self.terms.items(), key=lambda t: t[0].sort_key())
            self._key = tuple((m.sort_key(), (c.numerator, c.denominator)) for m, c in items)
        return self._key

    def __add__(self, other):
        # an empty operand returns the other: the sum would copy it
        if not other.ints:
            return self
        return self._plus(other, 1) if self.ints else other

    def __sub__(self, other):
        if not other.ints:
            return self
        return self._plus(other, -1) if self.ints else -other

    def _plus(self, other, sign):
        """self + sign * other, both nonzero: a and b times their ints over one denominator."""
        p, q = self.content, other.content
        a, b = 1, sign
        if p != q:
            pd, qd = p.denominator, q.denominator
            g = math.gcd(pd, qd)
            a, b = p.numerator * (qd // g), q.numerator * (pd // g)
            h = math.gcd(a, b)
            a, b, p = a // h, sign * (b // h), Fraction(h, pd // g * qd)
        res = dict(self.ints) if a == 1 else {m: a * c for m, c in self.ints.items()}
        get = res.get
        for m, c in other.ints.items():
            s = get(m, 0) + b * c
            if s:
                res[m] = s
            else:
                del res[m]
        return _from_ints(res, p)

    def __neg__(self):
        return _poly(self.content, {m: -c for m, c in self.ints.items()})

    def __mul__(self, other):
        if not (self.ints and other.ints):
            return _POLY_ZERO
        # A constant factor scales the other.
        if other.is_const():
            return self.scale(other.const_value())
        if self.is_const():
            return other.scale(self.const_value())
        res = {}
        get = res.get
        b = other.ints.items()
        for m1, c1 in self.ints.items():
            mul = m1.mul
            for m2, c2 in b:
                m = mul(m2)
                res[m] = get(m, 0) + c1 * c2
        return _poly(_qmul(self.content, other.content), {m: s for m, s in res.items() if s})

    def scale(self, q):
        """self times the rational q; q == 1 returns self, as a Poly is immutable."""
        if q == 1:
            return self
        q = Fraction(q) if q.__class__ is int else q  # a content is a Fraction
        if not (q and self.ints):
            return _POLY_ZERO
        if q > 0:
            return _poly(_qmul(self.content, q), self.ints)
        return _poly(_qmul(self.content, -q), {m: -c for m, c in self.ints.items()})

    def __pow__(self, n):
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def leading(self):
        m = max(self.ints)
        return m, self.content * self.ints[m]

    def generators(self):
        gens = set()
        for m in self.ints:
            for g, _ in m.items:
                gens.add(g)
        return gens

    def variables(self):
        out = set()
        for g in self.generators():
            if isinstance(g, str):
                out.add(g)
            else:
                out |= g.arg.variables()
        return out

    def atoms(self):
        out = set()
        for g in self.generators():
            if isinstance(g, Atom):
                out.add(g)
                out |= g.arg.num.atoms() | g.arg.den.atoms()
        return out

    def total_degree(self):
        return max((m.degree for m in self.ints), default=0)


def _poly(content, ints):
    """The Poly content * ints, as they are: content > 0, ints primitive."""
    p = object.__new__(Poly)
    p.content = content
    p.ints = ints
    p._hash = p._key = None
    return p


def _qmul(p, q):
    """p * q, multiplied only when neither is 1."""
    return p if q == 1 else q if p == 1 else p * q


def _from_ints(ints, q):
    """The Poly q * ints, q > 0, ints made primitive by one gcd."""
    if not ints:
        return _POLY_ZERO
    g = math.gcd(*ints.values())
    return _poly(q * g, {m: c // g for m, c in ints.items()}) if g != 1 else _poly(q, ints)


def _poly_sum(polys):
    """The sum of polys in one dict over the lcm of their content denominators, with one gcd."""
    scale, res = math.lcm(*(p.content.denominator for p in polys)), {}
    for p in polys:
        k = p.content.numerator * (scale // p.content.denominator)
        for m, c in p.ints.items():
            res[m] = res.get(m, 0) + k * c
    return _from_ints({m: c for m, c in res.items() if c}, Fraction(1, scale))


_F1 = Fraction(1)
_POLY_ZERO = _poly(_F1, {})
_POLY_ONE = _poly(_F1, {_MONO_UNIT: 1})


class NotExactDivision(ExprError):
    pass


class _PackedRing:
    """Packed exponent vectors over one ring (Monagan and Pearce 2007).

    A monomial is one int with a field per generator, in `_gen_key` order,
    the first highest, so ints order as monomials do in lex order and a
    product of monomials is an int sum.  A field holds its generator's
    bound, the sum over `groups` of the group's largest exponent, plus a
    guard bit that is zero in every packed monomial: m - n is negative or
    sets a guard bit exactly when an exponent of n exceeds that of m.  A
    packed polynomial is an `{int: int}` dict."""

    __slots__ = ("fields", "guards", "bound")

    def __init__(self, groups):
        bounds = {}
        for polys in groups:
            tops = {}
            for p in polys:
                for m in p.ints:
                    for g, e in m.items:
                        if tops.get(g, 0) < e:
                            tops[g] = e
            for g, e in tops.items():
                bounds[g] = bounds.get(g, 0) + e
        self.fields, at, self.guards, self.bound = [], 0, 0, 0
        for g in sorted(bounds, key=_gen_key, reverse=True):
            width = bounds[g].bit_length() + 1
            self.guards |= 1 << (at + width - 1)
            self.bound |= bounds[g] << at
            self.fields.append((g, _gen_key(g), at, (1 << width) - 1))
            at += width
        self.fields.reverse()

    def pack(self, polys):
        """(c, [P]): the Polys are the positive Fraction c times the packed
        integer polynomials P, whose coefficients are setwise coprime.  A P is
        an int k times its Poly's ints, read as they stand, as these are
        primitive, so c is the gcd of the k over the lcm of the contents."""
        shift = {g: at for g, _, at, _ in self.fields}
        scale = math.lcm(*(p.content.denominator for p in polys))
        ks = [p.content.numerator * (scale // p.content.denominator) if p.ints else 0 for p in polys]
        content = math.gcd(*ks) or 1
        packed = [{sum(e << shift[g] for g, e in m.items): k // content * c for m, c in p.ints.items()} for p, k in zip(polys, ks)]
        return Fraction(content, scale), packed

    def unpack(self, packed, q=_F1):
        """The Poly q times the packed integer polynomial, q != 0, made
        primitive by one gcd: 1 for an exact quotient of primitive
        polynomials (Gauss's lemma), whose ints are then kept as built."""
        sign, out, q = (1, {}, q) if q > 0 else (-1, {}, -q)
        for m, c in packed.items():
            items, keys = [], []
            for g, key, at, mask in self.fields:
                e = m >> at & mask
                if e:
                    items.append((g, e))
                    keys.append(key)
            out[Monomial(items, keys)] = sign * c
        return _from_ints(out, q)

    def divexact(self, f, g):
        """f / g for packed integer f and primitive g, so an exact quotient
        has integer coefficients (Gauss's lemma), by heap division: the
        remainder's monomials wait in a heap instead of a search for the
        largest at every step.  A quotient monomial must divide (no guard
        bit) and stay within the bound less g's degrees field by field, which
        ends an inexact division early.  Raises NotExactDivision otherwise."""
        cap = self.bound
        for _, _, at, mask in self.fields:
            cap -= max(m >> at & mask for m in g) << at
        lead = max(g)
        lc, guards = g[lead], self.guards
        rest = [(m, c) for m, c in g.items() if m != lead]
        rem, quotient = dict(f), {}
        heap = [-m for m in rem]
        heapq.heapify(heap)
        while heap:
            m = -heapq.heappop(heap)
            c = rem.pop(m, 0)
            if not c:
                continue  # cancelled after it was pushed
            q = m - lead
            qc, r = divmod(c, lc)
            if r or q < 0 or q & guards:
                raise NotExactDivision("inexact polynomial division")
            if q > cap or (cap - q) & guards:
                raise NotExactDivision("inexact polynomial division")
            quotient[q] = qc
            for n, d in rest:
                n += q
                s = rem.get(n, 0) - qc * d
                if s:
                    if n not in rem:
                        heapq.heappush(heap, -n)
                    rem[n] = s
                else:
                    del rem[n]
        return quotient


def _poly_divexact(f, g):
    """Exact polynomial quotient f/g; raises NotExactDivision otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return _POLY_ZERO
    if g.is_const():
        return f.scale(1 / g.const_value())
    ring = _PackedRing([(f, g)])
    (cf, (fp,)), (cg, (gp,)) = ring.pack((f,)), ring.pack((g,))
    return ring.unpack(ring.divexact(fp, gp), cf / cg)


def _to_univar(p, x):
    """View p as univariate in generator x with Poly coefficients."""
    coeffs = {}
    for m, c in p.ints.items():
        e, rest_m = m.split(x)
        coeffs.setdefault(e, {})[rest_m] = c  # m -> (e, rest_m) is one to one
    return {e: _from_ints(bucket, p.content) for e, bucket in coeffs.items()}


def _from_univar(u, x):
    return _poly_sum([coeff * (_poly(_F1, {Monomial.of(x, e): 1}) if e else _POLY_ONE) for e, coeff in u.items()])


def _univar_content(u):
    coeffs = iter(u.values())
    c = _gcd_normalize(next(coeffs))
    for coeff in coeffs:
        c = poly_gcd(c, coeff)
    return c


def _univar_prem(f, g):
    """Pseudo-remainder of univariate-view polynomials (Poly coefficients).

    The classical lc(g)^k premultiplier is irrelevant here because callers
    take primitive parts immediately afterwards.
    """
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        shift = dr - dg
        new = {}
        for e, c in r.items():
            new[e] = lg * c
        for e, c in g.items():
            term = lr * c
            cur = new.get(e + shift, _POLY_ZERO)
            cur = cur - term
            new[e + shift] = cur
        r = {e: c for e, c in new.items() if not c.is_zero()}
    return r


def _prs_gcd(f, g):
    """Primitive-PRS multivariate GCD (fallback path; exact but can swell)."""
    if f.is_zero():
        return _gcd_normalize(g)
    if g.is_zero():
        return _gcd_normalize(f)
    gens = sorted(f.generators() | g.generators(), key=_gen_key)
    if not gens:
        return _POLY_ONE
    x = gens[0]
    fu = _to_univar(f, x)
    gu = _to_univar(g, x)
    cf = _univar_content(fu)
    cg = _univar_content(gu)
    c = _prs_gcd(cf, cg)
    fp = {e: _poly_divexact(p, cf) for e, p in fu.items()}
    gp = {e: _poly_divexact(p, cg) for e, p in gu.items()}
    if max(fp) < max(gp):
        fp, gp = gp, fp
    while gp:
        r = _univar_prem(fp, gp)
        fp = gp
        if not r:
            break
        rc = _univar_content(r)
        gp = {e: _poly_divexact(p, rc) for e, p in r.items()}
        if max(r) == 0:
            # remainder is a nonzero "constant" in x: gcd has no x part
            fp = {0: _POLY_ONE}
            break
    result = c * _from_univar(fp, x)
    return _gcd_normalize(result)


class _HeuristicFailed(Exception):
    pass


class _PastBudget(_HeuristicFailed):
    """A point past XI_BITS, where the heuristic gives up at every level."""


# No heuristic evaluation point has more bits: the integers of the level below
# grow as xi to the power of the degree.  The workloads' largest xi has 48.
XI_BITS = 1 << 14


def _gcdheu(f, g, ring, level=0):
    """(h, f/h, g/h) for the heuristic GCD h of packed integer polynomials
    (Char, Geddes and Gonnet 1989): the generator of this level is put to a
    large integer xi, h is read off the symmetric base-xi digits of the gcd
    one level down, and its verifying division by f and g makes it exact.

    The common integer content is pulled out per level and multiplied back
    onto the verified result: after extraction the sought gcd is
    ground-primitive, which is what makes the per-level primitive-part
    step safe, while the lower level's content carries this level's
    encoded coefficients.
    """
    common = math.gcd(*f.values(), *g.values())
    if common != 1:
        f = {m: c // common for m, c in f.items()}
        g = {m: c // common for m, c in g.items()}
    if 0 in f and len(f) == 1 or 0 in g and len(g) == 1:
        # after extraction the residual gcd of a constant with anything is 1
        return {0: common}, f, g
    _, _, at, mask = ring.fields[level]
    bound = ring.bound >> at & mask
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(8):
        if xi.bit_length() > XI_BITS:
            raise _PastBudget
        fe, ge = _packed_eval(f, at, mask, xi), _packed_eval(g, at, mask, xi)
        try:
            he = _gcdheu(fe, ge, ring, level + 1)[0] if fe and ge else {}
            h = {}
            for m, c in he.items():
                for k, digit in enumerate(_symmetric_digits(c, xi)):
                    if digit:
                        if k > bound:
                            raise NotExactDivision("a digit past the degree bound")
                        h[m + (k << at)] = digit
            if h:
                content = math.gcd(*h.values())
                h = {m: c // content for m, c in h.items()}
                fq, gq = ring.divexact(f, h), ring.divexact(g, h)
                return {m: c * common for m, c in h.items()}, fq, gq
        except _PastBudget:
            raise
        except (_HeuristicFailed, NotExactDivision):
            pass
        xi = 73794 * xi // 27011 + 7
    raise _HeuristicFailed


def _symmetric_digits(c, xi):
    """The digits d_k in [-(xi // 2), xi - xi // 2) of c = sum d_k xi^k, the last nonzero."""
    half, digits = xi // 2, []
    while c:
        digit = (c + half) % xi - half
        digits.append(digit)
        c = (c - digit) // xi
    return digits


def _packed_eval(p, at, mask, xi):
    """The packed p with xi put for the generator of the field at `at`."""
    out = {}
    for m, c in p.items():
        e = m >> at & mask
        m -= e << at
        out[m] = out.get(m, 0) + c * xi ** e
    return {m: c for m, c in out.items() if c}


def poly_cofactors(f, g):
    """(h, f/h, g/h) for h the GCD of nonzero multivariate polynomials
    over Q, monic in the monomial order.  A gcd of 1 returns f and g
    themselves.

    The heuristic GCD runs on the primitive parts packed once; its
    verifying division yields the cofactors, and h, f/h and g/h are
    unpacked only when h is not 1.  The primitive PRS is the correctness
    fallback and divides once at its end.
    """
    if f.is_const() or g.is_const():
        if not (f.ints and g.ints):
            raise ZeroDivisionError("cofactors of a zero polynomial")
        return _POLY_ONE, f, g
    if f == g:
        c = Poly.const(f.leading()[1])
        return _gcd_normalize(f), c, c
    ring = _PackedRing([(f, g)])
    (cf, (fp,)), (cg, (gp,)) = ring.pack((f,)), ring.pack((g,))
    try:
        h, fq, gq = _gcdheu(fp, gp, ring)
    except _HeuristicFailed:
        h = _prs_gcd(f, g)
        if h.is_const():
            return _POLY_ONE, f, g
        return h, _poly_divexact(f, h), _poly_divexact(g, h)
    if 0 in h and len(h) == 1:
        return _POLY_ONE, f, g
    h = ring.unpack(h)
    _, lc = h.leading()
    return h.scale(1 / lc), ring.unpack(fq, cf * lc), ring.unpack(gq, cg * lc)


def poly_gcd(f, g):
    """GCD of multivariate polynomials over Q, monic in the monomial order."""
    return poly_cofactors(f, g)[0]


def _gcd_normalize(p):
    if p.is_zero():
        return _POLY_ZERO
    _, lc = p.leading()
    return p.scale(1 / lc)


def _poly_sqrt(p):
    """Return q with q*q == p, or None when p is not a perfect square."""
    if p.is_zero():
        return _POLY_ZERO
    lm, lc = p.leading()
    if any(e % 2 for _, e in lm.items):
        return None
    rc = _frac_sqrt(lc)
    if rc is None:
        return None
    root_m = Monomial(tuple((g, e // 2) for g, e in lm.items))
    q = Poly({root_m: rc})
    guard = 0
    while True:
        r = p - q * q
        if r.is_zero():
            return q
        rm, rcoef = r.leading()
        tm = rm.divide(root_m)
        if tm is None:
            return None
        q = q + Poly({tm: rcoef / (2 * rc)})
        guard += 1
        if guard > len(p.ints) * 4 + 16:
            return None


class Expr:
    """Canonical rational function.  Immutable; safe to share."""

    __slots__ = ("num", "den", "_hash", "_text", "_key")

    def __init__(self, num, den, _canonical=False):
        if not _canonical:
            raise ExprError("use Expr.make / parse_expr to build expressions")
        self.num = num
        self.den = den
        self._hash = None
        self._text = None
        self._key = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(num, den=None):
        den = _POLY_ONE if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return ZERO
        _, num, den = poly_cofactors(num, den)
        _, lc = den.leading()
        if lc != 1:
            inv = 1 / lc
            num, den = num.scale(inv), den.scale(inv)
        return Expr(num, den, _canonical=True)

    @staticmethod
    def const(q):
        return _polynomial_expr(Poly.const(q))

    @staticmethod
    def var(name):
        return _polynomial_expr(Poly.gen(name))

    # -- predicates --------------------------------------------------------

    def is_zero_struct(self):
        """Structural test: canonical zero (exact for rational Exprs)."""
        return self.num.is_zero()

    def is_rational_constant(self):
        return self.num.is_const() and self.den.is_const()

    def as_fraction(self):
        if not self.is_rational_constant():
            raise ExprError(f"not a rational constant: {self}")
        return self.num.const_value() / self.den.const_value()

    def is_integer_constant(self):
        return self.is_rational_constant() and self.as_fraction().denominator == 1

    def has_atoms(self):
        return bool(self.num.atoms() or self.den.atoms())

    def variables(self):
        return frozenset(self.num.variables() | self.den.variables())

    def is_polynomial_in(self, names):
        """True when self is polynomial in the given variables: they appear
        neither in the denominator nor inside elementary-function atoms."""
        names = set(names)
        if self.den.variables() & names:
            return False
        for atom in self.num.atoms():
            if atom.arg.variables() & names:
                return False
        return True

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Expr):
            return x
        if isinstance(x, (int, Fraction)):
            return Expr.const(x)
        return NotImplemented

    # The shortcuts in +, -, negation and * build the Expr that Expr.make
    # builds on the general path, without its gcd: a zero operand, a
    # negation, a constant factor, and a sum or difference of two
    # polynomials (canonical constant denominators are always 1).

    def __add__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.ints:
            return self
        if not self.num.ints:
            return other
        if self.den.is_const() and other.den.is_const():
            return _polynomial_expr(self.num + other.num)
        return _fraction_sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.ints:
            return self
        if not self.num.ints:
            return -other
        if self.den.is_const() and other.den.is_const():
            return _polynomial_expr(self.num - other.num)
        return _fraction_sum(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Expr(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational_constant():
            return self._scaled(other.num)
        if self.is_rational_constant():
            return other._scaled(self.num)
        _, a, d = poly_cofactors(self.num, other.den)
        _, c, b = poly_cofactors(other.num, self.den)
        return Expr(a * c, b * d, _canonical=True)

    def _scaled(self, c):
        """self times the constant Poly c (1, 0 or any other rational)."""
        if not c.ints:
            return ZERO
        q = c.const_value()
        return self if q == 1 else Expr(self.num.scale(q), self.den, _canonical=True)

    __rmul__ = __mul__

    def _reciprocal(self):
        """den/num, divided through by the leading coefficient of num."""
        q = 1 / self.num.leading()[1]
        return Expr(self.den.scale(q), self.num.scale(q), _canonical=True)

    def __truediv__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero expression")
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ExprError("exponents must be integers")
        if n == 0:
            return ONE
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("zero to a negative power")
            return self._reciprocal() ** -n
        _require_power_budget(n, self.num, self.den)
        # powers of coprime polynomials are coprime, and of a monic one monic
        return Expr(self.num ** n, self.den ** n, _canonical=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expr.const(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def sort_key(self):
        if self._key is None:
            self._key = ("q", self.num.sort_key(), self.den.sort_key())
        return self._key

    # -- calculus ------------------------------------------------------------

    def diff(self, v):
        """Partial derivative with respect to the variable named v."""
        dn = _poly_diff_expr(self.num, v)
        if self.den.is_const():
            # canonical constant denominators are always 1
            return dn
        dd = _poly_diff_expr(self.den, v)
        den_e = Expr.make(self.den)
        return (dn * den_e - Expr.make(self.num) * dd) / (den_e * den_e)

    def subst(self, mapping):
        """Substitute variables by Exprs (mapping: name -> Expr)."""
        num = _poly_subst(self.num, mapping)
        den = _poly_subst(self.den, mapping)
        if den.num.is_zero():
            raise PoleError("substitution produced a zero denominator")
        return num / den

    def eval(self, point=None):
        """Evaluate at a point (name -> number); see `compile_numeric` for
        the arithmetic.  Callers that evaluate one Expr at many points
        should prepare it once with `compile_numeric` instead."""
        point = dict(point or {})
        return compile_numeric(self, point)(list(point.values()))

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        if self._text is None:
            self._text = _expr_text(self)
        return self._text

    def __repr__(self):
        return f"Expr({self})"


POWER_BUDGET = 1 << 20


def _power_size(p, n):
    """An estimate of the cost of p^n, n >= 1: N(m)^2 for m = ceil(n / 2),
    about the products of its largest multiplication, plus N(n) times n
    times (p's total degree + coefficient bits + bits of T), about its
    size.  N(m), the term count of p^m for a T-term p, is at most the
    multinomial count C(m + T - 1, T - 1) and at most the product over
    generators of (m * degree + 1)."""
    if len(p.ints) == 1:  # N(m) = 1, and the coefficient is +-content
        (m,), c = p.ints, p.content
        return 1 + n * (m.degree + c.numerator.bit_length() + c.denominator.bit_length() + 1)
    tops, bits = {}, 0
    for m, c in p.terms.items():
        for g, e in m.items:
            if tops.get(g, 0) < e:
                tops[g] = e
        bits = max(bits, c.numerator.bit_length() + c.denominator.bit_length())
    count = len(p.ints)
    if not count:
        return 0
    terms = lambda m: min(math.comb(m + count - 1, count - 1), math.prod(m * e + 1 for e in tops.values()))  # noqa: E731
    return terms((n + 1) // 2) ** 2 + terms(n) * n * (p.total_degree() + bits + count.bit_length())


def _require_power_budget(n, *polys):
    """Refuse p^n for each p of polys, before it is built, past the budget.
    A power n <= 1 makes no product and always passes."""
    if n <= 1:
        return
    for p in polys:
        size = _power_size(p, n)
        if size > POWER_BUDGET:
            raise ExprError(f"power too large: its size estimate {size} passes the budget {POWER_BUDGET}")


ZERO = Expr(_POLY_ZERO, _POLY_ONE, _canonical=True)
ONE = Expr(_POLY_ONE, _POLY_ONE, _canonical=True)


def _polynomial_expr(num):
    """Expr.make(num) for a Poly num: canonical as it stands."""
    return Expr(num, _POLY_ONE, _canonical=True) if num.ints else ZERO


# Rational arithmetic after Henrici (1956): the operands are canonical, so
# only gcds of their parts are needed, never the gcd of a full cross product.


def _fraction_sum(a, b, c, d):
    """a/b + c/d in canonical form for canonical a/b and c/d.  With
    g = gcd(b, d) the sum is t / ((b/g) d) for t = a (d/g) + c (b/g), and t
    can share a factor with g only: gcd(t, b/g) = gcd(t, d/g) = 1."""
    g, b1, d1 = poly_cofactors(b, d)
    t = a * d1 + c * b1
    if not t.ints:
        return ZERO
    _, t, rest = poly_cofactors(t, g)  # rest = g / gcd(t, g), g itself when that gcd is 1
    return Expr(t, b1 * d if rest is g else b1 * d1 * rest, _canonical=True)


def _make_atom_expr(fn, arg):
    if arg.is_rational_constant():
        q = arg.as_fraction()
        if fn in ("sin",) and q == 0:
            return ZERO
        if fn == "cos" and q == 0:
            return ONE
        if fn == "exp" and q == 0:
            return ONE
        if fn == "ln":
            if q == 1:
                return ZERO
            if q <= 0:
                raise PoleError("ln of a nonpositive constant")
    return Expr.make(Poly.gen(Atom(fn, arg)))


def sin(e):
    return _make_atom_expr("sin", Expr._coerce(e))


def cos(e):
    return _make_atom_expr("cos", Expr._coerce(e))


def exp(e):
    return _make_atom_expr("exp", Expr._coerce(e))


def ln(e):
    return _make_atom_expr("ln", Expr._coerce(e))


def _atom_derivative(atom):
    if atom.fn == "sin":
        return cos(atom.arg)
    if atom.fn == "cos":
        return -sin(atom.arg)
    if atom.fn == "exp":
        return exp(atom.arg)
    if atom.fn == "ln":
        return ONE / atom.arg
    raise ExprError(f"unknown function {atom.fn}")


def _poly_diff_expr(p, v):
    """Derivative of a Poly as an Expr (atoms pull in the chain rule).

    The terms that hold v have distinct quotients by v, so their derivatives
    go into one dict.  The chain-rule terms of the atoms form one Expr sum,
    added once at the end."""
    res, atoms, unit = {}, ZERO, Monomial.of(v)
    for m, c in p.ints.items():
        for g, e in m.items:
            if isinstance(g, str):
                if g == v:
                    res[m.divide(unit)] = c * e
                continue
            darg = g.arg.diff(v)
            if not darg.is_zero_struct():
                base = _from_ints({m.divide(Monomial.of(g)): c * e}, p.content)
                atoms = atoms + _polynomial_expr(base) * (_atom_derivative(g) * darg)
    return _polynomial_expr(_from_ints(res, p.content)) + atoms


def _subst_generator(g, mapping):
    """The Expr that the generator g becomes under mapping."""
    if isinstance(g, str):
        val = mapping.get(g)
        return val if val is not None else Expr.var(g)
    return _make_atom_expr(g.fn, g.arg.subst(mapping))


def _poly_subst(p, mapping):
    """p with its variables replaced by the Exprs of mapping, as an Expr.

    A term whose values are all polynomial (an atom's always is) is a
    product of Polys, and those terms are summed in one dict.  A term that
    meets a rational value is an Expr, and those terms form one Expr sum,
    added once at the end.  The values are built and their powers checked in
    term order."""
    polynomial, rational = [], ZERO
    for m, c in p.ints.items():
        term, quotient = Poly.const(c), ONE  # times p.content below
        for g, e in m.items:
            val = _subst_generator(g, mapping)
            if val.den.is_const():
                _require_power_budget(e, val.num)
                term = term * val.num ** e
            else:
                quotient = quotient * val ** e
        if quotient is ONE:
            polynomial.append(term)
        else:
            rational = rational + _polynomial_expr(term.scale(p.content)) * quotient
    total = _polynomial_expr(_poly_sum(polynomial).scale(p.content))
    return total + rational if rational.num.ints else total


class _Unfloatable:
    """Stands in for a number too large for a float.  Using it as a factor
    raises the OverflowError that converting it would have raised, at the
    step of the evaluation where that conversion happens."""

    __slots__ = ("message",)

    def __init__(self, message):
        self.message = message

    def __pow__(self, other):
        raise OverflowError(self.message)

    __rmul__ = __pow__


def _to_float(v):
    try:
        return float(v)
    except OverflowError as exc:
        return _Unfloatable(str(exc))


def compile_numeric(expr, names):
    """Prepare expr for evaluation at many points: return f(values), where
    values[i] is the number bound to names[i].

    The canonical tree is turned once into a tree of closures over a
    per-call work list `w`: one closure per polynomial, one per term,
    shaped to its factors, and one getter per elementary-function atom.
    Each variable and atom has a slot in `w`; an atom's getter evaluates
    its argument and fills in the slot at the atom's first occurrence, so
    atoms are computed lazily, in term order, and reused: the functions
    are pure, so reuse changes neither a value nor which exception is
    raised first.  No source is generated.

    A subexpression is evaluated in float when it has elementary-function
    atoms or any value in the point is a float (even one bound to a name
    the expression does not use), and exactly otherwise.  Float evaluation
    performs a fixed sequence of operations: a term starts from
    val = float(c) and takes `val * gv` per factor, or `val * gv ** e` when
    e > 1; a polynomial adds its terms one by one to `0.0`, in descending
    `Monomial.sort_key()` order, sorted once here, and never with `sum()`,
    whose float sum is compensated from Python 3.12; a quotient is `n / d`.
    A value depends on the polynomial, not on the order in which its
    `terms` dict was built.  An atom-free expression or atom argument
    builds its float closures at its first float point, so a one-shot exact
    evaluation builds none.

    Exact evaluation sums integer numerators over a common denominator and
    yields the same rational as Fraction arithmetic; the value of an exact
    top-level expression is a Fraction, and an atom-free atom argument at a
    point of rationals is computed exactly and rounded once, as int
    `n / d`.  A zero denominator, or a domain or range error inside
    sin/cos/exp/ln, raises PoleError; an overflowing float power,
    coefficient or value raises OverflowError.

    Two entries skip the per-call checks and reuse the same closures, so
    their values are those of f, to the bit: f.line(base, direction)
    returns value(s), the float value at the point base + s * direction
    of floats, and f.at_fractions(nums, den) is the value at the point
    nums[i] / den of ints, den > 0, each quotient within float range.
    """
    position = {v: i for i, v in enumerate(names)}
    variables = expr.variables()
    missing = variables - set(position)
    if missing:
        raise UnboundVariableError(f"unbound variables: {sorted(missing)}")
    used = sorted(variables, key=position.__getitem__)
    columns = [position[v] for v in used]
    nvars = len(columns)
    slots = {v: k for k, v in enumerate(used)}
    getters = {}  # atom slot -> getter

    def slot_of(g):
        if g not in slots:
            arg_exact = exact_node(g.arg)
            # an atom-free argument builds its float evaluator at its first float point
            arg_float = float_node(g.arg) if arg_exact is None else None
            slots[g] = nvars + len(getters)
            getters[slots[g]] = _atom_getter(slots[g], g.fn, arg_float, arg_exact, lambda: float_node(g.arg))
        return slots[g]

    def float_poly(p):
        terms = []
        for m, c in sorted(p.terms.items(), key=lambda t: t[0].sort_key(), reverse=True):
            factors = [(slot_of(g), e) for g, e in m.items]
            terms.append(_float_term(c, factors, getters))
        return _float_sum(terms)

    def float_node(e):
        one = e.den == _POLY_ONE  # canonical constant denominators are 1
        return _float_node(float_poly(e.num), None if one else float_poly(e.den), e)

    def exact_node(e):
        """The exact evaluator of e, or None when e has atoms."""
        if any(not isinstance(g, str) for p in (e.num, e.den) for m in p.ints for g, _ in m.items):
            return None
        one = e.den == _POLY_ONE
        return _exact_node(_exact_sum(e.num, slots), None if one else _exact_sum(e.den, slots), e)

    top_exact = exact_node(expr)
    # an atom-free expression builds its float evaluator at its first float point
    top_float = float_node(expr) if top_exact is None else None
    blank = [None] * (len(getters) + 1)  # the atoms' slots, then the exact values'
    # values of this length are used as they stand when every name is used, in order
    width = nvars if columns == list(range(len(names))) else -1
    atoms = bool(getters)

    def float_top():
        nonlocal top_float
        if top_float is None:
            top_float = float_node(expr)
        return top_float

    def evaluate(values):
        for v in values:
            if isinstance(v, float):
                numeric = True
                break
        else:
            numeric = False
        picked = values if len(values) == width else [values[i] for i in columns]
        if numeric or atoms:
            w = [v if v.__class__ is float else _to_float(v) for v in picked]
            if atoms:
                w += blank
                if not numeric:
                    w[-1] = _exact_values(picked)
            elif top_float is None:
                float_top()
            return top_float(w)
        return Fraction(*top_exact(_exact_values(picked)))

    def line(base, direction):
        top = float_top()
        pairs = [(base[i], direction[i]) for i in columns]

        def value(s):
            w = [b + s * d for b, d in pairs]
            w += blank  # fresh atom slots at every point
            return top(w)

        return value

    def at_fractions(nums, den):
        picked = nums if len(nums) == width else [nums[i] for i in columns]
        if not atoms:
            return Fraction(*top_exact((picked, den)))
        w = [n / den for n in picked]  # correctly rounded, as float(Fraction(n, den))
        w += blank
        w[-1] = (picked, den)
        return top_float(w)

    evaluate.line = line
    evaluate.at_fractions = at_fractions
    return evaluate


def _exact_values(picked):
    """(a, B): the point's rationals as integers a[k] over one denominator B."""
    q = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in picked]
    common = math.lcm(*(v.denominator for v in q))
    return [v.numerator * (common // v.denominator) for v in q], common


def _float_term(c, factors, getters):
    """c times the product of the factors (slot, exponent), as a closure
    over the work list: `val * gv`, or `val * gv ** e` when e > 1, factor
    by factor from val = float(c)."""
    try:
        c = float(c)
    except OverflowError as exc:
        message = str(exc)

        def term(w):  # raises where float(c) would: before the first factor
            raise OverflowError(message)

        return term
    n = len(factors)
    if n == 0:
        return lambda w: c
    # one or two variable factors; x ** 1 is x, so e == 1 multiplies
    if n == 1 and factors[0][0] not in getters:
        ((k, e),) = factors
        return (lambda w: c * w[k]) if e == 1 else (lambda w: c * w[k] ** e)
    if n == 2 and factors[0][0] not in getters and factors[1][0] not in getters:
        (a, ea), (b, eb) = factors
        if ea == 1:
            return (lambda w: c * w[a] * w[b]) if eb == 1 else (lambda w: c * w[a] * w[b] ** eb)
        return (lambda w: c * w[a] ** ea * w[b]) if eb == 1 else (lambda w: c * w[a] ** ea * w[b] ** eb)
    factors = tuple((k, e, getters.get(k)) for k, e in factors)

    def term(w):
        val = c
        for k, e, get in factors:
            gv = w[k]
            if gv is None:
                gv = get(w)
            val = val * gv if e == 1 else val * gv ** e
        return val

    return term


def _float_sum(terms):
    """The sum of the term closures, added one by one to 0.0 in order."""
    if len(terms) == 1:
        t0 = terms[0]
        return lambda w: 0.0 + t0(w)
    if len(terms) == 2:
        t0, t1 = terms
        return lambda w: 0.0 + t0(w) + t1(w)
    terms = tuple(terms)

    def poly(w):
        total = 0.0
        for t in terms:
            total = total + t(w)
        return total

    return poly


def _float_node(num, den, expr):
    if den is None:
        return num  # n / 1.0 is n

    def node(w):
        n = num(w)
        d = den(w)
        if d == 0:
            raise PoleError(f"evaluation at a pole of {expr}")
        return n / d

    return node


def _exact_sum(p, slots):
    """The closure (a, B) -> (n, s) with p = n / s at the values a[k] / B,
    a over one common denominator B."""
    q, scale, degree = p.content.numerator, p.content.denominator, p.total_degree()
    terms = [(q * c, degree - m.degree, tuple((slots[g], e) for g, e in m.items)) for m, c in p.ints.items()]

    def poly(a, common):
        total = 0
        for c, shift, factors in terms:
            for k, e in factors:
                c *= a[k] if e == 1 else a[k] ** e
            if shift and common != 1:
                c *= common ** shift
            total += c
        return total, scale * common ** degree

    return poly


def _exact_node(num, den, expr):
    """The closure (a, B) -> (n, d), d > 0, with n / d the exact value of
    an atom-free expression."""

    def node(exact):
        a, common = exact
        n, scale = num(a, common)
        if den is None:
            return n, scale
        d, dscale = den(a, common)
        if d == 0:
            raise PoleError(f"evaluation at a pole of {expr}")
        n, d = n * dscale, d * scale
        return (n, d) if d > 0 else (-n, -d)

    return node


def _atom_getter(k, fn, arg_float, arg_exact, build_float):
    """The getter of atom slot k: evaluates fn at the argument, stores the
    value in w[k] and returns it.  The argument is exact (int n, d) when it
    has no atoms and the point holds no float (w[-1] then holds the
    point's exact values), and float otherwise; an arg_float of None is
    made by build_float() at the first float point."""
    f = _MATH_FN[fn]

    def get(w):
        nonlocal arg_float
        exact = w[-1]
        if exact is None or arg_exact is None:
            if arg_float is None:
                arg_float = build_float()
            arg = arg_float(w)
        else:
            arg = arg_exact(exact)
        try:
            # n / d of ints rounds correctly, as float(Fraction(n, d)) does
            gv = f(arg if arg.__class__ is float else arg[0] / arg[1])
        except (ValueError, OverflowError) as exc:
            shown = arg if arg.__class__ is float else Fraction(*arg)
            raise PoleError(f"{fn} undefined at argument {shown}") from exc
        w[k] = gv
        return gv

    return get


def integrate_unit_interval(e, t):
    """Definite integral over t in [0, 1] of an Expr polynomial in t."""
    if not e.is_polynomial_in({t}):
        raise ExprError(f"not polynomial in {t}: {e}")
    num = {}
    for m, c in e.num.terms.items():
        k, rest = m.split(t)
        num[rest] = num.get(rest, 0) + c / (k + 1)
    return Expr.make(Poly(num), e.den)


# -- zero testing -------------------------------------------------------------


class ZeroDecision:
    """Outcome of a zero test; truthy when the expression is (probably) zero."""

    __slots__ = ("value", "probabilistic")

    def __init__(self, value, probabilistic):
        self.value = value
        self.probabilistic = probabilistic

    def __bool__(self):
        return self.value

    def __repr__(self):
        tag = "probabilistic" if self.probabilistic else "exact"
        return f"ZeroDecision({self.value}, {tag})"


ZERO_TEST_SAMPLES = 32
ZERO_TEST_TOL = 1e-9


def zero_test(e, seed=0, samples=ZERO_TEST_SAMPLES, tol=ZERO_TEST_TOL):
    """Decide whether e is identically zero.

    Exact via the canonical form when e is purely rational; with elementary
    functions present, falls back to seeded sampling at random points
    k / 1000 in [-10, 10], one seeded integer k per variable.  A sample at
    a pole, with an overflowing float or with a non-finite value is drawn
    again, at most 8 times.
    """
    if e.num.is_zero():
        return ZeroDecision(True, False)
    if not e.has_atoms():
        return ZeroDecision(False, False)
    names = sorted(e.variables())
    f = compile_numeric(e, names).at_fractions
    rng = random.Random(f"skewform-zero:{seed}:{e}")
    for _ in range(samples):
        overflowed = False
        for attempt in range(8):
            point = [rng.randint(-10000, 10000) for _ in names]
            try:
                val = f(point, 1000)
            except PoleError:
                continue
            except OverflowError:
                val = math.inf
            if math.isfinite(val):
                break
            overflowed = True  # inf - inf is nan, and abs(nan) >= tol is false
        else:
            away = "poles or float overflow" if overflowed else "poles"
            raise ZeroTestError(f"could not sample {e} away from {away}")
        if abs(val) >= tol:
            return ZeroDecision(False, True)
    return ZeroDecision(True, True)


def all_zero(exprs, seed=0):
    """zero_test each expression in order, stopping at the first nonzero
    one.  The decision is probabilistic when any test made so far sampled."""
    probabilistic = False
    for e in exprs:
        decision = zero_test(e, seed=seed)
        probabilistic = probabilistic or decision.probabilistic
        if not decision.value:
            return ZeroDecision(False, probabilistic)
    return ZeroDecision(True, probabilistic)


def is_zero(e, seed=0):
    return zero_test(e, seed=seed).value


def diff(e, v):
    return e.diff(v)


def evaluate(e, point=None):
    return e.eval(point)


# -- parsing -------------------------------------------------------------------


class Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.pos})"


# One pattern for every token, tried in this order: an operator; a number,
# ASCII digits with at most one point (`5`, `5.`, `.5`, `1.25`); a word, a run
# of characters for which str.isalnum() is true or `_` (what `\w` matches),
# which is an identifier when it begins with a letter or `_`; and any other
# character but whitespace, which is refused.  Whitespace between tokens is
# skipped.
_TOKEN = re.compile(r"([-+*/^(),\[\]=])|([0-9]+\.?[0-9]*|\.[0-9]+)|(\w+)|(\S)")
_TOKEN_KINDS = (None, None, "number", "ident")


def tokenize(text):
    """Tokenize expression text into NUMBER / IDENT / operator tokens."""
    tokens = []
    for m in _TOKEN.finditer(text):
        k, value = m.lastindex, m[0]
        if k == 4 or k == 3 and not (value[0].isalpha() or value[0] == "_"):
            raise ExprSyntaxError(f"unexpected character {value[0]!r}", m.start())
        tokens.append(Token(_TOKEN_KINDS[k] or value, value, m.start()))
    tokens.append(Token("end", "", len(text)))
    return tokens


def parse_expr(text, variables=None):
    """Parse infix expression text into a canonical Expr.

    This is the form grammar of `exterior` without a chart, so there is one
    parser and one set of diagnostics.  When `variables` is given,
    identifiers outside it (and outside the function table) are rejected.
    """
    from .exterior import _Parser  # exterior imports this module

    return _Parser(tokenize(text), None, variables).parse()


# -- printing ------------------------------------------------------------------


def _mono_text(m):
    parts = []
    for g, e in m.items:
        base = g if isinstance(g, str) else f"{g.fn}({g.arg})"
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


def _poly_text(p):
    if p.is_zero():
        return "0"
    pieces, n, d = [], p.content.numerator, p.content.denominator
    for m in sorted(p.ints, reverse=True):
        c = p.ints[m]
        g = math.gcd(c, d)
        a, b = n * abs(c) // g, d // g  # |coefficient| = a / b, reduced
        mono = _mono_text(m)
        try:
            q = str(a) if b == 1 else f"{a}/{b}"
            body = q if not mono else mono if a == b == 1 else f"{q}*{mono}"
        except ValueError as exc:  # past the interpreter's int-to-str digit limit
            raise ExprError(f"coefficient has more than {sys.get_int_max_str_digits()} digits to print") from exc
        pieces.append(("-" if c < 0 else "+", body))
    return _join_signed(pieces)


def _join_signed(pieces):
    """`a - b + c` from the (sign, body) pairs ("+", "a"), ("-", "b"), ("+", "c")."""
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _expr_text(e):
    num = _poly_text(e.num)
    if e.den.is_const() and e.den.const_value() == 1:
        return num
    if len(e.num.ints) > 1:
        num = f"({num})"
    return f"{num}/({_poly_text(e.den)})"
