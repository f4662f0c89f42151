"""Exact arithmetic in a real number field Q(t), and the Perron root of
an integer matrix as an element of one.

Elements are residue polynomials modulo a fixed monic minimal polynomial,
integer numerators over one denominator, with the distinguished real root
pinned down by an isolating interval with (dyadic) rational endpoints.
Signs are decided by refining the interval until integer interval
evaluation of the residue excludes zero, and float() until both ends
round to the same double; this terminates because a nonzero residue
cannot vanish at a root of an irreducible polynomial of higher degree.

A field's minimal polynomial has degree >= 2, so no rational point is a
root and any rational bisection endpoint is sign-definite.

perron_eigenvalue uses int and Fraction arithmetic only, one path for
every matrix:

- the characteristic polynomial, by Faddeev-LeVerrier;
- its square-free part f / gcd(f, f');
- the largest real root of f, isolated by a Sturm sequence;
- the irreducible factor over Z holding that root, by Zassenhaus's
  method mod one Proth prime above twice Mignotte's bound (no Hensel
  lifting): distinct-degree and Cantor-Zassenhaus splitting, then
  recombination of the factors by exact division.

A linear factor x - r gives the rational eigenvalue r.  Otherwise the
factor is the field's minimal polynomial, and the Sturm interval is its
isolating interval.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from .intmat import matmul, row_reduce


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_divmod(a, b):
    # b nonzero; Fraction coefficients
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] -= c * cb
    return _trim(q), _trim(a)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(a, x: Fraction) -> Fraction:
    r = Fraction(0)
    for c in reversed(a):
        r = r * x + c
    return r


def _enclose(p, a: int, b: int, d: int):
    """Integer bounds of d**deg(p) * p(x) over x in [a/d, b/d], for
    integer p: Horner's rule in interval arithmetic (exact when a == b)."""
    lo, hi, scale = 0, 0, 1
    for c in reversed(p):
        prods = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(prods) + c * scale, max(prods) + c * scale
        scale *= d
    return lo, hi


class NumberField:
    """Q(t) for t the unique root of minpoly inside (lo, hi).

    minpoly is monic with Fraction coefficients, degree >= 2, irreducible
    over Q, and changes sign across the interval.  Elements reduce by
    `scaled`, the least integer multiple of minpoly, so their arithmetic
    is on integers in every field.  The interval is (_lo, _hi) / _den in
    integers, dyadic when lo and hi are (as Perron data's are); refine()
    only ever narrows it, by bisection.
    """

    def __init__(self, minpoly, lo: Fraction, hi: Fraction):
        minpoly = tuple(Fraction(c) for c in minpoly)
        if len(minpoly) < 3 or minpoly[-1] != 1:
            raise ValueError("minpoly must be monic of degree >= 2")
        if not lo < hi:
            raise ValueError("empty isolating interval")
        self.minpoly = minpoly
        m = math.lcm(*(c.denominator for c in minpoly))
        self.scaled = tuple(int(c * m) for c in minpoly)
        self._den = math.lcm(lo.denominator, hi.denominator)
        self._lo, self._hi = int(lo * self._den), int(hi * self._den)
        slo, shi = (_enclose(self.scaled, x, x, self._den)[0]
                    for x in (self._lo, self._hi))
        if slo == 0 or shi == 0 or (slo > 0) == (shi > 0):
            raise ValueError("interval endpoints must straddle the root")
        self._lo_positive = slo > 0

    lo = property(lambda self: Fraction(self._lo, self._den))
    hi = property(lambda self: Fraction(self._hi, self._den))

    def refine(self):
        mid, self._den = self._lo + self._hi, 2 * self._den
        self._lo, self._hi = 2 * self._lo, 2 * self._hi
        # minpoly is irreducible of degree >= 2: no rational root
        if (_enclose(self.scaled, mid, mid, self._den)[0] > 0) \
                == self._lo_positive:
            self._lo = mid
        else:
            self._hi = mid

    def __repr__(self):
        return f"NumberField({self.minpoly}, ({self.lo}, {self.hi}))"


@functools.total_ordering
class AlgebraicNumber:
    """Residue polynomial in the field generator: the integers num over
    the positive integer den, reduced mod minpoly and in lowest terms, so
    equal elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, coeffs, den: int | None = None):
        """Rational coeffs, or with den given, integer numerators over it."""
        num = list(coeffs)
        if den is None:
            num = [Fraction(c) for c in num]
            den = math.lcm(*(c.denominator for c in num))
            num = [int(c * den) for c in num]
        # pseudo-division by scaled: lead * num - c * x**k * scaled cancels
        # num's top term c * x**(n + k), and den takes the factor lead
        m = field.scaled
        n, lead = len(m) - 1, m[-1]
        while num and (len(num) > n or num[-1] == 0):
            c = num.pop()
            if c:
                k = len(num) - n
                if lead != 1:
                    num = [lead * x for x in num]
                    den *= lead
                for i in range(n):
                    num[k + i] -= c * m[i]
        g = math.gcd(den, *num)
        self.field = field
        self.num, self.den = tuple(x // g for x in num), den // g

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.num)

    def _parts(self, other):
        """other as (numerators, denominator), or None outside the field."""
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field:
                raise ValueError("mixed number fields")
            return other.num, other.den
        if isinstance(other, (int, Fraction)):
            return ((other.numerator,) if other else ()), other.denominator
        return None

    def _add(self, other, sign=1):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        (b, db), a, da = parts, self.num, self.den
        if da != db:
            a, b, db = [x * db for x in a], [y * da for y in b], da * db
        return AlgebraicNumber(self.field, [
            x + sign * y for x, y in itertools.zip_longest(a, b, fillvalue=0)
        ], db)

    def __add__(self, other):
        return self._add(other)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, db = parts
        return AlgebraicNumber(self.field, _poly_mul(self.num, b),
                               self.den * db)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        if not self.num:
            raise ZeroDivisionError("algebraic zero has no inverse")
        # Euclid on (minpoly, self) in Q[x], keeping r_i = u_i * self in
        # the field; the last remainder is a nonzero constant
        r0, r1 = self.field.minpoly, self.coeffs
        u0, u1 = 0, AlgebraicNumber(self.field, (1,))
        while len(r1) > 1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, u0 - AlgebraicNumber(self.field, q) * u1
        if not r1:
            raise ZeroDivisionError("residue shares a factor with minpoly")
        return u1 * Fraction(1, r1[0])

    def __truediv__(self, other):
        if isinstance(other, AlgebraicNumber):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        p = self._parts(other)
        return NotImplemented if p is None else (self.num, self.den) == p

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def _enclosure(self):
        """(lo, hi, scale): lo/scale <= self <= hi/scale, integers."""
        f = self.field
        return (*_enclose(self.num, f._lo, f._hi, f._den),
                f._den ** (len(self.num) - 1) * self.den)

    def sign(self) -> int:
        if not self.num:
            return 0
        while True:
            lo, hi, _ = self._enclosure()
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            self.field.refine()

    def __lt__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        # a comparison with 0 builds no zero element
        return (self._add(other, -1) if parts[0] else self).sign() < 0

    def __float__(self):
        """The double nearest the value: the interval is refined until
        both ends of the value's enclosure round to the same double."""
        if not self.num:
            return 0.0
        while True:
            lo, hi, scale = self._enclosure()
            if lo / scale == hi / scale:
                return lo / scale
            self.field.refine()

    def __repr__(self):
        return f"AlgebraicNumber({self.coeffs})"


# -- Perron data ---------------------------------------------------------
#
# Integer polynomials below are ascending coefficient lists.  The methods
# follow Cohen, A Course in Computational Algebraic Number Theory (GTM
# 138): characteristic polynomial, Sturm sequences, and factoring over Z
# by factoring mod one prime above a coefficient bound (section 3.5).


def _charpoly(mat):
    """det(xI - mat) of a square integer matrix, by Faddeev-LeVerrier.

    Monic with int coefficients; every division by k is exact."""
    n = len(mat)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]  # M_k = A M_{k-1} + c_{n-k+1} I
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        m = matmul(mat, m)
        coeffs[n - k] = -sum(m[i][i] for i in range(n)) // k
    return coeffs


def _derivative(f):
    return _trim(i * c for i, c in enumerate(f))[1:]


def _squarefree(f):
    """f / gcd(f, f') for monic integer f: monic with int coefficients."""
    r0, r1 = f, _derivative(f)
    while r1:
        r0, r1 = r1, poly_divmod(r0, r1)[1]
    q, _ = poly_divmod(f, r0)
    return [int(c * r0[-1]) for c in q]  # monic divisor: Gauss's lemma


def _root_bound(f) -> int:
    """A power of two strictly above |z| for every complex root z of monic
    f (Fujiwara: |z| <= 2 max_k |a_{n-k}|^(1/k))."""
    n = len(f) - 1
    return max((1 << (1 - (-abs(f[n - k]).bit_length() // k))
                for k in range(1, n + 1)), default=2)


def _variations(chain, x) -> int:
    signs = [v > 0 for v in (poly_eval(p, x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _top_root_interval(f):
    """(lo, hi) with the largest real root of f in (lo, hi] and no other
    root there, or None when f has no real root.

    f is square-free and monic.  Sturm's theorem counts the roots in
    (a, b] as V(a) - V(b), also when a or b is a root: V drops zero
    terms, so V(x) is V just right of x.  A rational top root may thus
    be hi itself, a bisection point; an irrational one lies strictly
    inside."""
    chain = [tuple(f), _derivative(f)]
    while len(chain[-1]) > 1:
        chain.append(tuple(-c for c in poly_divmod(chain[-2], chain[-1])[1]))
    hi = Fraction(_root_bound(f))
    lo = -hi
    v_lo, v_hi = _variations(chain, lo), _variations(chain, hi)
    if v_lo == v_hi:
        return None
    while v_lo - v_hi > 1:
        mid = (lo + hi) / 2
        v_mid = _variations(chain, mid)
        if v_mid > v_hi:
            lo, v_lo = mid, v_mid
        else:
            hi = mid
    return lo, hi


# Polynomials mod the prime m: ascending coefficients in [0, m), trimmed.


def _mod_mul(a, b, m):
    return _trim(c % m for c in _poly_mul(a, b))


def _mod_sub(a, b, m):
    n = max(len(a), len(b))
    return _trim(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0))
                 % m for i in range(n))


def _mod_divmod(a, b, m):
    a = list(a)
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % m
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - c * cb) % m
    return _trim(q), _trim(a)


def _mod_gcd(a, b, p):
    """Monic gcd mod the prime p."""
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _mod_powmod(a, e, f, p):
    """a**e mod (f, p), by square-and-multiply."""
    out = (1,)
    for bit in bin(e)[2:]:
        out = _mod_divmod(_mod_mul(out, out, p), f, p)[1]
        if bit == "1":
            out = _mod_divmod(_mod_mul(out, a, p), f, p)[1]
    return out


def _distinct_degree(f, p):
    """[(d, product of the irreducible factors of degree d)] for f monic
    and square-free mod p."""
    out = []
    h = (0, 1)
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _mod_powmod(h, p, f, p)  # x^(p^d) mod f
        g = _mod_gcd(f, _mod_sub(h, (0, 1), p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _mod_divmod(f, g, p)[0]
            h = _mod_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(g, d, p, rng):
    """The monic irreducible factors of g mod the odd prime p, all of
    degree d (Cantor-Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim(rng.randrange(p) for _ in range(len(g) - 1))
        if len(a) < 2:
            continue
        b = _mod_powmod(a, (p ** d - 1) // 2, g, p)
        c = _mod_gcd(g, _mod_sub(b, (1,), p), p)
        if 1 < len(c) < len(g):
            return (_equal_degree(c, d, p, rng)
                    + _equal_degree(_mod_divmod(g, c, p)[0], d, p, rng))


def _pick_prime(f, above):
    """(p, distinct-degree split of f mod p) for a prime p > above at
    which f stays square-free.  Candidates are p = k 2^e + 1 with k odd
    and 2^(e-1) < k < 2^e, so p > 2^(2e-1) >= above; Proth's theorem
    proves p prime when a^((p-1)/2) = -1 (mod p) for some a, and by
    Euler's criterion any value but 1 or -1 proves it composite, so the
    search moves on at the first base whose power is not 1."""
    e = (above.bit_length() + 2) // 2
    k = (1 << (e - 1)) + 1
    while True:
        if k >= 1 << e:
            e += 1
            k = (1 << (e - 1)) + 1
        p = k << e | 1
        for a in (3, 5, 7, 11, 13, 17):
            r = pow(a, p >> 1, p)
            if r != 1:
                break
        if r == p - 1:
            fp = _trim(c % p for c in f)
            dp = _trim(c % p for c in _derivative(fp))
            if len(_mod_gcd(fp, dp, p)) == 1:
                return p, _distinct_degree(fp, p)
        k += 2


def _minimal_polynomial(f, lo, hi):
    """The monic irreducible factor of f with a root in (lo, hi].

    f is square-free, monic and integral, and has exactly one root in
    (lo, hi], which may be rational (the factor is then linear, and its
    root may be hi).  Zassenhaus with one big prime: factor f mod a
    prime p above twice Mignotte's coefficient bound, then try products
    of the factors by increasing count, read in symmetric residues mod
    p.  Every product is tested by exact division over Z; as p is prime,
    the first that divides at each count is an irreducible factor, and
    no degree sieve is needed.  The constant-term prefilter lets a
    factor x through (g[0] == 0), since skipping it would leave f's
    cofactor unsplit."""
    n = len(f) - 1
    bound = 2 ** n * (math.isqrt(sum(c * c for c in f)) + 1)
    p, split = _pick_prime(f, 2 * bound)
    rng = random.Random(p)
    factors = [g for d, prod in split for g in _equal_degree(prod, d, p, rng)]
    size = 1
    while 2 * size <= len(factors):
        for subset in itertools.combinations(range(len(factors)), size):
            g = (1,)
            for i in subset:
                g = _mod_mul(g, factors[i], p)
            g = [c - p if 2 * c > p else c for c in g]
            if g[0] and f[0] % g[0]:
                continue
            q, r = poly_divmod(f, g)
            if r:
                continue
            g_hi = poly_eval(g, hi)
            if g_hi == 0 or poly_eval(g, lo) * g_hi < 0:
                return g
            f = [int(c) for c in q]
            factors = [u for i, u in enumerate(factors) if i not in subset]
            break
        else:
            size += 1
    return f


def perron_eigenvalue(mat):
    """Largest real eigenvalue of a nonnegative integer matrix, exactly.

    Returns a Fraction when that eigenvalue is rational, otherwise an
    AlgebraicNumber generating its field.  The matrix must actually have
    a real eigenvalue (true for nonnegative matrices)."""
    f = _squarefree(_charpoly(mat))
    top = _top_root_interval(f)
    if top is None:
        raise ValueError("matrix has no real eigenvalue")
    g = _minimal_polynomial(f, *top)
    if len(g) == 2:
        return Fraction(-g[0])
    return AlgebraicNumber(NumberField(g, *top), (0, 1))


# -- generic exact linear algebra ----------------------------------------


def nullspace_vector(rows):
    """A nonzero kernel vector of a square matrix over an exact field.

    Entries may be Fractions or AlgebraicNumbers of one shared field
    (mixing with ints is fine).  Requires a 1-dimensional kernel; raises
    ValueError when the kernel is trivial or has higher dimension.  The
    vector is read off the one free column of the reduced row echelon
    form, with 1 in that column.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    a, pivots = row_reduce(rows)
    free = [col for col in range(n) if col not in pivots]
    if len(free) == 0:
        raise ValueError("kernel is trivial")
    if len(free) > 1:
        raise ValueError("kernel dimension exceeds 1")
    fcol = free[0]
    v = [None] * n
    v[fcol] = Fraction(1)
    for row, col in zip(a, pivots):
        v[col] = -row[fcol]
    return v
