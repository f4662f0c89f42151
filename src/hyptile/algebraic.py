"""Exact arithmetic in a real number field Q(t).

Elements are residue polynomials modulo a fixed monic minimal polynomial,
with the distinguished real root pinned down by an isolating interval
with rational endpoints.  Signs are decided by refining the interval
until interval-arithmetic evaluation of the residue excludes zero; this
terminates because a nonzero residue cannot vanish at a root of an
irreducible polynomial of higher degree.

The minimal polynomial always has degree >= 2 here (rational eigenvalues
take the plain Fraction path), so no rational point is a root and any
rational bisection endpoint is sign-definite.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def poly_neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


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


def poly_eval(a, x: Fraction) -> Fraction:
    r = Fraction(0)
    for c in reversed(a):
        r = r * x + c
    return r


def _ival_mul(p, q):
    prods = (p[0] * q[0], p[0] * q[1], p[1] * q[0], p[1] * q[1])
    return (min(prods), max(prods))


def poly_eval_interval(a, lo: Fraction, hi: Fraction):
    """Interval-arithmetic Horner evaluation of a on [lo, hi]."""
    r = (Fraction(0), Fraction(0))
    for c in reversed(a):
        r = _ival_mul(r, (lo, hi))
        r = (r[0] + c, r[1] + c)
    return r


class NumberField:
    """Q(t) for t the unique root of minpoly inside (lo, hi).

    minpoly is monic with Fraction coefficients, degree >= 2, irreducible
    over Q, and changes sign across the interval.  The interval only ever
    narrows, so concurrent readers stay consistent.
    """

    def __init__(self, minpoly, lo: Fraction, hi: Fraction):
        minpoly = tuple(Fraction(c) for c in minpoly)
        if len(minpoly) < 3 or minpoly[-1] != 1:
            raise ValueError("minpoly must be monic of degree >= 2")
        if not lo < hi:
            raise ValueError("empty isolating interval")
        slo, shi = poly_eval(minpoly, lo), poly_eval(minpoly, hi)
        if slo == 0 or shi == 0 or (slo > 0) == (shi > 0):
            raise ValueError("interval endpoints must straddle the root")
        self.minpoly = minpoly
        self.lo = lo
        self.hi = hi
        self._sign_lo = 1 if slo > 0 else -1

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def refine(self):
        mid = (self.lo + self.hi) / 2
        s = poly_eval(self.minpoly, mid)
        # minpoly is irreducible of degree >= 2: no rational root
        if (s > 0) == (self._sign_lo > 0):
            self.lo = mid
        else:
            self.hi = mid

    def element(self, coeffs) -> "AlgebraicNumber":
        return AlgebraicNumber(self, coeffs)

    def generator(self) -> "AlgebraicNumber":
        return self.element((0, 1))

    def rational(self, c) -> "AlgebraicNumber":
        return self.element((c,))

    def __repr__(self):
        return f"NumberField({self.minpoly}, ({self.lo}, {self.hi}))"


class AlgebraicNumber:
    """Residue polynomial in the field generator, exact Fraction coeffs."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        cs = _trim(Fraction(c) for c in coeffs)
        if len(cs) > field.degree:
            _, cs = poly_divmod(cs, field.minpoly)
        self.field = field
        self.coeffs = cs

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field:
                raise ValueError("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraicNumber(self.field, (other,))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return AlgebraicNumber(self.field, poly_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, poly_neg(self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return AlgebraicNumber(self.field, poly_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        if not self.coeffs:
            raise ZeroDivisionError("algebraic zero has no inverse")
        # extended Euclid in Q[x]: u*self + v*minpoly = 1
        r0, r1 = self.field.minpoly, self.coeffs
        u0, u1 = (), (Fraction(1),)
        while len(r1) > 1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, poly_add(u0, poly_neg(poly_mul(q, u1)))
        if not r1:
            raise ZeroDivisionError("residue shares a factor with minpoly")
        scale = Fraction(1) / r1[0]
        return AlgebraicNumber(self.field, tuple(c * scale for c in u1))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def sign(self) -> int:
        if not self.coeffs:
            return 0
        f = self.field
        while True:
            lo, hi = poly_eval_interval(self.coeffs, f.lo, f.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            f.refine()

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    def __float__(self):
        f = self.field
        for _ in range(200):
            lo, hi = poly_eval_interval(self.coeffs, f.lo, f.hi)
            if hi - lo < Fraction(1, 10 ** 20):
                break
            f.refine()
        lo, hi = poly_eval_interval(self.coeffs, f.lo, f.hi)
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"AlgebraicNumber({self.coeffs})"


# -- Perron data ---------------------------------------------------------


def _real_root_intervals(coeffs):
    """Disjoint isolating intervals for the real roots of a Fraction poly."""
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], sympy.Symbol("x"))
    out = []
    for (a, b), _mult in poly.intervals():
        out.append((Fraction(a.p, a.q), Fraction(b.p, b.q)))
    return out


def perron_eigenvalue(mat):
    """Largest real eigenvalue of a nonnegative integer matrix, exactly.

    Returns a Fraction when that eigenvalue is rational, otherwise an
    AlgebraicNumber generating its field.  The matrix must actually have
    a real eigenvalue (true for nonnegative matrices)."""
    cp = sympy.Matrix(mat).charpoly()
    cands = []  # [coeffs or None, lo, hi]; None marks an exact rational root
    for fp, _mult in cp.factor_list()[1]:
        all_c = [Fraction(sympy.Rational(c).p, sympy.Rational(c).q)
                 for c in fp.all_coeffs()]
        coeffs = tuple(c / all_c[0] for c in reversed(all_c))
        if len(coeffs) == 2:
            cands.append([None, -coeffs[0], -coeffs[0]])
            continue
        for lo, hi in _real_root_intervals(coeffs):
            cands.append([coeffs, lo, hi])
    if not cands:
        raise ValueError("matrix has no real eigenvalue")
    # all roots are distinct reals, so interval bisection separates them;
    # rational points are never roots of the irreducible deg>=2 factors
    while True:
        best = max(cands, key=lambda c: c[2])
        if all(c is best or c[2] < best[1] for c in cands):
            break
        for c in cands:
            if c[0] is None:
                continue
            coeffs, lo, hi = c
            mid = (lo + hi) / 2
            if (poly_eval(coeffs, mid) > 0) == (poly_eval(coeffs, lo) > 0):
                c[1] = mid
            else:
                c[2] = mid
    coeffs, lo, hi = best
    if coeffs is None:
        return lo
    return NumberField(coeffs, lo, hi).generator()


# -- generic exact linear algebra ----------------------------------------


def nullspace_vector(rows):
    """A nonzero kernel vector of a square matrix over an exact field.

    Entries may be Fractions or AlgebraicNumbers of one shared field
    (mixing with ints is fine).  Requires a 1-dimensional kernel; raises
    ValueError when the kernel is trivial or has higher dimension.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    piv_col_of_row = {}
    free = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if not _is_zero(a[i][col])), None)
        if piv is None:
            free.append(col)
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][col]
        a[r] = [x / inv for x in a[r]]
        for i in range(n):
            if i != r and not _is_zero(a[i][col]):
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_col_of_row[r] = col
        r += 1
    if len(free) == 0:
        raise ValueError("kernel is trivial")
    if len(free) > 1:
        raise ValueError("kernel dimension exceeds 1")
    fcol = free[0]
    v = [None] * n
    v[fcol] = _one_like(rows)
    for i, col in piv_col_of_row.items():
        v[col] = -a[i][fcol]
    return v


def _is_zero(x) -> bool:
    if isinstance(x, AlgebraicNumber):
        return x.is_zero()
    return x == 0


def _one_like(rows):
    for r in rows:
        for x in r:
            if isinstance(x, AlgebraicNumber):
                return x.field.rational(1)
    return Fraction(1)
