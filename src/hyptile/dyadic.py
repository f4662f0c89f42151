"""Dyadic rationals and the 2-adic odometer.

The ring Z[1/2] of half-plane coordinates and of doubling coefficients
is `fractions.Fraction`; `dyadic` is the one check that a value lies in
it (its denominator is a power of two), and `odd_part` strips the
factors 2 that are units there.  The odometer x -> x + 1 acts on the
2-adic integers; a sampled point carries its 2-adic coordinate as a
residue modulo 2**precision (see hull.SampleBatch).

A locally constant integer (or dyadic) valued function on the 2-adic
integers is a `LocallyConstFn`, its table of values on the cylinders
F(level, k) = 2**level * Omega + k, one per residue k mod 2**level.
The class map of the odometer's coinvariants sends such a function to its
Haar integral in Z[1/2]; `omega_coinvariant_class` computes the value and,
on request, an exact transfer witness.
"""

from __future__ import annotations

from fractions import Fraction


class PrecisionExhausted(Exception):
    """A 2-adic residue was asked for more digits than it carries."""


def _v2(n: int) -> int:
    # 2-adic valuation of a nonzero integer
    if n == 0:
        raise ValueError("v2(0) is infinite")
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    """|n| with every factor 2 removed; odd_part(0) = 0."""
    return abs(n) >> _v2(n) if n else 0


def dyadic(q) -> Fraction:
    """q as an element of Z[1/2], a Fraction (ints are converted).

    Raises ValueError unless q is an int or a Fraction whose denominator
    is a power of two.  Floats are refused although every finite double
    is dyadic: 0.1 would silently become 3602879701896397 / 2**55.
    """
    if type(q) is not Fraction:  # Fraction(q) would copy a Fraction
        if not isinstance(q, int) or isinstance(q, bool):
            raise ValueError(f"{q!r} is not an int or a Fraction")
        q = Fraction(q)
    d = q.denominator
    if d & (d - 1):
        raise ValueError(f"{q} is not a dyadic rational")
    return q


class LocallyConstFn:
    """Function on the 2-adic integers constant on level-`level` cylinders.

    values[k] is the value on F(level, k).  Values are ints or Fractions,
    bools and floats refused, and are stored as a tuple; all ring
    operations are exact.  Immutable and not a tuple, so `*` stays
    undefined; equal and hashed as the tuple (level, values).
    """

    __slots__ = ("level", "values")

    def __init__(self, level: int, values):
        values = tuple(values)
        if len(values) != 1 << level:
            raise ValueError("value table length must be 2**level")
        for v in values:
            if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                raise ValueError(f"{v!r} is not an int or a Fraction")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not LocallyConstFn:
            return NotImplemented
        return (self.level, self.values) == (other.level, other.values)

    def __hash__(self):
        return hash((self.level, self.values))

    def __repr__(self):
        return f"LocallyConstFn(level={self.level!r}, values={self.values!r})"

    @staticmethod
    def constant(c, level: int = 0) -> "LocallyConstFn":
        return LocallyConstFn(level, [c] * (1 << level))

    def refine(self, level: int) -> "LocallyConstFn":
        """Rewrite at a finer level; each coefficient is duplicated, since
        F(n, k) = F(n+1, k) | F(n+1, k + 2**n)."""
        if level < self.level:
            raise ValueError("refinement can only increase the level")
        reps = 1 << (level - self.level)
        n = 1 << self.level
        vals = [self.values[k % n] for k in range(n * reps)]
        return LocallyConstFn(level, vals)

    def _pair(self, other: "LocallyConstFn"):
        lev = max(self.level, other.level)
        return self.refine(lev), other.refine(lev), lev

    def __add__(self, other):
        a, b, lev = self._pair(other)
        return LocallyConstFn(lev, (x + y for x, y in zip(a.values, b.values)))

    def __sub__(self, other):
        a, b, lev = self._pair(other)
        return LocallyConstFn(lev, (x - y for x, y in zip(a.values, b.values)))

    def __neg__(self):
        return LocallyConstFn(self.level, (-x for x in self.values))

    def scale(self, c) -> "LocallyConstFn":
        return LocallyConstFn(self.level, (c * x for x in self.values))

    def compose_odometer_inverse(self) -> "LocallyConstFn":
        """f -> f o (x -> x - 1): the value on F(n, k) becomes f(k - 1)."""
        n = 1 << self.level
        return LocallyConstFn(self.level,
                              (self.values[(k - 1) % n] for k in range(n)))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def canonical(self) -> "LocallyConstFn":
        """Drop levels while both halves of every cylinder agree."""
        f = self
        while f.level > 0:
            n = 1 << (f.level - 1)
            if all(f.values[k] == f.values[k + n] for k in range(n)):
                f = LocallyConstFn(f.level - 1, f.values[:n])
            else:
                break
        return f


def integrate(f: LocallyConstFn) -> Fraction:
    """Haar integral: 2**(-level) * sum of the value table."""
    return sum(map(Fraction, f.values), Fraction(0)) / (1 << f.level)


def omega_coinvariant_class(f: LocallyConstFn, want_witness: bool = False):
    """Class of an integer-valued f in the odometer coinvariants.

    The class group is identified with Z[1/2] by f -> integral of f.
    With want_witness=True also returns an integer-valued g with

        f - p * indicator(F(n, 0)) = g - g o (x -> x - 1)

    where integrate(f) = p / 2**n in lowest terms.  The witness lives at
    level(f): the integral of an integer-valued f has a denominator
    dividing 2**level(f), so n <= level(f).
    """
    for v in f.values:
        if not isinstance(v, int) and not (isinstance(v, Fraction) and v.denominator == 1):
            raise ValueError("coinvariant classes are computed for integer-valued f")
    value = integrate(f)
    if not want_witness:
        return value, None
    p = value.numerator
    n = value.denominator.bit_length() - 1
    lev = f.level
    h = f - LocallyConstFn(lev, [0 if r & ((1 << n) - 1) else p
                                 for r in range(1 << lev)])
    # The odometer acts on level-lev residues as the 2**lev cycle k -> k+1,
    # so any zero-sum h is the coboundary of its partial sums.
    assert sum(h.values) == 0
    g = [0] * (1 << lev)
    for k in range(1, 1 << lev):
        g[k] = g[k - 1] + h.values[k]
    witness = LocallyConstFn(lev, (int(v) for v in g))
    check = witness - witness.compose_odometer_inverse()
    assert (check - h).is_zero()
    return value, witness
