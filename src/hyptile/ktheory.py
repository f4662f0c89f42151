"""Invariants and coinvariants of cylinder functions under the shift.

Integer (or dyadic-integer) valued functions on the coding space that
depend on finitely many letters form a module under two shift operators:
the plain one, f -> f o shift^-1, and the doubling one that also scales
by 2 and therefore only acts on Z[1/2] coefficients.  Everything here is
a finite, exact computation on truncations of that module:

* ``invariants``       the fixed functions of the operator,
* ``coinvariants``     the quotient by differences f - shift(f),
* ``k_groups``         the K-theory of the associated tiling algebra,
  assembled from the two computations above (K0 splits as the doubling
  coinvariants plus the plain invariants; K1 is the plain coinvariants),
* ``cech_cohomology``  the same groups relabelled as degree 0..2,
* ``gap_labels``       the subgroup of (R, +) spanned by cylinder
  measures, tracked truncation by truncation.

Truncation at window length N presents the coinvariants by generators
e_u over the length-(N+1) language with one combined relation per
length-N word (right refinement minus psi-weighted left extension).
The invariants at the same truncation are the left kernel of that one
relation matrix: the combinations c of length-N words with c * rows = 0
are the functions with c[v[:N]] = psi * c[v[1:]] for every word v of
length N + 1.  One Smith form U * rows * V = S gives both, the cokernel
from S and V and the left kernel as the rows of U past the rank.  It is
the only Smith form taken, once per spec, ring and level.  The
``stabilized`` flag says only what was checked.  A periodic word is
read at its orbit level, where the language stops growing: from there
every presentation is the circulant of the orbit, so the group is exact
and no bonding map is tested.  Substitutions and explicit windows
compare consecutive truncations through the induced maps, and the flag
means only that two consecutive bonding maps are isomorphisms.  That
says nothing about later levels, so it does not certify the group: the
chains of Thue-Morse and period doubling settle on wrong groups, and
their H^1 is not finitely generated (ROADMAP item 1).  A map is
certified an isomorphism when it is onto, read off a Hermite form in
the target's Smith coordinates, and both groups have the same rank and
torsion: finitely generated modules over a commutative ring are
Hopfian, so such a map is one to one as well.  Over Z[1/2] both forms
are taken over Z and powers of 2 are discarded, since 2 is a unit.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .dyadic import dyadic, odd_part
from .intmat import hnf_row_lattice, smith_normal_form
from .subshift import (
    HorizonExhausted,
    Periodic,
    Substitution,
    SubshiftSpec,
    _spec_perron,
    approximate,
    language,
    measure_vector,
)

__all__ = [
    "RING_Z",
    "RING_HALF",
    "SHIFT_PLAIN",
    "SHIFT_DOUBLING",
    "CylinderFunction",
    "FPAbelianGroup",
    "GapLabelGroup",
    "GapLabelLevel",
    "apply_shift",
    "constant_one",
    "refine_left",
    "refine_right",
    "refine_to",
    "canonical",
    "cf_equal",
    "invariant_rank",
    "invariants",
    "coinvariants",
    "coinvariant_class",
    "k_groups",
    "cech_cohomology",
    "gap_labels",
    "measure_pairing",
    "group_to_json",
    "gap_label_to_json",
]

RING_Z = "Z"
RING_HALF = "Z[1/2]"

SHIFT_PLAIN = "plain"
SHIFT_DOUBLING = "doubling"


def _check_ring(ring: str):
    if ring not in (RING_Z, RING_HALF):
        raise ValueError(f"unknown coefficient ring {ring!r}")


def _coerce_coeff(ring: str, value):
    if ring == RING_HALF:
        return dyadic(value)
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool) \
            or int(value) != value:
        raise ValueError("ring Z needs integer coefficients")
    return int(value)


class CylinderFunction:
    """Finitely supported combination of cylinder indicators.

    The function sits on the window [start, start + L) where L is the
    shared length of the coefficient words; the empty coefficient map is
    the zero function.  Coefficients live in Z or Z[1/2] according to
    the ring flag.  coeffs is sorted ((word, coefficient), ...).
    Immutable and not a tuple, so `*` stays undefined; equal and hashed
    as the tuple (ring, start, coeffs).
    """

    __slots__ = ("ring", "start", "coeffs")

    def __init__(self, ring: str, start: int, coeffs: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not CylinderFunction:
            return NotImplemented
        return ((self.ring, self.start, self.coeffs)
                == (other.ring, other.start, other.coeffs))

    def __hash__(self):
        return hash((self.ring, self.start, self.coeffs))

    def __repr__(self):
        return (f"CylinderFunction(ring={self.ring!r}, start={self.start!r}, "
                f"coeffs={self.coeffs!r})")

    @classmethod
    def of(cls, ring: str, start: int, mapping) -> "CylinderFunction":
        _check_ring(ring)
        if not isinstance(start, int) or isinstance(start, bool):
            raise ValueError(f"window start must be an int, got {start!r}")
        clean = {}
        for word, value in dict(mapping).items():
            if not isinstance(word, str) or not word:
                raise ValueError("coefficient keys must be nonempty words")
            v = _coerce_coeff(ring, value)
            if v:
                clean[word] = v
        lengths = {len(w) for w in clean}
        if len(lengths) > 1:
            raise ValueError("all coefficient words must share one length")
        return cls(ring, start, tuple(sorted(clean.items())))

    @property
    def length(self) -> int:
        return len(self.coeffs[0][0]) if self.coeffs else 0

    @property
    def window(self) -> tuple[int, int]:
        return (self.start, self.start + self.length)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def scale(self, c) -> "CylinderFunction":
        return CylinderFunction.of(
            self.ring, self.start, {w: v * c for w, v in self.coeffs})

    def __neg__(self) -> "CylinderFunction":
        return self.scale(-1)

    def _combine(self, other: "CylinderFunction", sign: int):
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")
        if self.is_zero:
            return other.scale(sign)
        if other.is_zero:
            return self
        if self.window != other.window:
            raise ValueError("windows differ; refine to a common window first")
        out = dict(self.coeffs)
        for w, v in other.coeffs:
            out[w] = out.get(w, 0) + sign * v
        return CylinderFunction.of(self.ring, self.start, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)


def constant_one(spec: SubshiftSpec, ring: str) -> CylinderFunction:
    """The constant function 1, written over the one-letter window."""
    return CylinderFunction.of(ring, 0, {a: 1 for a in language(spec, 1)})


def apply_shift(f: CylinderFunction, mode: str) -> CylinderFunction:
    """Push f forward through the shift; window moves by +1.

    Plain mode keeps coefficients; doubling mode multiplies them by 2
    and is only defined over Z[1/2].
    """
    if mode not in (SHIFT_PLAIN, SHIFT_DOUBLING):
        raise ValueError(f"unknown shift mode {mode!r}")
    if mode == SHIFT_DOUBLING and f.ring != RING_HALF:
        raise ValueError("doubling shift needs ring Z[1/2]")
    scale = 2 if mode == SHIFT_DOUBLING else 1
    return CylinderFunction.of(
        f.ring, f.start + 1, {w: v * scale for w, v in f.coeffs})


def _language_filter(spec: SubshiftSpec, f: CylinderFunction) -> CylinderFunction:
    # Words outside the language are empty cylinders; drop them.
    return refine_to(spec, f, *f.window)


def refine_right(spec: SubshiftSpec, f: CylinderFunction) -> CylinderFunction:
    """Rewrite f over a window one letter longer on the right."""
    return refine_to(spec, f, f.start, f.window[1] + 1)


def refine_left(spec: SubshiftSpec, f: CylinderFunction) -> CylinderFunction:
    """Rewrite f over a window one letter longer on the left."""
    return refine_to(spec, f, f.start - 1, f.window[1])


def refine_to(spec: SubshiftSpec, f: CylinderFunction,
              start: int, stop: int) -> CylinderFunction:
    """Rewrite f over the window [start, stop), which must contain f's.

    Each word of the language on the new window takes f's coefficient
    of its subword on f's window; words outside the language drop out.
    """
    if f.is_zero:
        return CylinderFunction.of(f.ring, start, {})
    a, b = f.window
    if start > a or stop < b:
        raise ValueError("target window must contain the current one")
    data = f.as_dict()
    return CylinderFunction.of(f.ring, start, {
        w: data.get(w[a - start:b - start], 0)
        for w in language(spec, stop - start)})


def canonical(spec: SubshiftSpec, f: CylinderFunction) -> CylinderFunction:
    """Shrink the window while the coefficients allow it.

    A letter can be dropped from an end of the window when refining the
    shrunk function back gives f again (with absent language words
    counting as coefficient 0).  Stops at window length 1.
    """
    f = _language_filter(spec, f)
    if f.is_zero:
        return CylinderFunction.of(f.ring, 0, {})
    while f.length > 1:
        a, b = f.window
        for lo, hi in ((0, f.length - 1), (1, f.length)):
            g = CylinderFunction.of(
                f.ring, a + lo, {w[lo:hi]: v for w, v in f.coeffs})
            if refine_to(spec, g, a, b) == f:
                f = g
                break
        else:
            break
    return f


def cf_equal(spec: SubshiftSpec, f: CylinderFunction,
             g: CylinderFunction) -> bool:
    """Do f and g agree as functions on the coding space?"""
    if f.ring != g.ring:
        return False
    f = _language_filter(spec, f)
    g = _language_filter(spec, g)
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    start = min(f.start, g.start)
    stop = max(f.window[1], g.window[1])
    return (refine_to(spec, f, start, stop).coeffs
            == refine_to(spec, g, start, stop).coeffs)


# ---------------------------------------------------------------------------
# groups


class FPAbelianGroup(namedtuple("FPAbelianGroup", [
        "ring", "rank", "torsion", "generators", "stabilized", "n_used",
        "approximate"], defaults=(False,))):
    """Finitely presented abelian group in Smith-canonical form.

    torsion holds the invariant factors > 1, odd when ring = Z[1/2];
    generators is ((name, CylinderFunction representative), ...).  The
    group holds no presentation: ``coinvariant_class`` rebuilds it from
    the spec, ring and n_used, and checks it against the generators.
    """

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion


def _coeff_json(ring: str, v):
    if ring == RING_Z:
        return int(v)
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _cylinder_json(name: str, f: CylinderFunction) -> dict:
    return {
        "name": name,
        "window": list(f.window),
        "coefficients": {w: _coeff_json(f.ring, v) for w, v in f.coeffs},
    }


def group_to_json(g: FPAbelianGroup) -> dict:
    out = {
        "ring": g.ring,
        "rank": g.rank,
        "torsion": [int(d) for d in g.torsion],
        "generators": [_cylinder_json(n, f) for n, f in g.generators],
        "stabilized": bool(g.stabilized),
        "N_used": g.n_used,
    }
    if g.approximate:
        out["approximate"] = True
    return out


class _Presentation(namedtuple("_Presentation", [
        "ring",
        "level",  # window length N of the relation index set
        "cols",  # language(N + 1), the generator words
        "v",
        "v_inv",
        "diag",
        "tors",  # ((column index, invariant factor), ...)
        "free",  # column indices
        "kernel",  # rows of U past the rank: a basis of {c : c * rows = 0}
])):
    __slots__ = ()

    def generator_columns(self) -> list:
        """(name, column, invariant factor or 0): torsion, then free."""
        return ([(f"t{i}", j, d) for i, (j, d) in enumerate(self.tors)]
                + [(f"f{i}", j, 0) for i, j in enumerate(self.free)])


def _relation_rows(spec: SubshiftSpec, n: int, psi: int):
    lo = {u: i for i, u in enumerate(language(spec, n))}
    hi = language(spec, n + 1)
    rows = [[0] * len(hi) for _ in lo]
    for j, v in enumerate(hi):
        rows[lo[v[:n]]][j] += 1
        rows[lo[v[1:]]][j] -= psi
    return rows, hi


@functools.lru_cache(maxsize=64)
def _presentation(spec: SubshiftSpec, ring: str, n: int) -> _Presentation:
    """The level-n relation matrix and its Smith form, computed once."""
    psi = 2 if ring == RING_HALF else 1
    rows, cols = _relation_rows(spec, n, psi)
    m = len(cols)
    u, s, v, v_inv = smith_normal_form(rows)
    diag = [s[i][i] for i in range(min(len(s), m))]
    kernel = u[sum(1 for d in diag if d):]
    if ring == RING_HALF:
        diag = [odd_part(d) for d in diag]
    tors = []
    free = []
    for j in range(m):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            free.append(j)
        elif d > 1:
            tors.append((j, d))
    return _Presentation(
        ring, n, tuple(cols), tuple(tuple(r) for r in v),
        tuple(tuple(r) for r in v_inv), tuple(diag), tuple(tors),
        tuple(free), tuple(tuple(r) for r in kernel))


def _generators(pres: _Presentation) -> tuple:
    """((name, representative), ...), the columns of V^-1 as functions."""
    return tuple(
        (name, CylinderFunction.of(
            pres.ring, 0, {w: c for w, c in zip(pres.cols, pres.v_inv[j]) if c}))
        for name, j, _ in pres.generator_columns())


def _group_from(pres: _Presentation, stabilized: bool,
                approximate_flag: bool) -> FPAbelianGroup:
    return FPAbelianGroup(
        ring=pres.ring,
        rank=len(pres.free),
        torsion=tuple(d for _, d in pres.tors),
        generators=_generators(pres),
        stabilized=stabilized,
        n_used=pres.level,
        approximate=approximate_flag,
    )


def _bonding_is_iso(p1: _Presentation, p2: _Presentation, ring: str) -> bool:
    """Is the induced map from p1's group to p2's an isomorphism?

    The two groups must have the same rank and torsion; then the map is
    an isomorphism exactly when it is onto, since a finitely generated
    module over a commutative ring is Hopfian (an onto endomorphism is
    one to one).  Onto is read in p2's Smith coordinates x -> x V: e_w
    goes to the rows of V of its one-letter right refinements, summed
    and kept on p2's k generator columns.  With d * e_j for each torsion
    column j, these rows span the ring's lattice exactly when their
    Hermite form is square and its pivots, whose product is the index
    of the span, are units of the ring.
    """
    if (len(p1.free) != len(p2.free)
            or [d for _, d in p1.tors] != [d for _, d in p2.tors]):
        return False
    gens = [j for _, j, _ in p2.generator_columns()]
    k = len(gens)
    idx = {w: i for i, w in enumerate(p1.cols)}
    rows = [[0] * k for _ in p1.cols]
    for v, coords in zip(p2.cols, p2.v):
        row = rows[idx[v[:-1]]]
        for i, j in enumerate(gens):
            row[i] += coords[j]
    # the torsion columns come first
    rows += [[0] * i + [d] + [0] * (k - i - 1)
             for i, (_, d) in enumerate(p2.tors)]
    hnf = hnf_row_lattice(rows)
    unit = odd_part if ring == RING_HALF else abs
    return len(hnf) == k and all(unit(row[i]) == 1
                                 for i, row in enumerate(hnf))


def _iter_levels(spec: SubshiftSpec, ring: str, n_max: int):
    """Presentations for N = 1..n_max, or up to an explicit window's
    horizon, each built only when the caller asks for it."""
    for n in range(1, n_max + 1):
        try:
            pres = _presentation(spec, ring, n)
        except HorizonExhausted:
            if n == 1:
                raise HorizonExhausted(
                    "horizon exhausted: no truncation could be computed"
                ) from None
            return
        yield pres


def coinvariants(spec: SubshiftSpec, ring: str,
                 n_max: int = 8) -> FPAbelianGroup:
    """Shift coinvariants at truncation; ``stabilized`` says what was checked.

    A periodic word's group is read at its orbit level N0, the first N
    with |L(N)| = |L(N + 1)|: from there on every presentation is the
    circulant of the orbit, so the group is exact and flagged stabilized
    whenever N0 <= n_max.  Otherwise the group is reported at the first
    truncation N whose two following induced maps are isomorphisms; when
    no such N exists up to n_max (or N0 > n_max) the last computed group
    is returned unstabilized rather than pretending the chain settled.
    For a substitution the flag means only those two isomorphisms, not
    the group: a later level can still change it (ROADMAP item 1).
    """
    _check_ring(ring)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    approx = approximate(spec)
    if isinstance(spec, Periodic):
        n0 = next((n for n in range(1, n_max + 1)
                   if len(language(spec, n)) == len(language(spec, n + 1))),
                  n_max + 1)
        return _group_from(_presentation(spec, ring, min(n0, n_max)),
                           n0 <= n_max, approx)
    # the chain stops two levels past the pick, if there is one
    levels, run = [], 0  # run: isomorphisms in a row into this level
    for pres in _iter_levels(spec, ring, n_max):
        iso = bool(levels) and _bonding_is_iso(levels[-1], pres, ring)
        run = run + 1 if iso else 0
        levels.append(pres)
        if run == 2:
            return _group_from(levels[-3], True, approx)
    return _group_from(levels[-1], False, approx)


def invariant_rank(spec: SubshiftSpec, ring: str, n: int) -> int:
    """Rank of the fixed functions of the shift operator at window n."""
    _check_ring(ring)
    return len(_presentation(spec, ring, n).kernel)


def invariants(spec: SubshiftSpec, ring: str,
               n_cap: int = 8) -> FPAbelianGroup:
    """Fixed functions of the shift operator, as a group with witnesses.

    At truncation n they are the left kernel of the level-n relation
    matrix, read off the coinvariants' Smith form; the generators are
    its Hermite basis.  Over Z[1/2] the doubling operator scales every
    fixed function's largest coefficient by 2, so only zero is fixed;
    the chain of truncations is still checked explicitly up to n_cap,
    and a level with fixed functions is reported unstabilized.  Over Z
    the fixed functions at truncation n are spanned by the indicator
    functions of the connected components of the length-n language
    under the overlap relation, so the Hermite basis is those
    indicators in order of their first word, and the rank chain
    certifies stabilization when it repeats.
    """
    _check_ring(ring)
    if n_cap < 1:
        raise ValueError("n_cap must be >= 1")
    half = ring == RING_HALF
    # levels are built only up to the pick: over Z[1/2] the first level
    # with fixed functions, over Z the first whose rank the next repeats
    levels = []
    for pres in _iter_levels(spec, ring, n_cap):
        if half and pres.kernel:
            pick = pres
            break
        if (not half and levels
                and len(levels[-1].kernel) == len(pres.kernel)):
            pick = levels[-1]
            break
        levels.append(pres)
    else:
        pick = None
    if half:
        stabilized = pick is None and len(levels) >= 2
        prefix = "f"
    else:
        stabilized = pick is not None
        prefix = "c"
    pres = levels[-1] if pick is None else pick
    words = language(spec, pres.level)
    gens = tuple(
        (f"{prefix}{i}",
         CylinderFunction.of(ring, 0, {w: c for w, c in zip(words, vec) if c}))
        for i, vec in enumerate(hnf_row_lattice(pres.kernel)))
    return FPAbelianGroup(ring, len(gens), (), gens, stabilized, pres.level,
                          approximate(spec))


def coinvariant_class(spec: SubshiftSpec, f: CylinderFunction,
                      group: FPAbelianGroup) -> dict:
    """Coordinates of the class of f in the group's generator basis.

    Linear in f, kills coboundaries f - shift(f), and reduces torsion
    coordinates modulo their invariant factor.  f is first shrunk by
    ``canonical``, so every cylinder function has a class in a periodic
    group read at its orbit level; otherwise a group of level N takes
    windows of at most N + 1 letters.  The group must be the spec's
    coinvariants at level n_used: generator representatives that differ
    from that presentation's (another spec's, an ``invariants`` group)
    raise ValueError, and names are not compared, so K0's retag passes.
    """
    if f.ring != group.ring:
        raise ValueError("ring of the function and the group differ")
    pres = _presentation(spec, group.ring, group.n_used)
    if [r for _, r in group.generators] != [r for _, r in _generators(pres)]:
        raise ValueError("the group is not this spec's coinvariants at "
                         f"N = {group.n_used}; use a group returned by "
                         "coinvariants()")
    # f - shift(f) is a coboundary, so moving f to window 0 scales it by
    # psi**-start, psi the shift operator's factor.
    psi = Fraction(2 if group.ring == RING_HALF else 1)
    f = canonical(spec, f)
    f = CylinderFunction.of(
        f.ring, 0, {w: v * psi ** -f.start for w, v in f.coeffs})
    width = pres.level + 1
    if f.length > width:
        raise ValueError(
            f"window of length {f.length} does not fit the group's level "
            f"N = {pres.level}, which takes windows of at most {width} letters")
    data = refine_to(spec, f, 0, width).as_dict()
    x = [data.get(w, 0) for w in pres.cols]
    coords = {}
    for (name, _), (_, j, d) in zip(group.generators,
                                    pres.generator_columns()):
        w = sum(Fraction(xi) * vij for xi, vij in zip(x, [row[j] for row in pres.v]))
        if d:
            num, den = w.numerator, w.denominator
            # den is a 2-power and d is odd over Z[1/2]; invert it mod d.
            coords[name] = (num * pow(den, -1, d)) % d
        else:
            coords[name] = int(w) if w.denominator == 1 else w
    return coords


def _retag(group: FPAbelianGroup, prefix: str) -> FPAbelianGroup:
    return group._replace(generators=tuple(
        (f"{prefix}:{name}", rep) for name, rep in group.generators))


def k_groups(spec: SubshiftSpec, n_max: int = 8) -> dict:
    """K0 (as its split pair) and K1 of the tiling algebra of a colouring.

    K0 splits as the doubling coinvariants plus the plain invariants; an
    explicit section exists, so the pair is reported instead of an
    extension class.  The coinvariant summand's generators are tagged as
    projection classes; the names are opaque labels.
    """
    co_half = coinvariants(spec, RING_HALF, n_max)
    co_z = coinvariants(spec, RING_Z, n_max)
    inv_z = invariants(spec, RING_Z, n_cap=n_max)
    return {"K0": (_retag(co_half, "projection-class"), inv_z), "K1": co_z}


def cech_cohomology(spec: SubshiftSpec, n_max: int = 8) -> dict:
    """Degree 0..2 cohomology of the hull, from the shift module."""
    h1 = coinvariants(spec, RING_Z, n_max)
    h2 = coinvariants(spec, RING_HALF, n_max)
    return {
        "H0": invariants(spec, RING_Z, n_cap=n_max),
        "H1": h1,
        "H2": h2,
    }


# ---------------------------------------------------------------------------
# gap labels


class GapLabelGroup(namedtuple("GapLabelGroup", [
        "kind",  # "rational" | "algebraic"
        "minpoly",  # ascending Fraction coefficients, monic, or None
        "generators",  # Fraction | AlgebraicNumber, reduced, each in (0, 1]
        "chain",  # GapLabelLevel records, n = 1..n_used
        "stabilized",
        "n_used",
        "dyadic_base",  # odd part of the generator when halving, or None
])):
    """Subgroup of (R, +) spanned by cylinder measures, per truncation."""

    __slots__ = ()


# one truncation of a gap-label chain
GapLabelLevel = namedtuple("GapLabelLevel",
                           "n generators agrees_with_previous")


def _frac_rows_canon(rows) -> tuple:
    """Canonical form of the lattice spanned by rows of Fractions."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    scaled = [[int(x * den) for x in row] for row in rows]
    hnf = hnf_row_lattice(scaled)
    return tuple(tuple(Fraction(x, den) for x in row) for row in hnf)


def _value_row(value, degree: int) -> list:
    cs = (value,) if isinstance(value, Fraction) else value.coeffs
    return list(cs) + [Fraction(0)] * (degree - len(cs))


def gap_labels(spec: SubshiftSpec, n_max: int = 6) -> GapLabelGroup:
    """Group of cylinder-measure values, truncation by truncation.

    Each level's lattice is the Hermite basis of the values' coordinates
    over the field's rational basis.  Rational measures collapse to its
    one generator, their gcd; algebraic ones keep a reduced list of the
    values, none in the lattice of the others.  A halving step at the end
    of the chain is reported as a dyadic pattern with the odd part of the
    final generator as its base.  A substitution's chain is flagged
    stabilized only when its last lattice is also closed under 1/lambda,
    lambda the Perron root (ROADMAP item 2).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    per_level = []
    for n in range(1, n_max + 1):
        per_level.append(measure_vector(spec, n))  # raises UnsupportedSpec

    first = next(iter(per_level[0].values()))
    algebraic = not isinstance(first, Fraction)
    if algebraic:
        fld = first.field
        degree = len(fld.minpoly) - 1
        minpoly = tuple(fld.minpoly)
    else:
        degree = 1
        minpoly = None

    chain = []
    canons = []
    gens_last: tuple = ()
    for n, mu in enumerate(per_level, start=1):
        words = sorted(mu)
        values = [mu[w] for w in words]
        rows = [_value_row(v, degree) for v in values]
        canon = _frac_rows_canon(rows)
        if algebraic:
            # dropping a value only shrinks the others' lattice, so a value
            # kept once stays kept and one pass in order suffices; the kept
            # values always span the level's lattice, so a value lies in
            # the others' lattice iff they alone still span it
            kept = list(range(len(values)))
            for pos in range(len(values)):
                others = [rows[i] for i in kept if i != pos]
                if others and _frac_rows_canon(others) == canon:
                    kept.remove(pos)
            gens = tuple(values[i] for i in kept)
        else:
            gens = (canon[0][0],)
        agrees = bool(canons) and canon == canons[-1]
        canons.append(canon)
        gens_last = gens
        chain.append(GapLabelLevel(n, gens, agrees))

    stabilized = len(canons) >= 2 and canons[-1] == canons[-2]
    if stabilized and isinstance(spec, Substitution):
        # mu(x.P) = lambda * mu(x) under the tower map P, so the group is
        # closed under 1/lambda; the last level's lattice must be too
        inv = _spec_perron(spec)[1]
        scaled = [_value_row(v * inv, degree) for v in values]
        stabilized = _frac_rows_canon(rows + scaled) == canons[-1]
    dyadic_base = None
    if len(canons) >= 2:
        halved = canons[-1] == tuple(
            tuple(x / 2 for x in row) for row in canons[-2])
        if halved and not algebraic:
            g = gens_last[0]
            dyadic_base = Fraction(odd_part(g.numerator), odd_part(g.denominator))
    return GapLabelGroup(
        kind="algebraic" if algebraic else "rational",
        minpoly=minpoly,
        generators=gens_last,
        chain=tuple(chain),
        stabilized=stabilized,
        n_used=n_max,
        dyadic_base=dyadic_base,
    )


def _measure_value_json(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return {"coordinates": [f"{Fraction(c).numerator}/{Fraction(c).denominator}"
                            for c in v.coeffs],
            "approx": float(v)}


def gap_label_to_json(g: GapLabelGroup) -> dict:
    out = {
        "kind": g.kind,
        "generators": [_measure_value_json(v) for v in g.generators],
        "chain": [dict(entry._asdict(), generators=[
            _measure_value_json(v) for v in entry.generators])
            for entry in g.chain],
        "stabilized": g.stabilized,
        "N_used": g.n_used,
    }
    if g.minpoly is not None:
        out["minpoly"] = [f"{c.numerator}/{c.denominator}" for c in g.minpoly]
    if g.dyadic_base is not None:
        b = g.dyadic_base
        out["dyadic_base"] = (int(b) if b.denominator == 1
                              else f"{b.numerator}/{b.denominator}")
    return out


def measure_pairing(spec: SubshiftSpec, f: CylinderFunction):
    """Integral of f against the invariant measure, exactly.

    Independent of how the window is written (refinement on either side
    preserves it, by additivity of the measure), equal to the word
    measure on cylinder indicators, and constant on plain-shift
    coinvariant classes since the measure is shift invariant.  It is
    not constant on doubling-shift classes, and no positive additive
    functional into the reals can be: 1 and 2 lie in one class there,
    so nu(1) = 2 nu(1) forces nu(1) = 0.  (Torsion alone would only
    force such a functional to vanish on the torsion.)
    """
    f = _language_filter(spec, f)
    if f.is_zero:
        return Fraction(0)
    mu = measure_vector(spec, f.length)
    return sum(mu[w] * Fraction(c) for w, c in f.coeffs)
