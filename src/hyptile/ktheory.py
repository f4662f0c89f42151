"""Invariants and coinvariants of cylinder functions under the shift.

Integer (or dyadic-integer) valued functions on the coding space that
depend on finitely many letters form a module under two shift operators:
the plain one, f -> f o shift^-1, and the doubling one that also scales
by 2 and therefore only acts on Z[1/2] coefficients.  Everything here is
a finite, exact computation on truncations of that module:

* ``invariants``       the fixed functions of the operator,
* ``coinvariants``     the quotient by differences f - shift(f),
* ``k_groups``         the K-theory of the associated tiling algebra
  (K0 is the doubling coinvariants plus the plain invariants, K1 the
  plain coinvariants),
* ``cech_cohomology``  the same groups relabelled as degree 0..2,
* ``gap_labels``       the subgroup of (R, +) spanned by cylinder
  measures, tracked truncation by truncation.

Truncation N presents the coinvariants by generators e_v, v of length
N + 1, and one relation per word u of length N: the v that start with u
minus psi times those that end with u.  That is the psi-twisted
coboundary of the order-N Rauzy graph (vertices the words u, an edge v
from v[:N] to v[1:]; Anderson & Putnam, ETDS 18, 1998), so each level is
read off a breadth-first spanning forest, and no Smith form is taken.
Levels are compared through the induced bonding maps, which are
isomorphisms when onto between groups of the same rank and torsion
(finitely generated modules are Hopfian).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .dyadic import dyadic, odd_part
from .intmat import hnf_row_lattice
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
    "RING_Z", "RING_HALF", "SHIFT_PLAIN", "SHIFT_DOUBLING",
    "CylinderFunction", "FPAbelianGroup", "GapLabelGroup", "GapLabelLevel",
    "apply_shift", "constant_one", "refine_left", "refine_right",
    "refine_to", "canonical", "cf_equal", "invariant_rank", "invariants",
    "coinvariants", "coinvariant_class", "k_groups", "cech_cohomology",
    "gap_labels", "measure_pairing", "group_to_json", "gap_label_to_json",
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
        "level",  # N: the Rauzy graph's vertices are language(N)
        "words",  # language(N)
        "cols",  # language(N + 1), the edges: v runs from v[:N] to v[1:]
        "tree",  # (child, parent, edge, child is the edge's end), by depth
        "coords",  # (edge, start, end) of each edge off the forest
        "scale",  # psi ** (the forest's depth): potentials are integers
        "relations",  # the components' nonzero root rows, on coords
        "kernel",  # a fixed function of each component whose row is 0
        "v",  # coords x go to x V
        "v_inv",  # whose rows, on coords, are the generators
        "tors",  # ((column index, invariant factor), ...)
        "free",  # column indices
])):
    __slots__ = ()

    def generator_columns(self) -> list:
        """(name, column, invariant factor or 0): torsion, then free."""
        return ([(f"t{i}", j, d) for i, (j, d) in enumerate(self.tors)]
                + [(f"f{i}", j, 0) for i, j in enumerate(self.free)])


def _gcd_step(v, v_inv, i: int, j: int, x: int, y: int) -> int:
    """Columns i, j of V times the unimodular T that takes the row (x, y)
    to (gcd, 0) and diag(x, y) to a basis of diag(gcd, lcm); rows i, j
    of V^-1 times T^-1.  Returns the gcd."""
    g, s, t, g1, s1, t1 = x, 1, 0, y, 0, 1  # s x + t y = g throughout
    while g1:
        q = g // g1
        g, s, t, g1, s1, t1 = g1, s1, t1, g - q * g1, s - q * s1, t - q * t1
    g, s, t = (g, s, t) if g > 0 else (-g, -s, -t)
    b, d = -y // g, x // g
    for row in v:
        row[i], row[j] = s * row[i] + t * row[j], b * row[i] + d * row[j]
    v_inv[i], v_inv[j] = ([d * p - b * q for p, q in zip(v_inv[i], v_inv[j])],
                          [s * q - t * p for p, q in zip(v_inv[i], v_inv[j])])
    return g


@functools.lru_cache(maxsize=64)
def _presentation(spec: SubshiftSpec, ring: str, n: int) -> _Presentation:
    """The level-n group, read off a breadth-first spanning forest.

    The tree edge into a child has coefficient 1 or -psi, a unit, in the
    child's row, so the tree edges are eliminated from the leaves up.
    Each component keeps its root's row c, on its edges off the forest:
    dh there, for the h that is 1 at the root and has dh = 0 on the
    tree.  Over Z, h is 1 and c is 0.  Over Z[1/2], c leaves
    Z[1/2]^(k-1) + Z[1/2]/(odd part of gcd c), which extended-gcd column
    steps split off; several cyclic summands merge to invariant factors.
    """
    psi = 2 if ring == RING_HALF else 1
    words, cols = language(spec, n), language(spec, n + 1)
    at = {u: i for i, u in enumerate(words)}
    ends = [(at[v[:n]], at[v[1:]]) for v in cols]
    star = [[] for _ in words]
    for e, (a, b) in enumerate(ends):
        star[a].append(e)
        star[b].append(e)
    depth, comp, tree, roots = [-1] * len(words), [0] * len(words), [], []
    for root in range(len(words)):  # roots in language order
        if depth[root] < 0:
            depth[root], queue = 0, [root]
            for p in queue:  # read while it grows: breadth first
                comp[p] = len(roots)
                for e in star[p]:
                    c = sum(ends[e]) - p  # the other end, p on a loop
                    if depth[c] < 0:
                        depth[c] = depth[p] + 1
                        tree.append((c, p, e, ends[e][1] == c))
                        queue.append(c)
            roots.append(root)
    scale = psi ** max(depth)
    h = [scale] * len(words)  # scale times h
    for c, p, _, down in tree:
        h[c] = h[p] // psi if down else h[p] * psi
    on_tree = {e for _, _, e, _ in tree}
    coords = sorted((comp[a], e, a, b) for e, (a, b) in enumerate(ends)
                    if e not in on_tree)
    rows = [[0] * len(coords) for _ in roots]
    for i, (k, _, a, b) in enumerate(coords):
        rows[k][i] = h[a] - psi * h[b]
    kernel = []
    for k, row in enumerate(rows):
        if not any(row):
            g = math.gcd(*(x for x, c in zip(h, comp) if c == k))
            kernel.append(tuple(x // g if c == k else 0
                                for x, c in zip(h, comp)))
    relations = [row for row in rows if any(row)]
    v = [[int(i == j) for j in range(len(coords))] for i in range(len(coords))]
    v_inv = [row[:] for row in v]
    unit_part = odd_part if ring == RING_HALF else abs
    pivots = []
    for row in relations:  # to g e_i, i the row's first column
        i, *rest = (j for j, x in enumerate(row) if x)
        g = row[i]
        for j in rest:
            g = _gcd_step(v, v_inv, i, j, g, row[j])
        pivots.append((i, unit_part(g)))
    tors = [(i, d) for i, d in pivots if d > 1]
    for x in range(len(tors)):
        for y in range(x + 1, len(tors)):
            (i, a), (j, b) = tors[x], tors[y]
            g = _gcd_step(v, v_inv, i, j, a, b)
            tors[x], tors[y] = (i, g), (j, a // g * b)
    dead = {i for i, _ in pivots}
    return _Presentation(
        ring, n, tuple(words), tuple(cols), tuple(tree),
        tuple((e, a, b) for _, e, a, b in coords), scale,
        tuple(map(tuple, relations)), tuple(kernel), tuple(map(tuple, v)),
        tuple(map(tuple, v_inv)), tuple((i, d) for i, d in tors if d > 1),
        tuple(i for i in range(len(coords)) if i not in dead))


def _tree_class(pres: _Presentation, y) -> list:
    """scale times the class of the integer cochain y in tree coordinates.

    Potentials x, 0 at the roots, make y - dx vanish on the tree edges,
    and y - dx on the others is the class.  q is scale times x, so each
    step is exact in integers.
    """
    psi, s = 2 if pres.ring == RING_HALF else 1, pres.scale
    q = [0] * len(pres.words)
    for c, p, e, down in pres.tree:
        q[c] = (q[p] - s * y[e]) // psi if down else s * y[e] + psi * q[p]
    return [s * y[e] - q[a] + psi * q[b] for e, a, b in pres.coords]


def _generators(pres: _Presentation) -> tuple:
    """((name, representative), ...), the rows of V^-1 as functions."""
    words = [pres.cols[e] for e, _, _ in pres.coords]
    return tuple(
        (name, CylinderFunction.of(
            pres.ring, 0, {w: c for w, c in zip(words, pres.v_inv[j]) if c}))
        for name, j, _ in pres.generator_columns())


def _group_from(pres: _Presentation, stabilized: bool,
                approximate_flag: bool) -> FPAbelianGroup:
    return FPAbelianGroup(pres.ring, len(pres.free), tuple(
        d for _, d in pres.tors), _generators(pres), stabilized, pres.level,
        approximate_flag)


def _bonding_is_iso(p1: _Presentation, p2: _Presentation, ring: str) -> bool:
    """Is the induced map from p1's group to p2's an isomorphism?

    With the same rank and torsion it is when it is onto (Hopfian).
    p1's edges off its forest span its group; each goes to the sum of
    its one-letter right refinements, read in p2's tree coordinates.
    With p2's relations these rows span the lattice exactly when their
    Hermite form is square with pivots, whose product is the index of
    the span, that are units of the ring.
    """
    if (len(p1.free) != len(p2.free)
            or [d for _, d in p1.tors] != [d for _, d in p2.tors]):
        return False
    rows = [_tree_class(p2, [int(v[:-1] == p1.cols[e]) for v in p2.cols])
            for e, _, _ in p1.coords]
    rows += p2.relations
    hnf = hnf_row_lattice(rows)
    unit = odd_part if ring == RING_HALF else abs
    return len(hnf) == len(p2.coords) and all(unit(row[i]) == 1
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

    A periodic word's group is exact from its orbit level N0, the first
    N with |L(N)| = |L(N + 1)|, and flagged when N0 <= n_max.  Otherwise
    it is read at the first N whose two following induced maps are
    isomorphisms, or at the last level, unflagged, when none is.  For a
    substitution the flag is not a certificate (ROADMAP item 1).
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

    At truncation n they are the left kernel of the level-n relations,
    one function per component of the Rauzy graph whose root row is 0,
    printed as their Hermite basis.  Over Z these are the components'
    indicators, and the chain is flagged when its rank repeats.  Over
    Z[1/2] the doubling scales a fixed function's largest coefficient
    by 2, so only 0 is fixed; a level with fixed functions (a window's
    graph can have them) is reported unstabilized.
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
    gens = tuple(
        (f"{prefix}{i}", CylinderFunction.of(
            ring, 0, {w: c for w, c in zip(pres.words, vec) if c}))
        for i, vec in enumerate(hnf_row_lattice(pres.kernel)))
    return FPAbelianGroup(ring, len(gens), (), gens, stabilized, pres.level,
                          approximate(spec))


def coinvariant_class(spec: SubshiftSpec, f: CylinderFunction,
                      group: FPAbelianGroup) -> dict:
    """Coordinates of the class of f in the group's generator basis.

    Linear in f, kills coboundaries f - shift(f), and reduces torsion
    coordinates modulo their invariant factor.  f is first shrunk by
    ``canonical``; a group of level N then takes windows of at most
    N + 1 letters.  The group must be the spec's coinvariants at n_used:
    other generators (another spec's, an ``invariants`` group) raise
    ValueError, and names are not compared, so K0's retag passes.
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
    x = [Fraction(data.get(w, 0)) for w in pres.cols]
    den = math.lcm(*(xi.denominator for xi in x))
    tree = [Fraction(c, den * pres.scale)
            for c in _tree_class(pres, [int(xi * den) for xi in x])]
    coords = {}
    for (name, _), (_, j, d) in zip(group.generators,
                                    pres.generator_columns()):
        w = sum(t * row[j] for t, row in zip(tree, pres.v))
        if d:  # the denominator is a 2-power, d odd: invert it mod d
            coords[name] = w.numerator * pow(w.denominator, -1, d) % d
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
    # measure_vector raises UnsupportedSpec
    per_level = [measure_vector(spec, n) for n in range(1, n_max + 1)]
    first = next(iter(per_level[0].values()))
    algebraic = not isinstance(first, Fraction)
    minpoly = tuple(first.field.minpoly) if algebraic else None
    degree = len(minpoly) - 1 if algebraic else 1

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
    return GapLabelGroup("algebraic" if algebraic else "rational", minpoly,
                         gens_last, tuple(chain), stabilized, n_max,
                         dyadic_base)


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
        out["dyadic_base"] = _measure_value_json(g.dyadic_base)
    return out


def measure_pairing(spec: SubshiftSpec, f: CylinderFunction):
    """Integral of f against the invariant measure, exactly.

    Independent of how the window is written, equal to the word measure
    on cylinder indicators, and constant on plain-shift coinvariant
    classes, the measure being shift invariant.  No positive additive
    functional is constant on doubling-shift classes: 1 and 2 lie in one
    class there, so nu(1) = 2 nu(1) forces nu(1) = 0.
    """
    f = _language_filter(spec, f)
    if f.is_zero:
        return Fraction(0)
    mu = measure_vector(spec, f.length)
    return sum(mu[w] * Fraction(c) for w, c in f.coeffs)
