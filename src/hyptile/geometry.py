"""Pentagon tilings of the hyperbolic upper half-plane, exactly.

The base pentagon P has vertices A1=(0,1), A2=(1/2,1), A3=(1,1), A4=(1,2),
A5=(0,2).  Its images under z -> 2**k (z + n), k and n integers, tile the
half-plane.  All vertex coordinates are dyadic rationals, held as
`Fraction`s that `dyadic.dyadic` has checked, so shared corners compare
equal exactly, never by float tolerance.

Edges pair by the charge rule: each tile's top edge A4A5 is one bottom
edge, A1A2 or A2A3, of the tile one scale up, and its two vertical edges
are those of its same-scale neighbours.  Every tile carries one positive
edge (A4A5) and two negative ones (A1A2, A2A3).  `edge_adjacency` reads
the pairing from the tile indices by that rule and returns each edge as
its two tile sides, building no coordinate; the tests check it against
edges keyed by the tiles' exact vertex coordinates.

Ball membership has one exact distance.  Tile (k, n) is the image of P
under z -> 2**k (z + n), so its distance from i=(0,1) is the distance
from the dyadic point (-n, 2**-k) to P.  The sinh**2 of the distance
from a point to a vertex, a vertical edge or an arc of P is rational in
the point's coordinates, so `tile_distance_sinh2` is exact, and
`generate_patch(exact=True)` and `agreement_radius` both read it.  The
default patch rule is a float superset: it compares each tile's bounding
box (vertices plus arc apexes) with the Euclidean disk of the ball, the
disk with center (0, cosh r) and radius sinh r.  At each scale the boxes
differ only in their x-interval, so the kept tiles form one n-interval,
solved from one square root and settled by the box test at its ends.
The patch size is therefore known before any tile is built, and patches
above MAX_PATCH_TILES are refused.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from fractions import Fraction

from .dyadic import _Frozen, _v2, dyadic
from .subshift import SubshiftSpec, language

LN2 = math.log(2.0)

EDGE_LABELS = ("A1A2", "A2A3", "A3A4", "A4A5", "A5A1")
POSITIVE_EDGE = "A4A5"
NEGATIVE_EDGES = ("A1A2", "A2A3")


class ColourWindowExhausted(Exception):
    """A colour index fell outside the supplied colour window."""


@functools.lru_cache(maxsize=128)  # Fraction ** k is slow; few k recur
def _pow2(k: int) -> Fraction:
    return Fraction(2) ** k


class Point(_Frozen):
    """Point of the upper half-plane with dyadic coordinates, stored as
    `dyadic` of the given values (ints become Fractions).  Immutable and
    not a tuple; hashed by the coordinates' integer ratios, which is
    cheaper than Fraction.__hash__ and its modular inverse.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x, y = dyadic(x), dyadic(y)
        if y.numerator <= 0:  # denominators are positive
            raise ValueError("points must lie strictly above the real axis")
        super().__init__(x, y)

    def __hash__(self):
        return hash((self.x.as_integer_ratio(), self.y.as_integer_ratio()))


pt = Point  # short spelling of Point(x, y)

# base pentagon, in vertex order A1..A5
BASE_VERTICES = (pt(0, 1), pt(Fraction(1, 2), 1), pt(1, 1), pt(1, 2), pt(0, 2))


class AffineMap(namedtuple("AffineMap", "k b")):
    """z -> 2**k z + b with b dyadic: the exact maps the tiling uses."""

    __slots__ = ()

    def __new__(cls, k: int, b=Fraction(0)):
        return super().__new__(cls, k, dyadic(b))

    def apply(self, p: Point) -> Point:
        s = _pow2(self.k)
        return Point(s * p.x + self.b, s * p.y)

    def compose(self, other: "AffineMap") -> "AffineMap":
        # self o other : z -> 2**(k1+k2) z + (2**k1 b2 + b1)
        return AffineMap(self.k + other.k, _pow2(self.k) * other.b + self.b)

    def inverse(self) -> "AffineMap":
        return AffineMap(-self.k, -self.b * _pow2(-self.k))

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(0)

    @staticmethod
    def doubling() -> "AffineMap":
        """R: z -> 2z."""
        return AffineMap(1)

    @staticmethod
    def unit_shift(n: int = 1) -> "AffineMap":
        """S**n: z -> z + n."""
        return AffineMap(0, n)


class TileIndex(namedtuple("TileIndex", "k n colour", defaults=(None,))):
    """Tile R**k S**n P, the image of the base pentagon under
    z -> 2**k (z + n).  colour is an optional small int."""

    __slots__ = ()

    def affine(self) -> AffineMap:
        return AffineMap(self.k, self.n * _pow2(self.k))


def tile_vertices(t: TileIndex) -> tuple[Point, ...]:
    f = t.affine()
    return tuple(map(f.apply, BASE_VERTICES))


DIGIT_LETTERS = tuple("123456789")


class ColourWindow(namedtuple("ColourWindow", "word start alphabet")):
    """Finite window of a colour sequence: w[j] for start <= j < start+len.

    The colour of a letter is 1 + its index in alphabet, a tuple of str,
    which callers take as the spec's sorted letters, so over an alphabet
    of exactly 1..r every digit is its own colour.  The default alphabet
    is 1..9.
    """

    __slots__ = ()

    def __new__(cls, word: str, start: int = 0,
                alphabet: tuple[str, ...] = DIGIT_LETTERS):
        unknown = sorted(set(word) - set(alphabet))
        if unknown:
            raise ValueError(f"letters {unknown} are not in the colour "
                             f"alphabet {list(alphabet)}")
        return super().__new__(cls, word, start, alphabet)

    def get(self, j: int) -> int:
        if not (self.start <= j < self.start + len(self.word)):
            raise ColourWindowExhausted(
                f"colour window exhausted: index {j} outside "
                f"[{self.start}, {self.start + len(self.word)})")
        return 1 + self.alphabet.index(self.word[j - self.start])


class TileSet(namedtuple("TileSet", "tiles radius")):
    """TileIndexes, each (k, n) once, kept in (k, n) order."""

    __slots__ = ()

    def __new__(cls, tiles, radius: float):
        idx = [(t.k, t.n) for t in tiles]
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate tile index")
        return super().__new__(
            cls, tuple(sorted(tiles, key=lambda t: (t.k, t.n))), radius)

    def index_set(self) -> set[tuple[int, int]]:
        return {(t.k, t.n) for t in self.tiles}


# -- patch generation ---------------------------------------------------

_APEX = math.sqrt(17.0) / 2.0  # top-arc apex height of a scale-0 tile over y=2


def _box_meets_disk(x0, x1, y0, y1, c, s) -> bool:
    # clamped squared distance, padded toward inclusion
    dx = max(x0, min(0.0, x1))
    dy = max(y0, min(c, y1))
    d2 = dx * dx + (dy - c) ** 2
    return d2 <= s * s + 1e-9 * (1.0 + s * s)


def scale_range(radius: float) -> range:
    """Scales k whose band can meet the ball: 2**k in [e**-r / 2, 2 e**r].

    Raises ValueError for a negative, NaN or infinite radius.
    """
    if not radius >= 0:
        raise ValueError("radius must be >= 0")
    if radius == math.inf:
        raise ValueError("radius must be finite")
    k_min = math.ceil(-radius / LN2 - 1.0 - 1e-12)
    k_max = math.floor(radius / LN2 + 1.0 + 1e-12)
    return range(k_min, k_max + 1)


def _settle_end(w: float, top: float, c: float, s: float, guess: int) -> int:
    """Largest n >= 0 whose box [w n, w (n+1)] x [w, top] meets the disk,
    or -1 when none does, found by moving guess with the box test.

    The box's x-distance from the line x = 0 is w n for n > 0 and 0 at
    n = 0, all exact in floats, so the test is monotone in n; box -1-n
    lies at the same distance as box n, so the kept n are exactly
    -1-end .. end.
    """
    def meets(n):
        return _box_meets_disk(w * n, w * (n + 1), w, top, c, s)

    if not meets(0):
        return -1
    end = guess
    while end > 0 and not meets(end):
        end -= 1
    while meets(end + 1):
        end += 1
    return end


# Patches are refused above this many tiles (from about radius 11.2).
MAX_PATCH_TILES = 10 ** 6
# cosh and sinh overflow a double above this radius
_MAX_FINITE_RADIUS = math.acosh(sys.float_info.max)


def _patch_too_large(radius: float, count: int | None = None) -> ValueError:
    held = "more tiles than" if count is None else f"{count} tiles, more than"
    return ValueError(f"a patch of radius {radius} would hold {held} "
                      f"the bound of {MAX_PATCH_TILES} tiles")


def _scale_ends(radius: float) -> list[tuple[int, int]]:
    """(k, end) for every scale k: the kept n are -1-end .. end.

    Raises ValueError when the patch would hold more than
    MAX_PATCH_TILES tiles, before any tile is built.
    """
    if radius > _MAX_FINITE_RADIUS:
        raise _patch_too_large(radius)
    scales = scale_range(radius)  # refuses a negative or NaN radius
    c = math.cosh(radius)
    s = math.sinh(radius)
    reach2 = s * s + 1e-9 * (1.0 + s * s)  # _box_meets_disk's padded bound
    ends = []
    count = 0
    for k in scales:
        # box = x interval times [2**k, 2**k sqrt(17)/2] (vertices + apexes)
        w = 2.0 ** k
        top = w * _APEX
        dy = max(w, min(c, top)) - c
        half = math.sqrt(max(reach2 - dy * dy, 0.0)) / w
        if not half <= MAX_PATCH_TILES:  # also an overflowed inf or nan
            raise _patch_too_large(radius)
        end = _settle_end(w, top, c, s, math.floor(half))
        ends.append((k, end))
        count += 2 * (end + 1)
    if count > MAX_PATCH_TILES:
        raise _patch_too_large(radius, count)
    return ends


def patch_size(radius: float) -> int:
    """Number of tiles generate_patch(radius) keeps (exact=False).

    Raises ValueError above MAX_PATCH_TILES, so a caller can refuse an
    oversized patch before preparing anything else for it.
    """
    return sum(2 * (end + 1) for _, end in _scale_ends(radius))


def generate_patch(radius: float, colouring: ColourWindow | None = None,
                   exact: bool = False) -> TileSet:
    """All tiles meeting the closed ball of the given radius around i=(0,1).

    Membership is the documented conservative test: bounding box of the
    tile against the Euclidean disk of the ball.  With exact=True a
    candidate is kept only when one of its exact distance terms
    (`_sinh2_terms`) is at most sinh(radius)**2.  Balls are closed, so
    e.g. radius 0 keeps the four tiles whose closure contains i.  When a
    colouring window is given, the tile at scale k is coloured by w[-k];
    a too-narrow window raises ColourWindowExhausted.  A patch of more
    than MAX_PATCH_TILES tiles raises ValueError before any tile is built.
    """
    ends = _scale_ends(radius)
    if exact:
        r2 = Fraction(math.sinh(radius)) ** 2
    tiles = []
    for k, end in ends:
        ns = range(-1 - end, end + 1)
        if exact:
            y = _pow2(-k)
            ns = [n for n in ns if any(d <= r2 for d in _sinh2_terms(-n, y))]
        # a scale with no tile never reads the window
        colour = colouring.get(-k) if colouring is not None and ns else None
        tiles += [TileIndex(k, n, colour) for n in ns]
    return TileSet(tuple(tiles), radius)


def relation_defects(spec: SubshiftSpec | None, window: ColourWindow,
                     radius: float = 3.0,
                     patch: TileSet | None = None) -> list[tuple[int, int]]:
    """Cells where rescaling the coloured patch disagrees with the shift.

    The doubling map sends cell (k, n) to (k+1, n); colouring by the
    window pins the colour of scale k to the letter at -k.  The rescaled
    patch must therefore match the patch coloured by the shifted window
    letter for letter; the returned list holds the offending (k+1, n)
    cells and is empty exactly when the identity holds.  With a spec,
    the window's letters must form one of its admissible words.
    """
    if spec is not None:
        word = window.word
        if word not in language(spec, len(word)):
            raise ValueError("window letters do not form an admissible word")
    if patch is None:
        patch = generate_patch(radius, colouring=window)
    shifted = ColourWindow(window.word, window.start - 1, window.alphabet)
    bad = []
    for tile in patch.tiles:
        q = tile.k + 1
        if shifted.get(-q) != tile.colour:
            bad.append((q, tile.n))
    return bad


# -- exact distance ------------------------------------------------------

# the base pentagon P: its vertices, its vertical edges x = a, and its
# arcs as (center m, squared radius q, x-range of the edge)
_P_VERTICES = tuple((v.x, v.y) for v in BASE_VERTICES)
_P_VERTICALS = (0, 1)
_P_ARCS = ((Fraction(1, 4), Fraction(17, 16), 0, Fraction(1, 2)),    # A1A2
           (Fraction(3, 4), Fraction(17, 16), Fraction(1, 2), 1),    # A2A3
           (Fraction(1, 2), Fraction(17, 4), 0, 1))                  # A4A5


def _sinh2_terms(x, y: Fraction):
    """sinh**2 of the hyperbolic distance from (x, y) to each part of the
    closed base pentagon P, exactly and lazily; their min is the distance.

    The vertices come first, as cosh**2 - 1; then 0 when the point lies
    in P; then each edge whose nearest point to (x, y) lies inside it.
    The nearest point on x = a is (a, sqrt((x-a)**2 + y**2)), at
    sinh**2 (x-a)**2 / y**2.  On the half-circle with center m and
    squared radius q, with s = (x-m)**2 + y**2, it is at
    m + 2 q (x-m) / (s + q), at sinh**2 (s - q)**2 / (4 y**2 q).
    """
    for vx, vy in _P_VERTICES:
        d = ((x - vx) ** 2 + (y - vy) ** 2) / (2 * y * vy)  # cosh - 1
        yield d * (d + 2)
    s = [(x - m) ** 2 + y * y for m, _, _, _ in _P_ARCS]
    # inside: over [0, 1], below the top arc and above the bottom arc
    if (0 <= x <= 1 and s[2] <= _P_ARCS[2][1]
            and s[0 if 2 * x <= 1 else 1] >= _P_ARCS[0][1]):
        yield Fraction(0)
    for a in _P_VERTICALS:
        if 1 <= (x - a) ** 2 + y * y <= 4:
            yield (x - a) ** 2 / (y * y)
    for (m, q, lo, hi), sm in zip(_P_ARCS, s):
        if lo <= m + 2 * q * (x - m) / (sm + q) <= hi:
            yield (sm - q) ** 2 / (4 * y * y * q)


def tile_distance_sinh2(t: TileIndex) -> Fraction:
    """sinh**2 of the hyperbolic distance from i=(0,1) to the closed tile,
    exactly; 0 when the tile contains i."""
    return min(_sinh2_terms(-t.n, _pow2(-t.k)))


# -- adjacency ----------------------------------------------------------

class AdjacencyReport(namedtuple("AdjacencyReport", [
        "interior", "boundary", "interior_positive", "interior_negative",
        "tally", "boundary_positive", "boundary_negative", "top_matches"])):
    __slots__ = ()

    def boundary_charge_gap(self) -> int:
        """Negative minus positive boundary edges.  Each tile carries one
        positive and two negative charged edges and interior edges cancel
        pairwise, so this always equals the number of tiles."""
        return self.boundary_negative - self.boundary_positive


def edge_adjacency(ts: TileSet) -> AdjacencyReport:
    """Pair the edges of the patch by the charge rule.

    Tile (k, n) meets (k, n+1) along its A3A4 edge, that tile's A5A1, and
    (k+1, n >> 1) along its positive edge A4A5, that tile's negative A1A2
    for even n and A2A3 for odd n.  An edge is interior when both of its
    tiles are present and is paired at the earlier one in (k, n) order;
    an A1A2, A2A3 or A5A1 edge whose earlier tile is absent, and an A3A4
    or A4A5 edge whose later tile is absent, is a boundary edge, never
    counted in the tally.  Each interior edge is the pair (earlier side,
    later side), a side being (tile, label); its endpoints are the
    corners that tile_vertices gives either side.  Interior and boundary
    list edges in the order they first occur: tiles in (k, n) order, each
    tile's edges in EDGE_LABELS order.
    """
    tiles = ts.tiles
    at = {(t.k, t.n): t for t in tiles}
    interior = []
    boundary = []
    top_matches = []
    for t in tiles:
        k, n = t.k, t.n
        right = at.get((k, n + 1))
        up = at.get((k + 1, n >> 1))
        for lab, paired in (("A1A2", (k - 1, 2 * n) in at),
                            ("A2A3", (k - 1, 2 * n + 1) in at),
                            ("A3A4", right), ("A4A5", up),
                            ("A5A1", (k, n - 1) in at)):
            if not paired:
                boundary.append((t, lab))
        if right is not None:
            interior.append(((t, "A3A4"), (right, "A5A1")))
        if up is not None:
            lab = NEGATIVE_EDGES[n & 1]
            interior.append(((t, "A4A5"), (up, lab)))
            top_matches.append((t, up, lab))
    labels = [lab for _, lab in boundary]
    bp = labels.count(POSITIVE_EDGE)
    bneg = sum(map(labels.count, NEGATIVE_EDGES))
    # every tile has one positive and two negative sides
    ip, ineg = len(tiles) - bp, 2 * len(tiles) - bneg
    return AdjacencyReport(
        interior=tuple(interior),
        boundary=tuple(boundary),
        interior_positive=ip,
        interior_negative=ineg,
        tally=ip - ineg,
        boundary_positive=bp,
        boundary_negative=bneg,
        top_matches=tuple(top_matches),
    )


# -- agreement ------------------------------------------------------------

def agreement_radius(n: int, m: int) -> float:
    """Largest radius at which the tilings P+n and P+m look identical
    around i.

    Scale-k tiles of P+t occupy x-intervals 2**k j + t, so the two tile
    sets agree at every scale k <= v2(m-n) and differ at every higher
    scale.  The returned radius is the distance from i to the nearest
    tile of either tiling at scale v2(m-n) + 1; returns inf when n == m.
    """
    if n == m:
        return math.inf
    w = _pow2(_v2(m - n) + 1)
    best = math.inf
    for t in (n, m):
        # the tiles are the images of P under z -> w (z + J) + t; the
        # three J nearest -t/w send (x - j, 1/w) to i, j = -1, 0, 1
        x = Fraction(-t) / w
        x -= math.floor(x)
        for j in (-1, 0, 1):
            best = min(best, *_sinh2_terms(x - j, 1 / w))
    return math.asinh(math.sqrt(best))
