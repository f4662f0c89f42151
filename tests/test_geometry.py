"""Exact half-plane tiling geometry: frozen values and finite property checks."""

import math
import random
from fractions import Fraction

import pytest

import hyptile.geometry as geometry
from hyptile.geometry import (
    MAX_PATCH_TILES,
    AffineMap,
    ColourWindow,
    ColourWindowExhausted,
    Point,
    TileIndex,
    TileSet,
    agreement_radius,
    edge_adjacency,
    generate_patch,
    patch_size,
    pt,
    scale_range,
    tile_distance_sinh2,
    tile_vertices,
    _box_meets_disk,
    _settle_end,
    _sinh2_terms,
)

from oracles import (cosh_distance, geodesic_arc, ref_edge_adjacency,
                     ref_interiors_disjoint, side_ends)

LN2 = math.log(2.0)


def F(a, b=1):
    return Fraction(a, b)


def rand_dyadic(rng, lo, hi, e_lo, e_hi):
    # m * 2**e with m in [lo, hi) and e in [e_lo, e_hi)
    return rng.randrange(lo, hi) * F(2) ** rng.randrange(e_lo, e_hi)


def rand_affine(rng):
    return AffineMap(rng.randrange(-4, 5), rand_dyadic(rng, -50, 51, -3, 3))


def rand_point(rng):
    return Point(rand_dyadic(rng, -40, 41, -3, 2), rand_dyadic(rng, 1, 40, -3, 2))


class TestAffine:
    def test_doubling_moves_i_to_2i(self):
        p = AffineMap.doubling().apply(pt(0, 1))
        assert p == pt(0, 2)

    def test_unit_shift(self):
        assert AffineMap.unit_shift().apply(pt(F(1, 2), 1)) == pt(F(3, 2), 1)

    def test_contracting_shift(self):
        m = AffineMap(-2, 5)
        assert m.apply(pt(4, 8)) == pt(6, 2)

    def test_composition_matches_pointwise(self):
        rng = random.Random(7)
        for _ in range(100):
            m1, m2 = rand_affine(rng), rand_affine(rng)
            p = rand_point(rng)
            assert m1.compose(m2).apply(p) == m1.apply(m2.apply(p))

    def test_inverse(self):
        rng = random.Random(8)
        ident = AffineMap.identity()
        for _ in range(50):
            m = rand_affine(rng)
            assert m.compose(m.inverse()) == ident
            assert m.inverse().compose(m) == ident

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            Point(0, -1)

    def test_non_dyadic_coordinates_rejected(self):
        for make in (lambda: pt(F(1, 3), 1), lambda: Point(0, F(1, 3)),
                     lambda: AffineMap(0, F(1, 3))):
            with pytest.raises(ValueError):
                make()

    def test_ints_normalized_to_fractions(self):
        p, q = Point(1, 2), Point(F(1), F(2))
        assert p == q and hash(p) == hash(q)
        assert type(p.x) is Fraction and type(p.y) is Fraction
        assert type(AffineMap(1, 3).b) is Fraction


class TestTiles:
    def test_base_tile_vertices(self):
        assert tile_vertices(TileIndex(0, 0)) == (
            pt(0, 1), pt(F(1, 2), 1), pt(1, 1), pt(1, 2), pt(0, 2))

    def test_scaled_tile_vertices(self):
        assert tile_vertices(TileIndex(1, 0)) == (
            pt(0, 2), pt(1, 2), pt(2, 2), pt(2, 4), pt(0, 4))

    def test_shifted_scaled_corner(self):
        assert tile_vertices(TileIndex(2, 3))[0] == pt(12, 4)

    def test_tile_affine_consistency(self):
        t = TileIndex(-3, 11)
        f = t.affine()
        assert f.apply(pt(0, 1)) == tile_vertices(t)[0]


# cosh_distance and geodesic_arc are oracles from tests/oracles.py; the
# two classes below check them before other tests measure against them.
class TestDistance:
    def test_coincident(self):
        assert cosh_distance(pt(0, 1), pt(0, 1)) == 1

    def test_vertical_doubling(self):
        assert cosh_distance(pt(0, 1), pt(0, 2)) == F(5, 4)

    def test_horizontal_unit(self):
        assert cosh_distance(pt(0, 1), pt(1, 1)) == F(3, 2)

    def test_affine_invariance_exact(self):
        rng = random.Random(11)
        for _ in range(200):
            p, q = rand_point(rng), rand_point(rng)
            g = rand_affine(rng)
            assert cosh_distance(g.apply(p), g.apply(q)) == cosh_distance(p, q)

    def test_symmetry(self):
        rng = random.Random(12)
        for _ in range(50):
            p, q = rand_point(rng), rand_point(rng)
            assert cosh_distance(p, q) == cosh_distance(q, p)


class TestGeodesicArc:
    def test_vertical(self):
        a = geodesic_arc(pt(0, 1), pt(0, 2))
        assert a.center is None and a.radius_sq is None

    def test_bottom_edge_circle(self):
        a = geodesic_arc(pt(0, 1), pt(1, 1))
        assert a.center == F(1, 2)
        assert a.radius_sq == F(5, 4)

    def test_top_edge_circle(self):
        a = geodesic_arc(pt(0, 2), pt(1, 2))
        assert a.center == F(1, 2)
        assert a.radius_sq == F(17, 4)

    def test_circle_passes_through_both_points(self):
        rng = random.Random(13)
        for _ in range(100):
            p, q = rand_point(rng), rand_point(rng)
            if p.x == q.x:
                continue
            a = geodesic_arc(p, q)
            for e in (p, q):
                x, y = e.x, e.y
                assert (x - a.center) ** 2 + y * y == a.radius_sq

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError):
            geodesic_arc(pt(0, 1), pt(0, 1))


def _point_in_tile(t: TileIndex, x: Fraction, y: Fraction) -> bool:
    # closed tile: between the two bottom arcs and the top arc
    v = [(p.x, p.y) for p in tile_vertices(t)]
    (x1, y1), (x2, _), (x3, _), (_, y4), _ = v
    if not (x1 <= x <= x3):
        return False
    mt = (x1 + x3) / 2
    if (x - mt) ** 2 + y * y > (x3 - x1) ** 2 / 4 + y4 * y4:
        return False
    xa, xb = (x1, x2) if x <= x2 else (x2, x3)
    mb = (xa + xb) / 2
    return (x - mb) ** 2 + y * y >= (xb - xa) ** 2 / 4 + y1 * y1


class TestPatch:
    def test_radius_zero_contains_corner_tiles(self):
        ts = generate_patch(0.0)
        assert {(0, 0), (0, -1), (-1, 0), (-1, -1)} <= ts.index_set()

    def test_radius_zero_exact_is_exactly_corner_tiles(self):
        ts = generate_patch(0.0, exact=True)
        assert ts.index_set() == {(0, 0), (0, -1), (-1, 0), (-1, -1)}

    def test_half_radius_scales(self):
        ts = generate_patch(0.5)
        assert {t.k for t in ts.tiles} <= {-1, 0, 1}

    def test_scale_postcondition(self):
        rng = random.Random(17)
        for _ in range(20):
            r = rng.uniform(0.0, 6.0)
            cap = math.ceil(r / LN2) + 1
            assert all(abs(k) <= cap for k in scale_range(r))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            generate_patch(-0.1)

    @pytest.mark.parametrize("make", [generate_patch, patch_size, scale_range])
    @pytest.mark.parametrize("radius", [math.nan, -0.1, -math.inf])
    def test_nan_and_negative_radius_refused(self, make, radius):
        # NaN fails every comparison, so it is refused by name, not
        # left to math.ceil
        with pytest.raises(ValueError, match="radius must be >= 0"):
            make(radius)

    def test_infinite_radius_refused(self):
        # math.ceil would raise OverflowError
        with pytest.raises(ValueError, match="radius must be finite"):
            scale_range(math.inf)

    def test_exact_subset_of_conservative(self):
        for r in (0.0, 0.3, 1.0, 2.2):
            loose = generate_patch(r).index_set()
            tight = generate_patch(r, exact=True).index_set()
            assert tight <= loose

    def test_single_colour_window(self):
        w = ColourWindow("1" * 11, start=-5)
        ts = generate_patch(3.0, colouring=w)
        assert ts.tiles and all(t.colour == 1 for t in ts.tiles)

    def test_narrow_window_exhausts(self):
        with pytest.raises(ColourWindowExhausted):
            generate_patch(3.0, colouring=ColourWindow("11", start=0))

    def test_colour_is_alphabet_index_plus_one(self):
        w = ColourWindow("ba21", -1, ("1", "2", "a", "b"))
        assert [w.get(j) for j in range(-1, 3)] == [4, 3, 2, 1]
        # over exactly 1..r a digit is its own colour, as by default
        digits = ColourWindow("3122", 0, ("1", "2", "3"))
        assert [digits.get(j) for j in range(4)] == \
            [ColourWindow("3122").get(j) for j in range(4)] == [3, 1, 2, 2]
        # other alphabets renumber: 1 and 3 colour 1 and 2
        assert ColourWindow("31", 0, ("1", "3")).get(0) == 2

    def test_letters_outside_the_alphabet_rejected(self):
        with pytest.raises(ValueError):
            ColourWindow("ab")
        with pytest.raises(ValueError):
            ColourWindow("102", 0, ("1", "2"))

    def test_duplicate_tiles_rejected(self):
        with pytest.raises(ValueError):
            TileSet((TileIndex(0, 0), TileIndex(0, 0, colour=1)), 0.0)

    def test_tiles_sorted(self):
        ts = generate_patch(1.0)
        idx = [(t.k, t.n) for t in ts.tiles]
        assert idx == sorted(idx)


def ref_generate_patch(radius, colouring=None, exact=False):
    """The full scan: every box of every scale whose x-range can reach
    the disk, tested one by one."""
    c, s = math.cosh(radius), math.sinh(radius)
    tiles = []
    for k in scale_range(radius):
        w = 2.0 ** k
        colour = None
        for n in range(math.floor(-s / w) - 1, math.ceil(s / w) + 2):
            if not _box_meets_disk(w * n, w * (n + 1), w,
                                   w * math.sqrt(17.0) / 2.0, c, s):
                continue
            if exact and tile_distance_sinh2(TileIndex(k, n)) > Fraction(s) ** 2:
                continue
            if colouring is not None and colour is None:
                colour = colouring.get(-k)
            tiles.append(TileIndex(k, n, colour))
    return TileSet(tuple(tiles), radius)


def thue_morse_window(radius):
    hw = max(abs(k) for k in scale_range(radius))
    word = "".join("12"[bin(j).count("1") % 2] for j in range(2 * hw + 1))
    return ColourWindow(word, -hw)


class TestSolvedPatch:
    RADII = (0.0, 0.3, 0.5, 1.0, 1.5, 2.2, 3.0, 4.0, 5.0, 6.0)

    @pytest.mark.parametrize("radius", RADII)
    def test_matches_full_scan(self, radius):
        window = thue_morse_window(radius)
        exacts = (False, True) if radius <= 3.0 else (False,)
        for exact in exacts:
            got = generate_patch(radius, colouring=window, exact=exact)
            want = ref_generate_patch(radius, colouring=window, exact=exact)
            assert got.tiles == want.tiles
        assert patch_size(radius) == len(ref_generate_patch(radius).tiles)

    def test_end_is_settled_from_any_guess(self):
        radius = 4.0
        c, s = math.cosh(radius), math.sinh(radius)
        scan = ref_generate_patch(radius)
        for k in scale_range(radius):
            want = max((t.n for t in scan.tiles if t.k == k), default=-1)
            w = 2.0 ** k
            for guess in {0, want // 2, want, want + 1, 2 * want + 5}:
                assert _settle_end(w, w * math.sqrt(17.0) / 2.0, c, s,
                                   max(guess, 0)) == want

    def test_box_tests_per_scale(self, monkeypatch):
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _box_meets_disk(*args)

        monkeypatch.setattr(geometry, "_box_meets_disk", counted)
        assert len(generate_patch(7.0).tiles) == 10532
        assert 0 < calls <= 8 * len(scale_range(7.0))

    def test_oversized_patch_refused(self):
        # radius 12 is past the bound, and its tile count is still solved
        with pytest.raises(ValueError, match=r"hold 3354136 tiles, more "
                           rf"than the bound of {MAX_PATCH_TILES} tiles"):
            patch_size(12.0)

    @pytest.mark.parametrize("radius", [30.0, 400.0, 710.0, 1e6, math.inf])
    def test_huge_radius_refused_without_overflow(self, radius):
        with pytest.raises(ValueError, match=str(MAX_PATCH_TILES)):
            generate_patch(radius, colouring=ColourWindow("1"))


class TestExactDiskPredicate:
    """The exact ball rule: sinh**2 of the distance from i to a tile,
    compared with sinh**2 of the radius."""

    def test_point_disk_keeps_only_closures_containing_i(self):
        keep = {(0, 0), (0, -1), (-1, 0), (-1, -1)}
        drop = {(0, 1), (1, 0), (-1, 1), (-2, 0), (-1, -2)}
        for k, n in keep:
            assert tile_distance_sinh2(TileIndex(k, n)) == 0
        for k, n in drop:
            assert tile_distance_sinh2(TileIndex(k, n)) > 0

    def test_point_inside_pentagon(self):
        # i's image under the scale -1 pentagon z -> z/2 - 1/4 over
        # [-1/4, 1/4] is (1/2, 2), inside P below its top arc; each tile
        # that contains i has it as a vertex, so tiles cannot show this
        terms = list(_sinh2_terms(F(1, 2), F(2)))
        assert min(terms) == 0 and terms.count(0) == 1

    def test_agrees_with_point_sampling(self):
        # the distance to a tile is at most the distance to any of its points
        rng = random.Random(23)
        i = pt(0, 1)
        for _ in range(40):
            t = TileIndex(rng.randrange(-2, 3), rng.randrange(-4, 5))
            got = tile_distance_sinh2(t)
            x0, y0 = tile_vertices(t)[0].x, tile_vertices(t)[0].y
            hits = 0
            for _ in range(300):
                x = x0 + Fraction(rng.random()) * y0
                y = y0 + Fraction(rng.random()) * 2 * y0
                if _point_in_tile(t, x, y):
                    hits += 1
                    assert got <= cosh_distance(i, Point(x, y)) ** 2 - 1
            assert hits

    def test_vertex_in_disk_detected(self):
        # from (0,1) the nearest point of tile (1,3) is its corner (6,4),
        # at cosh 1 + 45/8; the Euclidean-nearest corner (6,2) lies at
        # cosh 1 + 37/4, and the feet on the left edge (y = sqrt 37) and
        # the top arc (x = 7 - 238/67) fall outside the tile
        assert tile_distance_sinh2(TileIndex(1, 3)) == F(53, 8) ** 2 - 1

    def test_vertical_edge_grazing(self):
        # from (0,1) the nearest point of tile (1,1) is (2, sqrt 5) on its
        # left edge x = 2, at sinh 2/1; its nearest corner (2,2) is at
        # sinh**2 65/16
        assert tile_distance_sinh2(TileIndex(1, 1)) == 4

    def test_arc_nearest(self):
        # tile (-2,0) lies below the half-circle with center 1/8 and
        # squared radius 17/64; from (0,1) the foot x = 1/8 - 17/328 lies
        # inside its top edge, at sinh**2 (65/64 - 17/64)**2 / (4 17/64),
        # below the nearest corner (0,1/2) at sinh**2 9/16
        assert tile_distance_sinh2(TileIndex(-2, 0)) == F(9, 17)


class TestAdjacency:
    def test_interior_edges_pair_two_tiles(self):
        rep = edge_adjacency(generate_patch(2.0))
        for earlier, later in rep.interior:
            assert (earlier[0].k, earlier[0].n) < (later[0].k, later[0].n)
            key = side_ends(earlier)
            assert len(key) == 2 and side_ends(later) == key

    def test_top_edges_meet_bottom_edges_one_scale_up(self):
        rep = edge_adjacency(generate_patch(3.0))
        assert rep.top_matches
        for lower, upper, lab in rep.top_matches:
            assert lab in ("A1A2", "A2A3")
            assert upper.k == lower.k + 1

    def test_even_offset_pairs_with_first_bottom_edge(self):
        rep = edge_adjacency(generate_patch(2.0))
        for lower, upper, lab in rep.top_matches:
            if lower.n % 2 == 0:
                assert lab == "A1A2" and upper.n * 2 == lower.n
            else:
                assert lab == "A2A3" and upper.n * 2 + 1 == lower.n

    def test_charge_tally(self):
        for r in (0.5, 1.5, 2.5):
            ts = generate_patch(r)
            rep = edge_adjacency(ts)
            assert rep.tally == 0
            assert rep.boundary_charge_gap() == len(ts.tiles)

    @pytest.mark.parametrize("radius", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_overlapping_pairs_match_pair_scan(self, radius):
        ts = generate_patch(radius)
        disjoint, overlapping = ref_interiors_disjoint(ts)
        assert disjoint
        # the one tile a scale up that overlaps (k, n) in x is (k+1, n//2)
        present = ts.index_set()
        assert overlapping == {((t.k, t.n), (t.k + 1, t.n // 2))
                               for t in ts.tiles
                               if (t.k + 1, t.n // 2) in present}

    def test_vertical_neighbours_same_scale(self):
        rep = edge_adjacency(generate_patch(2.0))
        for (t1, l1), (t2, l2) in rep.interior:
            if {l1, l2} == {"A3A4", "A5A1"}:
                assert t1.k == t2.k and abs(t1.n - t2.n) == 1


def assert_matches_reference(ts):
    rep = edge_adjacency(ts)
    interior, boundary, tops, (ip, ineg), (bp, bneg) = ref_edge_adjacency(ts)
    # each pair keyed by its earlier side's ends, as the reference keys it
    keyed = {side_ends(earlier): (earlier, later)
             for earlier, later in rep.interior}
    assert len(keyed) == len(rep.interior)
    assert keyed == interior
    assert list(keyed) == list(interior)
    assert rep.boundary == boundary
    assert rep.top_matches == tuple(tops)
    assert (rep.interior_positive, rep.interior_negative) == (ip, ineg)
    assert (rep.boundary_positive, rep.boundary_negative) == (bp, bneg)
    assert rep.tally == ip - ineg


class TestIntegerKeyedAdjacency:
    @pytest.mark.parametrize("radius", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    def test_matches_vertex_keyed_reference(self, radius):
        # the box rule at every radius, the exact rule up to radius 4
        rules = (False, True) if radius <= 4.0 else (False,)
        for exact in rules:
            assert_matches_reference(generate_patch(radius, exact=exact))

    @pytest.mark.parametrize("k_min", [-3, 0, 2])
    def test_scattered_tiles_match_reference(self, k_min):
        # gaps in n, a missing scale and scales above 0 (whole units)
        rng = random.Random(41 + k_min)
        cells = [(k, n) for k in (k_min, k_min + 1, k_min + 3)
                 for n in range(-12, 12)]
        for _ in range(5):
            picked = rng.sample(cells, 30)
            assert_matches_reference(TileSet(
                tuple(TileIndex(k, n) for k, n in picked), 0.0))

    @pytest.mark.parametrize("radius", [0.0, 1.0, 2.0, 3.0, 4.0])
    def test_holes_inside_a_patch_match_reference(self, radius):
        # a seeded 5-70 % of a real patch dropped: holes whose neighbours
        # on every side, at the same scale and one scale up or down, remain
        rng = random.Random(53 + int(radius))
        tiles = generate_patch(radius).tiles
        for drop in (0.05, 0.15, 0.3, 0.5, 0.7):
            kept = tuple(t for t in tiles if rng.random() >= drop)
            assert_matches_reference(TileSet(kept, radius))

    def test_empty_patch(self):
        rep = edge_adjacency(TileSet((), 0.0))
        assert rep.interior == () and rep.boundary == ()

    def test_builds_no_coordinate(self, monkeypatch):
        # the pairing reads tile indices alone: no Point, no Fraction
        ts = generate_patch(5.0)

        def refuse(*args, **kwargs):
            raise AssertionError("edge_adjacency built a coordinate")

        for name in ("Point", "pt", "Fraction", "_pow2"):
            monkeypatch.setattr(geometry, name, refuse)
        rep = edge_adjacency(ts)
        assert (len(ts.tiles), len(rep.interior), len(rep.boundary)) == (
            1436, 2854, 1472)


class TestStabilizer:
    def test_doubling_preserves_index_lattice(self):
        # R sends tile (k,n) to tile (k+1,n): image affine must be a tile affine
        rng = random.Random(29)
        R = AffineMap.doubling()
        for _ in range(50):
            t = TileIndex(rng.randrange(-5, 6), rng.randrange(-50, 51))
            assert R.compose(t.affine()) == TileIndex(t.k + 1, t.n).affine()

    def test_unit_shift_breaks_scale_one_tiles(self):
        # S moves the scale-1 tile off the index lattice: 2z+1 is no tile map
        S = AffineMap.unit_shift()
        moved = S.compose(TileIndex(1, 0).affine())
        lattice = {TileIndex(1, n).affine() for n in range(-4, 5)}
        assert moved not in lattice
        assert moved.b == 1 and moved.k == 1


class TestAgreementRadius:
    def test_identical_tilings(self):
        assert agreement_radius(5, 5) == math.inf

    def test_unit_offset_finite(self):
        r = agreement_radius(0, 1)
        assert LN2 <= r < 2 * LN2

    def test_powers_of_two_ordering(self):
        assert agreement_radius(0, 2 ** 10) > agreement_radius(0, 2 ** 5)

    def test_band_location(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(-200, 200)
            m = rng.randrange(-200, 200)
            if n == m:
                continue
            v = 0
            d = m - n
            while d % 2 == 0:
                d //= 2
                v += 1
            r = agreement_radius(n, m)
            assert (v + 1) * LN2 <= r + 1e-12
            assert r < (v + 2) * LN2

    def test_monotone_in_valuation(self):
        rng = random.Random(37)
        for _ in range(100):
            n, m = rng.randrange(-500, 500), rng.randrange(-500, 500)
            n2, m2 = rng.randrange(-500, 500), rng.randrange(-500, 500)
            if n == m or n2 == m2:
                continue
            v1 = ((m - n) & -(m - n)).bit_length() - 1
            v2 = ((m2 - n2) & -(m2 - n2)).bit_length() - 1
            if v1 < v2:
                assert agreement_radius(n, m) <= agreement_radius(n2, m2)

    def test_symmetric(self):
        # symmetric in its arguments; NOT translation invariant, since the
        # basepoint stays at i while both tilings shift
        rng = random.Random(41)
        for _ in range(40):
            n, m = rng.randrange(-100, 100), rng.randrange(-100, 100)
            if n == m:
                continue
            assert agreement_radius(n, m) == agreement_radius(m, n)


def _dense_boundary_cosh(px, py, cf, wf):
    """cosh of the distance from (px, py) to the boundary of the tile
    with corners from (cf, wf) to (cf + wf, 2 wf), by a dense walk over
    its five edges in float arithmetic."""
    best = math.inf
    for i in range(2001):
        s = i / 2000.0
        probes = []
        for xa, xb, yy in ((cf, cf + wf / 2, wf), (cf + wf / 2, cf + wf, wf),
                           (cf, cf + wf, 2 * wf)):
            m = (xa + xb) / 2
            r = math.hypot((xb - xa) / 2, yy)
            th0 = math.atan2(yy, xa - m)
            th1 = math.atan2(yy, xb - m)
            th = th0 + (th1 - th0) * s
            probes.append((m + r * math.cos(th), r * math.sin(th)))
        for xx in (cf, cf + wf):
            probes.append((xx, wf + wf * s))
        for x, y in probes:
            best = min(best, 1 + ((x - px) ** 2 + (y - py) ** 2) / (2 * y * py))
    return best


class TestPointToPentagon:
    def test_matches_dense_boundary_sampling(self):
        rng = random.Random(43)
        for _ in range(12):
            # scale >= 1 tiles never contain i, so their distance is the
            # distance to their boundary
            k = rng.randrange(1, 4)
            n = rng.randrange(-4, 4)
            got = math.sqrt(1 + tile_distance_sinh2(TileIndex(k, n)))
            wf = 2.0 ** k
            best = _dense_boundary_cosh(0, 1, n * wf, wf)
            assert got == pytest.approx(best, abs=1e-5)

    @pytest.mark.parametrize("x, y", [
        (Fraction(7, 16), Fraction(1)), (Fraction(3, 8), Fraction(1)),
        (Fraction(13, 32), Fraction(63, 64)), (Fraction(15, 32), Fraction(1))])
    def test_below_the_left_bottom_arc(self, x, y):
        # 1/3 < x <= 1/2, just below arc A1A2 and so outside P, but
        # outside the A2A3 circle: read against arc A2A3, the inside test
        # would put these points in P, at distance 0
        got = math.sqrt(1 + min(_sinh2_terms(x, y)))
        assert got > 1
        assert got == pytest.approx(
            _dense_boundary_cosh(float(x), float(y), 0.0, 1.0), abs=1e-6)
