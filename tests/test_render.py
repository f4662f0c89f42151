"""SVG rendering: exact endpoints, valid arcs, palette bands, determinism."""

import hashlib
import math
import re

import pytest

from hyptile.cli import _colour_window
from hyptile.geometry import (
    EDGE_LABELS,
    ColourWindow,
    TileIndex,
    TileSet,
    edge_adjacency,
    generate_patch,
    tile_vertices,
)
from hyptile.render import PALETTE, svg_render, tile_path

from oracles import TM, geodesic_arc


def svg_arc_center(x1, y1, x2, y2, r, large, sweep):
    """Centre of the elliptical-arc command, per the endpoint convention."""
    xp = (x1 - x2) / 2.0
    yp = (y1 - y2) / 2.0
    num = r * r * r * r - r * r * yp * yp - r * r * xp * xp
    den = r * r * yp * yp + r * r * xp * xp
    sign = 1.0 if large != sweep else -1.0
    f = sign * math.sqrt(max(num / den, 0.0))
    cxp = f * (r * yp / r)
    cyp = f * (-r * xp / r)
    return cxp + (x1 + x2) / 2.0, cyp + (y1 + y2) / 2.0


class TestTilePath:
    def test_single_base_tile_vertices(self):
        d = tile_path(TileIndex(0, 0))
        # all five vertices appear verbatim, y negated
        for sx, sy in (("0", "-1"), ("0.5", "-1"), ("1", "-1"),
                       ("1", "-2"), ("0", "-2")):
            assert f"{sx} {sy}" in d
        cmds = [c for c in d.split() if c in "MALZ"]
        assert cmds == ["M", "A", "A", "L", "A", "Z"]

    def test_first_arc_parameters(self):
        d = tile_path(TileIndex(0, 0))
        r = math.sqrt(17.0) / 4.0
        assert d.startswith(f"M 0 -1 A {format(r, '.17g')}")

    def test_every_arc_circle_is_centred_on_the_axis(self):
        # Reconstruct each emitted arc's centre; the geodesic circles all
        # have centres on the real axis, which is y = 0 after the flip.
        for tile in generate_patch(1.5).tiles:
            v = tile_vertices(tile)
            for i, j in ((0, 1), (1, 2), (3, 4)):
                arc = geodesic_arc(v[i], v[j])
                r = math.sqrt(float(arc.radius_sq))
                sweep = 1 if arc.end.x > arc.start.x else 0
                cx, cy = svg_arc_center(
                    float(arc.start.x), -float(arc.start.y),
                    float(arc.end.x), -float(arc.end.y), r, 0, sweep)
                assert abs(cy) < 1e-9 * max(1.0, r)
                assert abs(cx - float(arc.center)) < 1e-9 * max(1.0, r)

    def test_adjacent_tiles_emit_identical_endpoint_strings(self):
        ts = generate_patch(2.0, exact=True)
        paths = {(t.k, t.n): tile_path(t) for t in ts.tiles}
        report = edge_adjacency(ts)
        for (t1, lab), (t2, _) in report.interior:
            v = tile_vertices(t1)
            i = EDGE_LABELS.index(lab)
            for p in (v[i], v[(i + 1) % 5]):
                token = (f"{format(float(p.x), '.17g')} "
                         f"{format(-float(p.y), '.17g')}")
                assert token in paths[(t1.k, t1.n)]
                assert token in paths[(t2.k, t2.n)]


def ref_tile_path(t):
    """The path from exact vertices and Fraction geodesic circles."""
    def xy(p):
        return f"{format(float(p.x), '.17g')} {format(-float(p.y), '.17g')}"

    def arc_to(arc):
        r = format(math.sqrt(float(arc.radius_sq)), ".17g")
        sweep = 1 if arc.end.x > arc.start.x else 0
        return f"A {r} {r} 0 0 {sweep} {xy(arc.end)}"

    v = tile_vertices(t)
    return " ".join([f"M {xy(v[0])}", arc_to(geodesic_arc(v[0], v[1])),
                     arc_to(geodesic_arc(v[1], v[2])), f"L {xy(v[3])}",
                     arc_to(geodesic_arc(v[3], v[4])), "Z"])


class TestClosedFormPath:
    def test_matches_exact_construction(self):
        tiles = list(generate_patch(4.0).tiles)
        tiles += [TileIndex(k, n) for k in range(-30, 31, 3)
                  for n in (-1_000_003, -2, -1, 0, 1, 7, 123_457)]
        for t in tiles:
            assert tile_path(t) == ref_tile_path(t), t

    # sha256 of svg_render(generate_patch(r, colouring=...)) on Thue-Morse,
    # coloured as the render command colours it
    PINNED = {
        5.0: "1a201661ee43f9197df5c7a493a9e740b08f39a671fe8d195649e6679012f8c3",
        7.0: "ea4a9aaae5c03ea47b946a5b4796d6551ef5847a360c0a76521d8f0edf532acf",
    }

    @pytest.mark.parametrize("radius", sorted(PINNED))
    def test_document_is_pinned(self, radius):
        ts = generate_patch(radius, colouring=_colour_window(TM, radius))
        digest = hashlib.sha256(svg_render(ts).encode()).hexdigest()
        assert digest == self.PINNED[radius]


class TestSvgRender:
    def test_document_structure(self):
        ts = generate_patch(1.0)
        doc = svg_render(ts, config='{"x":1}')
        assert doc.startswith("<svg ")
        assert doc.rstrip().endswith("</svg>")
        assert 'version="1.1"' in doc
        assert "<clipPath" in doc and "clip-path=" in doc
        assert '<!-- hyptile {"x":1} -->' in doc
        assert doc.count("<path ") == len(ts.tiles)

    def test_deterministic_and_ordered(self):
        win = ColourWindow("121212121", -4)
        ts = generate_patch(2.0, colouring=win)
        a = svg_render(ts)
        b = svg_render(ts)
        assert a == b
        ks = [(int(m.group(1)), int(m.group(2))) for m in
              re.finditer(r'data-k="(-?\d+)" data-n="(-?\d+)"', a)]
        assert ks == sorted(ks)

    def test_alternating_word_gives_bands_by_scale(self):
        # colour of scale k is the letter at -k, so (12)^infinity paints
        # each horizontal band a single colour, alternating with k.
        word = "".join("12"[j % 2] for j in range(-6, 7))
        ts = generate_patch(3.0, colouring=ColourWindow(word, -6))
        doc = svg_render(ts)
        fills = {}
        for m in re.finditer(
                r'data-k="(-?\d+)" data-n="-?\d+" fill="([^"]+)"', doc):
            fills.setdefault(int(m.group(1)), set()).add(m.group(2))
        assert fills and all(len(v) == 1 for v in fills.values())
        for k in fills:
            if k + 1 in fills:
                assert fills[k] != fills[k + 1]
        assert fills[0] == {PALETTE[0]} and fills[1] == {PALETTE[1]}

    def test_uncoloured_fill(self):
        doc = svg_render(generate_patch(0.0))
        assert 'fill="#d8d2c7"' in doc  # no colouring given

    @pytest.mark.parametrize("coloured", [False, True])
    def test_every_path_is_the_tile_path(self, coloured):
        # svg_render reuses each tile's right corner as the next tile's
        # left one; every d-string must still be tile_path's
        # a gap in n, a scale that starts at the n after the last scale's
        # end, a missing scale
        gappy = TileSet(tuple(TileIndex(k, n) for k, n in (
            (0, 0), (0, 2), (0, 3), (1, 4), (1, 5), (3, 1))), 1.0)
        colouring = _colour_window(TM, 5.0) if coloured else None
        for ts in (generate_patch(5.0, colouring=colouring), gappy):
            paths = re.findall(
                r'<path data-k="(-?\d+)" data-n="(-?\d+)" fill="[^"]+" '
                r'd="([^"]+)"/>', svg_render(ts))
            assert len(paths) == len(ts.tiles)
            for t, (k, n, d) in zip(ts.tiles, paths):
                assert (int(k), int(n), d) == (t.k, t.n, tile_path(t))

    def test_no_scientific_notation_in_coordinates(self):
        doc = svg_render(generate_patch(2.5))
        for m in re.finditer(r' d="([^"]+)"', doc):
            assert "e" not in m.group(1).lower().replace("m", "").replace(
                "a", "").replace("l", "").replace("z", "")
