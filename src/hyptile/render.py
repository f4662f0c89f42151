"""SVG output for coloured pentagon patches.

Every tile becomes one closed path: three circular arcs (the two bottom
edges and the top edge, whose full geodesics are half-circles centred
on the real axis) joined by two vertical segments.  All arc endpoints
are taken from the exact dyadic vertex coordinates, so neighbouring
tiles emit byte-identical endpoint strings and the seams are gapless.
Coordinates are written y-flipped (SVG y grows downward) with 17
significant digits, the only place floats appear.
"""

from __future__ import annotations

import math

from .geometry import GeodesicArc, TileIndex, TileSet, geodesic_arc, tile_vertices

__all__ = ["PALETTE", "svg_render", "tile_path"]

PALETTE = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
           "#76b7b2", "#edc949", "#ff9da7", "#9c755f")
_UNCOLOURED = "#d8d2c7"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _xy(p) -> str:
    return f"{_fmt(float(p.x))} {_fmt(-float(p.y))}"


def _arc_to(arc: GeodesicArc) -> str:
    """SVG command for the geodesic arc, already standing at arc.start.

    The geodesic circle is centred on the real axis, so of the two
    candidate arcs the renderer needs the one bulging away from it;
    with flipped y that is sweep 1 left-to-right and sweep 0 back.
    """
    r = _fmt(math.sqrt(float(arc.radius_sq)))
    sweep = 1 if arc.end.x > arc.start.x else 0
    return f"A {r} {r} 0 0 {sweep} {_xy(arc.end)}"


def tile_path(t: TileIndex) -> str:
    """Closed path d-string: bottom arcs, right wall, top arc, left wall."""
    v = tile_vertices(t)
    return " ".join([
        f"M {_xy(v[0])}",
        _arc_to(geodesic_arc(v[0], v[1])),
        _arc_to(geodesic_arc(v[1], v[2])),
        f"L {_xy(v[3])}",
        _arc_to(geodesic_arc(v[3], v[4])),
        "Z",
    ])


def _fill(colour, palette) -> str:
    if colour is None:
        return _UNCOLOURED
    return palette[(colour - 1) % len(palette)]


def svg_render(ts: TileSet, colours=None, window=None,
               config: str | None = None) -> str:
    """Standalone SVG 1.1 document for the patch.

    colours is a palette indexed by tile colour (1-based, wrapping);
    window = (x0, x1, y0, y1) is the visible half-plane rectangle, by
    default the hyperbolic ball's bounding box plus a small margin.
    Tiles are emitted in (k, n) order and clipped to the window.
    """
    palette = tuple(colours) if colours else PALETTE
    if window is None:
        s = math.sinh(ts.radius) + 0.6
        window = (-s, s, 0.0, math.cosh(ts.radius) + math.sinh(ts.radius) + 0.6)
    x0, x1, y0, y1 = (float(v) for v in window)
    if not (x0 < x1 and y0 < y1):
        raise ValueError("window must be a nonempty rectangle")
    wide, high = x1 - x0, y1 - y0
    view = f"{_fmt(x0)} {_fmt(-y1)} {_fmt(wide)} {_fmt(high)}"
    stroke = _fmt(high / 320.0)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{view}" width="720" height="{_fmt(720.0 * high / wide)}">',
    ]
    if config is not None:
        lines.append(f"<!-- hyptile {config} -->")
    lines.append(
        f'<defs><clipPath id="window"><rect x="{_fmt(x0)}" y="{_fmt(-y1)}" '
        f'width="{_fmt(wide)}" height="{_fmt(high)}"/></clipPath></defs>')
    lines.append(f'<g clip-path="url(#window)" stroke="#26221c" '
                 f'stroke-width="{stroke}" stroke-linejoin="round">')
    for t in ts.tiles:
        lines.append(f'<path data-k="{t.k}" data-n="{t.n}" '
                     f'fill="{_fill(t.colour, palette)}" d="{tile_path(t)}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
