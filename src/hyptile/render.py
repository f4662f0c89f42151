"""SVG output for coloured pentagon patches.

Every tile becomes one closed path: three circular arcs (the two bottom
edges and the top edge, whose full geodesics are half-circles centred
on the real axis) joined by two vertical segments.  Tile (k, n) has its
vertices at integers times 2**(k-1) and its arc radii at 2**k sqrt(17)/4
and 2**k sqrt(17)/2, so every coordinate is math.ldexp of an integer,
exact, and every radius is the correctly rounded sqrt of
ldexp(17, 2k-4) or ldexp(17, 2k-2).  Neighbouring tiles therefore emit
byte-identical endpoint strings and the seams are gapless.  Coordinates
are written y-flipped (SVG y grows downward) with 17 significant
digits, the only place floats appear.

There is one path format: a cached template per scale k, with that
scale's y and arc-radius strings baked in, which `tile_path` and
`svg_render` fill with a tile's three corner x strings.  `svg_render`
formats each x once, since tile n's right corner is tile n + 1's left.
"""

from __future__ import annotations

import functools
import math

from .geometry import TileIndex, TileSet

__all__ = ["PALETTE", "svg_render", "tile_path"]

PALETTE = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
           "#76b7b2", "#edc949", "#ff9da7", "#9c755f")
_UNCOLOURED = "#d8d2c7"


def _fmt(x: float) -> str:
    return "%.17g" % x


@functools.lru_cache(maxsize=128)
def _path_template(k: int) -> tuple[str, ...]:
    """The path of every tile at scale k, cut at the x of its corners:
    the text after x0, x1, x2, x2 and x0 in turn (see `_fill_path`).

    The flipped y of the bottom and top corners and the two arc radii
    are baked in.  The bottom arcs run left to right and the top arc
    back; with y flipped, bulging away from the real axis is sweep 1
    and sweep 0.
    """
    y1, y2 = _fmt(-math.ldexp(1.0, k)), _fmt(-math.ldexp(1.0, k + 1))
    low = _fmt(math.sqrt(math.ldexp(17.0, 2 * k - 4)))
    high = _fmt(math.sqrt(math.ldexp(17.0, 2 * k - 2)))
    return (f" {y1} A {low} {low} 0 0 1 ", f" {y1} A {low} {low} 0 0 1 ",
            f" {y1} L ", f" {y2} A {high} {high} 0 0 0 ", f" {y2} Z")


def _fill_path(template: tuple[str, ...], x0: str, x1: str, x2: str) -> str:
    """The d-string of a tile whose corners lie at x0, x1 and x2."""
    a, b, c, d, e = template
    return f"M {x0}{a}{x1}{b}{x2}{c}{x2}{d}{x0}{e}"


def tile_path(t: TileIndex) -> str:
    """Closed path d-string: bottom arcs, right wall, top arc, left wall."""
    m, e = 2 * t.n, t.k - 1
    return _fill_path(_path_template(t.k), _fmt(math.ldexp(m, e)),
                      _fmt(math.ldexp(m + 1, e)), _fmt(math.ldexp(m + 2, e)))


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
    k = n_next = right = None
    for t in ts.tiles:
        if t.k != k:
            k, template, n_next = t.k, _path_template(t.k), None
        # tile n's left corner is tile n - 1's right corner
        m, e = 2 * t.n, k - 1
        left = right if t.n == n_next else _fmt(math.ldexp(m, e))
        right, n_next = _fmt(math.ldexp(m + 2, e)), t.n + 1
        path = _fill_path(template, left, _fmt(math.ldexp(m + 1, e)), right)
        lines.append(f'<path data-k="{k}" data-n="{t.n}" '
                     f'fill="{_fill(t.colour, palette)}" d="{path}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
