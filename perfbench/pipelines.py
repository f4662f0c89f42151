"""Library pipelines that no single CLI command runs.

Each returns the text the job writes to stdout.  They use only the
package's public API, the way a library user would.
"""

from __future__ import annotations

import json

from hyptile.geometry import (ColourWindow, edge_adjacency, generate_patch,
                              scale_range)
from hyptile.hull import TestFunction, invariance_check
from hyptile.render import svg_render
from hyptile.subshift import language, parse_spec


def tiling(spec: dict, radius: float) -> str:
    """generate_patch -> edge_adjacency -> svg_render on one coloured patch."""
    sub = parse_spec(spec)
    ks = scale_range(radius)
    hw = max(abs(ks.start), abs(ks.stop - 1))
    window = ColourWindow(language(sub, 2 * hw + 1)[0], -hw)
    ts = generate_patch(radius, colouring=window)
    report = edge_adjacency(ts)
    svg = svg_render(ts)
    return json.dumps({
        "radius": radius,
        "count": len(ts.tiles),
        "tiles": [[t.k, t.n, t.colour] for t in ts.tiles],
        "boundary_charge_gap": report.boundary_charge_gap(),
        "interior_edges": len(report.interior),
        "boundary_edges": len(report.boundary),
        "svg": svg,
    }, sort_keys=True) + "\n"


def invariance(spec: dict, samples: int, seed: int, elements) -> str:
    """One sample batch, many group elements through invariance_check."""
    sub = parse_spec(spec)
    f = TestFunction.word_indicator(language(sub, 2)[0])
    gs = [(float(a), float(b)) for a, b in elements]
    report = invariance_check(sub, f, gs, samples, seed)
    return json.dumps(report, sort_keys=True) + "\n"
