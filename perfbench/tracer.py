"""Per-layer call recorder for traced benchmark runs.

Installed inside a job process after `hyptile.cli` is imported.  It
wraps the public functions of each layer (package module) named in
REPORTED and rebinds every module global and class attribute that holds
one of them, so calls made from inside the package are caught too.
Each wrapper counts calls and inclusive seconds (outermost activation
only, so recursion is not counted twice) and, for some functions, a
work count taken from the arguments or the result.  A layer's self time
is the time its wrapped frames spend outside any other wrapped frame.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

# Reported functions and their fields.  "calls", "s" (inclusive
# seconds) and "distinct" (distinct inputs) come from the wrapper; the
# other fields are work counts from _WORK.  _LAYER_COUNTS are reported
# under the layer's name (geometry.tiles, ...), the rest under the
# function's.
REPORTED = {
    "subshift.language": ["calls", "s", "distinct", "words"],
    "subshift.measure_vector": ["calls", "s"],
    "algebraic.perron_eigenvalue": ["calls", "s"],
    "algebraic.nullspace_vector": ["calls", "s"],
    "intmat.smith_normal_form": ["calls", "s", "distinct", "entries"],
    "intmat.lattice_contains": ["calls", "s"],
    "intmat.integer_kernel": ["calls", "s"],
    "intmat.hnf_row_lattice": ["calls", "s"],
    "intmat.rational_rank": ["calls", "s"],
    "ktheory.coinvariants": ["calls", "s"],
    "ktheory.invariants": ["calls", "s"],
    "ktheory.gap_labels": ["calls", "s"],
    "geometry.generate_patch": ["calls", "s", "tiles"],
    "geometry.edge_adjacency": ["calls", "s", "edges"],
    "render.svg_render": ["calls", "s", "svg_bytes"],
    "hull.sample_batch": ["calls", "s", "distinct", "points"],
    "hull.SampleBatch.act": ["calls", "s"],
    "hull.TestFunction.on_batch": ["calls", "s"],
    "hull.invariance_check": ["s"],
    "hull.harmonicity_check": ["s"],
    "hull.tau_pairing": ["s"],
}
_LAYER_COUNTS = {"tiles": "count", "edges": "count", "svg_bytes": "bytes"}

# Wrapped only to delimit layers: `cli.main` for cli.self_s, the
# ktheory entry points for ktheory.self_s, and every intmat function
# that ktheory imports, so that ktheory.self_s excludes integer linear
# algebra.
_DELIMITERS = [
    "cli.main", "intmat.smith_diagonal", "intmat.identity",
    "intmat.transpose", "ktheory.k_groups", "ktheory.cech_cohomology",
    "ktheory.invariant_rank", "ktheory.coinvariant_class",
    "ktheory.measure_pairing",
]


def _per_layer() -> list[tuple[str, str, str]]:
    """(metric, unit, source) for every per-layer metric, in print order.

    A source is "import_s", "sympy_at_import", "self:<layer>" or
    "func:<function>:<field>", read from the job reports by run.py.
    """
    out = [("cli.import_s", "s", "import_s"),
           ("cli.sympy_at_import", "count", "sympy_at_import"),
           ("cli.self_s", "s", "self:cli")]
    for func, fields in REPORTED.items():
        for f in fields:
            source = f"func:{func}:{f}"
            if f in _LAYER_COUNTS:
                out.append((f"{func.split('.')[0]}.{f}", _LAYER_COUNTS[f],
                            source))
            else:
                out.append((f"{func}.{f}", "s" if f == "s" else "count",
                            source))
        if func == "ktheory.gap_labels":
            out.append(("ktheory.self_s", "s", "self:ktheory"))
    return out


PER_LAYER = _per_layer()


def _entries(args, result):
    mat = args["mat"]
    return len(mat) * (len(mat[0]) if mat else 0)


# name -> (work counters fed by (arguments, result), distinct-input key);
# both get the call's arguments by parameter name, defaults filled in
_WORK = {
    "subshift.language": (
        {"words": lambda a, r: len(r)}, lambda a: (a["spec"], a["n"])),
    "intmat.smith_normal_form": (
        {"entries": _entries},
        lambda a: tuple(tuple(row) for row in a["mat"])),
    "geometry.generate_patch": (
        {"tiles": lambda a, r: len(r.tiles)}, None),
    "geometry.edge_adjacency": (
        {"edges": lambda a, r: len(r.interior) + len(r.boundary)}, None),
    "render.svg_render": (
        {"svg_bytes": lambda a, r: len(r.encode())}, None),
    "hull.sample_batch": (
        {"points": lambda a, r: r.n}, lambda a: tuple(a.items())),
}


class _Stat:
    __slots__ = ("calls", "seconds", "depth", "keys", "work")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0
        self.keys = set()
        self.work = {}


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.self_s: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        stat = self.stats[full] = _Stat()
        work, key_fn = _WORK.get(full, ({}, None))
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]  # seconds spent in wrapped callees
            stack.append(frame)
            stat.calls += 1
            stat.depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stat.depth -= 1
                if stat.depth == 0:
                    stat.seconds += dur
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                tracer.self_s[layer] = (tracer.self_s.get(layer, 0.0)
                                        + dur - frame[0])
            if work or key_fn is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if key_fn is not None:
                    stat.keys.add(key_fn(bound.arguments))
                for wname, count in work.items():
                    stat.work[wname] = stat.work.get(wname, 0) + count(
                        bound.arguments, result)
            return result

        return wrapper

    def install(self, extra_modules=()):
        """Wrap every target and rebind each global or attribute holding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hyptile" or n.startswith("hyptile.")]
        modules += list(extra_modules)
        for full in list(REPORTED) + _DELIMITERS:
            layer, name = full.split(".", 1)
            mod = sys.modules[f"hyptile.{layer}"]
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self._wrap(layer, name,
                                              getattr(cls, attr)))
                continue
            orig = getattr(mod, name)
            wrapped = self._wrap(layer, name, orig)
            for m in modules:
                for gname, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, gname, wrapped)

    def summary(self) -> dict:
        funcs = {}
        for full, stat in self.stats.items():
            rec = {"calls": stat.calls, "s": stat.seconds,
                   "distinct": len(stat.keys)}
            rec.update(stat.work)
            funcs[full] = rec
        return {"funcs": funcs, "self_s": dict(self.self_s)}
