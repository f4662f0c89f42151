"""Output checks for every benchmark job.

Each check compares a job's output with values computed here, apart
from the program (languages from iterated substitutions, group
presentations reduced by sympy's Smith normal form, letter frequencies
from a numpy Perron vector, a vectorised re-enumeration of the
documented box-meets-disk tile rule), or with properties the method
must have (measures sum to 1 and are consistent under extension,
boundary charge equals tile count, Monte-Carlo statistics within a
fixed number of standard errors of their exact values).  No check
reads a saved copy of an earlier output.

A check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import permutations

import numpy as np

from workloads import PERIODIC_FAULT

# Monte-Carlo tolerance in standard errors.  About 20 statistics are
# checked per hull job; 6 sigma keeps a correct sampler from failing on
# any seed in practice (two-sided normal tail 2e-9 per statistic).
SIGMAS = 6.0
SLACK = 1e-12
PHI = (1 + math.sqrt(5)) / 2
TM_TWO_WORDS = {"11": Fraction(1, 6), "12": Fraction(1, 3),
                "21": Fraction(1, 3), "22": Fraction(1, 6)}
APEX = math.sqrt(17.0) / 2.0
SVG_NS = "{http://www.w3.org/2000/svg}"


# -- independent oracles --

def _odd(d: int) -> int:
    return d >> ((d & -d).bit_length() - 1)


def _key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def _spec(key: str) -> dict:
    return json.loads(key)


@functools.lru_cache(maxsize=None)
def _long_words(key: str) -> tuple[str, ...]:
    """Words whose factors make up the language: the periodic word
    repeated, or long iterates of a primitive substitution on each
    letter (every legal word occurs in them)."""
    spec = _spec(key)
    if spec["type"] == "periodic":
        return (spec["word"] * 64,)
    rules = spec["rules"]
    out = []
    for a in sorted(rules):
        w = a
        while len(w) < 20000:
            w = "".join(rules[c] for c in w)
        out.append(w)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def oracle_language(key: str, n: int) -> frozenset:
    words = set()
    for w in _long_words(key):
        words.update(w[i:i + n] for i in range(len(w) - n + 1))
    return frozenset(words)


def _sympy_group(rows, psi: int) -> tuple[int, list]:
    """(rank, sorted torsion) of Z^cols modulo the rows, from sympy's
    Smith normal form; over Z[1/2] (psi = 2) only odd factors survive."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    m = Matrix(rows)
    s = smith_normal_form(m)
    diag = [abs(int(s[i, i])) for i in range(min(s.rows, s.cols))]
    tors = [d for d in diag if d > 1]
    if psi == 2:
        tors = [d for d in map(_odd, tors) if d > 1]
    return m.cols - sum(1 for d in diag if d), sorted(tors)


@functools.lru_cache(maxsize=None)
def oracle_group(key: str, ring: str, level: int) -> tuple[int, list]:
    """(rank, sorted torsion) of the level-N shift-module presentation.

    Generators are the words of length N+1; each word u of length N
    gives the relation sum_a [ua] - psi * sum_a [au], with psi = 1 over
    Z and psi = 2 over Z[1/2].
    """
    psi = 2 if ring == "Z[1/2]" else 1
    lo = sorted(oracle_language(key, level))
    hi = sorted(oracle_language(key, level + 1))
    idx = {v: j for j, v in enumerate(hi)}
    rows = []
    for u in lo:
        row = [0] * len(hi)
        for v in hi:
            if v[:-1] == u:
                row[idx[v]] += 1
            if v[1:] == u:
                row[idx[v]] -= psi
        rows.append(row)
    return _sympy_group(rows, psi)


@functools.lru_cache(maxsize=None)
def letter_frequencies(key: str) -> dict:
    spec = _spec(key)
    if spec["type"] == "periodic":
        w = spec["word"]
        return {a: w.count(a) / len(w) for a in set(w)}
    letters = sorted(spec["rules"])
    m = np.array([[spec["rules"][b].count(a) for b in letters]
                  for a in letters], dtype=float)
    vals, vecs = np.linalg.eig(m)
    v = np.abs(np.real(vecs[:, int(np.argmax(np.real(vals)))]))
    return {a: float(x) for a, x in zip(letters, v / v.sum())}


@functools.lru_cache(maxsize=None)
def oracle_tiles(radius: float) -> frozenset:
    """(k, n) of every tile whose box [2^k n, 2^k (n+1)] x [2^k, 2^k
    sqrt(17)/2] meets the closed Euclidean disk of the hyperbolic ball
    (centre (0, cosh r), radius sinh r, padded by 1e-9 (1 + sinh^2 r))."""
    c, s = math.cosh(radius), math.sinh(radius)
    pad = s * s + 1e-9 * (1.0 + s * s)
    out = set()
    k_lo = math.floor(math.log2(math.exp(-radius) / APEX)) - 2
    k_hi = math.ceil(math.log2(math.exp(radius))) + 2
    for k in range(k_lo, k_hi + 1):
        w = 2.0 ** k
        lim = math.ceil(s / w) + 3
        n = np.arange(-lim, lim + 1)
        x0, x1 = w * n, w * (n + 1)
        dx = np.maximum(x0, np.minimum(0.0, x1))
        dy = max(w, min(c, w * APEX))
        hit = dx * dx + (dy - c) ** 2 <= pad
        out.update((k, int(v)) for v in n[hit])
    return frozenset(out)


# -- helpers --

def _config_problems(doc: dict, job, spec: dict) -> list[str]:
    cfg = doc.get("config", {})
    bad = []
    if cfg.get("command") != job.command or cfg.get("spec") != spec:
        bad.append("config does not echo the command and spec")
    for k in ("radius", "nmax", "samples", "seed"):
        if k in job.params and cfg.get(k) != job.params[k]:
            bad.append(f"config {k} {cfg.get(k)!r} != {job.params[k]!r}")
    return bad


def _group_problems(name: str, g: dict, key: str, ring: str) -> list[str]:
    if g.get("ring") != ring:
        return [f"{name}: ring {g.get('ring')!r} != {ring!r}"]
    want = oracle_group(key, ring, g["N_used"])
    got = (g["rank"], sorted(g["torsion"]))
    if got != want:
        return [f"{name}: (rank, torsion) {got} at N={g['N_used']} "
                f"!= independent {want}"]
    return []


def _h0_problems(name: str, g: dict) -> list[str]:
    # every spec in the benchmark is minimal: connected, so H0 = Z
    if (g.get("ring"), g.get("rank"), g.get("torsion")) != ("Z", 1, []):
        return [f"{name}: expected Z, got rank {g.get('rank')} "
                f"torsion {g.get('torsion')}"]
    return []


def _periodic_groups(spec: dict, pairs) -> list[str]:
    """A periodic orbit of period p has the groups of the circulant
    presentation I - psi P (P the cyclic shift): Z over Z with psi = 1,
    Z[1/2]/(2^p - 1) over Z[1/2] with psi = 2."""
    p = len(spec["word"])
    bad = []
    for name, g in pairs:
        psi = 2 if g["ring"] == "Z[1/2]" else 1
        want = (0, [2 ** p - 1]) if psi == 2 else (1, [])
        circ = [[int(i == j) - psi * int(j == (i - 1) % p) for j in range(p)]
                for i in range(p)]
        circulant = _sympy_group(circ, psi)
        got = (g["rank"], sorted(g["torsion"]))
        if not got == circulant == want:
            bad.append(f"{name} (rank, torsion) {got} {PERIODIC_FAULT} "
                       f"{circulant} (period {p})")
    return bad


def _strip(g: dict) -> tuple:
    return g["ring"], g["rank"], sorted(g["torsion"])


# -- per-command checks --

def check_kgroups(job, spec: dict, text: str) -> list[str]:
    doc = json.loads(text)
    key = _key(spec)
    k0, k1 = doc["K0"], doc["K1"]
    co_half, inv_z = k0["summands"]
    bad = _config_problems(doc, job, spec)
    bad += _group_problems("K0 coinvariants", co_half, key, "Z[1/2]")
    bad += _h0_problems("K0 invariants", inv_z)
    bad += _group_problems("K1", k1, key, "Z")
    if k0["rank"] != co_half["rank"] + inv_z["rank"] or \
            k0["torsion"] != co_half["torsion"] + inv_z["torsion"]:
        bad.append("K0 totals are not the sum of its summands")
    if spec["type"] == "periodic":
        bad += _periodic_groups(spec, [("K0 coinvariants", co_half),
                                       ("K1", k1)])
    return bad


def check_cech(job, spec: dict, text: str) -> list[str]:
    doc = json.loads(text)
    key = _key(spec)
    bad = _config_problems(doc, job, spec)
    bad += _h0_problems("H0", doc["H0"])
    bad += _group_problems("H1", doc["H1"], key, "Z")
    bad += _group_problems("H2", doc["H2"], key, "Z[1/2]")
    if spec["type"] == "periodic":
        bad += _periodic_groups(spec, [("H1", doc["H1"]), ("H2", doc["H2"])])
    if spec.get("rules") == {"1": "12", "2": "1"} and \
            _strip(doc["H1"])[1:] != (2, []):
        bad.append(f"Fibonacci H1 is not Z^2: {_strip(doc['H1'])}")
    return bad


def _frac(s) -> Fraction:
    return Fraction(s) if isinstance(s, str) else Fraction(int(s))


def check_gaplabels(job, spec: dict, text: str) -> list[str]:
    doc = json.loads(text)
    gl = doc["gap_labels"]
    bad = _config_problems(doc, job, spec)
    nmax = job.params.get("nmax", 6)
    if [c["n"] for c in gl["chain"]] != list(range(1, nmax + 1)):
        bad.append("chain does not cover n = 1..nmax")
    if gl["chain"] and gl["generators"] != gl["chain"][-1]["generators"]:
        bad.append("final generators differ from the last chain entry")
    if spec["type"] == "periodic":
        want = [f"1/{len(spec['word'])}"]
        if gl["kind"] != "rational" or gl["generators"] != want:
            bad.append(f"periodic gap label {gl['generators']} != {want}")
    elif spec["rules"] == {"1": "12", "2": "1"}:
        bad += _fibonacci_labels(gl)
    else:
        for g in gl["generators"]:
            if not 0 < _frac(g) <= 1:
                bad.append(f"gap label {g} outside (0, 1]")
    return bad


def _fibonacci_labels(gl: dict) -> list[str]:
    """Coordinates in the basis (1, phi) must span Z + Z phi."""
    if gl["kind"] != "algebraic" or gl.get("minpoly") != \
            ["-1/1", "-1/1", "1/1"]:
        return ["Fibonacci labels are not in Q(phi) with x^2 - x - 1"]
    bad = []
    rows = []
    for g in gl["generators"]:
        a, b = (_frac(c) for c in g["coordinates"])
        if a.denominator != 1 or b.denominator != 1:
            bad.append(f"non-integral coordinates {g['coordinates']}")
        if abs(float(a) + float(b) * PHI - g["approx"]) > 1e-9:
            bad.append(f"coordinates {g['coordinates']} disagree with "
                       f"approx {g['approx']}")
        rows.append((int(a), int(b)))
    minors = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            minors = math.gcd(minors, rows[i][0] * rows[j][1]
                              - rows[i][1] * rows[j][0])
    if minors != 1:
        bad.append(f"labels span index {minors} in Z + Z phi, not 1")
    return bad


def check_measures(job, spec: dict, text: str) -> list[str]:
    lines = text.splitlines()
    bad = []
    cfg = json.loads(lines[1].removeprefix("# config: "))
    if cfg.get("command") != "measures" or cfg.get("spec") != spec:
        bad.append("config does not echo the command and spec")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[2:]))))
    key = _key(spec)
    nmax = job.params.get("nmax", 4)
    exact: dict = {}
    approx: dict = {}
    for r in rows:
        approx[r["word"]] = float(r["float"])
        if r["measure"] != "algebraic":
            exact[r["word"]] = Fraction(r["measure"])
    algebraic = len(exact) != len(approx)
    for n in range(1, nmax + 1):
        words = {w for w in approx if len(w) == n}
        if words != oracle_language(key, n):
            bad.append(f"length-{n} words differ from the language")
            continue
        total = sum(approx[w] for w in words)
        if abs(total - 1.0) > 1e-12 or (
                not algebraic and sum(exact[w] for w in words) != 1):
            bad.append(f"length-{n} measures sum to {total}, not 1")
        if n == 1:
            continue
        vals = approx if algebraic else exact
        tol = 1e-12 if algebraic else 0
        for u in oracle_language(key, n - 1):
            right = sum(vals[w] for w in words if w[:-1] == u)
            left = sum(vals[w] for w in words if w[1:] == u)
            if abs(right - vals[u]) > tol or abs(left - vals[u]) > tol:
                bad.append(f"measure of {u} disagrees with its extensions")
    if spec["type"] == "periodic":
        cyc = spec["word"] * 3
        p = len(spec["word"])
        for w, v in exact.items():
            count = sum(cyc[i:i + len(w)] == w for i in range(p))
            if v != Fraction(count, p):
                bad.append(f"periodic measure of {w} is {v}, not {count}/{p}")
    if spec.get("rules") == {"1": "12", "2": "21"}:
        got = {w: exact.get(w) for w in TM_TWO_WORDS}
        if got != TM_TWO_WORDS:
            bad.append(f"Thue-Morse 2-word measures {got}")
    freq = letter_frequencies(key)
    for a, f in freq.items():
        if abs(approx.get(a, -1.0) - f) > 1e-9:
            bad.append(f"letter {a} measure {approx.get(a)} != {f}")
    return bad


def _colour_word_problems(key: str, colour_by_k: dict) -> list[str]:
    """Tile colours read from the top scale down form a legal word."""
    ks = sorted(colour_by_k, reverse=True)
    if ks != list(range(ks[0], ks[0] - len(ks), -1)):
        return ["scales are not contiguous"]
    letters = sorted({c for cs in colour_by_k.values() for c in cs})
    if any(len(cs) != 1 for cs in colour_by_k.values()):
        return ["tiles of one scale carry different colours"]
    word = [next(iter(colour_by_k[k])) for k in ks]
    alphabet = sorted({ch for w in oracle_language(key, 1) for ch in w})
    lang = oracle_language(key, len(word))
    # colours are compared up to renaming, so this holds for raw letters
    # (patch) and for palette fills (render) alike
    for perm in permutations(alphabet, len(letters)):
        names = dict(zip(letters, perm))
        if "".join(names[c] for c in word) in lang:
            return []
    return ["colours by scale do not spell a word of the language"]


def _tile_problems(radius: float, tiles: list) -> list[str]:
    got = [(k, n) for k, n, _ in tiles]
    want = oracle_tiles(float(radius))
    if len(got) != len(set(got)):
        return ["duplicate tiles"]
    if set(got) != want:
        extra, missing = len(set(got) - want), len(want - set(got))
        return [f"tile set differs from the box-meets-disk rule: "
                f"{extra} extra, {missing} missing"]
    return []


def _by_scale(tiles) -> dict:
    out: dict = {}
    for k, _, colour in tiles:
        out.setdefault(k, set()).add(str(colour))
    return out


def _svg_problems(key: str, radius: float, svg: str) -> list[str]:
    root = ET.fromstring(svg)
    paths = root.findall(f".//{SVG_NS}path")
    tiles = [(int(p.get("data-k")), int(p.get("data-n")), p.get("fill"))
             for p in paths]
    bad = _tile_problems(radius, tiles)
    if any(not p.get("d", "").startswith("M ") for p in paths):
        bad.append("path without a move-to")
    return bad + _colour_word_problems(key, _by_scale(tiles))


def check_render(job, spec: dict, text: str) -> list[str]:
    head = text.split("\n", 2)[1]
    cfg = json.loads(head.removeprefix("<!-- hyptile ").removesuffix(" -->"))
    bad = _config_problems({"config": cfg}, job, spec)
    return bad + _svg_problems(_key(spec), job.params["radius"], text)


def check_patch(job, spec: dict, text: str) -> list[str]:
    doc = json.loads(text)
    tiles = [(t["k"], t["n"], t["colour"]) for t in doc["tiles"]]
    bad = _config_problems(doc, job, spec)
    if doc["count"] != len(tiles):
        bad.append("count differs from the tile list")
    bad += _tile_problems(job.params["radius"], tiles)
    return bad + _colour_word_problems(_key(spec), _by_scale(tiles))


def check_tiling(job, spec: dict, text: str) -> list[str]:
    doc = json.loads(text)
    tiles = [tuple(t) for t in doc["tiles"]]
    bad = []
    if not doc["count"] == len(tiles) == doc["boundary_charge_gap"]:
        bad.append(f"boundary charge gap {doc['boundary_charge_gap']} != "
                   f"tile count {doc['count']}")
    bad += _tile_problems(job.params["radius"], tiles)
    bad += _colour_word_problems(_key(spec), _by_scale(tiles))
    return bad + _svg_problems(_key(spec), job.params["radius"], doc["svg"])


def _within(name: str, stat: float, exact: float, se: float,
            extra: float = 0.0) -> list[str]:
    if abs(stat - exact) > SIGMAS * se + extra + SLACK:
        return [f"{name}: {stat} is more than {SIGMAS:g} standard errors "
                f"({se}) from {exact}"]
    return []


def _invariance_problems(name: str, rep: dict, gs=None) -> list[str]:
    bad = []
    if gs is not None and [g["g"] for g in rep["per_g"]] != gs:
        bad.append(f"{name}: group elements are not echoed")
    for g in rep["per_g"]:
        bad += _within(f"{name} g={g['g']}", g["statistic"], 0.0,
                       g["std_error"])
    return bad


def check_hullcheck(job, spec: dict, text: str) -> list[str]:
    doc = json.loads(text)
    n = job.params["samples"]
    first = min(oracle_language(_key(spec), 1))
    p = letter_frequencies(_key(spec))[first]
    m = doc["marginals"]
    bad = _config_problems(doc, job, spec)
    bad += _within("omega_mod4_is1", m["omega_mod4_is1"]["statistic"], 0.25,
                   math.sqrt(0.25 * 0.75 / n))
    bad += _within("first_letter", m["first_letter"]["statistic"], p,
                   math.sqrt(p * (1 - p) / n))
    if abs(m["first_letter"]["expected"] - p) > 1e-9:
        bad.append(f"first_letter expected {m['first_letter']['expected']}"
                   f" != {p}")
    for name, rep in doc["checks"].items():
        if name.startswith("invariance"):
            bad += _invariance_problems(name, rep)
        else:
            bad += _within(name, rep["statistic"], 0.0, rep["std_error"],
                           rep["fd_bias"])
    return bad + _control_problems(doc)


def _control_problems(doc: dict) -> list[str]:
    """The negative control draws from a sampler biased to one first
    word, so it must not reproduce the genuine `invariance_0` report, and
    where any group element moves its statistic at all (a nonzero
    standard error), the worst one must lie beyond 6 standard errors.
    For TM, on 15 of 80 seeds none of the default group elements moves
    the statistic; the control then has no power at any sample size.
    On every other seed tried, the worst statistic lay at 12.5 standard
    errors or more at 2 * 10^4 samples (TM, 65 seeds), 33 or more at
    1.5 * 10^5 (TM, 65 seeds) and 433 or more at 1.5 * 10^5
    (Fibonacci, 40 seeds)."""
    control = doc["negative_control"]["report"]
    if control == doc["checks"]["invariance_0"]:
        return ["negative control reproduces invariance_0"]
    moved = [abs(g["statistic"]) / g["std_error"]
             for g in control["per_g"] if g["std_error"] > 0]
    if moved and max(moved) <= SIGMAS:
        return [f"negative control undetected: worst statistic "
                f"{max(moved):.2f} standard errors"]
    return []


def check_cocycle(job, spec: dict, text: str) -> list[str]:
    """tau(f, g) + tau(g, f) vanishes by invariance, tau(f, 1) too."""
    doc = json.loads(text)
    bad = _config_problems(doc, job, spec)
    if len(doc["pairs"]) != 3:
        bad.append("expected three random bump pairs")
    for name, rep in [("tau_with_one", doc["tau_with_one"])] + [
            (f"pair {i}", r) for i, r in enumerate(doc["pairs"])]:
        bad += _within(name, rep["antisymmetry_defect"], 0.0,
                       rep["defect_std_error"], rep["fd_bias"])
    return bad


def check_invariance(job, spec: dict, text: str) -> list[str]:
    rep = json.loads(text)
    bad = []
    if rep["n"] != job.params["samples"] or rep["seed"] != job.params["seed"]:
        bad.append("report does not echo samples and seed")
    return bad + _invariance_problems("invariance", rep,
                                      job.params["elements"])


CHECKS = {
    "kgroups": check_kgroups,
    "cech": check_cech,
    "gaplabels": check_gaplabels,
    "measures": check_measures,
    "render": check_render,
    "patch": check_patch,
    "hullcheck": check_hullcheck,
    "cocycle": check_cocycle,
    "tiling": check_tiling,
    "invariance": check_invariance,
}


def check_job(job, spec: dict, text: str) -> list[str]:
    try:
        return CHECKS[job.command](job, spec, text)
    except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def check_k_against_h(outputs: dict, jobs) -> list[str]:
    """K1 equals H1, and the K0 summands equal H2 and H0, per spec."""
    bad = []
    by = {(j.command, j.spec, j.params.get("nmax")): outputs.get(j.name)
          for j in jobs}
    for (cmd, spec, nmax), ktext in by.items():
        htext = by.get(("cech", spec, nmax))
        if cmd != "kgroups" or ktext is None or htext is None:
            continue
        try:
            k, h = json.loads(ktext), json.loads(htext)
            pairs = [("K1", k["K1"], "H1", h["H1"]),
                     ("K0[0]", k["K0"]["summands"][0], "H2", h["H2"]),
                     ("K0[1]", k["K0"]["summands"][1], "H0", h["H0"])]
            for kn, kg, hn, hg in pairs:
                if _strip(kg) != _strip(hg):
                    bad.append(f"{spec}: {kn} {_strip(kg)} != "
                               f"{hn} {_strip(hg)}")
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            bad.append(f"{spec}: malformed group output: {exc}")
    return bad
