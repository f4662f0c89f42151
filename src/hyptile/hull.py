"""Doubly suspended odometer-subshift points and their affine symmetry.

A point is stored by four coordinates: a 2-adic integer omega together
with t in [0,1) (suspension of the odometer x -> x+1), a colour window
with a cursor into the letter sequence, and s in [0,1), the base-2
logarithm of a positive scale.  Crossing s = 1 downward is identified
with doubling the odometer part and shifting the letters left by one;
crossing s = 0 is the inverse, which halves omega (branching on parity)
and costs one dyadic digit of precision.  Keeping the scale in log base
2 makes both identifications unit translations in s.

The affine map z -> a z + b acts by scaling s and feeding b, divided by
the new scale, into the suspension coordinate t; integer carries flow
into omega.  Monte-Carlo checks (invariance of the product measure,
leafwise harmonicity, the flow pairing) run on column-vectorized sample
batches with one deterministic RNG stream per worker chunk.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import DyadicInt, LocallyConstFn, PrecisionExhausted
from .geometry import ColourWindow, ColourWindowExhausted, TileSet, generate_patch
from .ktheory import CylinderFunction
from .subshift import SubshiftSpec, language, measure_vector

__all__ = [
    "HullPoint",
    "normalize",
    "act",
    "check_relation_RPw",
    "relation_defects",
    "random_colour_window",
    "BumpProfile",
    "TestFunction",
    "SampleBatch",
    "sample_batch",
    "sample_product_measure",
    "invariance_check",
    "harmonicity_check",
    "tau_pairing",
]

_MAX_WRAPS = 64


@dataclass(frozen=True)
class HullPoint:
    """One point: odometer pair (omega, t), letters (colour, cursor), scale s.

    The visible letter at index j is colour[cursor + j]; the cursor moves
    by one per unit of s crossed, so the window must be wide enough for
    every query made against it (ColourWindowExhausted otherwise).
    """

    omega: DyadicInt
    t: float
    colour: ColourWindow
    cursor: int
    s: float

    def letter(self, j: int) -> int:
        return self.colour.get(self.cursor + j)


def normalize(p: HullPoint) -> HullPoint:
    """Canonical representative with t in [0,1) and s in [0,1).

    Integer parts of t are carried into omega.  Each unit of s above 1
    doubles (omega, t) and advances the cursor; each unit below 0 halves
    them (odd omega borrows into t) and retreats the cursor, consuming
    one dyadic digit.  Idempotent.
    """
    om, t, s, cur = p.omega, p.t, p.s, p.cursor
    c = math.floor(t)
    om, t = om.add(c), t - c
    wraps = 0
    while s >= 1.0:
        om, t, s, cur = om.double(), 2.0 * t, s - 1.0, cur + 1
        c = math.floor(t)
        om, t = om.add(c), t - c
        wraps += 1
        if wraps > _MAX_WRAPS:
            raise ValueError("scale coordinate does not wrap down to [0,1)")
    while s < 0.0:
        par = om.parity()
        om = om.add(-par).half()
        t, s, cur = (t + par) / 2.0, s + 1.0, cur - 1
        wraps += 1
        if wraps > _MAX_WRAPS:
            raise ValueError("scale coordinate does not wrap up to [0,1)")
    return HullPoint(om, t, p.colour, cur, s)


def _check_affine(a: float, b: float):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("scale and translation must be finite")
    if a <= 0:
        raise ValueError("scale factor must be positive")


def act(a: float, b: float, p: HullPoint) -> HullPoint:
    """Image of p under z -> a z + b, renormalized.

    The translation lands in t scaled by the new overall scale a * 2**s;
    the scale itself moves s by log2(a).
    """
    _check_affine(a, b)
    u = 2.0 ** p.s
    return normalize(HullPoint(
        p.omega, p.t + b / (a * u), p.colour, p.cursor, p.s + math.log2(a)))


# -- colour relation ----------------------------------------------------

def relation_defects(spec: SubshiftSpec | None, window: ColourWindow,
                     radius: float = 3.0,
                     patch: TileSet | None = None) -> list[tuple[int, int]]:
    """Cells where rescaling the coloured patch disagrees with the shift.

    The doubling map sends cell (k, n) to (k+1, n); colouring by the
    window pins the colour of scale k to the letter at -k.  The rescaled
    patch must therefore match the patch coloured by the shifted window
    letter for letter; the returned list holds the offending (k+1, n)
    cells and is empty exactly when the identity holds.
    """
    if spec is not None:
        word = window.word
        if word not in language(spec, len(word)):
            raise ValueError("window letters do not form an admissible word")
    if patch is None:
        patch = generate_patch(radius, colouring=window)
    shifted = ColourWindow(window.word, window.start - 1)
    bad = []
    for tile in patch.tiles:
        q = tile.k + 1
        if shifted.get(-q) != tile.colour:
            bad.append((q, tile.n))
    return bad


def check_relation_RPw(spec: SubshiftSpec | None, window: ColourWindow,
                       radius: float = 3.0,
                       patch: TileSet | None = None) -> bool:
    return not relation_defects(spec, window, radius, patch)


def random_colour_window(spec: SubshiftSpec, rng, halfwidth: int) -> ColourWindow:
    """Admissible window of letters w[-halfwidth..halfwidth], uniform choice."""
    words = language(spec, 2 * halfwidth + 1)
    return ColourWindow(words[int(rng.integers(0, len(words)))], -halfwidth)


# -- test functions ------------------------------------------------------

@dataclass(frozen=True)
class BumpProfile:
    """Named C2 profile in one real variable.

    "one" is the constant 1; "bump3" is (1 - z**2)**3 on |z| < 1 with
    z = (x - center)/width, zero outside.  Bump support must sit inside
    the open unit interval so wrapping the coordinate never crosses it.
    """

    name: str = "one"
    center: float = 0.5
    width: float = 0.25

    def __post_init__(self):
        if self.name not in ("one", "bump3"):
            raise ValueError(f"unknown profile {self.name!r}")
        if self.name == "bump3":
            if self.width <= 0:
                raise ValueError("bump width must be positive")
            if self.center - self.width <= 0 or self.center + self.width >= 1:
                raise ValueError("bump support must lie inside (0, 1)")

    def __call__(self, x):
        if self.name == "one":
            return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
        z = (x - self.center) / self.width
        if isinstance(z, np.ndarray):
            return np.where(np.abs(z) < 1.0, (1.0 - z * z) ** 3, 0.0)
        return (1.0 - z * z) ** 3 if abs(z) < 1.0 else 0.0

    # max |d^k/dx^k| over the line, from the polynomial (1-z^2)**3:
    # |phi'| <= 2.08, |phi''| <= 6, |phi'''| <= 48, |phi''''| <= 288.
    def deriv_bound(self, order: int) -> float:
        if self.name == "one":
            return 1.0 if order == 0 else 0.0
        mags = {0: 1.0, 1: 2.08, 2: 6.0, 3: 48.0, 4: 288.0}
        return mags[order] / self.width ** order


ONE = BumpProfile("one")


@dataclass(frozen=True)
class TestFunction:
    """Product observable: letters x odometer x smooth (t, s) profile.

    The letter factor reads the window through the cursor, the odometer
    factor depends on finitely many digits of omega, and the (t, s)
    factor is a product of named profiles.  Values are bounded; with
    interior bump profiles in both t and s the function is C2 along
    leaves, because every chart identification happens where the bumps
    vanish to second order.
    """

    word_part: CylinderFunction | None = None
    omega_part: LocallyConstFn | None = None
    t_bump: BumpProfile = ONE
    s_bump: BumpProfile = ONE

    @staticmethod
    def constant() -> "TestFunction":
        return TestFunction()

    @staticmethod
    def bump(t_center: float, t_width: float,
             s_center: float, s_width: float) -> "TestFunction":
        return TestFunction(t_bump=BumpProfile("bump3", t_center, t_width),
                            s_bump=BumpProfile("bump3", s_center, s_width))

    @staticmethod
    def word_indicator(u: str, start: int = 0) -> "TestFunction":
        return TestFunction(word_part=CylinderFunction.of("Z", start, {u: 1}))

    def __call__(self, p: HullPoint) -> float:
        out = 1.0
        if self.word_part is not None:
            a, b = self.word_part.window
            seen = "".join(str(p.letter(j)) for j in range(a, b))
            out *= float(dict(self.word_part.coeffs).get(seen, 0))
        if self.omega_part is not None:
            out *= float(self.omega_part.evaluate(p.omega))
        return out * self.t_bump(p.t) * self.s_bump(p.s)

    def on_batch(self, batch: "SampleBatch") -> np.ndarray:
        out = np.ones(batch.n)
        if self.word_part is not None:
            a, b = self.word_part.window
            lo = batch.origin + a + int(batch.cursor.min())
            hi = batch.origin + b + int(batch.cursor.max())
            if lo < 0 or hi > batch.words.shape[1]:
                raise ColourWindowExhausted(
                    f"sampled window of width {batch.words.shape[1]} cannot "
                    f"serve letter indices [{lo}, {hi})")
            cols = batch.cursor[:, None] + (batch.origin + np.arange(a, b))
            seen = np.take_along_axis(batch.words, cols, axis=1)
            acc = np.zeros(batch.n)
            for u, c in self.word_part.coeffs:
                codes = np.frombuffer(u.encode(), dtype=np.int8) - ord("0")
                acc += float(c) * (seen == codes).all(axis=1)
            out *= acc
        if self.omega_part is not None:
            lev = self.omega_part.level
            if lev > batch.precision:
                raise PrecisionExhausted(
                    f"level-{lev} odometer factor needs {lev} digits, "
                    f"batch retains {batch.precision}")
            table = np.array([float(v) for v in self.omega_part.values])
            out *= table[batch.omega & ((1 << lev) - 1)]
        return out * self.t_bump(batch.t) * self.s_bump(batch.s)

    def sup_bound(self) -> float:
        out = 1.0
        if self.word_part is not None:
            cs = [abs(float(c)) for _, c in self.word_part.coeffs]
            out *= max(cs, default=0.0)
        if self.omega_part is not None:
            out *= max(abs(float(v)) for v in self.omega_part.values)
        return out

    def _amp_excluding(self, skip: str) -> float:
        out = self.sup_bound()
        if skip != "t":
            out *= self.t_bump.deriv_bound(0)
        if skip != "s":
            out *= self.s_bump.deriv_bound(0)
        return out

    def laplacian_bias(self, h: float) -> float:
        """Upper bound for the second-order finite-difference error.

        Central differences of a C4 function err by h**2/12 times the
        fourth derivative along each probed direction.  The translation
        probe scales t by at most 1 per unit step; the scale probe moves
        s through log2, bounded here by a generous chain-rule envelope
        for steps below 1/8.
        """
        mx = self._amp_excluding("t") * self.t_bump.deriv_bound(4)
        w = self.s_bump
        my = self._amp_excluding("s") * (
            4.8 * w.deriv_bound(4) + 20.0 * w.deriv_bound(3)
            + 26.0 * w.deriv_bound(2) + 10.0 * w.deriv_bound(1))
        return h * h / 12.0 * (mx + my)

    def flow_bias(self, h: float) -> float:
        """Central-difference error bound along the unit-speed scale flow."""
        m3 = self._amp_excluding("s") * self.s_bump.deriv_bound(3)
        return h * h / 6.0 * m3


# -- product-measure sampling --------------------------------------------

_CHUNKS = 16


def _worker_count() -> int:
    env = os.environ.get("HYPTILE_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _word_table(spec: SubshiftSpec, length: int):
    """Letter-code matrix of the admissible words and cumulative weights."""
    words = language(spec, length)
    for w in words:
        if not w.isdigit():
            raise ValueError("sampling needs single-digit letters")
    mv = measure_vector(spec, length)
    bounds = []
    if all(mv[w].is_rational for w in words):
        acc = Fraction(0)
        for w in words:
            acc += mv[w].value
            bounds.append(float(acc))
    else:
        acc = 0.0
        for w in words:
            acc += mv[w].as_float()
            bounds.append(acc)
    codes = np.array([[ord(ch) - ord("0") for ch in w] for w in words],
                     dtype=np.int8)
    return codes, np.array(bounds)


class SampleBatch:
    """Column arrays of points drawn from the product measure.

    omega holds residues mod 2**precision; words holds one letter window
    per row with column `origin` at letter index 0.  Batches are cheap
    to copy (the word matrix is shared read-only) so group elements can
    be applied to common random numbers.
    """

    __slots__ = ("omega", "t", "s", "cursor", "words", "origin",
                 "precision", "n")

    def __init__(self, omega, t, s, cursor, words, origin, precision):
        self.omega = omega
        self.t = t
        self.s = s
        self.cursor = cursor
        self.words = words
        self.origin = origin
        self.precision = precision
        self.n = len(t)

    def copy(self) -> "SampleBatch":
        return SampleBatch(self.omega.copy(), self.t.copy(), self.s.copy(),
                           self.cursor.copy(), self.words, self.origin,
                           self.precision)

    @property
    def mask(self) -> int:
        return (1 << self.precision) - 1

    def _carry(self):
        c = np.floor(self.t)
        # fmod is exact, and |wrap| < 2**precision <= 2**62 fits in int64
        wrap = np.fmod(c, float(1 << self.precision)).astype(np.int64)
        self.omega = (self.omega + wrap) & self.mask
        self.t = self.t - c

    def normalize(self):
        self._carry()
        for _ in range(_MAX_WRAPS):
            m = self.s >= 1.0
            if not m.any():
                break
            self.omega[m] = (self.omega[m] << 1) & self.mask
            self.t[m] *= 2.0
            self.s[m] -= 1.0
            self.cursor[m] += 1
            self._carry()
        else:
            raise ValueError("scale coordinate does not wrap down to [0,1)")
        for _ in range(_MAX_WRAPS):
            m = self.s < 0.0
            if not m.any():
                break
            if self.precision == 0:
                raise PrecisionExhausted("no dyadic digits left to halve")
            par = self.omega[m] & 1
            self.omega[m] = (self.omega[m] - par) >> 1
            self.t[m] = (self.t[m] + par) / 2.0
            self.s[m] += 1.0
            self.cursor[m] -= 1
            # one digit gone for the whole batch: residues stay comparable
            self.precision -= 1
            self.omega &= self.mask
        else:
            raise ValueError("scale coordinate does not wrap up to [0,1)")

    def act(self, a: float, b: float):
        _check_affine(a, b)
        self.t = self.t + b / (a * np.exp2(self.s))
        self.s = self.s + math.log2(a)
        self.normalize()

    def point(self, i: int) -> HullPoint:
        word = "".join(chr(ord("0") + int(c)) for c in self.words[i])
        return HullPoint(DyadicInt(int(self.omega[i]), self.precision),
                         float(self.t[i]),
                         ColourWindow(word, -self.origin),
                         int(self.cursor[i]), float(self.s[i]))


def sample_batch(spec: SubshiftSpec, n: int, seed: int, *,
                 precision: int = 48, halfwidth: int = 8,
                 word_bias: str | None = None) -> SampleBatch:
    """n points: omega and (t, s) uniform, letter windows by their measure.

    Sampling is split over a fixed number of child RNG streams spawned
    from the master seed, so results are bit-identical for a given
    (spec, n, seed) regardless of worker-thread count (capped by the
    HYPTILE_THREADS environment variable).  word_bias="first-word"
    replaces the letter distribution by a deterministic constant draw;
    that sampler is deliberately wrong, for negative controls.
    """
    if precision < 1 or precision > 62:
        raise ValueError("precision must be in [1, 62]")
    if word_bias not in (None, "first-word"):
        raise ValueError(f"unknown word bias {word_bias!r}")
    codes, bounds = _word_table(spec, 2 * halfwidth + 1)
    children = np.random.SeedSequence(seed).spawn(_CHUNKS)
    sizes = [n // _CHUNKS + (1 if i < n % _CHUNKS else 0)
             for i in range(_CHUNKS)]

    def draw(args):
        child, size = args
        rng = np.random.default_rng(child)
        om = rng.integers(0, 1 << precision, size=size, dtype=np.int64)
        t = rng.random(size)
        s = rng.random(size)
        u = rng.random(size)
        if word_bias == "first-word":
            idx = np.zeros(size, dtype=np.int64)
        else:
            idx = np.minimum(np.searchsorted(bounds, u, side="right"),
                             len(bounds) - 1)
        return om, t, s, idx

    with ThreadPoolExecutor(max_workers=_worker_count()) as ex:
        parts = list(ex.map(draw, zip(children, sizes)))
    om = np.concatenate([p[0] for p in parts])
    t = np.concatenate([p[1] for p in parts])
    s = np.concatenate([p[2] for p in parts])
    idx = np.concatenate([p[3] for p in parts])
    return SampleBatch(om, t, s, np.zeros(n, dtype=np.int64),
                       codes[idx], halfwidth, precision)


def sample_product_measure(spec: SubshiftSpec, rng_seed: int, *,
                           precision: int = 48,
                           halfwidth: int = 8) -> HullPoint:
    """One deterministic draw from the product measure."""
    return sample_batch(spec, 1, rng_seed, precision=precision,
                        halfwidth=halfwidth).point(0)


# -- Monte-Carlo checks ---------------------------------------------------

def _report(stat, se, n, ok, seed, **extra) -> dict:
    out = {"statistic": float(stat), "std_error": float(se), "n": int(n),
           "pass": bool(ok), "seed": seed}
    out.update(extra)
    return out


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    n = len(x)
    se = float(x.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return float(x.mean()), se


_EXACT_SLACK = 1e-12


def invariance_check(spec: SubshiftSpec, f: TestFunction, g_list,
                     n_samples: int, seed: int, *,
                     precision: int = 48, halfwidth: int = 8,
                     word_bias: str | None = None) -> dict:
    """Compare E[f o g] with E[f] for each affine g = (a, b).

    Common random numbers: every g is applied to a copy of one shared
    sample, so the difference f(g.p) - f(p) is averaged pairwise and its
    own spread sets the 3-sigma tolerance.  The top-level statistic is
    the worst absolute difference over g_list.
    """
    base = sample_batch(spec, n_samples, seed, precision=precision,
                        halfwidth=halfwidth, word_bias=word_bias)
    f0 = f.on_batch(base)
    per_g = []
    worst = (0.0, 0.0)
    ok_all = True
    for a, b in g_list:
        moved = base.copy()
        moved.act(a, b)
        d = f.on_batch(moved) - f0
        diff, se = _mean_se(d)
        ok = abs(diff) <= 3.0 * se + _EXACT_SLACK
        ok_all = ok_all and ok
        if abs(diff) >= worst[0]:
            worst = (abs(diff), se)
        per_g.append({"g": [float(a), float(b)], "statistic": diff,
                      "std_error": se, "pass": ok})
    return _report(worst[0], worst[1], n_samples, ok_all, seed, per_g=per_g)


def _validate_step(h: float):
    if not (2.0 ** -20 <= h <= 0.125):
        raise ValueError("finite-difference step outside [2**-20, 1/8]")


def harmonicity_check(spec: SubshiftSpec, f: TestFunction, n_samples: int,
                      seed: int, *, h: float = 2.0 ** -6,
                      precision: int = 48, halfwidth: int = 8) -> dict:
    """Estimate the mean leafwise Laplacian of f against the sample.

    At each point the leaf is charted by (x, y) -> (y, x).p with the
    base at (0, 1), where the metric Laplacian is the flat one; second
    central differences along both axes give y**2 (f_xx + f_yy) up to
    the reported O(h**2) bias bound.
    """
    _validate_step(h)
    base = sample_batch(spec, n_samples, seed, precision=precision,
                        halfwidth=halfwidth)

    def probe(a, b):
        m = base.copy()
        m.act(a, b)
        return f.on_batch(m)

    centre = f.on_batch(base)
    lap = (probe(1.0, h) + probe(1.0, -h)
           + probe(1.0 + h, 0.0) + probe(1.0 - h, 0.0)
           - 4.0 * centre) / (h * h)
    stat, se = _mean_se(lap)
    bias = f.laplacian_bias(h)
    ok = abs(stat) <= 3.0 * se + bias + _EXACT_SLACK
    return _report(stat, se, n_samples, ok, seed, fd_bias=bias, h=h)


def tau_pairing(spec: SubshiftSpec, f: TestFunction, g: TestFunction,
                n_samples: int, seed: int, *, h: float = 2.0 ** -6,
                precision: int = 48, halfwidth: int = 8) -> dict:
    """Flow-derivative pairing E[Y(f) g] with its antisymmetry defect.

    Y differentiates along the scale flow (unit speed in s, realized by
    acting with a = 2**(+-h)); the defect |E[Y(f) g] + E[Y(g) f]|
    estimates E[Y(f g)], which invariance makes zero, so it must stay
    within 3 sigma plus the finite-difference bias.
    """
    _validate_step(h)
    base = sample_batch(spec, n_samples, seed, precision=precision,
                        halfwidth=halfwidth)

    def flow_diff(fn):
        up = base.copy()
        up.act(2.0 ** h, 0.0)
        down = base.copy()
        down.act(2.0 ** -h, 0.0)
        return (fn.on_batch(up) - fn.on_batch(down)) / (2.0 * h)

    yf = flow_diff(f)
    yg = flow_diff(g)
    f0 = f.on_batch(base)
    g0 = g.on_batch(base)
    tau, se = _mean_se(yf * g0)
    defect, se_d = _mean_se(yf * g0 + yg * f0)
    bias = 2.0 * (f.flow_bias(h) * g.sup_bound()
                  + g.flow_bias(h) * f.sup_bound())
    ok = abs(defect) <= 3.0 * se_d + bias + _EXACT_SLACK
    return _report(tau, se, n_samples, ok, seed,
                   antisymmetry_defect=abs(defect), defect_std_error=se_d,
                   fd_bias=bias, h=h)
