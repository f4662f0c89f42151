"""Doubly suspended odometer-subshift points and their affine symmetry.

Points are the rows of a SampleBatch (a single point is a one-row
batch), stored column-wise by four coordinates: a 2-adic integer omega
with t in [0,1) (suspension of the odometer x -> x+1), a letter window
with a cursor into it, and s in [0,1), the base-2 logarithm of a
positive scale.  Crossing s = 1 downward is identified with doubling
the odometer part and shifting the letters left by one; crossing s = 0
is the inverse, which halves omega (branching on parity) and costs the
batch one dyadic digit.  Keeping the scale in log base 2 makes both
identifications unit translations in s.  Doubling t and shifting omega
are exact, so k downward crossings are one shift by k bits and one
carry; halving t + parity rounds, so upward crossings take one step per
digit.

The affine map z -> a z + b acts by scaling s and feeding b, divided by
the new scale, into the suspension coordinate t; integer carries flow
into omega.  Monte-Carlo checks (invariance of the product measure,
leafwise harmonicity, the flow pairing) run on batches drawn from a
fixed number of RNG streams spawned from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .dyadic import LocallyConstFn, PrecisionExhausted
from .geometry import ColourWindow, ColourWindowExhausted, TileSet, generate_patch
from .ktheory import CylinderFunction
from .subshift import SubshiftSpec, alphabet, language, measure_vector

__all__ = [
    "check_relation_RPw",
    "relation_defects",
    "random_colour_window",
    "BumpProfile",
    "TestFunction",
    "SampleBatch",
    "sample_batch",
    "first_word_control",
    "invariance_check",
    "invariance_reports",
    "harmonicity_check",
    "harmonicity_report",
    "tau_pairing",
    "tau_reports",
]

_MAX_WRAPS = 64
# 2**k for k scale wraps: a lookup is several times faster than np.ldexp
_POW2 = np.ldexp(1.0, np.arange(_MAX_WRAPS))


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
    shifted = ColourWindow(window.word, window.start - 1, window.alphabet)
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
    return ColourWindow(words[int(rng.integers(0, len(words)))], -halfwidth,
                        alphabet(spec))


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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.name == "one":
            return np.ones_like(x)
        z = np.subtract(x, self.center, out=np.empty_like(x, dtype=float))
        z /= self.width
        # pow is slow on negative bases, so evaluate only on the support
        # (keep the power 3: u * u * u differs in the last bit)
        inside = np.abs(z) < 1.0
        u = z[inside]
        np.square(u, out=u)
        np.subtract(1.0, u, out=u)
        np.power(u, 3, out=u)
        z.fill(0.0)
        z[inside] = u
        return z

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

    def on_batch(self, batch: "SampleBatch") -> np.ndarray:
        # letter x omega x t x s; constant profiles are skipped: x * 1.0 == x
        out = None
        for factor in self._factors(batch):
            out = factor if out is None else np.multiply(out, factor, out=out)
        return np.ones(batch.n) if out is None else out

    def _factors(self, batch: "SampleBatch"):
        if self.word_part is not None:
            a, b = self.word_part.window
            cmin = int(batch.cursor.min())
            lo = batch.origin + a + cmin
            hi = batch.origin + b + int(batch.cursor.max())
            width = len(batch.windows[0])
            if lo < 0 or hi > width:
                raise ColourWindowExhausted(
                    f"sampled window of width {width} cannot "
                    f"serve letter indices [{lo}, {hi})")
            table = _letter_table(self.word_part, batch.windows, lo, hi)
            offsets = hi - lo - (b - a) + 1
            yield table.take(batch.index * offsets + (batch.cursor - cmin))
        if self.omega_part is not None:
            lev = self.omega_part.level
            if lev > batch.precision:
                raise PrecisionExhausted(
                    f"level-{lev} odometer factor needs {lev} digits, "
                    f"batch retains {batch.precision}")
            table = np.array([float(v) for v in self.omega_part.values])
            yield table.take(batch.omega & ((1 << lev) - 1))
        for bump, x in ((self.t_bump, batch.t), (self.s_bump, batch.s)):
            if bump.name != "one":
                yield bump(x)

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


@lru_cache(maxsize=64)
def _letter_table(word_part: CylinderFunction, windows: tuple, lo: int,
                  hi: int) -> np.ndarray:
    """word_part on each window read from each offset in [lo, hi), flat.

    Every row block of a check asks for the same few tables, so they are
    built once.
    """
    length = word_part.window[1] - word_part.window[0]
    coeffs = dict(word_part.coeffs)
    table = np.array([float(coeffs.get(w[j:j + length], 0))
                      for w in windows for j in range(lo, hi - length + 1)])
    table.flags.writeable = False
    return table


# -- product-measure sampling --------------------------------------------

_CHUNKS = 16


def _cumulative_measure(spec: SubshiftSpec, words) -> np.ndarray:
    """Running sums of the measures of words, all of one length."""
    mv = measure_vector(spec, len(words[0]))
    exact = all(isinstance(mv[w], Fraction) for w in words)
    sums = accumulate(mv[w] if exact else float(mv[w]) for w in words)
    return np.array([float(x) for x in sums])


class SampleBatch:
    """Column arrays of points drawn from the product measure.

    omega holds residues mod 2**precision; row i reads the letter window
    windows[index[i]], whose position `origin` is letter index 0.
    act rebinds the coordinate arrays and never writes into them, so
    copies share every array and group elements can be applied to
    common random numbers at no cost.
    """

    __slots__ = ("omega", "t", "s", "cursor", "index", "windows", "origin",
                 "precision", "n")

    def __init__(self, omega, t, s, cursor, index, windows, origin,
                 precision):
        self.omega = omega
        self.t = t
        self.s = s
        self.cursor = cursor
        self.index = index
        self.windows = windows
        self.origin = origin
        self.precision = precision
        self.n = len(t)

    def copy(self) -> "SampleBatch":
        return self.with_index(self.index)

    def rows(self, rows: slice) -> "SampleBatch":
        """The rows in a slice, as views of the coordinate arrays."""
        return SampleBatch(self.omega[rows], self.t[rows], self.s[rows],
                           self.cursor[rows], self.index[rows], self.windows,
                           self.origin, self.precision)

    def with_index(self, index) -> "SampleBatch":
        """The same coordinate arrays (shared, not copied) with other windows."""
        return SampleBatch(self.omega, self.t, self.s, self.cursor, index,
                           self.windows, self.origin, self.precision)

    def normalize(self):
        """Carry t and s into normal form: the action of the identity."""
        self.act(1.0, 0.0)

    def act(self, a: float, b: float):
        if not (math.isfinite(a) and math.isfinite(b) and a > 0):
            raise ValueError("need a finite scale a > 0, finite translation")
        t = b / (a * np.exp2(self.s))
        t += self.t
        s = self.s + math.log2(a)
        c = np.floor(t)
        t -= c
        # a tiny negative t leaves 1 - |t|, which rounds to 1.0: one more wrap
        up = t == 1.0
        c += up
        t[up] = 0.0
        # fmod(c, 2**precision) with exact steps, but faster
        c -= np.trunc(c * 2.0 ** -self.precision) * 2.0 ** self.precision
        omega = c.astype(np.int64)
        omega += self.omega
        f = np.floor(s)
        if f.max() >= _MAX_WRAPS:
            raise ValueError("scale coordinate does not wrap down to [0,1)")
        cursor = f.astype(np.int64)
        s -= f
        # k wraps down in s double t and shift omega, all exactly, so they
        # are one shift and one carry below 2**63; omega stays exact mod
        # 2**64 (uint64 wraps) and is reduced once, at the end
        k = np.maximum(cursor, 0)
        t *= _POW2.take(k, out=f)
        np.floor(t, out=c)
        t -= c
        u = omega.view(np.uint64)
        u <<= k.view(np.uint64)
        u += c.astype(np.uint64)
        # wraps up halve t + parity, which rounds: one step per digit
        d = np.subtract(k, cursor, out=k)
        steps = int(d.max())
        if steps > self.precision:
            raise PrecisionExhausted("no dyadic digits left to halve")
        for j in range(steps):
            np.copyto(t, (t + ((omega >> j) & 1)) / 2.0, where=d > j)
        # one digit gone for the whole batch per step: residues stay comparable
        self.precision -= steps
        omega >>= d
        omega &= (1 << self.precision) - 1
        cursor += self.cursor
        self.omega, self.t, self.s, self.cursor = omega, t, s, cursor


def sample_batch(spec: SubshiftSpec, n: int, seed: int, *,
                 precision: int = 48, halfwidth: int = 8) -> SampleBatch:
    """n points: omega and (t, s) uniform, letter windows by their measure.

    The windows are the admissible words of length 2*halfwidth + 1 in
    language order.  Rows are drawn in a fixed number of chunks, each
    from its own child RNG stream spawned from the seed, so the draw is
    a function of (spec, n, seed) alone.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    if precision < 1 or precision > 62:
        raise ValueError("precision must be in [1, 62]")
    windows = tuple(language(spec, 2 * halfwidth + 1))
    bounds = _cumulative_measure(spec, windows)
    parts = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(_CHUNKS)):
        size = n // _CHUNKS + (1 if i < n % _CHUNKS else 0)
        rng = np.random.default_rng(child)
        parts.append((rng.integers(0, 1 << precision, size=size,
                                   dtype=np.int64),
                      rng.random(size), rng.random(size), rng.random(size)))
    om, t, s, u = (np.concatenate(col) for col in zip(*parts))
    index = np.minimum(np.searchsorted(bounds, u, side="right"),
                       len(bounds) - 1)
    return SampleBatch(om, t, s, np.zeros(n, dtype=np.int64), index,
                       windows, halfwidth, precision)


def first_word_control(batch: SampleBatch) -> SampleBatch:
    """batch's coordinates with every row reading the first window.

    A deliberately wrong letter distribution that shares the genuine
    check's sample and its moved copies, for negative controls.
    """
    return batch.with_index(np.zeros_like(batch.index))


# -- Monte-Carlo checks ---------------------------------------------------

def _report(stat, se, n, ok, seed, **extra) -> dict:
    out = {"statistic": float(stat), "std_error": float(se), "n": int(n),
           "pass": bool(ok), "seed": seed}
    out.update(extra)
    return out


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    return float(x.mean()), float(x.std(ddof=1)) / math.sqrt(len(x))


def _check_rows(base: SampleBatch):
    if base.n < 2:
        raise ValueError("a standard error needs at least 2 samples, "
                         f"the batch has {base.n}")


# Most rows per block in the checks: an action's block-sized temporaries
# are reused from the heap, where whole-batch ones were mapped and
# faulted in again at every action; at 2048 rows numpy's per-call cost
# shows.
_BLOCK = 16384


def _moved(batch: SampleBatch, a: float, b: float,
           precision: int | None = None) -> SampleBatch:
    """A copy of batch acted on by (a, b), keeping at most precision digits."""
    out = batch.copy()
    out.act(a, b)
    if precision is not None and precision < out.precision:
        out.omega = out.omega & ((1 << precision) - 1)
        out.precision = precision
    return out


def _per_row(base: SampleBatch, values, size: int = _BLOCK) -> list:
    """Full-length columns of per-row values, computed a block at a time.

    values(rows, block, move) yields arrays over `block`, the view of
    base's rows in the slice `rows`, one per column; move(a, b) is a
    moved copy of the block.  Each block keeps the digits the whole
    batch keeps (those of its row with the smallest s, which halves the
    most), so a moved block holds exactly the whole batch's moved rows,
    and the columns reduce to the whole batch's statistics bit for bit.
    If a block raises, the whole batch runs as one block and raises its
    first error.
    """
    if size >= base.n:
        return list(values(slice(None), base,
                           lambda a, b: _moved(base, a, b)))
    i = int(base.s.argmin())
    lowest = base.rows(slice(i, i + 1))
    digits = {}

    def kept(a, b):
        if (a, b) not in digits:
            digits[a, b] = _moved(lowest, a, b).precision
        return digits[a, b]

    blocks = -(-base.n // size)
    size = -(-base.n // blocks)  # blocks as equal as possible, none larger
    cols = []
    try:
        for lo in range(0, base.n, size):
            rows = slice(lo, lo + size)
            block = base.rows(rows)
            for j, v in enumerate(values(rows, block, lambda a, b:
                                         _moved(block, a, b, kept(a, b)))):
                if j == len(cols):
                    cols.append(np.empty(base.n, dtype=v.dtype))
                cols[j][rows] = v
    except (ValueError, PrecisionExhausted, ColourWindowExhausted):
        return _per_row(base, values, base.n)
    return cols


_EXACT_SLACK = 1e-12


def invariance_check(spec: SubshiftSpec, f: TestFunction, g_list,
                     n_samples: int, seed: int) -> dict:
    """Compare E[f o g] with E[f] for each affine g = (a, b).

    Common random numbers: every g is applied to a copy of one shared
    sample, so the difference f(g.p) - f(p) is averaged pairwise and its
    own spread sets the 3-sigma tolerance.  The top-level statistic is
    the worst absolute difference over g_list.
    """
    base = sample_batch(spec, n_samples, seed)
    return invariance_reports(base, [(f, base.index)], g_list, seed)[0]


def invariance_reports(base: SampleBatch, cases, g_list,
                       seed: int) -> list[dict]:
    """invariance_check's report for each (f, index) case on one sample.

    Each case pairs a test function with window indices for base's rows
    (base.index, or a control's from first_word_control).  Each g acts
    once on each block of base's rows, and every case is evaluated on
    the moved block; only the per-g scalars are kept.
    """
    _check_rows(base)
    f0 = _per_row(base, lambda rows, block, move: (
        f.on_batch(block.with_index(index[rows])) for f, index in cases))
    per_g = [[] for _ in cases]
    for a, b in g_list:
        def diffs(rows, block, move):
            moved = move(a, b)
            for (f, index), fk in zip(cases, f0):
                yield f.on_batch(moved.with_index(index[rows])) - fk[rows]

        for d, out in zip(_per_row(base, diffs), per_g):
            diff, se = _mean_se(d)
            out.append({"g": [float(a), float(b)], "statistic": diff,
                        "std_error": se,
                        "pass": abs(diff) <= 3.0 * se + _EXACT_SLACK})
    reports = []
    for entries in per_g:
        worst = (0.0, 0.0)
        for e in entries:
            if abs(e["statistic"]) >= worst[0]:
                worst = (abs(e["statistic"]), e["std_error"])
        reports.append(_report(worst[0], worst[1], base.n,
                               all(e["pass"] for e in entries), seed,
                               per_g=entries))
    return reports


def _validate_step(h: float):
    if not (2.0 ** -20 <= h <= 0.125):
        raise ValueError("finite-difference step outside [2**-20, 1/8]")


def harmonicity_check(spec: SubshiftSpec, f: TestFunction, n_samples: int,
                      seed: int, *, h: float = 2.0 ** -6) -> dict:
    """Estimate the mean leafwise Laplacian of f against the sample.

    At each point the leaf is charted by (x, y) -> (y, x).p with the
    base at (0, 1), where the metric Laplacian is the flat one; second
    central differences along both axes give y**2 (f_xx + f_yy) up to
    the reported O(h**2) bias bound.
    """
    _validate_step(h)
    base = sample_batch(spec, n_samples, seed)
    return harmonicity_report(base, f, seed, h=h)


def harmonicity_report(base: SampleBatch, f: TestFunction, seed: int, *,
                       h: float = 2.0 ** -6) -> dict:
    """harmonicity_check's report on a given sample."""
    _validate_step(h)
    _check_rows(base)

    def laplacian(rows, block, move):
        centre = f.on_batch(block)
        yield (f.on_batch(move(1.0, h)) + f.on_batch(move(1.0, -h))
               + f.on_batch(move(1.0 + h, 0.0))
               + f.on_batch(move(1.0 - h, 0.0))
               - 4.0 * centre) / (h * h)

    lap, = _per_row(base, laplacian)
    stat, se = _mean_se(lap)
    bias = f.laplacian_bias(h)
    ok = abs(stat) <= 3.0 * se + bias + _EXACT_SLACK
    return _report(stat, se, base.n, ok, seed, fd_bias=bias, h=h)


def tau_pairing(spec: SubshiftSpec, f: TestFunction, g: TestFunction,
                n_samples: int, seed: int, *, h: float = 2.0 ** -6) -> dict:
    """Flow-derivative pairing E[Y(f) g] with its antisymmetry defect.

    Y differentiates along the scale flow (unit speed in s, realized by
    acting with a = 2**(+-h)); the defect |E[Y(f) g] + E[Y(g) f]|
    estimates E[Y(f g)], which invariance makes zero, so it must stay
    within 3 sigma plus the finite-difference bias.
    """
    _validate_step(h)
    base = sample_batch(spec, n_samples, seed)
    return tau_reports(base, [(f, g)], seed, h=h)[0]


def tau_reports(base: SampleBatch, pairs, seed: int, *,
                h: float = 2.0 ** -6) -> list[dict]:
    """tau_pairing's report for each (f, g) pair on one sample.

    The flow moves each block of base's rows up and down once, and every
    pair is evaluated on those two moved blocks.
    """
    _validate_step(h)
    _check_rows(base)

    def products(rows, block, move):
        up, down = move(2.0 ** h, 0.0), move(2.0 ** -h, 0.0)

        def flow_diff(fn):
            return (fn.on_batch(up) - fn.on_batch(down)) / (2.0 * h)

        for f, g in pairs:
            yf = flow_diff(f)
            yg = flow_diff(g)
            f0 = f.on_batch(block)
            yf_g0 = yf * g.on_batch(block)
            yield yf_g0
            yield yf_g0 + yg * f0

    cols = _per_row(base, products)
    reports = []
    for (f, g), yf_g0, sym in zip(pairs, cols[::2], cols[1::2]):
        tau, se = _mean_se(yf_g0)
        defect, se_d = _mean_se(sym)
        bias = 2.0 * (f.flow_bias(h) * g.sup_bound()
                      + g.flow_bias(h) * f.sup_bound())
        ok = abs(defect) <= 3.0 * se_d + bias + _EXACT_SLACK
        reports.append(_report(
            tau, se, base.n, ok, seed, antisymmetry_defect=abs(defect),
            defect_std_error=se_d, fd_bias=bias, h=h))
    return reports
