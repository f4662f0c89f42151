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
from collections import namedtuple
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .dyadic import PrecisionExhausted
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
# the factor of a halving step, by whether the row halves
_HALVE = np.array([1.0, 0.5])


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

class BumpProfile(namedtuple("BumpProfile", "name center width")):
    """Named C2 profile in one real variable.

    "one" is the constant 1; "bump3" is (1 - z**2)**3 on |z| < 1 with
    z = (x - center)/width, zero outside.  Bump support must sit inside
    the open unit interval so wrapping the coordinate never crosses it.
    """

    __slots__ = ()

    def __new__(cls, name: str = "one", center: float = 0.5,
                width: float = 0.25):
        if name not in ("one", "bump3"):
            raise ValueError(f"unknown profile {name!r}")
        if name == "bump3":
            # a NaN fails every comparison below, so it is refused first
            if not (math.isfinite(center) and math.isfinite(width)):
                raise ValueError("bump center and width must be finite")
            if width <= 0:
                raise ValueError("bump width must be positive")
            if center - width <= 0 or center + width >= 1:
                raise ValueError("bump support must lie inside (0, 1)")
        return super().__new__(cls, name, center, width)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.name == "one":
            return np.ones_like(x)
        z = np.subtract(x, self.center, out=np.empty_like(x, dtype=float))
        z /= self.width
        np.clip(z, -1.0, 1.0, out=z)
        np.square(z, out=z)
        np.subtract(1.0, z, out=z)
        # off the support the clamp makes u = 1 - z**2 exactly +0.0, so its
        # cube is +0.0 with no mask; (u * u) * u is two IEEE multiplies and
        # so the same bits on every SIMD path, which np.power's are not
        cube = np.square(z)
        cube *= z
        return cube

    # max |d^k/dx^k| over the line, from the polynomial (1-z^2)**3:
    # |phi'| <= 2.08, |phi''| <= 6, |phi'''| <= 48, |phi''''| <= 288.
    def deriv_bound(self, order: int) -> float:
        if self.name == "one":
            return 1.0 if order == 0 else 0.0
        mags = {0: 1.0, 1: 2.08, 2: 6.0, 3: 48.0, 4: 288.0}
        return mags[order] / self.width ** order


ONE = BumpProfile("one")


class TestFunction(namedtuple("TestFunction",
                              "word_part omega_part t_bump s_bump",
                              defaults=(None, None, ONE, ONE))):
    """Product observable: letters x odometer x smooth (t, s) profile.

    The letter factor reads the window through the cursor, the odometer
    factor depends on finitely many digits of omega, and the (t, s)
    factor is a product of named profiles.  Values are bounded; with
    interior bump profiles in both t and s the function is C2 along
    leaves, because every chart identification happens where the bumps
    vanish to second order.  word_part is a CylinderFunction or None,
    omega_part a LocallyConstFn or None, and both bumps BumpProfiles.
    """

    __slots__ = ()

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

    @property
    def letters_only(self) -> bool:
        """Whether the function reads the letter window alone.

        Then it reads no t, omega or s, and a batch moved by
        SampleBatch.scaled serves it as well as one moved by act.
        """
        return (self.omega_part is None and self.t_bump.name == "one"
                and self.s_bump.name == "one")

    def on_batch(self, batch: "SampleBatch") -> np.ndarray:
        # letter x omega x t x s; constant profiles are skipped: x * 1.0 == x
        out = None
        for factor in self._factors(batch):
            out = factor if out is None else np.multiply(out, factor, out=out)
            # a spent factor's buffer is free for the next one
            del factor
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
    act and scaled return the moved batch and never write into the
    receiver or its arrays, so group elements can be applied to common
    random numbers at no cost.  A batch from scaled has t and omega None.
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
        self.n = len(s)

    def rows(self, rows: slice) -> "SampleBatch":
        """The rows in a slice, as views of the coordinate arrays."""
        return SampleBatch(self.omega[rows], self.t[rows], self.s[rows],
                           self.cursor[rows], self.index[rows], self.windows,
                           self.origin, self.precision)

    def with_index(self, index) -> "SampleBatch":
        """The same coordinate arrays (shared, not copied) with other windows."""
        return SampleBatch(self.omega, self.t, self.s, self.cursor, index,
                           self.windows, self.origin, self.precision)

    def normalize(self) -> "SampleBatch":
        """t and s carried into normal form: the action of the identity."""
        return self.act(1.0, 0.0)

    def _scale(self, a: float, b: float):
        """The scale half of act: the moved s and its wraps, writing nothing.

        Returns s in [0, 1), floor of the unwrapped s (float and int64),
        its maximum and the digits its halvings use.  Every error act
        raises is raised here.
        """
        if not (math.isfinite(a) and math.isfinite(b) and a > 0):
            raise ValueError("need a finite scale a > 0, finite translation")
        s = self.s + math.log2(a)
        f = np.floor(s)
        top, low = f.max(), f.min()
        if top >= _MAX_WRAPS:
            raise ValueError("scale coordinate does not wrap down to [0,1)")
        cursor = f.astype(np.int64)
        s -= f
        steps = max(-int(low), 0)
        if steps > self.precision:
            raise PrecisionExhausted("no dyadic digits left to halve")
        return s, f, cursor, top, steps

    def scaled(self, a: float, b: float) -> "SampleBatch":
        """A copy moved by (a, b) in s, the cursor and the precision alone.

        Its t and omega are None.  A test function that reads neither
        (TestFunction.letters_only) takes the same values on it as on
        the fully moved copy, and it raises exactly what act raises.
        """
        s, _, cursor, _, steps = self._scale(a, b)
        cursor += self.cursor
        return SampleBatch(None, None, s, cursor, self.index, self.windows,
                           self.origin, self.precision - steps)

    def act(self, a: float, b: float) -> "SampleBatch":
        """The batch moved by z -> a z + b."""
        s, f, cursor, top, steps = self._scale(a, b)
        # b / (a * 2**s) is a zero of b's sign when b is zero
        t = self.t + b if b == 0 else b / (a * np.exp2(self.s)) + self.t
        c = np.floor(t)
        t -= c
        # a tiny negative t leaves 1 - |t|, which rounds to 1.0: one more wrap
        up = t == 1.0
        c[up] += 1.0
        t[up] = 0.0
        # |c| < 2**62 casts exactly, omega + c stays in int64 and the last
        # mask reduces it; else fmod(c, 2**precision) in exact steps, faster
        if not (-2.0 ** 62 < c.min() and c.max() < 2.0 ** 62):
            c -= np.trunc(c * 2.0 ** -self.precision) * 2.0 ** self.precision
        omega = c.astype(np.int64)
        omega += self.omega
        if top > 0:
            # k wraps down in s double t and shift omega, all exactly, so
            # they are one shift and one carry below 2**63; omega stays
            # exact mod 2**64 (uint64 wraps) and is reduced once, at the end
            k = np.maximum(cursor, 0)
            t *= _POW2.take(k, out=f)
            np.floor(t, out=c)
            t -= c
            u = omega.view(np.uint64)
            u <<= k.view(np.uint64)
            u += c.astype(np.uint64)
        # wraps up halve t + parity, which rounds: one step per digit, on
        # every row without a branch (a row that stays adds 0, times 1)
        for j in range(steps):
            halve = cursor < -j
            t += ((omega >> j) & halve).astype(float)
            t *= _HALVE.take(halve)
        if steps:
            omega >>= np.maximum(-cursor, 0)
        # one digit gone for the whole batch per step: residues stay comparable
        precision = self.precision - steps
        omega &= (1 << precision) - 1
        cursor += self.cursor
        return SampleBatch(omega, t, s, cursor, self.index, self.windows,
                           self.origin, precision)


def _window_lookup(bounds: np.ndarray):
    """u -> min(searchsorted(bounds, u, "right"), K - 1), by a guide table.

    Chen and Asau's indexed search over the K non-decreasing bounds:
    guide[j] is the first bound above (j - 1)/m for m = 4K buckets, so
    a u whose u*m rounds up to j still starts at or below its own index,
    and a forward walk over the bounds, padded with +inf, stops at it.
    The clamp keeps a u above the last bound (which rounding may leave
    below 1) on the last window.  The lookup writes into out.
    """
    last = len(bounds) - 1
    m = 4 * len(bounds)
    guide = np.searchsorted(bounds, (np.arange(m) - 1.0) / m, side="right")
    padded = np.append(bounds, np.inf)

    def lookup(u: np.ndarray, out: np.ndarray):
        j = guide.take((u * m).astype(np.intp))
        step = padded.take(j) <= u
        while step.any():
            j += step
            np.less_equal(padded.take(j), u, out=step)
        np.minimum(j, last, out=out)

    return lookup


def _integer(name: str, value) -> int:
    """value as an int; a bool or a non-integer is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    # a numpy integer's 1 << precision would wrap in its own width
    return int(value)


def _seed(seed) -> int:
    """seed as an int; a bool, a non-integer or a negative is refused."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def sample_batch(spec: SubshiftSpec, n: int, seed: int, *,
                 precision: int = 48, halfwidth: int = 8) -> SampleBatch:
    """n points: omega and (t, s) uniform, letter windows by their measure.

    The windows are the admissible words of length 2*halfwidth + 1 in
    language order.  Rows are drawn in a fixed number of chunks, each
    from its own child RNG stream spawned from the seed, so the draw is
    a function of (spec, n, seed) alone.  Each stream fills its rows of
    the omega, t and s columns in place and turns its own letter
    uniforms into window indices through a guide table, which gives the
    index a binary search over the cumulative measure gives, to the bit.
    """
    seed = _seed(seed)
    n, precision, halfwidth = map(_integer, ("n", "precision", "halfwidth"),
                                  (n, precision, halfwidth))
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    if precision < 1 or precision > 62:
        raise ValueError("precision must be in [1, 62]")
    if halfwidth < 0:
        raise ValueError(f"halfwidth must be non-negative, got {halfwidth}")
    windows = tuple(language(spec, 2 * halfwidth + 1))
    lookup = _window_lookup(_cumulative_measure(spec, windows))
    om = np.empty(n, dtype=np.int64)
    t, s = np.empty(n), np.empty(n)
    index = np.empty(n, dtype=np.intp)
    lo = 0
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(_CHUNKS)):
        size = n // _CHUNKS + (1 if i < n % _CHUNKS else 0)
        rows = slice(lo, lo + size)
        lo += size
        rng = np.random.default_rng(child)
        om[rows] = rng.integers(0, 1 << precision, size=size, dtype=np.int64)
        rng.random(out=t[rows])
        rng.random(out=s[rows])
        lookup(rng.random(size), index[rows])
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
    # numpy's std(ddof=1) in its own steps, with the mean summed once
    n = len(x)
    mean = np.add.reduce(x) / n
    d = x - mean
    np.multiply(d, d, out=d)
    return float(mean), math.sqrt(np.add.reduce(d) / (n - 1)) / math.sqrt(n)


def _check_rows(base: SampleBatch):
    if base.n < 2:
        raise ValueError("a standard error needs at least 2 samples, "
                         f"the batch has {base.n}")


# Most rows per block in the checks, sized by time, not by page faults:
# on a 2-vCPU VM the hull benchmark's four jobs took 0.20 s at 16384 rows
# and 0.22-0.24 s at 8192 (medians of 7, in one process), while a
# 100 000-row hullcheck's minor faults fell only from about 2 630 to
# 2 560 over its 96 actions.  Smaller blocks pay numpy's per-call cost
# more often; whole-batch temporaries are mapped afresh at each action.
_BLOCK = 16384


def _per_row(base: SampleBatch, values, size: int = _BLOCK, *,
             scale_only: bool = False) -> list:
    """Full-length columns of per-row values, computed a block at a time.

    values(rows, block, move) yields arrays over `block`, the view of
    base's rows in the slice `rows`, one per column; move(a, b) is the
    block moved by (a, b), by block.act or, with scale_only, for test
    functions that read the letter window alone, by block.scaled.  A
    moved block keeps at least the digits the moved whole batch keeps,
    and its omega agrees with the whole batch's on those digits, so a
    test function that reads no more digits than the whole batch keeps
    gives the whole batch's values bit for bit.  If a block raises, the
    whole batch runs as one block and raises its first error; the block
    with the smallest s keeps exactly the whole batch's digits, so a
    function that reads more raises there.
    """
    if size >= base.n:
        return list(values(slice(None), base,
                           base.scaled if scale_only else base.act))
    blocks = -(-base.n // size)
    size = -(-base.n // blocks)  # blocks as equal as possible, none larger
    cols = []
    try:
        for lo in range(0, base.n, size):
            rows = slice(lo, lo + size)
            block = base.rows(rows)
            move = block.scaled if scale_only else block.act
            for j, v in enumerate(values(rows, block, move)):
                if j == len(cols):
                    cols.append(np.empty(base.n, dtype=v.dtype))
                cols[j][rows] = v
    except (ValueError, PrecisionExhausted, ColourWindowExhausted):
        return _per_row(base, values, base.n, scale_only=scale_only)
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
    seed = _seed(seed)
    _check_rows(base)
    scale_only = all(f.letters_only for f, _ in cases)
    f0 = _per_row(base, lambda rows, block, move: (
        f.on_batch(block.with_index(index[rows])) for f, index in cases))
    per_g = [[] for _ in cases]
    for a, b in g_list:
        def diffs(rows, block, move):
            moved = move(a, b)
            for (f, index), fk in zip(cases, f0):
                yield f.on_batch(moved.with_index(index[rows])) - fk[rows]

        for d, out in zip(_per_row(base, diffs, scale_only=scale_only),
                          per_g):
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
    seed = _seed(seed)
    _validate_step(h)
    _check_rows(base)

    def laplacian(rows, block, move):
        centre = f.on_batch(block)
        yield (f.on_batch(move(1.0, h)) + f.on_batch(move(1.0, -h))
               + f.on_batch(move(1.0 + h, 0.0))
               + f.on_batch(move(1.0 - h, 0.0))
               - 4.0 * centre) / (h * h)

    lap, = _per_row(base, laplacian, scale_only=f.letters_only)
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
    seed = _seed(seed)
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

    cols = _per_row(base, products, scale_only=all(
        f.letters_only and g.letters_only for f, g in pairs))
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
