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
leafwise harmonicity, the flow pairing) run on samples drawn from a
counter-based stream of 64-bit words keyed by one seed, which needs
integer arithmetic alone, so every CPU draws the same bits.  A row
reads its own four words, so a LazySample draws each block of rows when
a check reaches it; the check moves and evaluates that block and merges
its moments, so no full-length column or sample is held, and memory
does not grow with the sample size.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .dyadic import PrecisionExhausted
from .geometry import ColourWindowExhausted
from .ktheory import CylinderFunction
from .subshift import SubshiftSpec, language, measure_vector

__all__ = [
    "BumpProfile",
    "TestFunction",
    "SampleBatch",
    "LazySample",
    "sample_batch",
    "first_word_control",
    "invariance_check",
    "invariance_reports",
    "harmonicity_check",
    "hullcheck_reports",
    "tau_pairing",
]

_MAX_WRAPS = 64


# -- test functions ------------------------------------------------------

class BumpProfile(namedtuple("BumpProfile", "center width")):
    """The C2 bump (1 - z**2)**3 on |z| < 1 in one real variable.

    z = (x - center)/width, zero outside.  The support must sit inside
    the open unit interval so wrapping the coordinate never crosses it.
    """

    __slots__ = ()

    def __new__(cls, center: float, width: float):
        # a NaN fails every comparison below, so it is refused first
        if not (math.isfinite(center) and math.isfinite(width)):
            raise ValueError("bump center and width must be finite")
        if width <= 0:
            raise ValueError("bump width must be positive")
        if center - width <= 0 or center + width >= 1:
            raise ValueError("bump support must lie inside (0, 1)")
        return super().__new__(cls, center, width)

    def __call__(self, x: np.ndarray) -> np.ndarray:
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

    # max |d^k/dx^k| over the line for k = 1..4, from the polynomial
    # (1-z^2)**3: |phi'| <= 2.08, |phi''| <= 6, |phi'''| <= 48,
    # |phi''''| <= 288; the bump itself is at most 1.
    def deriv_bound(self, order: int) -> float:
        mags = {1: 2.08, 2: 6.0, 3: 48.0, 4: 288.0}
        return mags[order] / self.width ** order


class TestFunction(namedtuple("TestFunction",
                              "word_part omega_part t_bump s_bump",
                              defaults=(None, None, None, None))):
    """Product observable: letters x odometer x smooth (t, s) profile.

    The letter factor reads the window through the cursor, the odometer
    factor depends on finitely many digits of omega, and the (t, s)
    factor is a product of bumps.  Values are bounded; with bumps in
    both t and s the function is C2 along leaves, because every chart
    identification happens where the bumps vanish to second order.
    word_part is a CylinderFunction, omega_part a LocallyConstFn and
    each bump a BumpProfile.  An absent factor is None and reads 1, so
    TestFunction() is the constant function 1.
    """

    __slots__ = ()

    @staticmethod
    def bump(t_center: float, t_width: float,
             s_center: float, s_width: float) -> "TestFunction":
        return TestFunction(t_bump=BumpProfile(t_center, t_width),
                            s_bump=BumpProfile(s_center, s_width))

    @staticmethod
    def word_indicator(u: str) -> "TestFunction":
        return TestFunction(word_part=CylinderFunction.of("Z", 0, {u: 1}))

    @property
    def letters_only(self) -> bool:
        """Whether the function reads the letter window alone.

        Then it reads no t, omega or s, and a batch moved by
        SampleBatch.scaled serves it as well as one moved by act.
        """
        return (self.omega_part is None and self.t_bump is None
                and self.s_bump is None)

    def on_batch(self, batch: "SampleBatch") -> np.ndarray:
        # letter x omega x t x s; absent factors are skipped: x * 1.0 == x
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
            if bump is not None:
                yield bump(x)

    def sup_bound(self) -> float:
        out = 1.0
        if self.word_part is not None:
            cs = [abs(float(c)) for _, c in self.word_part.coeffs]
            out *= max(cs, default=0.0)
        if self.omega_part is not None:
            out *= max(abs(float(v)) for v in self.omega_part.values)
        return out

    def laplacian_bias(self, h: float) -> float:
        """Upper bound for the second-order finite-difference error.

        Central differences of a C4 function err by h**2/12 times the
        fourth derivative along each probed direction.  The translation
        probe scales t by at most 1 per unit step; the scale probe moves
        s through log2, bounded here by a generous chain-rule envelope
        for steps below 1/8.  An absent bump has no derivatives.
        """
        amp, w = self.sup_bound(), self.s_bump
        mx = 0.0 if self.t_bump is None else amp * self.t_bump.deriv_bound(4)
        my = 0.0 if w is None else amp * (
            4.8 * w.deriv_bound(4) + 20.0 * w.deriv_bound(3)
            + 26.0 * w.deriv_bound(2) + 10.0 * w.deriv_bound(1))
        return h * h / 12.0 * (mx + my)

    def flow_bias(self, h: float) -> float:
        """Central-difference error bound along the unit-speed scale flow."""
        w = self.s_bump
        m3 = 0.0 if w is None else self.sup_bound() * w.deriv_bound(3)
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

    def _scale(self, a: float, b: float, scratch: np.ndarray | None = None):
        """The scale half of act: the moved s and its wraps, writing nothing
        but scratch, a float column of the batch's length, if given.

        Returns s in [0, 1), floor of the unwrapped s as int64, its
        maximum and the digits its halvings use.  Every error act
        raises is raised here.
        """
        if not (math.isfinite(a) and math.isfinite(b) and a > 0):
            raise ValueError("need a finite scale a > 0, finite translation")
        s = self.s + math.log2(a)
        f = np.floor(s, out=scratch)
        top, low = f.max(), f.min()
        if top >= _MAX_WRAPS:
            raise ValueError("scale coordinate does not wrap down to [0,1)")
        cursor = f.astype(np.int64)
        s -= f
        steps = max(-int(low), 0)
        if steps > self.precision:
            raise PrecisionExhausted("no dyadic digits left to halve")
        return s, cursor, top, steps

    def scaled(self, a: float, b: float) -> "SampleBatch":
        """A copy moved by (a, b) in s, the cursor and the precision alone.

        Its t and omega are None.  A test function that reads neither
        (TestFunction.letters_only) takes the same values on it as on
        the fully moved copy, and it raises exactly what act raises.
        """
        s, cursor, _, steps = self._scale(a, b)
        cursor += self.cursor
        return SampleBatch(None, None, s, cursor, self.index, self.windows,
                           self.origin, self.precision - steps)

    def act(self, a: float, b: float) -> "SampleBatch":
        """The batch moved by z -> a z + b."""
        t = np.empty(self.n)
        # t is written after the scale half, so it is that half's scratch
        s, cursor, top, steps = self._scale(a, b, t)
        # b / (a * 2**s), in place; it is a zero of b's sign when b is zero
        if b == 0:
            np.add(self.t, b, out=t)
        else:
            np.exp2(self.s, out=t)
            t *= a
            np.divide(b, t, out=t)
            t += self.t
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
            np.ldexp(t, k.astype(np.int32), out=t)
            np.floor(t, out=c)
            t -= c
            u = omega.view(np.uint64)
            u <<= k.view(np.uint64)
            u += c.astype(np.uint64)
        # wraps up halve t + parity, which rounds: one step per digit, on
        # every row without a branch (a row that stays adds 0, times 1)
        for j in range(steps):
            halve = cursor < -j
            parity = omega >> j
            parity &= halve
            t += parity
            np.ldexp(t, -halve.astype(np.int32), out=t)
        if steps:
            shift = np.negative(cursor)
            omega >>= np.maximum(shift, 0, out=shift)
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
    # a numpy integer seed would overflow in _key's 64-bit limbs
    return int(value)


def _seed(seed) -> int:
    """seed as an int; a bool, a non-integer or a negative is refused."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) in counter mode: word i
# of a stream is the finalizer of key + (i + 1)*GAMMA, mod 2**64, so any
# word is drawn without the ones before it
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of a uint64 array, in place, mod 2**64."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _key(seed: int, stream: int) -> int:
    """The key of a stream: the seed's 64-bit limbs, lowest first, folded
    into the mixed stream number."""
    k = _mix(np.array([stream * _GAMMA & _MASK], dtype=np.uint64))
    while True:
        k ^= seed & _MASK
        k += _GAMMA
        _mix(k)
        seed >>= 64
        if not seed:
            return int(k[0])


def _words(key: int, count: int) -> np.ndarray:
    """Words 0 to count - 1 of the keyed stream."""
    steps = np.arange(count, dtype=np.uint64) * _GAMMA
    return _mix(steps + ((key + _GAMMA) & _MASK))


def _unit(words: np.ndarray, out=None) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits of words, which it shifts."""
    words >>= 11
    return np.multiply(words.view(np.int64), 2.0 ** -53, out=out)


def _uniforms(seed: int, stream: int, count: int) -> list[float]:
    """The first count uniforms of a seed's stream."""
    return _unit(_words(_key(seed, stream), count)).tolist()


# a drawn row keeps omega's top _PRECISION digits and reads a window of
# 2*_HALFWIDTH + 1 letters, letter 0 at its centre
_PRECISION, _HALFWIDTH = 48, 8


@lru_cache(maxsize=16)
def _window_table(spec: SubshiftSpec):
    """The windows of length 2*_HALFWIDTH + 1, in language order, and the
    lookup from a letter uniform to a window's index."""
    windows = tuple(language(spec, 2 * _HALFWIDTH + 1))
    return windows, _window_lookup(_cumulative_measure(spec, windows))


class LazySample(namedtuple("LazySample", "spec n seed")):
    """n points of the product measure, each drawn when it is read.

    rows(sl) draws the rows in a slice, and sample_batch draws them all.
    Row r reads only words 4r to 4r + 3 of the seed's stream, so a block
    needs no row before it and has the same bits in every slice that
    holds it.  A check that reads its sample through n and rows() alone
    holds one block of it at a time, never the whole.  Its rows are
    sample_batch's: _PRECISION digits of omega, 2*_HALFWIDTH + 1 letters.
    """

    __slots__ = ()

    def __new__(cls, spec: SubshiftSpec, n: int, seed: int):
        seed = _seed(seed)
        n = _integer("n", n)
        if n < 1:
            raise ValueError(f"sample size must be at least 1, got {n}")
        return super().__new__(cls, spec, n, seed)

    def rows(self, rows: slice) -> SampleBatch:
        """The rows in a slice, drawn now: in one piece if it is no longer
        than a check's block, else in _CHUNKS pieces."""
        rows = range(self.n)[rows]
        # the five columns share one buffer: one allocation, not five
        out = np.empty((5, len(rows)))
        t, s = out[0], out[1]
        omega, cursor = out[2].view(np.int64), out[3].view(np.int64)
        index = out[4].view(np.intp)
        cursor[...] = 0
        pieces = [slice(None)]
        if len(rows) > _BLOCK:
            pieces = _blocks(len(rows), -(-len(rows) // _CHUNKS))
        for p in pieces:
            self._draw(rows[p], omega[p], t[p], s[p], index[p])
        return SampleBatch(omega, t, s, cursor, index,
                           _window_table(self.spec)[0], _HALFWIDTH,
                           _PRECISION)

    def _draw(self, rows: range, omega, t, s, index):
        """The rows of a range into the columns given, one entry per row.

        Row r reads words 4r to 4r + 3 of the seed's stream 0: omega is
        the top _PRECISION bits of the first, and t, s and the letter
        uniform are the top 53 bits of the others, scaled into [0, 1).
        """
        lookup = _window_table(self.spec)[1]
        key = _key(self.seed, 0)
        # the offset of the range's i-th row in a column, 4 * step * i * GAMMA
        steps = np.arange(len(rows), dtype=np.uint64)
        steps *= 4 * rows.step * _GAMMA & _MASK
        # words 4r + c of the rows r, each column c mixed in the memory of
        # the column it becomes
        words = [col.view(np.uint64) for col in (omega, t, s, index)]
        for c, z in enumerate(words):
            np.add(steps, (key + (4 * rows.start + c + 1) * _GAMMA) & _MASK,
                   out=z)
            _mix(z)
        words[0] >>= 64 - _PRECISION
        _unit(words[1], t)
        _unit(words[2], s)
        lookup(_unit(words[3], index.view(float)), index)


def sample_batch(spec: SubshiftSpec, n: int, seed: int) -> SampleBatch:
    """n points: omega and (t, s) uniform, letter windows by their measure.

    omega keeps _PRECISION digits, and the windows are the admissible
    words of length 2*_HALFWIDTH + 1 in language order.  This is the
    LazySample of the same arguments read whole.  Row r reads words 4r
    to 4r + 3 of the seed's stream 0 (LazySample._draw), so the draw is
    a function of (spec, seed) and the row alone, and a smaller sample
    is a prefix of a larger one.
    Letter uniforms become window indices through a guide table, which
    gives the index a binary search over the cumulative measure gives,
    to the bit.
    """
    return LazySample(spec, n, seed).rows(slice(None))


def first_word_control(batch: SampleBatch) -> SampleBatch:
    """batch's coordinates with every row reading the first window.

    A deliberately wrong letter distribution that shares the genuine
    check's sample and its moved copies, for negative controls.  The
    index is one zero seen at every row (a read-only view), so it takes
    no memory.
    """
    return batch.with_index(np.broadcast_to(np.intp(0), batch.index.shape))


# -- Monte-Carlo checks ---------------------------------------------------

def _report(stat, se, n, ok, seed, **extra) -> dict:
    out = {"statistic": float(stat), "std_error": float(se), "n": int(n),
           "pass": bool(ok), "seed": seed}
    out.update(extra)
    return out


# Most rows per block in the checks, sized by time, not by page faults:
# on a 2-vCPU VM the hull benchmark's four jobs took 0.20 s at 16384 rows
# and 0.22-0.24 s at 8192 (medians of 7, timed in one process, so with an
# allocator already warm from earlier runs), while a 100 000-row
# hullcheck's minor faults fell only from about 2 630 to 2 560 over its
# 96 actions.  Smaller blocks pay numpy's per-call cost more often.  A
# check draws each block when it reaches it, merges the block's moments
# into running ones and holds no column longer than a block, so its
# memory does not grow with the sample size.
_BLOCK = 16384


def _blocks(n: int, size: int = _BLOCK) -> list[slice]:
    """n rows' slices in blocks as equal as possible, none above size."""
    size = -(-n // -(-n // size))
    return [slice(lo, lo + size) for lo in range(0, n, size)]


def _moments(base, values, size: int = _BLOCK, *,
             scale_only: bool) -> list[tuple[float, float]]:
    """Mean and standard error of each column of per-row values.

    base is read through base.n and base.rows() alone: a LazySample
    draws each block there, a SampleBatch gives views of its columns.
    values(block, move) yields one array per column over `block`, one
    block of base's rows; move(a, b) is block.act,
    or block.scaled with scale_only (for test functions that read the
    letter window alone).  Each block's count, sum and sum of squared
    deviations from its mean are merged into the column's running ones
    (Chan, Golub and LeVeque, 1979), so no column is held at full length
    and an exact total stays exact.  A moved block keeps at least the
    moved whole batch's digits and agrees with its omega on them, so a
    function that reads no more digits gets the whole batch's values bit
    for bit.  If a block raises, the whole batch runs as one block and
    raises its first error; the block with the smallest s keeps exactly
    the whole batch's digits.
    """
    if base.n < 2:
        raise ValueError("a standard error needs at least 2 samples, "
                         f"the batch has {base.n}")
    sums = []
    try:
        for rows in _blocks(base.n, size):
            block = base.rows(rows)
            move = block.scaled if scale_only else block.act
            for j, v in enumerate(values(block, move)):
                # numpy's std(ddof=1) in its own steps, the sum taken once
                nb, tb = len(v), np.add.reduce(v)
                d = v - tb / nb
                m2 = np.add.reduce(np.multiply(d, d, out=d))
                if j == len(sums):
                    sums.append((nb, tb, m2))
                    continue
                na, ta, m2a = sums[j]
                n = na + nb
                delta = tb / nb - ta / na
                sums[j] = (n, ta + tb, m2a + m2 + delta * delta * na * nb / n)
    except (ValueError, PrecisionExhausted, ColourWindowExhausted):
        if size >= base.n:
            raise
        return _moments(base, values, base.n, scale_only=scale_only)
    return [(float(t / n), math.sqrt(m2 / (n - 1)) / math.sqrt(n))
            for n, t, m2 in sums]


_EXACT_SLACK = 1e-12
# the finite-difference step of the harmonicity and flow checks
_H = 2.0 ** -6


def invariance_check(spec: SubshiftSpec, f: TestFunction, g_list,
                     n_samples: int, seed: int) -> dict:
    """Compare E[f o g] with E[f] for each affine g = (a, b).

    Common random numbers: every g is applied to a copy of one shared
    sample, so the difference f(g.p) - f(p) is averaged pairwise and its
    own spread sets the 3-sigma tolerance.  The top-level statistic is
    the worst absolute difference over g_list.
    """
    sample = LazySample(spec, n_samples, seed)
    return invariance_reports(sample, [(f, None)], g_list, seed)[0]


def _invariance_diffs(cases, g_list):
    """The per-row values of invariance_reports, for _moments."""
    def diffs(block, move):
        views = [block if view is None else view(block) for _, view in cases]
        f0 = [f.on_batch(v) for (f, _), v in zip(cases, views)]
        for a, b in g_list:
            moved = move(a, b)
            for (f, _), v, fk in zip(cases, views, f0):
                # a view changes the windows alone, so its index serves
                # the moved rows too
                yield f.on_batch(moved.with_index(v.index)) - fk

    return diffs


def _invariance_out(moments, cases, g_list, n: int, seed: int) -> list[dict]:
    """invariance_reports' reports from the next per-g moments."""
    per_g = [[] for _ in cases]
    for a, b in g_list:
        for out, (diff, se) in zip(per_g, moments):
            out.append({"g": [float(a), float(b)], "statistic": diff,
                        "std_error": se,
                        "pass": abs(diff) <= 3.0 * se + _EXACT_SLACK})
    reports = []
    for entries in per_g:
        worst = (0.0, 0.0)
        for e in entries:
            if abs(e["statistic"]) >= worst[0]:
                worst = (abs(e["statistic"]), e["std_error"])
        reports.append(_report(worst[0], worst[1], n,
                               all(e["pass"] for e in entries), seed,
                               per_g=entries))
    return reports


def invariance_reports(base, cases, g_list, seed: int) -> list[dict]:
    """invariance_check's report for each (f, view) case on one sample.

    base is a LazySample or a SampleBatch.  Each case pairs a test
    function with a view of the sample's rows: None for the rows as
    drawn, or a function such as first_word_control that gives a block
    the same coordinates reading other windows.  Each block of base's
    rows gives every case's unmoved values, then each g acts once on the
    block and every case is evaluated on the moved block; only the
    per-g moments are kept.
    """
    seed = _seed(seed)
    moments = _moments(base, _invariance_diffs(cases, g_list),
                       scale_only=all(f.letters_only for f, _ in cases))
    return _invariance_out(iter(moments), cases, g_list, base.n, seed)


def _laplacian(f: TestFunction):
    """The per-row values of harmonicity_check, for _moments."""
    def laplacian(block, move):
        centre = f.on_batch(block)
        # (f(x+h) + f(x-h) + f((1+h)y) + f((1-h)y) - 4 f) / h**2, in place
        # and in that order, so with the same roundings
        lap = f.on_batch(move(1.0, _H))
        for a, b in ((1.0, -_H), (1.0 + _H, 0.0), (1.0 - _H, 0.0)):
            lap += f.on_batch(move(a, b))
        centre *= 4.0
        lap -= centre
        lap /= _H * _H
        yield lap

    return laplacian


def _harmonicity_out(moments, f: TestFunction, n: int, seed: int) -> dict:
    """harmonicity_check's report from the next moments."""
    stat, se = next(moments)
    bias = f.laplacian_bias(_H)
    ok = abs(stat) <= 3.0 * se + bias + _EXACT_SLACK
    return _report(stat, se, n, ok, seed, fd_bias=bias, h=_H)


def harmonicity_check(base, f: TestFunction, seed: int) -> dict:
    """Estimate the mean leafwise Laplacian of f against a sample.

    base is a LazySample or a SampleBatch.  At each point the leaf is
    charted by (x, y) -> (y, x).p with the base at (0, 1), where the
    metric Laplacian is the flat one; second central differences with
    step h = _H along both axes give y**2 (f_xx + f_yy) up to the
    reported O(h**2) bias bound.
    """
    seed = _seed(seed)
    moments = _moments(base, _laplacian(f), scale_only=f.letters_only)
    return _harmonicity_out(iter(moments), f, base.n, seed)


def hullcheck_reports(sample, cases, g_list, f: TestFunction, word: str,
                      seed: int) -> tuple:
    """hullcheck's statistics from one pass over one sample.

    Each block of the sample's rows is drawn once and serves, in order:
    the share of rows with omega = 1 mod 4, the share whose window reads
    word at the cursor, invariance_reports(sample, cases, g_list, seed)
    and harmonicity_check(sample, f, seed).  Returns those four.  The
    two shares are sums of 0s and 1s, exact in every block, so they
    equal a whole column's mean; every report is the one its function
    gives, and so is the first error.
    """
    seed = _seed(seed)
    diffs, laplacian = _invariance_diffs(cases, g_list), _laplacian(f)
    letter = TestFunction.word_indicator(word)

    def values(block, move):
        yield (block.omega & 3 == 1).astype(float)
        yield letter.on_batch(block)
        yield from diffs(block, move)
        yield from laplacian(block, move)

    moments = iter(_moments(sample, values, scale_only=f.letters_only and all(
        fc.letters_only for fc, _ in cases)))
    (omega_1, _), (letter_mean, _) = next(moments), next(moments)
    return (omega_1, letter_mean,
            _invariance_out(moments, cases, g_list, sample.n, seed),
            _harmonicity_out(moments, f, sample.n, seed))


def tau_pairing(base, pairs, seed: int) -> list[dict]:
    """Flow-derivative pairing E[Y(f) g] with its antisymmetry defect,
    one report for each (f, g) pair on one sample.

    base is a LazySample or a SampleBatch.  Y differentiates along the
    scale flow (unit speed in s, realized by acting with a = 2**(+-_H));
    the defect |E[Y(f) g] + E[Y(g) f]| estimates E[Y(f g)], which
    invariance makes zero, so it must stay within 3 sigma plus the
    finite-difference bias.  The flow moves each block of base's rows
    up and down once, and every pair is evaluated on those two moved
    blocks.
    """
    seed = _seed(seed)

    def products(block, move):
        up, down = move(2.0 ** _H, 0.0), move(2.0 ** -_H, 0.0)

        def flow_diff(fn):
            return (fn.on_batch(up) - fn.on_batch(down)) / (2.0 * _H)

        for f, g in pairs:
            yf = flow_diff(f)
            yg = flow_diff(g)
            f0 = f.on_batch(block)
            yf_g0 = yf * g.on_batch(block)
            yield yf_g0
            yield yf_g0 + yg * f0

    moments = iter(_moments(base, products, scale_only=all(
        f.letters_only and g.letters_only for f, g in pairs)))
    reports = []
    for (f, g), (tau, se), (defect, se_d) in zip(pairs, moments, moments):
        bias = 2.0 * (f.flow_bias(_H) * g.sup_bound()
                      + g.flow_bias(_H) * f.sup_bound())
        ok = abs(defect) <= 3.0 * se_d + bias + _EXACT_SLACK
        reports.append(_report(
            tau, se, base.n, ok, seed, antisymmetry_defect=abs(defect),
            defect_std_error=se_d, fd_bias=bias, h=_H))
    return reports
