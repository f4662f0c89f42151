"""Suspension-point arithmetic, the rescaling relation, and MC checks."""

import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyptile.dyadic import LocallyConstFn, PrecisionExhausted
from hyptile.geometry import (
    ColourWindow,
    ColourWindowExhausted,
    TileIndex,
    TileSet,
    generate_patch,
)
from hyptile.hull import (
    _BLOCK,
    _CHUNKS,
    _cumulative_measure,
    _key,
    _blocks,
    _moments,
    _validate_step,
    _window_lookup,
    _words,
    BumpProfile,
    LazySample,
    SampleBatch,
    TestFunction as TFn,
    check_relation_RPw,
    first_word_control,
    harmonicity_check,
    harmonicity_report,
    hullcheck_reports,
    invariance_check,
    invariance_reports,
    random_colour_window,
    relation_defects,
    sample_batch,
    tau_pairing,
    tau_reports,
)
from hyptile.ktheory import CylinderFunction
from hyptile.subshift import Periodic, Substitution, language

from oracles import (FIB, S4, TM, TRIB, cylinder_indicator, merged_mean_se,
                     splitmix64, splitmix_key)

AB = Periodic("ab")
# two of its 17-letter windows' cumulative bounds share a guide bucket
SKEW = Substitution.of({"1": "111112", "2": "12"})


# -- test oracle ----------------------------------------------------------
# The chart identification on one point in plain ints, independent of
# SampleBatch.  A point is (omega, precision, t, s, cursor).

def ref_carry(om, prec, t):
    c = math.floor(t)
    t -= c
    if t == 1.0:  # 1 - |t| rounded up for a tiny negative t: wrap again
        c, t = c + 1, 0.0
    return (om + c) % (1 << prec), t


def ref_normalize(om, prec, t, s, cur):
    om, t = ref_carry(om, prec, t)
    while s >= 1.0:
        om, t, s, cur = (om << 1) % (1 << prec), 2.0 * t, s - 1.0, cur + 1
        om, t = ref_carry(om, prec, t)
    while s < 0.0:
        if prec == 0:
            raise PrecisionExhausted("no dyadic digits left")
        par = om & 1
        om, prec = om >> 1, prec - 1
        t, s, cur = (t + par) / 2.0, s + 1.0, cur - 1
    return om, prec, t, s, cur


def ref_act(a, b, p):
    om, prec, t, s, cur = p
    # np.exp2 as in SampleBatch.act: 2.0 ** s differs from it in the last
    # place for some s, and a huge b turns that place into another carry.
    # np.exp2's last bits also depend on numpy's SIMD path, which this
    # call shares with act's in one process.  s, the cursor and the
    # precision (act's scale half, SampleBatch.scaled) need no exp2
    u = float(np.exp2(s))
    return ref_normalize(om, prec, t + b / (a * u), s + math.log2(a), cur)


def batch_of(rows, prec=16, word="1" * 21, origin=10):
    """Batch of (omega, t, s, cursor) rows sharing one TM letter window."""
    om, t, s, cur = zip(*rows)
    return SampleBatch(np.array(om, dtype=np.int64), np.array(t, dtype=float),
                       np.array(s, dtype=float),
                       np.array(cur, dtype=np.int64),
                       np.zeros(len(rows), dtype=np.int64), (word,),
                       origin, prec)


def point(om, t, s, cursor=0, prec=16):
    return batch_of([(om, t, s, cursor)], prec)


def row(batch, i=0):
    return (int(batch.omega[i]), batch.precision, float(batch.t[i]),
            float(batch.s[i]), int(batch.cursor[i]))


def close(p, q, tol=1e-9):
    """Same point up to tol in t and s, omega compared on common digits."""
    mod = 1 << min(p[1], q[1])
    return (p[0] % mod == q[0] % mod and p[4] == q[4]
            and abs(p[2] - q[2]) <= tol and abs(p[3] - q[3]) <= tol)


class TestNormalize:
    def test_integer_carry(self):
        assert row(point(0, 1.25, 0.0).normalize()) == (1, 16, 0.25, 0.0, 0)

    def test_scale_wrap_down(self):
        assert row(point(3, 0.5, 1.0).normalize()) == (7, 16, 0.0, 0.0, 1)

    def test_scale_wrap_up_even_and_odd(self):
        assert row(point(7, 0.0, -1.0).normalize()) == (3, 15, 0.5, 0.0, -1)
        assert row(point(6, 0.5, -1.0).normalize()) == (3, 15, 0.25, 0.0, -1)

    def test_idempotent(self):
        rows = [(0, 1.25, 0.0, 0), (3, 0.5, 1.0, 0), (7, 0.25, -0.75, 0)]
        for batch in [point(*r) for r in rows] + [batch_of(rows)]:
            once = batch.normalize()
            twice = once.normalize()
            assert [row(twice, i) for i in range(batch.n)] == \
                [row(once, i) for i in range(batch.n)]

    def test_wrap_then_normalize_is_class_invariant(self):
        # Rewriting the point through the doubling identification first
        # must land on the same normal form (up to the digit it costs).
        p = point(11, 0.3, 0.25).normalize()
        moved = point(22, 0.6, -0.75, cursor=1).normalize()
        assert close(row(moved), row(p))

    def test_precision_exhaustion(self):
        with pytest.raises(PrecisionExhausted):
            point(0, 0.0, -1.0, prec=0).normalize()

    def test_scale_wrap_limits(self):
        # 63 downward crossings fit one shift of int64; 64 are refused
        for om, prec in ((12345, 16), ((1 << 62) - 3, 62)):
            p = point(om, 0.3, 63.5, prec=prec).normalize()
            assert row(p) == ref_normalize(om, prec, 0.3, 63.5, 0)
        with pytest.raises(ValueError):
            point(5, 0.3, 64.0).normalize()
        # more upward crossings than any batch has digits
        with pytest.raises(PrecisionExhausted):
            point(5, 0.3, -100.0, prec=62).normalize()


class TestAct:
    def test_unit_translation_carries(self):
        assert row(point(0, 0.0, 0.0).act(1.0, 1.0)) == (1, 16, 0.0, 0.0, 0)

    def test_identity_fixes_points(self):
        p = point(9, 0.625, 0.375).normalize()
        assert row(p.act(1.0, 0.0)) == row(p)

    def test_pure_doubling_wraps_once(self):
        assert row(point(5, 0.25, 0.0).act(2.0, 0.0)) == (10, 16, 0.5, 0.0, 1)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            point(0, 0.0, 0.0).act(0.0, 1.0)
        with pytest.raises(ValueError):
            point(0, 0.0, 0.0).act(-2.0, 1.0)

    def test_non_finite_rejected(self):
        for batch in (sample_batch(TM, 4, 3), sample_batch(TM, 1, 3)):
            for a, b in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf),
                         (1.0, -math.inf), (1.0, math.nan)):
                with pytest.raises(ValueError):
                    batch.act(a, b)

    def test_repeated_halving_exhausts_precision(self):
        p = point(3, 0.0, 0.0, prec=2).act(0.5, 0.0).act(0.5, 0.0)
        with pytest.raises(PrecisionExhausted):
            p.act(0.5, 0.0)

    def test_group_law_thousand_pairs(self):
        rng = np.random.default_rng(12)
        base = sample_batch(TM, 16, 12)
        for k in range(1000):
            a1, a2 = np.exp2(rng.uniform(-1.5, 1.5, 2))
            if k % 10 == 0:  # one factor at an extreme scale
                a1, a2 = [(a1, 2.0 ** 20), (2.0 ** -20, a2),
                          (2.0 ** 20, a2), (a1, 2.0 ** -20)][k // 10 % 4]
            b1, b2 = rng.uniform(-3.0, 3.0, 2)
            lhs = base.act(a2, b2).act(a1, b1)
            rhs = base.act(a1 * a2, a1 * b2 + b1)
            for i in range(base.n):
                assert close(row(lhs, i), row(rhs, i), tol=2e-9)

    def test_moves_leave_the_receiver_unchanged(self):
        # s out of normal form: one move wraps rows down and up by digits
        rng = np.random.default_rng(13)
        n, cols = 64, ("omega", "t", "s", "cursor")
        base = SampleBatch(rng.integers(0, 1 << 62, n), rng.random(n),
                           rng.uniform(-2.5, 3.5, n), rng.integers(-3, 4, n),
                           np.zeros(n, dtype=np.int64), ("1" * 21,), 10, 62)
        before = [getattr(base, col).copy() for col in cols]
        moves = [lambda: base.act(0.7, 2.5), lambda: base.act(1.3, -2.0 ** 70),
                 lambda: base.scaled(0.7, 2.5), base.normalize]
        first = [move() for move in moves]
        for moved, again in zip(first, (move() for move in moves)):
            assert moved is not base and moved.precision < 62
            assert moved.s.min() >= 0.0 and moved.s.max() < 1.0
            for col in cols:
                # a move repeated on the receiver gives the same batch
                assert np.array_equal(getattr(moved, col),
                                      getattr(again, col)), col
        assert base.precision == 62
        for col, old in zip(cols, before):
            assert getattr(base, col).tobytes() == old.tobytes(), col


class TestOracle:
    """SampleBatch.act against the plain-int oracle, row by row."""

    @staticmethod
    def actions(rng):
        """Endless mixed chain of (a, b).

        Moderate scales and translations, a fifth of them |b| = 2**70,
        and within the first 40 one scale by 2**20 and one by 2**-20.
        """
        extremes = dict(zip(rng.choice(40, 2, replace=False).tolist(),
                            (2.0 ** 20, 2.0 ** -20)))
        for step in itertools.count():
            a = float(np.exp2(rng.uniform(-1.5, 1.5)))
            b = float(rng.uniform(-3.0, 3.0))
            if step in extremes:
                yield extremes[step], b
            elif rng.random() < 0.2:
                yield a, float(rng.choice([-1.0, 1.0])) * 2.0 ** 70
            else:
                yield a, b

    def run_chain(self, batch, rng):
        """Act until the batch runs out of digits, checking every row.

        Returns the number of actions that succeeded and, per row,
        whether the oracle ran out on the action that stopped the batch.
        """
        refs = [row(batch, i) for i in range(batch.n)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for step, (a, b) in zip(range(2000), self.actions(rng)):
                try:
                    batch = batch.act(a, b)
                    exhausted = False
                except PrecisionExhausted:
                    exhausted = True
                dead = []
                for i, p in enumerate(refs):
                    try:
                        refs[i] = ref_act(a, b, p)
                        dead.append(False)
                    except PrecisionExhausted:
                        dead.append(True)
                if exhausted:
                    return step, dead
                # the batch drops a digit whenever any row halves, so no
                # row runs out before it does
                assert not any(dead)
                for i, (om, prec, t, s, cur) in enumerate(refs):
                    assert batch.precision <= prec
                    q = row(batch, i)
                    assert (om % (1 << batch.precision), t, s, cur) == \
                        (q[0], q[2], q[3], q[4])
        raise AssertionError("precision never ran out")

    def test_one_row_batches_match_oracle(self):
        rng = np.random.default_rng(2024)
        for seed in range(8):
            steps, dead = self.run_chain(
                sample_batch(TM, 1, seed, precision=62), rng)
            assert dead == [True]  # batch and point run out together
            assert steps >= 40

    def test_mixed_batch_matches_oracle(self):
        rng = np.random.default_rng(2025)
        for spec, seed in ((TM, 5), (FIB, 6), (AB, 7)):
            steps, _ = self.run_chain(
                sample_batch(spec, 64, seed, precision=62), rng)
            assert steps >= 40

    def test_tiny_negative_t_wraps_into_omega(self):
        # t = 2**-60 - 2**-59 = -2**-60, and t - floor(t) rounds to 1.0
        a, b = 1.0, -2.0 ** -59
        assert ref_act(a, b, (0, 16, 2.0 ** -60, 0.0, 0)) == \
            (0, 16, 0.0, 0.0, 0)
        rows = [(0, 2.0 ** -60, 0.0, 0), (5, 0.5, 0.25, 0)]
        for batch in (batch_of(rows[:1]), batch_of(rows)):
            moved = batch.act(a, b)
            for i, (om, t, s, cur) in enumerate(rows[:batch.n]):
                assert row(moved, i) == ref_act(a, b, (om, 16, t, s, cur))


def full_pass_act(batch, a, b):
    """SampleBatch.act with every pass run on every row.

    The same chart identification with no pass skipped: the carry is
    always reduced mod 2**precision, and both wrap blocks always run.
    """
    t = b / (a * np.exp2(batch.s))
    t += batch.t
    s = batch.s + math.log2(a)
    c = np.floor(t)
    t -= c
    up = t == 1.0
    c += up
    t[up] = 0.0
    c -= np.trunc(c * 2.0 ** -batch.precision) * 2.0 ** batch.precision
    omega = c.astype(np.int64)
    omega += batch.omega
    f = np.floor(s)
    if f.max() >= 64:
        raise ValueError("scale coordinate does not wrap down to [0,1)")
    cursor = f.astype(np.int64)
    s -= f
    k = np.maximum(cursor, 0)
    t *= np.ldexp(1.0, k)
    np.floor(t, out=c)
    t -= c
    u = omega.view(np.uint64)
    u <<= k.view(np.uint64)
    u += c.astype(np.uint64)
    d = k - cursor
    steps = int(d.max())
    if steps > batch.precision:
        raise PrecisionExhausted("no dyadic digits left to halve")
    for j in range(steps):
        np.copyto(t, (t + ((omega >> j) & 1)) / 2.0, where=d > j)
    precision = batch.precision - steps
    omega >>= d
    omega &= (1 << precision) - 1
    return SampleBatch(omega, t, s, cursor + batch.cursor, batch.index,
                       batch.windows, batch.origin, precision)


class TestSkippedPasses:
    """act skips the passes that are identities for (a, b): the wrap-down
    block when no row wraps down, the wrap-up block when none wraps up,
    and the carry's reduction when every carry is below 2**62 in
    magnitude (always, for |b| < 2**61 a on a batch in normal form).
    Every row must come out as with all passes run, and as the plain-int
    oracle says."""

    # (s range, log2(a) range): rows wrap not at all, only down, only up
    # by 1 to 3 digits, or (s out of normal form) both ways in one act
    WRAPS = {
        "none": ((0.0, 0.5), (0.0, 0.4)),
        "down": ((0.0, 1.0), (0.1, 3.0)),
        "up": ((0.0, 1.0), (-3.0, -0.1)),
        "both": ((-2.5, 3.5), (-0.5, 0.5)),
    }

    @staticmethod
    def translations(rng, a):
        bound = 2.0 ** 61 * a
        below = float(np.nextafter(bound, 0.0))
        return [0.0, -0.0, float(rng.uniform(-3.0, 3.0)), below, -below,
                bound, -bound, 1e300, -1e300]

    @staticmethod
    def batch(rng, n, s_range, prec):
        return SampleBatch(
            rng.integers(0, 1 << prec, n), rng.random(n),
            rng.uniform(*s_range, n), rng.integers(-3, 4, n),
            np.zeros(n, dtype=np.int64), ("1" * 21,), 10, prec)

    @pytest.mark.parametrize("wraps", sorted(WRAPS))
    def test_rows_match_full_passes_and_oracle(self, wraps):
        rng = np.random.default_rng(sorted(self.WRAPS).index(wraps))
        s_range, log2a_range = self.WRAPS[wraps]
        raised = 0
        for trial in range(12):
            prec = (2, 16, 62)[trial % 3]
            a = float(np.exp2(rng.uniform(*log2a_range)))
            for b in self.translations(rng, a):
                base = self.batch(rng, 64, s_range, prec)
                outcome, moved = [], []
                for move in (base.act,
                             lambda a, b: full_pass_act(base, a, b)):
                    try:
                        moved.append(move(a, b))
                        outcome.append(None)
                    except PrecisionExhausted as exc:
                        outcome.append(str(exc))
                assert outcome[0] == outcome[1]
                if outcome[0] is not None:
                    raised += 1
                    continue
                got, want = moved
                assert got.precision == want.precision
                for col in ("omega", "t", "s", "cursor"):
                    assert getattr(got, col).tobytes() == \
                        getattr(want, col).tobytes(), (col, a, b)
                for i in range(base.n):
                    om, prec_i, t, s, cur = ref_act(a, b, row(base, i))
                    assert prec_i >= got.precision
                    assert (om % (1 << got.precision), t, s, cur) == \
                        (int(got.omega[i]), float(got.t[i]),
                         float(got.s[i]), int(got.cursor[i]))
        # up to three digits halved at precision 2 must run out sometimes
        assert (raised > 0) == (wraps in ("up", "both"))


class TestRescalingRelation:
    def test_random_admissible_windows(self):
        # letters that are not digits colour by alphabet index as well
        rng = np.random.default_rng(77)
        for spec in (TM, AB):
            for _ in range(25):
                win = random_colour_window(spec, rng, 5)
                assert check_relation_RPw(spec, win, 3.0)

    def test_constant_word_is_shift_fixed(self):
        win = ColourWindow("1" * 7, -3)
        assert check_relation_RPw(None, win, 1.0)
        # sigma(w) = w, so the rescaled patch also reproduces itself
        patch = generate_patch(1.0, colouring=win)
        rescaled = {(t.k + 1, t.n): t.colour for t in patch.tiles}
        again = {(t.k + 1, t.n): win.get(-(t.k + 1)) for t in patch.tiles}
        assert rescaled == again

    def test_corrupted_colouring_detected(self):
        word = language(TM, 11)[0]
        win = ColourWindow(word, -5)
        patch = generate_patch(3.0, colouring=win)
        tiles = list(patch.tiles)
        t4 = tiles[4]
        tiles[4] = TileIndex(t4.k, t4.n, (t4.colour % 2) + 1)
        broken = TileSet(tuple(tiles), patch.radius)
        assert not check_relation_RPw(None, win, 3.0, patch=broken)
        assert len(relation_defects(None, win, 3.0, patch=broken)) == 1

    def test_window_exhaustion(self):
        with pytest.raises(ColourWindowExhausted):
            check_relation_RPw(None, ColourWindow("111", -1), 3.0)

    def test_inadmissible_word_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            check_relation_RPw(TM, ColourWindow("111", -1), 0.0)


class TestTestFunction:
    def test_bump_profile_validation(self):
        with pytest.raises(ValueError):
            BumpProfile("bump5")
        with pytest.raises(ValueError):
            BumpProfile("bump3", 0.9, 0.2)
        with pytest.raises(ValueError):
            BumpProfile("bump3", 0.5, 0.0)
        # every support check is False for a NaN, which then evaluated to
        # NaN on every row
        for center, width in [(math.nan, 0.2), (0.5, math.nan),
                              (math.inf, 0.2), (0.5, -math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                BumpProfile("bump3", center, width)

    @pytest.mark.parametrize("start", [1.5, True, "0"])
    def test_word_indicator_start_must_be_int(self, start):
        with pytest.raises(ValueError, match="start"):
            TFn.word_indicator("12", start)

    def test_bump_values(self):
        b = BumpProfile("bump3", 0.5, 0.25)
        z = 0.5
        vals = b(np.array([0.5, 0.25, 0.9, 0.5 + 0.125]))
        assert vals[:3].tolist() == [1.0, 0.0, 0.0]
        assert vals[3] == pytest.approx((1 - z * z) ** 3)
        assert BumpProfile()(np.array([0.3, 0.9])).tolist() == [1.0, 1.0]

    @staticmethod
    def gathered_bump(x, c, w):
        """(1 - z**2)**3 evaluated on the support only and scattered back.

        The cube is (v * v) * v, two IEEE multiplies, whose bits do not
        depend on the CPU.
        """
        z = (x - c) / w
        inside = np.abs(z) < 1.0
        u = z[inside]
        v = 1.0 - np.square(u)
        out = np.zeros_like(z)
        out[inside] = (v * v) * v
        return out

    def test_bump_equals_evaluation_on_every_row(self):
        # the bytes also pin +0.0 outside the support
        rng = np.random.default_rng(11)
        tiny = 2.0 ** -53
        profiles = [(0.5, 0.45), (0.4, 0.2), (0.6, 0.1), (0.5, 1e-12),
                    (0.3, 1e-12), (0.25, 0.25 - tiny), (0.75, 0.25 - tiny),
                    (0.5, 0.5 - tiny)]
        for _ in range(20):
            c = float(rng.uniform(0.2, 0.8))
            profiles.append((c, float(rng.uniform(0.01, min(c, 1.0 - c)))))
        far = [-1e295, -1e10, -3.0, -0.0, 0.0, 1.0, 7.5, 1e10, 1e295]
        for c, w in profiles:
            bump = BumpProfile("bump3", c, w)
            # both sides of each end of the support, and the ends
            edges = [np.nextafter(e, d) for e in (c - w, c + w)
                     for d in (0.0, 1.0)] + [c - w, c + w]
            x = np.concatenate([rng.uniform(0.0, 1.0, 2000),
                                rng.uniform(c - 1.5 * w, c + 1.5 * w, 500),
                                edges, far])
            want = self.gathered_bump(x, c, w)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(all="raise"):
                    got = bump(x)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            off = np.abs((x - c) / w) >= 1.0
            assert off[-len(far):].all()
            assert not np.signbit(got[off]).any() and not got[off].any()
            assert (got[~off] > 0.0).all()

    def test_scalar_evaluation(self):
        f = TFn(
            word_part=CylinderFunction.of("Z", 0, {"12": 3}),
            omega_part=cylinder_indicator(2, 1),
            t_bump=BumpProfile("bump3", 0.5, 0.5 - 1e-9),
        )

        def value(om, cursor):
            p = batch_of([(om, 0.5, 0.0, cursor)], prec=8, word="1121",
                         origin=1)
            return f.on_batch(p)[0]

        assert value(5, 0) == pytest.approx(3.0)
        assert value(6, 0) == 0.0  # omega not in the residue class
        assert value(5, 1) == 0.0  # cursor moved off the cylinder

    def test_scalar_matches_batch(self):
        # the expected values slice each row's window string itself;
        # "131" and "aca" hold a letter outside the alphabet
        f = TFn(
            word_part=CylinderFunction.of(
                "Z", -1, {"121": 2, "212": -1, "131": 5, "aba": 3,
                          "bab": -2, "aca": 7}),
            omega_part=cylinder_indicator(1, 1),
            t_bump=BumpProfile("bump3", 0.45, 0.4),
            s_bump=BumpProfile("bump3", 0.55, 0.4),
        )
        coeffs = dict(f.word_part.coeffs)
        rng = np.random.default_rng(2024)
        for spec in (TM, FIB, AB):
            batch = sample_batch(spec, 256, 2024)
            pool = language(spec, len(batch.windows[0]))
            index = rng.integers(0, len(pool), batch.n)
            windows = [pool[k] for k in index]
            # move the cursors off zero
            batch = batch.with_index(index).act(2.5, -1.25)
            assert batch.cursor.any()
            vals = f.on_batch(batch)
            for i, win in enumerate(windows):
                lo = batch.origin + int(batch.cursor[i]) - 1
                expect = (coeffs.get(win[lo:lo + 3], 0)
                          * (int(batch.omega[i]) % 2 == 1)
                          * f.t_bump(batch.t[i]) * f.s_bump(batch.s[i]))
                assert vals[i] == pytest.approx(expect, abs=1e-12)
            assert np.count_nonzero(vals) >= 20

    def test_batch_window_exhaustion(self):
        f = TFn.word_indicator("12")
        # the cursor drifts past the sampled window
        batch = sample_batch(TM, 8, 5, halfwidth=1).act(4.0, 0.0)
        with pytest.raises(ColourWindowExhausted):
            f.on_batch(batch)

    def test_sup_bound(self):
        f = TFn(word_part=CylinderFunction.of("Z", 0, {"12": -4}),
                         omega_part=LocallyConstFn(1, (2, 3)))
        assert f.sup_bound() == 12.0


class TestSampler:
    def test_deterministic(self):
        a = sample_batch(TM, 500, 31337)
        b = sample_batch(TM, 500, 31337)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.index, b.index)
        one = [row(sample_batch(TM, 1, seed)) for seed in (8, 8, 9)]
        assert one[0] == one[1] != one[2]

    # sha256 of omega, t, s and index (as int64) of sample_batch(spec, 333,
    # 11); 333 rows leave the 16 chunks of unequal sizes, so any change to
    # which words of the stream a row reads changes the digest
    PINNED = {
        "tm": (TM, "7bafed32cd3f2c9cd73add3bfd17a485"
                   "8cfd6314478677dc3a79b7465986222b"),
        "ab": (AB, "3c410acd29d563415976d09213621d8a"
                   "5f171685a9eb0b1b68256a6a38180e8a"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_draw_is_pinned(self, name):
        spec, expect = self.PINNED[name]
        b = sample_batch(spec, 333, 11)
        assert b.windows == tuple(language(spec, 17))
        digest = hashlib.sha256()
        for col in (b.omega, b.t, b.s, b.index.astype(np.int64)):
            digest.update(np.ascontiguousarray(col).tobytes())
        assert digest.hexdigest() == expect

    def test_odometer_marginal(self):
        b = sample_batch(TM, 100_000, 616)
        freq = float((b.omega & 3 == 1).mean())
        assert abs(freq - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / b.n)

    def test_word_marginal(self):
        b = sample_batch(TM, 100_000, 617)
        o = b.origin
        starts_12 = np.array([w[o:o + 2] == "12" for w in b.windows])
        freq = float(starts_12[b.index].mean())
        p = 1 / 3
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / b.n)

    def test_continuous_marginals(self):
        b = sample_batch(TM, 100_000, 618)
        se = 3 / math.sqrt(12 * b.n)
        assert abs(float(b.t.mean()) - 0.5) <= se
        assert abs(float(b.s.mean()) - 0.5) <= se

    def test_batch_act_matches_scalar_act(self):
        batch = sample_batch(TM, 32, 909)
        before = [row(batch, i) for i in range(32)]
        batch = batch.act(2.5, -1.25)
        for i, p in enumerate(before):
            assert close(ref_act(2.5, -1.25, p), row(batch, i), tol=1e-9)

    def test_huge_translations_match_scalar_act(self):
        # floor(t) passes 2**63 here; the carry must wrap, not overflow
        batch = sample_batch(TM, 4, 77)
        points = [row(batch, i) for i in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for b in (2.0 ** 70, -2.0 ** 70):
                batch = batch.act(1.0, b)
                points = [ref_act(1.0, b, p) for p in points]
                for i, p in enumerate(points):
                    assert p == row(batch, i)
                    assert p[2] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_batch(TM, 4, 0, precision=0)
        for n in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                sample_batch(TM, n, 0)

    def test_draw_peak_memory(self):
        # numpy reports its buffers to tracemalloc.  The batch's five
        # 8-byte columns (omega, t, s, cursor, index) plus one chunk's
        # temporaries, not a second copy of every column
        n = 130_000
        sample_batch(FIB, 16, 0)  # windows and measures loaded
        tracemalloc.start()
        try:
            sample_batch(FIB, n, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * n + 8 * 8 * -(-n // _CHUNKS)

    def test_bool_seed_refused(self):
        f = TFn.word_indicator("12")
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_batch(TM, 50, True)
        with pytest.raises(ValueError, match="seed must be an integer"):
            invariance_check(TM, f, [(2.0, 0.0)], 50, seed=True)
        with pytest.raises(ValueError, match="seed must be an integer"):
            harmonicity_check(TM, f, 50, True)
        with pytest.raises(ValueError, match="seed must be an integer"):
            tau_pairing(TM, f, f, 50, np.True_)

    def test_bool_precision_refused(self):
        with pytest.raises(ValueError, match="precision must be an integer"):
            sample_batch(TM, 50, 1, precision=True)

    def test_float_sample_size_refused(self):
        f = TFn.word_indicator("12")
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_batch(TM, 2.0, 1)
        with pytest.raises(ValueError, match="n must be an integer"):
            invariance_check(TM, f, [(2.0, 0.0)], 100.0, 1)

    def test_negative_halfwidth_refused(self):
        with pytest.raises(ValueError, match="halfwidth must be non-negative"):
            sample_batch(TM, 50, 1, halfwidth=-1)
        with pytest.raises(ValueError, match="halfwidth must be an integer"):
            sample_batch(TM, 50, 1, halfwidth=2.0)

    def test_numpy_integers_accepted(self):
        a = sample_batch(TM, np.int64(50), np.uint32(3),
                         precision=np.int32(40), halfwidth=np.int8(2))
        b = sample_batch(TM, 50, 3, precision=40, halfwidth=2)
        for name in ("omega", "t", "s", "cursor", "index"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.windows, a.origin, a.precision) == \
            (b.windows, b.origin, b.precision)

    def test_large_alphabet(self):
        letters = "".join(chr(0x4E00 + i) for i in range(130))
        b = sample_batch(Periodic(letters), 4000, 6, halfwidth=2)
        assert len(set(b.index.tolist())) > 127
        b = b.act(1.5, 0.0)  # cursors 0 and 1
        assert set(b.cursor.tolist()) == {0, 1}
        for u in (letters[5:7], letters[128] + letters[129]):
            vals = TFn.word_indicator(u).on_batch(b)
            for i in range(b.n):
                lo = b.origin + int(b.cursor[i])
                win = b.windows[b.index[i]]
                assert vals[i] == (1.0 if win[lo:lo + 2] == u else 0.0)
            assert vals.any()

    @pytest.mark.parametrize("spec", [TM, FIB], ids=["tm", "fib"])
    def test_smaller_sample_is_a_prefix(self, spec):
        small = sample_batch(spec, 333, 11)
        large = sample_batch(spec, 5000, 11)
        for name in ("omega", "t", "s", "cursor", "index"):
            assert np.array_equal(getattr(small, name),
                                  getattr(large, name)[:333]), name


class TestStream:
    """The counter-mode words against SplitMix64 stepped in plain ints."""

    SEEDS = [0, 11, 2 ** 64 + 5]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stride", [1, 4])
    def test_words_match_plain_splitmix(self, seed, stride):
        for stream in (0, 1, 2):
            key = _key(seed, stream)
            assert key == splitmix_key(seed, stream)
            first, count = 3, 50
            plain = splitmix64(key, first + stride * count)[first::stride]
            words = _words(key, first + stride * count)[first::stride]
            assert words.tolist() == plain

    def test_first_outputs_from_state_zero(self):
        expect = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                  0x06C45D188009454F, 0xF88BB8A8724C81EC]
        assert splitmix64(0, 4) == expect
        assert _words(0, 4).tolist() == expect

    def test_streams_and_limbs_differ(self):
        keys = {_key(seed, stream) for seed in (5, 2 ** 64 + 5, 2 ** 128 + 5)
                for stream in (0, 1, 2)}
        assert len(keys) == 9

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_read_their_four_words(self, seed):
        # 1 and 15 rows leave chunks empty, 17 and 20 001 make one chunk
        # a row longer than the rest
        precision = 37
        words = splitmix64(splitmix_key(seed, 0), 4 * 20_001)
        for n in (1, 15, 17, 40, 20_001):
            b = sample_batch(FIB, n, seed, precision=precision)
            bounds = _cumulative_measure(FIB, b.windows)
            for r in range(n):
                w = words[4 * r:4 * r + 4]
                t, s, u = ((x >> 11) / 2 ** 53 for x in w[1:])
                assert int(b.omega[r]) == w[0] >> (64 - precision)
                assert (float(b.t[r]), float(b.s[r])) == (t, s)
                assert b.index[r] == searchsorted_index(bounds, u)


class TestLazySample:
    """Rows drawn when a check reaches them, against the whole draw."""

    COLUMNS = ("omega", "t", "s", "cursor", "index")

    def assert_rows_equal(self, got, expect):
        for name in self.COLUMNS:
            a, b = getattr(got, name), getattr(expect, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        assert (got.windows, got.origin, got.precision, got.n) == \
            (expect.windows, expect.origin, expect.precision, expect.n)

    # one block, both sides of a full block, the uneven two- and
    # three-block splits (whose last slice runs past n) and seven blocks
    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK + 17, 100_000])
    def test_blocks_equal_the_whole_draw(self, n):
        whole = sample_batch(FIB, n, 11)
        lazy = LazySample(FIB, n, 11)
        blocks = _blocks(n)
        for rows in blocks:
            self.assert_rows_equal(lazy.rows(rows), whole.rows(rows))
        assert sum(lazy.rows(rows).n for rows in blocks) == n

    def test_any_slice_equals_the_whole_draw(self):
        n = 1000
        whole = sample_batch(TM, n, 2 ** 64 + 5, precision=37, halfwidth=3)
        lazy = LazySample(TM, n, 2 ** 64 + 5, precision=37, halfwidth=3)
        for rows in (slice(None), slice(990, 2000), slice(5, 400, 7),
                     slice(None, None, -3), slice(-20, -3), slice(7, 7)):
            self.assert_rows_equal(lazy.rows(rows), whole.rows(rows))

    @pytest.mark.parametrize("args, kwargs", [
        ((TM, 0, 1), {}), ((TM, 2.0, 1), {}), ((TM, 5, True), {}),
        ((TM, 5, -1), {}), ((TM, 5, 1), {"precision": 63}),
        ((TM, 5, 1), {"halfwidth": -1}), ((TM, 5, 1), {"precision": True})])
    def test_refuses_what_sample_batch_refuses(self, args, kwargs):
        with pytest.raises(ValueError) as expect:
            sample_batch(*args, **kwargs)
        with pytest.raises(ValueError) as got:
            LazySample(*args, **kwargs)
        assert str(got.value) == str(expect.value)

    def test_checks_draw_no_whole_sample(self, monkeypatch):
        import hyptile.hull as hull
        calls = []
        monkeypatch.setattr(hull, "sample_batch",
                            lambda *a, **k: calls.append(a))
        f = TFn.bump(0.5, 0.45, 0.5, 0.45)
        invariance_check(TM, f, [(2.0, 0.5)], 2 * _BLOCK + 17, 3)
        harmonicity_check(TM, f, 2 * _BLOCK + 17, 3)
        tau_pairing(TM, f, f, 2 * _BLOCK + 17, 3)
        assert calls == []


def searchsorted_index(bounds, u):
    return np.minimum(np.searchsorted(bounds, u, side="right"),
                      len(bounds) - 1)


def guide_index(bounds, u):
    out = np.empty(len(u), dtype=np.intp)
    _window_lookup(bounds)(u, out)
    return out


def probes(bounds):
    """Each bound and bucket edge j/m with their neighbours, 0, 1 - 2**-53.

    Only those a uniform draw in [0, 1) can give.
    """
    m = 4 * len(bounds)
    edges = np.arange(m + 1) / m
    u = np.concatenate([bounds, edges, [0.0, 1.0 - 2.0 ** -53]])
    u = np.concatenate([u, np.nextafter(u, -np.inf), np.nextafter(u, np.inf)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestWindowLookup:
    SPECS = {"tm": TM, "fib": FIB, "trib": TRIB, "s4": S4, "skew": SKEW}

    @staticmethod
    def bounds(spec):
        return _cumulative_measure(spec, tuple(language(spec, 17)))

    def test_specs_reach_the_edge_cases(self):
        assert self.bounds(FIB)[-1] == 1.0000000000000002
        assert self.bounds(TRIB)[-1] == 0.9999999999999996
        assert len(self.bounds(S4)) == 224
        b = self.bounds(SKEW)
        buckets = np.floor(b * 4 * len(b))
        assert len(np.unique(buckets)) < len(b)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_equals_searchsorted_at_edges(self, name):
        b = self.bounds(self.SPECS[name])
        u = probes(b)
        assert np.array_equal(guide_index(b, u), searchsorted_index(b, u))

    @settings(max_examples=300, deadline=None, database=None)
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
           end=st.one_of(st.sampled_from([1.0 - 2.0 ** -52, 1.0,
                                          1.0 + 2.0 ** -52]),
                         st.floats(0.25, 1.75)),
           extra=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                          max_size=20))
    def test_equals_searchsorted_on_random_tables(self, weights, end, extra):
        sums = np.cumsum([1.0] + weights)
        # the last bound is end exactly; zero weights give equal bounds
        b = sums / sums[-1] * end
        u = np.concatenate([probes(b), extra])
        assert np.array_equal(guide_index(b, u), searchsorted_index(b, u))


class TestSampleSizeGuards:
    def test_checks_need_two_samples(self):
        f = TFn.word_indicator("12")
        gs = [(2.0, 0.5)]
        for n in (0, 1):
            with pytest.raises(ValueError, match="at least"):
                invariance_check(TM, f, gs, n, 5)
            with pytest.raises(ValueError, match="at least"):
                harmonicity_check(TM, f, n, 5)
            with pytest.raises(ValueError, match="at least"):
                tau_pairing(TM, f, f, n, 5)
        one = sample_batch(TM, 1, 5)
        with pytest.raises(ValueError, match="at least 2"):
            invariance_reports(one, [(f, None)], gs, 5)
        with pytest.raises(ValueError, match="at least 2"):
            harmonicity_report(one, f, 5)
        with pytest.raises(ValueError, match="at least 2"):
            tau_reports(one, [(f, f)], 5)
        two = sample_batch(TM, 2, 5)
        assert invariance_reports(two, [(f, None)], gs, 5)[0]["n"] == 2


class TestReportSeed:
    """The reports that draw nothing refuse a seed sample_batch refuses."""

    F = TFn.word_indicator("12")

    def reports(self, seed):
        base = sample_batch(TM, 100, 3)
        return {"invariance": lambda: invariance_reports(
                    base, [(self.F, None)], [(2.0, 0.0)], seed)[0],
                "harmonicity": lambda: harmonicity_report(base, self.F, seed),
                "tau": lambda: tau_reports(base, [(self.F, self.F)], seed)[0]}

    @pytest.mark.parametrize("seed", [True, np.False_])
    def test_bool_refused(self, seed):
        for report in self.reports(seed).values():
            with pytest.raises(ValueError, match="seed must be an integer"):
                report()

    @pytest.mark.parametrize("seed", ["x", 3.0, None])
    def test_non_integer_refused(self, seed):
        for report in self.reports(seed).values():
            with pytest.raises(ValueError, match="seed must be an integer"):
                report()

    def test_negative_refused(self):
        for report in self.reports(-1).values():
            with pytest.raises(ValueError, match="seed must be non-negative"):
                report()

    def test_numpy_integer_written_as_int(self):
        for name, report in self.reports(np.uint16(3)).items():
            rep = report()
            assert type(rep["seed"]) is int and rep["seed"] == 3, name
            assert rep == self.reports(3)[name]()
        rep = invariance_check(TM, self.F, [(2.0, 0.0)], 100, np.int64(3))
        assert json.loads(json.dumps(rep))["seed"] == 3


class TestFirstWordControl:
    def test_equals_biased_draw(self):
        # the biased draw: the sample's own coordinates, every row reading
        # the first admissible window
        for spec, n, seed in ((TM, 1000, 3), (FIB, 777, 41)):
            base = sample_batch(spec, n, seed)
            shared = first_word_control(base)
            for name in ("omega", "t", "s", "cursor", "windows"):
                assert getattr(shared, name) is getattr(base, name), name
            assert shared.windows[0] == language(spec, 17)[0]
            assert shared.index.dtype == base.index.dtype
            assert shared.index.shape == (n,) and not shared.index.any()
            assert (shared.origin, shared.precision, shared.n) == \
                (base.origin, base.precision, base.n)


class TestInvarianceCheck:
    GS = [(1.0, 0.7), (2.0, 0.0), (0.5, 0.0), (1.5, -0.9)]

    def test_constant_function_exact(self):
        rep = invariance_check(TM, TFn.constant(), self.GS, 500, 1)
        assert rep["pass"] and rep["statistic"] == 0.0

    def test_cylinder_indicator_invariant(self):
        rep = invariance_check(
            TM, TFn.word_indicator("12"), self.GS, 30_000, 5150)
        assert rep["pass"]
        assert {"statistic", "std_error", "n", "pass", "seed"} <= set(rep)
        assert rep["n"] == 30_000 and rep["seed"] == 5150

    def test_omega_and_bump_factors_invariant(self):
        f = TFn(
            word_part=CylinderFunction.of("Z", 0, {"12": 1, "21": -2}),
            omega_part=cylinder_indicator(2, 1),
            t_bump=BumpProfile("bump3", 0.5, 0.45),
            s_bump=BumpProfile("bump3", 0.5, 0.45))
        rep = invariance_check(TM, f, self.GS, 30_000, 5151)
        assert rep["pass"]

    def test_biased_sampler_detected(self):
        base = sample_batch(TM, 30_000, 5152)
        rep = invariance_reports(
            base, [(TFn.word_indicator("12"), first_word_control)],
            self.GS, 5152)[0]
        assert not rep["pass"]
        assert any(not g["pass"] for g in rep["per_g"])


class TestScaleOnlyMoves:
    """A letter-only function's checks move s and the cursor alone.

    Times a constant-1 omega factor, the same function reads omega and
    so forces the full act; its values and errors are the reference.
    """

    N = _BLOCK + 1000  # two blocks

    @staticmethod
    def full_act(f):
        return TFn(word_part=f.word_part,
                   omega_part=LocallyConstFn.constant(1))

    @staticmethod
    def wrapping_moves(seed):
        # log2(a) in (-2, 2): s wraps up or down by up to two digits
        rng = np.random.default_rng(seed)
        return [(float(2.0 ** u), float(b)) for u, b in
                zip(rng.uniform(-2.0, 2.0, 24), rng.uniform(-3.0, 3.0, 24))]

    @pytest.mark.parametrize("spec, seed", [(TM, 31), (FIB, 32)],
                             ids=["tm", "fib"])
    def test_report_equals_full_act(self, monkeypatch, spec, seed):
        f = TFn.word_indicator(language(spec, 2)[0])
        g = self.full_act(f)
        assert f.letters_only and not g.letters_only
        gs = self.wrapping_moves(seed) + [(0.25, 0.0), (4.0 - 1e-9, 1.0)]
        full = json.dumps(invariance_check(spec, g, gs, self.N, seed))
        acts = []
        act = SampleBatch.act
        monkeypatch.setattr(SampleBatch, "act", lambda self, a, b: (
            acts.append((a, b)), act(self, a, b))[1])
        scaled = json.dumps(invariance_check(spec, f, gs, self.N, seed))
        assert acts == []
        assert scaled == full
        assert json.loads(scaled)["per_g"][0]["statistic"] != 0.0

    def test_scaled_is_act_in_s_cursor_and_precision(self):
        base = sample_batch(TM, 500, 36).act(3.0, 0.2)  # cursors 1 and 2
        assert base.cursor.any()
        for a, b in self.wrapping_moves(36):
            moved = base.act(a, b)
            got = base.scaled(a, b)
            assert got.t is None and got.omega is None
            assert got.s.tobytes() == moved.s.tobytes()
            assert np.array_equal(got.cursor, moved.cursor)
            assert (got.precision, got.n) == (moved.precision, moved.n)
            assert got.index is base.index

    def test_flow_and_laplacian_equal_full_act(self):
        f = TFn.word_indicator("12")
        g = self.full_act(f)
        assert harmonicity_check(TM, f, self.N, 33) == \
            harmonicity_check(TM, g, self.N, 33)
        assert tau_pairing(TM, f, f, self.N, 34) == \
            tau_pairing(TM, g, g, self.N, 34)

    @pytest.mark.parametrize("a, b", [
        (0.0, 0.0), (-1.0, 0.5), (math.nan, 0.0), (math.inf, 0.0),
        (1.0, math.nan), (1.0, -math.inf), (2.0 ** 64, 0.0),
        (2.0 ** 70, 1.0), (2.0 ** -50, 0.0), (2.0 ** -49, 2.5)],
        ids=["zero", "negative", "nan-a", "inf-a", "nan-b", "inf-b",
             "64-wraps", "70-wraps", "exhausted", "exhausted-b"])
    def test_errors_equal_full_act(self, a, b):
        f = TFn.word_indicator("12")
        with pytest.raises(Exception) as expect:
            invariance_check(TM, self.full_act(f), [(a, b)], self.N, 35)
        with pytest.raises(Exception) as got:
            invariance_check(TM, f, [(a, b)], self.N, 35)
        assert type(got.value) is type(expect.value)
        assert type(got.value) in (ValueError, PrecisionExhausted)
        assert str(got.value) == str(expect.value)


class TestHarmonicityCheck:
    def test_constant_exact_zero(self):
        rep = harmonicity_check(TM, TFn.constant(), 500, 2)
        assert rep["pass"] and rep["statistic"] == 0.0

    def test_smooth_bump_within_tolerance(self):
        rep = harmonicity_check(TM, TFn.bump(0.5, 0.45, 0.5, 0.45),
                                30_000, 5153)
        assert rep["pass"]
        assert abs(rep["statistic"]) <= 3 * rep["std_error"] + rep["fd_bias"]

    def test_cylinder_bump_within_tolerance(self):
        f = TFn(word_part=CylinderFunction.of("Z", 0, {"12": 1}),
                         t_bump=BumpProfile("bump3", 0.5, 0.4),
                         s_bump=BumpProfile("bump3", 0.5, 0.4))
        rep = harmonicity_check(TM, f, 30_000, 5154)
        assert rep["pass"]

    def test_step_validation(self):
        with pytest.raises(ValueError):
            harmonicity_check(TM, TFn.constant(), 10, 0, h=2.0 ** -30)
        with pytest.raises(ValueError):
            harmonicity_check(TM, TFn.constant(), 10, 0, h=0.5)

    def test_step_bounds_are_accepted(self):
        # [2**-20, 1/8] is closed: both ends pass, the next doubles out
        for h in (2.0 ** -20, 0.125):
            _validate_step(h)
            assert harmonicity_check(TM, TFn.constant(), 10, 0,
                                     h=h)["h"] == h
        for h in (math.nextafter(2.0 ** -20, 0.0),
                  math.nextafter(0.125, 1.0)):
            with pytest.raises(ValueError):
                _validate_step(h)


class TestTauPairing:
    def test_constants_give_exact_zero(self):
        rep = tau_pairing(TM, TFn.constant(),
                          TFn.constant(), 500, 3)
        assert rep["pass"] and rep["statistic"] == 0.0
        assert rep["antisymmetry_defect"] == 0.0

    def test_pairing_with_one_vanishes(self):
        rep = tau_pairing(TM, TFn.bump(0.5, 0.45, 0.5, 0.45),
                          TFn.constant(), 30_000, 5155)
        assert abs(rep["statistic"]) <= 3 * rep["std_error"] + rep["fd_bias"]
        assert rep["pass"]

    def test_antisymmetry_defect_small(self):
        f = TFn.bump(0.5, 0.45, 0.5, 0.45)
        g = TFn.bump(0.45, 0.3, 0.55, 0.35)
        rep = tau_pairing(TM, f, g, 30_000, 5156)
        assert rep["pass"]
        assert rep["antisymmetry_defect"] <= (3 * rep["defect_std_error"]
                                              + rep["fd_bias"] + 1e-12)

    def test_report_is_reproducible(self):
        f = TFn.bump(0.5, 0.4, 0.5, 0.4)
        g = TFn.word_indicator("12")
        a = tau_pairing(TM, f, g, 5_000, 99)
        b = tau_pairing(TM, f, g, 5_000, 99)
        assert a == b


# sizes around the row blocks of the checks: one tiny block, one block
# just short of full, one full block, two halves, and three blocks
BLOCK_SIZES = pytest.mark.parametrize(
    "n", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17],
    ids=["two", "block-1", "block", "block+1", "2block+17"])


class TestSharedCores:
    """The cores on a lazy sample against a fresh whole draw and fresh
    moves per use.

    The whole-batch columns are reduced by the oracle's merge of the
    moments of the checks' row blocks.
    """

    GS = [(1.0, 0.7), (2.0, 0.0), (0.5, 0.0), (1.5, -0.9), (0.7, 2.5)]
    SEED = 77

    @staticmethod
    def mean_se(x):
        return merged_mean_se(x, _blocks(len(x)))

    @BLOCK_SIZES
    def test_invariance_cases_match_separate_draws(self, n):
        f0 = TFn.word_indicator("12")
        f1 = TFn(word_part=CylinderFunction.of("Z", 0, {"12": 1}),
                 t_bump=BumpProfile("bump3", 0.5, 0.45),
                 s_bump=BumpProfile("bump3", 0.5, 0.45))
        reports = invariance_reports(
            LazySample(TM, n, self.SEED),
            [(f0, None), (f1, None), (f0, first_word_control)],
            self.GS, self.SEED)
        for rep, (f, biased) in zip(reports, [(f0, False), (f1, False),
                                              (f0, True)]):
            for entry, (a, b) in zip(rep["per_g"], self.GS):
                fresh = sample_batch(TM, n, self.SEED)
                if biased:
                    fresh = first_word_control(fresh)
                moved = fresh.act(a, b)
                diff, se = self.mean_se(f.on_batch(moved) - f.on_batch(fresh))
                assert (entry["statistic"], entry["std_error"]) == (diff, se)

    @BLOCK_SIZES
    def test_harmonicity_matches_whole_batch_probes(self, n):
        h = 2.0 ** -6
        f = TFn(word_part=CylinderFunction.of("Z", 0, {"12": 1, "21": -2}),
                omega_part=cylinder_indicator(2, 1),
                t_bump=BumpProfile("bump3", 0.5, 0.45),
                s_bump=BumpProfile("bump3", 0.5, 0.45))
        rep = harmonicity_report(LazySample(TM, n, self.SEED), f,
                                 self.SEED, h=h)

        def probe(a, b):
            return f.on_batch(sample_batch(TM, n, self.SEED).act(a, b))

        centre = f.on_batch(sample_batch(TM, n, self.SEED))
        lap = (probe(1.0, h) + probe(1.0, -h) + probe(1.0 + h, 0.0)
               + probe(1.0 - h, 0.0) - 4.0 * centre) / (h * h)
        assert (rep["statistic"], rep["std_error"]) == self.mean_se(lap)

    @BLOCK_SIZES
    def test_tau_pairs_match_separate_flows(self, n):
        h = 2.0 ** -6
        pairs = [(TFn.bump(0.5, 0.45, 0.5, 0.45), TFn.constant()),
                 (TFn.bump(0.45, 0.3, 0.55, 0.35), TFn.word_indicator("12"))]
        reports = tau_reports(LazySample(TM, n, self.SEED), pairs,
                              self.SEED, h=h)

        def flow(fn):
            base = sample_batch(TM, n, self.SEED)
            up, down = base.act(2.0 ** h, 0.0), base.act(2.0 ** -h, 0.0)
            return ((fn.on_batch(up) - fn.on_batch(down)) / (2.0 * h),
                    fn.on_batch(base))

        for rep, (f, g) in zip(reports, pairs):
            (yf, f0), (yg, g0) = flow(f), flow(g)
            assert (rep["statistic"], rep["std_error"]) == \
                self.mean_se(yf * g0)
            defect, se_d = self.mean_se(yf * g0 + yg * f0)
            assert rep["antisymmetry_defect"] == abs(defect)
            assert rep["defect_std_error"] == se_d


class TestHullcheckPass:
    """hullcheck's one pass against its checks run one at a time."""

    GS = [(1.0, 0.7), (2.0, 0.0), (0.5, 0.0), (1.5, -0.9), (0.7, 2.5)]
    SEED = 78

    @BLOCK_SIZES
    def test_equals_the_separate_checks(self, n):
        f0 = TFn.word_indicator("12")
        f1 = TFn(word_part=CylinderFunction.of("Z", 0, {"12": 1}),
                 t_bump=BumpProfile("bump3", 0.5, 0.45),
                 s_bump=BumpProfile("bump3", 0.5, 0.45))
        f = TFn.bump(0.5, 0.45, 0.5, 0.45)
        cases = [(f0, None), (f1, None), (f0, first_word_control)]
        omega_1, letter_mean, inv, harm = hullcheck_reports(
            LazySample(TM, n, self.SEED), cases, self.GS, f, "1", self.SEED)
        whole = sample_batch(TM, n, self.SEED)
        # sums of 0s and 1s are exact, so the blocks give numpy's mean
        assert omega_1 == float((whole.omega & 3 == 1).mean())
        assert letter_mean == float(
            TFn.word_indicator("1").on_batch(whole).mean())
        assert inv == invariance_reports(whole, cases, self.GS, self.SEED)
        assert harm == harmonicity_report(whole, f, self.SEED)


class TestMergedMoments:
    """The checks' merged block moments against numpy's whole column.

    The bound comes from the rounding of both sides, to first order in
    the unit roundoff u, with gamma(k) = k u / (1 - k u) for k roundings
    in a chain (Higham, Accuracy and Stability, 2002, ch. 3-4); it is
    not fitted to the differences seen.  M = max |x|, n rows, B blocks.

    - A sum whose additions chain at most D deep errs by gamma(D)
      times the sum of the |x|.  numpy's sum splits in halves down to
      128 values (ceil(log2 n) levels), adds them in 8 running sums of
      at most 16 values (15), joins those (3) and adds at most 7 left
      over, and may run in 8192-value buffers added in turn.
    - numpy's mean errs by gamma(D_n + 1) M.  The merged mean is the
      block sums added in turn (B - 1 more levels), then divided:
      gamma(D_b + B) M.  A block's mean errs by gamma(D_b + 1) M.
    - A sum of squared deviations from a computed mean m + e exceeds
      the exact q by n e**2, and its nonnegative terms (a subtraction
      and a square each) err by gamma(D + 3) relative.  A merge's cross
      term reads a delta of two block means, which errs by
      eps = 2 gamma(D_b + 1) M + 2 u M, so the term errs by
      eps (4 M + eps) n_a n_b / n, and n_a n_b / n <= n_b sums to at
      most n over the merges; it rounds 4 more times, and each merge
      adds twice, so the merged q errs by gamma(D_b + 2 B + 5) relative
      plus n (e_b**2 + eps (4 M + eps)).
    - The standard error halves q's relative error and rounds 4 more
      times on each side; the exact q is taken as at least half numpy's
      and at most twice it.
    """

    U = 2.0 ** -53

    @staticmethod
    def depth(n):
        return math.ceil(math.log2(n)) + 25 + -(-n // 8192)

    def gamma(self, k):
        return k * self.U / (1 - k * self.U)

    def bounds(self, x):
        n, big = len(x), float(np.abs(x).max())
        blocks = len(_blocks(n))
        d_n, d_b = self.depth(n), self.depth(-(-n // blocks))
        e_np = self.gamma(d_n + 1) * big
        e_b = self.gamma(d_b + 1) * big
        eps = 2 * e_b + 2 * self.U * big
        q = float(((x - x.mean()) ** 2).sum())
        extra_np = n * e_np ** 2
        extra = n * (e_b ** 2 + eps * (4 * big + eps))
        dq = (self.gamma(d_n + 3) * (2 * q + extra_np) + extra_np
              + self.gamma(d_b + 2 * blocks + 5) * (2 * q + extra) + extra)
        return (e_np + self.gamma(d_b + blocks) * big,
                dq / (q / 2) / 2 + 8 * self.U)

    @staticmethod
    def column(kind, n):
        rng = np.random.default_rng(n)
        if kind == "drift":  # block means far apart: a large cross term
            return rng.normal(size=n) + np.linspace(0.0, 4.0, n)
        if kind == "offset":  # deviations small against the values
            return rng.normal(size=n) + 100.0
        base = sample_batch(TM, n, 5)
        f = TFn(word_part=CylinderFunction.of("Z", 0, {"12": 1, "21": -2}),
                t_bump=BumpProfile("bump3", 0.5, 0.45))
        return f.on_batch(base.act(1.5, -0.9)) - f.on_batch(base)

    @pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _BLOCK + 17,
                                   5 * _BLOCK - 3])
    @pytest.mark.parametrize("kind", ["drift", "offset", "check"])
    def test_agrees_with_numpy(self, kind, n):
        x = self.column(kind, n)
        assert len(_blocks(n)) > 1
        (mean, se), = _moments(sample_batch(TM, n, 1), lambda rows, block,
                               move: [x[rows]], scale_only=True)
        tol_mean, tol_se = self.bounds(x)
        se_np = float(x.std(ddof=1)) / math.sqrt(n)
        assert abs(mean - float(x.mean())) <= tol_mean
        assert abs(se / se_np - 1.0) <= tol_se
        assert tol_se < 1e-6  # far below a wrong merge's error


class TestBlockMemory:
    """The checks hold a block's working set, not full-length columns."""

    N = 32 * _BLOCK
    F = TFn.bump(0.5, 0.45, 0.5, 0.45)
    G = TFn(word_part=CylinderFunction.of("Z", 0, {"12": 1}),
            t_bump=BumpProfile("bump3", 0.5, 0.45))

    def run(self, check, base):
        cases = [(self.G, None), (self.F, None), (self.G, first_word_control)]
        gs = [(1.5, -0.9), (0.7, 2.5)]
        if check == "invariance":
            return invariance_reports(base, cases, gs, 1)
        if check == "harmonicity":
            return harmonicity_report(base, self.F, 1)
        if check == "hullcheck":
            return hullcheck_reports(base, cases, gs, self.F, "1", 1)
        return tau_reports(base, [(self.F, self.G), (self.G, self.F),
                                  (self.F, TFn.constant()),
                                  (self.G, self.G)], 1)

    @pytest.mark.parametrize("check", ["invariance", "harmonicity", "tau"])
    def test_peak_is_below_one_column(self, check):
        # numpy reports its buffers to tracemalloc; the sample's own
        # columns are made before the trace starts
        self.run(check, sample_batch(FIB, 100, 7))  # caches filled
        base = sample_batch(FIB, self.N, 7)
        tracemalloc.start()
        try:
            self.run(check, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * self.N

    @pytest.mark.parametrize("check", ["invariance", "harmonicity", "tau",
                                       "hullcheck"])
    def test_peak_does_not_grow_with_the_sample(self, check):
        """A lazy sample's checks peak at the same memory at any size.

        At 8 and at 32 blocks every block has _BLOCK rows, so a block's
        working set (its draw, its moves, the values and their merge) is
        the same; what grows with the number of blocks is the list of
        slices from _blocks, each under 200 bytes with its two ints, so
        24 more blocks add under 5 kB.  An array whose length grows with
        the sample, at even one byte a row, adds at least 24 * _BLOCK
        bytes.  One block column, 8 * _BLOCK bytes, lies between the two.
        """
        self.run(check, LazySample(FIB, 100, 7))  # caches filled
        peaks = []
        for blocks in (8, 32):
            sample = LazySample(FIB, blocks * _BLOCK, 7)
            tracemalloc.start()
            try:
                self.run(check, sample)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * _BLOCK


def with_s(batch, s):
    """batch's rows with the scale coordinates s."""
    return SampleBatch(batch.omega, batch.t, np.array(s, dtype=float),
                       batch.cursor, batch.index, batch.windows,
                       batch.origin, batch.precision)


class TestBlockErrors:
    """Errors of the blocked checks are those of the whole batch.

    The rows of the last block sit where a move costs one more digit or
    pushes the cursor out of the window, so the first blocks alone would
    pass; each case compares with the move done on the whole batch.
    """

    N = 2 * _BLOCK + 17
    LAST = slice(2 * _BLOCK, None)
    SQRT_HALF = 2.0 ** -1.5  # two halvings for s < 1/2, one for s >= 1/2

    def costly_last_block(self, prec=4):
        s = np.full(self.N, 0.75)
        s[self.LAST] = 0.25
        return with_s(sample_batch(TM, self.N, 8, precision=prec), s)

    def test_moved_blocks_are_the_whole_batch_rows(self):
        base = self.costly_last_block(prec=30)
        whole = base.act(self.SQRT_HALF, 0.3)
        assert whole.precision == 28
        mask = (1 << whole.precision) - 1
        digits = []
        for rows in _blocks(base.n):
            moved = base.rows(rows).act(self.SQRT_HALF, 0.3)
            for got, expect in zip((moved.t, moved.s, moved.cursor),
                                   (whole.t, whole.s, whole.cursor)):
                assert got.tobytes() == expect[rows].tobytes()
            assert np.array_equal(moved.omega & mask, whole.omega[rows])
            digits.append(moved.precision)
        # each block keeps the digits its own rows cost: the first ones
        # one more than the last, which holds the smallest s and keeps
        # exactly the whole batch's
        assert digits == [29, 29, 28]

    @BLOCK_SIZES
    def test_blocks_split_the_rows_evenly(self, n):
        blocks = _blocks(n)
        assert len(blocks) == -(-n // _BLOCK)
        sizes = [len(range(n)[rows]) for rows in blocks]
        assert sum(sizes) == n and max(sizes) <= _BLOCK
        assert blocks[0].start == 0 and all(
            a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) < len(blocks)

    @pytest.mark.parametrize("check", ["invariance", "harmonicity", "tau"])
    def test_precision_exhausted_as_for_the_whole_batch(self, check):
        prec = 4
        if check == "invariance":
            base, (a, b) = self.costly_last_block(prec), (self.SQRT_HALF, 0.0)
        else:
            # the scale flow's 2**-h and the probe 1 - h halve rows at s = 0
            s = np.full(self.N, 0.5)
            s[self.LAST] = 0.0
            base = with_s(sample_batch(TM, self.N, 8, precision=prec), s)
            h = 2.0 ** -6
            a, b = (2.0 ** -h if check == "tau" else 1.0 - h), 0.0
        whole = base.act(a, b)
        lost = prec - whole.precision
        run = {"invariance": lambda f: invariance_reports(
                   base, [(f, None)], [(a, b)], 1),
               "harmonicity": lambda f: harmonicity_report(base, f, 1),
               "tau": lambda f: tau_reports(base, [(f, f)], 1)}[check]
        def parity_at(level):
            return TFn(omega_part=LocallyConstFn(
                level, (0, 1) * (1 << level - 1)))

        # one digit more than the whole batch keeps, which the first
        # blocks alone would still carry
        too_fine = parity_at(prec - lost + 1)
        with pytest.raises(PrecisionExhausted) as expect:
            too_fine.on_batch(whole)
        with pytest.raises(PrecisionExhausted) as got:
            run(too_fine)
        assert str(got.value) == str(expect.value)
        # a level the whole batch still carries passes
        run(parity_at(prec - lost))

    def test_window_exhausted_as_for_the_whole_batch(self):
        # sqrt 2 moves the cursor up one letter on rows with s >= 1/2
        f = TFn.word_indicator("12")
        g = [(2.0 ** 0.5, 0.0)]
        inside = with_s(sample_batch(TM, self.N, 9, halfwidth=1),
                        np.full(self.N, 0.25))
        rep = invariance_reports(inside, [(f, None)], g, 1)[0]
        assert rep["n"] == self.N
        s = np.full(self.N, 0.25)
        s[self.LAST] = 0.75
        base = with_s(inside, s)
        whole = base.act(*g[0])
        with pytest.raises(ColourWindowExhausted) as expect:
            f.on_batch(whole)
        with pytest.raises(ColourWindowExhausted) as got:
            invariance_reports(base, [(f, None)], g, 1)
        assert str(got.value) == str(expect.value)

    @pytest.mark.parametrize("f", [TFn.word_indicator("12"),
                                   TFn.bump(0.5, 0.45, 0.5, 0.45)],
                             ids=["letters", "full-act"])
    def test_first_failing_g_wins_over_an_earlier_block(self, f):
        # g1 costs the last block's rows a second digit that a
        # one-digit batch lacks; g2 is refused on every block, so the
        # blocks meet its error before g1 reaches the last block
        base = self.costly_last_block(prec=1)
        g1, g2 = (self.SQRT_HALF, 0.0), (0.0, 0.0)
        with pytest.raises(PrecisionExhausted) as expect:
            base.act(*g1)
        with pytest.raises(ValueError):
            base.rows(slice(0, 1)).act(*g2)
        with pytest.raises(PrecisionExhausted) as got:
            invariance_reports(base, [(f, None)], [g1, g2], 1)
        assert str(got.value) == str(expect.value)

    def test_first_error_of_the_whole_batch_wins(self):
        # the first blocks lose a digit and the last overruns the window:
        # the whole batch meets the letter case first, so it raises
        # ColourWindowExhausted although the first block alone would
        # raise PrecisionExhausted in the odometer case
        s = np.full(self.N, -0.75)
        s[self.LAST] = 0.75
        base = with_s(sample_batch(TM, self.N, 10, precision=3,
                                   halfwidth=1), s)
        cases = [(TFn.word_indicator("12"), None),
                 (TFn(omega_part=LocallyConstFn(3, tuple(range(8)))), None)]
        with pytest.raises(ColourWindowExhausted):
            invariance_reports(base, cases, [(2.0 ** 0.5, 0.0)], 1)
