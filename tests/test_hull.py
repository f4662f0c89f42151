"""Suspension-point arithmetic, the rescaling relation, and MC checks."""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from hyptile.dyadic import ClopenSet, LocallyConstFn, PrecisionExhausted
from hyptile.geometry import (
    ColourWindow,
    ColourWindowExhausted,
    TileIndex,
    TileSet,
    generate_patch,
)
from hyptile.hull import (
    _BLOCK,
    _per_row,
    BumpProfile,
    SampleBatch,
    TestFunction as TFn,
    check_relation_RPw,
    first_word_control,
    harmonicity_check,
    harmonicity_report,
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

TM = Substitution.of({"1": "12", "2": "21"})
FIB = Substitution.of({"1": "12", "2": "1"})
AB = Periodic("ab")


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
    # place for some s, and a huge b turns that place into another carry
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


def normalized(batch):
    batch.normalize()
    return batch


def close(p, q, tol=1e-9):
    """Same point up to tol in t and s, omega compared on common digits."""
    mod = 1 << min(p[1], q[1])
    return (p[0] % mod == q[0] % mod and p[4] == q[4]
            and abs(p[2] - q[2]) <= tol and abs(p[3] - q[3]) <= tol)


class TestNormalize:
    def test_integer_carry(self):
        assert row(normalized(point(0, 1.25, 0.0))) == (1, 16, 0.25, 0.0, 0)

    def test_scale_wrap_down(self):
        assert row(normalized(point(3, 0.5, 1.0))) == (7, 16, 0.0, 0.0, 1)

    def test_scale_wrap_up_even_and_odd(self):
        assert row(normalized(point(7, 0.0, -1.0))) == (3, 15, 0.5, 0.0, -1)
        assert row(normalized(point(6, 0.5, -1.0))) == (3, 15, 0.25, 0.0, -1)

    def test_idempotent(self):
        rows = [(0, 1.25, 0.0, 0), (3, 0.5, 1.0, 0), (7, 0.25, -0.75, 0)]
        for batch in [point(*r) for r in rows] + [batch_of(rows)]:
            batch.normalize()
            once = [row(batch, i) for i in range(batch.n)]
            batch.normalize()
            assert [row(batch, i) for i in range(batch.n)] == once

    def test_wrap_then_normalize_is_class_invariant(self):
        # Rewriting the point through the doubling identification first
        # must land on the same normal form (up to the digit it costs).
        p = normalized(point(11, 0.3, 0.25))
        moved = normalized(point(22, 0.6, -0.75, cursor=1))
        assert close(row(moved), row(p))

    def test_precision_exhaustion(self):
        with pytest.raises(PrecisionExhausted):
            point(0, 0.0, -1.0, prec=0).normalize()

    def test_scale_wrap_limits(self):
        # 63 downward crossings fit one shift of int64; 64 are refused
        for om, prec in ((12345, 16), ((1 << 62) - 3, 62)):
            p = normalized(point(om, 0.3, 63.5, prec=prec))
            assert row(p) == ref_normalize(om, prec, 0.3, 63.5, 0)
        with pytest.raises(ValueError):
            point(5, 0.3, 64.0).normalize()
        # more upward crossings than any batch has digits
        with pytest.raises(PrecisionExhausted):
            point(5, 0.3, -100.0, prec=62).normalize()


class TestAct:
    def test_unit_translation_carries(self):
        p = point(0, 0.0, 0.0)
        p.act(1.0, 1.0)
        assert row(p) == (1, 16, 0.0, 0.0, 0)

    def test_identity_fixes_points(self):
        p = normalized(point(9, 0.625, 0.375))
        before = row(p)
        p.act(1.0, 0.0)
        assert row(p) == before

    def test_pure_doubling_wraps_once(self):
        p = point(5, 0.25, 0.0)
        p.act(2.0, 0.0)
        assert row(p) == (10, 16, 0.5, 0.0, 1)

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
        p = point(3, 0.0, 0.0, prec=2)
        p.act(0.5, 0.0)
        p.act(0.5, 0.0)
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
            lhs, rhs = base.copy(), base.copy()
            lhs.act(a2, b2)
            lhs.act(a1, b1)
            rhs.act(a1 * a2, a1 * b2 + b1)
            for i in range(base.n):
                assert close(row(lhs, i), row(rhs, i), tol=2e-9)


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
                    batch.act(a, b)
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
            batch.act(a, b)
            for i, (om, t, s, cur) in enumerate(rows[:batch.n]):
                assert row(batch, i) == ref_act(a, b, (om, 16, t, s, cur))


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

    def test_bump_values(self):
        b = BumpProfile("bump3", 0.5, 0.25)
        z = 0.5
        vals = b(np.array([0.5, 0.25, 0.9, 0.5 + 0.125]))
        assert vals[:3].tolist() == [1.0, 0.0, 0.0]
        assert vals[3] == pytest.approx((1 - z * z) ** 3)
        assert BumpProfile()(np.array([0.3, 0.9])).tolist() == [1.0, 1.0]

    def test_bump_equals_evaluation_on_every_row(self):
        # reference: the polynomial evaluated everywhere, then masked; the
        # bytes also pin +0.0 outside the support
        rng = np.random.default_rng(11)
        profiles = [(0.5, 0.45), (0.4, 0.2), (0.6, 0.1)]
        for _ in range(20):
            c = float(rng.uniform(0.2, 0.8))
            profiles.append((c, float(rng.uniform(0.01, min(c, 1.0 - c)))))
        for c, w in profiles:
            # both sides of each end of the support, and the ends
            edges = [np.nextafter(e, d) for e in (c - w, c + w)
                     for d in (0.0, 1.0)] + [c - w, c + w]
            x = np.concatenate([rng.uniform(0.0, 1.0, 2000), edges])
            z = (x - c) / w
            want = np.where(np.abs(z) < 1.0, (1.0 - z * z) ** 3, 0.0)
            got = BumpProfile("bump3", c, w)(x)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_scalar_evaluation(self):
        f = TFn(
            word_part=CylinderFunction.of("Z", 0, {"12": 3}),
            omega_part=ClopenSet.cylinder(2, 1).indicator(),
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
            omega_part=ClopenSet.cylinder(1, 1).indicator(),
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
            batch = batch.with_index(index)
            batch.act(2.5, -1.25)  # move the cursors off zero
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
        batch = sample_batch(TM, 8, 5, halfwidth=1)
        batch.act(4.0, 0.0)  # cursor drifts past the sampled window
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
    # 11); 333 rows leave the 16 chunk streams of unequal sizes, so any
    # change to the chunk or stream layout changes the digest
    PINNED = {
        "tm": (TM, "a093bde7cb5e2a3ead5f01612f965302"
                   "20dcffed8dae3dcbac7db614e2ff392a"),
        "ab": (AB, "b2ca9c9582a26fff5bfec83e759c43f1"
                   "b273fb816bddf597419786066004edd5"),
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
        batch.act(2.5, -1.25)
        for i, p in enumerate(before):
            assert close(ref_act(2.5, -1.25, p), row(batch, i), tol=1e-9)

    def test_huge_translations_match_scalar_act(self):
        # floor(t) passes 2**63 here; the carry must wrap, not overflow
        batch = sample_batch(TM, 4, 77)
        points = [row(batch, i) for i in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for b in (2.0 ** 70, -2.0 ** 70):
                batch.act(1.0, b)
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

    def test_large_alphabet(self):
        letters = "".join(chr(0x4E00 + i) for i in range(130))
        b = sample_batch(Periodic(letters), 4000, 6, halfwidth=2)
        assert len(set(b.index.tolist())) > 127
        b.act(1.5, 0.0)  # cursors 0 and 1
        assert set(b.cursor.tolist()) == {0, 1}
        for u in (letters[5:7], letters[128] + letters[129]):
            vals = TFn.word_indicator(u).on_batch(b)
            for i in range(b.n):
                lo = b.origin + int(b.cursor[i])
                win = b.windows[b.index[i]]
                assert vals[i] == (1.0 if win[lo:lo + 2] == u else 0.0)
            assert vals.any()


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
            invariance_reports(one, [(f, one.index)], gs, 5)
        with pytest.raises(ValueError, match="at least 2"):
            harmonicity_report(one, f, 5)
        with pytest.raises(ValueError, match="at least 2"):
            tau_reports(one, [(f, f)], 5)
        two = sample_batch(TM, 2, 5)
        assert invariance_reports(two, [(f, two.index)], gs, 5)[0]["n"] == 2


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
            omega_part=ClopenSet.cylinder(2, 1).indicator(),
            t_bump=BumpProfile("bump3", 0.5, 0.45),
            s_bump=BumpProfile("bump3", 0.5, 0.45))
        rep = invariance_check(TM, f, self.GS, 30_000, 5151)
        assert rep["pass"]

    def test_biased_sampler_detected(self):
        base = sample_batch(TM, 30_000, 5152)
        rep = invariance_reports(
            base, [(TFn.word_indicator("12"), first_word_control(base).index)],
            self.GS, 5152)[0]
        assert not rep["pass"]
        assert any(not g["pass"] for g in rep["per_g"])


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
    """The batch-level cores against a fresh draw and fresh moves per use."""

    GS = [(1.0, 0.7), (2.0, 0.0), (0.5, 0.0), (1.5, -0.9), (0.7, 2.5)]
    SEED = 77

    @staticmethod
    def mean_se(x):
        return float(x.mean()), float(x.std(ddof=1)) / math.sqrt(len(x))

    @BLOCK_SIZES
    def test_invariance_cases_match_separate_draws(self, n):
        f0 = TFn.word_indicator("12")
        f1 = TFn(word_part=CylinderFunction.of("Z", 0, {"12": 1}),
                 t_bump=BumpProfile("bump3", 0.5, 0.45),
                 s_bump=BumpProfile("bump3", 0.5, 0.45))
        base = sample_batch(TM, n, self.SEED)
        control = first_word_control(base)
        reports = invariance_reports(
            base, [(f0, base.index), (f1, base.index), (f0, control.index)],
            self.GS, self.SEED)
        for rep, (f, biased) in zip(reports, [(f0, False), (f1, False),
                                              (f0, True)]):
            for entry, (a, b) in zip(rep["per_g"], self.GS):
                fresh = sample_batch(TM, n, self.SEED)
                if biased:
                    fresh = first_word_control(fresh)
                moved = fresh.copy()
                moved.act(a, b)
                diff, se = self.mean_se(f.on_batch(moved) - f.on_batch(fresh))
                assert (entry["statistic"], entry["std_error"]) == (diff, se)

    @BLOCK_SIZES
    def test_harmonicity_matches_whole_batch_probes(self, n):
        h = 2.0 ** -6
        f = TFn(word_part=CylinderFunction.of("Z", 0, {"12": 1, "21": -2}),
                omega_part=ClopenSet.cylinder(2, 1).indicator(),
                t_bump=BumpProfile("bump3", 0.5, 0.45),
                s_bump=BumpProfile("bump3", 0.5, 0.45))
        rep = harmonicity_report(sample_batch(TM, n, self.SEED), f,
                                 self.SEED, h=h)

        def probe(a, b):
            moved = sample_batch(TM, n, self.SEED)
            moved.act(a, b)
            return f.on_batch(moved)

        centre = f.on_batch(sample_batch(TM, n, self.SEED))
        lap = (probe(1.0, h) + probe(1.0, -h) + probe(1.0 + h, 0.0)
               + probe(1.0 - h, 0.0) - 4.0 * centre) / (h * h)
        assert (rep["statistic"], rep["std_error"]) == self.mean_se(lap)

    @BLOCK_SIZES
    def test_tau_pairs_match_separate_flows(self, n):
        h = 2.0 ** -6
        pairs = [(TFn.bump(0.5, 0.45, 0.5, 0.45), TFn.constant()),
                 (TFn.bump(0.45, 0.3, 0.55, 0.35), TFn.word_indicator("12"))]
        reports = tau_reports(sample_batch(TM, n, self.SEED), pairs,
                              self.SEED, h=h)

        def flow(fn):
            base = sample_batch(TM, n, self.SEED)
            up, down = base.copy(), base.copy()
            up.act(2.0 ** h, 0.0)
            down.act(2.0 ** -h, 0.0)
            return ((fn.on_batch(up) - fn.on_batch(down)) / (2.0 * h),
                    fn.on_batch(base))

        for rep, (f, g) in zip(reports, pairs):
            (yf, f0), (yg, g0) = flow(f), flow(g)
            assert (rep["statistic"], rep["std_error"]) == \
                self.mean_se(yf * g0)
            defect, se_d = self.mean_se(yf * g0 + yg * f0)
            assert rep["antisymmetry_defect"] == abs(defect)
            assert rep["defect_std_error"] == se_d


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
        cols = _per_row(base, lambda rows, block, move: [
            (m := move(self.SQRT_HALF, 0.3)).omega, m.t, m.s, m.cursor,
            np.full(block.n, m.precision)])
        whole = base.copy()
        whole.act(self.SQRT_HALF, 0.3)
        assert whole.precision == 28
        for col, expect in zip(cols, (whole.omega, whole.t, whole.s,
                                      whole.cursor)):
            assert np.array_equal(col, expect)
        assert (cols[4] == 28).all()

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
        whole = base.copy()
        whole.act(a, b)
        lost = prec - whole.precision
        run = {"invariance": lambda f: invariance_reports(
                   base, [(f, base.index)], [(a, b)], 1),
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
        rep = invariance_reports(inside, [(f, inside.index)], g, 1)[0]
        assert rep["n"] == self.N
        s = np.full(self.N, 0.25)
        s[self.LAST] = 0.75
        base = with_s(inside, s)
        whole = base.copy()
        whole.act(*g[0])
        with pytest.raises(ColourWindowExhausted) as expect:
            f.on_batch(whole)
        with pytest.raises(ColourWindowExhausted) as got:
            invariance_reports(base, [(f, base.index)], g, 1)
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
        cases = [(TFn.word_indicator("12"), base.index),
                 (TFn(omega_part=LocallyConstFn(3, tuple(range(8)))),
                  base.index)]
        with pytest.raises(ColourWindowExhausted):
            invariance_reports(base, cases, [(2.0 ** 0.5, 0.0)], 1)
