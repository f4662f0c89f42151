"""Suspension-point arithmetic, the rescaling relation, and MC checks."""

import math
import warnings

import numpy as np
import pytest

from hyptile.dyadic import ClopenSet, DyadicInt, LocallyConstFn, PrecisionExhausted
from hyptile.geometry import (
    ColourWindow,
    ColourWindowExhausted,
    TileIndex,
    TileSet,
    generate_patch,
)
from hyptile.hull import (
    BumpProfile,
    HullPoint,
    SampleBatch,
    TestFunction as TFn,
    act,
    check_relation_RPw,
    harmonicity_check,
    invariance_check,
    normalize,
    random_colour_window,
    relation_defects,
    sample_batch,
    sample_product_measure,
    tau_pairing,
)
from hyptile.ktheory import CylinderFunction
from hyptile.subshift import Substitution, language

TM = Substitution.of({"1": "12", "2": "21"})
WIDE = ColourWindow("1" * 21, -10)


def hp(om, t, s, cursor=0, prec=16, colour=WIDE):
    return HullPoint(DyadicInt(om, prec), t, colour, cursor, s)


def close(p, q, tol=1e-9):
    prec = min(p.omega.precision, q.omega.precision)
    return (p.omega.project(prec) == q.omega.project(prec)
            and p.cursor == q.cursor
            and abs(p.t - q.t) <= tol and abs(p.s - q.s) <= tol)


class TestNormalize:
    def test_integer_carry(self):
        p = normalize(hp(0, 1.25, 0.0))
        assert (p.omega.residue, p.t, p.s, p.cursor) == (1, 0.25, 0.0, 0)

    def test_scale_wrap_down(self):
        p = normalize(hp(3, 0.5, 1.0))
        assert (p.omega.residue, p.t, p.s, p.cursor) == (7, 0.0, 0.0, 1)
        assert p.omega.precision == 16

    def test_scale_wrap_up_even_and_odd(self):
        p = normalize(hp(7, 0.0, -1.0))
        assert (p.omega.residue, p.t, p.s, p.cursor) == (3, 0.5, 0.0, -1)
        assert p.omega.precision == 15
        q = normalize(hp(6, 0.5, -1.0))
        assert (q.omega.residue, q.t, q.s, q.cursor) == (3, 0.25, 0.0, -1)

    def test_idempotent(self):
        for args in ((0, 1.25, 0.0), (3, 0.5, 1.0), (7, 0.25, -0.75)):
            p = normalize(hp(*args))
            assert normalize(p) == p

    def test_wrap_then_normalize_is_class_invariant(self):
        # Rewriting the point through the doubling identification first
        # must land on the same normal form (up to the digit it costs).
        p = hp(11, 0.3, 0.25)
        moved = HullPoint(p.omega.double(), 2 * p.t, p.colour,
                          p.cursor + 1, p.s - 1.0)
        assert close(normalize(moved), normalize(p))

    def test_precision_exhaustion(self):
        with pytest.raises(PrecisionExhausted):
            normalize(hp(1, 0.0, -1.0, prec=0))


class TestAct:
    def test_unit_translation_carries(self):
        p = act(1.0, 1.0, hp(0, 0.0, 0.0))
        assert (p.omega.residue, p.t, p.s) == (1, 0.0, 0.0)

    def test_identity_fixes_points(self):
        p = normalize(hp(9, 0.625, 0.375))
        assert act(1.0, 0.0, p) == p

    def test_pure_doubling_wraps_once(self):
        p = act(2.0, 0.0, hp(5, 0.25, 0.0))
        assert (p.omega.residue, p.t, p.s, p.cursor) == (10, 0.5, 0.0, 1)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            act(0.0, 1.0, hp(0, 0.0, 0.0))
        with pytest.raises(ValueError):
            act(-2.0, 1.0, hp(0, 0.0, 0.0))

    def test_non_finite_rejected(self):
        batch = sample_batch(TM, 4, 3)
        for a, b in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf),
                     (1.0, -math.inf), (1.0, math.nan)):
            with pytest.raises(ValueError):
                act(a, b, hp(0, 0.0, 0.0))
            with pytest.raises(ValueError):
                batch.act(a, b)

    def test_repeated_halving_exhausts_precision(self):
        p = hp(3, 0.0, 0.0, prec=2)
        p = act(0.5, 0.0, p)
        p = act(0.5, 0.0, p)
        with pytest.raises(PrecisionExhausted):
            act(0.5, 0.0, p)

    def test_group_law_thousand_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            a1, a2 = np.exp2(rng.uniform(-1.5, 1.5, 2))
            b1, b2 = rng.uniform(-3.0, 3.0, 2)
            base = hp(int(rng.integers(0, 1 << 16)), float(rng.random()),
                      float(rng.random()), prec=40)
            lhs = act(a1, b1, act(a2, b2, base))
            rhs = act(a1 * a2, a1 * b2 + b1, base)
            assert close(lhs, rhs, tol=2e-9)


class TestRescalingRelation:
    def test_random_admissible_windows(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            win = random_colour_window(TM, rng, 5)
            assert check_relation_RPw(TM, win, 3.0)

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
        assert b(0.5) == 1.0
        assert b(0.25) == 0.0 and b(0.9) == 0.0
        z = 0.5
        assert b(0.5 + 0.125) == pytest.approx((1 - z * z) ** 3)

    def test_scalar_evaluation(self):
        f = TFn(
            word_part=CylinderFunction.of("Z", 0, {"12": 3}),
            omega_part=ClopenSet.cylinder(2, 1).indicator(),
            t_bump=BumpProfile("bump3", 0.5, 0.5 - 1e-9),
        )
        win = ColourWindow("1121", -1)
        p = HullPoint(DyadicInt(5, 8), 0.5, win, 0, 0.0)
        assert f(p) == pytest.approx(3.0)
        q = HullPoint(DyadicInt(6, 8), 0.5, win, 0, 0.0)
        assert f(q) == 0.0  # omega not in the residue class
        r = HullPoint(DyadicInt(5, 8), 0.5, win, 1, 0.0)
        assert f(r) == 0.0  # cursor moved off the cylinder

    def test_scalar_matches_batch(self):
        f = TFn(
            word_part=CylinderFunction.of("Z", -1, {"121": 2, "212": -1}),
            omega_part=ClopenSet.cylinder(3, 5).indicator(),
            t_bump=BumpProfile("bump3", 0.4, 0.3),
            s_bump=BumpProfile("bump3", 0.6, 0.3),
        )
        batch = sample_batch(TM, 64, 2024)
        vals = f.on_batch(batch)
        for i in range(64):
            assert vals[i] == pytest.approx(f(batch.point(i)), abs=1e-12)

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
        assert np.array_equal(a.words, b.words)
        assert sample_product_measure(TM, 8) == sample_product_measure(TM, 8)
        assert sample_product_measure(TM, 8) != sample_product_measure(TM, 9)

    def test_thread_count_does_not_change_the_draw(self, monkeypatch):
        monkeypatch.setenv("HYPTILE_THREADS", "1")
        a = sample_batch(TM, 333, 11)
        monkeypatch.setenv("HYPTILE_THREADS", "5")
        b = sample_batch(TM, 333, 11)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.words, b.words)

    def test_odometer_marginal(self):
        b = sample_batch(TM, 100_000, 616)
        freq = float((b.omega & 3 == 1).mean())
        assert abs(freq - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / b.n)

    def test_word_marginal(self):
        b = sample_batch(TM, 100_000, 617)
        o = b.origin
        freq = float(((b.words[:, o] == 1) & (b.words[:, o + 1] == 2)).mean())
        p = 1 / 3
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / b.n)

    def test_continuous_marginals(self):
        b = sample_batch(TM, 100_000, 618)
        se = 3 / math.sqrt(12 * b.n)
        assert abs(float(b.t.mean()) - 0.5) <= se
        assert abs(float(b.s.mean()) - 0.5) <= se

    def test_batch_act_matches_scalar_act(self):
        batch = sample_batch(TM, 32, 909)
        before = [batch.point(i) for i in range(32)]
        batch.act(2.5, -1.25)
        for i, p in enumerate(before):
            assert close(act(2.5, -1.25, p), batch.point(i), tol=1e-9)

    def test_huge_translations_match_scalar_act(self):
        # floor(t) passes 2**63 here; the carry must wrap, not overflow
        batch = sample_batch(TM, 4, 77)
        points = [batch.point(i) for i in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for b in (2.0 ** 70, -2.0 ** 70):
                batch.act(1.0, b)
                points = [act(1.0, b, p) for p in points]
                for i, p in enumerate(points):
                    q = batch.point(i)
                    assert p.t == q.t == 0.0
                    assert ((p.omega.residue, p.s, p.cursor)
                            == (q.omega.residue, q.s, q.cursor))

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_batch(TM, 4, 0, precision=0)
        with pytest.raises(ValueError):
            sample_batch(TM, 4, 0, word_bias="coin-flip")


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
        rep = invariance_check(TM, TFn.word_indicator("12"),
                               self.GS, 30_000, 5152, word_bias="first-word")
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
