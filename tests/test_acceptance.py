"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test asserts the documented behaviour at its stated tolerance and
enforces the runtime budget; the pytest -v PASSED/FAILED line is the
per-criterion verdict.
"""

import random
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

from hyptile.dyadic import integrate, omega_coinvariant_class
from hyptile.geometry import (
    ColourWindow,
    NEGATIVE_EDGES,
    agreement_radius,
    edge_adjacency,
    generate_patch,
    relation_defects,
)
from hyptile.hull import (
    BumpProfile,
    LazySample,
    TestFunction as TFn,
    first_word_control,
    harmonicity_check,
    invariance_check,
    invariance_reports,
    sample_batch,
    tau_pairing,
)
from hyptile.ktheory import (
    CylinderFunction,
    RING_HALF,
    RING_Z,
    cech_cohomology,
    cf_equal,
    constant_one,
    gap_labels,
    invariants,
    k_groups,
)
from hyptile.subshift import Periodic, measure_vector

from oracles import (FIB, TM, circulant_rows, cylinder_indicator,
                     gcd_lattice, is_odometer_coboundary,
                     random_colour_window, ref_interiors_disjoint,
                     side_ends, snf_group, split_twos)

PERIODIC_WORDS = {1: "1", 2: "12", 3: "112", 4: "1122", 5: "11222",
                  6: "112122"}


def budget(t0, seconds, label):
    dt = time.monotonic() - t0
    assert dt < seconds, f"{label}: {dt:.2f}s exceeds {seconds}s budget"
    print(f"{label}: PASS in {dt:.2f}s")


# -- 1: odometer coinvariant classes --------------------------------------

def test_criterion_01_odometer_classes_and_witnesses():
    t0 = time.monotonic()
    for n in range(0, 7):
        base = cylinder_indicator(n, 0)
        for k in range(1 << n):
            f = cylinder_indicator(n, k)
            value, witness = omega_coinvariant_class(f)
            assert value == Fraction(1, 2 ** n)
            # witness certifies the class equals that of the k = 0 cylinder
            diff = f.refine(witness.level) - base.refine(witness.level)
            assert is_odometer_coboundary(diff, witness)
    for n in range(0, 6):
        # one level-n cylinder splits into two level-(n+1) cylinders
        split = (cylinder_indicator(n, 0, n + 1)
                 - cylinder_indicator(n + 1, 0).scale(2))
        value, witness = omega_coinvariant_class(split)
        assert value == 0 and integrate(split) == 0
        assert is_odometer_coboundary(split.refine(witness.level), witness)
    budget(t0, 5, "criterion 01 odometer classes")


# -- 2: no invariants over the half-integer ring --------------------------

def test_criterion_02_half_ring_invariants_vanish():
    t0 = time.monotonic()
    specs = [Periodic(PERIODIC_WORDS[p]) for p in range(1, 6)] + [TM, FIB]
    for spec in specs:
        for n in range(1, 9):
            g = invariants(spec, RING_HALF, n_cap=n)
            assert g.rank == 0 and g.torsion == ()
    budget(t0, 10, "criterion 02 half-ring invariants vanish")


# -- 3: periodic K-table against an independent presentation oracle -------

def test_criterion_03_periodic_k_table():
    t0 = time.monotonic()
    for p in range(1, 5):
        spec = Periodic(PERIODIC_WORDS[p])
        torsion = () if p == 1 else (2 ** p - 1,)
        oracle_half = snf_group(circulant_rows(p, 2), invert_two=True)
        oracle_z = snf_group(circulant_rows(p, 1))
        assert oracle_half == (0, torsion)
        assert oracle_z == (1, ())

        kg = k_groups(spec)
        co_half, inv_z = kg["K0"]
        assert (co_half.rank, co_half.torsion) == oracle_half
        assert (inv_z.rank, inv_z.torsion) == (1, ())
        assert (kg["K1"].rank, kg["K1"].torsion) == oracle_z

        ch = cech_cohomology(spec)
        assert (ch["H0"].rank, ch["H0"].torsion) == (1, ())
        assert (ch["H1"].rank, ch["H1"].torsion) == oracle_z
        assert (ch["H2"].rank, ch["H2"].torsion) == oracle_half
    budget(t0, 5, "criterion 03 periodic K-table")


# -- 4: minimal specs have a one-dimensional invariant line ----------------

def test_criterion_04_minimal_invariants_constant_line():
    for spec in (TM, FIB, Periodic("12"), Periodic("112")):
        g = invariants(spec, RING_Z)
        assert (g.rank, g.torsion) == (1, ())
        (_, gen), = g.generators
        assert cf_equal(spec, gen, constant_one(spec, RING_Z))
    print("criterion 04 minimal invariant line: PASS")


# -- 5: Thue-Morse block measures ------------------------------------------

def tm_three_block_oracle():
    # push the frozen two-block values one level down the substitution:
    # every three-block sits at offset 0 or 1 inside the image of a
    # two-block, each occurrence weighted by half the parent measure
    mu2 = {"11": Fraction(1, 6), "12": Fraction(1, 3),
           "21": Fraction(1, 3), "22": Fraction(1, 6)}
    sub = {"1": "12", "2": "21"}
    mu3 = defaultdict(Fraction)
    for v, m in mu2.items():
        img = sub[v[0]] + sub[v[1]]
        for j in (0, 1):
            mu3[img[j:j + 3]] += m / 2
    return mu2, dict(mu3)


def test_criterion_05_thue_morse_measures():
    t0 = time.monotonic()
    mu2_oracle, mu3_oracle = tm_three_block_oracle()
    mv1 = measure_vector(TM, 1)
    assert mv1 == {
        "1": Fraction(1, 2), "2": Fraction(1, 2)}
    mv2 = measure_vector(TM, 2)
    assert mv2 == mu2_oracle
    mv3 = measure_vector(TM, 3)
    assert mv3 == mu3_oracle
    for n in range(1, 6):
        lower = measure_vector(TM, n)
        upper = measure_vector(TM, n + 1)
        assert sum(lower.values()) == 1
        for w, v in lower.items():
            right = sum(upper[w + a] for a in "12" if w + a in upper)
            left = sum(upper[a + w] for a in "12" if a + w in upper)
            assert isinstance(v, Fraction) and right == v and left == v
    budget(t0, 10, "criterion 05 block measures")


# -- 6: gap label lattices --------------------------------------------------

def test_criterion_06_gap_label_lattices():
    t0 = time.monotonic()
    for p in range(1, 7):
        # p distinct letters: every cylinder at every level has measure 1/p
        gl = gap_labels(Periodic("123456"[:p]), 6)
        for entry in gl.chain:
            (g,) = entry.generators
            assert g == Fraction(1, p)
        (g,) = gl.generators
        assert g == Fraction(1, p) and gl.stabilized
    for p, word in PERIODIC_WORDS.items():
        # repeated letters coarsen early truncations but not the limit
        gl = gap_labels(Periodic(word), 6)
        (g,) = gl.generators
        assert g == Fraction(1, p) and gl.stabilized

    gl = gap_labels(TM, 6)
    for entry in gl.chain:
        mu = measure_vector(TM, entry.n)
        expect = gcd_lattice(list(mu.values()))
        (g,) = entry.generators
        assert g == expect
        # enumerated oracle: every cylinder measure lies in the lattice
        assert all((v / expect).denominator == 1 for v in mu.values())
    assert gl.chain[1].n == 2
    assert gl.chain[1].generators[0] == Fraction(1, 6)
    budget(t0, 30, "criterion 06 gap labels")


# -- 7: patch combinatorics and exact geometry ------------------------------

def test_criterion_07_patch_edges_and_interiors():
    t0 = time.monotonic()
    ts = generate_patch(3.0, exact=True)
    report = edge_adjacency(ts)  # charge-rule pairs, checked below
    top_edges_paired = 0
    for (t1, l1), (t2, l2) in report.interior:
        assert not (l1 == "A4A5" and l2 == "A4A5")
        if "A4A5" in (l1, l2):
            other = l2 if l1 == "A4A5" else l1
            assert other in NEGATIVE_EDGES
            top_edges_paired += 1
        # endpoint-exact: both sides run between the same two corners
        ends = side_ends((t1, l1))
        assert len(ends) == 2 and ends == side_ends((t2, l2))
    assert top_edges_paired == len(report.top_matches) > 0
    assert all(lab in NEGATIVE_EDGES for _, _, lab in report.top_matches)

    assert ref_interiors_disjoint(ts)[0]
    budget(t0, 5, "criterion 07 patch edges")


# -- 8: rescaling identity and window agreement -----------------------------

def test_criterion_08_rescale_identity_and_agreement():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260815)
    pyrng = random.Random(20260815)
    for _ in range(60):
        word = "".join(pyrng.choice("12") for _ in range(21))
        assert not relation_defects(None, ColourWindow(word, -10), radius=3.0)
    for _ in range(40):
        win = random_colour_window(TM, rng, 10)
        assert not relation_defects(TM, win, radius=3.0)

    by_v2 = defaultdict(list)
    while sum(len(v) for v in by_v2.values()) < 200:
        n = pyrng.randint(-10 ** 6, 10 ** 6)
        m = pyrng.randint(-10 ** 6, 10 ** 6)
        if n != m:
            by_v2[split_twos(m - n)[0]].append(agreement_radius(n, m))
    levels = sorted(by_v2)
    for lo, hi in zip(levels, levels[1:]):
        assert max(by_v2[lo]) < min(by_v2[hi])
    budget(t0, 10, "criterion 08 rescale and agreement")


# -- 9: sampler invariance and harmonicity (Monte Carlo) --------------------

def test_criterion_09_invariance_and_harmonicity():
    t0 = time.monotonic()
    seed = 1153
    rng = np.random.default_rng(seed)
    a = np.exp2(rng.uniform(-1.5, 1.5, 20))
    b = rng.uniform(-3.0, 3.0, 20)
    gs = [(float(x), float(y)) for x, y in zip(a, b)]

    observables = [
        TFn.word_indicator("12"),
        TFn(word_part=CylinderFunction.of("Z", 0, {"1": 1}),
            t_bump=BumpProfile(0.5, 0.45),
            s_bump=BumpProfile(0.5, 0.45)),
    ]
    for i, f in enumerate(observables):
        rep = invariance_check(TM, f, gs, 100000, seed + i)
        assert rep["pass"], rep

    for i in range(5):
        tc = 0.35 + 0.06 * i
        tw = 0.2 + 0.02 * i
        rep = harmonicity_check(LazySample(TM, 100000, seed + 10 + i),
                                TFn.bump(tc, tw, 1.0 - tc, tw), seed + 10 + i)
        assert rep["pass"], rep

    base = sample_batch(TM, 100000, seed)
    biased = invariance_reports(
        base, [(observables[0], first_word_control)], gs, seed)[0]
    assert not biased["pass"]
    budget(t0, 120, "criterion 09 invariance and harmonicity")


# -- 10: cocycle pairing numerics -------------------------------------------

def test_criterion_10_cocycle_antisymmetry():
    t0 = time.monotonic()
    seed = 40961
    rng = np.random.default_rng(seed)
    rep, = tau_pairing(LazySample(TM, 100000, seed),
                       [(TFn.bump(0.5, 0.45, 0.5, 0.45), TFn())],
                       seed)
    assert rep["pass"], rep
    for i in range(5):
        def draw():
            c = float(rng.uniform(0.35, 0.65))
            w = float(rng.uniform(0.2, min(c, 1.0 - c) - 0.02))
            return c, w
        tc1, tw1 = draw()
        sc1, sw1 = draw()
        tc2, tw2 = draw()
        sc2, sw2 = draw()
        rep, = tau_pairing(LazySample(TM, 100000, seed + i),
                           [(TFn.bump(tc1, tw1, sc1, sw1),
                             TFn.bump(tc2, tw2, sc2, sw2))], seed + i)
        assert rep["pass"], rep
    budget(t0, 60, "criterion 10 cocycle antisymmetry")
