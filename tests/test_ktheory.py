"""Shift-module invariants, coinvariants, K-groups, and gap labels.

The periodic family is cross-checked against an independently built
circulant presentation reduced by sympy's Smith normal form, so none of
the expected group tables below depend on the code under test.
"""

import math
import random
from fractions import Fraction

import pytest

from hyptile import ktheory
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_decomp

from hyptile.intmat import (hnf_row_lattice, integer_kernel, lattice_contains,
                            rational_rank, smith_normal_form)
from hyptile.ktheory import (
    RING_HALF,
    RING_Z,
    SHIFT_DOUBLING,
    SHIFT_PLAIN,
    CylinderFunction,
    _bonding_is_iso,
    _iter_levels,
    _Presentation,
    _group_from,
    _presentation,
    _value_row,
    apply_shift,
    canonical,
    cech_cohomology,
    cf_equal,
    coinvariant_class,
    coinvariants,
    constant_one,
    gap_label_to_json,
    gap_labels,
    group_to_json,
    invariant_rank,
    invariants,
    k_groups,
    measure_pairing,
    refine_left,
    refine_right,
    refine_to,
)
from hyptile.subshift import (
    ExplicitWindow,
    Periodic,
    Substitution,
    UnsupportedSpec,
    _spec_perron,
    language,
    measure_vector,
)

from oracles import (FIB, PD, S4, TM, TRIB, anderson_putnam_rank,
                     bonding_matrix, check_group_json, circulant_rows,
                     det_bareiss, gcd_lattice, oracle_language,
                     periodic_by_complexity,
                     relation_basis, relation_rows, snf_group, split_twos,
                     stacked_bonding_is_iso, substitution_corpus,
                     sympy_smith_diagonal)

TWO_ORBITS = Substitution.of({"1": "11", "2": "22"})
# the orbits of 12 and of 345, periodic words of periods 2 and 3
TWO_CYCLES = Substitution.of({"1": "12", "2": "12", "3": "345", "4": "345",
                              "5": "345"})

PERIODIC_WORDS = {1: "1", 2: "12", 3: "123", 4: "1234", 5: "12345"}


def cylinder(ring, u, start=0, value=1):
    return CylinderFunction.of(ring, start, {u: value})


def random_function(rng, spec, ring, length, start=0):
    if ring == RING_Z:
        vals = {w: rng.randint(-4, 4) for w in language(spec, length)}
    else:
        vals = {
            w: Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
            for w in language(spec, length)
        }
    return CylinderFunction.of(ring, start, vals)


def chain(spec, ring, n_max):
    """Presentations for N = 1..n_max and the flag of each bonding map."""
    levels = list(_iter_levels(spec, ring, n_max))
    return levels, [_bonding_is_iso(p1, p2, ring)
                    for p1, p2 in zip(levels, levels[1:])]


def coboundary(spec, f, mode):
    a, b = f.window
    lo, hi = min(a, a + 1), max(b, b + 1)
    return refine_to(spec, f, lo, hi) - refine_to(
        spec, apply_shift(f, mode), lo, hi)


def frac_in_lattice(rows, vec) -> bool:
    """Is the Fraction vector vec in the lattice of the Fraction rows?

    Decided by a Smith-form integer solve, independently of the Hermite
    canon that gap_labels compares."""
    den = math.lcm(*(x.denominator for row in [*rows, vec] for x in row))
    scaled = [[int(x * den) for x in row] for row in rows]
    return lattice_contains(scaled, [int(x * den) for x in vec])


class TestCylinderFunction:
    def test_construction_normalizes(self):
        f = CylinderFunction.of(RING_Z, 0, {"12": 2, "21": 0, "11": -1})
        assert f.coeffs == (("11", -1), ("12", 2))
        assert f.window == (0, 2)
        assert not f.is_zero

    def test_zero_function(self):
        z = CylinderFunction.of(RING_Z, 3, {})
        assert z.is_zero and z.length == 0

    def test_ring_validation(self):
        with pytest.raises(ValueError):
            CylinderFunction.of("Q", 0, {"1": 1})
        with pytest.raises(ValueError):
            CylinderFunction.of(RING_Z, 0, {"1": Fraction(1, 2)})
        with pytest.raises(ValueError):
            CylinderFunction.of(RING_HALF, 0, {"1": Fraction(1, 3)})
        with pytest.raises(ValueError):
            CylinderFunction.of(RING_Z, 0, {"1": 1, "22": 1})

    @pytest.mark.parametrize("ring", [RING_Z, RING_HALF])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_coefficients_refused(self, ring, value):
        # over Z as over Z[1/2]: True is not the coefficient 1
        with pytest.raises(ValueError):
            CylinderFunction.of(ring, 0, {"1": value})

    @pytest.mark.parametrize("start", [1.5, True, "0"])
    def test_start_must_be_int(self, start):
        with pytest.raises(ValueError, match="start"):
            CylinderFunction.of(RING_Z, start, {"1": 1})

    def test_dyadic_coefficients_kept_exact(self):
        f = CylinderFunction.of(RING_HALF, 0, {"1": Fraction(3, 4)})
        assert f.coeffs == (("1", Fraction(3, 4)),)

    def test_add_needs_matching_window(self):
        f = cylinder(RING_Z, "12")
        g = cylinder(RING_Z, "121")
        with pytest.raises(ValueError):
            f + g
        assert (f + f).coeffs == (("12", 2),)
        assert (f - f).is_zero

    def test_refinements_preserve_the_function(self):
        rng = random.Random(5)
        for spec in (TM, FIB, Periodic("112")):
            for _ in range(10):
                f = random_function(rng, spec, RING_Z, rng.randint(1, 3))
                assert cf_equal(spec, refine_right(spec, f), f)
                assert cf_equal(spec, refine_left(spec, f), f)

    def test_words_outside_the_language_drop_out(self):
        # 111 is not a Thue-Morse word, so f is the zero function.
        f = cylinder(RING_Z, "111")
        assert refine_to(TM, f, -1, 4) == CylinderFunction.of(RING_Z, -1, {})
        assert canonical(TM, f).is_zero

    def test_canonical_shrinks_refined_functions(self):
        f = cylinder(RING_Z, "12", value=3)
        blown = refine_right(TM, refine_left(TM, f))
        g = canonical(TM, blown)
        assert g.coeffs == f.coeffs
        assert g.window == f.window

    def test_canonical_constant(self):
        ones = CylinderFunction.of(RING_Z, 0, {w: 1 for w in language(TM, 3)})
        assert canonical(TM, ones) == constant_one(TM, RING_Z)


class TestApplyShift:
    def test_plain_shift_moves_window(self):
        f = cylinder(RING_Z, "12")
        g = apply_shift(f, SHIFT_PLAIN)
        assert g.window == (1, 3)
        assert g.coeffs == f.coeffs

    def test_doubling_shift_doubles(self):
        f = cylinder(RING_HALF, "12")
        g = apply_shift(f, SHIFT_DOUBLING)
        assert g.window == (1, 3)
        assert g.coeffs == (("12", Fraction(2)),)

    def test_doubling_rejects_ring_z(self):
        with pytest.raises(ValueError):
            apply_shift(cylinder(RING_Z, "1"), SHIFT_DOUBLING)
        with pytest.raises(ValueError):
            apply_shift(cylinder(RING_Z, "1"), "triple")

    def test_sup_norm_behaviour(self):
        f = CylinderFunction.of(RING_HALF, 0, {"11": 3, "12": -5})
        plain = apply_shift(f, SHIFT_PLAIN)
        double = apply_shift(f, SHIFT_DOUBLING)
        assert max(abs(v) for _, v in plain.coeffs) == 5
        assert max(abs(v) for _, v in double.coeffs) == 10


class TestSmithNormalForm:
    def test_identity(self):
        _, s, _, _ = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert s == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_gcd_and_det_example(self):
        _, s, _, _ = smith_normal_form([[2, 4], [6, 8]])
        assert [s[0][0], s[1][1]] == [2, 4]

    def test_zero_matrix(self):
        _, s, _, _ = smith_normal_form([[0, 0], [0, 0]])
        assert s == [[0, 0], [0, 0]]

    def test_soundness_on_random_matrices(self):
        rng = random.Random(3)
        for _ in range(25):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            mat = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
            u, s, v, _ = smith_normal_form(mat)
            assert abs(det_bareiss(u)) == 1
            assert abs(det_bareiss(v)) == 1
            diag = [s[i][i] for i in range(min(n, m))]
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                assert b == 0 or (a != 0 and b % a == 0) or a == b == 0


class TestInvariants:
    def test_thue_morse_ring_z_is_constant_line(self):
        g = invariants(TM, RING_Z)
        assert (g.rank, g.torsion) == (1, ())
        assert g.stabilized and not g.approximate
        (_, gen), = g.generators
        assert cf_equal(TM, gen, constant_one(TM, RING_Z))

    def test_minimal_specs_rank_one(self):
        for spec in (TM, FIB, Periodic("12"), Periodic("123")):
            g = invariants(spec, RING_Z)
            assert (g.rank, g.torsion) == (1, ())
            (_, gen), = g.generators
            assert cf_equal(spec, gen, constant_one(spec, RING_Z))

    def test_ring_half_always_zero(self):
        for spec in (TM, FIB, TWO_ORBITS, Periodic("1"), Periodic("12345")):
            g = invariants(spec, RING_HALF)
            assert g.is_zero and g.stabilized
            for n in range(1, 9):
                assert invariant_rank(spec, RING_HALF, n) == 0

    def test_two_orbit_spec_rank_two(self):
        g = invariants(TWO_ORBITS, RING_Z)
        assert (g.rank, g.torsion) == (2, ())
        reps = sorted(f.coeffs for _, f in g.generators)
        n = g.n_used
        assert reps == [(("1" * n, 1),), (("2" * n, 1),)]

    def test_generators_are_fixed_functions(self):
        for spec in (TM, FIB, TWO_ORBITS, Periodic("112")):
            for _, gen in invariants(spec, RING_Z).generators:
                assert cf_equal(spec, apply_shift(gen, SHIFT_PLAIN), gen)

    def test_rank_matches_component_count_oracle(self):
        # Independent breadth-first component count on the overlap graph.
        for spec in (TM, FIB, TWO_ORBITS):
            for n in range(1, 5):
                words = language(spec, n)
                adj = {w: set() for w in words}
                for v in language(spec, n + 1):
                    adj[v[:n]].add(v[1:])
                    adj[v[1:]].add(v[:n])
                seen: set = set()
                comps = 0
                for w in words:
                    if w in seen:
                        continue
                    comps += 1
                    stack = [w]
                    while stack:
                        x = stack.pop()
                        if x in seen:
                            continue
                        seen.add(x)
                        stack.extend(adj[x])
                assert invariant_rank(spec, RING_Z, n) == comps

    def test_explicit_window_flagged(self):
        win = ExplicitWindow("1212", "12121", 9)
        g = invariants(win, RING_Z)
        assert g.approximate

    def test_solutions_embed_upward(self):
        # Rank over Z never drops as the window grows.
        for spec in (TM, FIB, TWO_ORBITS):
            ranks = [invariant_rank(spec, RING_Z, n) for n in range(1, 7)]
            assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    @pytest.mark.parametrize("spec, want", [
        (TM, [{"1": 1, "2": 1}]),
        (FIB, [{"1": 1, "2": 1}]),
        (Periodic("11212"), [{"1": 1, "2": 1}]),
        (TWO_ORBITS, [{"1": 1}, {"2": 1}]),
    ], ids=["tm", "fib", "11212", "two-orbits"])
    def test_level_and_generators_pinned(self, spec, want):
        # Ranks 1, 1 (2, 2 for the two orbits) repeat from N = 1, so the
        # rule reports N = 1 and one indicator per component there.
        g = invariants(spec, RING_Z)
        assert g.n_used == 1 and g.stabilized
        assert [name for name, _ in g.generators] == \
            [f"c{i}" for i in range(len(want))]
        assert [(f.start, f.as_dict()) for _, f in g.generators] == \
            [(0, w) for w in want]

    def test_ring_half_kernel_matches_doubling_rows(self):
        # On 11222211 the doubling-fixed functions first appear at N = 4.
        # Oracle: the integer kernel of c[v[:n]] - 2 c[v[1:]] = 0, one
        # row per word v of length n + 1, built here from the language.
        win = ExplicitWindow("1122", "2211", 6)

        def oracle(n):
            lo = language(win, n)
            rows = []
            for v in language(win, n + 1):
                row = [0] * len(lo)
                row[lo.index(v[:n])] += 1
                row[lo.index(v[1:])] -= 2
                rows.append(row)
            return lo, integer_kernel(rows)

        ranks = [invariant_rank(win, RING_HALF, n) for n in range(1, 6)]
        assert ranks == [len(oracle(n)[1]) for n in range(1, 6)]
        assert ranks == [0, 0, 0, 1, 1]
        g = invariants(win, RING_HALF)
        assert (g.rank, g.n_used, g.stabilized, g.approximate) == \
            (1, 4, False, True)
        lo, kernel = oracle(4)
        gens = [[f.as_dict().get(w, 0) for w in lo] for _, f in g.generators]
        assert all(f.window == (0, 4) for _, f in g.generators)
        # Z[1/2] coefficients are Fractions; these are integers
        assert all(Fraction(x).denominator == 1 for row in gens for x in row)
        gens = [[int(x) for x in row] for row in gens]
        assert hnf_row_lattice(gens) == hnf_row_lattice(kernel)

    def test_ring_half_flagged_after_two_levels(self):
        # two levels without fixed functions flag the Z[1/2] chain; one
        # level does not
        assert invariants(TM, RING_HALF, n_cap=2).stabilized
        assert not invariants(TM, RING_HALF, n_cap=1).stabilized

    def test_read_off_the_coinvariant_presentations(self, monkeypatch):
        # Once coinvariants has run, invariants reads its cached
        # presentations: it reads no language and never tests a bonding
        # map.
        for ring in (RING_Z, RING_HALF):
            coinvariants(S4, ring, 4)
            with monkeypatch.context() as m:
                for name in ("language", "_bonding_is_iso"):
                    m.setattr(ktheory, name, None)
                g = invariants(S4, ring, n_cap=4)
            assert g.rank == (1 if ring == RING_Z else 0)

    @pytest.mark.parametrize("ring", [RING_Z, RING_HALF])
    @pytest.mark.parametrize("n_cap", [0, -1])
    def test_n_cap_must_be_positive(self, monkeypatch, ring, n_cap):
        # refused before any level is built, as coinvariants refuses
        # n_max < 2
        monkeypatch.setattr(ktheory, "_presentation", None)
        with pytest.raises(ValueError, match="n_cap must be >= 1"):
            invariants(TM, ring, n_cap=n_cap)


class TestCoinvariants:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_periodic_ring_half_matches_circulant_oracle(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        got = coinvariants(spec, RING_HALF)
        want_rank, want_tors = snf_group(circulant_rows(p, 2), invert_two=True)
        assert got.stabilized
        assert got.rank == want_rank
        assert got.torsion == want_tors
        expected = 2 ** p - 1
        assert got.torsion == ((expected,) if expected > 1 else ())

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_periodic_ring_z_matches_circulant_oracle(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        got = coinvariants(spec, RING_Z)
        want = snf_group(circulant_rows(p, 1))
        assert got.stabilized
        assert (got.rank, got.torsion) == want == (1, ())

    @pytest.mark.parametrize("ring, psi", [(RING_Z, 1), (RING_HALF, 2)])
    def test_repeated_letter_word_matches_circulant_oracle(self, ring, psi):
        # 11212 has |L(N)| = 2, 3, 4, 5, 5: below N = 4 a truncation sees
        # a quotient of the orbit, and its first two bonding maps are
        # isomorphisms although the third is not.
        spec = Periodic("11212")
        assert [len(language(spec, n)) for n in range(1, 6)] == [2, 3, 4, 5, 5]
        levels, isos = chain(spec, ring, 6)
        assert isos[:3] == [True, True, False]
        got = coinvariants(spec, ring)
        want_rank, want_tors = snf_group(circulant_rows(5, psi),
                                         invert_two=psi == 2)
        assert got.stabilized and got.n_used == 4
        assert (got.rank, got.torsion) == (want_rank, want_tors)
        assert len(levels[0].free) == want_rank + 1

    @pytest.mark.parametrize(
        "word", ["11212", "1122", "aab", "1121112", *PERIODIC_WORDS.values()])
    def test_periodic_read_at_orbit_level(self, word):
        # A periodic word is exact from its orbit level N0, the first N at
        # which all p cyclic windows of length N differ, whatever n_max.
        spec = Periodic(word)
        p = len(word)
        n0 = next(n for n in range(1, p + 1)
                  if len({(word * 2)[i:i + n] for i in range(p)}) == p)
        for ring, psi in ((RING_Z, 1), (RING_HALF, 2)):
            want = snf_group(circulant_rows(p, psi), invert_two=psi == 2)
            for n_max in range(2, n0 + 3):
                g = coinvariants(spec, ring, n_max)
                assert g.n_used == min(n0, n_max)
                assert g.stabilized == (n0 <= n_max)
                if g.stabilized:
                    assert (g.rank, g.torsion) == want

    def test_thue_morse_first_levels(self):
        # Hand-reduced: both levels are free of rank 3.
        for n in (1, 2):
            pres = _presentation(TM, RING_Z, n)
            assert len(pres.free) == 3
            assert not pres.tors

    def test_thue_morse_bonding_flags(self):
        # First map is an isomorphism; the second cannot be onto because
        # the rank jumps to 5.
        levels, isos = chain(TM, RING_Z, 4)
        assert isos[0] is True
        assert isos[1] is False
        assert len(levels[2].free) == 5

    def test_thue_morse_not_stabilized_honestly(self):
        g = coinvariants(TM, RING_Z, 8)
        assert g.stabilized is False
        assert g.n_used == 8
        _, isos = chain(TM, RING_Z, 8)
        assert not any(a and b for a, b in zip(isos, isos[1:]))

    # Known defect: two consecutive isomorphisms do not certify the group
    # of a substitution.  H^1 of TM and PD is Z[1/2] + Z, which is not
    # finitely generated, yet PD is flagged stabilized at N = 8 with rank
    # 3 and TM at N = 9 with rank 5.  The marker comes off when
    # substitutions get exact direct limits (ROADMAP item 1).
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="false stabilization certificates for "
                       "substitutions (ROADMAP item 1)")
    @pytest.mark.parametrize("spec, n_max", [(PD, 10), (TM, 12)],
                             ids=["pd", "tm"])
    def test_no_false_certificate(self, spec, n_max):
        g = coinvariants(spec, RING_Z, n_max)
        assert not g.stabilized

    @pytest.mark.parametrize("spec, n_max", [
        (TM, 6), (PD, 6), (FIB, 6), (TRIB, 6), (S4, 4),
        (Periodic("11212"), 6), (Periodic("1122"), 6), (Periodic("aab"), 6),
        (ExplicitWindow("121212", "1212121", 7), 6),
        (Substitution.of({"1": "221", "2": "1"}), 4),
    ], ids=["tm", "pd", "fib", "trib", "s4", "11212", "1122", "aab",
            "window", "not-onto"])
    def test_iso_flags_match_onto_and_one_to_one(self, spec, n_max):
        # The chain certifies an isomorphism by onto-ness plus equal rank
        # and torsion.  Oracle: onto and one to one tested separately on
        # the relation rows, over Z[1/2] on the integer vectors that a
        # power of 2 moves into them.  The kernel vectors (x, y) of
        # x*F + y*B2 = 0 are read off V of sympy's Smith decomposition
        # S = U [F; B2]^T V, and each x is tested against level N's
        # relation lattice.  On 1 -> 221, 2 -> 1 the groups at N = 1 and
        # 2 are isomorphic but the bonding map between them is not onto.
        for ring in (RING_Z, RING_HALF):
            half, psi = ring == RING_HALF, 2 if ring == RING_HALF else 1
            levels, isos = chain(spec, ring, n_max)
            assert len(isos) == len(levels) - 1
            bases = [relation_basis(relation_rows(spec, p.level, psi)[0],
                                    half) for p in levels]
            for k, flag in enumerate(isos):
                cols1, cols2 = levels[k].cols, levels[k + 1].cols
                c1, c2 = len(cols1), len(cols2)
                stacked = bonding_matrix(cols1, cols2) + bases[k + 1]
                s, _, v = smith_normal_decomp(Matrix(stacked).T)
                nonzero = [abs(int(s[i, i]))
                           for i in range(min(c2, len(stacked))) if s[i, i]]
                unit = ((lambda d: split_twos(d)[1]) if half else abs)
                onto = (len(nonzero) == c2
                        and all(unit(d) == 1 for d in nonzero))
                one_to_one = all(
                    lattice_contains(bases[k], [int(x) for x in v[:c1, j]])
                    for j in range(len(nonzero), len(stacked)))
                assert flag == (onto and one_to_one)

    @pytest.mark.parametrize("specs", [
        [TM, PD, FIB, TRIB, S4, Substitution.of({"1": "221", "2": "1"}),
         ExplicitWindow("121212", "1212121", 7),
         ExplicitWindow("121", "2112", 4)],
        substitution_corpus(2026, 40, letters=3, image=3),
    ], ids=["named", "corpus"])
    def test_tree_coordinates_agree_with_stacked_oracle(self, specs):
        # The onto test reduces the images in the target's tree
        # coordinates; the oracle reduces the bonding matrix stacked on
        # the target's relation rows by sympy.  Levels 1..6, or up to an
        # explicit window's horizon.
        flags = []
        for spec in specs:
            for ring in (RING_Z, RING_HALF):
                levels, isos = chain(spec, ring, 6)
                assert isos == [stacked_bonding_is_iso(spec, ring, p.level)
                                for p in levels[:-1]]
                flags += isos
        assert any(flags) and not all(flags)

    @pytest.mark.parametrize("specs", [
        [TM, PD, FIB, TRIB, S4, Substitution.of({"1": "221", "2": "1"}),
         TWO_CYCLES, Periodic("11212"), Periodic("1"), Periodic("123"),
         ExplicitWindow("121212", "1212121", 7),
         ExplicitWindow("121", "2112", 4)],
        substitution_corpus(2026, 40, letters=3, image=3),
        substitution_corpus(7, 20, letters=4, image=4),
    ], ids=["named", "corpus-3", "corpus-4"])
    def test_every_level_matches_sympy(self, specs):
        # each level's rank and torsion, read off the spanning forest,
        # against sympy's Smith form of the relation rows: levels 1..6,
        # or up to an explicit window's horizon
        for spec in specs:
            for ring, psi in ((RING_Z, 1), (RING_HALF, 2)):
                for pres in _iter_levels(spec, ring, 6):
                    rows = relation_rows(spec, pres.level, psi)[0]
                    assert (len(pres.free), tuple(d for _, d in pres.tors)) \
                        == snf_group(rows, psi == 2), (spec, ring, pres.level)

    @pytest.mark.parametrize("ring", [RING_Z, RING_HALF])
    @pytest.mark.parametrize("relations, onto", [
        (((1, -1), (0, 3)), True), (((1, -2), (0, 3)), False),
    ], ids=["image-2", "image-3"])
    def test_torsion_summand_needs_its_invariant_factor(self, ring,
                                                        relations, onto):
        # By hand: p1 has one word and group Z/3.  p2's two words both
        # refine it and lie off its forest, and its relations present
        # Z/3: with (1, -1) and (0, 3), e_aaa = e_aab generates it and
        # the image e_aaa + e_aab is twice that generator; with (1, -2)
        # and (0, 3), e_aaa = 2 e_aab and the image is 3 e_aab = 0.  The
        # image generates Z/3 only together with the relations.
        p1 = _Presentation(ring, 1, ("a",), ("aa",), (), ((0, 0, 0),), 1,
                           ((3,),), (), ((1,),), ((1,),), ((0, 3),), ())
        (_, c), _ = relations
        p2 = _Presentation(ring, 2, ("aa",), ("aaa", "aab"), (),
                           ((0, 0, 0), (1, 0, 0)), 1, relations, (),
                           ((1, -c), (0, 1)), ((1, c), (0, 1)), ((1, 3),),
                           ())
        assert _bonding_is_iso(p1, p2, ring) == onto
        image = [1, 1]
        assert (snf_group([image, *relations], ring == RING_HALF)
                == (0, ())) == onto

    @pytest.mark.parametrize("groups, spec, n, want", [
        (k_groups, S4, 6, 12), (k_groups, TM, 8, 16),
        (k_groups, Periodic("11212"), 8, 4), (cech_cohomology, FIB, 8, 6)],
        ids=["s4", "tm", "periodic", "fib-cech"])
    def test_smith_form_budget(self, groups, spec, n, want):
        # No Smith form (ktheory imports none, test_names.py checks) and
        # one presentation per ring and level: bonding maps are tested on
        # the Hermite form.  A periodic word takes one per ring at its
        # orbit level (4 for 11212) and, for the invariants over Z,
        # levels 1 and 2, whose ranks repeat.  Fibonacci picks N = 1 in
        # both rings, so each chain stops at level 3, the second level
        # past the pick, not at n.
        _presentation.cache_clear()
        groups(spec, n)
        assert _presentation.cache_info().misses == want

    def test_rank_against_rational_rank(self):
        for spec in (TM, FIB):
            for n in range(1, 5):
                rows, cols = relation_rows(spec, n, 1)
                pres = _presentation(spec, RING_Z, n)
                assert len(pres.free) == len(cols) - rational_rank(rows)
                assert invariant_rank(spec, RING_Z, n) == \
                    len(rows) - rational_rank(rows)

    def test_presentation_order_independence(self):
        # Impose refinement and shift relations on the two-level generator
        # set in both orders; the canonical forms must agree.
        for spec, psi in ((TM, 1), (TM, 2), (Periodic("123"), 2)):
            for n in (1, 2):
                lo = language(spec, n)
                hi = language(spec, n + 1)
                cols = {w: i for i, w in enumerate(lo + hi)}
                refinement = []
                shift = []
                for u in lo:
                    row = [0] * len(cols)
                    row[cols[u]] = 1
                    for v in hi:
                        if v[:n] == u:
                            row[cols[v]] -= 1
                    refinement.append(row)
                    row = [0] * len(cols)
                    row[cols[u]] = 1
                    for v in hi:
                        if v[1:] == u:
                            row[cols[v]] -= psi
                    shift.append(row)
                a = snf_group(refinement + shift)
                b = snf_group(shift + refinement)
                assert a == b
                eliminated = snf_group(relation_rows(spec, n, psi)[0])
                assert a == eliminated

    def test_functoriality_on_relations(self):
        # Every relation of level N maps into the relation lattice of N+1.
        for spec in (TM, FIB, Periodic("12")):
            for ring in (RING_Z, RING_HALF):
                psi = 2 if ring == RING_HALF else 1
                for n in (1, 2, 3):
                    rows_n, cols_n = relation_rows(spec, n, psi)
                    rows_n1, cols_n1 = relation_rows(spec, n + 1, psi)
                    target = [r for r in rows_n1 if any(r)]
                    for row in rows_n:
                        image = [0] * len(cols_n1)
                        for c, w in zip(row, cols_n):
                            if c:
                                for j, v in enumerate(cols_n1):
                                    if v[:-1] == w:
                                        image[j] += c
                        assert lattice_contains(target, image)

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            coinvariants(TM, RING_Z, 1)
        with pytest.raises(ValueError):
            coinvariants(TM, "Q", 4)

    def test_explicit_window_approximate(self):
        win = ExplicitWindow("121212", "1212121", 5)
        g = coinvariants(win, RING_Z, 8)
        assert g.approximate


class TestAndersonPutnamOracle:
    """H^1's rational rank against the Anderson-Putnam complex of
    1-collared tiles, built by oracles.py on an iterate's language."""

    @pytest.mark.parametrize("spec, periodic, rank", [
        (TM, False, 2), (PD, False, 2), (FIB, False, 2), (TRIB, False, 3),
        (S4, False, 10), (Substitution.of({"1": "121", "2": "212"}), True, 1),
        (Substitution.of({"1": "12", "2": "12"}), True, 1),
    ], ids=["tm", "pd", "fib", "trib", "s4", "121-212", "12-12"])
    def test_pinned_ranks(self, spec, periodic, rank):
        assert periodic_by_complexity(spec) is periodic
        assert anderson_putnam_rank(spec) == rank

    def test_periodic_corpus_rules_are_circles(self):
        # the hull of a periodic rule is one circle, so H^1 = Z
        specs = substitution_corpus(2026, 40, letters=3, image=3)
        periodic = [s for s in specs if periodic_by_complexity(s)]
        assert len(periodic) == 3
        assert all(anderson_putnam_rank(s) == 1 for s in periodic)

    # Known defect: on this corpus 20 of the 37 aperiodic rules get a
    # stabilized H^1 whose rank is not the oracle's.  The marker comes
    # off with the exact tower map (ROADMAP item 1, step A).
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="false stabilization certificates for "
                       "substitutions (ROADMAP item 1, step A)")
    def test_flagged_h1_has_oracle_rank(self):
        specs = substitution_corpus(2026, 40, letters=3, image=3)
        wrong = []
        for spec in specs:
            if periodic_by_complexity(spec):
                continue
            g = coinvariants(spec, RING_Z, 10)
            want = anderson_putnam_rank(spec)
            if g.stabilized and g.rank != want:
                wrong.append((spec.mapping(), g.rank, want))
        assert not wrong


class TestRelationMembership:
    """The class map against lattice_contains: a cochain is a relation
    exactly when every coordinate of its class is 0."""

    @pytest.mark.parametrize("spec", [TM, FIB, S4], ids=["tm", "fib", "s4"])
    def test_agrees_with_lattice_contains(self, spec):
        rng = random.Random(53)
        for ring in (RING_Z, RING_HALF):
            for n in range(1, 5):
                pres = _presentation(spec, ring, n)
                group = _group_from(pres, False, False)
                psi = 2 if ring == RING_HALF else 1
                rows = [r for r in relation_rows(spec, n, psi)[0] if any(r)]
                m = len(pres.cols)
                # Over Z[1/2], x is a relation iff 2**e * x is an integer
                # one, e the largest 2-adic valuation of sympy's factors.
                e = 0
                if ring == RING_HALF:
                    e = max((split_twos(d)[0]
                             for d in sympy_smith_diagonal(rows) if d),
                            default=0)

                def oracle(x):
                    return lattice_contains(rows, [xi << e for xi in x])

                def zero_class(x):
                    f = CylinderFunction.of(ring, 0, dict(zip(pres.cols, x)))
                    return not any(
                        coinvariant_class(spec, f, group).values())

                for row in rng.sample(rows, min(5, len(rows))):
                    assert zero_class(row)
                for _ in range(10):
                    x = [rng.randint(-3, 3) for _ in range(m)]
                    assert zero_class(x) == oracle(x)
                    c = [rng.randint(-3, 3) for _ in rows]
                    y = [sum(ci * r[j] for ci, r in zip(c, rows))
                         for j in range(m)]
                    if ring == RING_HALF and any(y):
                        g = math.gcd(*y)
                        y = [yj // (g & -g) for yj in y]
                    assert oracle(y)
                    assert zero_class(y)
                    y[rng.randrange(m)] += rng.choice((-1, 1))
                    assert zero_class(y) == oracle(y)


class TestCoinvariantClass:
    def test_coboundaries_vanish(self):
        rng = random.Random(23)
        for spec in (TM, Periodic("112")):
            for ring, mode in ((RING_Z, SHIFT_PLAIN), (RING_HALF, SHIFT_DOUBLING)):
                grp = coinvariants(spec, ring, 6)
                for _ in range(50):
                    # A coboundary widens the window by one, so keep f
                    # inside the group's truncation level.
                    f = random_function(
                        rng, spec, ring, rng.randint(1, min(4, grp.n_used)))
                    cls = coinvariant_class(spec, coboundary(spec, f, mode), grp)
                    assert all(v == 0 for v in cls.values())

    def test_classes_are_shift_invariant(self):
        rng = random.Random(29)
        for ring, mode in ((RING_Z, SHIFT_PLAIN), (RING_HALF, SHIFT_DOUBLING)):
            grp = coinvariants(TM, ring, 6)
            for _ in range(25):
                f = random_function(rng, TM, ring, rng.randint(1, 4),
                                    start=rng.randint(-2, 2))
                assert (coinvariant_class(TM, f, grp)
                        == coinvariant_class(TM, apply_shift(f, mode), grp))

    def test_linearity(self):
        rng = random.Random(31)
        grp = coinvariants(TM, RING_Z, 6)
        names = [n for n, _ in grp.generators]
        tors = dict(zip(names, list(grp.torsion) + [0] * grp.rank))
        for _ in range(25):
            f = random_function(rng, TM, RING_Z, 2)
            g = random_function(rng, TM, RING_Z, 2)
            cf = coinvariant_class(TM, f, grp)
            cg = coinvariant_class(TM, g, grp)
            ch = coinvariant_class(TM, f + g, grp)
            for name in names:
                d = tors[name]
                lhs = ch[name] - (cf[name] + cg[name])
                assert lhs % d == 0 if d else lhs == 0

    def test_periodic_half_chi1_generates_z3(self):
        spec = Periodic("12")
        grp = coinvariants(spec, RING_HALF)
        assert list(grp.torsion) == [3] and grp.rank == 0
        cls = coinvariant_class(spec, cylinder(RING_HALF, "1"), grp)
        (value,) = cls.values()
        assert math.gcd(int(value), 3) == 1

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_constant_one_maps_to_p_times_generator(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        grp = coinvariants(spec, RING_Z)
        cls = coinvariant_class(spec, constant_one(spec, RING_Z), grp)
        (value,) = cls.values()
        assert abs(value) == p

    def test_window_too_long_rejected(self):
        # canonical cannot shrink this Thue-Morse cylinder of length 4
        grp = coinvariants(TM, RING_Z, 2)
        long_fn = cylinder(RING_Z, "1212")
        assert canonical(TM, long_fn).length == 4
        with pytest.raises(ValueError, match="level N = 2, which takes "
                           "windows of at most 3 letters"):
            coinvariant_class(TM, long_fn, grp)

    @pytest.mark.parametrize("ring", [RING_Z, RING_HALF])
    def test_long_periodic_window_takes_its_shrunk_class(self, ring):
        # Periodic("12") is read at N = 1, yet every window has a class:
        # the indicator of 1212 on [-1, 3) is the indicator of 1 at -1.
        spec = Periodic("12")
        grp = coinvariants(spec, ring, 8)
        assert grp.n_used == 1 and grp.stabilized
        long_fn = cylinder(ring, "1212", start=-1)
        short = canonical(spec, long_fn)
        assert (short.window, short.as_dict()) == ((-1, 0), {"1": 1})
        assert (coinvariant_class(spec, long_fn, grp)
                == coinvariant_class(spec, short, grp))

    def test_ring_mismatch_rejected(self):
        grp = coinvariants(TM, RING_Z, 4)
        with pytest.raises(ValueError):
            coinvariant_class(TM, cylinder(RING_HALF, "1"), grp)

    def test_invariants_group_has_no_presentation(self):
        g = invariants(TM, RING_Z)
        with pytest.raises(ValueError):
            coinvariant_class(TM, cylinder(RING_Z, "1"), g)

    def test_group_of_another_spec_rejected(self):
        # read against period doubling's presentation, Thue-Morse's
        # level-6 group would give every class all-zero coordinates
        grp = coinvariants(TM, RING_Z, 6)
        with pytest.raises(ValueError, match="not this spec's coinvariants "
                           "at N = 6"):
            coinvariant_class(PD, cylinder(RING_Z, "11"), grp)

    def test_own_and_retagged_groups_keep_their_coordinates(self):
        # pinned: rebuilding the presentation must not move a class,
        # and K0's retagged names still read it
        grp = coinvariants(TM, RING_Z, 6)
        assert coinvariant_class(TM, cylinder(RING_Z, "1", start=-1), grp) \
            == {"f0": -1, "f1": 3, "f2": 0, "f3": 2, "f4": 4}
        co_half, _ = k_groups(TM, 6)["K0"]
        cls = coinvariant_class(TM, cylinder(RING_HALF, "11"), co_half)
        assert cls == {f"projection-class:{name}": v for name, v in (
            ("t0", 2), ("f0", 64), ("f1", 0), ("f2", 128), ("f3", -4404))}


class TestKGroupsAndCech:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_periodic_k_table(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        kg = k_groups(spec, 8)
        co_half, inv_z = kg["K0"]
        expected = 2 ** p - 1
        want = [expected] if expected > 1 else []
        assert (co_half.rank, list(co_half.torsion)) == (0, want)
        assert (inv_z.rank, list(inv_z.torsion)) == (1, [])
        assert (kg["K1"].rank, list(kg["K1"].torsion)) == (1, [])

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_periodic_cech_table(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        ch = cech_cohomology(spec, 8)
        expected = 2 ** p - 1
        want = [expected] if expected > 1 else []
        assert (ch["H0"].rank, list(ch["H0"].torsion)) == (1, [])
        assert (ch["H1"].rank, list(ch["H1"].torsion)) == (1, [])
        assert (ch["H2"].rank, list(ch["H2"].torsion)) == (0, want)

    def test_repeated_letter_word_k_table(self):
        kg = k_groups(Periodic("11212"), 8)
        co_half, inv_z = kg["K0"]
        assert (co_half.rank, list(co_half.torsion), co_half.n_used) == (0, [31], 4)
        assert (inv_z.rank, list(inv_z.torsion)) == (1, [])
        assert (kg["K1"].rank, list(kg["K1"].torsion), kg["K1"].n_used) == (1, [], 4)
        assert co_half.stabilized and kg["K1"].stabilized

    @pytest.mark.parametrize("spec", [Substitution.of({"1": "11"}),
                                      Periodic("1")])
    @pytest.mark.parametrize("n_max", [2, 3, 8])
    def test_one_letter_k_groups_from_zero_relations(self, spec, n_max):
        # one word per level and psi = 1: the Z relation matrix is zero,
        # so its Smith form has a zero diagonal and identity transforms
        kg = k_groups(spec, n_max)
        co_half, inv_z = kg["K0"]
        assert (co_half.ring, co_half.rank, co_half.torsion,
                co_half.generators) == (RING_HALF, 0, (), ())
        k1 = kg["K1"]
        one = constant_one(spec, RING_Z)
        for g, name in ((inv_z, "c0"), (k1, "f0")):
            assert (g.ring, g.rank, g.torsion) == (RING_Z, 1, ())
            (gen_name, gen), = g.generators
            assert gen_name == name and cf_equal(spec, gen, one)
        # a substitution's chain needs two isomorphisms to stabilize; a
        # periodic word is exact at its orbit level, here N = 1
        if isinstance(spec, Periodic):
            assert co_half.stabilized and k1.stabilized
            assert co_half.n_used == k1.n_used == 1
        else:
            assert co_half.stabilized == k1.stabilized == (n_max > 2)
        assert inv_z.stabilized

    def test_k0_generators_tagged(self):
        co_half, _ = k_groups(Periodic("12"), 6)["K0"]
        assert [n for n, _ in co_half.generators] == ["projection-class:t0"]

    def test_k1_consistent_with_coinvariants(self):
        kg = k_groups(TM, 6)
        direct = coinvariants(TM, RING_Z, 6)
        assert kg["K1"].rank == direct.rank
        assert kg["K1"].torsion == direct.torsion
        assert kg["K1"].stabilized == direct.stabilized

    def test_minimal_cech_h0(self):
        for spec in (TM, FIB, Periodic("1212")):
            assert cech_cohomology(spec, 6)["H0"].rank == 1

    def test_group_json_schema(self):
        g = coinvariants(Periodic("12"), RING_HALF)
        js = group_to_json(g)
        assert set(js) == {"ring", "rank", "torsion", "generators",
                           "stabilized", "N_used"}
        assert js["ring"] == RING_HALF
        assert js["torsion"] == [3]
        (gen,) = js["generators"]
        assert set(gen) == {"name", "window", "coefficients"}

    def test_classes_work_through_k0_tags(self):
        spec = Periodic("12")
        co_half, _ = k_groups(spec, 6)["K0"]
        cls = coinvariant_class(spec, cylinder(RING_HALF, "1"), co_half)
        assert set(cls) == {"projection-class:t0"}


def check_printed_groups(spec, n_max):
    """check_group_json on the three groups k_groups prints; cech prints
    the same three under other names."""
    kg = k_groups(spec, n_max)
    co_half, inv_z = kg["K0"]
    ch = cech_cohomology(spec, n_max)
    assert (ch["H0"], ch["H1"]) == (inv_z, kg["K1"])
    assert [r for _, r in ch["H2"].generators] == \
        [r for _, r in co_half.generators]
    for group, invariant in ((co_half, False), (inv_z, True),
                             (kg["K1"], False)):
        check_group_json(spec, group_to_json(group), invariant)


class TestPrintedGenerators:
    """The printed generators generate the printed group with the printed
    orders (ROADMAP item 25), on groups the pinned digests do not cover."""

    @pytest.mark.parametrize("spec, n_max", [
        (TM, 8), (PD, 8), (FIB, 8), (TRIB, 6), (S4, 3),
        (Substitution.of({"1": "221", "2": "1"}), 6),
        (Substitution.of({"1": "11"}), 3)],
        ids=["tm", "pd", "fib", "trib", "s4", "not-onto", "one-letter"])
    def test_named_specs(self, spec, n_max):
        check_printed_groups(spec, n_max)

    @pytest.mark.parametrize("spec, torsion", [
        (TWO_ORBITS, ()), (TWO_CYCLES, (21,)),
        (Substitution.of({"1": "12", "2": "12", "3": "3456", "4": "3456",
                          "5": "3456", "6": "3456", "7": "777"}), (3, 15))],
        ids=["two-orbits", "orders-3-7", "orders-3-15-1"])
    def test_components_merge_to_invariant_factors(self, spec, torsion):
        # rules that are not primitive: each periodic orbit is a
        # component of the Rauzy graph with its own cyclic summand of
        # order 2**p - 1 over Z[1/2], and the summands merge to the
        # invariant factors of their sum (Z/3 + Z/7 = Z/21)
        assert coinvariants(spec, RING_HALF, 4).torsion == torsion
        check_printed_groups(spec, 4)

    @pytest.mark.parametrize("word", [*PERIODIC_WORDS.values(), "11212",
                                      "1122", "aab", "1121112"])
    def test_periodic_words(self, word):
        # n_max 2 reads some words below their orbit level
        for n_max in (2, 6):
            check_printed_groups(Periodic(word), n_max)

    def test_corpus(self):
        for spec in substitution_corpus(2026, 40, letters=3, image=3):
            check_printed_groups(spec, 5)

    def test_oracle_reads_the_same_language(self):
        # the check's relations are the package's: its iterate prefix,
        # cyclic windows and window blocks hold every word
        specs = [TM, PD, FIB, TRIB, S4, TWO_ORBITS, TWO_CYCLES,
                 Periodic("11212"), Periodic("aab"),
                 ExplicitWindow("121", "2112", 4),
                 *substitution_corpus(2026, 40, letters=3, image=3)]
        for spec in specs:
            for n in range(1, 5):
                assert oracle_language(spec, n) == language(spec, n)

    @pytest.mark.parametrize("spec, n_max", [
        (ExplicitWindow("121212", "1212121", 7), 6),
        (ExplicitWindow("121", "2112", 4), 4),
        (ExplicitWindow("1122", "2211", 6), 5)],
        ids=["readme", "short", "doubling-fixed"])
    def test_explicit_windows(self, spec, n_max):
        check_printed_groups(spec, n_max)


class TestGapLabels:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_periodic_every_truncation(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        gl = gap_labels(spec, 5)
        assert gl.kind == "rational"
        for entry in gl.chain:
            (g,) = entry.generators
            assert g == Fraction(1, p)
        assert gl.stabilized and gl.dyadic_base is None

    @pytest.mark.parametrize("spec, n_max", [(TM, 3), (FIB, 4)],
                             ids=["tm", "fib"])
    def test_chain_is_hashable_and_frozen(self, spec, n_max):
        gl = gap_labels(spec, n_max)
        assert hash(gl) == hash(gap_labels(spec, n_max))
        with pytest.raises(AttributeError):
            gl.chain[0].n = 2

    def test_one_level(self):
        # n_max 1 is a chain of one level, which cannot repeat
        gl = gap_labels(TM, 1)
        assert (gl.n_used, len(gl.chain), gl.generators, gl.stabilized) \
            == (1, 1, (Fraction(1, 2),), False)
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            gap_labels(TM, 0)

    def test_repeated_letter_word(self):
        gl = gap_labels(Periodic("112"), 4)
        assert list(gl.generators) == [Fraction(1, 3)]

    def test_thue_morse_chain_matches_gcd_oracle(self):
        # The rational generator is the lattice's Hermite basis; the
        # oracle is the gcd of the measures.  PD, S4 and a periodic word
        # ride along.
        for spec in (TM, PD, S4, Periodic("11212")):
            gl = gap_labels(spec, 6 if spec != S4 else 4)
            for entry in gl.chain:
                n = entry.n
                mu = measure_vector(spec, n)
                (g,) = entry.generators
                assert isinstance(g, Fraction)
                assert g == gcd_lattice(list(mu.values()))
        gl = gap_labels(TM, 6)
        assert gl.chain[1].generators[0] == Fraction(1, 6)

    def test_thue_morse_dyadic_pattern(self):
        gl = gap_labels(TM, 6)
        assert gl.dyadic_base == Fraction(1, 3)
        assert not gl.stabilized

    @pytest.mark.parametrize("n_max", [4, 6])
    def test_substitution_flag_needs_inverse_lambda_closure(self, n_max):
        # mu(x.P) = lambda * mu(x), so the gap-label group is closed under
        # 1/lambda; PD's chain repeats at n_max 4 and 6 (1/12 at 6) on a
        # lattice that is not, and only that closure clears its flag
        expect = {PD: False, TM: False, S4: False, FIB: True, TRIB: True}
        for spec, flag in expect.items():
            gl = gap_labels(spec, n_max)
            assert gl.stabilized is flag, spec
            degree = 1 if gl.minpoly is None else len(gl.minpoly) - 1
            rows = [_value_row(g, degree) for g in gl.generators]
            inv = _spec_perron(spec)[1]
            closed = all(frac_in_lattice(rows, _value_row(g * inv, degree))
                         for g in gl.generators)
            repeated = gl.chain[-1].agrees_with_previous
            assert flag == (repeated and closed), spec
            if spec == PD:
                assert repeated and not closed

    def test_one_pass_reduction_matches_restart_scan(self):
        # gap_labels drops lattice-redundant values in one pass; the
        # oracle rescans from the start after every drop, and reduces
        # rational values to their gcd.
        def restart_scan(values, degree):
            if isinstance(values[0], Fraction):
                return (gcd_lattice(values),)
            rows = [_value_row(v, degree) for v in values]
            kept = list(range(len(values)))
            changed = True
            while changed:
                changed = False
                for pos in list(kept):
                    others = [rows[i] for i in kept if i != pos]
                    if others and frac_in_lattice(others, rows[pos]):
                        kept.remove(pos)
                        changed = True
                        break
            return tuple(values[i] for i in kept)

        specs = [FIB, TRIB, Substitution.of({"1": "132", "2": "1", "3": "12"}),
                 *substitution_corpus(29, 12, letters=3, image=3)]
        for spec in specs:
            gl = gap_labels(spec, 5)
            degree = 1 if gl.minpoly is None else len(gl.minpoly) - 1
            for entry in gl.chain:
                mu = measure_vector(spec, entry.n)
                values = [mu[w] for w in sorted(mu)]
                assert entry.generators == restart_scan(values, degree), \
                    (spec, entry.n)

    def test_fibonacci_algebraic_lattice(self):
        gl = gap_labels(FIB, 5)
        assert gl.kind == "algebraic"
        assert gl.minpoly is not None
        assert gl.stabilized
        mu1 = measure_vector(FIB, 1)
        gens = {float(v) for v in gl.chain[0].generators}
        assert gens == {float(v) for v in mu1.values()}
        for entry in gl.chain[2:]:
            assert entry.agrees_with_previous

    def test_generators_in_unit_interval_and_reduced(self):
        for spec in (TM, FIB, Periodic("112")):
            gl = gap_labels(spec, 4)
            degree = 1 if gl.minpoly is None else len(gl.minpoly) - 1
            rows = [_value_row(v, degree) for v in gl.generators]
            for i, v in enumerate(gl.generators):
                assert 0 < float(v) <= 1
                others = rows[:i] + rows[i + 1:]
                if others:
                    assert not frac_in_lattice(others, rows[i])

    def test_unsupported_specs_rejected(self):
        with pytest.raises(UnsupportedSpec):
            gap_labels(ExplicitWindow("12", "12", 4), 3)
        with pytest.raises(UnsupportedSpec):
            gap_labels(Substitution.of({"1": "12", "2": "22"}), 3)

    def test_json_round(self):
        js = gap_label_to_json(gap_labels(TM, 4))
        assert js["kind"] == "rational"
        assert js["chain"][1]["generators"] == ["1/6"]
        js_fib = gap_label_to_json(gap_labels(FIB, 3))
        assert "minpoly" in js_fib


class TestMeasurePairing:
    def test_cylinder_values(self):
        for spec in (TM, FIB, Periodic("112")):
            for n in range(1, 5):
                mu = measure_vector(spec, n)
                for u in language(spec, n):
                    chi = cylinder(RING_HALF, u)
                    assert measure_pairing(spec, chi) == mu[u]

    def test_anchor_and_refinement_independence(self):
        rng = random.Random(41)
        for _ in range(25):
            f = random_function(rng, TM, RING_HALF, rng.randint(1, 3),
                                start=rng.randint(-2, 2))
            base = measure_pairing(TM, f)
            assert measure_pairing(TM, refine_left(TM, f)) == base
            assert measure_pairing(TM, refine_right(TM, f)) == base

    def test_plain_coboundaries_integrate_to_zero(self):
        rng = random.Random(43)
        for spec in (TM, FIB, Periodic("12")):
            for _ in range(20):
                f = random_function(rng, spec, RING_Z, rng.randint(1, 3))
                assert measure_pairing(spec, coboundary(spec, f, SHIFT_PLAIN)) == 0

    def test_constant_on_plain_classes(self):
        rng = random.Random(47)
        for _ in range(25):
            f = random_function(rng, TM, RING_Z, 2)
            g = random_function(rng, TM, RING_Z, 2)
            f2 = refine_to(TM, f, 0, 3) + coboundary(TM, g, SHIFT_PLAIN)
            assert measure_pairing(TM, f2) == measure_pairing(TM, f)

    def test_total_mass(self):
        for spec in (TM, FIB):
            assert measure_pairing(spec, constant_one(spec, RING_Z)) == 1
