"""Shift-module invariants, coinvariants, K-groups, and gap labels.

The periodic family is cross-checked against an independently built
circulant presentation reduced by sympy's Smith normal form, so none of
the expected group tables below depend on the code under test.
"""

import math
import random
from fractions import Fraction

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from hyptile.intmat import lattice_contains, rational_rank
from hyptile.ktheory import (
    RING_HALF,
    RING_Z,
    SHIFT_DOUBLING,
    SHIFT_PLAIN,
    CylinderFunction,
    _coinvariant_chain,
    _presentation,
    _relation_rows,
    _unshift,
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
    smith_normal_form,
)
from hyptile.subshift import (
    ExplicitWindow,
    Periodic,
    Substitution,
    UnsupportedSpec,
    language,
    measure_vector,
)

TM = Substitution.of({"1": "12", "2": "21"})
FIB = Substitution.of({"1": "12", "2": "1"})
TWO_ORBITS = Substitution.of({"1": "11", "2": "22"})
S4 = Substitution.of({"1": "1234", "2": "2143", "3": "3412", "4": "4321"})

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


def coboundary(spec, f, mode):
    a, b = f.window
    lo, hi = min(a, a + 1), max(b, b + 1)
    return refine_to(spec, f, lo, hi) - refine_to(
        spec, apply_shift(f, mode), lo, hi)


def circulant_presentation(p, psi):
    """Hand-built relation matrix for a distinct-letter periodic word."""
    rows = []
    for i in range(p):
        row = [0] * p
        row[i] += 1
        row[(i - 1) % p] -= psi
        rows.append(row)
    return rows


def sympy_group_data(rows):
    """(rank, sorted nontrivial invariant factors) via an outside SNF."""
    m = Matrix(rows)
    s = sympy_snf(m)
    diag = [abs(int(s[i, i])) for i in range(min(s.rows, s.cols))]
    rank = m.cols - sum(1 for d in diag if d)
    return rank, sorted(d for d in diag if d > 1)


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

    def test_shift_inverse_round_trip(self):
        rng = random.Random(9)
        for mode, ring in ((SHIFT_PLAIN, RING_Z), (SHIFT_DOUBLING, RING_HALF)):
            for _ in range(20):
                f = random_function(rng, TM, ring, rng.randint(1, 3),
                                    start=rng.randint(-3, 3))
                assert _unshift(apply_shift(f, mode), mode) == f
                assert apply_shift(_unshift(f, mode), mode) == f

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
            assert abs(Matrix(u).det()) == 1
            assert abs(Matrix(v).det()) == 1
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


class TestCoinvariants:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_periodic_ring_half_matches_circulant_oracle(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        got, stab = coinvariants(spec, RING_HALF)
        want_rank, want_tors = sympy_group_data(circulant_presentation(p, 2))
        want_tors = [d for d in (odd_part(t) for t in want_tors) if d > 1]
        assert stab and got.stabilized
        assert got.rank == want_rank
        assert list(got.torsion) == want_tors
        expected = 2 ** p - 1
        assert list(got.torsion) == ([expected] if expected > 1 else [])

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_periodic_ring_z_matches_circulant_oracle(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        got, stab = coinvariants(spec, RING_Z)
        want_rank, want_tors = sympy_group_data(circulant_presentation(p, 1))
        assert stab
        assert (got.rank, list(got.torsion)) == (want_rank, want_tors) == (1, [])

    @pytest.mark.parametrize("ring, psi", [(RING_Z, 1), (RING_HALF, 2)])
    def test_repeated_letter_word_matches_circulant_oracle(self, ring, psi):
        # 11212 has |L(N)| = 2, 3, 4, 5, 5: below N = 4 a truncation sees
        # a quotient of the orbit, and its first two bonding maps are
        # isomorphisms although the third is not.
        spec = Periodic("11212")
        assert [len(language(spec, n)) for n in range(1, 6)] == [2, 3, 4, 5, 5]
        levels, isos, _ = _coinvariant_chain(spec, ring, 6)
        assert isos[:3] == [True, True, False]
        got, stab = coinvariants(spec, ring)
        want_rank, want_tors = sympy_group_data(circulant_presentation(5, psi))
        want_tors = [d for d in (odd_part(t) for t in want_tors) if d > 1]
        assert stab and got.stabilized and got.n_used == 4
        assert (got.rank, list(got.torsion)) == (want_rank, want_tors)
        assert len(levels[0].free) == want_rank + 1

    def test_thue_morse_first_levels(self):
        # Hand-reduced: both levels are free of rank 3.
        for n in (1, 2):
            pres = _presentation(TM, RING_Z, n)
            assert len(pres.free) == 3
            assert not pres.tors

    def test_thue_morse_bonding_flags(self):
        # First map is an isomorphism; the second cannot be onto because
        # the rank jumps to 5.
        levels, isos, truncated = _coinvariant_chain(TM, RING_Z, 4)
        assert not truncated
        assert isos[0] is True
        assert isos[1] is False
        assert len(levels[2].free) == 5

    def test_thue_morse_not_stabilized_honestly(self):
        g, stab = coinvariants(TM, RING_Z, 8)
        assert stab is False and g.stabilized is False
        assert g.n_used == 8
        _, isos, _ = _coinvariant_chain(TM, RING_Z, 8)
        assert not any(a and b for a, b in zip(isos, isos[1:]))

    def test_rank_against_rational_rank(self):
        for spec in (TM, FIB):
            for n in range(1, 5):
                rows, cols = _relation_rows(spec, n, 1)
                pres = _presentation(spec, RING_Z, n)
                assert len(pres.free) == len(cols) - rational_rank(rows)

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
                a = sympy_group_data(refinement + shift)
                b = sympy_group_data(shift + refinement)
                assert a == b
                ring = RING_Z if psi == 1 else RING_HALF
                pres = _presentation(spec, ring, n)
                eliminated = sympy_group_data([list(r) for r in pres.rows])
                assert a == eliminated

    def test_functoriality_on_relations(self):
        # Every relation of level N maps into the relation lattice of N+1.
        for spec in (TM, FIB, Periodic("12")):
            for ring in (RING_Z, RING_HALF):
                psi = 2 if ring == RING_HALF else 1
                for n in (1, 2, 3):
                    rows_n, cols_n = _relation_rows(spec, n, psi)
                    rows_n1, cols_n1 = _relation_rows(spec, n + 1, psi)
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
        g, _ = coinvariants(win, RING_Z, 8)
        assert g.approximate


def odd_part(n):
    n = abs(n)
    while n and n % 2 == 0:
        n //= 2
    return n


class TestRelationMembership:
    """Presentation-based membership against lattice_contains."""

    @pytest.mark.parametrize("spec", [TM, FIB, S4], ids=["tm", "fib", "s4"])
    def test_agrees_with_lattice_contains(self, spec):
        rng = random.Random(53)
        for ring in (RING_Z, RING_HALF):
            for n in range(1, 5):
                pres = _presentation(spec, ring, n)
                rows = [list(r) for r in pres.rows if any(r)]
                m = len(pres.cols)
                # Over Z[1/2], x is a relation iff 2**e * x is an integer
                # one, e the largest 2-adic valuation of sympy's factors.
                e = 0
                if ring == RING_HALF:
                    snf = sympy_snf(Matrix(rows))
                    diag = [abs(int(snf[i, i]))
                            for i in range(min(snf.rows, snf.cols))]
                    e = max(((d & -d).bit_length() - 1 for d in diag if d),
                            default=0)

                def oracle(x):
                    return lattice_contains(rows, [xi << e for xi in x])

                basis = pres.relation_basis()
                for row in rng.sample(basis, min(5, len(basis))):
                    assert oracle(row)
                for _ in range(10):
                    x = [rng.randint(-3, 3) for _ in range(m)]
                    assert pres.contains(x) == oracle(x)
                    c = [rng.randint(-3, 3) for _ in rows]
                    y = [sum(ci * r[j] for ci, r in zip(c, rows))
                         for j in range(m)]
                    if ring == RING_HALF and any(y):
                        g = math.gcd(*y)
                        y = [yj // (g & -g) for yj in y]
                    assert pres.contains(y) and oracle(y)
                    assert lattice_contains(basis, y)
                    y[rng.randrange(m)] += rng.choice((-1, 1))
                    assert pres.contains(y) == oracle(y)


class TestCoinvariantClass:
    def test_coboundaries_vanish(self):
        rng = random.Random(23)
        for spec in (TM, Periodic("112")):
            for ring, mode in ((RING_Z, SHIFT_PLAIN), (RING_HALF, SHIFT_DOUBLING)):
                grp, _ = coinvariants(spec, ring, 6)
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
            grp, _ = coinvariants(TM, ring, 6)
            for _ in range(25):
                f = random_function(rng, TM, ring, rng.randint(1, 4),
                                    start=rng.randint(-2, 2))
                assert (coinvariant_class(TM, f, grp)
                        == coinvariant_class(TM, apply_shift(f, mode), grp))

    def test_linearity(self):
        rng = random.Random(31)
        grp, _ = coinvariants(TM, RING_Z, 6)
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
        grp, _ = coinvariants(spec, RING_HALF)
        assert list(grp.torsion) == [3] and grp.rank == 0
        cls = coinvariant_class(spec, cylinder(RING_HALF, "1"), grp)
        (value,) = cls.values()
        assert math.gcd(int(value), 3) == 1

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_constant_one_maps_to_p_times_generator(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        grp, _ = coinvariants(spec, RING_Z)
        cls = coinvariant_class(spec, constant_one(spec, RING_Z), grp)
        (value,) = cls.values()
        assert abs(value) == p

    def test_window_too_long_rejected(self):
        grp, _ = coinvariants(Periodic("12"), RING_Z, 2)
        long_fn = cylinder(RING_Z, "121212")
        with pytest.raises(ValueError, match="refine N_max"):
            coinvariant_class(Periodic("12"), long_fn, grp)

    def test_ring_mismatch_rejected(self):
        grp, _ = coinvariants(TM, RING_Z, 4)
        with pytest.raises(ValueError):
            coinvariant_class(TM, cylinder(RING_HALF, "1"), grp)

    def test_invariants_group_has_no_presentation(self):
        g = invariants(TM, RING_Z)
        with pytest.raises(ValueError):
            coinvariant_class(TM, cylinder(RING_Z, "1"), g)


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

    def test_k0_generators_tagged(self):
        co_half, _ = k_groups(Periodic("12"), 6)["K0"]
        assert [n for n, _ in co_half.generators] == ["projection-class:t0"]

    def test_k1_consistent_with_coinvariants(self):
        kg = k_groups(TM, 6)
        direct, stab = coinvariants(TM, RING_Z, 6)
        assert kg["K1"].rank == direct.rank
        assert kg["K1"].torsion == direct.torsion
        assert kg["K1"].stabilized == stab

    def test_minimal_cech_h0(self):
        for spec in (TM, FIB, Periodic("1212")):
            assert cech_cohomology(spec, 6)["H0"].rank == 1

    def test_group_json_schema(self):
        g, _ = coinvariants(Periodic("12"), RING_HALF)
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


class TestGapLabels:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_periodic_every_truncation(self, p):
        spec = Periodic(PERIODIC_WORDS[p])
        gl = gap_labels(spec, 5)
        assert gl.kind == "rational"
        for entry in gl.chain:
            (g,) = entry["generators"]
            assert g.value == Fraction(1, p)
        assert gl.stabilized and gl.dyadic_base is None

    def test_repeated_letter_word(self):
        gl = gap_labels(Periodic("112"), 4)
        assert [v.value for v in gl.generators] == [Fraction(1, 3)]

    def test_thue_morse_chain_matches_gcd_oracle(self):
        gl = gap_labels(TM, 6)
        for entry in gl.chain:
            n = entry["n"]
            mu = measure_vector(TM, n)
            den = 1
            for v in mu.values():
                den = den * v.value.denominator // math.gcd(
                    den, v.value.denominator)
            num = 0
            for v in mu.values():
                num = math.gcd(num, int(v.value * den))
            (g,) = entry["generators"]
            assert g.value == Fraction(num, den)
        assert gl.chain[1]["generators"][0].value == Fraction(1, 6)

    def test_thue_morse_dyadic_pattern(self):
        gl = gap_labels(TM, 6)
        assert gl.dyadic_base == Fraction(1, 3)
        assert not gl.stabilized

    def test_fibonacci_algebraic_lattice(self):
        gl = gap_labels(FIB, 5)
        assert gl.kind == "algebraic"
        assert gl.minpoly is not None
        assert gl.stabilized
        mu1 = measure_vector(FIB, 1)
        gens = {float(v.value) for v in gl.chain[0]["generators"]}
        assert gens == {float(v.value) for v in mu1.values()}
        for entry in gl.chain[2:]:
            assert entry["agrees_with_previous"]

    def test_generators_in_unit_interval_and_reduced(self):
        from hyptile.ktheory import _frac_in_lattice, _value_row

        for spec in (TM, FIB, Periodic("112")):
            gl = gap_labels(spec, 4)
            degree = 1 if gl.minpoly is None else len(gl.minpoly) - 1
            rows = [_value_row(v.value, degree) for v in gl.generators]
            for i, v in enumerate(gl.generators):
                assert 0 < v.as_float() <= 1
                others = rows[:i] + rows[i + 1:]
                if others:
                    assert not _frac_in_lattice(others, rows[i])

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
                    assert measure_pairing(spec, chi) == mu[u].value

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
