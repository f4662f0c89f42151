import random
import re
from fractions import Fraction

import pytest
import sympy

from hyptile import ktheory
from hyptile.intmat import (hnf_row_lattice, identity, integer_kernel,
                            lattice_contains, matmul, rational_rank,
                            row_reduce, smith_diagonal, smith_normal_form,
                            transpose)
from hyptile.subshift import Periodic

from oracles import (FIB, PD, S4, TM, TRIB, bonding_matrix, dense_matmul,
                     det_bareiss, reference_hnf, reference_snf,
                     relation_rows)


def test_snf_frozen_example():
    # by hand: d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8
    u, s, v, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [s[0][0], s[1][1]] == [2, 4]
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1


def test_snf_transform_identity_on_random_matrices():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 6)
        mat = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        u, s, v, _ = smith_normal_form(mat)
        assert matmul(matmul(u, mat), v) == s
        assert abs(det_bareiss(u)) == 1
        assert abs(det_bareiss(v)) == 1
        diag = [s[i][i] for i in range(min(n, m))]
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0
                assert diag[i + 1] % diag[i] == 0
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert s[i][j] == 0
        assert sum(1 for d in diag if d) == rational_rank(mat)


def _random_shapes(rng):
    """Random matrices, some with zero rows or columns spliced in."""
    for _ in range(60):
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        mat = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.4:
            mat.insert(rng.randrange(n + 1), [0] * m)
        if rng.random() < 0.4:
            j = rng.randrange(m + 1)
            mat = [row[:j] + [0] + row[j:] for row in mat]
        yield mat
    for n, m in ((1, 1), (2, 3), (4, 2), (3, 3)):
        yield [[0] * m for _ in range(n)]


def test_snf_tracks_inverse_of_v():
    rng = random.Random(43)
    for mat in _random_shapes(rng):
        n, m = len(mat), len(mat[0])
        u, s, v, v_inv = smith_normal_form(mat)
        assert matmul(matmul(u, mat), v) == s
        assert matmul(v, v_inv) == identity(m)
        # U*mat = S*V^-1, so the rows d_i * V^-1[i] span the row lattice
        basis = [[s[i][i] * x for x in v_inv[i]]
                 for i in range(min(n, m)) if s[i][i]]
        assert hnf_row_lattice(basis) == hnf_row_lattice(mat)


def test_snf_invariant_under_unimodular_moves():
    rng = random.Random(29)
    for _ in range(20):
        n = 4
        mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        # random elementary row/col operations preserve the invariant factors
        twisted = [row[:] for row in mat]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(-3, 4)
            for k in range(n):
                twisted[i][k] += c * twisted[j][k]
        assert smith_diagonal(twisted) == smith_diagonal(mat)


def test_cyclic_difference_matrix_presents_zero_sum_lattice():
    # I - P for the cyclic shift: invariant factors all 1, rank 2**N - 1,
    # so the image is exactly the zero-sum sublattice.
    for npow in range(1, 6):
        size = 1 << npow
        mat = [[(1 if i == j else 0) - (1 if j == (i + 1) % size else 0)
                for j in range(size)] for i in range(size)]
        diag = smith_diagonal(mat)
        assert diag == [1] * (size - 1) + [0]
        rhs = [0] * size
        rhs[0], rhs[3 % size] = 1, -1
        # rhs = mat @ x has an integer solution x iff rhs lies in the
        # lattice the columns of mat span
        assert lattice_contains(transpose(mat), rhs)
        assert not lattice_contains(transpose(mat), [1] + [0] * (size - 1))


def test_integer_kernel_random():
    rng = random.Random(37)
    for _ in range(40):
        n, m = rng.randrange(1, 5), rng.randrange(1, 6)
        mat = [[rng.randrange(-5, 6) for _ in range(m)] for _ in range(n)]
        ker = integer_kernel(mat)
        for vec in ker:
            assert dense_matmul(mat, [[x] for x in vec]) == [[0]] * n
        assert len(ker) == m - rational_rank(mat)


def test_kernel_is_saturated():
    # kernel basis extends to a basis of Z^m: primitive vectors only
    mat = [[2, 4, 0], [0, 0, 3]]
    ker = integer_kernel(mat)
    assert len(ker) == 1
    v = ker[0]
    from math import gcd
    assert gcd(gcd(v[0], v[1]), v[2]) == 1


def test_hnf_lattice_identities():
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(m)]
                for _ in range(rng.randrange(1, 5))]
        # the lattice contains all its generators and their combinations
        coeffs = [rng.randrange(-2, 3) for _ in rows]
        comb = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(m)]
        assert lattice_contains(rows, comb)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert hnf_row_lattice(rows) == hnf_row_lattice(shuffled)
        doubled = [[2 * x for x in r] for r in rows]
        if any(any(r) for r in rows):
            assert hnf_row_lattice(rows) != hnf_row_lattice(doubled) or all(
                lattice_contains(doubled, r) for r in rows)


def test_lattice_contains_random():
    # adding v to the rows leaves their lattice alone iff v lies in it;
    # half of the vectors are integer combinations of the rows
    rng = random.Random(67)
    entries = [0, 0, 0, 1, -1, 2, -3, 4, 6]
    for _ in range(3000):
        m = rng.randrange(1, 5)
        rows = [[rng.choice(entries) for _ in range(m)]
                for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.5:
            coeffs = [rng.randrange(-3, 4) for _ in rows]
            v = [sum(c * r[j] for c, r in zip(coeffs, rows))
                 for j in range(m)]
        else:
            v = [rng.choice(entries) for _ in range(m)]
        assert lattice_contains(rows, v) == (
            reference_hnf(rows + [v]) == reference_hnf(rows)), (rows, v)


def test_hnf_canonical_form_example():
    assert hnf_row_lattice([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]


def test_identity_and_matmul():
    assert matmul(identity(3), identity(3)) == identity(3)
    assert identity(0) == []
    assert identity(2) == [[1, 0], [0, 1]]


def test_sparse_matmul_matches_dense_definition():
    rng = random.Random(47)
    entries = [0, 0, 0, 0, 1, -1, 2, -3, 7]
    for _ in range(300):
        n, k, m = (rng.randrange(0, 6) for _ in range(3))
        a = [[rng.choice(entries) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice(entries) for _ in range(m)] for _ in range(k)]
        if n and rng.random() < 0.3:
            a[rng.randrange(n)] = [0] * k
        if k and rng.random() < 0.3:
            b[rng.randrange(k)] = [0] * m
        if rng.random() < 0.1:
            a = [[0] * k for _ in range(n)]
        if rng.random() < 0.1:
            b = [[0] * m for _ in range(k)]
        assert matmul(a, b) == dense_matmul(a, b)
    # n x 0 times 0 x m: with no rows, b cannot say its width, so n x 0
    assert matmul([[], [], []], []) == [[], [], []]
    # 0 x k times k x m is 0 x m, that is no rows
    assert matmul([], [[1, 2], [3, 4]]) == []
    assert matmul([[0, 0]], [[0, 0, 0], [0, 0, 0]]) == [[0, 0, 0]]


def test_matmul_refuses_mismatched_shapes():
    with pytest.raises(ValueError):
        matmul([[1, 2]], [[1, 0]])
    with pytest.raises(ValueError):
        matmul([[1, 2], [3]], [[1], [0]])
    with pytest.raises(ValueError):
        matmul([[1]], [[1, 0], [2]])


def test_lattice_contains_refuses_mismatched_shapes():
    assert lattice_contains([[1, 0]], [3, 0])
    with pytest.raises(ValueError):
        lattice_contains([[1, 0]], [1, 0, 7])
    with pytest.raises(ValueError):
        lattice_contains([[1, 0, 0]], [1, 0])
    with pytest.raises(ValueError):
        lattice_contains([[1, 0], [0, 1, 0]], [1, 0])


def test_smith_normal_form_refuses_ragged_rows():
    with pytest.raises(ValueError, match="rows of lengths"):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValueError, match="rows of lengths"):
        smith_normal_form([[1], [3, 4]])


def test_hnf_row_lattice_refuses_ragged_rows():
    with pytest.raises(ValueError, match="rows of lengths"):
        hnf_row_lattice([[0, 2], [3, 0, 5]])
    with pytest.raises(ValueError, match="rows of lengths"):
        hnf_row_lattice([[0, 0], [1]])


def _random_rationals(rng, n, m, rank=None):
    """n x m Fraction matrix; of rank at most `rank` when it is given."""
    def rand(a, b):
        return [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                 for _ in range(b)] for _ in range(a)]
    if rank is None:
        return rand(n, m)
    left, right = rand(n, rank), rand(rank, m)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*right)] for row in left]


def test_row_reduce_matches_sympy_rref():
    rng = random.Random(53)
    cases = [[], [[], [], []], [[0] * 4 for _ in range(3)],
             [[Fraction(0)] * 2 for _ in range(5)],
             [[2, 4], [3, 1]], [[3, 1], [6, 2]]]  # ints come back exact
    for _ in range(12):
        cases.append(_random_rationals(rng, 2, rng.randrange(4, 7)))  # wide
        cases.append(_random_rationals(rng, rng.randrange(4, 7), 2))  # tall
        n, m = rng.randrange(1, 6), rng.randrange(1, 6)
        cases.append(_random_rationals(rng, n, m))
        cases.append(_random_rationals(rng, n, m, rng.randrange(0, min(n, m))))
    for rows in cases:
        n, m = len(rows), len(rows[0]) if rows else 0
        ref, ref_pivots = sympy.Matrix(n, m, [x for r in rows for x in r]).rref()
        form, pivots = row_reduce(rows)
        assert form == [[Fraction(int(x.p), int(x.q)) for x in row]
                        for row in ref.tolist()], rows
        assert pivots == list(ref_pivots), rows
        assert rational_rank(rows) == len(ref_pivots)


def test_row_reduce_refuses_ragged_rows():
    with pytest.raises(ValueError):
        row_reduce([[1, 2], [3]])
    with pytest.raises(ValueError):
        rational_rank([[1], [2, 3], [4]])


_PINNED_SPECS = {"tm": TM, "pd": PD, "fib": FIB, "trib": TRIB,
                 "11212": Periodic("11212"), "s4": S4}


@pytest.mark.parametrize("name", sorted(_PINNED_SPECS))
def test_snf_transforms_pinned_on_group_matrices(name):
    # the relation matrices of levels 1..6 over Z and Z[1/2], which the
    # groups took Smith forms of before the spanning forest replaced them
    spec = _PINNED_SPECS[name]
    for psi in (1, 2):
        for n in range(1, 7):
            mat = relation_rows(spec, n, psi)[0]
            assert smith_normal_form(mat) == reference_snf(mat)


def test_snf_transforms_pinned_on_unit_ties():
    # mostly zeros and units: many pivot ties, zero rows and columns
    rng = random.Random(53)
    entries = [0, 0, 0, 1, -1, 2, -2]
    for _ in range(200):
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        mat = [[rng.choice(entries) for _ in range(m)] for _ in range(n)]
        assert smith_normal_form(mat) == reference_snf(mat)


def test_snf_transforms_pinned_on_wide_entries():
    # entries in -9..9: non-unit pivots, remainder swaps and the
    # divisibility step (this set takes the first two a few hundred
    # times, the last 75 times in 55 matrices).  Four entries in five
    # are zero: on denser matrices of these shapes the transforms'
    # entries can grow to thousands of bits under this pivot rule, for
    # minutes.
    rng = random.Random(59)
    for _ in range(200):
        n, m = rng.randrange(1, 9), rng.randrange(1, 10)
        mat = [[rng.randrange(-9, 10) if rng.random() < 0.2 else 0
                for _ in range(m)] for _ in range(n)]
        assert smith_normal_form(mat) == reference_snf(mat)


@pytest.mark.parametrize("name", sorted(_PINNED_SPECS))
def test_hnf_matches_reference_on_group_rows(monkeypatch, name):
    # the rows _bonding_is_iso reduces in tree coordinates, the
    # full-width bonding stacks on the relation rows and the kernel rows
    # invariants reduces, levels 1..6, over Z and Z[1/2]
    spec = _PINNED_SPECS[name]
    seen = []

    def recording(rows):
        seen.append([list(row) for row in rows])
        return hnf_row_lattice(rows)

    monkeypatch.setattr(ktheory, "hnf_row_lattice", recording)
    ktheory._presentation.cache_clear()
    for ring in (ktheory.RING_Z, ktheory.RING_HALF):
        psi = 2 if ring == ktheory.RING_HALF else 1
        levels = [ktheory._presentation(spec, ring, n) for n in range(1, 7)]
        for p1, p2 in zip(levels, levels[1:]):
            stack = (bonding_matrix(p1.cols, p2.cols)
                     + relation_rows(spec, p2.level, psi)[0])
            assert hnf_row_lattice(stack) == reference_hnf(stack)
            ktheory._bonding_is_iso(p1, p2, ring)
        for pres in levels:
            assert (hnf_row_lattice(pres.kernel)
                    == reference_hnf(pres.kernel))
    ktheory._presentation.cache_clear()
    assert seen
    for rows in seen:
        assert hnf_row_lattice(rows) == reference_hnf(rows)


def test_hnf_matches_reference_on_random_rows():
    rng = random.Random(61)
    entries = [0] * 6 + list(range(-9, 10))
    for _ in range(200):
        m = rng.randrange(1, 9)
        rows = [[rng.choice(entries) for _ in range(m)]
                for _ in range(rng.randrange(0, 9))]
        if rows:
            rows.insert(rng.randrange(len(rows) + 1), [0] * m)
            rows.append(list(rng.choice(rows)))
            rows.append([-x for x in rng.choice(rows)])  # negative pivot
        rng.shuffle(rows)
        assert hnf_row_lattice(rows) == reference_hnf(rows)


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), True, "1", 0.0, False])
def test_non_int_entries_refused(bad):
    with pytest.raises(ValueError, match=f"entry {re.escape(repr(bad))} "
                                         f"at row 1, column 0 is not an int"):
        smith_normal_form([[3, 2], [bad, 2]])
    with pytest.raises(ValueError, match=f"entry {re.escape(repr(bad))} "
                                         f"at row 1, column 1 is not an int"):
        hnf_row_lattice([[2, 1], [3, bad]])


@pytest.mark.parametrize("mat, snf, hnf", [
    ([], ([], [], [], []), []),
    ([[]], ([[1]], [[]], [], []), []),
    ([[], []], ([[1, 0], [0, 1]], [[], []], [], []), []),
    ([[0, 0]], ([[1]], [[0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]), []),
    ([[4, 6, 10]],
     ([[1]], [[2, 0, 0]], [[-1, 3, 5], [1, -2, -5], [0, 0, 1]],
      [[2, 3, 5], [1, 1, 0], [0, 0, 1]]),
     [[4, 6, 10]]),
    ([[4], [6], [10]],
     ([[-1, 1, 0], [3, -2, 0], [5, -5, 1]], [[2], [0], [0]], [[1]], [[1]]),
     [[2]]),
    ([[0, -3, 0]],
     ([[-1]], [[3, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
      [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
     [[0, 3, 0]]),
])
def test_edge_shapes_and_return_types(mat, snf, hnf):
    # answers recorded from the dense routines; tuple rows give the same
    for rows in (mat, [tuple(r) for r in mat]):
        got_snf = smith_normal_form(rows)
        got_hnf = hnf_row_lattice(rows)
        assert type(got_snf) is tuple and list(got_snf) == list(snf)
        assert got_hnf == hnf
        for out in (*got_snf, got_hnf):
            assert type(out) is list
            for row in out:
                # fresh lists of ints, never an input row
                assert type(row) is list
                assert all(row is not r for r in rows)
                assert all(type(x) is int for x in row)
