import random

from hyptile.intmat import (hnf_row_lattice, identity, integer_kernel,
                            lattice_contains, matmul, mat_vec, rational_rank,
                            smith_diagonal, smith_normal_form, snf_rank,
                            solve_integer)


def det_bareiss(a) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
        assert snf_rank(s) == rational_rank(mat)


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
        assert solve_integer(mat, rhs) is not None
        assert solve_integer(mat, [1] + [0] * (size - 1)) is None


def test_solve_integer_random():
    rng = random.Random(31)
    for _ in range(40):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = [[rng.randrange(-5, 6) for _ in range(m)] for _ in range(n)]
        x = [rng.randrange(-4, 5) for _ in range(m)]
        rhs = mat_vec(mat, x)
        sol = solve_integer(mat, rhs)
        assert sol is not None
        assert mat_vec(mat, sol) == rhs


def test_integer_kernel_random():
    rng = random.Random(37)
    for _ in range(40):
        n, m = rng.randrange(1, 5), rng.randrange(1, 6)
        mat = [[rng.randrange(-5, 6) for _ in range(m)] for _ in range(n)]
        ker = integer_kernel(mat)
        for vec in ker:
            assert mat_vec(mat, vec) == [0] * n
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


def test_hnf_canonical_form_example():
    assert hnf_row_lattice([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]


def test_identity_and_matmul():
    assert matmul(identity(3), identity(3)) == identity(3)
