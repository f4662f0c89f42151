"""Exact integer matrix routines: Smith form, integer solves, kernels.

Matrices are lists of lists of Python ints, so nothing here ever
overflows or rounds.  The Smith reduction tracks the unimodular row
transform U, the column transform V and its inverse V^-1 (each column
operation on V is the inverse row operation on V^-1), so one
factorization answers solves, kernels and lattice membership, and every
factorization is re-multiplied and checked.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def smith_normal_form(mat):
    """Smith normal form with transforms: (U, S, V, V^-1), U*mat*V = S.

    U and V are unimodular; S is diagonal with nonnegative entries and
    each diagonal entry divides the next.  The rows of S*V^-1 span the
    row lattice of mat.  The factorization and the inverse are verified
    by re-multiplication before returning.
    """
    a = [row[:] for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    u = identity(n)
    v = identity(m)
    v_inv = identity(m)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def row_add(dst, src, c):
        # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]
        # V -> V*E with E = I + c*e_src*e_dst^T; E^-1 acts on rows of V^-1
        v_inv[src] = [x - c * y for x, y in zip(v_inv[src], v_inv[dst])]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
        # pick the minimal-magnitude nonzero pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)
        if a[t][t] < 0:
            row_neg(t)
        # clear row and column t; restart if a remainder revives an entry
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)
                        if a[t][t] < 0:
                            row_neg(t)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
        # divisibility: a[t][t] must divide the rest of the block
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    s = a
    check = matmul(matmul(u, [row[:] for row in mat]), v)
    assert check == s, "Smith reduction lost track of its transforms"
    assert matmul(v, v_inv) == identity(m), "Smith reduction lost track of V^-1"
    return u, s, v, v_inv


def smith_diagonal(mat) -> list[int]:
    _, s, _, _ = smith_normal_form(mat)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def snf_rank(s) -> int:
    r = 0
    for i in range(min(len(s), len(s[0]) if s else 0)):
        if s[i][i]:
            r += 1
    return r


def solve_integer(mat, rhs):
    """One integer solution x of mat @ x = rhs, or None if none exists."""
    n = len(mat)
    m = len(mat[0]) if n else 0
    u, s, v, _ = smith_normal_form(mat)
    y = mat_vec(u, rhs)
    r = snf_rank(s)
    z = [0] * m
    for i in range(n):
        if i < r:
            d = s[i][i]
            if y[i] % d:
                return None
            if i < m:
                z[i] = y[i] // d
        elif y[i] != 0:
            return None
    return mat_vec(v, z)


def integer_kernel(mat):
    """Basis (list of vectors) of the integer kernel of mat."""
    n = len(mat)
    m = len(mat[0]) if n else 0
    if m == 0:
        return []
    if n == 0:
        return identity(m)
    u, s, v, _ = smith_normal_form(mat)
    r = snf_rank(s)
    return [[v[i][j] for i in range(m)] for j in range(r, m)]


def rational_rank(mat) -> int:
    """Rank over Q by fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    rank = 0
    row = 0
    for col in range(m):
        piv = None
        for i in range(row, n):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(n):
            if i != row and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[row])]
        rank += 1
        row += 1
        if row == n:
            break
    return rank


def hnf_row_lattice(rows):
    """Hermite normal form basis of the lattice spanned by integer rows.

    Canonical: positive pivots, entries above a pivot reduced into
    [0, pivot).  Two row sets span the same lattice iff their forms are
    equal.  Zero rows are dropped.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    m = len(work[0])
    r = 0
    for col in range(m):
        # gcd-eliminate column col among rows r..
        while True:
            live = [i for i in range(r, len(work)) if work[i][col]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(work[i][col]))
            work[r], work[piv] = work[piv], work[r]
            if work[r][col] < 0:
                work[r] = [-x for x in work[r]]
            done = True
            for i in range(r + 1, len(work)):
                if work[i][col]:
                    q = work[i][col] // work[r][col]
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    if work[i][col]:
                        done = False
            if done:
                break
        if r < len(work) and work[r][col]:
            for k in range(r):
                q = work[k][col] // work[r][col]
                if q:
                    work[k] = [x - q * y for x, y in zip(work[k], work[r])]
            r += 1
        if r == len(work):
            break
    return [row for row in work[:r]]


def lattice_contains(rows, vec) -> bool:
    """Is vec in the lattice spanned by the given row vectors?"""
    cols = transpose(rows) if rows else [[] for _ in vec]
    if not rows:
        return all(x == 0 for x in vec)
    return solve_integer(cols, list(vec)) is not None

