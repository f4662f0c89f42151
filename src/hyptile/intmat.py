"""Exact matrix routines: Smith form, integer solves, kernels, and row
reduction over a field.

Integer matrices are lists of lists of Python ints, so nothing here
ever overflows or rounds.  The Smith reduction tracks the unimodular row
transform U, the column transform V and its inverse V^-1 (each column
operation on V is the inverse row operation on V^-1), so one
factorization answers solves, kernels and lattice membership.

The pivot is always the first entry of least magnitude, in row-major
order, of the trailing block; printed generators are rows of V^-1, so
this rule fixes them.  The scan stops at the first unit, which no entry
can beat.  Every factorization is checked exactly before it is
returned, by V*V^-1 == I and U*A == S*V^-1 (equivalent to U*A*V == S
given the first, and S*V^-1 is a row scaling); these matrices are
mostly zeros, so `matmul` skips the zero entries of both operands.

`row_reduce` is the one Gaussian elimination over a field: rank over Q
and the kernel vectors of measure equations both read its output.

`matmul`, `mat_vec`, `smith_normal_form`, `hnf_row_lattice`,
`row_reduce`, `solve_integer` and `lattice_contains` raise ValueError on
ragged rows or on operands whose shapes do not match.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(out):
        row[i] = 1
    return out


def _width(rows, what: str) -> int:
    """Common length of the rows; ValueError if they differ."""
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ValueError(f"{what} has rows of lengths {sorted(widths)}")
    return widths.pop() if widths else 0


def matmul(a, b):
    k = len(b)
    m = _width(b, "right operand")
    if a and _width(a, "left operand") != k:
        raise ValueError(f"cannot multiply {len(a)}x{len(a[0])} "
                         f"by {k}x{m}")
    # the nonzeros of each row of b, listed once
    nz = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for ai in a:
        oi = [0] * m
        for x, bt in zip(ai, nz):
            if x:
                for j, y in bt:
                    oi[j] += x * y
        out.append(oi)
    return out


def mat_vec(a, v):
    if a and _width(a, "matrix") != len(v):
        raise ValueError(f"cannot multiply {len(a)}x{len(a[0])} "
                         f"by a vector of length {len(v)}")
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
    by exact re-multiplication before returning.
    """
    a = [row[:] for row in mat]
    n = len(a)
    m = _width(a, "matrix")
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
            if row[src]:
                row[dst] += c * row[src]
        for row in v:
            if row[src]:
                row[dst] += c * row[src]
        # V -> V*E with E = I + c*e_src*e_dst^T; E^-1 acts on rows of V^-1
        v_inv[src] = [x - c * y for x, y in zip(v_inv[src], v_inv[dst])]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
        # the first minimal-magnitude nonzero entry of the trailing
        # block, row-major; nothing beats a unit, so stop at the first
        pivot = None
        best = None
        for i in range(t, n):
            row = a[i]
            for j in range(t, m):
                x = row[j]
                if x:
                    x = abs(x)
                    if best is None or x < best:
                        best, pivot = x, (i, j)
                        if x == 1:
                            break
            if best == 1:
                break
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
        # divisibility: a[t][t] must divide the rest of the block; a
        # unit always does
        offender = None
        d = a[t][t]
        if d not in (1, -1):
            for i in range(t + 1, n):
                if any(x % d for x in a[i][t + 1:]):
                    offender = i
                    break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    assert matmul(v, v_inv) == identity(m), "Smith reduction lost track of V^-1"
    # given V*V^-1 == I, U*mat*V == S iff U*mat == S*V^-1, a row scaling
    sv = [[a[i][i] * x for x in v_inv[i]] if i < m else [0] * m
          for i in range(n)]
    assert matmul(u, mat) == sv, \
        "Smith reduction lost track of its transforms"
    return u, a, v, v_inv


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
    if len(rhs) != n:
        raise ValueError(f"right-hand side of length {len(rhs)} "
                         f"for a matrix of {n} rows")
    m = _width(mat, "matrix")
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


def row_reduce(rows):
    """(reduced row echelon form, pivot columns) over an exact field.

    Entries may be ints, Fractions or AlgebraicNumbers of one field; the
    form keeps one row per input row, its zero rows last.  Being
    canonical, it answers rank and kernel questions alike.
    """
    a = [list(r) for r in rows]
    n, m = len(a), _width(a, "matrix")
    pivots = []
    for col in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        if r + 1 == n:
            break
    return a, pivots


def rational_rank(mat) -> int:
    """Rank over Q."""
    return len(row_reduce(mat)[1])


def hnf_row_lattice(rows):
    """Hermite normal form basis of the lattice spanned by integer rows.

    Canonical: positive pivots, entries above a pivot reduced into
    [0, pivot).  Two row sets span the same lattice iff their forms are
    equal.  Zero rows are dropped.
    """
    m = _width(rows, "row set")
    work = [list(r) for r in rows if any(r)]
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
    if not rows:
        return all(x == 0 for x in vec)
    if _width(rows, "row set") != len(vec):
        raise ValueError(f"vector of length {len(vec)} against rows "
                         f"of length {len(rows[0])}")
    return solve_integer(transpose(rows), list(vec)) is not None

