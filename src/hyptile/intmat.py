"""Exact matrix routines: Smith form, integer solves, kernels, and row
reduction over a field.

Integer matrices are lists of lists of Python ints, so nothing here
ever overflows or rounds.  The Smith reduction tracks the unimodular row
transform U, the column transform V and its inverse V^-1 (each column
operation on V is the inverse row operation on V^-1), so one
factorization answers solves, kernels and lattice membership.

The Smith and Hermite reductions work on sparse rows, dicts from
column to nonzero int, built once from the input; an entry that is not
a Python int (bool included) raises ValueError.  The Smith reduction
keeps U and A by rows and V by columns, and swaps columns by relabelling:
columns of A and V and rows of V^-1 keep an id, ordered by a position
table.  So an operation touches only nonzeros (the relation matrices
have at most two per column); answers are dense lists.

The pivot is the first entry of least magnitude, in row-major order,
of the trailing block (the scan stops after a row holding a unit), and
with the operation order it fixes the transforms.  No group computation
takes the Smith form (ktheory._presentation gives printed generators);
it stays because the benchmark's tracer names it.  Every factorization is
checked exactly, by V^-1*V == I (for square matrices the same as
V*V^-1 == I) and U*A == S*V^-1 (equivalent to U*A*V == S given the
first, and S*V^-1 is a row scaling), both as products of sparse rows.

`row_reduce` is the one Gaussian elimination over a field: rank over Q
and the kernel vectors of measure equations both read its output.

`matmul`, `mat_vec`, `smith_normal_form`, `hnf_row_lattice`,
`row_reduce`, `solve_integer` and `lattice_contains` raise ValueError on
ragged rows or on operands whose shapes do not match.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress


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


def _sparse_rows(rows, what: str):
    """(rows as dicts {column: nonzero entry}, common width).

    ValueError on ragged rows or on an entry that is not an int; bool is
    refused too.
    """
    m = _width(rows, what)
    if not {type(x) for row in rows for x in row} <= {int}:
        i, j, x = next((i, j, x) for i, row in enumerate(rows)
                       for j, x in enumerate(row) if type(x) is not int)
        raise ValueError(f"{what} entry {x!r} at row {i}, column {j} "
                         f"is not an int")
    return [dict(compress(enumerate(row), row)) for row in rows], m


def _add(dst, src, c):
    """dst += c * src on sparse rows, in place, dropping new zeros."""
    if c:
        for k, y in src.items():
            x = dst.get(k, 0) + c * y
            if x:
                dst[k] = x
            else:
                del dst[k]


def _spmul(a, b, width):
    """The product of sparse rows a and b, as lists: row i of the
    product is the sum of x * b[k] over the entries k: x of a[i]."""
    out = []
    for row in a:
        acc = [0] * width
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] += x * y
        out.append(acc)
    return out


def _dense(rows, width, at):
    """Sparse rows as lists of ints; entry k goes to column at[k]."""
    out = []
    for row in rows:
        d = [0] * width
        for k, x in row.items():
            d[at[k]] = x
        out.append(d)
    return out


def smith_normal_form(mat):
    """Smith normal form with transforms: (U, S, V, V^-1), U*mat*V = S.

    U and V are unimodular; S is diagonal with nonnegative entries and
    each diagonal entry divides the next.  The rows of S*V^-1 span the
    row lattice of mat.  The factorization and the inverse are verified
    by exact re-multiplication before returning.
    """
    orig, m = _sparse_rows(mat, "matrix")
    n = len(orig)
    a = [dict(row) for row in orig]  # rows of A, keyed by column id
    u = [{i: 1} for i in range(n)]  # rows of U
    v = [{j: 1} for j in range(m)]  # columns of V, by column id
    v_inv = [{j: 1} for j in range(m)]  # rows of V^-1, by column id
    col = list(range(m))  # position -> column id
    pos = list(range(m))  # column id -> position

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        # columns of A and V and rows of V^-1 move with their ids
        col[i], col[j] = col[j], col[i]
        pos[col[i]], pos[col[j]] = i, j

    def row_add(dst, src, c):
        # row dst += c * row src
        _add(a[dst], a[src], c)
        _add(u[dst], u[src], c)

    def col_add(dst, src, c, rows):
        # column id dst += c * column id src; rows: A's rows meeting src
        if not c:
            return
        for i in rows:  # one entry each: cheaper here than _add
            row = a[i]
            x = row.get(dst, 0) + c * row[src]
            if x:
                row[dst] = x
            else:
                del row[dst]
        _add(v[dst], v[src], c)
        # V -> V*E with E = I + c*e_src*e_dst^T; E^-1 acts on rows of V^-1
        _add(v_inv[src], v_inv[dst], -c)

    def row_neg(i):
        a[i] = {k: -x for k, x in a[i].items()}
        u[i] = {k: -x for k, x in u[i].items()}

    t = 0
    while t < min(n, m):
        # the first minimal-magnitude nonzero entry of the trailing
        # block, row-major (rows t.. hold no entry left of column t);
        # nothing beats a unit, so stop after the first row with one
        best = pi = pj = None
        for i in range(t, n):
            for k, x in a[i].items():
                x = abs(x)
                if (best is None or x < best
                        or (x == best and i == pi and pos[k] < pj)):
                    best, pi, pj = x, i, pos[k]
            if best == 1:
                break
        if best is None:
            break
        row_swap(t, pi)
        col_swap(t, pj)
        if a[t][col[t]] < 0:
            row_neg(t)
        # clear row and column t; restart if a remainder revives an entry
        dirty = True
        while dirty:
            dirty = False
            p = col[t]
            rows = [t]  # A's rows meeting column p: t, then each swapped i
            for i in range(t + 1, n):
                if p in a[i]:
                    q = a[i][p] // a[t][p]
                    row_add(i, t, -q)
                    if p in a[i]:
                        row_swap(t, i)
                        if a[t][p] < 0:
                            row_neg(t)
                        rows.append(i)
                        dirty = True
            # an operation at column j leaves row t's entries past j alone
            for j in sorted(pos[k] for k in a[t] if k != p):
                k = col[j]
                q = a[t][k] // a[t][p]
                col_add(k, p, -q, rows)
                if k in a[t]:
                    col_swap(t, j)
                    p = k
                    rows = [i for i in range(t, n) if p in a[i]]
                    dirty = True
        # divisibility: a[t][t] must divide the rest of the block; a
        # unit always does
        offender = None
        d = a[t][col[t]]
        if d not in (1, -1):
            for i in range(t + 1, n):
                if any(x % d for x in a[i].values()):
                    offender = i
                    break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    v_rows = [{} for _ in range(m)]  # rows of V, keyed by column id
    for k, c in enumerate(v):
        for r, x in c.items():
            v_rows[r][k] = x
    # V^-1*V == I, the same as V*V^-1 == I for square matrices
    assert _spmul(v_inv, v_rows, m) == identity(m), \
        "Smith reduction lost track of V^-1"
    # S: the diagonal of A, keyed by column id as the rows of V^-1 are;
    # given V*V^-1 == I, U*mat*V == S iff U*mat == S*V^-1, a row scaling
    s = [{k: x for k, x in row.items() if pos[k] == i}
         for i, row in enumerate(a)]
    assert _spmul(u, orig, m) == _spmul(s, v_inv, m), \
        "Smith reduction lost track of its transforms"
    return (_dense(u, n, range(n)), _dense(s, m, pos), _dense(v_rows, m, pos),
            _dense([v_inv[k] for k in col], m, range(m)))


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
    work, m = _sparse_rows(rows, "row set")
    # the rows not yet pivots, by first column, zero rows dropped: the
    # columns before col are cleared from them, so the rows holding col
    # are the ones that start there
    waiting = {}
    for row in filter(None, work):
        waiting.setdefault(min(row), []).append(row)
    basis = []
    for col in range(m):
        if not waiting:
            break
        # gcd-eliminate column col among the rows that start there
        live, piv = waiting.pop(col, []), None
        while live:
            piv = live.pop(min(range(len(live)),
                               key=lambda j: abs(live[j][col])))
            if piv[col] < 0:
                piv = {k: -x for k, x in piv.items()}
            for row in live:
                _add(row, piv, -(row[col] // piv[col]))
                if row and col not in row:
                    waiting.setdefault(min(row), []).append(row)
            live = [row for row in live if col in row]
            if live:
                live.append(piv)
        if piv is not None:
            for row in basis:
                if col in row:
                    _add(row, piv, -(row[col] // piv[col]))
            basis.append(piv)
    return _dense(basis, m, range(m))


def lattice_contains(rows, vec) -> bool:
    """Is vec in the lattice spanned by the given row vectors?"""
    if not rows:
        return all(x == 0 for x in vec)
    if _width(rows, "row set") != len(vec):
        raise ValueError(f"vector of length {len(vec)} against rows "
                         f"of length {len(rows[0])}")
    return solve_integer(transpose(rows), list(vec)) is not None

