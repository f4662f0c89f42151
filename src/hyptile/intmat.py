"""Exact matrix routines: Smith form, kernels, lattice membership, and
row reduction over a field.

Integer matrices are lists of lists of Python ints, so nothing here
ever overflows or rounds.  An entry that is not a Python int (bool
included) raises ValueError.

The Smith form is the plain dense reduction (Cohen, GTM 138, 2.4.4).
It tracks the unimodular row transform U, the column transform V and
its inverse V^-1 (each column operation on V is the inverse row
operation on V^-1), and checks V*V^-1 == I and U*A*V == S exactly.  The
pivot is the first entry of least magnitude, in row-major order, of the
trailing block, and with the operation order it fixes the transforms.
The rule never reduces the entries off the pivot's row and column, so
on dense inputs the transforms' entries can grow to thousands of bits.
No group computation takes the Smith form (ktheory._presentation gives
printed generators); it and the kernel and membership tests built on it
stay because the benchmark's tracer names them.

The Hermite form, which ktheory does run, eliminates on sparse rows,
dicts from column to nonzero int, so an operation touches only
nonzeros; its answer is dense lists.

`row_reduce` is the one Gaussian elimination over a field: rank over Q
and the kernel vectors of measure equations both read its output.

`matmul`, `smith_normal_form`, `hnf_row_lattice`, `row_reduce` and
`lattice_contains` raise ValueError on ragged rows or on operands whose
shapes do not match.
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


def _dense(rows, width):
    """Sparse rows as lists of ints."""
    out = []
    for row in rows:
        d = [0] * width
        for k, x in row.items():
            d[k] = x
        out.append(d)
    return out


def smith_normal_form(mat):
    """Smith normal form with transforms: (U, S, V, V^-1), U*mat*V = S.

    U and V are unimodular; S is diagonal with nonnegative entries and
    each diagonal entry divides the next.  The rows of S*V^-1 span the
    row lattice of mat.  The factorization and the inverse are verified
    by exact re-multiplication before returning.
    """
    rows, m = _sparse_rows(mat, "matrix")
    a = _dense(rows, m)
    n = len(a)
    u, v, v_inv = identity(n), identity(m), identity(m)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def row_add(dst, src, c):
        # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, c):
        # column dst += c * column src
        for row in a + v:
            row[dst] += c * row[src]
        # V -> V*E with E = I + c*e_src*e_dst^T; E^-1 acts on rows of V^-1
        v_inv[src] = [x - c * y for x, y in zip(v_inv[src], v_inv[dst])]

    t = 0
    while t < min(n, m):
        # the first entry of least magnitude of the trailing block,
        # row-major
        best = pivot = None
        for i in range(t, n):
            for j in range(t, m):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        # clear column t, then row t, until both are clean; a floored
        # remainder lies in (0, pivot), so it is the next, positive pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
        # divisibility: a[t][t] must divide the rest of the block, else
        # the first offending row is added to row t and t starts over
        d = a[t][t]
        offender = next((i for i in range(t + 1, n)
                         if any(x % d for x in a[i][t + 1:])), None)
        if offender is None:
            t += 1
        else:
            row_add(t, offender, 1)

    assert matmul(v, v_inv) == identity(m), \
        "Smith reduction lost track of V^-1"
    assert matmul(matmul(u, mat), v) == a, \
        "Smith reduction lost track of its transforms"
    return u, a, v, v_inv


def smith_diagonal(mat) -> list[int]:
    _, s, _, _ = smith_normal_form(mat)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def integer_kernel(mat):
    """Basis (list of vectors) of the integer kernel of mat: the columns
    of V past the rank."""
    _, s, v, _ = smith_normal_form(mat)
    rank = sum(1 for i in range(min(len(s), len(v))) if s[i][i])
    return transpose(v)[rank:]


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
    return _dense(basis, m)


def lattice_contains(rows, vec) -> bool:
    """Is vec in the lattice spanned by the given row vectors?"""
    _sparse_rows([vec], "vector")
    if not rows:
        return all(x == 0 for x in vec)
    if _width(rows, "row set") != len(vec):
        raise ValueError(f"vector of length {len(vec)} against rows "
                         f"of length {len(rows[0])}")
    # U*rows = S*V^-1 and V is unimodular: vec is in the lattice iff
    # vec*V = y*S for an integer row y
    _, s, v, _ = smith_normal_form(rows)
    w = matmul([list(vec)], v)[0]
    return all(x % s[j][j] == 0 if j < len(s) and s[j][j] else x == 0
               for j, x in enumerate(w))

