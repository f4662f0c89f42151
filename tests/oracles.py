"""The independent oracles, named specs and seeded corpus the tests share.

Each oracle is defined here once.  Its docstring says what it reads of
the package; most read nothing but a spec's rules, so a fault in the
package cannot make an oracle agree with it.  A test module imports
from here and defines none of these names itself (test_names.py checks
both directions).
"""

import collections
import functools
import math
import operator
import random
from fractions import Fraction

from sympy import Matrix, factorint
from sympy.matrices.normalforms import smith_normal_decomp
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from hyptile.dyadic import LocallyConstFn
from hyptile.geometry import (EDGE_LABELS, NEGATIVE_EDGES, POSITIVE_EDGE,
                              ColourWindow, tile_vertices)
from hyptile.subshift import (Periodic, Substitution, _spec_perron, alphabet,
                              block_substitution, language)

TM = Substitution.of({"1": "12", "2": "21"})
PD = Substitution.of({"1": "12", "2": "11"})
FIB = Substitution.of({"1": "12", "2": "1"})
TRIB = Substitution.of({"1": "12", "2": "13", "3": "1"})
S4 = Substitution.of({"1": "1234", "2": "2143", "3": "3412", "4": "4321"})


# -- integers and lattices --------------------------------------------------

def split_twos(n: int) -> tuple:
    """(v, m) with |n| = 2**v * m and m odd, by repeated halving; (0, 0)
    for n = 0.  Shares nothing with the package."""
    n, v = abs(n), 0
    while n and n % 2 == 0:
        n //= 2
        v += 1
    return v, n


def gcd_lattice(values) -> Fraction:
    """The generator of the subgroup of Q spanned by the Fractions
    values: the gcd of their numerators over a common denominator.
    Shares nothing with the package."""
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(math.gcd(*(int(v * den) for v in values)), den)


def det_bareiss(a) -> int:
    """Exact determinant by fraction-free Gaussian elimination.  Shares
    nothing with the package."""
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


def dense_matmul(a, b):
    """The triple-loop definition of the matrix product.  Shares nothing
    with the package."""
    k = len(b)
    m = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(len(a))]


def sympy_smith_diagonal(rows) -> list:
    """|S[i][i]| for i < min(shape), from sympy's Smith normal form.
    Shares nothing with the package."""
    s = sympy_snf(Matrix(rows))
    return [abs(int(s[i, i])) for i in range(min(s.rows, s.cols))]


def snf_group(rows, invert_two=False) -> tuple:
    """(rank, sorted nontrivial invariant factors) of Z^cols / (row
    lattice), read off sympy's Smith form; with invert_two, of the same
    quotient over Z[1/2], where each factor keeps its odd part.  Shares
    nothing with the package."""
    diag = sympy_smith_diagonal(rows)
    if invert_two:
        diag = [split_twos(d)[1] for d in diag]
    rank = len(rows[0]) - sum(1 for d in diag if d)
    return rank, tuple(sorted(d for d in diag if d > 1))


def oracle_language(spec, n: int) -> list:
    """The sorted words of length n: the blocks of the 4096-letter
    iterate prefixes of a substitution from each letter (one holds every
    word of a primitive rule; a rule that is not primitive gets the
    union of its letters' orbits), of the periodic word's cyclic
    windows, or of an explicit window's letters.  Reads the spec's
    fields only."""
    if isinstance(spec, Substitution):
        return sorted(set().union(*(
            prefix_blocks(iterate_prefix(spec, 4096, a), n)
            for a in spec.mapping())))
    if isinstance(spec, Periodic):
        word = spec.word * (n // len(spec.word) + 2)
        return sorted({word[i:i + n] for i in range(len(spec.word))})
    return sorted(prefix_blocks(spec.left + spec.right, n))


def check_group_json(spec, js, invariant=False):
    """Assert that a printed group is the level-N_used group it claims.

    The relations are rebuilt from oracle_language: for u of length N,
    the sum of e_v over the words v of length N + 1 that start with u,
    minus psi times those that end with u (psi = 2 over Z[1/2]).  A
    coinvariant group (the default) is their cokernel; with invariant,
    the group is the fixed functions, the left kernel.  Generators are
    read as vectors on the words of length N + 1 (N for invariants) from
    window 0; any other window is refused.  Over Z[1/2] each is scaled
    to integers by a power of 2, a unit.

    A coinvariant group must have the rank and torsion of sympy's Smith
    form of the relations; its generators and the relations must span
    the lattice (over Z[1/2] up to a power of 2); each torsion
    generator's order is its invariant factor (d times it is a
    relation, d / p times it is not, for each prime p | d); and the free
    generators stay independent modulo the relations and the torsion.
    Fixed functions must each be fixed and together span the kernel's
    lattice, saturated.  Reads nothing of the package but the spec's
    fields."""
    half = js["ring"] == "Z[1/2]"
    psi = 2 if half else 1
    unit = (lambda d: split_twos(d)[1]) if half else abs

    def rank_q(rows):
        return DomainMatrix.from_list(rows, QQ).rank()

    def index(rows, diag=None):
        # rank and |product of the nonzero invariant factors|, or its odd
        # part over Z[1/2]: two lattices of one rank, one inside the
        # other, are equal over the ring when these agree
        diag = [d for d in diag or sympy_smith_diagonal(rows) if d]
        return len(diag), unit(math.prod(diag))

    n = js["N_used"]
    lo, hi = oracle_language(spec, n), oracle_language(spec, n + 1)
    rows = [[(v[:-1] == u) - psi * (v[1:] == u) for v in hi] for u in lo]
    words = lo if invariant else hi
    gens = []
    for gen in js["generators"]:
        assert gen["window"] == [0, len(words[0])], gen
        assert set(gen["coefficients"]) <= set(words), gen
        vec = [Fraction(gen["coefficients"].get(w, 0)) for w in words]
        den = math.lcm(*(x.denominator for x in vec))
        assert den == 1 or (half and unit(den) == 1), gen
        gens.append([int(x * den) for x in vec])
    assert len(gens) == js["rank"] + len(js["torsion"]), js
    if invariant:
        assert js["torsion"] == [], js
        cols = [list(c) for c in zip(*rows)]
        for g in gens:
            assert all(sum(x * y for x, y in zip(g, col)) == 0
                       for col in cols), g
        kernel = len(lo) - rank_q(rows)
        assert len(gens) == kernel, js
        assert not gens or index(gens) == (kernel, 1), js
        return
    diag = sympy_smith_diagonal(rows)
    base = index(rows, diag)
    torsion = sorted(unit(d) for d in diag if unit(d) > 1)
    assert (js["rank"], js["torsion"]) == (len(hi) - base[0], torsion), js
    assert index(gens + rows) == (len(hi), 1), js

    def is_relation(vec):
        return index(rows + [vec]) == base

    for g, d in zip(gens, js["torsion"]):
        assert is_relation([d * x for x in g]), (g, d)
        for p in factorint(d):
            assert not is_relation([d // p * x for x in g]), (g, d, p)
    free = gens[len(js["torsion"]):]
    tors = gens[:len(js["torsion"])]
    assert rank_q(rows + tors + free) == rank_q(rows + tors) + len(free), js


def check_report_json(spec, doc):
    """check_group_json on every group of a kgroups or cech document:
    K0's summands (the doubling coinvariants, then the plain invariants)
    and K1, or H0 (the invariants), H1 and H2.  Reads the document's
    keys."""
    if "K1" in doc:
        co_half, inv_z = doc["K0"]["summands"]
        groups = [(co_half, False), (inv_z, True), (doc["K1"], False)]
    else:
        groups = [(doc["H0"], True), (doc["H1"], False), (doc["H2"], False)]
    for js, invariant in groups:
        check_group_json(spec, js, invariant)


def circulant_rows(p, psi):
    """Hand-built relation rows e_i - psi e_(i-1) of a periodic word of p
    distinct letters: its coinvariants over Z (psi = 1) or, with the
    doubling shift, over Z[1/2] (psi = 2).  Shares nothing with the
    package."""
    rows = []
    for i in range(p):
        row = [0] * p
        row[i] += 1
        row[(i - 1) % p] -= psi
        rows.append(row)
    return rows


def reference_snf(mat):
    """The plain dense Smith reduction, with the dense product in its
    checks.  `smith_normal_form` runs the same reduction, written apart,
    and its transforms, not only S, must match: printed generators are
    rows of V^-1.  Shares nothing with the package.
    """
    a = [row[:] for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0

    def identity(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

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
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]
        v_inv[src] = [x - c * y for x, y in zip(v_inv[src], v_inv[dst])]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
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
    assert dense_matmul(dense_matmul(u, mat), v) == s
    assert dense_matmul(v, v_inv) == identity(m)
    return u, s, v, v_inv


def reference_hnf(rows):
    """`hnf_row_lattice` on dense lists, before it worked on sparse
    rows.  The form is canonical, so the two must agree everywhere.
    Shares nothing with the package."""
    m = len(rows[0]) if rows else 0
    work = [list(r) for r in rows if any(r)]
    r = 0
    for col in range(m):
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


def relation_rows(spec, n: int, psi: int):
    """(rows, words): one row per word u of language(n) over the words v
    of language(n + 1), the sum of e_v over the v that start with u
    minus psi times those that end with u.  Reads the package's
    language."""
    lo = {u: i for i, u in enumerate(language(spec, n))}
    hi = language(spec, n + 1)
    rows = [[0] * len(hi) for _ in lo]
    for j, v in enumerate(hi):
        rows[lo[v[:n]]][j] += 1
        rows[lo[v[1:]]][j] -= psi
    return rows, hi


def relation_basis(rows, invert_two=False) -> list:
    """Integer rows spanning the lattice of the integer rows; with
    invert_two, the lattice of the integer vectors that some power of 2
    moves into it: the rows s_i V^-1[i] of sympy's Smith decomposition
    S = U A V, with s_i the odd part of S[i][i].  Shares nothing with
    the package."""
    if not invert_two:
        return [list(r) for r in rows if any(r)]
    s, _, v = smith_normal_decomp(Matrix(rows))
    v_inv = v.inv()
    return [[split_twos(int(s[i, i]))[1] * int(x) for x in v_inv.row(i)]
            for i in range(min(s.shape)) if s[i, i]]


def bonding_matrix(cols1, cols2) -> list:
    """The map from level N to level N + 1, e_w -> the sum of its
    one-letter right refinements, as rows over the words cols1 and
    columns over the words cols2.  Shares nothing with the package."""
    idx = {w: i for i, w in enumerate(cols1)}
    out = [[0] * len(cols2) for _ in cols1]
    for j, v in enumerate(cols2):
        out[idx[v[:-1]]][j] = 1
    return out


def stacked_bonding_is_iso(spec, ring, n) -> bool:
    """The bonding map from level n to n + 1 is an isomorphism: equal
    rank and torsion by snf_group, and onto, which holds when the
    bonding matrix stacked on level n + 1's relation rows has full rank
    and Smith factors 1 (over "Z") or powers of 2 (over "Z[1/2]").
    Reads the package's language through relation_rows; the rest is
    sympy's."""
    half = ring == "Z[1/2]"
    rows1, cols1 = relation_rows(spec, n, 2 if half else 1)
    rows2, cols2 = relation_rows(spec, n + 1, 2 if half else 1)
    if snf_group(rows1, half) != snf_group(rows2, half):
        return False
    diag = [d for d in sympy_smith_diagonal(
        bonding_matrix(cols1, cols2) + rows2) if d]
    unit = (lambda d: split_twos(d)[1]) if half else abs
    return len(diag) == len(cols2) and all(unit(d) == 1 for d in diag)


def is_odometer_coboundary(h, g) -> bool:
    """h == g - g o (x -> x - 1) as locally constant functions on Z_2:
    g witnesses that h is a transfer coboundary.  Reads the package's
    LocallyConstFn refine, compose_odometer_inverse and subtraction."""
    lhs = h.refine(g.level)
    rhs = g - g.compose_odometer_inverse()
    return (lhs - rhs).is_zero()


def cylinder_indicator(n: int, k: int, level: int | None = None):
    """The indicator of the cylinder F(n, k) = 2**n * Z_2 + k, as the
    package's LocallyConstFn at level n or the given finer level: 1 on
    the residues r = k mod 2**n, 0 elsewhere.  Reads only the
    LocallyConstFn constructor."""
    level = n if level is None else level
    assert level >= n >= 0
    m = 1 << n
    return LocallyConstFn(level, [int(r % m == k % m)
                                  for r in range(1 << level)])


def splitmix64(state: int, count: int) -> list:
    """The first count outputs of SplitMix64 (Steele, Lea and Flood,
    OOPSLA 2014) from state, in plain ints: the state steps by the
    golden gamma and each output is the mixed state.  Shares nothing
    with the package."""
    gamma, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    out = []
    for _ in range(count):
        state = (state + gamma) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def splitmix_key(seed: int, stream: int) -> int:
    """The state from which a seed's stream runs: the stream number times
    the gamma, mixed, then each 64-bit limb of the seed, lowest first
    and at least one, XORed in and mixed one gamma step on, all by
    splitmix64.  Shares nothing with the package."""
    gamma, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    key = splitmix64((stream - 1) * gamma & mask, 1)[0]
    while True:
        key = splitmix64(key ^ (seed & mask), 1)[0]
        seed >>= 64
        if not seed:
            return key


def merged_mean_se(x, slices) -> tuple:
    """Mean and standard error of the column x from its slices' moments.

    Each slice gives its count, numpy sum and sum of squared deviations
    from its mean; they are folded left by Chan, Golub and LeVeque's
    (1979) pairwise update in plain floats.  Reads x alone; shares
    nothing with the package."""
    def moments(rows):
        part = x[rows]
        total = float(part.sum())
        return len(part), total, float(((part - total / len(part)) ** 2).sum())

    def merge(left, right):
        (na, ta, qa), (nb, tb, qb) = left, right
        delta = tb / nb - ta / na
        return na + nb, ta + tb, qa + qb + delta * delta * na * nb / (na + nb)

    n, total, q = functools.reduce(merge, map(moments, slices))
    return total / n, math.sqrt(q / (n - 1)) / math.sqrt(n)


# -- words and substitutions ------------------------------------------------

def iterate_prefix(spec: Substitution, length: int, letter=None) -> str:
    """The first length letters of sigma^k(a), a the given letter or the
    least one, by plain iteration of the rules: a fixed-point prefix
    when sigma(a) starts with a.  Reads spec.mapping() only."""
    rules = spec.mapping()
    w = letter or min(rules)
    while len(w) < length:
        w = "".join(rules[c] for c in w)
    return w[:length]


def prefix_blocks(prefix: str, n: int) -> set:
    """The words of length n that occur in prefix.  Shares nothing with
    the package."""
    return {prefix[i:i + n] for i in range(len(prefix) - n + 1)}


def periodic_by_complexity(spec: Substitution) -> bool:
    """Some n <= 16 has at most n words of length n in a 1024-letter
    iterate prefix.

    A uniformly recurrent word with that complexity is periodic
    (Morse-Hedlund), and an aperiodic one has at least n + 1 words of
    every length n; a period above 16 goes unseen.  Reads spec.mapping()
    only."""
    prefix = iterate_prefix(spec, 1024)
    return any(len(prefix_blocks(prefix, n)) <= n for n in range(1, 17))


def fixed_word_aperiodic(spec: Substitution) -> bool:
    """The period search on the fixed word of a bijective rule.

    A power sigma' of the rules fixes a first letter a and has images of
    at least 2 letters; its fixed word y starting at a is periodic iff
    sigma'(y[:p]) == y[:p]^s for some p <= |A| (the subshift module's
    docstring bounds the period by the alphabet size).  Reads
    spec.mapping() only.
    """
    rules = spec.mapping()

    def apply(table, word):
        return "".join(table[c] for c in word)

    a = min(rules)
    trail = [a]
    while True:
        a = rules[a][0]
        if a in trail:
            t = len(trail) - trail.index(a)
            break
        trail.append(a)
    power = {c: c for c in rules}
    for _ in range(t):
        power = {c: apply(rules, w) for c, w in power.items()}
    while min(len(w) for w in power.values()) < 2:
        power = {c: apply(power, w) for c, w in power.items()}
    s = len(power[a])
    for p in range(1, len(rules) + 1):
        y = a
        while len(y) < p:
            y = apply(power, y)
        if apply(power, y[:p]) == y[:p] * s:
            return False
    return True


def is_primitive_matrix(rows) -> bool:
    """Some power of the nonnegative square matrix is positive.

    By Wielandt's bound that power may be taken as 2**j >= (r - 1)**2 + 1,
    reached by squaring the zero pattern, each row a bitmask.  Shares
    nothing with the package.
    """
    r = len(rows)
    reach = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    power = 1
    while power < (r - 1) ** 2 + 1:
        reach = [functools.reduce(operator.or_, (reach[j] for j in range(r)
                                                 if row >> j & 1), 0)
                 for row in reach]
        power *= 2
    return all(row == (1 << r) - 1 for row in reach)


def substitution_corpus(seed: int, count: int, letters=4, image=4) -> list:
    """count seeded primitive substitutions on 2 to letters letters, each
    image of 1 to image letters.

    Primitivity is judged by is_primitive_matrix on the incidence
    matrix, so only Substitution.of is shared with the package.
    """
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        abc = "1234"[:rng.randint(2, letters)]
        rules = {c: "".join(rng.choice(abc)
                            for _ in range(rng.randint(1, image)))
                 for c in abc}
        if is_primitive_matrix([[rules[b].count(a) for b in abc]
                                for a in abc]):
            specs.append(Substitution.of(rules))
    return specs


def assert_perron_certificate(spec, n, mu):
    """mu, over language(spec, n), is the Perron vector of the n-block
    substitution: B mu = lambda mu, sum(mu) = 1 and mu > 0, with B
    primitive (Queffelec, LNM 1294, ch. V).  By Perron-Frobenius only one
    vector passes, so this pins mu without solving for it.

    Reads the package's block_substitution and its _spec_perron."""
    blocks, sub = block_substitution(spec, n)
    col = {u: collections.Counter(sub[u]) for u in blocks}
    rows = [[col[u][v] for u in blocks] for v in blocks]
    assert is_primitive_matrix(rows), n
    lam = _spec_perron(spec)[0]
    image = [sum(c * x for c, x in zip(row, mu) if c) for row in rows]
    assert image == [lam * x for x in mu], n
    assert sum(mu) == 1 and all(x > 0 for x in mu), n


def anderson_putnam_rank(spec: Substitution) -> int:
    """The rank of H^1(Omega; Q) from the Anderson-Putnam complex of
    1-collared tiles (Anderson & Putnam, ETDS 18, 1998; Sadun, Topology
    of Tiling Spaces, AMS 2008).

    The language is read from a 4096-letter iterate prefix, not from
    the package.  Edges are the words abc of length 3, and the right end
    of abc is glued to the left end of bcd for each word abcd.  sigma*
    sends the cochain of abc to the sum over the collared edges of
    sigma(a)[-1] sigma(b) sigma(c)[0].  H^1 (x) Q is the eventual range
    of sigma* on C^1 / im(delta): rank([A^k | delta]) - rank(delta),
    with k raised until the value repeats.  Reads spec.mapping() only.
    """
    rules = spec.mapping()
    prefix = iterate_prefix(spec, 4096)
    edges = sorted(prefix_blocks(prefix, 3))
    at = {e: i for i, e in enumerate(edges)}
    parent = list(range(2 * len(edges)))  # 2i: left end of i, 2i+1: right

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for w in prefix_blocks(prefix, 4):
        parent[root(2 * at[w[:3]] + 1)] = root(2 * at[w[1:]])
    vertex = {r: j for j, r in enumerate(sorted({root(x) for x in parent}))}
    delta = [[0] * len(vertex) for _ in edges]
    pull = [[0] * len(edges) for _ in edges]
    for i, (a, b, c) in enumerate(edges):
        delta[i][vertex[root(2 * i + 1)]] += 1
        delta[i][vertex[root(2 * i)]] -= 1
        image = rules[a][-1] + rules[b] + rules[c][0]
        for j in range(len(rules[b])):
            pull[i][at[image[j:j + 3]]] += 1
    d = DomainMatrix.from_list(delta, QQ)
    a = DomainMatrix.from_list(pull, QQ)
    base = d.rank()
    power, last = a, None
    while True:
        got = power.hstack(d).rank() - base
        if got == last:
            return got
        power, last = a.matmul(power), got


# -- tilings ----------------------------------------------------------------

def random_colour_window(spec, rng, halfwidth: int) -> ColourWindow:
    """Admissible window of letters w[-halfwidth..halfwidth], a uniform
    choice by the numpy Generator rng.  Reads the package's language and
    alphabet."""
    words = language(spec, 2 * halfwidth + 1)
    return ColourWindow(words[int(rng.integers(0, len(words)))], -halfwidth,
                        alphabet(spec))


def cosh_distance(p, q) -> Fraction:
    """cosh of the hyperbolic distance between two Points, exactly:
    1 + ((x1-x2)**2 + (y1-y2)**2) / (2 y1 y2).  Reads their coordinates."""
    dx = p.x - q.x
    dy = p.y - q.y
    return 1 + (dx * dx + dy * dy) / (2 * p.y * q.y)


# Vertical segments have center None; otherwise the full geodesic is the
# half-circle with the given rational center on the real axis and squared
# radius radius_sq.
GeodesicArc = collections.namedtuple("GeodesicArc",
                                     "start end center radius_sq")


def geodesic_arc(p, q) -> GeodesicArc:
    """The geodesic segment between two Points, with its circle solved
    from their coordinates alone."""
    if p.x == q.x:
        if p.y == q.y:
            raise ValueError("no geodesic between identical points")
        return GeodesicArc(p, q, None, None)
    xp, yp, xq, yq = p.x, p.y, q.x, q.y
    c = (xp + xq) / 2 + (yq * yq - yp * yp) / (2 * (xq - xp))
    r2 = (xp - c) ** 2 + yp * yp
    return GeodesicArc(p, q, c, r2)


def ref_interiors_disjoint(ts):
    """Every pair of tiles, decided from tile_vertices and geodesic_arc.

    Tiles of one scale must not overlap in x, a tile two or more scales
    up must lie above the lower one's apex, and a tile one scale up that
    overlaps a tile in x must have that tile's top arc, ends included,
    as one of its bottom arcs.  Returns the verdict and the set of
    adjacent-scale pairs whose open x-intervals overlap.  Reads the
    package's tile_vertices."""
    def curve(p, q):
        arc = geodesic_arc(p, q)
        return arc.center, arc.radius_sq, frozenset((p, q))

    verts = [tile_vertices(t) for t in ts.tiles]
    disjoint, overlapping = True, set()
    for i, (a, va) in enumerate(zip(ts.tiles, verts)):
        # sorted by (k, n), so b.k >= a.k
        for b, vb in zip(ts.tiles[i + 1:], verts[i + 1:]):
            if b.k == a.k:
                disjoint &= va[2].x <= vb[0].x or vb[2].x <= va[0].x
                continue
            if b.k >= a.k + 2:
                # a's apex height (17/4) 4**k lies below b's floor 4**(k+2)
                disjoint &= Fraction(17, 4) * va[0].y ** 2 < vb[0].y ** 2
                continue
            if va[2].x <= vb[0].x or vb[2].x <= va[0].x:
                continue
            overlapping.add(((a.k, a.n), (b.k, b.n)))
            disjoint &= curve(va[3], va[4]) in (curve(vb[0], vb[1]),
                                                curve(vb[1], vb[2]))
    return disjoint, overlapping


def side_ends(side):
    """The frozenset of the two endpoints of a (tile, label) side.  Reads
    the package's tile_vertices and its edge labels."""
    t, lab = side
    v = tile_vertices(t)
    i = EDGE_LABELS.index(lab)
    return frozenset((v[i], v[(i + 1) % 5]))


def ref_edge_adjacency(ts):
    """Edges keyed by the frozenset of their tile_vertices endpoints.

    Reads the package's tile_vertices, its exact corner coordinates,
    and none of its pairing rule."""
    by_key = {}
    for t in ts.tiles:
        v = tile_vertices(t)
        for i, lab in enumerate(EDGE_LABELS):
            key = frozenset((v[i], v[(i + 1) % 5]))
            by_key.setdefault(key, []).append((t, lab))
    interior = {key: tuple(sides) for key, sides in by_key.items()
                if len(sides) == 2}
    boundary = tuple(sides[0] for sides in by_key.values() if len(sides) == 1)
    tops = []
    for (t1, l1), (t2, l2) in interior.values():
        if POSITIVE_EDGE in (l1, l2):
            lower, (upper, lab) = ((t1, (t2, l2)) if l1 == POSITIVE_EDGE
                                   else (t2, (t1, l1)))
            tops.append((lower, upper, lab))

    def charges(sides):
        return (sum(lab == POSITIVE_EDGE for _, lab in sides),
                sum(lab in NEGATIVE_EDGES for _, lab in sides))

    return interior, boundary, tops, charges(
        [s for pair in interior.values() for s in pair]), charges(boundary)
