"""Exact field arithmetic, dominant-eigenvalue extraction, and kernels."""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from hyptile import algebraic
from hyptile.algebraic import (
    AlgebraicNumber,
    NumberField,
    _charpoly,
    _pick_prime,
    _squarefree,
    nullspace_vector,
    perron_eigenvalue,
    poly_eval,
)
from hyptile.subshift import block_substitution

from oracles import S4


F = Fraction


def golden() -> AlgebraicNumber:
    lam = perron_eigenvalue([[1, 1], [1, 0]])
    assert isinstance(lam, AlgebraicNumber)
    return lam


class TestNumberField:
    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            NumberField((F(-2), F(1)), F(1), F(3))

    def test_rejects_non_straddling_interval(self):
        with pytest.raises(ValueError):
            NumberField((F(-1), F(-1), F(1)), F(2), F(3))

    def test_refine_narrows_and_keeps_root(self):
        fld = NumberField((F(-1), F(-1), F(1)), F(1), F(2))
        for _ in range(30):
            fld.refine()
        assert fld.hi - fld.lo < F(1, 10**8)
        root = 0.5 * (1 + math.sqrt(5))
        assert fld.lo < F(root).limit_denominator(10**12) < fld.hi

    def test_generator_satisfies_minpoly(self):
        lam = golden()
        assert lam * lam - lam - 1 == 0


class TestFieldArithmetic:
    def test_golden_identities(self):
        lam = golden()
        assert lam * lam == lam + 1
        assert 1 / lam == lam - 1
        assert (2 * lam - 1) * (2 * lam - 1) == 5

    def test_float_value(self):
        assert float(golden()) == pytest.approx((1 + 5**0.5) / 2, abs=1e-12)

    def test_sign_and_order(self):
        lam = golden()
        assert lam.sign() == 1
        assert (lam - 2).sign() == -1
        assert (lam - lam).sign() == 0
        assert 1 < lam < 2
        assert lam > F(8, 5)
        assert lam < F(13, 8)

    def test_fraction_mixing(self):
        lam = golden()
        x = lam / 2 + F(1, 3)
        y = (3 * lam + 2) / 6
        assert x == y

    def test_division_by_zero_element(self):
        lam = golden()
        with pytest.raises(ZeroDivisionError):
            _ = lam / (lam - lam)

    def test_random_ring_identities(self):
        lam = golden()
        rng = random.Random(7)
        for _ in range(40):
            a = F(rng.randint(-9, 9)) + F(rng.randint(-9, 9)) * lam
            b = F(rng.randint(-9, 9)) + F(rng.randint(-9, 9)) * lam
            assert (a + b) * (a - b) == a * a - b * b
            if b != 0:
                assert (a / b) * b == a

    def test_cross_field_mixing_rejected(self):
        lam = golden()
        mu = perron_eigenvalue([[2, 1], [1, 1]])  # x^2 - 3x + 1 root
        with pytest.raises(ValueError):
            _ = lam + mu

    def test_float_agrees_with_resolvent(self):
        # root of x^3 - x - 1 (plastic number), from its companion matrix
        lam = perron_eigenvalue([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
        assert float(lam) == pytest.approx(1.3247179572447460, abs=1e-12)
        assert lam * lam * lam == lam + 1


X = sympy.Symbol("x")

# (matrix whose Perron root generates the field, that root's minimal
# polynomial); the plastic number is test_float_agrees_with_resolvent's
ROUNDING_FIELDS = {
    "fibonacci": ([[1, 1], [1, 0]], X**2 - X - 1),
    "tribonacci": ([[1, 1, 1], [1, 0, 0], [0, 1, 0]], X**3 - X**2 - X - 1),
    "plastic": ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], X**3 - X - 1),
}


def sympy_value(a: AlgebraicNumber, root):
    return sum(sympy.Rational(c.numerator, c.denominator) * root**i
               for i, c in enumerate(a.coeffs))


def nearest_double(a: AlgebraicNumber, root) -> float:
    """The double nearest a, from sympy's 60-digit value of a."""
    return float(sympy.N(sympy_value(a, root), 60))


class TestCorrectRounding:
    """float() is the nearest double, however small the value, and signs
    stay exact next to doubles."""

    @staticmethod
    def field(name):
        mat, minpoly = ROUNDING_FIELDS[name]
        return (perron_eigenvalue(mat),
                max(sympy.Poly(minpoly, X).real_roots()),
                sympy.degree(minpoly, X))

    @pytest.mark.parametrize("name", sorted(ROUNDING_FIELDS))
    def test_powers(self, name):
        lam, root, _ = self.field(name)
        inv = 1 / lam
        up, down = lam, inv
        for _ in range(79):
            assert float(down) == nearest_double(down, root)
            assert float(up) == nearest_double(up, root)
            up, down = up * lam, down * inv

    def test_fibonacci_inverse_twentieth_power(self):
        # float() once returned an interval midpoint here, 2 ulps high
        lam, root, _ = self.field("fibonacci")
        v = F(1)
        for _ in range(20):
            v = v / lam
        assert float(v) == float(sympy.N(root**-20, 60))
        assert 6.6e-5 < float(v) < 6.7e-5

    @pytest.mark.parametrize("name", sorted(ROUNDING_FIELDS))
    def test_random_elements(self, name):
        lam, root, degree = self.field(name)
        rng = random.Random(name)
        powers = [F(1)]
        while len(powers) < degree:
            powers.append(powers[-1] * lam)
        for _ in range(40):
            den = rng.choice([1, 3, 1024, 10**9 + 7])
            a = sum(F(rng.randint(-10**6, 10**6), den) * p for p in powers)
            assert float(a) == nearest_double(a, root)
            for q in (F(float(a)), F(0)):
                exact = sympy_value(a, root) - sympy.Rational(
                    q.numerator, q.denominator)
                assert (a > q) == (sympy.N(exact, 80) > 0)
                assert (a < q) == (sympy.N(exact, 80) < 0)

    def test_field_with_fraction_minpoly(self):
        # x**2 - 1/2 reduces by 2 x**2 - 1, so denominators take factors 2
        fld = NumberField((F(-1, 2), F(0), F(1)), F(0), F(1))
        t = AlgebraicNumber(fld, (0, 1))
        assert t * t == F(1, 2)
        assert (t + 1) * (t + 1) == 2 * t + F(3, 2)
        assert 1 / t == 2 * t
        assert float(t) == 0.5 ** 0.5
        v = t / 3
        for _ in range(8):
            v = v * t
        assert float(v) == float(sympy.N(sympy.sqrt(2) ** -9 / 3, 60))


class TestPerron:
    def test_rational_dominant_root(self):
        assert perron_eigenvalue([[1, 1], [1, 1]]) == F(2)
        assert perron_eigenvalue([[3]]) == F(3)
        assert perron_eigenvalue([[0, 2], [2, 0]]) == F(2)

    def test_tribonacci(self):
        lam = perron_eigenvalue([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
        assert lam * lam * lam == lam * lam + lam + 1
        assert float(lam) == pytest.approx(1.8392867552141612, abs=1e-12)

    def test_reducible_characteristic_poly(self):
        # block diag: rational eigenvalues {3, 1} beat the golden ratio block
        mat = [[3, 0, 0], [0, 1, 1], [0, 1, 0]]
        assert perron_eigenvalue(mat) == F(3)

    def test_irrational_beats_rational(self):
        # block diag: golden ratio (1.618) dominates the rational 1
        mat = [[1, 0, 0], [0, 1, 1], [0, 1, 0]]
        lam = perron_eigenvalue(mat)
        assert isinstance(lam, AlgebraicNumber)
        assert lam * lam == lam + 1

    def test_poly_eval_horner(self):
        assert poly_eval((F(-1), F(-1), F(1)), F(2)) == F(1)


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def s4_two_block_matrix():
    """Incidence matrix of S4's induced substitution on its 16 two-letter
    blocks: characteristic polynomial x^3 (x-4) (x-1)^6 (x+1)^6."""
    blocks, images = block_substitution(S4, 2)
    return [[images[b].count(a) for b in blocks] for a in blocks]


def companion(poly):
    """Integer companion matrix of the monic ascending coefficients poly:
    its characteristic polynomial is poly."""
    n = len(poly) - 1
    return [[int(i == j + 1) for j in range(n - 1)] + [-poly[i]]
            for i in range(n)]


# Top roots far from the origin: a search over the integers up to the
# root bound would be linear in the root.
LARGE_TOP_ROOTS = [[[10**6]], [[10**7]], [[10**6, 1], [1, 0]], [[2**40]]]

PINNED_ROOTS = {
    # f = x (x^2 - 3x - 3), and the quadratic splits mod 5: the factor x
    # has constant term 0 and must still reach the exact division
    "root-zero-factor": [[1, 2, 3], [1, 0, 2], [1, 0, 2]],
    # Sturm bisection ends on (1, 2]: the top root is the interval's end
    "root-at-bisection-end": block_diag([[1]], [[2]]),
    # (-1, 0]: the top root 0 is hi, and the other root -1 is lo
    "root-zero-beside-negative": block_diag([[0]], [[-1]]),
}


def oracle_corpus():
    """342 integer matrices: 300 seeded nonnegative ones of sizes 1 to 6
    (dense, sparse, block-diagonal and repeated-block), then named ones,
    then 12 seeded ones: dense 7x7 and 8x8 matrices, and block-diagonals
    of two such blocks, whose square-free characteristic polynomials of
    degree 14 and 16 factor over Z.

    Three are companion matrices of the minimal polynomials of sqrt2 +
    sqrt3, sqrt2 + sqrt3 + sqrt5 and sqrt2 + sqrt3 + sqrt5 + sqrt7:
    irreducible over Z but split into factors of degree at most 2 modulo
    every prime, the worst case for recombining lifted factors.  The
    last seven follow them (see LARGE_TOP_ROOTS and PINNED_ROOTS)."""
    rng = random.Random(20090)

    def rand(n, top, density):
        return [[rng.randint(0, top) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(n)]

    mats = []
    for i in range(300):
        n, kind = 1 + i % 6, (i // 6) % 4
        if kind == 0 or n == 1:
            mats.append(rand(n, 3, 1.0))
        elif kind == 1:
            mats.append(rand(n, 5, 0.4))
        elif kind == 2:
            a = rng.randint(1, n - 1)
            mats.append(block_diag(rand(a, 3, 0.8), rand(n - a, 3, 0.8)))
        else:
            b = rand(n // 2, 3, 0.8)
            mats.append(block_diag(b, b, *([rand(1, 3, 1.0)] * (n % 2))))
    fib, fib2 = [[1, 1], [1, 0]], [[2, 1], [1, 1]]
    mats += [
        [[1] * 4 for _ in range(4)],  # S4's letters: x^3 (x - 4)
        s4_two_block_matrix(),
        block_diag([[3]], fib2),  # 3 beats 2.618
        block_diag([[2]], fib2),  # 2.618 beats 2
        block_diag(fib, [[1]], fib, [[0]]),  # repeated irrational root
        block_diag([[0, 1], [1, 0]], [[1, 1, 1], [1, 0, 0], [0, 1, 0]]),
        block_diag(fib2, [[3, 1], [1, 0]], fib),  # three quadratic factors
        [[0, 0, 1], [1, 0, 1], [0, 1, 0]],  # x^3 - x - 1
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1], [0, 0]],
    ]
    rng = random.Random(11)
    for n in (4, 5):  # two irreducible blocks of degree n
        for _ in range(5):
            mats.append(block_diag(rand(n, 3, 1.0), rand(n, 3, 1.0)))
    rng = random.Random(40)
    for n in (7, 8):
        for _ in range(3):
            mats.append(rand(n, 3, 1.0))
        for _ in range(3):
            mats.append(block_diag(rand(n, 3, 1.0), rand(n, 3, 1.0)))
    mats += [
        companion([1, 0, -10, 0, 1]),
        companion([576, 0, -960, 0, 352, 0, -40, 0, 1]),
        companion([46225, 0, -5596840, 0, 13950764, 0, -7453176, 0,
                   1513334, 0, -141912, 0, 6476, 0, -136, 0, 1]),
    ]
    return mats + LARGE_TOP_ROOTS + list(PINNED_ROOTS.values())


def sympy_perron(mat):
    """(largest real eigenvalue, its monic minimal polynomial as ascending
    Fractions), from sympy's factorization of the characteristic
    polynomial."""
    x = sympy.Symbol("x")
    best = None
    for fac, _mult in sympy.Matrix(mat).charpoly(x).factor_list()[1]:
        for root in sympy.Poly(fac, x).real_roots():
            if best is None or root > best[0]:
                best = (root, fac)
    root, fac = best
    coeffs = sympy.Poly(fac, x).monic().all_coeffs()
    return root, tuple(F(int(c.p), int(c.q)) for c in reversed(coeffs))


class TestPerronOracle:
    @pytest.mark.parametrize("mat", LARGE_TOP_ROOTS,
                             ids=["1e6", "1e7", "1e6-quadratic", "2^40"])
    def test_large_top_root_is_fast(self, mat):
        t0 = time.perf_counter()
        lam = perron_eigenvalue(mat)
        assert time.perf_counter() - t0 < 0.1
        if len(mat) == 1:
            assert type(lam) is Fraction and lam == mat[0][0]
        else:
            assert lam * lam == 10**6 * lam + 1 and lam > 10**6

    def test_s4_two_block_charpoly(self):
        x = sympy.Symbol("x")
        cp = sympy.Matrix(s4_two_block_matrix()).charpoly(x).as_expr()
        assert sympy.expand(cp - x**3 * (x - 4) * (x - 1)**6 * (x + 1)**6) \
            == 0

    @pytest.mark.parametrize("part", range(6))
    def test_matches_sympy(self, part):
        # Same Fraction, or same minimal polynomial with the root strictly
        # inside the isolating interval.  The time bound keeps factoring
        # over Z from going exponential: Kronecker's method took 68 s on
        # one 10x10 block-diagonal matrix.  Each part takes every sixth
        # matrix, so the named ones spread over the parts.
        mats = oracle_corpus()
        assert len(mats) >= 300
        for mat in mats[part::6]:
            t0 = time.perf_counter()
            lam = perron_eigenvalue(mat)
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, (mat, elapsed)
            root, minpoly = sympy_perron(mat)
            if len(minpoly) == 2:
                assert lam == -minpoly[0], mat
                continue
            assert isinstance(lam, AlgebraicNumber), mat
            fld = lam.field
            assert fld.minpoly == minpoly, mat
            assert sympy.Rational(fld.lo.numerator, fld.lo.denominator) \
                < root < sympy.Rational(fld.hi.numerator, fld.hi.denominator)


class TestBigPrime:
    """The one prime the factorizer works mod: above the bound, a Proth
    number k 2^e + 1 (k odd, k < 2^e), prime by sympy, and keeping f
    square-free."""

    @staticmethod
    def check(f, above):
        p, _ = _pick_prime(f, above)
        assert p > above
        k, e = p - 1, 0
        while k % 2 == 0:
            k, e = k // 2, e + 1
        assert k < 2 ** e, (p, k, e)
        assert sympy.isprime(p), p
        assert sympy.Poly(f[::-1], X, modulus=p).is_sqf, (f, p)

    @staticmethod
    def corpus_bounds():
        """(f, twice Mignotte's bound) for each square-free characteristic
        polynomial of the corpus: what the factorizer asks for."""
        out = []
        for mat in oracle_corpus():
            f = _squarefree(_charpoly(mat))
            bound = 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f))
                                         + 1)
            out.append((f, 2 * bound))
        return out

    def test_powers_of_two(self):
        for j in range(3, 201):
            self.check([-1, -1, 1], 2 ** j)

    def test_corpus_bounds(self):
        for f, above in self.corpus_bounds():
            self.check(f, above)

    def test_early_exit_finds_the_all_bases_prime(self):
        # the search that tries every base on every candidate and takes
        # the first that some base proves prime: a base that proves a
        # candidate composite leaves no later base to prove it prime.
        # A candidate with a factor below 100 is skipped unread, as no
        # base proves a composite prime.
        small = list(sympy.primerange(3, 100))

        def all_bases(f, above):
            e = (above.bit_length() + 2) // 2
            k = (1 << (e - 1)) + 1
            while True:
                if k >= 1 << e:
                    e += 1
                    k = (1 << (e - 1)) + 1
                p = k << e | 1
                if all(p % q for q in small if q < p) \
                        and any(pow(a, p >> 1, p) == p - 1
                                for a in (3, 5, 7, 11, 13, 17)) \
                        and sympy.Poly(f[::-1], X, modulus=p).is_sqf:
                    return p
                k += 2

        cases = [([-1, -1, 1], 2 ** j) for j in range(3, 201)]
        for f, above in cases + self.corpus_bounds():
            assert _pick_prime(f, above)[0] == all_bases(f, above), above

    def test_result_does_not_depend_on_the_prime(self, monkeypatch):
        # a prime above the first two certified ones: the minimal
        # polynomial is unique, so every prime above the bound gives it
        mats = oracle_corpus()
        before = [perron_eigenvalue(mat) for mat in mats]
        pick = algebraic._pick_prime

        def third(f, above):
            for _ in range(2):
                above, _ = pick(f, above)
            return pick(f, above)

        monkeypatch.setattr(algebraic, "_pick_prime", third)
        for mat, lam in zip(mats, before):
            again = perron_eigenvalue(mat)
            if isinstance(lam, AlgebraicNumber):
                assert (again.field.minpoly, again.field.lo, again.field.hi) \
                    == (lam.field.minpoly, lam.field.lo, lam.field.hi), mat
            else:
                assert type(again) is Fraction and again == lam, mat


class TestNullspace:
    def test_rational_kernel(self):
        v = nullspace_vector([[F(-1), F(1)], [F(1), F(-1)]])
        assert v[0] == v[1] != 0

    def test_field_kernel_matches_eigenvector(self):
        lam = golden()
        mat = [[1 - lam, 1], [1, 0 - lam]]
        v = nullspace_vector(mat)
        # (M - lam I) v = 0 for M = [[1,1],[1,0]]: v0 = lam * v1
        assert v[0] == lam * v[1]

    @pytest.mark.parametrize("mat", [
        [[1, 1], [1, 0]],
        [[1, 1, 1], [1, 0, 0], [0, 1, 0]],
    ], ids=["fibonacci", "tribonacci"])
    def test_perron_eigenvector(self, mat):
        lam = perron_eigenvalue(mat)
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        v = nullspace_vector(shifted)
        assert any(v)
        assert all(sum(x * y for x, y in zip(row, v)) == 0
                   for row in shifted)

    def test_trivial_kernel_rejected(self):
        with pytest.raises(ValueError):
            nullspace_vector([[F(1), F(0)], [F(0), F(1)]])

    def test_fat_kernel_rejected(self):
        with pytest.raises(ValueError):
            nullspace_vector([[F(0), F(0)], [F(0), F(0)]])

    def test_mixed_int_entries(self):
        v = nullspace_vector([[-2, 2], [2, -2]])
        assert v[0] == v[1]
        # all-int input stays exact: 1/3, not a float
        v = nullspace_vector([[-3, 1], [3, -1]])
        assert v == [F(1, 3), F(1)]
        assert all(isinstance(x, F) for x in v)
