import random
from fractions import Fraction

import pytest

from hyptile.dyadic import (ClopenSet, LocallyConstFn, dyadic, dyadic_norm,
                            integrate, odd_part, omega_coinvariant_class)
from hyptile.geometry import AffineMap, Point
from hyptile.ktheory import RING_HALF, CylinderFunction

from oracles import is_odometer_coboundary, split_twos


def test_dyadic_accepts_ints_and_dyadic_fractions():
    for q in (0, 5, -12, Fraction(3, 8), Fraction(-7, 1024)):
        d = dyadic(q)
        assert type(d) is Fraction and d == q
    assert dyadic(Fraction(3, 8)).denominator == 8


def test_dyadic_rational_rejects_non_dyadic():
    for q in (Fraction(1, 3), Fraction(5, 12)):
        with pytest.raises(ValueError):
            dyadic(q)


@pytest.mark.parametrize("q", [0.1, 0.5, 2.0, "1/2", "3", True, None])
def test_dyadic_accepts_only_ints_and_fractions(q):
    # floats are dyadic but inexact inputs; strings parse through Fraction
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        dyadic(q)


def test_float_coordinates_and_coefficients_refused():
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        Point(0.1, 1)
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        Point(0, 1.0)
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        AffineMap(1, 0.5)
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        CylinderFunction.of(RING_HALF, 0, {"1": 0.1})
    assert CylinderFunction.of(RING_HALF, 0, {"1": Fraction(1, 4)}).coeffs \
        == (("1", Fraction(1, 4)),)


def test_odd_part_matches_halving_loop():
    for n in range(-300, 301):
        assert odd_part(n) == split_twos(n)[1]


def test_dyadic_norm_values():
    assert dyadic_norm(12) == Fraction(1, 4)
    assert dyadic_norm(0) == 0
    assert dyadic_norm(1) == 1
    assert dyadic_norm(-8) == Fraction(1, 8)


def test_dyadic_norm_ultrametric():
    rng = random.Random(3)
    for _ in range(300):
        m, n = rng.randrange(-50, 51), rng.randrange(-50, 51)
        assert dyadic_norm(m + n) <= max(dyadic_norm(m), dyadic_norm(n))


def test_clopen_rejects_overlap():
    with pytest.raises(ValueError):
        ClopenSet(((1, 0), (2, 2)))  # F(2,2) is inside F(1,0)


def test_clopen_normalizes_sibling_pair():
    s = ClopenSet(((2, 1), (2, 3)))
    assert s.cylinders == ((1, 1),)


def test_clopen_haar_measure():
    s = ClopenSet(((2, 1), (3, 0)))
    assert s.haar_measure() == Fraction(3, 8)


def test_indicator_and_membership_agree():
    s = ClopenSet(((2, 1), (3, 4)))
    f = s.indicator()
    for r in range(8):
        inside = any(r % (1 << n) == k for n, k in s.cylinders)
        assert f.values[r] == (1 if inside else 0)


def test_locally_const_refine_and_canonical():
    f = LocallyConstFn(1, (2, 5))
    g = f.refine(3)
    assert g.values == (2, 5, 2, 5, 2, 5, 2, 5)
    assert g.canonical() == f


def test_integrate_example():
    f1 = ClopenSet.cylinder(1, 0).indicator()
    f2 = ClopenSet.cylinder(2, 0).indicator()
    assert integrate(f1 - f2.scale(2)) == 0
    assert integrate(f1) == Fraction(1, 2)


def test_integral_invariant_under_odometer():
    rng = random.Random(5)
    for _ in range(40):
        lev = rng.randrange(0, 5)
        f = LocallyConstFn(lev, tuple(rng.randrange(-9, 10) for _ in range(1 << lev)))
        assert integrate(f.compose_odometer_inverse()) == integrate(f)


def test_coinvariant_class_of_cylinders():
    for n in range(0, 7):
        for k in range(1 << n):
            f = ClopenSet.cylinder(n, k).indicator()
            value, witness = omega_coinvariant_class(f, want_witness=True)
            assert value == Fraction(1, 1 << n)
            # witness certifies f - indicator(F(n,0)) is a transfer coboundary
            target = f - ClopenSet.cylinder(n, 0).indicator(f.level)
            assert is_odometer_coboundary(target, witness)


def test_coinvariant_doubling_chain():
    # indicator(F(n,0)) and 2*indicator(F(n+1,0)) share a class
    for n in range(0, 6):
        f = ClopenSet.cylinder(n, 0).indicator()
        g = ClopenSet.cylinder(n + 1, 0).indicator().scale(2)
        diff = f.refine(n + 1) - g
        value, witness = omega_coinvariant_class(diff, want_witness=True)
        assert value == 0
        assert is_odometer_coboundary(diff, witness)


def test_coinvariant_class_kills_coboundaries():
    rng = random.Random(13)
    for _ in range(30):
        lev = rng.randrange(0, 6)
        g = LocallyConstFn(lev, tuple(rng.randrange(-9, 10) for _ in range(1 << lev)))
        f = g - g.compose_odometer_inverse()
        value, witness = omega_coinvariant_class(f, want_witness=True)
        assert value == 0
        assert is_odometer_coboundary(f, witness)


def test_class_map_is_linear_in_z_half():
    rng = random.Random(17)
    for _ in range(30):
        lev = rng.randrange(0, 5)
        f = LocallyConstFn(lev, tuple(rng.randrange(-5, 6) for _ in range(1 << lev)))
        g = LocallyConstFn(lev, tuple(rng.randrange(-5, 6) for _ in range(1 << lev)))
        vf, _ = omega_coinvariant_class(f)
        vg, _ = omega_coinvariant_class(g)
        vsum, _ = omega_coinvariant_class(f + g)
        assert vsum == vf + vg
