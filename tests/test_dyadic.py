import random
from fractions import Fraction

import pytest

from hyptile.dyadic import (LocallyConstFn, dyadic, integrate, odd_part,
                            omega_coinvariant_class)
from hyptile.geometry import AffineMap, Point
from hyptile.ktheory import RING_HALF, CylinderFunction

from oracles import cylinder_indicator, is_odometer_coboundary, split_twos


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


def test_locally_const_values_are_an_exact_tuple():
    # a list table would be unhashable and changeable in place, and a
    # float from arithmetic would break exactness (test_value_types.py
    # checks the refused entries themselves)
    f = LocallyConstFn(1, [0, 1])
    assert type(f.values) is tuple and f == LocallyConstFn(1, (0, 1))
    assert hash(f) == hash((1, (0, 1)))
    with pytest.raises(AttributeError):
        f.values.append(5)
    with pytest.raises(ValueError, match="0.0 is not an int or a Fraction"):
        f.scale(0.5)


def test_locally_const_refine_and_canonical():
    f = LocallyConstFn(1, (2, 5))
    g = f.refine(3)
    assert g.values == (2, 5, 2, 5, 2, 5, 2, 5)
    assert g.canonical() == f


def test_clopen_normalizes_sibling_pair():
    # F(2, 1) | F(2, 3) = F(1, 1): canonical drops the level they share
    f = cylinder_indicator(2, 1) + cylinder_indicator(2, 3)
    assert f.canonical() == cylinder_indicator(1, 1)


def test_clopen_haar_measure():
    f = cylinder_indicator(2, 1, 3) + cylinder_indicator(3, 0)
    assert integrate(f) == Fraction(3, 8)


def test_integrate_example():
    f1 = cylinder_indicator(1, 0)
    f2 = cylinder_indicator(2, 0)
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
            f = cylinder_indicator(n, k)
            value, witness = omega_coinvariant_class(f)
            assert value == Fraction(1, 1 << n)
            # witness certifies f - indicator(F(n,0)) is a transfer coboundary
            target = f - cylinder_indicator(n, 0, f.level)
            assert is_odometer_coboundary(target, witness)


def test_coinvariant_doubling_chain():
    # indicator(F(n,0)) and 2*indicator(F(n+1,0)) share a class
    for n in range(0, 6):
        f = cylinder_indicator(n, 0)
        g = cylinder_indicator(n + 1, 0).scale(2)
        diff = f.refine(n + 1) - g
        value, witness = omega_coinvariant_class(diff)
        assert value == 0
        assert is_odometer_coboundary(diff, witness)


def test_coinvariant_class_kills_coboundaries():
    rng = random.Random(13)
    for _ in range(30):
        lev = rng.randrange(0, 6)
        g = LocallyConstFn(lev, tuple(rng.randrange(-9, 10) for _ in range(1 << lev)))
        f = g - g.compose_odometer_inverse()
        value, witness = omega_coinvariant_class(f)
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
