"""The package's immutable value types: hash, repr, immutability, checks.

Each type is a namedtuple record, or a subclass of the package's one
frozen base where a tuple's `*`, `len` and ordering would mean nothing
(CylinderFunction, LocallyConstFn and Point).  Its hash is the hash of
the tuple of its compared fields (Point's of their integer ratios), so
sets and caches order and find values as they always have;
its repr is Name(field=value, ...); no attribute can be assigned or
deleted; and each refused construction keeps its error type and text.
"""

from fractions import Fraction

import pytest

from hyptile.cli import JobConfig
from hyptile.dyadic import LocallyConstFn
from hyptile.geometry import (AdjacencyReport, AffineMap, ColourWindow,
                              Point, TileIndex, TileSet)
from hyptile.hull import BumpProfile
from hyptile.hull import TestFunction as TFn
from hyptile.ktheory import (CylinderFunction, FPAbelianGroup, GapLabelGroup,
                             GapLabelLevel, _Presentation, _presentation,
                             coinvariants)
from hyptile.subshift import ExplicitWindow, Periodic, Substitution

P12 = Periodic("12")


# (type, maker, names of the compared fields, repr,
#  [(bad maker, error type, error text), ...])
CASES = [
    (JobConfig,
     lambda: JobConfig("kgroups", P12, 3.0, 8, 100_000, None, None),
     ("command", "spec", "radius", "nmax", "samples", "seed", "out"),
     "JobConfig(command='kgroups', spec=Periodic(word='12'), radius=3.0, "
     "nmax=8, samples=100000, seed=None, out=None)", []),
    (LocallyConstFn,
     lambda: LocallyConstFn(1, (2, Fraction(1, 2))),
     ("level", "values"),
     "LocallyConstFn(level=1, values=(2, Fraction(1, 2)))",
     [(lambda: LocallyConstFn(2, (1, 2)), ValueError,
       "value table length must be 2**level"),
      (lambda: LocallyConstFn(0, (0.5,)), ValueError,
       "0.5 is not an int or a Fraction"),
      (lambda: LocallyConstFn(0, (True,)), ValueError,
       "True is not an int or a Fraction"),
      (lambda: LocallyConstFn(True, (1, 2)), ValueError,
       "level must be an int >= 0, got True"),
      (lambda: LocallyConstFn(-1, (1,)), ValueError,
       "level must be an int >= 0, got -1")]),
    (Point,
     lambda: Point(Fraction(-3, 4), 2),
     ("x", "y"),
     "Point(x=Fraction(-3, 4), y=Fraction(2, 1))",
     [(lambda: Point(0, 0), ValueError,
       "points must lie strictly above the real axis"),
      (lambda: Point(Fraction(1, 3), 1), ValueError,
       "1/3 is not a dyadic rational"),
      (lambda: Point(0.5, 1), ValueError, "0.5 is not an int or a Fraction")]),
    (AffineMap,
     lambda: AffineMap(-1, 3),
     ("k", "b"),
     "AffineMap(k=-1, b=Fraction(3, 1))",
     [(lambda: AffineMap(0, Fraction(1, 6)), ValueError,
       "1/6 is not a dyadic rational")]),
    (TileIndex,
     lambda: TileIndex(2, -5, 3),
     ("k", "n", "colour"),
     "TileIndex(k=2, n=-5, colour=3)", []),
    (ColourWindow,
     lambda: ColourWindow("ab", -1, ("a", "b")),
     ("word", "start", "alphabet"),
     "ColourWindow(word='ab', start=-1, alphabet=('a', 'b'))",
     [(lambda: ColourWindow("1x"), ValueError,
       "letters ['x'] are not in the colour alphabet "
       "['1', '2', '3', '4', '5', '6', '7', '8', '9']")]),
    (TileSet,
     lambda: TileSet((TileIndex(1, 0), TileIndex(0, 4, 2)), 1.5),
     ("tiles", "radius"),
     "TileSet(tiles=(TileIndex(k=0, n=4, colour=2), "
     "TileIndex(k=1, n=0, colour=None)), radius=1.5)",
     [(lambda: TileSet((TileIndex(0, 0, 1), TileIndex(0, 0, 2)), 1.0),
       ValueError, "duplicate tile index")]),
    (AdjacencyReport,
     lambda: AdjacencyReport((), ((TileIndex(0, 0), "A1A2"),), 0, 0, 0, 0,
                             1, (1, 2)),
     ("interior", "boundary", "interior_positive",
             "interior_negative", "tally", "boundary_positive",
             "boundary_negative", "top_matches"),
     "AdjacencyReport(interior=(), boundary=((TileIndex(k=0, n=0, "
     "colour=None), 'A1A2'),), interior_positive=0, interior_negative=0, "
     "tally=0, boundary_positive=0, boundary_negative=1, "
     "top_matches=(1, 2))", []),
    (Periodic,
     lambda: P12,
     ("word",),
     "Periodic(word='12')",
     [(lambda: Periodic(""), ValueError, "periodic word must be nonempty"),
      (lambda: Periodic("1-2"), ValueError,
       "letters must be alphanumeric, got '-'")]),
    (Substitution,
     lambda: Substitution.of({"2": "1", "1": "12"}),
     ("rules",),
     "Substitution(rules=(('1', '12'), ('2', '1')))",
     [(lambda: Substitution(()), ValueError,
       "substitution rules must be nonempty"),
      (lambda: Substitution((("12", "1"),)), ValueError,
       "rule keys must be single letters"),
      (lambda: Substitution((("1", "1"), ("1", "11"))), ValueError,
       "duplicate rule for '1'"),
      (lambda: Substitution((("1", ""),)), ValueError,
       "empty image for letter '1'"),
      (lambda: Substitution((("1", "12"),)), ValueError,
       "image letter '2' has no rule")]),
    (ExplicitWindow,
     lambda: ExplicitWindow("12", "21", 3),
     ("left", "right", "horizon"),
     "ExplicitWindow(left='12', right='21', horizon=3)",
     [(lambda: ExplicitWindow("", "", 3), ValueError,
       "window must be nonempty"),
      (lambda: ExplicitWindow("1", "2", 0), ValueError,
       "horizon must be >= 1"),
      (lambda: ExplicitWindow("1", "2", True), ValueError,
       "horizon must be an int, got True"),
      (lambda: ExplicitWindow("1", "2", 2.5), ValueError,
       "horizon must be an int, got 2.5")]),
    (CylinderFunction,
     lambda: CylinderFunction.of("Z[1/2]", -1, {"21": Fraction(3, 2),
                                                "12": 0}),
     ("ring", "start", "coeffs"),
     "CylinderFunction(ring='Z[1/2]', start=-1, "
     "coeffs=(('21', Fraction(3, 2)),))",
     [(lambda: CylinderFunction.of("Z", 0, {"1": Fraction(1, 2)}),
       ValueError, "ring Z needs integer coefficients"),
      (lambda: CylinderFunction.of("Z", 0, {"1": 1, "12": 1}), ValueError,
       "all coefficient words must share one length")]),
    (FPAbelianGroup,
     lambda: coinvariants(P12, "Z"),
     ("ring", "rank", "torsion", "generators", "stabilized",
             "n_used", "approximate"),
     "FPAbelianGroup(ring='Z', rank=1, torsion=(), generators=(('f0', "
     "CylinderFunction(ring='Z', start=0, coeffs=(('21', 1),))),), "
     "stabilized=True, n_used=1, approximate=False)", []),
    (_Presentation,
     lambda: _presentation(Periodic("1"), "Z", 1),
     ("ring", "level", "words", "cols", "tree", "coords", "scale",
             "relations", "kernel", "v", "v_inv", "tors", "free"),
     "_Presentation(ring='Z', level=1, words=('1',), cols=('11',), "
     "tree=(), coords=((0, 0, 0),), scale=1, relations=(), "
     "kernel=((1,),), v=((1,),), v_inv=((1,),), tors=(), free=(0,))", []),
    (GapLabelGroup,
     lambda: GapLabelGroup("rational", None, (Fraction(1, 2),), (), False, 1,
                           None),
     ("kind", "minpoly", "generators", "chain", "stabilized",
             "n_used", "dyadic_base"),
     "GapLabelGroup(kind='rational', minpoly=None, "
     "generators=(Fraction(1, 2),), chain=(), "
     "stabilized=False, n_used=1, dyadic_base=None)", []),
    (GapLabelLevel,
     lambda: GapLabelLevel(2, (Fraction(1, 6),), False),
     ("n", "generators", "agrees_with_previous"),
     "GapLabelLevel(n=2, generators=(Fraction(1, 6),), "
     "agrees_with_previous=False)", []),
    (BumpProfile,
     lambda: BumpProfile(0.5, 0.25),
     ("center", "width"),
     "BumpProfile(center=0.5, width=0.25)",
     [(lambda: BumpProfile(float("nan"), 0.25), ValueError,
       "bump center and width must be finite"),
      (lambda: BumpProfile(0.5, 0.0), ValueError,
       "bump width must be positive"),
      (lambda: BumpProfile(0.2, 0.25), ValueError,
       "bump support must lie inside (0, 1)")]),
    (TFn,
     lambda: TFn(omega_part=LocallyConstFn(0, (1,))),
     ("word_part", "omega_part", "t_bump", "s_bump"),
     "TestFunction(word_part=None, omega_part=LocallyConstFn(level=0, "
     "values=(1,)), t_bump=None, s_bump=None)", []),
]


@pytest.mark.parametrize("kind, make, names, text, errors", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type(kind, make, names, text, errors):
    value = make()
    assert type(value) is kind
    assert repr(value) == text
    key = tuple(getattr(value, name) for name in names)
    if kind is Point:  # hashed without Fraction.__hash__
        key = tuple(q.as_integer_ratio() for q in key)
    assert hash(value) == hash(key)
    again = make()
    assert again == value and hash(again) == hash(value)
    assert len({value, again}) == 1
    assert value != object()
    with pytest.raises(AttributeError):
        setattr(value, names[0], None)
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    for bad, error, message in errors:
        with pytest.raises(error) as info:
            bad()
        assert str(info.value) == message


def test_group_is_a_record_of_its_fields():
    # no presentation rides along: coinvariant_class rebuilds it
    g = FPAbelianGroup("Z", 0, (), (), True, 1)
    assert g.approximate is False and not hasattr(g, "pres")
    assert g != FPAbelianGroup("Z", 0, (), (), False, 1)


@pytest.mark.parametrize("make", [
    lambda: CylinderFunction.of("Z", 0, {"1": 1}),
    lambda: LocallyConstFn(1, (1, 2)),
], ids=["CylinderFunction", "LocallyConstFn"])
def test_functions_are_not_sequences(make):
    # + and - are defined, but a repetition count means nothing
    f = make()
    with pytest.raises(TypeError):
        f * 2
    with pytest.raises(TypeError):
        2 * f
    assert (f - f) + f == f


@pytest.mark.parametrize("make", [
    lambda: CylinderFunction.of("Z", 0, {"1": 1}),
    lambda: LocallyConstFn(1, (1, 2)),
    lambda: Point(0, 1),
], ids=["CylinderFunction", "LocallyConstFn", "Point"])
def test_frozen_values_are_not_tuples(make):
    # why they share a frozen base instead of being namedtuples
    value = make()
    assert not isinstance(value, tuple)
    with pytest.raises(TypeError):
        value * 2
    with pytest.raises(TypeError):
        len(value)
    with pytest.raises(TypeError):
        value < value
