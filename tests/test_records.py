"""The records (arknit.record) against the dataclasses they replaced.

Each record is built from the same field values as its dataclass twin
(tests/oracles.py) and must give the same ==, hash (TypeError where the
dataclass was unhashable), repr and defaults.  The formerly frozen ones
still refuse every store after __init__, the checks of the old
__post_init__ still refuse malformed input, a quiver's memo stays out of
its == and hash, and a record that Record.__init__ builds refuses a wrong
number of values, as the dataclass did.
"""
import importlib

import pytest

from arknit import PRESETS, linear_quiver
from arknit.linalg import GF, QQ
from arknit.quiver import Arrow, FiniteQuiver, Path, PresetQuiver
from arknit.record import Frozen, Record
from arknit.rep import PathMatrix

from oracles import RECORD_TWINS, dataclass_twin

LINE3 = linear_quiver(3)
ID1 = ((((1, Path(1, 1)),),),)  # entries[j][i]: (coeff, path) pairs


def record(name: str):
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"arknit.{module}"), cls)


def generic(names, tag):
    """Field values with no meaning: distinct per field and per tag."""
    return tuple((tag, f) for f in names)


# (values, values differing in one field) for the records that check or
# read their fields when built; the others take generic values
VALUES = {
    "linalg.Field": ((7,), (0,)),
    "quiver.FiniteQuiver": (
        ((1, 2, 3), LINE3.arrows),
        ((1, 2, 3), (Arrow(1, 2, "1>2"), Arrow(1, 3, "1>3")))),
    "quiver.PresetQuiver": (("line",), ("zigzag",)),
    "quiver.OppositeQuiver": ((PresetQuiver("line"),), (LINE3,)),
    "rep.PathMatrix": ((LINE3, QQ, "proj", (1,), (1,), ID1),
                       (LINE3, QQ, "proj", (1,), (1,),
                        ((((2, Path(1, 1)),),),))),
}


def values(name: str):
    if name in VALUES:
        return VALUES[name]
    names = RECORD_TWINS[name][1].split()
    return generic(names, "a"), generic(names[:-1], "a") + (("b", 0),)


@pytest.mark.parametrize("name", sorted(RECORD_TWINS))
def test_a_record_matches_its_dataclass_twin(name):
    cls = record(name)
    twin = dataclass_twin(name, cls)
    frozen, names, defaults = RECORD_TWINS[name]
    assert cls._fields == tuple(names.split())
    assert issubclass(cls, Frozen) == frozen
    a, b = values(name)
    news = [cls(*a), cls(*a), cls(*b)]
    olds = [twin(*a), twin(*a), twin(*b)]
    for x, X in zip(news, olds):
        assert repr(x) == repr(X)
        assert x != X and X != x  # different classes
        if frozen:
            assert hash(x) == hash(X)
        else:
            pytest.raises(TypeError, hash, x)
            pytest.raises(TypeError, hash, X)
        for y, Y in zip(news, olds):
            assert (x == y, x != y) == (X == Y, X != Y)
    assert news[0] == news[1] and news[0] != news[2]
    sub = type(cls.__name__, (cls,), {"__slots__": ()})(*a)
    assert news[0] != sub and sub != news[0]  # == needs the same class
    if frozen:
        assert len({*news}) == len({*olds}) == 2
    # defaults: only the fields before the first default given
    required = [f for f in names.split() if f not in defaults]
    assert repr(cls(*a[:len(required)])) == repr(twin(*a[:len(required)]))


@pytest.mark.parametrize("name", sorted(RECORD_TWINS))
def test_a_record_equals_itself_without_reading_its_fields(name, monkeypatch):
    cls = record(name)
    a, _ = values(name)
    rec = cls(*a)
    other = type(cls.__name__, (cls,), {"__slots__": ()})(*a)
    assert rec != other and other != rec  # equal fields, another class

    def unread(r):
        raise AssertionError("== read the fields of an object against itself")

    monkeypatch.setattr(cls, "_values", staticmethod(unread))
    assert rec == rec and not rec != rec


@pytest.mark.parametrize("build, probe", [
    (lambda: linear_quiver(4), lambda q: q.paths_between(1, 4)),
    (PRESETS["line"], lambda q: q.succ_closure(0).describe()),
    (PRESETS["ladder"], lambda q: q.paths_between(("a", 3), ("b", 0))),
    (lambda: PRESETS["zigzag"]().opposite(),
     lambda q: q.succ_closure(2).describe()),
])
def test_two_equal_quivers_with_different_memos_are_equal(build, probe):
    used, fresh = build(), build()
    probe(used)
    used.opposite()
    assert used._memo != fresh._memo
    assert used == fresh and hash(used) == hash(fresh)
    assert {used: 1}[fresh] == 1


@pytest.mark.parametrize("char", [4, 1, -3, 9, 91])
def test_a_field_of_composite_characteristic_is_refused(char):
    with pytest.raises(ValueError, match="must be 0 or a prime"):
        GF(char)


@pytest.mark.parametrize("side, domain, codomain, entries, message", [
    ("both", (1,), (1,), ID1, "side must be"),
    ("proj", (1,), (1, 2), ID1, "row count"),
    ("proj", (1, 2), (1,), ID1, "column count"),
    ("proj", (2,), (1,), ID1, r"codomain\[0\] ~> domain\[0\]"),
    ("inj", (1,), (1,), ((((1, Path(1, 2, (Arrow(1, 2, "1>2"),))),),),),
     r"codomain\[0\] ~> domain\[0\]"),
])
def test_a_malformed_path_matrix_is_refused(side, domain, codomain, entries,
                                            message):
    with pytest.raises(ValueError, match=message):
        PathMatrix(LINE3, QQ, side, domain, codomain, entries)


@pytest.mark.parametrize("vertices, arrows, message", [
    ((1, 2), (Arrow(1, 2, "x"), Arrow(2, 1, "x")), "duplicate arrow label"),
    ((1,), (Arrow(1, 2, "x"),), "outside vertex set"),
    ((1, 2), (Arrow(1, 2, "x"), Arrow(2, 1, "y")), "oriented cycle"),
])
def test_a_malformed_finite_quiver_is_refused(vertices, arrows, message):
    with pytest.raises(ValueError, match=message):
        FiniteQuiver(vertices, arrows)


FROZEN = sorted(n for n, (frozen, _, _) in RECORD_TWINS.items() if frozen)


def test_the_formerly_frozen_records_are_these_twelve():
    assert [n.split(".")[1] for n in FROZEN] == [
        "Field", "Presentation", "FiniteQuiver", "OppositeQuiver", "Path",
        "PresetQuiver", "Ray", "SubquiverClass", "VertexSet", "PathMatrix",
        "RepClassCertificate", "RungFamily"]


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_refuses_every_store_after_init(name):
    x = record(name)(*values(name)[0])
    before = repr(x)
    for f in x._fields + ("extra",):
        with pytest.raises(AttributeError, match=f"assign to field '{f}'"):
            setattr(x, f, None)
        with pytest.raises(AttributeError, match=f"delete field '{f}'"):
            delattr(x, f)
    assert repr(x) == before


BUILT = sorted(n for n in RECORD_TWINS if record(n).__init__ is Record.__init__)


def test_record_builds_these_eighteen():
    assert [n.split(".")[1] for n in BUILT] == [
        "ARComponent", "ARNode", "ASReport", "ShapeHypothesis", "FiniteExtReport", "DecomposeReport",
        "EndAlgebra", "Summand", "SES", "Presentation", "Ray",
        "SubquiverClass", "VertexSet", "CrossingProfile", "EndProfile",
        "RayProfile", "RepClassCertificate", "RungFamily"]


@pytest.mark.parametrize("name", BUILT)
def test_a_record_refuses_one_value_too_few_or_too_many(name):
    cls = record(name)
    a, _ = values(name)
    for given in (a[:-1], a + (("c", 0),)):
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__} takes "
                           rf"{len(a)} values, got {len(given)}$"):
            cls(*given)


def test_a_mutable_record_takes_a_store_to_a_field():
    node = record("ar.ARNode")(0, None, False, False, "open", 0, ())
    node.status = "expanded"
    assert node.status == "expanded"
    with pytest.raises(AttributeError):
        node.extra = 1
