"""errors.Record: the immutable value class of the library and the harness."""

import pytest

from cml_kit.errors import Record


class Point(Record):
    x: int
    y: int = 0
    label: str = "p"


class Other(Record):
    x: int
    y: int = 0
    label: str = "p"


def test_positional_keyword_and_default_construction():
    assert Point(1, 2, "q")._values() == (1, 2, "q")
    assert Point(x=1, label="q")._values() == (1, 0, "q")
    assert Point(1)._values() == (1, 0, "p")
    assert Point(1, label="q", y=2) == Point(1, 2, "q")
    assert Point._fields == ("x", "y", "label")


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match=r"Point\(\) takes 3 arguments"):
        Point(1, 2, "q", 4)
    with pytest.raises(TypeError, match=r"Point\(\) missing argument 'x'"):
        Point(y=2)
    with pytest.raises(TypeError, match=r"unexpected arguments \['z'\]"):
        Point(1, z=3)
    # a field given both positionally and by keyword is left over as unexpected
    with pytest.raises(TypeError, match=r"unexpected arguments \['x'\]"):
        Point(1, x=2)


def test_equality_holds_within_one_class_and_hash_follows_it():
    assert Point(1, 2) == Point(1, 2) and Point(1, 2) != Point(2, 1)
    assert Point(1, 2) != Other(1, 2)
    assert Point(1, 2) != (1, 2, "p")
    assert hash(Point(1, 2)) == hash(Point(x=1, y=2))
    assert len({Point(1), Point(1, 0, "p"), Other(1)}) == 2


def test_repr_names_each_field():
    assert repr(Point(1, label="q")) == "Point(x=1, y=0, label='q')"


def test_fields_cannot_be_set_or_deleted():
    p = Point(1)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        p.x = 2
    with pytest.raises(AttributeError, match="cannot assign to field 'z'"):
        p.z = 2
    with pytest.raises(AttributeError, match="cannot delete field 'y'"):
        del p.y
    assert p == Point(1)
