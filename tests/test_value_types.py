"""Value semantics of the package's plain value types.

They are ``__slots__`` classes or named tuples, not frozen dataclasses, so
what the dataclass machinery gave for free is pinned here: keyword
construction, equality with their own type only, hashing, read-only fields,
validation with the same messages, and fresh default dicts.
"""
import pytest

from fanocert.catalog import Certificate, Report, load_cases
from fanocert.diophantine import Interval
from fanocert.gonality import TetragonalReport
from fanocert.lattice import DivisorClass, FamilySpec, IntersectionLattice
from fanocert.outcome import CheckOutcome
from fanocert.riemannroch import LinearSeries
from fanocert.ruled import RuledLattice

CASE = load_cases()[0]
CHECK = CheckOutcome(name="n", rule="r", kind="verified", passed=True, inputs={"d": 1})

# Keyword arguments of an instance, and of one that differs from it in one field.
VALUES = {
    DivisorClass: ({"a": 1, "b": -2}, {"a": 1, "b": -3}),
    IntersectionLattice: ({"gram": ((6, 5), (5, -2))}, {"gram": ((6, 5), (5, 0))}),
    FamilySpec: ({"name": "q", "h_square": 6, "index_multiplier": 3, "cutting_bound": 18,
                  "anticanonical_cube_base": 54},
                 {"name": "q", "h_square": 6, "index_multiplier": 3, "cutting_bound": 18,
                  "anticanonical_cube_base": 54, "derived_constants": True}),
    CheckOutcome: ({"name": "n", "rule": "r", "kind": "verified", "passed": True},
                   {"name": "n", "rule": "r", "kind": "verified", "passed": False}),
    Interval: ({"lo": 0, "hi": 6}, {"lo": 0, "hi": 6, "hi_open": True}),
    TetragonalReport: ({"checks": (CHECK,), "discrepancies": ()},
                       {"checks": (CHECK,), "discrepancies": ("gap",)}),
    LinearSeries: ({"r": 2, "d": 6}, {"r": 2, "d": 7}),
    RuledLattice: ({"n": 1}, {"n": 2}),
    Certificate: ({"case": CASE, "computed": "Realizable", "checks": (CHECK,)},
                  {"case": CASE, "computed": "Unverified", "checks": (CHECK,)}),
    Report: ({"certificates": ()}, {"certificates": (), "summary": {"cases": 0}}),
}
TYPES = list(VALUES)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equality_is_by_value_and_by_type(cls):
    same, other = VALUES[cls]
    assert cls(**same) == cls(**same)
    assert not cls(**same) != cls(**same)
    assert cls(**same) != cls(**other)
    fields = tuple(same.values())
    assert cls(**same) != fields and fields != cls(**same)
    assert not cls(**same) == fields


@pytest.mark.parametrize("cls", [DivisorClass, IntersectionLattice, FamilySpec, Interval,
                                 LinearSeries, RuledLattice], ids=lambda cls: cls.__name__)
def test_equal_values_hash_equal(cls):
    same, _ = VALUES[cls]
    assert hash(cls(**same)) == hash(cls(**same))
    assert len({cls(**same), cls(**same)}) == 1


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    same, _ = VALUES[cls]
    value = cls(**same)
    field = next(iter(same))
    with pytest.raises(AttributeError):
        setattr(value, field, same[field])
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == same[field]


def test_checks_and_classes_are_not_tuples():
    # A tuple would be read as a decomposition, or written to a report as a list.
    assert not isinstance(CHECK, tuple)
    assert not isinstance(DivisorClass(1, 0), tuple)
    assert list(DivisorClass(1, -2)) == [1, -2]


@pytest.mark.parametrize("build, message", [
    (lambda: IntersectionLattice(((6, 3), (2, 4))), "^Gram matrix must be symmetric$"),
    (lambda: IntersectionLattice(((5, 3), (3, 4))), "^diagonal Gram entries must be even$"),
    (lambda: IntersectionLattice(((6, 3), (3, 5))), "^diagonal Gram entries must be even$"),
    (lambda: FamilySpec("q", 0, 3, 18, 54),
     "^polarization square must be a positive even integer$"),
    (lambda: FamilySpec("q", 7, 3, 18, 54),
     "^polarization square must be a positive even integer$"),
    (lambda: FamilySpec("q", 6, 0, 18, 54), r"^index multiplier must be >= 1$"),
    (lambda: CheckOutcome("n", "r", "proved", True), "^unknown outcome kind 'proved'$"),
    (lambda: LinearSeries(-1, 6), r"^a linear series needs r >= 0 and d >= 0$"),
    (lambda: LinearSeries(r=1, d=-1), r"^a linear series needs r >= 0 and d >= 0$"),
    (lambda: RuledLattice(-1), r"^need n >= 0$"),
])
def test_validation_errors_keep_their_message(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_default_dicts_are_fresh():
    first = CheckOutcome("n", "r", "verified", True)
    second = CheckOutcome("n", "r", "verified", True)
    assert first.inputs == first.result == {}
    assert first.inputs is not second.inputs and first.result is not second.result
    assert first.inputs is not first.result
    assert Report(certificates=()).summary == {}
    assert Report(certificates=()).summary is not Report(certificates=()).summary


def test_defaults_and_keyword_construction():
    assert Interval(0, 6) == Interval(lo=0, hi=6, lo_open=False, hi_open=False)
    assert Interval.open(0, 6) == Interval(0, 6, True, True)
    assert FamilySpec("q", 6, 3, 18, 54).derived_constants is False
    assert Certificate(case=CASE, computed="Realizable", checks=()).discrepancies == ()
    assert CheckOutcome("n", "r", "verified", True).witnesses == ()


def test_lattice_stores_its_determinant():
    for gram in (((6, 5), (5, -2)), ((10, 3), (3, 8)), ((14, 0), (0, 0)), ((2, -7), (-7, 4))):
        (p, q), (_, s) = gram
        lattice = IntersectionLattice(gram)
        assert lattice.det == p * s - q * q
        with pytest.raises(AttributeError):
            lattice.det = 0
        with pytest.raises(AttributeError):
            del lattice.det
        assert lattice.det == p * s - q * q


def test_lattice_determinant_plays_no_part_in_equality_hash_or_repr():
    gram = ((6, 5), (5, -2))
    plain, tampered = IntersectionLattice(gram), IntersectionLattice(gram)
    # Only the slot's own setter can overwrite the stored value.
    IntersectionLattice.det.__set__(tampered, 0)
    assert tampered.det == 0 and plain.det == -37
    assert tampered == plain and hash(tampered) == hash(plain)
    assert repr(tampered) == repr(plain) == "IntersectionLattice(gram=((6, 5), (5, -2)))"
