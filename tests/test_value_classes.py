"""Value semantics of the package's immutable classes.

``Endpoint`` and ``Interval`` compare and hash by their fields, are equal
only to their own class, and refuse assignment.  They, ``ExtRational`` and
``PModule`` survive ``copy`` and ``pickle``.  The records are named tuples
with the field names, keyword construction and ``repr`` of the frozen
dataclasses they replaced, which the tests rebuild as a reference.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given

from persistd import (
    EMPTY,
    CanonicalMapParts,
    ClassMembership,
    Endpoint,
    ExtRational,
    Interval,
    MatchingCertificate,
    SuiteReport,
    parse_interval,
)
from persistd.verify import PropertyCheck, PropertyResult

from strategies import intervals, modules


def interval_fields(i: Interval):
    """An interval's fields as plain values: (sign, fraction, closed) per endpoint."""
    return tuple(
        None if e is None else (e.value.sign, e.value.value, e.closed) for e in (i.lo, i.hi)
    )


def endpoints(i: Interval):
    return [] if i.is_empty else [i.lo, i.hi]


@given(intervals(), intervals())
def test_equality_and_hash_follow_the_fields(a, b):
    twin = parse_interval(str(a))
    assert twin == a and hash(twin) == hash(a)
    assert twin is not a or a is EMPTY
    assert (a == b) == (interval_fields(a) == interval_fields(b))
    assert (a != b) == (not a == b)
    if a == b:
        assert hash(a) == hash(b)
    for e, f in zip(endpoints(a), endpoints(twin)):
        assert e == f and hash(e) == hash(f)
    for e in endpoints(a):
        for f in endpoints(b):
            assert (e == f) == ((e.value, e.closed) == (f.value, f.closed))


@given(intervals())
def test_equal_only_to_the_same_class(a):
    class SubInterval(Interval):
        __slots__ = ()

    assert a != SubInterval(a.lo, a.hi)
    assert a != (a.lo, a.hi) and a != str(a)
    for e in endpoints(a):
        assert e != (e.value, e.closed) and e != e.value
        assert e.__eq__((e.value, e.closed)) is NotImplemented
    assert a.__eq__((a.lo, a.hi)) is NotImplemented


@given(intervals())
def test_assignment_raises(a):
    for name in ("lo", "hi", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for e in endpoints(a):
        for name in ("value", "closed", "extra"):
            with pytest.raises(AttributeError):
                setattr(e, name, True)
    assert not hasattr(a, "__dict__")


ROUND_TRIPS = [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]


@given(intervals(), modules(max_summands=4, finite_only=False, max_copies=3))
def test_copy_and_pickle_round_trip(a, m):
    for value in [a, m, *endpoints(a), *(e.value for e in endpoints(a))]:
        for trip in ROUND_TRIPS:
            twin = trip(value)
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert str(twin) == str(value)
            with pytest.raises(AttributeError):
                setattr(twin, type(twin).__slots__[0], None)
    assert pickle.loads(pickle.dumps(m)).summands == m.summands


def test_endpoint_wraps_its_value():
    e = Endpoint(Fraction(1, 2), True)
    assert type(e.value) is ExtRational and e.value == ExtRational(Fraction(1, 2))
    assert Endpoint("-inf", False).value == ExtRational("-inf")
    assert e == Endpoint(ExtRational("1/2"), True) != Endpoint(Fraction(1, 2), False)


def test_repr_and_str():
    e = Endpoint(Fraction(1, 2), True)
    assert repr(e) == "Endpoint(1/2, closed)"
    assert repr(Endpoint(ExtRational("inf"), False)) == "Endpoint(inf, open)"
    i = parse_interval("(-inf, 1/2]")
    assert repr(i) == "Interval('(-inf,1/2]')" and str(i) == "(-inf,1/2]"
    assert repr(EMPTY) == "Interval('empty')" and str(EMPTY) == "empty"


def _dataclass_like(record):
    return dataclasses.make_dataclass(
        record.__name__, [(name, object) for name in record._fields], frozen=True
    )


RECORDS = [
    (ClassMembership, ("in_fid", "in_ffid", "in_ffid_cd", "is_ephemeral", "is_zero"),
     (True, False, None, False, True)),
    (MatchingCertificate, ("threshold", "pairs", "unmatched_m", "unmatched_n"),
     (ExtRational("1/2"), ((0, 1),), (1,), (0,))),
    (CanonicalMapParts, ("image", "kernel", "cokernel"),
     (parse_interval("[1,2)"), parse_interval("[2,3)"), EMPTY)),
    (PropertyCheck, ("prop", "generate", "check", "deterministic"),
     ("p", len, bool, True)),
    (PropertyResult, ("property", "status", "trials", "counterexample"),
     ("p", "fail", 3, {"trial": 2, "case": {}})),
    (SuiteReport, ("suite", "seed", "trials", "params", "results"),
     ("s", 0, 5, (("N", "3"),), ())),
]


@pytest.mark.parametrize("record,fields,values", RECORDS)
def test_records_keep_the_dataclass_surface(record, fields, values):
    assert record._fields == fields
    kwargs = dict(zip(fields, values))
    built = record(**kwargs)
    assert built == record(*values) == values
    assert [getattr(built, f) for f in fields] == list(values)
    assert built._asdict() == kwargs
    assert repr(built) == repr(_dataclass_like(record)(**kwargs))
    with pytest.raises(AttributeError):
        setattr(built, fields[0], values[0])


def test_property_check_defaults_to_randomized():
    check = PropertyCheck("p", len, bool)
    assert check.deterministic is False
    assert check == PropertyCheck(prop="p", generate=len, check=bool, deterministic=False)
