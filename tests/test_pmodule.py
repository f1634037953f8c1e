import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persistd import (
    EMPTY,
    IntervalParseError,
    ModuleFormatError,
    PModule,
    parse_interval,
    parse_module,
)

from oracles import module_dimension, persistent_dimension, radical_dimension, sample_points
from strategies import modules

iv = parse_interval


def dims_match(m: PModule, reference, *extra_modules):
    pts = sample_points(*(list(m.summands) + [s for x in extra_modules for s in x.summands]))
    return all(module_dimension(m, x) == reference(x) for x in pts)


class TestConstruction:
    def test_canonical_order_is_isomorphism(self):
        a = PModule.of("[3,4]", "[0,2)", "[0,2)")
        b = PModule.of("[0,2)", "[3,4]", "[0,2)")
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_summand_rejected(self):
        with pytest.raises(ValueError):
            PModule([EMPTY])

    def test_zero(self):
        assert PModule.zero().is_zero
        assert len(PModule.zero()) == 0

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("empty", ValueError, "the empty interval cannot be a summand"),
            ("(1,1)", ValueError, "the empty interval cannot be a summand"),
            ("[2,1)", IntervalParseError,
             "lower endpoint exceeds upper endpoint in interval '[2,1)'"),
            ("[1/0,1)", IntervalParseError,
             "bad lower endpoint '1/0' in interval '[1/0,1)': "
             "expected p/q, an integer, inf or -inf"),
        ],
    )
    def test_of_errors(self, text, error, message):
        """``PModule.of`` refuses an empty or off-grammar text with the
        exception and message it gave when it built ``Interval`` values."""
        with pytest.raises(ValueError) as err:
            PModule.of("[0,1)", text)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_of_repeated_and_unreduced_texts(self):
        texts = ("[1/2,1)", "[2/4,1)", "[1/2,1)", "(-3/6,4/4]")
        m = PModule.of(*texts)
        parsed = parse_module('{"summands": [{"interval": "[1/2,1)", "multiplicity": 3}, '
                              '{"interval": "(-1/2,1]"}]}')
        assert m == parsed
        assert m._ints == parsed._ints
        assert m == PModule([iv(t) for t in texts])


class TestDirectSum:
    def test_multiset_union(self):
        one = PModule.of("[0,1)")
        assert one.direct_sum(one) == PModule.of("[0,1)", "[0,1)")

    def test_zero_identity(self):
        m = PModule.of("[0,2)", "[3,4]")
        assert m.direct_sum(PModule.zero()) == m

    def test_mixed(self):
        assert PModule.of("[0,2)").direct_sum(PModule.of("[3,4]")) == PModule.of(
            "[0,2)", "[3,4]"
        )


class TestClassify:
    def test_unbounded_summand(self):
        assert not PModule.of("[0,inf)").classify().in_ffid

    def test_bounded_in_box(self):
        got = PModule.of("[1,4]").classify(bounds=(1, 4))
        assert got.in_ffid_cd is True
        assert got.in_ffid and got.in_fid
        assert PModule.of("[0,5)").classify(bounds=(1, 4)).in_ffid_cd is False

    def test_ephemeral(self):
        got = PModule.of("[0,0]", "[5,5]").classify()
        assert got.is_ephemeral and not got.is_zero

    def test_zero_module_in_everything(self):
        got = PModule.zero().classify(bounds=(0, 1))
        assert got.is_zero and got.is_ephemeral and got.in_ffid and got.in_ffid_cd

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            PModule.of("[0,1)").classify(bounds=(1, 1))

    def test_no_bounds_leaves_flag_unset(self):
        assert PModule.of("[0,1)").classify().in_ffid_cd is None


class TestRadical:
    def test_opens_closed_left_end(self):
        assert PModule.of("[0,3)").radical() == PModule.of("(0,3)")

    def test_drops_singletons(self):
        assert PModule.of("[2,2]").radical().is_zero

    def test_already_radical(self):
        assert PModule.of("(0,3)").radical() == PModule.of("(0,3)")

    def test_idempotent_example(self):
        m = PModule.of("[0,3)", "[1,1]", "(2,5]")
        assert m.radical().radical() == m.radical()

    @given(modules())
    def test_pointwise_oracle(self, m):
        rad = m.radical()
        assert dims_match(rad, lambda x: radical_dimension(m, x), m)

    @given(modules())
    def test_idempotent(self, m):
        assert m.radical().radical() == m.radical()


class TestPersistentSubmodule:
    def test_half_open(self):
        m = PModule.of("[1,4)")
        assert m.persistent_submodule(1) == PModule.of("[2,4)")
        assert m.persistent_submodule(3).is_zero

    def test_p_zero_is_identity(self):
        m = PModule.of("[0,2)", "(1,5]")
        assert m.persistent_submodule(0) == m

    def test_closed_interval_shrinks_to_singleton(self):
        assert PModule.of("[0,2]").persistent_submodule(2) == PModule.of("[2,2]")

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            PModule.of("[0,1)").persistent_submodule(-1)

    @given(modules(), st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 4])))
    def test_pointwise_oracle(self, m, p):
        sub = m.persistent_submodule(p)
        pts = sample_points(*(list(m.summands) + list(sub.summands)))
        shifted = sorted(set(pts) | {x + p for x in pts})
        assert all(
            module_dimension(sub, x) == persistent_dimension(m, p, x) for x in shifted
        )


class TestContractionPath:
    def test_midpoint_stage(self):
        assert PModule.of("[0,2)").contraction_path(Fraction(1, 2)) == PModule.of(
            "[1/2,3/2)"
        )

    def test_ends(self):
        m = PModule.of("(0,2]", "[3,7)")
        assert m.contraction_path(0) == m
        assert m.contraction_path(1).is_zero

    def test_singletons_vanish_immediately(self):
        assert PModule.of("[1,1]").contraction_path(Fraction(1, 16)).is_zero

    def test_unbounded_summand_rejected(self):
        with pytest.raises(ValueError):
            PModule.of("[0,inf)").contraction_path(Fraction(1, 2))

    def test_parameter_range_enforced(self):
        with pytest.raises(ValueError):
            PModule.of("[0,1)").contraction_path(2)


class TestRankAndDimension:
    def test_rank_counts_containing_summands(self):
        m = PModule.of("[0,4)", "[1,2]", "(0,8)")
        assert m.rank(1, 2) == 3
        assert m.rank(0, 2) == 1  # (0,8) misses 0, [1,2] misses it too
        assert m.rank(0, 4) == 0  # [0,4) misses 4
        assert m.rank(5, 7) == 1

    def test_rank_needs_ordered_pair(self):
        with pytest.raises(ValueError):
            PModule.of("[0,1)").rank(2, 1)

    def test_dimension_at(self):
        m = PModule.of("[0,2)", "[1,3)")
        assert m.dimension_at(0) == 1
        assert m.dimension_at(1) == 2
        assert m.dimension_at(Fraction(5, 2)) == 1
        assert m.dimension_at(3) == 0


class TestJson:
    def test_round_trip_groups_multiplicity(self):
        m = PModule.of("[0,1)", "[0,1)", "(2,3]")
        obj = m.to_json_obj()
        assert {"interval": "[0,1)", "multiplicity": 2} in obj["summands"]
        assert parse_module(m.to_json()) == m

    @given(modules())
    def test_round_trip(self, m):
        assert parse_module(m.to_json()) == m
        assert parse_module(m.to_json().encode()) == m

    def test_spec_example(self):
        m = parse_module('{"summands":[{"interval":"[0,2)","multiplicity":1}]}')
        assert m == PModule.of("[0,2)")

    def test_missing_multiplicity_defaults_to_one(self):
        m = parse_module('{"summands":[{"interval":"[0,2)"}]}')
        assert m == PModule.of("[0,2)")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("{", "invalid module JSON"),
            ("[]", "summands"),
            ('{"summands": [17]}', "#0"),
            ('{"summands": [{"interval": "[0,1)", "multiplicity": 0}]}', "#0"),
            ('{"summands": [{"interval": "(1,1)", "multiplicity": 1}]}', "empty"),
            ('{"summands": [{"interval": "[2,1)"}]}', "[2,1)"),
        ],
    )
    def test_errors_carry_position(self, text, fragment):
        with pytest.raises(ValueError) as err:
            parse_module(text)
        assert fragment in str(err.value)

    def test_json_error_reports_location(self):
        with pytest.raises(ModuleFormatError, match="line"):
            parse_module('{"summands": [,]}')

    def test_bytes_not_utf8_are_invalid_json(self):
        with pytest.raises(ModuleFormatError, match="^invalid module JSON: 'utf-8' codec can't "
                                                    "decode byte 0xff in position 33"):
            parse_module(b'{"summands": [{"interval": "[0,1)\xff"}]}')

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter has no int-to-text digit limit")
    def test_integer_past_the_digit_limit_is_invalid_json(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(ModuleFormatError, match=f"^invalid module JSON: .*{digits} digits"):
            parse_module('{"summands": [{"interval": "[0,1)", "multiplicity": 1%s}]}'
                         % ("0" * (digits - 1)))


def test_parsing_builds_no_fraction(monkeypatch, calls):
    """``parse_module`` orders the runs on exact int keys, which tell the
    upper endpoints 1/p apart, so canonical ordering of a few hundred
    ``[0,1/p)`` runs (p from 1,000,003, odd and coprime to 3, in both
    orders) builds no ``Fraction`` and compares none, and the runs still
    come out in order."""
    dens = [p for p in range(1_000_003, 1_002_000, 2) if p % 3][:300]
    for order in (dens, dens[::-1]):
        text = '{"summands": [%s]}' % ", ".join(
            f'{{"interval": "[0,1/{p})"}}' for p in order)
        seen = {name: calls(Fraction, name) for name in ("__new__", "__eq__", "__lt__")}
        m = parse_module(text)
        assert not any(seen.values())
        m.summands  # the patches are live: the projection builds fractions
        assert seen["__new__"]
        monkeypatch.undo()
        assert [s.hi.value.as_fraction for s in m.summands] == [
            Fraction(1, p) for p in sorted(dens, reverse=True)]
