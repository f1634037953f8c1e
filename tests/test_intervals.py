from fractions import Fraction

import pytest
from hypothesis import given

from persistd import (
    EMPTY,
    Endpoint,
    ExtRational,
    Interval,
    IntervalParseError,
    MalformedIntervalError,
    NEG_INF,
    OrderingError,
    POS_INF,
    interval,
    parse_interval,
    residuals,
)

from oracles import erode, leq_oracle, precedes_oracle, subset_oracle
from strategies import intervals, nonempty_intervals, small_eps

iv = parse_interval


class TestExtRational:
    def test_total_order(self):
        assert NEG_INF < ExtRational(-1000) < ExtRational(Fraction(1, 3)) < POS_INF
        assert not NEG_INF < NEG_INF

    def test_str_and_parse(self):
        assert str(ExtRational(Fraction(2, 4))) == "1/2"
        assert str(POS_INF) == "inf"
        assert ExtRational("-inf") == NEG_INF
        assert ExtRational("7/2") == ExtRational(Fraction(7, 2))

    def test_shift_keeps_infinities(self):
        assert POS_INF + Fraction(5) == POS_INF
        assert NEG_INF - 3 == NEG_INF
        assert ExtRational(1) + Fraction(1, 2) == ExtRational(Fraction(3, 2))

    def test_gap(self):
        assert ExtRational(1).gap(ExtRational(4)) == ExtRational(3)
        assert POS_INF.gap(POS_INF) == ExtRational(0)
        assert POS_INF.gap(ExtRational(0)) == POS_INF
        assert POS_INF.gap(NEG_INF) == POS_INF

    @pytest.mark.parametrize("other", [Fraction(2), 2])
    def test_ordering_against_plain_numbers_raises(self, other):
        for compare in (
            lambda: ExtRational(1) < other,
            lambda: ExtRational(1) <= other,
            lambda: ExtRational(1) > other,
            lambda: ExtRational(1) >= other,
            lambda: other > POS_INF,
        ):
            with pytest.raises(TypeError):
                compare()

    def test_equality_against_plain_numbers_is_false(self):
        assert ExtRational(1) != 1
        assert ExtRational(Fraction(1, 2)) != Fraction(1, 2)
        assert ExtRational(1) < ExtRational(Fraction(2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ExtRational(0.5)

    def test_opposite_infinities_do_not_add(self):
        with pytest.raises(ArithmeticError):
            POS_INF + NEG_INF


class TestConstruction:
    def test_direct(self):
        assert str(interval(0, 2, "[)")) == "[0,2)"

    def test_singleton(self):
        s = interval(3, 3, "[]")
        assert s.is_singleton and str(s) == "[3,3]"

    def test_pointless_pair_normalizes_to_empty(self):
        assert interval(5, 5, "(]") is EMPTY or interval(5, 5, "(]").is_empty
        assert interval(5, 4, "[)").is_empty

    def test_closed_infinity_rejected(self):
        with pytest.raises(MalformedIntervalError):
            Endpoint(POS_INF, True)
        with pytest.raises(MalformedIntervalError):
            iv("[-inf,0]")

    def test_invalid_direct_interval_rejected(self):
        with pytest.raises(MalformedIntervalError):
            Interval(Endpoint(ExtRational(2), True), Endpoint(ExtRational(1), True))

    @pytest.mark.parametrize("bounds", ["", "[", ")", "[)]", "(]]", "[[)", ")(", "[}"])
    def test_bounds_are_two_brackets(self, bounds):
        with pytest.raises(ValueError, match=r"^bounds must look like '\[\)' or '\(\]', got "):
            interval(0, 2, bounds)


class TestParse:
    @pytest.mark.parametrize(
        "text", ["[0,2)", "(0,2)", "[0,2]", "(0,2]", "[-3/2,7/3)", "[3,3]", "empty", "[0,inf)", "(-inf,inf)"]
    )
    def test_round_trip(self, text):
        assert str(iv(text)) == text

    def test_whitespace_tolerated(self):
        i = iv("[1/3, inf)")
        assert i.lo.value == ExtRational(Fraction(1, 3)) and i.lo.closed
        assert i.hi.value == POS_INF and not i.hi.closed

    def test_backwards_endpoints_rejected(self):
        with pytest.raises(IntervalParseError, match=r"\[2,1\)"):
            iv("[2,1)")

    @pytest.mark.parametrize("text", ["[0;2)", "0,2", "[a,2)", "[1,2/0)", "[1 2)", "[1,2,3)"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises((IntervalParseError, MalformedIntervalError)):
            iv(text)

    # Fraction() would take these; the grammar is p/q or an integer, and an
    # exponent could ask for a power of ten with millions of digits.
    @pytest.mark.parametrize("text", ["[0,1.5)", "[0,1e3)", "[1_0,20)", "[0,1e6000000)"])
    def test_off_grammar_numbers_rejected(self, text):
        with pytest.raises(IntervalParseError, match="expected p/q"):
            iv(text)

    def test_signs_and_spaces_accepted(self):
        assert iv("[-3/4, +2)") == interval(Fraction(-3, 4), 2, "[)")
        assert iv("( 1/2 ,1]") == interval(Fraction(1, 2), 1, "(]")
        assert ExtRational(" 1/2 ") == ExtRational(Fraction(1, 2))
        assert ExtRational("+inf") == POS_INF

    @pytest.mark.parametrize("text", ["1.5", "1e3", "1_0", "0x10", "1/-2", "--1", "inf/2"])
    def test_ext_rational_text_is_strict(self, text):
        with pytest.raises(ValueError, match="not an extended rational"):
            ExtRational(text)


class TestIntersect:
    def test_overlap(self):
        assert iv("[0,5)").intersect(iv("[3,8)")) == iv("[3,5)")

    def test_open_tightens(self):
        assert iv("[0,2]").intersect(iv("(0,2)")) == iv("(0,2)")

    def test_disjoint(self):
        assert iv("[0,1)").intersect(iv("[1,2)")).is_empty

    @given(intervals(), intervals())
    def test_subset_of_both(self, a, b):
        k = a.intersect(b)
        assert k.is_subset_of(a) and k.is_subset_of(b)
        assert subset_oracle(k, a) and subset_oracle(k, b)

    @given(intervals(), intervals(), intervals())
    def test_greatest_lower_bound(self, a, b, k):
        if k.is_subset_of(a) and k.is_subset_of(b):
            assert k.is_subset_of(a.intersect(b))


class TestLeq:
    def test_spec_examples(self):
        assert iv("[0,3)").leq(iv("[1,5)"))
        assert not iv("[1,5)").leq(iv("[0,3)"))

    def test_decoration_sharp_pair_is_incomparable(self):
        # [0,2] has its sup inside itself but (0,2) does not, and dually at
        # the inf, so neither direction of the order holds.
        a, b = iv("[0,2]"), iv("(0,2)")
        assert not a.leq(b)
        assert not b.leq(a)
        assert not leq_oracle(a, b) and not leq_oracle(b, a)

    def test_empty_conventions(self):
        assert EMPTY.leq(EMPTY)
        assert not EMPTY.leq(iv("[0,1)"))
        assert not iv("[0,1)").leq(EMPTY)

    @given(intervals(), intervals())
    def test_matches_sample_oracle(self, a, b):
        if a.is_empty or b.is_empty:
            return
        assert a.leq(b) == leq_oracle(a, b)

    @given(nonempty_intervals())
    def test_reflexive(self, a):
        assert a.leq(a)

    @given(nonempty_intervals(), nonempty_intervals())
    def test_antisymmetric(self, a, b):
        if a.leq(b) and b.leq(a):
            assert a == b

    @given(nonempty_intervals(), nonempty_intervals(), nonempty_intervals())
    def test_transitive(self, a, b, c):
        if a.leq(b) and b.leq(c):
            assert a.leq(c)

    @given(nonempty_intervals(), nonempty_intervals(), nonempty_intervals())
    def test_sandwich_lemmas(self, i, j, k):
        # For K <= J <= I the outer overlap lands inside J and factors
        # through the two inner overlaps.
        if not (k.leq(j) and j.leq(i)):
            return
        outer = i.intersect(k)
        assert outer.is_subset_of(j)
        assert outer == i.intersect(j).intersect(j.intersect(k))


class TestStrictlyPrecedes:
    def test_examples(self):
        assert iv("[0,1)").strictly_precedes(iv("[1,2)"))
        assert not iv("[0,2)").strictly_precedes(iv("[1,3)"))

    @given(nonempty_intervals(), nonempty_intervals())
    def test_matches_oracle(self, a, b):
        assert a.strictly_precedes(b) == precedes_oracle(a, b)

    @given(nonempty_intervals(), nonempty_intervals())
    def test_agrees_with_leq_on_disjoint(self, a, b):
        if a.intersect(b).is_empty:
            assert a.leq(b) == a.strictly_precedes(b)


class TestResiduals:
    def test_overlapping(self):
        assert residuals(iv("[0,5)"), iv("[3,8)")) == (iv("[0,3)"), iv("[5,8)"))

    def test_identical(self):
        left, right = residuals(iv("[0,5)"), iv("[0,5)"))
        assert left.is_empty and right.is_empty

    def test_precondition_enforced(self):
        with pytest.raises(OrderingError):
            residuals(iv("[0,2]"), iv("(0,2)"))
        with pytest.raises(OrderingError):
            residuals(EMPTY, iv("[0,1)"))

    def test_disjoint_returns_both(self):
        assert residuals(iv("[0,1)"), iv("[2,3)")) == (iv("[0,1)"), iv("[2,3)"))

    @given(nonempty_intervals(), nonempty_intervals())
    def test_ordering_chain(self, j, i):
        if not j.leq(i):
            return
        k = i.intersect(j)
        j_part, i_part = residuals(j, i)
        assert j_part.strictly_precedes(k)
        assert k.strictly_precedes(i_part)
        # residual parts recombine to the original sets
        for part, whole in ((j_part, j), (i_part, i)):
            assert part.is_subset_of(whole)
            assert part.intersect(k).is_empty


class TestDiameterShiftErode:
    def test_diameter(self):
        assert iv("[0,2)").diameter() == ExtRational(2)
        assert iv("[3,3]").diameter() == ExtRational(0)
        assert iv("[0,inf)").diameter() == POS_INF
        assert EMPTY.diameter() == ExtRational(0)

    def test_shift_examples(self):
        assert iv("[1,4)").shift(Fraction(1, 2)) == iv("[1/2,7/2)")
        assert iv("[0,inf)").shift(3) == iv("[-3,inf)")

    @given(intervals(), small_eps)
    def test_shift_round_trip(self, i, eps):
        assert i.shift(eps).shift(-eps) == i

    @given(nonempty_intervals(), nonempty_intervals(), small_eps)
    def test_shift_is_order_isomorphism(self, a, b, eps):
        assert a.leq(b) == a.shift(eps).leq(b.shift(eps))

    @given(nonempty_intervals(), small_eps)
    def test_nonnegative_shift_precedes_original(self, i, eps):
        assert i.shift(eps).leq(i)

    def test_erode_examples(self):
        assert erode(iv("[0,10)"), 2) == iv("[2,8)")
        assert erode(iv("[0,2]"), 1) == iv("[1,1]")
        assert erode(iv("[0,2)"), 1).is_empty

    def test_erode_negative_rejected(self):
        with pytest.raises(ValueError):
            erode(iv("[0,1)"), -1)

    def test_erode_matches_definition(self):
        i = iv("(1/2,9/2]")
        eps = Fraction(3, 4)
        assert erode(i, eps) == i.shift(eps).intersect(i.shift(-eps))

    @given(nonempty_intervals(), small_eps, small_eps)
    def test_erode_antitone(self, i, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        assert erode(i, hi).is_subset_of(erode(i, lo))

    @given(nonempty_intervals(), small_eps)
    def test_erosion_sandwich(self, i, eps):
        eroded = erode(i, eps)
        if not eroded.is_empty:
            assert i.shift(eps).leq(eroded)
            assert eroded.leq(i.shift(-eps))
