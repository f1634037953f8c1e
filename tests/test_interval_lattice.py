"""Differential tests: the per-interval functions, which run on the
integer lattice as the one-summand case of the module kernel, against the
``ExtRational`` closed form and the ``erode`` decision in ``oracles``; and
the three kinds of decorated table entry."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistd import (
    EMPTY,
    ExtRational,
    Interval,
    PModule,
    are_eps_interleaved,
    distance_to_zero,
    interval_distance,
    modules_eps_interleaved,
    parse_interval,
)
from persistd.interleaving import _bound, _class_top, _lattice

from oracles import (
    candidate_values,
    lattice_scale,
    reference_are_eps_interleaved,
    reference_distance_to_zero,
    reference_interval_distance,
    reference_modules_eps_interleaved,
    run_table,
)
from strategies import intervals, lattice_intervals

# Empty, singleton, half-line and whole-line intervals with mixed
# decorations, on small grids and with denominators up to 2^41.
any_interval = st.one_of(st.just(EMPTY), intervals(), lattice_intervals())


def module(i: Interval) -> PModule:
    return PModule([] if i.is_empty else [i])


@given(any_interval, any_interval)
@settings(max_examples=400)
def test_distances_equal_reference(i, j):
    assert interval_distance(i, j) == reference_interval_distance(i, j)
    assert distance_to_zero(i) == reference_distance_to_zero(i)


@given(any_interval, any_interval)
@settings(max_examples=300)
def test_decision_equals_reference_at_and_around_candidates(i, j):
    m, n = module(i), module(j)
    step = Fraction(1, 4 * lattice_scale(m, n))
    for d in candidate_values(m, n):
        for eps in (d - step, d, d + step):
            if eps >= 0:
                assert are_eps_interleaved(i, j, eps) == (
                    reference_are_eps_interleaved(i, j, eps)
                ), (str(i), str(j), str(eps))


@pytest.mark.parametrize("cap", ["1", "lots"])
def test_match_cap_does_not_reach_interval_functions(monkeypatch, cap):
    monkeypatch.setenv("PERSISTD_MATCH_CAP", cap)
    i, j = parse_interval("[0,3)"), parse_interval("(1,5]")
    assert interval_distance(i, j) == ExtRational(Fraction(2))
    assert distance_to_zero(i) == ExtRational(Fraction(3, 2))
    assert are_eps_interleaved(i, j, 2) and not are_eps_interleaved(i, j, Fraction(3, 2))



# (I, J, entry minus 2C, attained), with C = c*S for c = d(I, J) = 1: at
# eps = c the entry is 2C - 1 or 2C when the infimum is attained and 2C + 1
# when it is not, and the top of its class is 2C + 1.  An empty J stands
# for the zero module.
ENTRY_KINDS = [
    ("(0,5)", "[1,5)", -1, True),
    ("[0,5)", "[1,5)", 0, True),
    ("[0,5)", "(1,5)", 1, False),
    ("[0,2]", "", 1, False),
    ("[0,2)", "", 0, True),
]


@pytest.mark.parametrize("i_text,j_text,offset,attained", ENTRY_KINDS)
def test_table_entry_records_attainment(i_text, j_text, offset, attained):
    i = parse_interval(i_text)
    j = parse_interval(j_text) if j_text else EMPTY
    m, n = module(i), module(j)
    c = reference_interval_distance(i, j)
    assert c == ExtRational(1) and interval_distance(i, j) == c
    # The table and the decision read the pair's one lattice; at eps = 1,
    # E = eps*S = S is an even integer, so the bound is 2E = 2S.
    costs, dtz_m, _, scale, _, _ = run_table(m, n)
    lattice_scale, reach, _, _ = _lattice(m._lattice_view(), n._lattice_view())
    entry = costs[0][0] if n.summands else dtz_m[0]
    assert (entry, lattice_scale) == (2 * scale + offset, scale)
    assert _bound(1, scale, reach) == 2 * scale
    assert _class_top(entry) == 2 * scale + 1
    assert are_eps_interleaved(i, j, 1) == reference_are_eps_interleaved(i, j, 1) == attained
    assert modules_eps_interleaved(m, n, 1) == attained
    assert reference_modules_eps_interleaved(m, n, Fraction(1)) == attained
