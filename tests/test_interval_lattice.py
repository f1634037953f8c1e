"""Differential tests: the per-interval functions, which run on the
integer lattice as the one-summand case of the module kernel, against the
``ExtRational`` closed form and the ``erode`` decision in ``oracles``."""

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
    parse_interval,
)

from oracles import (
    reference_are_eps_interleaved,
    reference_distance_to_zero,
    reference_interval_distance,
)
from strategies import intervals, lattice_intervals
from test_lattice import candidate_values, lattice_scale

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

