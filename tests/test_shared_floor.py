"""The shared-run floor of the distance search (``kernel_seam.search_floor``):
on a pair that shares a run, or has a zero side, the search starts at the
class of a floor L on the answer's entry and probes there first.  L never
exceeds the entry; on the witness families' stages, which differ in a few
runs, it is the answer's class, and the search takes one probe."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistd import (
    ExtRational,
    PModule,
    binary_sequence_module,
    cauchy_witness,
    cube_point_module,
    module_distance,
    parse_module,
    staircase,
)
from persistd.verify import random_module

from kernel_seam import admitted, recording, search_floor
from oracles import full_probe, reference_module_distance, run_summands, run_table
from strategies import pooled_pairs


def answer_entry(m, n) -> int:
    """The entry of the distance by the full probes on the run table: the
    least entry at which one passes."""
    costs, dtz_m, dtz_n, _, _, counts = run_table(m, n)
    entries = sorted({0, *dtz_m, *dtz_n, *(c for row in costs for c in row)})
    return next(v for v in entries if full_probe(costs, dtz_m, dtz_n, v, copies=counts) is not None)


@given(pooled_pairs(max_count=3), st.sampled_from(["pair", "zero m", "zero n"]))
@settings(max_examples=200, deadline=None)
def test_floor_never_exceeds_the_answer(pair, zero):
    """Over one pool, with copies, infinite ends and shared runs, and with
    either side zero: a pair gets a floor exactly when it shares a run or a
    side is zero, the floor is at most the entry of the distance, and its
    class is at most the reference distance's."""
    m, n = pair
    if zero == "zero m":
        m = PModule.zero()
    elif zero == "zero n":
        n = PModule.zero()
    floor = search_floor(m, n)
    shares = set(run_summands(m)) & set(run_summands(n))
    assert (floor is not None) == bool(shares or m.is_zero or n.is_zero)
    if floor is None:
        return
    assert 0 <= floor <= answer_entry(m, n), (m.to_json(), n.to_json())
    scale = run_table(m, n)[3]
    d = reference_module_distance(m, n)
    assert not d.is_finite or 2 * (floor + 2 >> 2) <= scale * d.as_fraction
    assert module_distance(m, n) == d


def copy_counts(m) -> list[int]:
    """m's copy count of each run, in run order."""
    return [m.summands.count(s) for s in run_summands(m)]


@given(pooled_pairs(max_count=3),
       st.sampled_from(["pair", "copies on n only", "copies on m only", "zero m", "zero n"]))
@settings(max_examples=200, deadline=None)
def test_both_roads_admit_one_record(pair, variant):
    """Over one pool, with infinite ends and shared runs, where M or N or
    both repeat a summand or a side is zero: the pair's record holds copy
    counts exactly when a side repeats one, each side's by run; it shares
    exactly when a side is zero or the two share a run; and the road of the
    distance, certificate and decision gives the record that the road of
    the certificate check does."""
    m, n = pair
    if variant == "copies on n only":
        m = PModule(run_summands(m))
    elif variant == "copies on m only":
        n = PModule(run_summands(n))
    elif variant == "zero m":
        m = PModule.zero()
    elif variant == "zero n":
        n = PModule.zero()
    record, checked = admitted(m, n)
    assert record == checked
    repeats = len(m) > len(run_summands(m)) or len(n) > len(run_summands(n))
    assert record.counts == ((copy_counts(m), copy_counts(n)) if repeats else None)
    shares = set(run_summands(m)) & set(run_summands(n))
    assert record.shares == bool(m.is_zero or n.is_zero or shares)


def test_floor_reads_both_key_gaps():
    # On S = 4, [0,10) keys as (0, 79) and [0,9) as (0, 71): their lower
    # keys meet and their upper keys lie 8 apart.  Each run's cost is the
    # larger gap, capped by its to-zero entry, 40 and 36: L = 8, the entry
    # of their pair, a distance of 1.  The smaller gap would give 0.
    m, n = PModule.of("[0,10)", "[20,30)"), PModule.of("[0,9)", "[20,30)")
    assert search_floor(m, n) == 8 == answer_entry(m, n)
    assert module_distance(m, n) == ExtRational(1)


def test_floor_reads_the_other_sides_shared_runs():
    # [0,100) and [10,110) lie 10 apart, but each lies 5 from the shared
    # [5,105), which can move over: the distance is 5, and so is the floor
    # of each unshared run against every run of the other side.
    m = PModule.of("[0,100)", "[5,105)")
    n = PModule.of("[5,105)", "[10,110)")
    assert search_floor(m, n) == answer_entry(m, n) == 40
    assert module_distance(m, n) == ExtRational(5)


def radical_pair():
    """A module of each decoration kind the radical treats differently, and
    its radical, which keeps the open lower endpoint's run."""
    m = parse_module('{"summands": [{"interval": "[3,3]", "multiplicity": 4},'
                     ' {"interval": "[0,5)", "multiplicity": 3},'
                     ' {"interval": "(7,9]", "multiplicity": 2},'
                     ' {"interval": "[-4,-1]", "multiplicity": 5}]}')
    return m, m.radical(), 0


# Built by the test, so that a broken family fails its test here and does
# not stop the collection of this file.
ONE_PROBE = [
    *(pytest.param(lambda h=h: (staircase(h), staircase(h - 1), 1), id=f"staircase{h}")
      for h in (2, 16, 300)),
    *(pytest.param(lambda s=s, later=later: (cauchy_witness(s), cauchy_witness(later),
                                             Fraction(1, 2 ** (s + 1))), id=f"cauchy{s}-{later}")
      for s, later in ((0, 1), (8, 12), (16, 23), (59, 60))),
    pytest.param(lambda: (binary_sequence_module([1, 0, 0, 1, 1, 0]),
                          binary_sequence_module([1, 1, 0, 1, 0, 0]), 1), id="binary"),
    pytest.param(radical_pair, id="radical"),
    pytest.param(lambda: (staircase(30), PModule.zero(), 15), id="staircase-zero"),
    pytest.param(lambda: (PModule.zero(), PModule.of("(0,1/3)", "[1/2,2]", "[1/2,2]", "[7,7]"),
                          Fraction(3, 4)), id="zero-module"),
]


@pytest.mark.parametrize("pair", ONE_PROBE)
def test_family_stages_take_one_probe(pair):
    """Nested stages of the staircase and the Cauchy sequence, binary
    sequences that differ in a few bits, a module against its radical and a
    module against zero: the floor is the answer's class, and the search's
    one probe is there."""
    m, n, d = pair()
    with recording() as rec:
        assert module_distance(m, n) == ExtRational(d)
    assert len(rec.probes) == 1, rec.bounds


def test_pairs_that_share_no_run_get_no_floor():
    """Nonzero random pairs and cube points that share no run get no floor:
    their search starts from class 0, its first probe the middle of the
    bracket."""
    rng = random.Random(3)
    pairs = [(random_module(rng, Fraction(-5), Fraction(5), 4, 7) for _ in range(2))
             for _ in range(20)]
    pairs += [(cube_point_module(4, [Fraction(k, 2000) for k in (1, 2, 0, 3)]),
               cube_point_module(4, [Fraction(k, 2000) for k in (0, 2, 1, 3)]))]
    for m, n in pairs:
        if m.is_zero or n.is_zero or set(run_summands(m)) & set(run_summands(n)):
            continue
        assert search_floor(m, n) is None
        with recording() as rec:
            module_distance(m, n)
        _, dtz_m, dtz_n, _, fin, _ = run_table(m, n)
        hi = min(max([0, *dtz_m, *dtz_n]) + 1 >> 2, fin >> 2) + 1
        assert rec.probes[0].t == 4 * (hi // 2) + 1
