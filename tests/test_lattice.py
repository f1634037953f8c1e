"""Differential tests: the integer-lattice kernel against the ExtRational
reference in ``oracles``.  Distances and decisions must agree exactly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistd import (
    ExtRational,
    PModule,
    cauchy_witness,
    distance_certificate,
    module_distance,
    modules_eps_interleaved,
    parse_interval,
    replicate,
    verify_certificate,
)
from persistd.interleaving import _bound, _key_entry, _lattice, _view
from persistd.intervals import _ends

from kernel_seam import entries, key_floor, neighbour_runs, recording, run_keys
from oracles import (
    candidate_values,
    direct_lattice,
    key_table,
    lattice_scale,
    reference_module_distance,
    reference_modules_eps_interleaved,
    run_summands,
    run_table,
    table_floor,
)
from strategies import deep_fractions, lattice_modules, pooled_pairs, small_eps


@given(lattice_modules, lattice_modules)
@settings(max_examples=150)
def test_distance_equals_reference(m, n):
    d = module_distance(m, n)
    assert d == reference_module_distance(m, n)
    if d.is_finite:
        cert = distance_certificate(m, n)
        assert cert.threshold == d
        assert verify_certificate(m, n, cert)


@given(lattice_modules, lattice_modules, small_eps | deep_fractions.map(abs))
@settings(max_examples=150)
def test_lattice_keys_equal_reference(m, n, eps):
    """The pair's lattice is the reference lattice at eps 0; and on it,
    ``_bound`` admits exactly the pairs and summands that the reference
    lattice at eps, which takes eps's denominator into S, admits."""
    ms, ns = m.summands, n.summands
    scale, reach, *cols = _lattice(*(_view(list(map(_ends, x))) for x in (ms, ns)))
    keys_m, keys_n = (list(zip(*c)) for c in cols)
    assert direct_lattice(ms, ns, 0) == (scale, reach, 0, keys_m, keys_n)
    _, _, w, ref_m, ref_n = direct_lattice(ms, ns, eps)
    bound = _bound(eps, scale, reach)
    for a, ref_a in zip([None, *keys_m], [None, *ref_m]):
        for b, ref_b in zip([None, *keys_n], [None, *ref_n]):
            if a is not None or b is not None:
                assert (_key_entry(a, b) <= bound) == (_key_entry(ref_a, ref_b) <= w)


@given(pooled_pairs())
@settings(max_examples=200)
def test_cost_tables_equal_key_table(pair):
    """The entries the probes read off the search's keys, the inline form
    that the value of a feasible probe uses, against one ``_key_entry``
    call per entry, on the runs: the same table and to-zero entries.  The run table of the pair's
    admitted keys is that of the keys built from scratch, with the same S
    and fin."""
    m, n = pair
    table = run_table(m, n)
    assert table[:5] == key_table(*map(run_summands, pair))[:5]
    costs, dtz_m, dtz_n = table[:3]
    keys = run_keys(m, n)
    assert keys[:2] == (dtz_m, dtz_n)
    every = [(i, j) for i in range(len(dtz_m)) for j in range(len(dtz_n))]
    assert entries(keys, every) == [c for row in costs for c in row]


@given(pooled_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_key_floor_equals_table_floor(pair, rng):
    """The floor that reads key gaps alone against ``oracles.table_floor``
    on the run table: the least to-zero entry of a set X of runs and of
    their entries against the runs outside N(X), for random X and box
    lists at every class top, on each side.  Each run's box list holds the
    runs of the other side within t of it on both keys."""
    m, n = pair
    costs, dtz_m, dtz_n, _, _, _ = run_table(m, n)
    keys = run_keys(m, n)
    tops = sorted({((r + 1) & -4) + 1 for row in [dtz_m, dtz_n, *costs] for r in row})
    sides = (dtz_m, keys[2], keys[3]), (dtz_n, keys[3], keys[2])
    for t in tops:
        for side, (dtz, cols, other) in enumerate(sides):
            if not dtz:
                continue
            lists = neighbour_runs(cols, other, t)
            assert lists == [[j for j, (a, b) in enumerate(zip(*other))
                              if abs(a - low) <= t and abs(b - up) <= t] for low, up in zip(*cols)]
            hall = rng.sample(range(len(dtz)), rng.randint(1, len(dtz)))
            assert key_floor(hall, dtz, cols, other, t) == (
                table_floor(hall, lists, dtz, costs, side == 1)), (t, hall, side)


@given(pooled_pairs() | st.tuples(lattice_modules, lattice_modules))
@settings(max_examples=200)
def test_run_keys_strictly_increase(pair):
    """Runs come in canonical order, and on the one lattice of both modules,
    which every eps shares, their (lower, upper) keys strictly increase:
    the neighbour lists bisect the lower keys of a side as they come."""
    ends_m, ends_n = ([e for e, _ in x._ints] for x in pair)
    _, _, cols_m, cols_n = _lattice(_view(ends_m), _view(ends_n))
    for keys in (list(zip(*cols_m)), list(zip(*cols_n))):
        assert all(a < b for a, b in zip(keys, keys[1:])), keys


@given(lattice_modules, lattice_modules)
@settings(max_examples=60)
def test_decision_equals_reference_at_and_around_candidates(m, n):
    step = Fraction(1, 4 * lattice_scale(m, n))
    for d in candidate_values(m, n):
        for eps in (d - step, d, d + step):
            if eps >= 0:
                assert modules_eps_interleaved(m, n, eps) == (
                    reference_modules_eps_interleaved(m, n, eps)
                ), (str(eps), m.to_json(), n.to_json())


def test_deep_cauchy_stages():
    stages = {k: cauchy_witness(k) for k in (0, 1, 39, 40)}
    for a in stages:
        for b in stages:
            expected = ExtRational(Fraction(1, 2 ** (min(a, b) + 1))) if a != b else ExtRational(0)
            assert module_distance(stages[a], stages[b]) == expected
    m, n = stages[40], stages[39]
    d = Fraction(1, 2**40)
    step = Fraction(1, 4 * lattice_scale(m, n))
    for eps in (d - step, d, d + step):
        assert modules_eps_interleaved(m, n, eps) == reference_modules_eps_interleaved(m, n, eps)
    assert not modules_eps_interleaved(m, n, d - step)
    assert modules_eps_interleaved(m, n, d + step)


def test_whole_line_and_half_lines():
    line = PModule.of("(-inf,inf)")
    left = PModule.of("(-inf,3/7]")
    right = PModule.of("[5,inf)")
    for m in (line, left, right, PModule.zero(), PModule.of("[2,2]")):
        for n in (line, left, right, PModule.of("(-inf,1)"), PModule.of("(0,inf)")):
            assert module_distance(m, n) == reference_module_distance(m, n)
            for eps in (Fraction(0), Fraction(1, 2), Fraction(1000)):
                assert modules_eps_interleaved(m, n, eps) == (
                    reference_modules_eps_interleaved(m, n, eps)
                )
    assert module_distance(line, line) == ExtRational(0)
    assert module_distance(left, PModule.of("(-inf,1)")) == ExtRational(Fraction(4, 7))


def test_decision_builds_no_table_and_makes_no_probe():
    """The decision runs no search set-up and makes no probe: it reads the
    lattice once and runs a matcher, Hopcroft-Karp or the flow, at most
    once per side, not at all when the repair of the empty matching needs
    no phases."""
    pairs = [
        (PModule.of("[0,2)", "(1,4]", "[3,3]"), PModule.of("(0,2)", "[1,4)")),
        (PModule.of("[0,2)", "[0,2)", "(1,4]"), PModule.of("[0,2)", "[1,4)", "[1,4)")),
        (PModule.of("[0,8)"), PModule.zero()),
    ]
    cases = [(m, n, eps, reference_modules_eps_interleaved(m, n, eps))
             for m, n in pairs for eps in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5))]
    with recording() as rec:
        for m, n, eps, expected in cases:
            rec.clear()
            assert modules_eps_interleaved(m, n, eps) == expected
            assert rec.lattices == 1 and len(rec.matchers) <= 2, rec.matchers
            assert rec.setups == 0 and rec.probes == []


def test_decision_checks_the_vertex_cap_before_eps():
    half = parse_interval("[0,2)")
    with pytest.raises(ValueError, match="vertex cap"):
        modules_eps_interleaved(replicate(half, 5001), replicate(half, 5000), -1)
    with pytest.raises(ValueError, match="eps >= 0"):
        modules_eps_interleaved(replicate(half, 5000), replicate(half, 5000), -1)
