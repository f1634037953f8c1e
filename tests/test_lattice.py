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
from persistd import bottleneck
from persistd.interleaving import _bound, _key_entry, _lattice, _view

from oracles import (
    candidate_values,
    key_table,
    lattice_scale,
    reference_lattice,
    reference_module_distance,
    reference_modules_eps_interleaved,
    run_keys,
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
    scale, reach, keys_m, keys_n = _lattice(_view(ms), _view(ns))
    assert reference_lattice(ms, ns, 0) == (scale, reach, 0, keys_m, keys_n)
    _, _, w, ref_m, ref_n = reference_lattice(ms, ns, eps)
    bound = _bound(eps, scale, reach)
    for a, ref_a in zip([None, *keys_m], [None, *ref_m]):
        for b, ref_b in zip([None, *keys_n], [None, *ref_n]):
            if a is not None or b is not None:
                assert (_key_entry(a, b) <= bound) == (_key_entry(ref_a, ref_b) <= w)


def _run_summands(m: PModule) -> tuple:
    return tuple(s for s, _ in m._runs)


@given(pooled_pairs())
@settings(max_examples=200)
def test_cost_tables_equal_key_table(pair):
    """The entries the probes read off ``_cost_tables``'s key columns with
    ``_entries``, the inline form that the value of a feasible probe and
    the seed pruning use, against one ``_key_entry`` call per entry, on the
    runs: the same table and to-zero entries.  The run table of the pair's
    admitted keys is that of the keys built from scratch, with the same S
    and fin."""
    m, n = pair
    table = run_table(m, n)
    assert table[:5] == key_table(*map(_run_summands, pair))[:5]
    costs, dtz_m, dtz_n = table[:3]
    tables = run_keys(m, n)
    assert tables[:2] == (dtz_m, dtz_n)
    every = [(i, j) for i in range(len(dtz_m)) for j in range(len(dtz_n))]
    assert bottleneck._entries(every, *tables) == [c for row in costs for c in row]


@given(pooled_pairs(), st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_key_floor_equals_table_floor(pair, rng):
    """``_floor``, which reads key gaps alone, against ``oracles.table_floor``
    on the run table: the least to-zero entry of a set X of runs and of
    their entries against the runs outside N(X), for random X and box
    lists at every class top, on each side."""
    m, n = pair
    costs, dtz_m, dtz_n, _, _, _ = run_table(m, n)
    _, _, cols_m, cols_n = run_keys(m, n)
    tops = sorted({((r + 1) & -4) + 1 for row in [dtz_m, dtz_n, *costs] for r in row})
    sides = ((dtz_m, cols_m, cols_n, costs, False), (dtz_n, cols_n, cols_m, costs, True))
    for t in tops:
        for dtz, cols, other, table, columns in sides:
            if not dtz:
                continue
            lists = bottleneck._Lists(cols, other, t)
            hall = rng.sample(range(len(dtz)), rng.randint(1, len(dtz)))
            assert bottleneck._floor(hall, lists, dtz, cols, other) == (
                table_floor(hall, lists, dtz, table, columns)), (t, hall, columns)


@given(pooled_pairs() | st.tuples(lattice_modules, lattice_modules))
@settings(max_examples=200)
def test_run_keys_strictly_increase(pair):
    """Runs come in canonical order, and on the one lattice of both modules,
    which every eps shares, their (lower, upper) keys strictly increase:
    ``_Lists`` bisects the lower keys of a side as they come."""
    runs_m, runs_n = map(_run_summands, pair)
    _, _, keys_m, keys_n = _lattice(_view(runs_m), _view(runs_n))
    for keys in (keys_m, keys_n):
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


def test_decision_builds_no_table_and_makes_no_probe(monkeypatch):
    """The decision runs no search set-up (``_cost_tables``) and makes no
    probe: it reads the lattice once and runs a matcher, Hopcroft-Karp or
    the flow, at most once per side, not at all when the repair of the
    empty matching needs no phases."""
    pairs = [
        (PModule.of("[0,2)", "(1,4]", "[3,3]"), PModule.of("(0,2)", "[1,4)")),
        (PModule.of("[0,2)", "[0,2)", "(1,4]"), PModule.of("[0,2)", "[1,4)", "[1,4)")),
        (PModule.of("[0,8)"), PModule.zero()),
    ]
    cases = [(m, n, eps, reference_modules_eps_interleaved(m, n, eps))
             for m, n in pairs for eps in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5))]
    calls = []
    for name in ("_cost_tables", "_matching_at", "_lattice", "_hopcroft_karp", "_flow"):
        def counted(*args, _real=getattr(bottleneck, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(bottleneck, name, counted)
    for m, n, eps, expected in cases:
        calls.clear()
        assert modules_eps_interleaved(m, n, eps) == expected
        assert calls.count("_lattice") == 1
        assert calls.count("_hopcroft_karp") + calls.count("_flow") <= 2
        assert set(calls) <= {"_lattice", "_hopcroft_karp", "_flow"}, calls


def test_decision_checks_the_vertex_cap_before_eps():
    half = parse_interval("[0,2)")
    with pytest.raises(ValueError, match="vertex cap"):
        modules_eps_interleaved(replicate(half, 5001), replicate(half, 5000), -1)
    with pytest.raises(ValueError, match="eps >= 0"):
        modules_eps_interleaved(replicate(half, 5000), replicate(half, 5000), -1)
