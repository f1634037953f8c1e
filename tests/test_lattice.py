"""Differential tests: the integer-lattice kernel against the ExtRational
reference in ``oracles``.  Distances and decisions must agree exactly."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from persistd import (
    ExtRational,
    PModule,
    cauchy_witness,
    distance_certificate,
    module_distance,
    modules_eps_interleaved,
    verify_certificate,
)
from persistd import bottleneck
from persistd.interleaving import _lattice

from oracles import (
    reference_distance_to_zero,
    reference_interval_distance,
    reference_lattice,
    reference_module_distance,
    reference_modules_eps_interleaved,
)
from strategies import deep_fractions, lattice_modules, small_eps


def lattice_scale(m: PModule, n: PModule) -> int:
    """2 * lcm of every finite endpoint denominator of both modules."""
    dens = [
        ep.value.as_fraction.denominator
        for s in (*m.summands, *n.summands)
        for ep in (s.lo, s.hi)
        if ep.value.is_finite
    ]
    return 2 * math.lcm(1, *dens)


def candidate_values(m: PModule, n: PModule) -> set[Fraction]:
    """0, every finite pairwise distance and every finite to-zero distance."""
    ms, ns = m.summands, n.summands
    values = {ExtRational(0)}
    values.update(reference_interval_distance(a, b) for a in ms for b in ns)
    values.update(reference_distance_to_zero(s) for s in (*ms, *ns))
    return {v.as_fraction for v in values if v.is_finite}


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
    ms, ns = m.summands, n.summands
    assert _lattice(ms, ns, eps) == reference_lattice(ms, ns, eps)


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


def test_decision_is_one_table_and_one_probe(monkeypatch):
    calls = []
    for name in ("_cost_tables", "_matching_at"):
        def counted(*args, _real=getattr(bottleneck, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(bottleneck, name, counted)
    m = PModule.of("[0,2)", "(1,4]", "[3,3]")
    n = PModule.of("(0,2)", "[1,4)")
    for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
        calls.clear()
        assert modules_eps_interleaved(m, n, eps) == reference_modules_eps_interleaved(m, n, eps)
        assert calls == ["_cost_tables", "_matching_at"]


def test_decision_checks_the_vertex_cap_before_eps(monkeypatch):
    monkeypatch.setenv("PERSISTD_MATCH_CAP", "1")
    with pytest.raises(ValueError, match="vertex cap"):
        modules_eps_interleaved(PModule.of("[0,1)"), PModule.of("[0,1)"), -1)
    monkeypatch.setenv("PERSISTD_MATCH_CAP", "2")
    with pytest.raises(ValueError, match="eps >= 0"):
        modules_eps_interleaved(PModule.of("[0,1)"), PModule.of("[0,1)"), -1)
