"""The distance search, the eps-decision, the certificate's matching and
the certificate check read the lattice keys, not a cost table.  They must
agree with the table probe, the table decision and the per-pair check of
``oracles``, on modules with repeated summands and infinite endpoints; the
decision and the check must never run the search's set-up, and the search
must stay within a memory bound far below that of a table, at sizes where
one would be large."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from persistd import (
    ExtRational,
    InfiniteDistanceError,
    MatchingCertificate,
    POS_INF,
    PModule,
    distance_certificate,
    module_distance,
    modules_eps_interleaved,
    parse_interval,
    replicate,
    verify_certificate,
)
from persistd.interleaving import _bound, _lattice
from persistd.verify import random_interval

from kernel_seam import recording, table_probes
from oracles import (
    candidate_values,
    full_probe,
    lattice_scale,
    reference_distance_to_zero,
    reference_interval_distance,
    reference_modules_eps_interleaved,
    reference_verify_certificate,
    run_table,
    table_modules_eps_interleaved,
)
from strategies import near_copies, pooled_pairs, random_pool_pair


@given(pooled_pairs())
@settings(max_examples=40, deadline=None)
def test_decision_equals_table_at_and_around_candidates(pair):
    m, n = pair
    step = Fraction(1, 8 * lattice_scale(m, n))  # 1/(4S), with S = 4*lcm
    for d in candidate_values(m, n):
        for eps in (d - step, d, d + step):
            if eps >= 0:
                assert modules_eps_interleaved(m, n, eps) == (
                    table_modules_eps_interleaved(m, n, eps)
                ), (str(eps), m.to_json(), n.to_json())


def test_decision_equals_table_on_random_pairs():
    """400 seeded pairs at the distance d, d +- 1/64, d/2 and 0."""
    rng = random.Random(13)
    delta = Fraction(1, 64)
    for _ in range(400):
        m, n = random_pool_pair(rng)
        d = module_distance(m, n)
        d = d.as_fraction if d.is_finite else Fraction(100)
        for eps in {d, d + delta, d - delta, d / 2, Fraction(0)}:
            if eps >= 0:
                assert modules_eps_interleaved(m, n, eps) == (
                    table_modules_eps_interleaved(m, n, eps)
                ), (str(eps), m.to_json(), n.to_json())


@given(pooled_pairs(max_count=7))
@settings(max_examples=80, deadline=None)
def test_certificate_equals_unseeded_table_probe(pair):
    """The certificate's matching, read off the keys at the answer's top,
    is that of one unseeded probe of the cost table there on whole rows and
    columns; a pair infinitely far apart has no certificate."""
    m, n = pair
    d = module_distance(m, n)
    if not d.is_finite:
        with pytest.raises(InfiniteDistanceError):
            distance_certificate(m, n)
        return
    costs, dtz_m, dtz_n, scale, _, copies = run_table(m, n)
    top = int(2 * scale * d.as_fraction) + 1
    matching = full_probe(costs, dtz_m, dtz_n, top, copies=copies)
    pairs = tuple(sorted(matching.items()))
    assert distance_certificate(m, n) == MatchingCertificate(
        d, pairs,
        tuple(i for i in range(len(m)) if i not in matching),
        tuple(j for j in range(len(n)) if j not in matching.values()))


def _tampered(m: PModule, n: PModule, cert: MatchingCertificate):
    """(certificate, whether it must fail) for the certificate and its
    tampered variants: the threshold one class too low; each pair with its
    N summand swapped for the farthest other one, whose old pair or
    unmatched slot takes the first; and each pair with a summand too long to
    delete at the threshold split into two unmatched summands."""
    ms, ns = m.summands, n.summands
    d = cert.threshold
    class_gap = Fraction(1, lattice_scale(m, n))
    yield cert, False
    yield cert._replace(threshold=ExtRational(d.as_fraction - class_gap)), True
    yield cert._replace(threshold=POS_INF), False
    pairs = list(cert.pairs)
    for k, (i, j) in enumerate(pairs):
        far = max(range(len(ns)), key=lambda b: reference_interval_distance(ms[i], ns[b]))
        if reference_interval_distance(ms[i], ns[far]) > reference_interval_distance(ms[i], ns[j]):
            swapped = [(a, j if b == far else b) for a, b in pairs]
            swapped[k] = (i, far)
            unmatched_n = tuple(j if b == far else b for b in cert.unmatched_n)
            yield cert._replace(pairs=tuple(swapped), unmatched_n=unmatched_n), None
        if max(reference_distance_to_zero(ms[i]), reference_distance_to_zero(ns[j])) > d:
            yield cert._replace(pairs=tuple(pairs[:k] + pairs[k + 1:]),
                                unmatched_m=(*cert.unmatched_m, i),
                                unmatched_n=(*cert.unmatched_n, j)), True


@given(pooled_pairs())
@settings(max_examples=80, deadline=None)
def test_certificate_check_equals_per_pair_check(pair):
    m, n = pair
    if not module_distance(m, n).is_finite:
        return
    for cert, fails in _tampered(m, n, distance_certificate(m, n)):
        expected = reference_verify_certificate(m, n, cert)
        assert verify_certificate(m, n, cert) == expected, cert
        if fails is not None:
            assert expected is not fails, cert


def test_decision_at_scale_builds_no_table():
    """2000 + 2000 summands: a module against itself, and against its
    shift by 1/2, which is 1/2-interleaved with it summand by summand and
    not 0-interleaved.  The search's per-pair set-up never runs."""
    rng = random.Random(5)
    m = PModule(random_interval(rng, Fraction(-50), Fraction(50), 16) for _ in range(2000))
    shifted = PModule(s.shift(Fraction(1, 2)) for s in m.summands)
    assert len(m) == len(shifted) == 2000
    with recording() as rec:
        assert modules_eps_interleaved(m, m, 0)
        assert modules_eps_interleaved(m, shifted, Fraction(1, 2))
        assert not modules_eps_interleaved(m, shifted, 0)
    assert rec.setups == 0 and rec.lattices == 3


def test_certificate_check_at_scale_builds_no_table():
    """20000 copies against 19999: one pair of runs and one unmatched run."""
    piece = parse_interval("[0,2)")
    m, n = replicate(piece, 20000), replicate(piece, 19999)
    pairs = tuple((i, i) for i in range(19999))
    cert = MatchingCertificate(ExtRational(1), pairs, (19999,), ())
    with recording() as rec:
        assert verify_certificate(m, n, cert)
        assert not verify_certificate(m, n, cert._replace(threshold=ExtRational(Fraction(1, 2))))
        assert not verify_certificate(m, n, cert._replace(unmatched_m=()))
    assert rec.setups == 0


def test_decision_with_copies_equals_erosion_reference():
    """Copies of one run share a neighbour list in the decision too."""
    m = PModule.of(*["[0,4)"] * 5, *["(1,3]"] * 2, "(-inf,0)")
    n = PModule.of(*["[1,5)"] * 4, *["[1,3]"] * 3, "(-inf,1/2)")
    for eps in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        assert modules_eps_interleaved(m, n, eps) == reference_modules_eps_interleaved(m, n, eps)


def test_decision_at_the_edge_of_a_box():
    """At eps = 3, w = 24 on keys of scale 4.  [2,9) must be matched, and
    [5,12] lies within w of it on the lower key and w + 1 from it on the
    upper key, so [2,9) has no neighbour and the answer is no.  The mirror
    image puts the gap of w + 1 on the lower key."""
    for m, n in ((PModule.of("[5,12]"), PModule.of("[2,9)", "[3,6)", "(5,9]")),
                 (PModule.of("[-12,-5]"), PModule.of("(-9,-2]", "(-6,-3]", "[-9,-5)"))):
        assert not reference_modules_eps_interleaved(m, n, 3)
        assert not modules_eps_interleaved(m, n, 3)


def test_decision_at_integer_eps_equals_erosion_reference():
    """At an integer eps, E = eps*S is even and w = 2E: a key gap of w is
    an eps-interleaved pair and a gap of w + 1 is not.  Near copies reach
    both gaps on both keys, with the other key's gap within w, and there
    the decision must equal the erosion reference."""
    rng = random.Random(21)
    edges = set()
    for _ in range(800):
        eps = rng.randint(1, 3)
        m, n = near_copies(rng, eps)
        assert modules_eps_interleaved(m, n, eps) == (
            reference_modules_eps_interleaved(m, n, eps)
        ), (eps, m.to_json(), n.to_json())
        scale, reach, cols_m, cols_n = _lattice(m._lattice_view(), n._lattice_view())
        w = _bound(eps, scale, reach)
        for (low_m, up_m), (low_n, up_n) in product(zip(*cols_m), zip(*cols_n)):
            low, up = abs(low_m - low_n) - w, abs(up_m - up_n) - w
            if low <= 0:
                edges.add(("upper", up))
            if up <= 0:
                edges.add(("lower", low))
    assert {("upper", 0), ("upper", 1), ("lower", 0), ("lower", 1)} <= edges


def _large_pair():
    """Two modules of 1000 random intervals each on [-500, 500], with
    denominators up to 16 (seed 7): no summand repeats, and a table of
    every pair of runs would hold a million entries."""
    rng = random.Random(7)
    return tuple(PModule(random_interval(rng, Fraction(-500), Fraction(500), 16)
                         for _ in range(1000)) for _ in range(2))


def test_search_probes_equal_table_probes_at_scale():
    """The search's probes, which read their lists, floors and values off
    the keys, return the bounds of table probes (``kernel_seam.table_probes``)
    on the run table at the same tops, each seeded with what the probe before
    left and on the lists the feasible ones narrowed, as the search ran on
    its table: the search makes the same probes, (top, bound) for (top,
    bound), and finds the distance the table search found."""
    m, n = _large_pair()
    with recording() as rec:
        assert module_distance(m, n) == ExtRational(Fraction(369, 8))
    tops = [t for t, _ in rec.bounds]
    assert len(tops) > 5 and rec.bounds == list(zip(tops, table_probes(m, n, tops)))


def test_search_memory_at_scale():
    """The distance of 1000 + 1000 random summands, views and keys built on
    the way, allocates at most 8 MiB at its peak as ``tracemalloc`` traces
    it.  A table of every pair of runs, with its rows, takes about 20 MiB,
    so a search that builds one again fails here."""
    m, n = _large_pair()
    tracemalloc.start()
    try:
        module_distance(m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_search_reads_only_the_entries_of_new_pairs():
    """A probe reads the entries of the pairs its matching gained, not of
    every pair it kept, which carry their terms: one distance of 1000 +
    1000 random summands reads the entries of at most 4,000 pairs in all.
    A probe that recomputes every kept pair's entry reads about 13,600."""
    m, n = _large_pair()
    with recording() as rec:
        assert module_distance(m, n) == ExtRational(Fraction(369, 8))
    assert 0 < rec.entries <= 4000, rec.entries
