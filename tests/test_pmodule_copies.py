"""Modules with repeated summands: the radical, the p-persistent submodule
and the contraction path act once per distinct summand and give every copy
the same image, and a module built from (interval, count) runs equals the
one built from the expanded copies."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persistd import (
    ExtRational,
    Interval,
    PModule,
    bottleneck,
    distance_certificate,
    intervals,
    module_distance,
    modules_eps_interleaved,
    parse_interval,
    parse_module,
    pmodule,
    replicate,
    verify_certificate,
)
from oracles import (
    contraction_dimension,
    full_probe,
    key_table,
    module_dimension,
    persistent_dimension,
    radical_dimension,
    reference_module_distance,
    reference_modules_eps_interleaved,
    sample_points,
)
from strategies import finite_nonempty_intervals, modules, pooled_pairs, small_eps

copied_modules = modules(max_copies=4)
persistences = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 4]))
path_times = st.builds(Fraction, st.integers(1, 15), st.just(16))


def points(*ms: PModule) -> list[Fraction]:
    return sample_points(*(s for m in ms for s in m.summands))


@given(copied_modules)
def test_radical_pointwise_oracle(m):
    rad = m.radical()
    assert all(module_dimension(rad, x) == radical_dimension(m, x) for x in points(m, rad))


@given(copied_modules, persistences)
def test_persistent_submodule_pointwise_oracle(m, p):
    sub = m.persistent_submodule(p)
    pts = points(m, sub)
    shifted = sorted(set(pts) | {x + p for x in pts})
    assert all(module_dimension(sub, x) == persistent_dimension(m, p, x) for x in shifted)


@given(copied_modules, path_times)
def test_contraction_path_pointwise_oracle(m, t):
    stage = m.contraction_path(t)
    assert all(
        module_dimension(stage, x) == contraction_dimension(m, t, x) for x in points(m, stage)
    )


@given(copied_modules)
def test_json_round_trip(m):
    assert parse_module(m.to_json()) == m
    counts = [entry["multiplicity"] for entry in m.to_json_obj()["summands"]]
    assert sum(counts) == len(m)


class TestMerges:
    def test_radical_merges_equal_images(self):
        rad = PModule.of("[0,1)", "[0,1)", "(0,1)").radical()
        assert rad.to_json_obj() == {"summands": [{"interval": "(0,1)", "multiplicity": 3}]}

    def test_radical_drops_every_copy_of_a_singleton(self):
        assert PModule.of("[2,2]", "[2,2]", "[0,1]").radical() == PModule.of("(0,1]")

    def test_contraction_merges_decorations(self):
        m = PModule.of("[0,2)", "[0,2)", "(0,2]", "[0,2]", "[5,6)")
        stage = m.contraction_path(Fraction(1, 2))
        assert stage.to_json_obj() == {
            "summands": [
                {"interval": "[1/2,3/2)", "multiplicity": 4},
                {"interval": "[21/4,23/4)", "multiplicity": 1},
            ]
        }

    def test_persistence_drops_every_copy_of_a_short_summand(self):
        m = PModule.of("[0,1)", "[0,1)", "(0,1]", "[0,4)", "[0,4)")
        assert m.persistent_submodule(2) == PModule.of("[2,4)", "[2,4)")

    def test_infinite_summand_with_copies_names_the_first(self):
        m = PModule.of("[0,1)", "[0,1)", "[2,inf)", "(-inf,0)", "(-inf,0)")
        with pytest.raises(ValueError, match=r"^summand \(-inf,0\) has infinite diameter"):
            m.contraction_path(Fraction(1, 2))


class TestOncePerDistinctSummand:
    """1500 copies each of two intervals: each transform looks at every
    distinct summand once, not at every copy."""

    m = PModule.of(*["[0,4)", "[1,3]"] * 1500)

    def count_calls(self, monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_radical(self, monkeypatch):
        built = self.count_calls(monkeypatch, intervals, "_interval")
        rad = self.m.radical()
        assert len(built) == 2
        assert rad == PModule.of(*["(0,4)", "(1,3]"] * 1500)

    def test_persistent_submodule(self, monkeypatch):
        calls = self.count_calls(monkeypatch, Interval, "intersect")
        sub = self.m.persistent_submodule(1)
        assert len(calls) == 2
        assert sub == PModule.of(*["[1,4)", "[2,3]"] * 1500)

    def test_contraction_path(self, monkeypatch):
        built = self.count_calls(monkeypatch, intervals, "_interval")
        stage = self.m.contraction_path(Fraction(1, 2))
        assert len(built) == 2
        assert stage == PModule.of(*["[1,3)", "[3/2,5/2)"] * 1500)


@st.composite
def run_lists(draw):
    """(interval, count) lists over a few distinct intervals; an interval
    may appear in several entries, each time as an equal but distinct
    object."""
    distinct = draw(st.lists(finite_nonempty_intervals(), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.sampled_from(distinct), st.integers(1, 4)), max_size=8))
    return [(parse_interval(str(s)), k) for s, k in picks]


@given(run_lists())
def test_runs_match_copies(runs):
    by_runs = PModule._of_runs(runs)
    copies = [parse_interval(str(s)) for s, k in runs for _ in range(k)]
    by_copies = PModule(copies)
    assert by_runs == by_copies and hash(by_runs) == hash(by_copies)
    expected = sorted(copies, key=Interval.canonical_key)
    assert by_runs.summands == by_copies.summands == tuple(expected)
    assert len(by_runs) == len(by_copies) == len(copies)
    for view in (str, repr, PModule.to_json_obj, PModule.classify):
        assert view(by_runs) == view(by_copies)
    texts = [str(s) for s in expected]
    assert by_runs.to_json_obj()["summands"] == [
        {"interval": t, "multiplicity": texts.count(t)} for t in dict.fromkeys(texts)
    ]
    for x in sample_points(*copies):
        assert by_runs.dimension_at(x) == by_copies.dimension_at(x)
        assert by_runs.rank(x, x + 1) == by_copies.rank(x, x + 1)


def test_split_json_entries_merge():
    m = parse_module(
        '{"summands": [{"interval": "[0,1)", "multiplicity": 2}, {"interval": "[2,3)"},'
        ' {"interval": "[0,1)", "multiplicity": 3}]}'
    )
    assert m.to_json_obj() == {"summands": [
        {"interval": "[0,1)", "multiplicity": 5}, {"interval": "[2,3)", "multiplicity": 1},
    ]}


class TestNoCopiesOutsideTheMatcher:
    """A module of 10**6 copies of one interval costs one run everywhere.
    The cost table and the certificate check read the runs, never the
    expanded summands."""

    def test_module_operations_work_on_runs(self, monkeypatch):
        keyed = []
        real = pmodule._run_key

        def counted(s):
            keyed.append(s)
            return real(s)

        monkeypatch.setattr(pmodule, "_run_key", counted)
        m = parse_module('{"summands": [{"interval": "[0,4)", "multiplicity": 1000000}]}')
        assert m.radical().to_json() == (
            '{"summands": [{"interval": "(0,4)", "multiplicity": 1000000}]}'
        )
        assert m.persistent_submodule(1) == PModule._of_runs([(parse_interval("[1,4)"), 10**6)])
        assert m.contraction_path(Fraction(1, 2)) == PModule._of_runs(
            [(parse_interval("[1,3)"), 10**6)]
        )
        assert m.classify().in_ffid and not m.classify(bounds=(0, 3)).in_ffid_cd
        assert m.rank(1, 2) == m.dimension_at(0) == len(m) == 10**6
        with pytest.raises(ValueError, match="at most 1000000 summand copies, got 2000000"):
            m.direct_sum(m)
        # One key per run of each module built: the parse, the radical, the
        # p-persistent submodule and the contraction stage, the two expected
        # modules, and the two runs that direct_sum checks before refusing.
        assert len(keyed) == 8

    def test_len_is_the_stored_copy_count(self):
        """``len`` reads the total that ``_canonical_runs`` stored, however
        the module was built."""
        piece = parse_interval("[0,4)")
        m = PModule._of_runs([(piece, 10**6 - 1), (parse_interval("[5,5]"), 1)])
        half = PModule._of_runs([(piece, 5 * 10**5)])
        for module, size in ((m, 10**6), (half.direct_sum(half), 10**6),
                             (m.radical(), 10**6 - 1), (pickle.loads(pickle.dumps(m)), 10**6)):
            assert len(module) == module._len == size

    def test_matcher_has_one_left_vertex_per_mandatory_run(self, monkeypatch):
        """28 copies of one interval against 26: every Hopcroft-Karp run of
        the distance and of the decision has one left vertex per mandatory
        run, a run that must send all its copies, not one per copy."""
        piece = parse_interval("[0,2)")
        m, n = replicate(piece, 28), replicate(piece, 26)
        calls = []

        def recorded(adj, sent, room, need=None, _real=bottleneck._hopcroft_karp, **kwargs):
            calls.append((len(adj), need is not None, sum(room)))
            return _real(adj, sent, room, need, **kwargs)

        monkeypatch.setattr(bottleneck, "_hopcroft_karp", recorded)
        assert module_distance(m, n) == ExtRational(1)
        # The infeasible probe below the answer: the M run must send 28
        # copies into 26, and the greedy start leaves it 2 short.
        assert (1, True, 0) in calls
        assert all(left <= 1 and capacitated for left, capacitated, _ in calls), calls
        for eps, expected in ((Fraction(1, 2), False), (1, True)):
            calls.clear()
            assert modules_eps_interleaved(m, n, eps) is expected
            assert calls and all(left == (not expected) and capacitated
                                 for left, capacitated, _ in calls), calls

    def test_matcher_reads_summands_once_per_module(self, monkeypatch):
        reads = []
        real = PModule.summands

        def counted(self):
            reads.append(self)
            return real.fget(self)

        monkeypatch.setattr(PModule, "summands", property(counted))
        m = PModule.of("[0,2)", "[0,2)", "[0,2)", "[5,6]", "(1,3)")
        n = PModule.of("[0,3)", "[0,3)", "[5,6)")
        bottleneck._cost_tables(bottleneck._pair(m, n, True))
        assert reads == []
        cert = distance_certificate(m, n)
        assert verify_certificate(m, n, cert)
        assert reads == []


@given(pooled_pairs(), small_eps)
def test_distinct_summand_kernel_against_oracles(pair, eps):
    """The kernel runs on distinct summands with one vertex per copy.  Its
    distance and eps-decisions equal the references on the expanded copies,
    and its certificate is the matching of an unseeded probe on the table of
    copies at the answer's top."""
    m, n = pair
    d = module_distance(m, n)
    assert d == reference_module_distance(m, n)
    assert modules_eps_interleaved(m, n, eps) == reference_modules_eps_interleaved(m, n, eps)
    if not d.is_finite:
        return
    at_d = d.as_fraction
    assert modules_eps_interleaved(m, n, at_d) == reference_modules_eps_interleaved(m, n, at_d)
    costs, dtz_m, dtz_n, scale, _, _ = key_table(m.summands, n.summands)
    full = full_probe(costs, dtz_m, dtz_n, int(2 * scale * at_d) + 1)
    assert distance_certificate(m, n).pairs == tuple(sorted(full.items()))


def test_thousands_of_copies_of_one_summand():
    """Each side is one run; the copies of a run share one neighbour list,
    so a probe costs O(copies), not O(copies**2)."""
    piece = parse_interval("[0,2)")
    m, n = replicate(piece, 3000), replicate(piece, 2999)
    assert module_distance(m, n) == ExtRational(1)
    assert modules_eps_interleaved(m, n, 1) and not modules_eps_interleaved(m, n, Fraction(1, 2))
    cert = distance_certificate(m, n)
    assert cert.threshold == ExtRational(1) and verify_certificate(m, n, cert)
