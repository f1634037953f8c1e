import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistd import (
    ExtRational,
    InfiniteDistanceError,
    MatchingCertificate,
    PModule,
    POS_INF,
    bruteforce_module_distance,
    cube_point_module,
    distance_certificate,
    interval,
    interval_distance,
    module_distance,
    modules_eps_interleaved,
    parse_interval,
    replicate,
    verify_certificate,
)
from persistd import bottleneck
from persistd.bottleneck import _hopcroft_karp, _matching_at
from persistd.verify import random_interval, random_module

from oracles import (
    full_probe,
    key_table,
    lattice_scale,
    reference_distance_to_zero,
    reference_interval_distance,
    reference_module_distance,
    reference_modules_eps_interleaved,
    reference_search,
    run_table,
)
from strategies import modules, pooled_pairs

HALF = ExtRational(Fraction(1, 2))


class TestModuleDistance:
    def test_self_distance_zero(self):
        m = PModule.of("[0,2)", "[0,2)", "(3,9]")
        assert module_distance(m, m) == ExtRational(0)

    def test_zero_modules(self):
        assert module_distance(PModule.zero(), PModule.zero()) == ExtRational(0)
        assert module_distance(PModule.of("[0,1)"), PModule.zero()) == HALF

    def test_replicate_counts_differ(self):
        piece = interval(0, 1, "[)")
        mods = [replicate(piece, k) for k in range(6)]
        for a in range(6):
            for b in range(6):
                expected = ExtRational(0) if a == b else HALF
                assert module_distance(mods[a], mods[b]) == expected

    def test_infinite(self):
        assert module_distance(PModule.of("[0,1)"), PModule.of("[0,inf)")) == POS_INF

    def test_matching_beats_deleting(self):
        # Pairing the shifted bars costs 1; deleting them would cost 2.
        m = PModule.of("[0,4)")
        n = PModule.of("[1,5)")
        assert module_distance(m, n) == ExtRational(1)

    @given(modules(max_summands=4), modules(max_summands=4))
    @settings(max_examples=60)
    def test_equals_bruteforce(self, m, n):
        assert module_distance(m, n) == bruteforce_module_distance(m, n)

    def test_seeded_bruteforce_with_infinite_summands(self):
        import persistd.verify as pv

        rng = random.Random(20)
        for _ in range(40):
            def mod():
                count = rng.randint(0, 3)
                return PModule(
                    pv.random_interval(
                        rng, Fraction(-6), Fraction(6), 8, allow_infinite=True
                    )
                    for _ in range(count)
                )

            m, n = mod(), mod()
            assert module_distance(m, n) == bruteforce_module_distance(m, n)

    @given(modules(max_summands=4), modules(max_summands=4), modules(max_summands=4))
    @settings(max_examples=40)
    def test_pseudometric_axioms(self, m, n, p):
        assert module_distance(m, m) == ExtRational(0)
        dmn = module_distance(m, n)
        assert dmn == module_distance(n, m)
        assert module_distance(m, p) <= dmn + module_distance(n, p)

    @given(st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 8)), min_size=1, max_size=4))
    def test_converse_stability_upper_bound(self, spans):
        # Summand-aligned sums stay within the worst aligned distance.
        rng = random.Random(7)
        left, right, worst = [], [], ExtRational(0)
        for lo, width in spans:
            a = interval(lo, lo + width, "[)")
            b = interval(lo + rng.randint(-2, 2), lo + width + rng.randint(-2, 2), "[)")
            if b.is_empty:
                b = interval(lo, lo + 1, "[)")
            left.append(a)
            right.append(b)
            worst = max(worst, interval_distance(a, b))
        assert module_distance(PModule(left), PModule(right)) <= worst


class TestEpsDecision:
    def test_sharp_pair_module_level(self):
        m, n = PModule.of("[0,2]"), PModule.of("(0,2)")
        assert not modules_eps_interleaved(m, n, 0)
        assert modules_eps_interleaved(m, n, Fraction(1, 1000))
        assert module_distance(m, n) == ExtRational(0)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            modules_eps_interleaved(PModule.zero(), PModule.zero(), -1)

    @given(modules(max_summands=3), modules(max_summands=3),
           st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 4])))
    @settings(max_examples=60)
    def test_decision_brackets_distance(self, m, n, eps):
        d = module_distance(m, n)
        if modules_eps_interleaved(m, n, eps):
            assert d <= ExtRational(eps)
        else:
            assert d >= ExtRational(eps)

    @given(modules(max_summands=4), st.builds(Fraction, st.integers(0, 8), st.sampled_from([1, 2, 4])))
    @settings(max_examples=60)
    def test_componentwise_interleaving_lifts_to_sums(self, m, eps):
        # Summand-by-summand eps-interleavings direct-sum to a module
        # eps-interleaving (checked here through aligned erosions).
        from persistd import are_eps_interleaved

        shifted = PModule(s.shift(eps) for s in m.summands)
        if all(
            are_eps_interleaved(a, b, eps)
            for a, b in zip(m.summands, shifted.summands)
        ):
            assert modules_eps_interleaved(m, shifted, eps)


class TestCertificates:
    def test_single_deletion(self):
        cert = distance_certificate(PModule.of("[0,1)"), PModule.zero())
        assert cert.threshold == HALF
        assert cert.pairs == ()
        assert cert.unmatched_m == (0,)
        assert cert.unmatched_n == ()

    def test_identity(self):
        m = PModule.of("[0,2)", "[5,6]")
        cert = distance_certificate(m, m)
        assert cert.threshold == ExtRational(0)
        assert cert.pairs == ((0, 0), (1, 1))
        assert verify_certificate(m, m, cert)

    def test_cube_coordinatewise(self):
        x = [Fraction(1, 500), Fraction(0), Fraction(1, 401)]
        y = [Fraction(1, 1000), Fraction(1, 350), Fraction(0)]
        m, n = cube_point_module(3, x), cube_point_module(3, y)
        cert = distance_certificate(m, n)
        expected = max(abs(a - b) for a, b in zip(x, y))
        assert cert.threshold == ExtRational(expected)
        assert cert.pairs == ((0, 0), (1, 1), (2, 2))
        assert verify_certificate(m, n, cert)

    def test_infinite_distance_raises(self):
        with pytest.raises(InfiniteDistanceError):
            distance_certificate(PModule.of("[0,1)"), PModule.of("[0,inf)"))

    @given(modules(max_summands=4), modules(max_summands=4))
    @settings(max_examples=60)
    def test_round_trip_and_verify(self, m, n):
        if not module_distance(m, n).is_finite:
            return
        cert = distance_certificate(m, n)
        assert verify_certificate(m, n, cert)
        again = MatchingCertificate.from_json_obj(cert.to_json_obj())
        assert verify_certificate(m, n, again)

    @pytest.mark.parametrize("field, value", [
        ("pairs", [[0.7, True]]),
        ("pairs", [[0, 1.0]]),
        ("pairs", [[False, 0]]),
        ("unmatched_m", [1.9]),
        ("unmatched_n", [True]),
        ("unmatched_m", ["1_0"]),
        ("unmatched_n", ["\u0661"]),
        ("unmatched_n", ["1.0"]),
        ("pairs", ["01"]),
        ("pairs", [[0]]),
        ("pairs", [[0, 1, 2]]),
        ("pairs", "[]"),
        ("unmatched_m", "0"),
        ("unmatched_n", {"0": 1}),
    ])
    def test_json_indices_are_integers(self, field, value):
        obj = {"threshold": "1/2", "pairs": [], "unmatched_m": [], "unmatched_n": []}
        obj[field] = value
        with pytest.raises(ValueError, match="bad certificate JSON"):
            MatchingCertificate.from_json_obj(obj)

    @pytest.mark.parametrize("threshold", [True, False])
    def test_json_threshold_is_not_boolean(self, threshold):
        obj = {"threshold": threshold, "pairs": [], "unmatched_m": [], "unmatched_n": []}
        with pytest.raises(ValueError, match="bad certificate JSON"):
            MatchingCertificate.from_json_obj(obj)

    def test_json_indices_take_integer_text(self):
        obj = {"threshold": "1/2", "pairs": [[" 0", "+1"]], "unmatched_m": ["2"],
               "unmatched_n": [0]}
        cert = MatchingCertificate.from_json_obj(obj)
        assert (cert.pairs, cert.unmatched_m, cert.unmatched_n) == (((0, 1),), (2,), (0,))

    def test_tampered_threshold_fails(self):
        m, n = PModule.of("[0,4)"), PModule.of("[1,4)")
        cert = distance_certificate(m, n)
        low = MatchingCertificate(ExtRational(0), cert.pairs, cert.unmatched_m, cert.unmatched_n)
        assert not verify_certificate(m, n, low)

    def test_omitted_summand_fails(self):
        m, n = PModule.of("[0,1)", "[2,3)"), PModule.of("[0,1)")
        cert = distance_certificate(m, n)
        broken = MatchingCertificate(cert.threshold, cert.pairs, (), cert.unmatched_n)
        assert not verify_certificate(m, n, broken)

    def test_pair_over_threshold_fails(self):
        m, n = PModule.of("[0,8)"), PModule.of("[100,108)")
        bad = MatchingCertificate(ExtRational(1), ((0, 0),), (), ())
        assert not verify_certificate(m, n, bad)

    @pytest.mark.parametrize("threshold", ["-1", "-inf"])
    def test_negative_threshold_fails(self, threshold):
        # No distance is below 0, not even between zero modules.
        cert = MatchingCertificate.from_json_obj(
            {"threshold": threshold, "pairs": [], "unmatched_m": [], "unmatched_n": []})
        assert not verify_certificate(PModule.zero(), PModule.zero(), cert)
        m = PModule.of("[0,1)")
        assert not verify_certificate(m, m, cert._replace(pairs=((0, 0),)))

    def test_loose_threshold_still_verifies(self):
        m, n = PModule.of("[0,1)"), PModule.of("[0,1)")
        loose = MatchingCertificate(ExtRational(3), ((0, 0),), (), ())
        assert verify_certificate(m, n, loose)


class TestVertexCap:
    """A matched pair holds at most 10,000 summand copies, a fixed budget:
    5001 copies against 5000 are one too many, and cheap to build as runs."""

    OVER = r"^matching on 5001\+5000 summands exceeds the vertex cap 10000$"

    @staticmethod
    def copies(count):
        return replicate(parse_interval("[0,2)"), count)

    def test_cap_enforced(self, monkeypatch):
        def no_lattice(*args):
            raise AssertionError("a lattice was built before the vertex cap was checked")

        monkeypatch.setattr(bottleneck, "_lattice", no_lattice)
        m, n = self.copies(5001), self.copies(5000)
        calls = [module_distance, distance_certificate,
                 *(lambda m, n, eps=eps: modules_eps_interleaved(m, n, eps) for eps in (0, 1, -1, 0.5))]
        for call in calls:
            with pytest.raises(ValueError, match=self.OVER):
                call(m, n)

    def test_cap_is_inclusive(self):
        m, n = self.copies(5000), self.copies(5000)
        assert bottleneck.MATCH_CAP == 10_000
        assert module_distance(m, n) == ExtRational(0)
        assert modules_eps_interleaved(m, n, 0)

    @pytest.mark.parametrize("raw", ["1", "lots", "100000"])
    def test_environment_does_not_move_the_cap(self, monkeypatch, raw):
        monkeypatch.setenv("PERSISTD_MATCH_CAP", raw)
        assert module_distance(PModule.of("[0,1)", "[0,2)"), PModule.of("[0,1)")) == ExtRational(1)
        with pytest.raises(ValueError, match=self.OVER):
            module_distance(self.copies(5001), self.copies(5000))


def _bruteforce_max_matching(adj, n_right):
    best = 0
    n_left = len(adj)
    rights = range(n_right)
    for k in range(min(n_left, n_right), 0, -1):
        for lefts in combinations(range(n_left), k):
            for perm in permutations(rights, k):
                if all(perm[i] in adj[lefts[i]] for i in range(k)):
                    return k
    return best


@pytest.mark.parametrize("seed", range(30))
def test_hopcroft_karp_maximum(seed):
    rng = random.Random(seed)
    n_left, n_right = rng.randint(0, 5), rng.randint(0, 5)
    adj = [
        sorted({rng.randrange(n_right) for _ in range(rng.randint(0, n_right))})
        if n_right
        else []
        for _ in range(n_left)
    ]
    best = _bruteforce_max_matching(adj, n_right)
    seeds = [([-1] * n_left, [-1] * n_right)]
    # Random valid starting matchings: the result is just as large, and
    # augmenting never unmatches a seeded left vertex.
    for _ in range(4):
        pair_l, pair_r = [-1] * n_left, [-1] * n_right
        for u in rng.sample(range(n_left), n_left):
            free = [v for v in adj[u] if pair_r[v] == -1]
            if free and rng.random() < 0.7:
                pair_l[u] = rng.choice(free)
                pair_r[pair_l[u]] = u
        seeds.append((pair_l, pair_r))
    for pair_l, pair_r in seeds:
        seeded = [u for u, v in enumerate(pair_l) if v != -1]
        size = n_left - _hopcroft_karp(adj, pair_l, pair_r)
        assert size == best
        matched = [(u, v) for u, v in enumerate(pair_l) if v != -1]
        assert len(matched) == size
        assert len({v for _, v in matched}) == size
        for u, v in matched:
            assert v in adj[u]
            assert pair_r[v] == u
        assert all(pair_l[u] != -1 for u in seeded)
        assert pair_r.count(-1) == n_right - size


@pytest.mark.parametrize("seed", range(20))
def test_hopcroft_karp_on_shared_lists(seed):
    """Left vertices may share one list object, as the copies of a summand
    do; the matching is exactly that of unshared, equal lists, seeded or
    not."""
    rng = random.Random(2000 + seed)
    for _ in range(200):
        n_right = rng.randint(1, 8)
        lists = [rng.sample(range(n_right), rng.randint(0, n_right))
                 for _ in range(rng.randint(1, 3))]
        adj = [rng.choice(lists) for _ in range(rng.randint(1, 10))]
        if rng.random() < 0.5:
            adj.sort(key=lists.index)  # copies of a run are consecutive
        pair_l, pair_r = [-1] * len(adj), [-1] * n_right
        for u in range(len(adj)):
            free = [v for v in adj[u] if pair_r[v] == -1]
            if free and rng.random() < 0.5:
                pair_l[u] = rng.choice(free)
                pair_r[pair_l[u]] = u
        for start in (([-1] * len(adj), [-1] * n_right), (pair_l, pair_r)):
            shared, unshared = (list(map(list, start)) for _ in range(2))
            assert _hopcroft_karp(adj, *shared) == _hopcroft_karp(
                [list(a) for a in adj], *unshared)
            assert shared == unshared, (adj, n_right, start)


def test_shared_list_root_restarts_at_a_revived_edge():
    """A root's augmenting path can make an earlier edge of its shared list
    live again: the edge it takes from its layer-1 vertex now leads to that
    vertex.  The next root with the list must start at that edge, not where
    the root stopped, to match as on unshared lists."""
    a, b, c = [5, 0, 4, 7, 3], [0, 4], [4, 3, 6, 1]
    start = [5, 0, -1, 3, -1, -1], [1, -1, -1, 3, -1, 0, -1, -1]
    expected = [[7, 5, 0, 6, 3, 4], [2, -1, -1, 4, 5, 1, 3, 0]]
    for adj in ([a, a, b, c, c, c], [list(a), list(a), b, list(c), list(c), list(c)]):
        pairs = list(map(list, start))
        assert _hopcroft_karp(adj, *pairs) == 0
        assert pairs == expected


def _bruteforce_saturating_exists(edge_ok, mand_m, mand_n):
    """Is there a matching on allowed edges covering every mandatory
    vertex?  Tries every partner (or none) for each left vertex in turn."""
    n_right = len(edge_ok[0]) if edge_ok else 0

    def extend(i, used):
        if i == len(edge_ok):
            return mand_n <= used
        if i not in mand_m and extend(i + 1, used):
            return True
        return any(
            extend(i + 1, used | {j})
            for j in range(n_right)
            if edge_ok[i][j] and j not in used
        )

    return extend(0, frozenset())


@pytest.mark.parametrize("seed", range(20))
def test_saturating_matching_against_bruteforce(seed):
    rng, widen = random.Random(seed), random.Random(-1 - seed)
    tie_edges = tie_deletions = 0
    for _ in range(25):
        n_m, n_n = rng.randint(0, 6), rng.randint(0, 6)
        costs, dtz_m, dtz_n, t = _random_table(rng, n_m, n_n, rng.randint(0, 6))
        edge_ok = [[c <= t for c in row] for row in costs]
        mand_m = {i for i in range(n_m) if dtz_m[i] > t}
        mand_n = {j for j in range(n_n) if dtz_n[j] > t}
        found = full_probe(costs, dtz_m, dtz_n, t)
        assert (found is not None) == _bruteforce_saturating_exists(edge_ok, mand_m, mand_n)
        # Narrowed lists, the neighbours at some threshold >= t, give the
        # same answer, and a failed probe the same floor; only a feasible
        # probe narrows them, to exactly the mandatory summands' neighbours
        # at t.
        t_hi = t + widen.randint(0, 2)
        near_m = [[j for j in range(n_n) if costs[i][j] <= t_hi] for i in range(n_m)]
        near_n = [[i for i in range(n_m) if costs[i][j] <= t_hi] for j in range(n_n)]
        before = [list(a) for a in near_m], [list(a) for a in near_n]
        unseeded = [-1] * n_m, [-1] * n_n
        bound = _matching_at(costs, dtz_m, dtz_n, t, near_m, near_n, unseeded, None)
        _assert_probe(bound, unseeded, costs, dtz_m, dtz_n, t)
        if found is None:
            assert bound == _seeded_probe(costs, dtz_m, dtz_n, t, unseeded)
            assert unseeded == ([-1] * n_m, [-1] * n_n)
            assert (near_m, near_n) == before
            continue
        # A feasible probe narrows the lists it read, all of mandatory
        # summands, to exactly their neighbours at t, and no other list.
        for near, old, mand, at_t in (
                (near_m, before[0], mand_m, lambda i: [j for j in range(n_n) if edge_ok[i][j]]),
                (near_n, before[1], mand_n, lambda j: [i for i in range(n_m) if edge_ok[i][j]])):
            assert all(a == b or (k in mand and a == at_t(k))
                       for k, (a, b) in enumerate(zip(near, old)))
        mate_m, mate_n = unseeded
        tie_edges += sum(costs[i][j] == t for i, j in enumerate(mate_m) if j != -1)
        tie_deletions += sum(v == t for v, j in zip(dtz_m, mate_m) if j == -1)
        tie_deletions += sum(v == t for v, i in zip(dtz_n, mate_n) if i == -1)
    # The boundary is inclusive on both sides: an entry equal to t is an
    # edge, and a to-zero cost equal to t leaves the summand deletable.
    assert tie_edges and tie_deletions


def _random_table(rng, n_m, n_n, top):
    """Random costs and to-zero costs up to ``top``, and a threshold that
    is mostly one of the entries, so that ties with it are common."""
    costs = [[rng.randint(0, top) for _ in range(n_n)] for _ in range(n_m)]
    dtz_m = [rng.randint(0, top) for _ in range(n_m)]
    dtz_n = [rng.randint(0, top) for _ in range(n_n)]
    t = rng.choice([*dtz_m, *dtz_n, *(c for row in costs for c in row), top])
    return costs, dtz_m, dtz_n, t


def _assert_matching_at(found, costs, dtz_m, dtz_n, t):
    """``found`` = (mate_m, mate_n) is a matching with partners on both
    sides, -1 for none, that uses only pairs of cost <= t and covers every
    summand of to-zero cost > t on both sides."""
    mate_m, mate_n = found
    assert len(mate_m) == len(dtz_m) and len(mate_n) == len(dtz_n)
    assert all(mate_n[j] == i for i, j in enumerate(mate_m) if j != -1)
    assert all(mate_m[i] == j for j, i in enumerate(mate_n) if i != -1)
    assert all(costs[i][j] <= t for i, j in enumerate(mate_m) if j != -1)
    assert all(j != -1 for v, j in zip(dtz_m, mate_m) if v > t)
    assert all(i != -1 for v, i in zip(dtz_n, mate_n) if v > t)


def _assert_floor(floor, costs, dtz_m, dtz_n, t, counts=None):
    """``floor``, what a probe at t returns when it fails, is an int above
    t, and the unseeded full probe fails just below it, so, feasibility
    being monotone in the threshold, at every threshold below it."""
    assert isinstance(floor, int) and floor > t, (floor, t)
    assert full_probe(costs, dtz_m, dtz_n, floor - 1, copies=counts) is None, (floor, t)


def _seed_value(seeds, costs, dtz_m, dtz_n, counts) -> int:
    """The value of what a feasible probe leaves in its ``seeds``: with
    ``counts`` None, of the matching (mate_m, mate_n), the largest of its
    pairs' costs and of the to-zero costs of the runs it leaves unmatched;
    else of the two sides' flows (side_m, side_n), the largest of every
    edge cost in either and of the to-zero cost of every run that its
    side's flow does not cover."""
    if counts is None:
        mate_m, mate_n = seeds
        return max([0, *(costs[i][j] for i, j in enumerate(mate_m) if j != -1),
                    *(v for v, j in zip(dtz_m, mate_m) if j == -1),
                    *(v for v, i in zip(dtz_n, mate_n) if i == -1)])
    (side_m, _), (side_n, _) = seeds
    return max([0, *(costs[i][j] for i, row in side_m.items() for j in row),
                *(costs[i][j] for j, row in side_n.items() for i in row),
                *(v for i, v in enumerate(dtz_m) if i not in side_m),
                *(v for j, v in enumerate(dtz_n) if j not in side_n)])


def _assert_probe(bound, seeds, costs, dtz_m, dtz_n, t, counts=None):
    """The contract of a probe at t on runs, which returned ``bound`` and
    left ``seeds``: ``bound`` is an int, at most t exactly when the full
    probe at t succeeds.  Above t it is a floor (``_assert_floor``).  At or
    below t it is the ``_seed_value`` of the seeds, and they hold
    (``_assert_flow_at``) a matching or flows at t.  The rooms of flows on
    repeated runs add up either way (``_assert_room``)."""
    assert isinstance(bound, int) and not isinstance(bound, bool), bound
    feasible = full_probe(costs, dtz_m, dtz_n, t, copies=counts) is not None
    assert (bound <= t) == feasible, (bound, t)
    if not feasible:
        _assert_floor(bound, costs, dtz_m, dtz_n, t, counts)
        if counts is not None:
            _assert_room(seeds, counts)
        return
    assert _seed_value(seeds, costs, dtz_m, dtz_n, counts) == bound
    _assert_flow_at(seeds, costs, dtz_m, dtz_n, t, counts)


def _assert_room(seeds, counts):
    """Each side's seed (sent, room) on repeated runs, feasible or not:
    room[j] plus the units that ``sent`` sends to run j of the other side
    is j's copy count, so no room is below 0 and every unit a run gave back
    is room again."""
    for (sent, room), count in zip(seeds, counts[::-1]):
        into = [0] * len(count)
        for row in sent.values():
            for j, units in row.items():
                into[j] += units
        assert min([0, *room]) == 0 and [r + k for r, k in zip(room, into)] == count, (
            sent, room, count)


def _assert_flow_at(seeds, costs, dtz_m, dtz_n, t, counts):
    """What a feasible probe on runs leaves in its ``seeds``:
    ``_assert_matching_at``, and with ``counts``, each of the two sides'
    flows (side_m, side_n), {run: {run of the other side: units}}, uses
    only pairs of cost <= t and has as its keys exactly its side's runs of
    to-zero cost > t, each sending every copy, and the room each leaves
    holds the rest of the other side's copies (``_assert_room``)."""
    if counts is None:
        _assert_matching_at(seeds, costs, dtz_m, dtz_n, t)
        return
    (side_m, _), (side_n, _) = seeds
    flipped = [[row[j] for row in costs] for j in range(len(dtz_n))]
    for flow, table, dtz, count in ((side_m, costs, dtz_m, counts[0]),
                                    (side_n, flipped, dtz_n, counts[1])):
        assert sorted(flow) == [i for i, v in enumerate(dtz) if v > t]
        for i, row in flow.items():
            assert sum(row.values()) == count[i]
            assert all(units > 0 and table[i][j] <= t for j, units in row.items())
    _assert_room(seeds, counts)


def _seeded_probe(costs, dtz_m, dtz_n, t, seeds):
    """``bottleneck._matching_at`` on whole rows and columns of a table
    with no repeated summand, seeded with the matching ``seeds``, which it
    updates in place: the bound it returns."""
    near_m = [range(len(dtz_n))] * len(dtz_m)
    near_n = [range(len(dtz_m))] * len(dtz_n)
    return _matching_at(costs, dtz_m, dtz_n, t, near_m, near_n, seeds, None)


def _random_matching(rng, n_m, n_n):
    """A random matching on all pairs, whatever their costs, with partners
    on both sides."""
    mate_m, mate_n = [-1] * n_m, [-1] * n_n
    for i in rng.sample(range(n_m), n_m):
        free = [j for j in range(n_n) if mate_n[j] == -1]
        if free and rng.random() < 0.7:
            j = rng.choice(free)
            mate_m[i], mate_n[j] = j, i
    return mate_m, mate_n


@pytest.mark.parametrize("seed", range(20))
def test_seeded_probe_keeps_only_live_partners(seed):
    """A probe seeded with any matching, pairs over t included, decides as
    an unseeded full probe at every t, up and down the entries, and keeps
    the probe's contract (``_assert_probe``); a failed probe leaves its
    seed as it was.  So does a chain of probes each seeded with the last
    feasible probe's matching, as in the search."""
    rng = random.Random(1000 + seed)
    for _ in range(25):
        n_m, n_n = rng.randint(0, 6), rng.randint(0, 6)
        costs, dtz_m, dtz_n, _ = _random_table(rng, n_m, n_n, rng.randint(0, 6))
        ts = sorted({0, *dtz_m, *dtz_n, *(c for row in costs for c in row)})
        chained = [-1] * n_m, [-1] * n_n
        for t in ts + ts[::-1]:
            full = full_probe(costs, dtz_m, dtz_n, t)
            seeds = _random_matching(rng, n_m, n_n)
            kept = tuple(map(list, seeds))
            for start in (seeds, chained):
                bound = _seeded_probe(costs, dtz_m, dtz_n, t, start)
                _assert_probe(bound, start, costs, dtz_m, dtz_n, t)
            if full is None:
                assert seeds == kept


@pytest.mark.parametrize("seed", range(10))
def test_seeded_probes_on_small_modules(seed):
    """On the table of two modules of at most 4 summands, probes seeded
    with any matching decide as the full probe at every class top, up and
    down, and the search's distance is the exhaustive one."""
    rng = random.Random(3000 + seed)
    for _ in range(20):
        m, n = (random_module(rng, Fraction(-3), Fraction(3), 4, 4) for _ in range(2))
        costs, dtz_m, dtz_n, _, fin, counts = run_table(m, n)
        assert module_distance(m, n) == bruteforce_module_distance(m, n)
        if counts is not None:
            continue
        tops = sorted({((r + 1) & -4) + 1 for row in [dtz_m, dtz_n, *costs] for r in row
                       if r <= fin} | {1})
        for t in tops + tops[::-1]:
            seeds = _random_matching(rng, len(dtz_m), len(dtz_n))
            bound = _seeded_probe(costs, dtz_m, dtz_n, t, seeds)
            _assert_probe(bound, seeds, costs, dtz_m, dtz_n, t)


def test_stale_partners_are_dropped():
    # Row 0 must be matched (to-zero cost 4); its old partner, column 0,
    # now costs 3 > t = 1, and so does row 1's, column 1.  Column 1 is row
    # 0's only neighbour.  The repaired matching has the value 1.
    costs = [[3, 1], [0, 5]]
    seeds = ([0, 1], [0, 1])
    assert _seeded_probe(costs, [4, 0], [0, 0], 1, seeds) == 1
    assert seeds == ([1, -1], [-1, 0])


def test_phases_let_a_deletable_partner_go():
    """Row 0 must be matched, and only the path row 0 -> column 0 -> row 1
    -> column 1 -> row 2 -> column 2 reaches a target: column 2, whose
    partner row 3 has to-zero cost t and so may be deleted.  Neither a
    direct target nor one swap reaches it, so the phases must."""
    costs = [[1, 9, 9], [1, 1, 9], [9, 1, 1], [9, 9, 1]]
    dtz_m, dtz_n = [5, 5, 5, 1], [0, 0, 0]
    seeds = ([-1, 0, 1, 2], [1, 2, 3])
    assert full_probe(costs, dtz_m, dtz_n, 1) is not None
    assert _seeded_probe(costs, dtz_m, dtz_n, 1, seeds) == 1
    assert seeds == ([0, 1, 2, -1], [0, 1, 2])


def test_a_side_with_no_runs():
    """An empty module against one summand: the probes of the search and
    the decisions run with no run on one side, in both orders."""
    one = PModule.of("(0,1)")
    for m, n in ((PModule(), one), (one, PModule())):
        assert module_distance(m, n) == HALF
        assert distance_certificate(m, n).threshold == HALF
        assert modules_eps_interleaved(m, n, Fraction(1, 2))
        assert not modules_eps_interleaved(m, n, Fraction(1, 4))
    costs, dtz_m, dtz_n, _, _, counts = run_table(PModule(), one)
    assert (costs, dtz_m, counts) == ([], [], None)
    # N's run has no neighbour: the probe fails at once, and the floor is
    # its to-zero entry.  At that entry the run may be deleted, and the
    # empty matching's value is the same entry.
    assert _seeded_probe(costs, dtz_m, dtz_n, dtz_n[0] - 1, ([], [-1])) == dtz_n[0]
    seeds = ([], [-1])
    assert _seeded_probe(costs, dtz_m, dtz_n, dtz_n[0], seeds) == dtz_n[0]
    assert seeds == ([], [-1])


def test_unit_decision_repairs_the_empty_matching(monkeypatch):
    """The eps-decision on a pair with no repeated summand repairs the
    empty matching, M's side and then N's.  With an empty side, the other
    side's mandatory run has no neighbour and fails its repair at once, in
    both orders.  At an eps where no run of either side is mandatory, the
    decision holds without reading a neighbour list or running a phase."""
    reads, phases = [], []

    class Recorded(bottleneck._Lists):
        def __missing__(self, run):
            reads.append(run)
            return super().__missing__(run)

    def counted(*args, _real=bottleneck._hopcroft_karp, **kwargs):
        phases.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(bottleneck, "_Lists", Recorded)
    monkeypatch.setattr(bottleneck, "_hopcroft_karp", counted)
    one = PModule.of("(0,1)")
    for m, n in ((PModule(), one), (one, PModule())):
        for eps in (Fraction(0), Fraction(1, 4)):
            assert not modules_eps_interleaved(m, n, eps)
        assert phases == []
        reads.clear()
        for eps in (Fraction(1, 2), Fraction(1)):
            assert modules_eps_interleaved(m, n, eps)
        assert reads == [] and phases == []
    assert modules_eps_interleaved(PModule(), PModule(), Fraction(0))
    m, n = PModule.of("[0,2)", "(1,4]", "[3,3]"), PModule.of("(0,2)", "[1,4)", "[5,9)")
    # The largest distance to zero is that of [5,9), 2, and it is attained.
    for eps in (Fraction(2), Fraction(3)):
        assert modules_eps_interleaved(m, n, eps)
    assert reads == [] and phases == []
    step = Fraction(1, 4 * lattice_scale(m, n))
    for eps in (Fraction(2) - step, Fraction(3, 2), Fraction(1, 2), Fraction(0)):
        assert modules_eps_interleaved(m, n, eps) == reference_modules_eps_interleaved(m, n, eps)
    assert reads


def test_repeated_probe_starts_from_its_own_matching(monkeypatch):
    """Each side's flow on runs is kept for the next probe: repeated at the
    same t, a probe on repeated summands starts both Hopcroft-Karp runs
    from complete flows, one left vertex per mandatory run."""
    m = PModule.of(*["[0,10)"] * 3, *["[20,30)"] * 2)
    n = PModule.of(*["[1,11)"] * 3, *["[21,31)"] * 2)
    costs, dtz_m, dtz_n, scale, _, counts = run_table(m, n)
    assert counts == ([3, 2], [3, 2])
    top = 2 * scale + 1  # the class top of distance 1, below every to-zero cost
    seeds = ({}, list(counts[1])), ({}, list(counts[0]))
    near = [range(2)] * 2
    first = _matching_at(costs, dtz_m, dtz_n, top, list(near), list(near), seeds, counts)
    flows = ({0: {0: 3}, 1: {1: 2}}, [0, 0]), ({0: {0: 3}, 1: {1: 2}}, [0, 0])
    assert seeds == flows
    assert first == max(costs[0][0], costs[1][1]) <= top
    starts = []

    def recorded(adj, sent, room, need, *args, _real=bottleneck._flow):
        starts.append((len(adj), list(need)))
        return _real(adj, sent, room, need, *args)

    monkeypatch.setattr(bottleneck, "_flow", recorded)
    assert _matching_at(costs, dtz_m, dtz_n, top, list(near), list(near), seeds, counts) == first
    assert seeds == flows
    assert starts == [(2, [0, 0]), (2, [0, 0])]


def _count_probes(monkeypatch) -> list:
    probes = []

    def counted(*args, _real=bottleneck._matching_at):
        probes.append(args[3])
        return _real(*args)

    monkeypatch.setattr(bottleneck, "_matching_at", counted)
    return probes


@pytest.mark.parametrize("text", ["[0,2)", "(1/3,5/2]", "[-1,4]"])
def test_replicates_take_at_most_two_probes(monkeypatch, text):
    probes = _count_probes(monkeypatch)
    summand = parse_interval(text)
    for k in range(1, 30):
        for k_less in range(k):
            probes.clear()
            d = module_distance(replicate(summand, k), replicate(summand, k_less))
            assert d == summand.diameter().half()
            assert 1 <= len(probes) <= 2, (k, k_less, probes)


def test_probes_at_most_log_of_class_tops(monkeypatch):
    probes = _count_probes(monkeypatch)
    rng = random.Random(0)
    for _ in range(500):
        m, n = (random_module(rng, Fraction(-5), Fraction(5), 4, 7) for _ in range(2))
        # One class top per distinct finite undecorated cost, 0 included.
        classes = {ExtRational(0)}
        classes.update(reference_interval_distance(a, b) for a in m for b in n)
        classes.update(reference_distance_to_zero(s) for s in (*m, *n))
        tops = sum(1 for c in classes if c.is_finite)
        probes.clear()
        module_distance(m, n)
        assert 1 <= len(probes) <= (tops - 1).bit_length() + 1, (m.to_json(), n.to_json())


@given(modules(max_summands=20, finite_only=False, max_copies=2),
       modules(max_summands=20, finite_only=False, max_copies=2))
@settings(max_examples=60)
def test_search_probes_equal_full_probes(m, n):
    """Every probe of the search, seeded and on the lists that earlier
    probes narrowed, decides as an unseeded copy-level probe on every row
    and column at the same t.  A feasible probe returns a matching or flow
    of runs at t that covers every mandatory run on both sides.  The
    search's probes run on the table of distinct summands and the full
    probes on the table of copies, where an unseeded copy-level probe on
    distinct summands gives the same matching.  The certificate's matching
    is that of an unseeded full probe at the answer's top."""
    costs, dtz_m, dtz_n, scale, _, _ = key_table(m.summands, n.summands)
    probes = []

    def checked(*args):
        t, seeds, counts = args[3], args[6], args[7]
        full = full_probe(costs, dtz_m, dtz_n, t)
        assert full_probe(*args[:4], None, counts) == full
        bound = _matching_at(*args)
        _assert_probe(bound, seeds, *args[:4], counts)
        probes.append(t)
        return bound

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bottleneck, "_matching_at", checked)
        d = module_distance(m, n)
    assert probes and d == reference_module_distance(m, n)
    if not d.is_finite:
        return
    assert scale == bottleneck._pair(m, n, True)[0]
    top = int(2 * scale * d.as_fraction) + 1
    full = full_probe(costs, dtz_m, dtz_n, top)
    assert distance_certificate(m, n).pairs == tuple(sorted(full.items()))


def test_upper_jump_beats_plain_bisection(monkeypatch):
    """A feasible probe's matching moves the bracket's top down to its own
    value, so the search probes less than a plain bisection over the same
    class tops with unseeded probes.  The endpoints lie on a fine grid
    ([-50, 50], denominators up to 16), so the tops are many and a
    matching's value often sits well below the probe."""
    probes = _count_probes(monkeypatch)
    rng = random.Random(11)
    plain = 0
    for _ in range(20):
        m, n = (
            PModule(random_interval(rng, Fraction(-50), Fraction(50), 16)
                    for _ in range(rng.randint(20, 40)))
            for _ in range(2)
        )
        d, count = reference_search(m, n)
        plain += count
        assert module_distance(m, n) == d
    assert len(probes) < plain, (len(probes), plain)


def test_infeasible_probe_leaves_lists_unchanged():
    # Row 0 must be matched (to-zero cost 3) and meets no column at t = 0,
    # so the floor is the least of 3 and its row, 1; at t = 1 it meets
    # column 0, and only its own list narrows.  The matching found there
    # has the value 1 too.
    costs = [[1, 5], [5, 5]]
    dtz_m, dtz_n = [3, 0], [0, 0]
    near_m, near_n = [[0, 1], [1]], [[0], [0, 1]]
    seeds = [-1, -1], [-1, -1]
    assert _matching_at(costs, dtz_m, dtz_n, 0, near_m, near_n, seeds, None) == 1
    assert (near_m, near_n, seeds) == ([[0, 1], [1]], [[0], [0, 1]], ([-1, -1], [-1, -1]))
    assert _matching_at(costs, dtz_m, dtz_n, 1, near_m, near_n, seeds, None) == 1
    assert seeds == ([0, -1], [0, -1])
    assert (near_m, near_n) == ([[0], [1]], [[0], [0, 1]])



@given(pooled_pairs(max_count=4), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_probe_returns_the_bound_it_proves(pair, rng):
    """The probe's contract (``_assert_probe``) for chains of probes up and
    down, each seeded with the state the one before left: at every class
    top of the run table of two modules over one pool, repeated runs or
    not, and at every int up to a random table's largest entry, on small
    ints with no repeated run that need not be lattice entries."""
    m, n = pair
    costs, dtz_m, dtz_n, _, _, counts = run_table(m, n)
    tops = sorted({((r + 1) & -4) + 1 for row in [dtz_m, dtz_n, *costs] for r in row} | {1})
    top = rng.randint(0, 9)
    tables = [(costs, dtz_m, dtz_n, counts, tops),
              (*_random_table(rng, rng.randint(0, 6), rng.randint(0, 6), top)[:3], None,
               range(top + 2))]
    for costs, dtz_m, dtz_n, counts, ts in tables:
        if counts is None:
            seeds = [-1] * len(dtz_m), [-1] * len(dtz_n)
        else:
            seeds = ({}, list(counts[1])), ({}, list(counts[0]))
        near_m = [range(len(dtz_n))] * len(dtz_m)
        near_n = [range(len(dtz_m))] * len(dtz_n)
        for t in [*ts, *reversed(ts)]:
            bound = _matching_at(costs, dtz_m, dtz_n, t, list(near_m), list(near_n), seeds,
                                 counts)
            _assert_probe(bound, seeds, costs, dtz_m, dtz_n, t, counts)
