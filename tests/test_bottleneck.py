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
from persistd.verify import random_interval, random_module

from kernel_seam import (Chain, Matcher, check_probe, hopcroft_karp, patch_lattice, recording,
                         run_keys, search_floor)
from oracles import (
    candidate_values,
    column_table,
    full_probe,
    key_table,
    lattice_scale,
    reference_module_distance,
    reference_modules_eps_interleaved,
    reference_search,
    run_table,
)
from strategies import key_columns, modules, pooled_pairs, random_table

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

        patch_lattice(monkeypatch, no_lattice)
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
        size = n_left - hopcroft_karp(adj, pair_l, pair_r)
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
            assert hopcroft_karp(adj, *shared) == hopcroft_karp(
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
        assert hopcroft_karp(adj, *pairs) == 0
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
    """An unseeded probe passes exactly when some matching covers every
    mandatory run, and a failed one leaves the empty matching."""
    rng = random.Random(seed)
    tie_edges = tie_deletions = 0
    for _ in range(25):
        n_m, n_n = rng.randint(0, 6), rng.randint(0, 6)
        costs, keys, t = random_table(rng, n_m, n_n, rng.randint(0, 6))
        dtz_m, dtz_n = keys[:2]
        edge_ok = [[c <= t for c in row] for row in costs]
        mand_m = {i for i in range(n_m) if dtz_m[i] > t}
        mand_n = {j for j in range(n_n) if dtz_n[j] > t}
        probed = Chain(keys).probe(t)
        feasible = probed.bound <= t
        assert feasible == _bruteforce_saturating_exists(edge_ok, mand_m, mand_n)
        matching = probed.left
        if not feasible:
            assert matching == {}
            continue
        tie_edges += sum(costs[i][j] == t for i, j in matching.items())
        tie_deletions += sum(v == t for i, v in enumerate(dtz_m) if i not in matching)
        tie_deletions += sum(v == t for j, v in enumerate(dtz_n) if j not in matching.values())
    # The boundary is inclusive on both sides: an entry equal to t is an
    # edge, and a to-zero cost equal to t leaves the summand deletable.
    assert tie_edges and tie_deletions


def _random_matching(rng, n_m, n_n) -> dict:
    """A random matching {M run: N run} on all pairs, whatever their costs."""
    matching = {}
    for i in rng.sample(range(n_m), n_m):
        free = [j for j in range(n_n) if j not in matching.values()]
        if free and rng.random() < 0.7:
            matching[i] = rng.choice(free)
    return matching


@pytest.mark.parametrize("seed", range(20))
def test_seeded_probe_keeps_only_live_partners(seed):
    """A probe seeded with any matching, pairs over t included, decides as
    an unseeded full probe at every t, up and down the entries, and keeps
    the probe's contract (``kernel_seam.Chain``); a failed probe leaves its
    seed as it was.  So does a chain of probes each seeded with the last
    feasible probe's matching, as in the search."""
    rng = random.Random(1000 + seed)
    for _ in range(25):
        n_m, n_n = rng.randint(0, 6), rng.randint(0, 6)
        costs, keys, _ = random_table(rng, n_m, n_n, rng.randint(0, 6))
        ts = sorted({0, *keys[0], *keys[1], *(c for row in costs for c in row)})
        chained = Chain(keys)
        for t in ts + ts[::-1]:
            start = _random_matching(rng, n_m, n_n)
            probed = Chain(keys, pairs=start).probe(t)
            if probed.bound > t:
                assert probed.left == start
            chained.probe(t)


@pytest.mark.parametrize("seed", range(10))
def test_seeded_probes_on_small_modules(seed):
    """On the table of two modules of at most 4 summands, probes seeded
    with any matching decide as the full probe at every class top, up and
    down, and the search's distance is the exhaustive one."""
    rng = random.Random(3000 + seed)
    for _ in range(20):
        m, n = (random_module(rng, Fraction(-3), Fraction(3), 4, 4) for _ in range(2))
        costs, dtz_m, dtz_n, _, fin, counts = run_table(m, n)
        keys = run_keys(m, n)
        assert column_table(*keys) == costs
        assert module_distance(m, n) == bruteforce_module_distance(m, n)
        if counts is not None:
            continue
        tops = sorted({((r + 1) & -4) + 1 for row in [dtz_m, dtz_n, *costs] for r in row
                       if r <= fin} | {1})
        for t in tops + tops[::-1]:
            Chain(keys, pairs=_random_matching(rng, len(dtz_m), len(dtz_n))).probe(t)


def test_stale_partners_are_dropped():
    # Row 0 must be matched (to-zero cost 4); its old partner, column 0,
    # now costs 3 > t = 1, and so does row 1's, column 1, which must be
    # matched too (to-zero cost 2).  Column 1 is row 0's only neighbour.
    # The repaired matching has the value 1, and row 1, now unmatched, has
    # the term 0, its to-zero cost.
    keys = [4, 0], [0, 2], key_columns((1, 0), (5, 5)), key_columns((-2, 0), (0, 0))
    assert column_table(*keys) == [[3, 1], [0, 2]]
    probed = Chain(keys, pairs={0: 0, 1: 1}).probe(1)
    assert (probed.bound, probed.left) == (1, {0: 1})


def test_phases_let_a_deletable_partner_go():
    """Row 0 must be matched, and only the path row 0 -> column 0 -> row 1
    -> column 1 -> row 2 -> column 2 reaches a target: column 2, whose
    partner row 3 has to-zero cost t and so may be deleted.  Neither a
    direct target nor one swap reaches it, so the phases must."""
    keys = ([5, 5, 5, 1], [0, 0, 0], key_columns(*((k, k) for k in (0, 2, 4, 6))),
            key_columns(*((k, k) for k in (1, 3, 5))))
    assert column_table(*keys) == [[1, 3, 5], [1, 1, 3], [3, 1, 1], [1, 1, 1]]
    probed = Chain(keys, pairs={1: 0, 2: 1, 3: 2}).probe(1)
    assert (probed.bound, probed.left) == (1, {0: 0, 1: 1, 2: 2})


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
    keys = run_keys(PModule(), one)
    # N's run has no neighbour: the probe fails at once, and the floor is
    # its to-zero entry.  At that entry the run may be deleted, and the
    # empty matching's value is the same entry.
    assert Chain(keys).probe(dtz_n[0] - 1).bound == dtz_n[0]
    probed = Chain(keys).probe(dtz_n[0])
    assert (probed.bound, probed.left) == (dtz_n[0], {})


def test_unit_decision_repairs_the_empty_matching():
    """The eps-decision on a pair with no repeated summand repairs the
    empty matching, M's side and then N's.  With an empty side, the other
    side's mandatory run has no neighbour and fails its repair at once, in
    both orders.  At an eps where no run of either side is mandatory, the
    decision holds without reading a neighbour list or running a phase."""
    one = PModule.of("(0,1)")
    with recording() as rec:
        for m, n in ((PModule(), one), (one, PModule())):
            for eps in (Fraction(0), Fraction(1, 4)):
                assert not modules_eps_interleaved(m, n, eps)
            assert rec.matchers == []
            rec.lists.clear()
            for eps in (Fraction(1, 2), Fraction(1)):
                assert modules_eps_interleaved(m, n, eps)
            assert rec.lists == [] and rec.matchers == []
        assert modules_eps_interleaved(PModule(), PModule(), Fraction(0))
        m, n = PModule.of("[0,2)", "(1,4]", "[3,3]"), PModule.of("(0,2)", "[1,4)", "[5,9)")
        # The largest distance to zero is that of [5,9), 2, and it is attained.
        for eps in (Fraction(2), Fraction(3)):
            assert modules_eps_interleaved(m, n, eps)
        assert rec.lists == [] and rec.matchers == []
        step = Fraction(1, 4 * lattice_scale(m, n))
        for eps in (Fraction(2) - step, Fraction(3, 2), Fraction(1, 2), Fraction(0)):
            expected = reference_modules_eps_interleaved(m, n, eps)
            assert modules_eps_interleaved(m, n, eps) == expected
        assert rec.lists


def test_repeated_probe_starts_from_its_own_matching():
    """Each side's flow on runs is kept for the next probe: repeated at the
    same t, a probe on repeated summands starts both flows complete, one
    left vertex per mandatory run."""
    m = PModule.of(*["[0,10)"] * 3, *["[20,30)"] * 2)
    n = PModule.of(*["[1,11)"] * 3, *["[21,31)"] * 2)
    costs, dtz_m, dtz_n, scale, _, counts = run_table(m, n)
    assert counts == ([3, 2], [3, 2])
    top = 2 * scale + 1  # the class top of distance 1, below every to-zero cost
    chain = Chain(run_keys(m, n), counts, costs=costs)
    first = chain.probe(top)
    flows = {0: {0: 3}, 1: {1: 2}}
    assert first.left == (flows, flows)
    assert first.bound == max(costs[0][0], costs[1][1]) <= top
    with recording() as rec:
        again = chain.probe(top)
    assert (again.bound, again.left) == (first.bound, (flows, flows))
    # Both sides' flows of the table probe, then of the probe itself.
    assert rec.matchers == [Matcher(True, 2, [0, 0], 0)] * 4


@pytest.mark.parametrize("text", ["[0,2)", "(1/3,5/2]", "[-1,4]"])
def test_replicates_take_at_most_two_probes(text):
    summand = parse_interval(text)
    with recording() as rec:
        for k in range(1, 30):
            for k_less in range(k):
                rec.clear()
                d = module_distance(replicate(summand, k), replicate(summand, k_less))
                assert d == summand.diameter().half()
                assert 1 <= len(rec.probes) <= 2, (k, k_less, rec.bounds)


def test_probes_at_most_log_of_class_tops():
    rng = random.Random(0)
    with recording() as rec:
        for _ in range(500):
            m, n = (random_module(rng, Fraction(-5), Fraction(5), 4, 7) for _ in range(2))
            # One class top per distinct finite undecorated cost, 0 included.
            tops = len(candidate_values(m, n))
            rec.clear()
            module_distance(m, n)
            assert 1 <= len(rec.probes) <= (tops - 1).bit_length() + 1, (m.to_json(), n.to_json())


@given(modules(max_summands=20, finite_only=False, max_copies=2),
       modules(max_summands=20, finite_only=False, max_copies=2))
@settings(max_examples=60)
def test_search_probes_equal_full_probes(m, n):
    """Every probe of the search, seeded, decides as an unseeded
    copy-level probe on every row and column at the same t, and keeps the
    probe's contract (``kernel_seam.check_probe``): a feasible probe
    leaves a matching or flow of runs at t that covers every mandatory run
    on both sides.  The search's probes run on the key columns of distinct
    summands, which stand for their table (``oracles.column_table``), and
    the full probes on the table of copies, where an unseeded copy-level
    probe on distinct summands gives the same matching.  The certificate's
    matching is that of an unseeded full probe at the answer's top.  Only
    a search whose shared-run floor L meets hi makes no probe: the answer
    is then L's class, (L + 2) >> 2, or +inf when L is."""
    costs, dtz_m, dtz_n, scale, fin, _ = key_table(m.summands, n.summands)
    with recording() as rec:
        d = module_distance(m, n)
    assert d == reference_module_distance(m, n)
    if not rec.probes:
        floor = search_floor(m, n)
        assert floor is not None, (m.to_json(), n.to_json())
        assert floor > fin if not d.is_finite else 2 * (floor + 2 >> 2) == scale * d.as_fraction
    for probe in rec.probes:
        full = full_probe(costs, dtz_m, dtz_n, probe.t)
        run_costs = column_table(*probe.keys)
        assert full_probe(run_costs, *probe.keys[:2], probe.t, probe.counts) == full
        check_probe(probe, run_costs)
    if not d.is_finite:
        return
    assert scale == run_table(m, n)[3]
    top = int(2 * scale * d.as_fraction) + 1
    full = full_probe(costs, dtz_m, dtz_n, top)
    assert distance_certificate(m, n).pairs == tuple(sorted(full.items()))


def test_upper_jump_beats_plain_bisection():
    """A feasible probe's matching moves the bracket's top down to its own
    value, so the search probes less than a plain bisection over the same
    class tops with unseeded probes.  The endpoints lie on a fine grid
    ([-50, 50], denominators up to 16), so the tops are many and a
    matching's value often sits well below the probe."""
    rng = random.Random(11)
    plain = 0
    with recording() as rec:
        for _ in range(20):
            m, n = (
                PModule(random_interval(rng, Fraction(-50), Fraction(50), 16)
                        for _ in range(rng.randint(20, 40)))
                for _ in range(2)
            )
            d, count = reference_search(m, n)
            plain += count
            assert module_distance(m, n) == d
    assert len(rec.probes) < plain, (len(rec.probes), plain)


def test_infeasible_probe_leaves_its_seeds():
    # Row 0 must be matched (to-zero cost 3) and meets no column at t = 0,
    # so the floor is the least of 3 and its row, 1, and the seeds stay as
    # they were, terms included; at t = 1 it meets column 0.  The matching
    # found there has the value 1 too, row 0's new term.
    keys = [3, 0], [0, 0], key_columns((0, 0), (9, 9)), key_columns((1, 1), (4, 4))
    assert column_table(*keys) == [[1, 3], [0, 0]]
    chain = Chain(keys)
    probed = chain.probe(0)
    assert (probed.bound, probed.left, probed.hall) == (1, {}, (0, [0]))
    probed = chain.probe(1)
    assert (probed.bound, probed.left) == (1, {0: 0})


@given(pooled_pairs(max_count=4), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_probe_returns_the_bound_it_proves(pair, rng):
    """The probe's contract (``kernel_seam.Chain``) for chains of probes up
    and down, each seeded with the state the one before left: at every
    class top of the run table of two modules over one pool, repeated runs
    or not, and at every int up to a random table's largest entry, on small
    ints with no repeated run that need not be lattice entries."""
    m, n = pair
    costs, dtz_m, dtz_n, _, _, counts = run_table(m, n)
    tops = sorted({((r + 1) & -4) + 1 for row in [dtz_m, dtz_n, *costs] for r in row} | {1})
    top = rng.randint(0, 9)
    random_costs, random_keys, _ = random_table(rng, rng.randint(0, 6), rng.randint(0, 6), top)
    for chain, ts in ((Chain(run_keys(m, n), counts, costs=costs), tops),
                      (Chain(random_keys, costs=random_costs), range(top + 2))):
        for t in [*ts, *reversed(ts)]:
            chain.probe(t)
