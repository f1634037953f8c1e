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
    replicate,
    verify_certificate,
)
from persistd.bottleneck import _hopcroft_karp, _saturating_matching

from strategies import modules

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

    def test_loose_threshold_still_verifies(self):
        m, n = PModule.of("[0,1)"), PModule.of("[0,1)")
        loose = MatchingCertificate(ExtRational(3), ((0, 0),), (), ())
        assert verify_certificate(m, n, loose)


class TestVertexCap:
    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("PERSISTD_MATCH_CAP", "3")
        m = PModule.of("[0,1)", "[0,2)")
        with pytest.raises(ValueError, match="vertex cap"):
            module_distance(m, m)

    def test_bad_cap_value(self, monkeypatch):
        monkeypatch.setenv("PERSISTD_MATCH_CAP", "lots")
        with pytest.raises(ValueError, match="PERSISTD_MATCH_CAP"):
            module_distance(PModule.zero(), PModule.zero())

    def test_cap_override_allows(self, monkeypatch):
        monkeypatch.setenv("PERSISTD_MATCH_CAP", "100")
        m = PModule.of("[0,1)", "[0,2)")
        assert module_distance(m, m) == ExtRational(0)


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
    size, pair_l, pair_r = _hopcroft_karp(adj, n_right)
    assert size == _bruteforce_max_matching(adj, n_right)
    matched = [(u, v) for u, v in enumerate(pair_l) if v != -1]
    assert len(matched) == size
    assert len({v for _, v in matched}) == size
    for u, v in matched:
        assert v in adj[u]
        assert pair_r[v] == u


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
    rng = random.Random(seed)
    for _ in range(25):
        n_m, n_n = rng.randint(0, 6), rng.randint(0, 6)
        density, deletable = rng.random(), rng.random()
        edge_ok = [[rng.random() < density for _ in range(n_n)] for _ in range(n_m)]
        del_m = [rng.random() < deletable for _ in range(n_m)]
        del_n = [rng.random() < deletable for _ in range(n_n)]
        mand_m = {i for i in range(n_m) if not del_m[i]}
        mand_n = {j for j in range(n_n) if not del_n[j]}
        found = _saturating_matching(edge_ok, del_m, del_n)
        assert (found is not None) == _bruteforce_saturating_exists(edge_ok, mand_m, mand_n)
        if found is None:
            continue
        assert len(set(found.values())) == len(found)
        assert all(edge_ok[i][j] for i, j in found.items())
        assert mand_m <= found.keys() and mand_n <= set(found.values())
