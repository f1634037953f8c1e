import random
import time
from fractions import Fraction
from itertools import product

import pytest

from persistd import (
    ClassMismatchError,
    EMPTY,
    ExtRational,
    PModule,
    binary_sequence_module,
    bruteforce_module_distance,
    cauchy_witness,
    cube_point_module,
    distance_to_zero,
    families,
    module_distance,
    open_subset_witness,
    parse_interval,
    pmodule,
    replicate,
    staircase,
)

iv = parse_interval


class TestCube:
    def test_dimension_one(self):
        assert cube_point_module(1, [0]) == PModule.of("[1,11/10)")

    def test_dimension_two_origin(self):
        assert cube_point_module(2, [0, 0]) == PModule.of("[1/2,11/20)", "[1,21/20)")

    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            cube_point_module(2, [0, Fraction(1, 200)])  # 1/200 = bound for n=2
        with pytest.raises(ValueError):
            cube_point_module(1, [Fraction(-1, 1000)])

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            cube_point_module(3, [0, 0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_isometry(self, n):
        rng = random.Random(n)
        bound = Fraction(1, 100 * n)
        for _ in range(25):
            x = [Fraction(rng.randrange(64), 64) * bound for _ in range(n)]
            y = [Fraction(rng.randrange(64), 64) * bound for _ in range(n)]
            expected = ExtRational(max(abs(a - b) for a, b in zip(x, y)))
            got = module_distance(cube_point_module(n, x), cube_point_module(n, y))
            assert got == expected


class TestBinary:
    def test_bit_intervals(self):
        assert binary_sequence_module([0]) == PModule.of("[1,3)")
        assert binary_sequence_module([1]) == PModule.of("[0,4)")
        assert binary_sequence_module([0, 1]) == PModule.of("[1,3)", "[2,6)")

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            binary_sequence_module([])
        with pytest.raises(ValueError):
            binary_sequence_module([0, 2])

    def test_distinct_pairs_distance_one_bruteforce(self):
        # Length-2 truncations, all pairs, against the exhaustive matcher.
        mods = {bits: binary_sequence_module(bits) for bits in product((0, 1), repeat=2)}
        for alpha, a_mod in mods.items():
            for beta, b_mod in mods.items():
                d = module_distance(a_mod, b_mod)
                assert d == bruteforce_module_distance(a_mod, b_mod)
                assert d == (ExtRational(0) if alpha == beta else ExtRational(1))

    def test_longer_sequences(self):
        alpha = [0, 1, 1, 0, 1]
        beta = [0, 1, 0, 0, 1]
        a, b = binary_sequence_module(alpha), binary_sequence_module(beta)
        assert module_distance(a, b) == ExtRational(1)


class TestCauchy:
    def test_stage_zero(self):
        assert cauchy_witness(0) == PModule.of("[-1,1)")

    def test_stage_two(self):
        assert cauchy_witness(2) == PModule.of("[-1,1)", "[-1/2,1/2)", "[-1/4,1/4)")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cauchy_witness(-1)

    def test_huge_stage_is_refused(self, no_module_building):
        with pytest.raises(ValueError, match="stage must be at most 1000, got 10000000000"):
            cauchy_witness(10**10)

    def test_stage_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(families, "_MAX_CAUCHY_STAGE", 3)
        assert len(cauchy_witness(3)) == 4
        with pytest.raises(ValueError, match="stage must be at most 3, got 4"):
            cauchy_witness(4)

    def test_distance_law_small_stages_bruteforce(self):
        for n in range(3):
            for m in range(n + 1, 4):
                a, b = cauchy_witness(n), cauchy_witness(m)
                expected = ExtRational(Fraction(1, 2 ** (n + 1)))
                assert bruteforce_module_distance(a, b) == expected
                assert module_distance(a, b) == expected

    def test_rank_witness_counts(self):
        # Summands containing [-1/2^(n-2), 1/2^(n-2)] number n-2: the same
        # structure-map rank that blows up along the sequence.
        for n in range(3, 10):
            half_width = Fraction(1, 2 ** (n - 2))
            assert cauchy_witness(n).rank(-half_width, half_width) == n - 2
        assert cauchy_witness(6).rank(Fraction(-1, 16), Fraction(1, 16)) == 4


class TestStaircase:
    def test_shape(self):
        assert staircase(2) == PModule.of("[0,1)", "[0,2)")

    def test_distance_to_zero_grows(self):
        for n in (1, 4, 9):
            m = staircase(n)
            assert max(distance_to_zero(s) for s in m.summands) == ExtRational(
                Fraction(n, 2)
            )
            assert module_distance(m, PModule.zero()) == ExtRational(Fraction(n, 2))

    def test_class(self):
        assert staircase(5).classify().in_ffid

    def test_bad_height(self):
        with pytest.raises(ValueError):
            staircase(0)


class TestReplicate:
    def test_zero_copies(self):
        assert replicate(iv("[1,2)"), 0).is_zero

    def test_three_copies(self):
        assert replicate(iv("[0,1)"), 3) == PModule.of("[0,1)", "[0,1)", "[0,1)")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            replicate(EMPTY, 2)

    def test_pairwise_half_diameter(self):
        piece = iv("[2,5)")
        mods = [replicate(piece, k) for k in range(5)]
        for a in range(5):
            for b in range(a + 1, 5):
                assert module_distance(mods[a], mods[b]) == ExtRational(Fraction(3, 2))


class TestOpenSubsetWitness:
    def test_bounded_class_witness(self):
        m = PModule.of("[10,40)", "(20,100]")
        got = open_subset_witness(m, "ffid_cd_in_ffid", Fraction(1, 8), 3, bounds=(10, 100))
        assert got == m.direct_sum(PModule.of("[100,401/4)"))
        assert module_distance(m, got) == ExtRational(Fraction(1, 8))

    def test_bounded_class_needs_bounds(self):
        with pytest.raises(ClassMismatchError):
            open_subset_witness(PModule.of("[0,1)"), "ffid_cd_in_ffid", 1, 1)

    def test_bounded_class_membership_checked(self):
        with pytest.raises(ClassMismatchError):
            open_subset_witness(
                PModule.of("[0,200)"), "ffid_cd_in_ffid", 1, 1, bounds=(0, 100)
            )

    def test_ffid_membership_checked(self):
        with pytest.raises(ClassMismatchError):
            open_subset_witness(PModule.of("[0,inf)"), "ffid_in_cfid", 1, 2)

    def test_truncated_tail_shapes(self):
        m = PModule.of("[10,12)")
        eps = Fraction(1, 2)
        got = open_subset_witness(m, "fid_in_pfd", eps, 3)
        assert got == m.direct_sum(PModule.of("[1,2)", "[2,3)", "[3,4)"))
        got = open_subset_witness(m, "ffid_in_cfid", eps, 2)
        assert got == m.direct_sum(PModule.of("[0,1)", "[0,1)"))

    @pytest.mark.parametrize(
        "inclusion",
        ["ffid_cd_in_ffid", "ffid_in_cfid", "fid_in_cid", "fid_in_pfd", "cid_in_rid", "pfd_in_rid"],
    )
    @pytest.mark.parametrize("eps", [Fraction(1, 8), Fraction(1, 2)])
    def test_witness_distance_exact(self, inclusion, eps):
        m = PModule.of("[10,14)", "[20,99]", "(50,51)")
        got = open_subset_witness(m, inclusion, eps, 3, bounds=(10, 100))
        assert module_distance(m, got) == ExtRational(eps)

    def test_distance_scales_linearly(self):
        m = PModule.of("[10,14)")
        eps = Fraction(1, 4)
        d1 = module_distance(m, open_subset_witness(m, "fid_in_cid", eps, 2))
        d2 = module_distance(m, open_subset_witness(m, "fid_in_cid", 2 * eps, 2))
        assert d2.as_fraction == 2 * d1.as_fraction

    @pytest.mark.parametrize("inclusion", ["fid_in_pfd", "fid_in_cid", "pfd_in_rid"])
    def test_oversized_sum_is_refused_before_any_tail(self, no_module_building, inclusion):
        """A million tails on a one-summand module are one copy too many:
        refused with ``direct_sum``'s message before a tail is built."""
        m = PModule.of("[0,1)")
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match="^a module holds at most 1000000 summand copies, got 1000001$"):
            open_subset_witness(m, inclusion, 1, 10**6)
        assert time.perf_counter() - start < 1

    def test_sum_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(families, "_MAX_COPIES", 3)
        monkeypatch.setattr(pmodule, "_MAX_COPIES", 3)
        m = PModule.of("[10,11)")
        for inclusion in ("fid_in_pfd", "fid_in_cid"):
            assert len(open_subset_witness(m, inclusion, 1, 2)) == 3
            with pytest.raises(ValueError, match="at most 3 summand copies, got 4$"):
                open_subset_witness(m, inclusion, 1, 3)
        # One bounded tail, whatever trunc says.
        got = open_subset_witness(m, "ffid_cd_in_ffid", 1, 3, bounds=(10, 11))
        assert len(got) == 2

    def test_unknown_inclusion(self):
        with pytest.raises(ValueError):
            open_subset_witness(PModule.zero(), "eph_in_qtame", 1, 1)
