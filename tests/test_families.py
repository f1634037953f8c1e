import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persistd import (
    ClassMismatchError,
    EMPTY,
    Endpoint,
    ExtRational,
    Interval,
    PModule,
    binary_sequence_module,
    bruteforce_module_distance,
    cauchy_witness,
    cube_point_module,
    distance_to_zero,
    families,
    interval,
    intervals,
    module_distance,
    open_subset_witness,
    parse_interval,
    pmodule,
    replicate,
    staircase,
)

from oracles import (
    reference_binary_sequence_module,
    reference_cauchy_witness,
    reference_cube_point_module,
    reference_open_subset_witness,
    reference_staircase,
)
from strategies import grid_fractions, modules

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

    def test_oversized_dimension_is_refused_before_any_summand(self, no_module_building,
                                                               monkeypatch):
        monkeypatch.setattr(pmodule, "_MAX_COPIES", 3)
        with pytest.raises(ValueError, match="^a module holds at most 3 summand copies, got 4$"):
            cube_point_module(4, [0] * 4)

    def test_dimension_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pmodule, "_MAX_COPIES", 3)
        assert len(cube_point_module(3, [0] * 3)) == 3

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

    def test_oversized_sequence_is_refused_before_any_summand(self, no_module_building,
                                                              monkeypatch):
        monkeypatch.setattr(pmodule, "_MAX_COPIES", 3)
        with pytest.raises(ValueError, match="^a module holds at most 3 summand copies, got 4$"):
            binary_sequence_module([0] * 4)

    def test_length_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pmodule, "_MAX_COPIES", 3)
        assert len(binary_sequence_module([0, 1, 0])) == 3

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


def outcome(build, *args):
    """What ``build(*args)`` returns, or the class and message of what it
    raises."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_build(build, reference, *args):
    """``build`` and ``reference`` make the same module from the same
    arguments, down to its int runs, JSON and lattice view, or raise the
    same exception class with the same message."""
    got, want = outcome(build, *args), outcome(reference, *args)
    assert got == want
    if isinstance(want, PModule):
        assert repr(got._ints) == repr(want._ints)
        assert got.to_json() == want.to_json()
        assert got._lattice_view() == want._lattice_view()


sizes = st.integers(-2, 24)


@st.composite
def cube_arguments(draw):
    """A dimension and coordinates k / (1000 n) for k in [-1, 11]: in range
    for 0 <= k < 10; sometimes one coordinate too many or too few."""
    n = draw(sizes)
    count = max(n, 0) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    scale = 1000 * max(n, 1)
    coords = draw(st.lists(st.integers(-1, 11), min_size=max(count, 0),
                           max_size=max(count, 0)))
    return n, [Fraction(k, scale) for k in coords]


@st.composite
def bit_sequences(draw):
    """Bits, sometimes with one value that is not a bit among them."""
    bits = draw(st.lists(st.integers(0, 1), max_size=24))
    if draw(st.integers(0, 7)) == 0:
        bits.insert(draw(st.integers(0, len(bits))), draw(st.sampled_from([2, -1, "1"])))
    return bits


class TestAgainstReference:
    """The families fill their int runs directly and agree with the
    ``Interval``-built references of ``tests/oracles.py``."""

    @given(grid_fractions, grid_fractions, st.sampled_from(["[)", "(]", "[]", "()"]))
    def test_finite_ends(self, lo, hi, bounds):
        """The ends the families fill are those of the ``Interval``, and a
        pair that holds no point is refused as ``PModule`` refuses its
        empty interval."""
        got = outcome(intervals._finite_ends, lo, hi, bounds)
        want = outcome(lambda: pmodule._summand_ends(interval(lo, hi, bounds)))
        assert repr(got) == repr(want)

    @given(cube_arguments())
    def test_cube(self, args):
        assert_same_build(cube_point_module, reference_cube_point_module, *args)

    @given(bit_sequences())
    def test_binary(self, bits):
        assert_same_build(binary_sequence_module, reference_binary_sequence_module, bits)

    @given(st.one_of(sizes, st.just(families._MAX_CAUCHY_STAGE + 1)))
    def test_cauchy(self, n):
        assert_same_build(cauchy_witness, reference_cauchy_witness, n)

    @given(st.one_of(sizes, st.just(families._MAX_COPIES + 1)))
    def test_staircase(self, n):
        assert_same_build(staircase, reference_staircase, n)

    @given(
        modules(max_summands=4, finite_only=False, max_copies=3),
        st.sampled_from([*families.INCLUSIONS, "eph_in_qtame"]),
        st.builds(Fraction, st.integers(-1, 8), st.sampled_from([1, 2, 3, 8])),
        st.one_of(st.integers(-1, 5), st.just(families._MAX_COPIES + 1)),
        st.one_of(st.none(), st.tuples(grid_fractions, grid_fractions)),
    )
    def test_open_subset_witness(self, module, inclusion, eps, trunc, bounds):
        assert_same_build(open_subset_witness, reference_open_subset_witness,
                          module, inclusion, eps, trunc, bounds)


def test_families_build_no_interval(calls):
    """The families and ``PModule.of`` fill the int runs themselves: no
    ``Interval``, ``Endpoint`` or ``ExtRational`` is constructed, and no
    module caches the ``Interval`` projection.  (The two inclusions whose
    witness checks ``classify`` read the projection, so they are left out.)"""
    summand = iv("[2,5)")
    made = {name: calls(intervals, name) for name in ("_interval", "_endpoint", "_ext")}
    made.update((cls.__name__, calls(cls, "__init__"))
                  for cls in (Interval, Endpoint, ExtRational))
    m = PModule.of("[10,12)", "(1/2,3]", "[-1/3,inf)", "[2/4,3]")
    built = [
        m,
        cube_point_module(3, [0, Fraction(1, 400), Fraction(1, 1000)]),
        binary_sequence_module([0, 1, 1, 0]),
        cauchy_witness(5),
        staircase(6),
        replicate(summand, 4),
        *(open_subset_witness(m, inclusion, Fraction(1, 4), 3)
          for inclusion in ("fid_in_cid", "fid_in_pfd", "cid_in_rid", "pfd_in_rid")),
    ]
    assert not any(made.values())
    assert all(b._objs is None for b in built)
    m.summands  # the patches are live: the projection builds the objects
    assert len(made["_interval"]) == 4 and len(made["_endpoint"]) == 8
