"""The integer view a ``PModule`` caches for the distance kernel
(``interleaving._view``, built once by ``PModule._lattice_view``), the cost
table's work budget, and exact answers longer than the interpreter's
int-to-text digit limit."""

import copy
import json
import pickle
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistd import (
    ExtRational,
    cauchy_witness,
    MatchingCertificate,
    PModule,
    distance_certificate,
    interval,
    module_distance,
    modules_eps_interleaved,
    parse_module,
    verify_certificate,
)
from persistd import bottleneck, interleaving, pmodule
from persistd.cli import cli_main
from persistd.interleaving import _lattice

from kernel_seam import patch_lattice
from oracles import (
    direct_lattice,
    index_certificate,
    reference_verify_certificate,
    run_summands as runs,
    table_modules_eps_interleaved,
)
from strategies import deep_fractions, key_columns, pooled_pairs, small_eps


# Denominators that no pooled interval has: before the lattice became the
# pair's alone, such an eps moved the pair's scale off each view's own.
new_denominators = st.builds(Fraction, st.integers(0, 60), st.sampled_from([3, 5, 6, 7, 9, 64]))


@given(pooled_pairs())
@settings(max_examples=200)
def test_view_lattice_equals_direct_lattice(pair):
    """On the cached views, ``_lattice`` returns what the lattice built from
    the endpoint fractions returns at eps 0, in every pairing, with each
    view already used at the scales before; and the view's own keys, the
    module alone, stay as they were."""
    m, n = pair
    for a, b in ((m, n), (n, m), (m, m), (m, PModule.zero())):
        scale, reach, _, keys_a, keys_b = direct_lattice(runs(a), runs(b), 0)
        assert _lattice(a._lattice_view(), b._lattice_view()) == (
            scale, reach, key_columns(*keys_a), key_columns(*keys_b))
    for x in pair:
        lcm, reach, infinite, cols, ratios = x._lattice_view()
        scale, alone_reach, _, alone_keys, _ = direct_lattice(runs(x), (), 0)
        assert (4 * lcm, reach, cols) == (scale, alone_reach, key_columns(*alone_keys))
        assert infinite == any(not v.is_finite for s in runs(x) for v in (s.lo.value, s.hi.value))
        values = [v.as_fraction if v.is_finite else Fraction(0)
                  for s in runs(x) for v in (s.lo.value, s.hi.value)]
        assert ratios == [r for v in values for r in (v.numerator, v.denominator)]


@given(pooled_pairs())
def test_lcm_is_the_view_lcm_without_the_view(pair):
    """``PModule._lcm`` reads the lcm off the runs and builds no view; once
    the view is cached, it reads the view's."""
    for x in pair:
        fresh = PModule._of_runs(x._runs)
        lcm = fresh._lcm(bottleneck.BITS_CAP)
        assert fresh._view is None
        assert lcm == fresh._lattice_view()[0] == fresh._lcm(bottleneck.BITS_CAP)


@given(pooled_pairs(), st.lists(small_eps | new_denominators | deep_fractions.map(abs),
                                min_size=1, max_size=3))
@settings(max_examples=100)
def test_views_decide_and_check_at_any_eps(pair, epss):
    """At eps of any denominator, new ones included, the decision and the
    certificate check on the cached views agree with the table decision on
    a lattice that takes eps's denominator into S, and with the per-pair
    reference check, in every pairing."""
    m, n = pair
    for eps in epss:
        for a, b in ((m, n), (n, m), (m, m), (m, PModule.zero())):
            assert modules_eps_interleaved(a, b, eps) == table_modules_eps_interleaved(a, b, eps)
            cert = index_certificate(a, b, eps)
            assert verify_certificate(a, b, cert) == reference_verify_certificate(a, b, cert)


def test_view_fields():
    m = PModule.of("(-inf,1/3)", "[1/4,5/6]", "[1/4,5/6]", "[2,2]")
    # S0 = 48: 1/3 -> 16, 1/4 -> 12, 5/6 -> 40, 2 -> 96; big0 = 8*96 + 2.
    # An infinity's value is 0 = 0/1.
    assert m._lattice_view() == (12, 96, True, ([1 - 2 * 770, 24, 192], [31, 80, 192]),
                                 [0, 1, 1, 3, 1, 4, 5, 6, 2, 1, 2, 1])
    assert PModule.zero()._lattice_view() == (1, 0, False, ([], []), [])


def kernel_calls(m, n):
    """Distance, certificate and its check, and decisions at eps whose
    denominators move the pair's scale."""
    d = module_distance(m, n)
    cert = distance_certificate(m, n)
    assert verify_certificate(m, n, cert)
    for eps in (0, Fraction(1, 3), Fraction(5, 7), d.as_fraction):
        modules_eps_interleaved(m, n, eps)
    module_distance(n, m)
    return d, cert


PAIR = ("[0,2)", "[0,2)", "(1,4]", "(-inf,3)", "[7/3,5]"), ("[0,3)", "[1,4)", "[5,5]", "(-inf,1]")


def test_one_view_per_module(calls):
    built = calls(interleaving, "_view")
    m, n = PModule.of(*PAIR[0]), PModule.of(*PAIR[1])
    for _ in range(3):
        kernel_calls(m, n)
    assert built == [[e for e, _ in m._ints], [e for e, _ in n._ints]]
    assert m._view is m._lattice_view() and n._view is n._lattice_view()


def test_construction_parsing_and_json_build_no_view(monkeypatch):
    def refused(summands):
        raise AssertionError("a view was built")

    monkeypatch.setattr(interleaving, "_view", refused)
    m = PModule.of(*PAIR[0])
    others = [parse_module(m.to_json()), m.radical(), m.direct_sum(m),
              m.persistent_submodule(1), PModule._of_runs(m._runs), copy.deepcopy(m)]
    m.to_json()
    for x in (m, *others):
        assert x._view is None


def test_value_semantics_ignore_the_view():
    m, fresh, n = PModule.of(*PAIR[0]), PModule.of(*PAIR[0]), PModule.of(*PAIR[1])
    module_distance(m, n)
    assert m._view is not None and fresh._view is None
    assert m == fresh and hash(m) == hash(fresh)
    assert m.__reduce__() == fresh.__reduce__()
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert clone == m and hash(clone) == hash(m) and clone._view is None
    for name, value in (("_view", None), ("_runs", ()), ("_len", 0)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(m, name, value)
    assert m._view is m._lattice_view()


def test_repeat_calls_read_no_fraction(calls):
    """Once both modules hold their views, the distance, the decision and
    the certificate check read no endpoint fraction: a patched
    ``Fraction.as_integer_ratio`` counts no call."""
    m, n = PModule.of(*PAIR[0]), PModule.of(*PAIR[1])
    d, cert = kernel_calls(m, n)
    reads = calls(Fraction, "as_integer_ratio")
    assert module_distance(m, n) == d
    assert modules_eps_interleaved(m, n, d.as_fraction)
    assert not modules_eps_interleaved(m, n, d.as_fraction - Fraction(1, 7))
    assert verify_certificate(m, n, cert)
    assert reads == []
    # A module builds its view from its ints: a parsed module's first
    # distance reads no fraction either.  The patch is live: building a
    # module from Interval values reads theirs.
    assert module_distance(parse_module(m.to_json()), n) == d
    assert reads == []
    PModule(list(m.summands))
    assert reads


def test_kernel_builds_no_interval_projection(calls):
    """Parsed modules take part in distances, certificates, their checks
    and decisions, and give their radical and JSON, without building their
    ``Interval`` projection; reading ``summands`` and ``str`` then builds
    it once, one interval per run."""
    m, n = (parse_module(PModule.of(*texts).to_json()) for texts in PAIR)
    kernel_calls(m, n)
    for x in (m, n):
        assert parse_module(x.radical().to_json()) == x.radical()
    assert m._objs is None and n._objs is None
    built = calls(pmodule, "_interval_of")
    for read in (lambda x: x.summands, str, PModule.radical, PModule.to_json):
        for x in (m, n):
            read(x)
    assert built == [e for x in (m, n) for e, _ in x._ints]


def primes_from(start: int, count: int) -> list[int]:
    """The first ``count`` primes from ``start`` on, by a sieve of the
    window [start, start + 40*count)."""
    span = 40 * count
    flags = bytearray([1]) * span
    for p in range(2, isqrt(start + span) + 1):
        flags[(-start) % p::p] = bytes(len(range((-start) % p, span, p)))
    return [start + k for k, flag in enumerate(flags) if flag][:count]


def prime_pair(k: int):
    """k + k one-summand runs [0, 1/p) over 2k distinct 7-digit primes p."""
    ps = primes_from(10**6, 2 * k)
    assert len(set(ps)) == 2 * k and all(10**6 < p < 10**7 for p in ps)
    return tuple(PModule(interval(0, Fraction(1, p)) for p in half)
                 for half in (ps[:k], ps[k:]))


def parsed(summands) -> PModule:
    """The module of ``summands`` as ``parse_module`` builds it from JSON."""
    return parse_module(PModule(summands).to_json())


class Reached(Exception):
    """Raised by a patched ``_lattice``: the pair passed the budgets."""


def stop(*args):
    raise Reached


class TestBudgets:
    def test_prime_denominators_refused_fast(self):
        """1000 + 1000 summands, 2000 distinct 7-digit prime denominators:
        the table, about 40,000 bits times 10^6 entries, is refused."""
        m, n = prime_pair(1000)
        start = time.perf_counter()
        for call in (module_distance, distance_certificate):
            with pytest.raises(ValueError, match="exceed the table budget 3000000000"):
                call(m, n)
        assert time.perf_counter() - start < 1
        assert m._view is None and n._view is None

    def test_cli_exits_2_with_one_error_line(self, capsys, tmp_path):
        paths = []
        for name, module in zip("ab", prime_pair(1000)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(module.to_json())
        for command in ("dist", "cert"):
            assert cli_main([command, *map(str, paths)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert "table budget" in err

    def test_decision_and_check_refused_above_the_key_budget(self):
        """1400 + 1400 prime summands: about 56,000 bits, under the bit
        cap, times 2800 runs."""
        m, n = prime_pair(1400)
        cert = MatchingCertificate(ExtRational(1), (), tuple(range(1400)), tuple(range(1400)))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceed the key budget 100000000"):
            modules_eps_interleaved(m, n, 1)
        with pytest.raises(ValueError, match="exceed the key budget 100000000"):
            verify_certificate(m, n, cert)
        assert time.perf_counter() - start < 1
        assert m._view is None and n._view is None

    def test_key_budget_refuses_before_any_view(self, monkeypatch, build=PModule):
        """3000 runs [0, 1/p), 7-digit primes p, against the zero module:
        about 60,000 bits, under the bit cap, times 3000 runs.  The
        decision, the check of a certificate that leaves every copy
        unmatched, the distance and the certificate, whose table of 3000 * 0
        entries the table budget passes, are refused on the lcms alone,
        before either module builds its view."""
        m = build(interval(0, Fraction(1, p)) for p in primes_from(10**6, 3000))
        zero = PModule.zero()
        cert = MatchingCertificate(ExtRational(1), (), tuple(range(3000)), ())
        monkeypatch.setattr(PModule, "_lattice_view", stop)
        for call in (lambda: modules_eps_interleaved(m, zero, 1),
                     lambda: verify_certificate(m, zero, cert),
                     lambda: module_distance(m, zero),
                     lambda: distance_certificate(m, zero)):
            with pytest.raises(ValueError, match=r"^3000\+0 distinct summands on a lattice of "
                                                 r"\d+ bits exceed the key budget 100000000 "):
                call()
        assert m._view is None and zero._view is None

    def test_second_lcm_stops_at_the_cap_left(self, monkeypatch):
        """Runs [1/q, 2) with odd random 13,000-bit q: with 3 in M and 10 in
        N, M's lcm folds in full, about 39,000 bits, and N's stops once it
        passes the 26,500 bits that M's leave under ``BITS_CAP``, though N's
        alone would pass the cap only later; the decision and the check are
        refused in under a second each, on a lower bound less than one
        denominator past the cap.  With 2 a side, both fold in full and the
        pair reaches its views."""
        rng = random.Random(31)

        def side(huge):
            return PModule(interval(Fraction(1, rng.getrandbits(13_000) | 1 << 12_999 | 1), 2)
                           for _ in range(huge))

        monkeypatch.setattr(PModule, "_lattice_view", stop)
        m, n = side(3), side(10)
        cert = MatchingCertificate(ExtRational(1), (), tuple(range(3)), tuple(range(10)))
        for call in (lambda: modules_eps_interleaved(m, n, 1),
                     lambda: verify_certificate(m, n, cert)):
            start = time.perf_counter()
            with pytest.raises(ValueError) as refusal:
                call()
            assert time.perf_counter() - start < 1
            bits = int(str(refusal.value).split(" bits ")[0].split()[-1])
            assert str(refusal.value) == (
                f"3+10 distinct summands on a lattice of at least {bits} bits exceed the bit cap "
                f"{bottleneck.BITS_CAP}")
            assert bottleneck.BITS_CAP < bits < bottleneck.BITS_CAP + 13_000
        m, n = side(2), side(2)
        cert = MatchingCertificate(ExtRational(1), (), tuple(range(2)), tuple(range(2)))
        for call in (lambda: modules_eps_interleaved(m, n, 1),
                     lambda: verify_certificate(m, n, cert)):
            with pytest.raises(Reached):
                call()

    def test_bit_cap_refuses_before_the_quadratic_fold(self, monkeypatch, build=PModule):
        """50 runs [1/q, 2) with odd random 13,000-bit q, about 650,000
        bits, against the zero module: inside both work budgets, but
        folding the lcm and building the view take about 2 s.  The
        distance, the decision and the check each refuse the pair in under
        half a second, before the module builds its view."""
        rng = random.Random(7)
        m = build(interval(Fraction(1, rng.getrandbits(13_000) | 1 << 12_999 | 1), 2)
                  for _ in range(50))
        zero = PModule.zero()
        cert = MatchingCertificate(ExtRational(2), (), tuple(range(50)), ())
        monkeypatch.setattr(PModule, "_lattice_view", stop)
        for call in (lambda: module_distance(m, zero),
                     lambda: modules_eps_interleaved(m, zero, 1),
                     lambda: verify_certificate(m, zero, cert)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"^50\+0 distinct summands on a lattice of at "
                                                 r"least \d+ bits exceed the bit cap 65536$"):
                call()
            assert time.perf_counter() - start < 0.5

    def test_bit_cap_is_inclusive(self, monkeypatch):
        """One run [1/q, 2) against the zero module, whose lcm 1 has 1 bit:
        B = ``BITS_CAP`` reaches the lattice, B = ``BITS_CAP`` + 1 does
        not, for the distance, the decision and the check."""
        patch_lattice(monkeypatch, stop)
        zero = PModule.zero()
        cert = MatchingCertificate(ExtRational(2), (), (0,), ())
        for bits, error in ((bottleneck.BITS_CAP, Reached), (bottleneck.BITS_CAP + 1, ValueError)):
            m = PModule([interval(Fraction(1, 2 ** (bits - 2) + 1), 2)])
            for call in (lambda: module_distance(m, zero),
                         lambda: modules_eps_interleaved(m, zero, 1),
                         lambda: verify_certificate(m, zero, cert)):
                with pytest.raises(error):
                    call()

    def test_huge_coprime_denominators_refused_before_their_lcm(self, capsys, tmp_path,
                                                                build=PModule):
        """A module of 200 runs [1/q, 2) with odd random 13,000-bit q against
        itself: the lcm of one side passes the bit cap after a few
        denominators, and folding all of them would take seconds.  Each
        entry point refuses the pair in under a second, on lower bounds,
        before either module builds its view, and ``dist`` exits 2 with one
        error line."""
        rng = random.Random(13)
        m = build(interval(Fraction(1, rng.getrandbits(13_000) | 1 << 12_999 | 1), 2)
                  for _ in range(200))
        cert = MatchingCertificate(ExtRational(1), tuple((i, i) for i in range(200)), (), ())
        for call in (lambda: module_distance(m, m),
                     lambda: modules_eps_interleaved(m, m, 1),
                     lambda: verify_certificate(m, m, cert)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"^200\+200 distinct summands on a lattice of "
                                                 r"at least \d+ bits exceed the bit cap 65536$"):
                call()
            assert time.perf_counter() - start < 1
        assert m._view is None
        path = tmp_path / "m.json"
        path.write_text(m.to_json())
        assert cli_main(["dist", str(path), str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "bit cap" in err

    def test_parsed_modules_are_refused_as_fast(self, monkeypatch, capsys, tmp_path):
        """The three refusals above on modules built by ``parse_module``,
        which keeps their runs as ints: each is as fast as on modules built
        from ``Interval`` values."""
        self.test_key_budget_refuses_before_any_view(monkeypatch, build=parsed)
        self.test_bit_cap_refuses_before_the_quadratic_fold(monkeypatch, build=parsed)
        monkeypatch.undo()
        self.test_huge_coprime_denominators_refused_before_their_lcm(capsys, tmp_path,
                                                                     build=parsed)

    def test_parsing_is_linear_past_one_long_denominator(self):
        """20,000 distinct runs, one of them [1/q, 2) with a 4000-digit q:
        only the values that share a 64-bit floor with 1/q take a key as
        long as q, so parsing takes about 0.1 s, and builds neither the
        view nor the Interval projection."""
        q = int("7" * 3999 + "1")
        entries = [{"interval": f"[{k}/3,{7 * k + 15}/21)"} for k in range(19_999)]
        entries.append({"interval": f"[1/{q},2)"})
        text = json.dumps({"summands": entries})
        start = time.perf_counter()
        m = parse_module(text)
        assert time.perf_counter() - start < 1
        assert len(m) == 20_000 and m._view is None and m._objs is None
        assert [e[:3] for e, _ in m._ints[:3]] == [(0, 0, 1), (0, 1, q), (0, 1, 3)]

    def test_check_refuses_runs_over_the_vertex_cap_fast(self):
        """20,000 runs [0, 1/p), 7-digit primes p, against the zero module:
        no distance certificate covers that many runs, and the check refuses
        them before it builds a view."""
        m = PModule(interval(0, Fraction(1, p)) for p in primes_from(10**6, 20_000))
        cert = MatchingCertificate(ExtRational(1), (), tuple(range(20_000)), ())
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^certificate on 20000\+0 distinct summands "
                                             r"exceeds the vertex cap 10000$"):
            verify_certificate(m, PModule.zero(), cert)
        assert time.perf_counter() - start < 1
        assert m._view is None

    def test_check_run_cap_is_inclusive(self, monkeypatch):
        """10,000 runs reach the views, 10,001 do not."""
        monkeypatch.setattr(PModule, "_lattice_view", stop)
        for size, error in ((10_000, Reached), (10_001, ValueError)):
            m = PModule(interval(k, k + 1) for k in range(size))
            cert = MatchingCertificate(ExtRational(1), (), tuple(range(size)), ())
            with pytest.raises(error):
                verify_certificate(m, PModule.zero(), cert)

    @pytest.mark.parametrize("pair", [
        # 5000 + 5000 distinct summands using every denominator 1..16 on
        # both sides, at the vertex cap: lcm 720720, 20 bits a side.
        lambda: (PModule([interval(Fraction(i, q), Fraction(i + 1, q))
                          for q in range(1, 17) for i in range(313)][:5000]),) * 2,
        # Cauchy stages 1000 and 999, the deepest the family builds.
        lambda: (cauchy_witness(1000), cauchy_witness(999)),
    ])
    def test_budgets_pass_denominators_up_to_16_and_cauchy_stages(self, monkeypatch, pair):
        """Both pairs reach their lattice, where the patch stops them."""
        m, n = pair()
        patch_lattice(monkeypatch, stop)
        for call in (module_distance, lambda m, n: modules_eps_interleaved(m, n, Fraction(1, 3))):
            with pytest.raises(Reached):
                call(m, n)

    def test_budgets_are_bits_times_runs(self, monkeypatch):
        """B is the bit lengths of both lcms summed, whatever eps's
        denominator; the table budget takes B * runs_m * runs_n, the key
        budget B * (runs_m + runs_n), and each admits work equal to it."""
        m, n = PModule.of(*PAIR[0]), PModule.of(*PAIR[1])
        runs_m, runs_n = len(m._runs), len(n._runs)
        bits = m._lattice_view()[0].bit_length() + n._lattice_view()[0].bit_length()
        eps = Fraction(1, 7)
        unmatched = MatchingCertificate(ExtRational(eps), (), tuple(range(len(m))),
                                        tuple(range(len(n))))
        patch_lattice(monkeypatch, stop)
        cases = (("TABLE_BUDGET", bits * runs_m * runs_n, lambda: module_distance(m, n)),
                 ("KEYS_BUDGET", bits * (runs_m + runs_n),
                  lambda: modules_eps_interleaved(m, n, eps)),
                 ("KEYS_BUDGET", bits * (runs_m + runs_n),
                  lambda: verify_certificate(m, n, unmatched)))
        for budget, work, call in cases:
            monkeypatch.setattr(bottleneck, budget, work)
            with pytest.raises(Reached):
                call()
            monkeypatch.setattr(bottleneck, budget, work - 1)
            with pytest.raises(ValueError, match="budget"):
                call()


@contextmanager
def all_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-text digit limit")
class TestAnswersPastTheDigitLimit:
    """[0,1/p) against [0,1/q), p = 10^2199 + 7 and q = 10^2199 + 9: the
    distance is the upper endpoints' gap (q - p)/(pq), whose denominator has
    4399 digits, more than the default limit of 4300."""

    P, Q = 10**2199 + 7, 10**2199 + 9

    def files(self, tmp_path):
        paths = []
        for name, den in (("a", self.P), ("b", self.Q)):
            paths.append(str(tmp_path / f"{name}.json"))
            with all_digits():
                text = PModule([interval(0, Fraction(1, den))]).to_json()
            with open(paths[-1], "w") as file:
                file.write(text)
        return paths

    def expected(self) -> Fraction:
        # The interval closed form; the lower endpoints agree.
        p, q = Fraction(1, self.P), Fraction(1, self.Q)
        return min(abs(p - q), max(p, q) / 2)

    def test_dist_prints_the_exact_value(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        assert cli_main(["dist", *self.files(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert sys.get_int_max_str_digits() == limit and err == ""
        with all_digits():
            assert out == f"{self.expected()}\n"
            assert len(str(self.expected().denominator)) == 4399

    def test_cert_prints_the_exact_threshold(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        a, b = self.files(tmp_path)
        assert cli_main(["cert", a, b]) == 0
        out, err = capsys.readouterr()
        assert sys.get_int_max_str_digits() == limit and err == ""
        obj = json.loads(out)
        assert (obj["pairs"], obj["unmatched_m"], obj["unmatched_n"]) == ([[0, 0]], [], [])
        with all_digits():
            assert obj["threshold"] == str(self.expected())
        # Under the default limit the threshold text does not parse back;
        # with the limit lifted it round-trips, and the certificate checks.
        with pytest.raises(ValueError, match="bad certificate JSON"):
            MatchingCertificate.from_json_obj(obj)
        with all_digits():
            cert = MatchingCertificate.from_json_obj(obj)
            m, n = (parse_module(open(path).read()) for path in (a, b))
        assert cert.threshold == ExtRational(self.expected())
        assert verify_certificate(m, n, cert)

    def test_persist_and_contract_print_exact_modules(self, capsys, tmp_path):
        """Shifting [1/p, 1) by 1/q, or contracting [0, 1/p) at time 1/q,
        gives an endpoint whose denominator passes the limit."""
        a, _ = self.files(tmp_path)
        t = Fraction(1, self.Q)
        path = tmp_path / "shifted.json"
        with all_digits():
            shifted = PModule.of(f"[1/{self.P},1)")
            path.write_text(shifted.to_json())
            cases = ((["persist", "--p", f"1/{self.Q}", str(path)],
                      shifted.persistent_submodule(t).to_json()),
                     (["contract", "--t", f"1/{self.Q}", a],
                      parse_module(open(a).read()).contraction_path(t).to_json()))
        for argv, expected in cases:
            assert len(expected) > 4300
            assert cli_main(argv) == 0
            assert capsys.readouterr() == (expected + "\n", "")
