import json
import time

import pytest

import persistd.verify as pv
from persistd import (
    ExtRational,
    POS_INF,
    PModule,
    SUITE_NAMES,
    replay,
    run_suite,
)


ALL_SUITES = sorted(SUITE_NAMES)


@pytest.mark.parametrize("name", ALL_SUITES)
def test_every_suite_passes(name):
    report = run_suite(name, seed=3, trials=15)
    assert report.all_pass, report.render_table()


def test_reports_are_deterministic():
    a = run_suite("pseudometric", seed=11, trials=10)
    b = run_suite("pseudometric", seed=11, trials=10)
    assert a.to_json() == b.to_json()
    assert a.render_table() == b.render_table()


def test_seed_changes_cases():
    a = run_suite("matching-oracle", seed=1, trials=5)
    b = run_suite("matching-oracle", seed=2, trials=5)
    assert a.to_json() != b.to_json() or a.seed != b.seed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("perpetual-motion", seed=0, trials=1)


def test_unknown_param_rejected():
    with pytest.raises(ValueError, match="does not take parameter"):
        run_suite("cube-isometry", seed=0, trials=1, params={"banana": 3})


def test_bad_param_value_rejected():
    with pytest.raises(ValueError, match="bad value"):
        run_suite("cube-isometry", seed=0, trials=1, params={"N": "three"})


def test_inconsistent_params_rejected():
    with pytest.raises(ValueError, match="invalid params"):
        run_suite("cauchy-incomplete", seed=0, trials=1, params={"depth": 3})
    with pytest.raises(ValueError, match="invalid params"):
        run_suite("not-totally-bounded", seed=0, trials=1, params={"c": 5, "d": 2})
    with pytest.raises(ValueError, match="invalid params"):
        run_suite("open-witness", seed=0, trials=1, params={"eps": "0"})


def test_bad_trials_rejected():
    with pytest.raises(ValueError):
        run_suite("pseudometric", seed=0, trials=0)


class TestBudgets:
    """Trials, the replicate count ``k``, the Cauchy ``depth`` and the module
    sizes ``N``, ``length`` and ``max_summands`` have fixed bounds, checked
    before any module is built; the extremes are tested with the bounds
    patched small."""

    HUGE = "10000000000000000000"
    NTB = ("not-totally-bounded", "replicates-pairwise-half-diameter")
    P_PERSISTENT = ("p-persistent", "persistent-submodule-within-p")
    CAUCHY = [("cauchy-incomplete", "cauchy-distance-law"),
              ("cauchy-incomplete", "rank-witness-diverges")]
    SIZED = [("cube-isometry", "N"), ("binary-discrete", "length"),
             ("pseudometric", "max_summands")]

    def test_huge_values_are_refused(self, no_module_building):
        with pytest.raises(ValueError, match="trials must be at most 10000"):
            run_suite("pseudometric", seed=0, trials=int(self.HUGE))
        with pytest.raises(ValueError, match="k must be at most 64"):
            run_suite("not-totally-bounded", seed=0, trials=1, params={"k": self.HUGE})
        with pytest.raises(ValueError, match="depth must be at most 64"):
            run_suite("cauchy-incomplete", seed=0, trials=1, params={"depth": self.HUGE})
        with pytest.raises(ValueError, match="k must be at most 64"):
            replay(*self.NTB, {"c": "0", "d": "1", "k": self.HUGE})
        for suite, prop in self.CAUCHY:
            with pytest.raises(ValueError, match="depth must be at most 64"):
                replay(suite, prop, {"depth": int(self.HUGE)})
        for suite, key in self.SIZED:
            with pytest.raises(ValueError, match=f"{key} must be at most 1000, got {self.HUGE}"):
                run_suite(suite, seed=0, trials=1, params={key: self.HUGE})

    def test_many_p_values_are_refused(self, no_module_building):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="p takes at most 64 values, got 2000$"):
            run_suite("p-persistent", seed=0, trials=10, params={"p": ",".join(["1"] * 2000)})
        assert time.perf_counter() - start < 1

    def test_many_p_values_are_refused_on_replay(self, monkeypatch):
        def no_module(*args):
            raise AssertionError("module built before the p values were counted")

        monkeypatch.setattr(pv.PModule, "from_json_obj", no_module)
        with pytest.raises(ValueError, match="p takes at most 64 values, got 2000$"):
            replay(*self.P_PERSISTENT, {"m": {"summands": []}, "p": ["1"] * 2000})

    def test_p_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pv, "_MAX_FAMILY_SIZE", 3)
        report = run_suite("p-persistent", seed=0, trials=2, params={"p": "0,1/2,2"})
        assert report.all_pass and ("p", "0,1/2,2") in report.params
        with pytest.raises(ValueError, match="p takes at most 3 values, got 4$"):
            run_suite("p-persistent", seed=0, trials=2, params={"p": ["0", "1/2", "2", "3"]})
        m = {"summands": [{"interval": "[0,2)", "multiplicity": 1}]}
        assert replay(*self.P_PERSISTENT, {"m": m, "p": ["0", "1/2", "2"]})
        with pytest.raises(ValueError, match="p takes at most 3 values, got 4$"):
            replay(*self.P_PERSISTENT, {"m": m, "p": ["0", "1/2", "2", "3"]})

    def test_bounds_are_inclusive(self, monkeypatch):
        monkeypatch.setattr(pv, "_MAX_TRIALS", 2)
        monkeypatch.setattr(pv, "_MAX_FAMILY_SIZE", 5)
        assert run_suite("pseudometric", seed=0, trials=2).trials == 2
        with pytest.raises(ValueError, match="trials must be at most 2, got 3"):
            run_suite("pseudometric", seed=0, trials=3)
        for suite, key in (("not-totally-bounded", "k"), ("cauchy-incomplete", "depth")):
            assert run_suite(suite, seed=0, trials=1, params={key: 5}).all_pass
            with pytest.raises(ValueError, match=f"{key} must be at most 5, got 6"):
                run_suite(suite, seed=0, trials=1, params={key: 6})
        assert replay(*self.NTB, {"c": "0", "d": "1", "k": 5})
        with pytest.raises(ValueError, match="k must be at most 5, got 6"):
            replay(*self.NTB, {"c": "0", "d": "1", "k": 6})
        for suite, prop in self.CAUCHY:
            assert replay(suite, prop, {"depth": 5})
            with pytest.raises(ValueError, match="depth must be at most 5, got 6"):
                replay(suite, prop, {"depth": 6})
        # The random-module suites' default max_summands (6) exceeds 5.
        monkeypatch.setattr(pv, "_MAX_MODULE_SIZE", 5)
        for suite, key in self.SIZED:
            assert run_suite(suite, seed=0, trials=2, params={key: 5}).all_pass
            with pytest.raises(ValueError, match=f"{key} must be at most 5, got 6"):
                run_suite(suite, seed=0, trials=1, params={key: 6})

    ORACLE = ("matching-oracle", "distance-equals-bruteforce")

    @staticmethod
    def oracle_side(*entries):
        return {"summands": [{"interval": "[0,2)", "multiplicity": k} for k in entries]}

    def test_oversized_oracle_case_is_refused_before_parsing(self, monkeypatch):
        """The suite draws at most 4 summands a side; a stored case asking
        for more is refused before either side is parsed, counted with
        multiplicity."""
        small = self.oracle_side(1, 3)
        assert replay(*self.ORACLE, {"m": small, "n": self.oracle_side(2, 1, 1)})

        def no_module(*args):
            raise AssertionError("module parsed before the case size was checked")

        monkeypatch.setattr(pv.PModule, "from_json_obj", no_module)
        for m, n, got in ((small, self.oracle_side(1, 1, 1, 1, 1), "got 5 in 'n'"),
                          (self.oracle_side(2, 3), small, "got 5 in 'm'"),
                          (self.oracle_side(10**6), small, "got 1000000 in 'm'")):
            with pytest.raises(ValueError, match=f"at most 4 summands, {got}$"):
                replay(*self.ORACLE, {"m": m, "n": n})

    def test_bruteforce_refuses_above_its_cap(self, monkeypatch):
        def no_distance(*args):
            raise AssertionError("distance taken before the size was checked")

        seven = PModule.of(*["[0,1)"] * 7)
        monkeypatch.setattr(pv, "interval_distance", no_distance)
        with pytest.raises(ValueError, match=r"at most 6 summands a side, got 7\+1$"):
            pv.bruteforce_module_distance(seven, PModule.of("[0,2)"))
        monkeypatch.setattr(pv, "_MAX_BRUTEFORCE_SUMMANDS", 2)
        with pytest.raises(ValueError, match=r"at most 2 summands a side, got 2\+3$"):
            pv.bruteforce_module_distance(PModule.of("[0,1)", "[1,2)"), PModule.of(*["(0,1)"] * 3))

    LIPSCHITZ = ("contraction-lipschitz", "path-lipschitz-bound")
    BITS = [("binary-discrete", "distinct-sequences-distance-one"),
            ("binary-discrete", "equal-sequences-distance-zero")]
    CUBE = ("cube-isometry", "cube-embedding-isometric")

    def test_lipschitz_bound_reads_one_diameter_a_run(self, monkeypatch):
        """The bound's largest half-diameter is read off the runs, so a
        stored run of a million copies reaches the vertex cap's refusal
        without a summand tuple of a million copies."""
        def no_copies(module):
            raise AssertionError("every summand copy built for the Lipschitz bound")

        three = {"summands": [{"interval": "[0,4)", "multiplicity": 3}]}
        monkeypatch.setattr(pv.PModule, "summands", property(no_copies))
        assert replay(*self.LIPSCHITZ, {"m": three, "s": "1/4", "t": "1/2"})
        big = {"summands": [{"interval": "[0,1)", "multiplicity": 10**6}]}
        with pytest.raises(ValueError, match=r"1000000\+1000000 summands exceeds the vertex cap"):
            replay(*self.LIPSCHITZ, {"m": big, "s": "0", "t": "1/2"})

    def test_oversized_bit_sequences_are_refused(self, monkeypatch, no_module_building):
        """A stored bit sequence is held to ``length``'s bound before any
        module is built."""
        monkeypatch.setattr(pv, "_MAX_MODULE_SIZE", 5)
        for prop in self.BITS:
            with pytest.raises(ValueError, match="alpha takes at most 5 values, got 6$"):
                replay(*prop, {"alpha": [0, 1, 0, 1, 1, 0], "beta": [0, 1, 0, 1, 1]})
        with pytest.raises(ValueError, match="beta takes at most 5 values, got 10000000$"):
            replay(*self.BITS[0], {"alpha": [0, 1], "beta": [1] * 10**7})

    def test_bit_sequence_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pv, "_MAX_MODULE_SIZE", 5)
        for prop in self.BITS:
            assert replay(*prop, {"alpha": [0, 1, 0, 1, 1], "beta": [1, 1, 0, 1, 0]})

    def test_oversized_cube_cases_are_refused(self, monkeypatch, no_module_building):
        """A stored cube case's dimension and coordinate lists are held to
        ``N``'s bound before any module is built."""
        with pytest.raises(ValueError, match="n must be at most 1000, got 1000000$"):
            replay(*self.CUBE, {"n": 10**6, "x": ["0"], "y": ["0"]})
        monkeypatch.setattr(pv, "_MAX_MODULE_SIZE", 2)
        with pytest.raises(ValueError, match="n must be at most 2, got 3$"):
            replay(*self.CUBE, {"n": 3, "x": ["0"] * 3, "y": ["0"] * 3})
        for key in "xy":
            case = {"n": 2, "x": ["0", "0"], "y": ["0", "0"], key: ["0"] * 3}
            with pytest.raises(ValueError, match=f"{key} takes at most 2 values, got 3$"):
                replay(*self.CUBE, case)

    def test_cube_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pv, "_MAX_MODULE_SIZE", 2)
        assert replay(*self.CUBE, {"n": 2, "x": ["0", "1/1000"], "y": ["1/1000", "0"]})


def test_params_accepted_as_strings():
    report = run_suite("cube-isometry", seed=0, trials=4, params={"N": "2"})
    assert report.all_pass
    assert ("N", "2") in report.params


def test_param_grid_steers_generator():
    report = run_suite("matching-oracle", seed=5, trials=8, params={"grid": 3})
    assert report.all_pass


def test_report_shape():
    report = run_suite("enveloping", seed=2, trials=6)
    obj = report.to_json_obj()
    assert obj["suite"] == "enveloping"
    assert obj["all_pass"] is True
    names = [r["property"] for r in obj["results"]]
    assert names == sorted(names)
    json.loads(report.to_json())


def test_replay_passing_case():
    report = run_suite("cube-isometry", seed=9, trials=3)
    assert report.all_pass
    # rebuild a case the way the generator does and replay it
    import random

    case = pv._gen_cube_pair(random.Random(0), {"N": 2}, 0)
    assert replay("cube-isometry", "cube-embedding-isometric", case)


def test_replay_unknown_property():
    with pytest.raises(ValueError, match="no property"):
        replay("cube-isometry", "nonsense", {})


def test_counterexample_replays_to_failure(monkeypatch):
    # Break the distance under test; the suite must produce a
    # counterexample whose replay fails while the breakage is in place and
    # passes once it is removed.
    real = pv.bottleneck.module_distance

    def wrong(m, n):
        value = real(m, n)
        return ExtRational(1) if value == ExtRational(0) else value

    monkeypatch.setattr(pv.bottleneck, "module_distance", wrong)
    report = run_suite("non-t0", seed=4, trials=5)
    assert not report.all_pass
    failed = [r for r in report.results if r.status == "fail"]
    assert failed and failed[0].counterexample is not None
    payload = failed[0].counterexample
    assert not replay("non-t0", failed[0].property, payload["case"])
    monkeypatch.undo()
    assert replay("non-t0", failed[0].property, payload["case"])


class TestOracles:
    def test_scan_oracle_handles_empties(self):
        from persistd import EMPTY, candidate_scan_interval_distance, parse_interval

        assert candidate_scan_interval_distance(EMPTY, EMPTY) == ExtRational(0)
        assert candidate_scan_interval_distance(
            parse_interval("[0,3)"), EMPTY
        ) == ExtRational("3/2")

    def test_bruteforce_infinite(self):
        from persistd import bruteforce_module_distance

        got = bruteforce_module_distance(PModule.of("[0,1)"), PModule.of("[0,inf)"))
        assert got == POS_INF

    def test_random_module_respects_grid(self):
        import random
        from fractions import Fraction

        rng = random.Random(0)
        for _ in range(50):
            m = pv.random_module(rng, Fraction(-4), Fraction(4), 8, 5)
            for s in m.summands:
                for ep in (s.lo, s.hi):
                    assert ep.value.is_finite
                    assert -4 <= ep.value.as_fraction <= 4
                    assert ep.value.as_fraction.denominator <= 8


def test_replay_reads_rationals_strictly():
    case = {"m": PModule.of("[0,1)").to_json_obj(), "s": "1e-3", "t": "0.5"}
    with pytest.raises(ValueError, match="expected p/q"):
        replay("contraction-lipschitz", "path-lipschitz-bound", case)
    assert replay(
        "contraction-lipschitz", "path-lipschitz-bound", dict(case, s="1/1000", t="1/2")
    )


@pytest.mark.parametrize("value", ["1_0", "٣", "3.0", 3.0])
def test_int_params_are_strict(value):
    with pytest.raises(ValueError, match="bad value for parameter 'N'"):
        run_suite("cube-isometry", seed=0, trials=1, params={"N": value})

