import json

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

