"""The module transforms on modules with repeated summands: the radical,
the p-persistent submodule and the contraction path act once per distinct
summand and give every copy the same image."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from persistd import Interval, PModule, parse_module

from oracles import (
    contraction_dimension,
    module_dimension,
    persistent_dimension,
    radical_dimension,
    sample_points,
)
from strategies import modules

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

    def count_calls(self, monkeypatch, name):
        calls = []
        real = getattr(Interval, name)

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(Interval, name, counted)
        return calls

    def test_radical(self, monkeypatch):
        built = self.count_calls(monkeypatch, "__post_init__")
        rad = self.m.radical()
        assert len(built) == 2
        assert rad == PModule.of(*["(0,4)", "(1,3]"] * 1500)

    def test_persistent_submodule(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "intersect")
        sub = self.m.persistent_submodule(1)
        assert len(calls) == 2
        assert sub == PModule.of(*["[1,4)", "[2,3]"] * 1500)

    def test_contraction_path(self, monkeypatch):
        built = self.count_calls(monkeypatch, "__post_init__")
        stage = self.m.contraction_path(Fraction(1, 2))
        assert len(built) == 2
        assert stage == PModule.of(*["[1,3)", "[3/2,5/2)"] * 1500)
