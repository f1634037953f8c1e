"""Stored verify cases read their int fields with the strict int grammar:
integer text replays like the int it spells, while booleans and text off
the grammar raise ValueError instead of running or failing on a type.  A
case with a JSON float in a field, or without a field, raises ValueError
too."""

import random

import pytest

import persistd.verify as pv
from persistd.intervals import _as_int
from persistd.verify import replay, run_suite


def cases():
    """(suite, property, case, int field) for every check that reads an
    int field of its case."""
    rng = random.Random(0)
    params = dict(pv._SUITES["open-witness"][0])
    return [
        ("not-totally-bounded", "replicates-pairwise-half-diameter",
         {"c": "0", "d": "1", "k": 3}, "k"),
        ("cube-isometry", "cube-embedding-isometric",
         pv._gen_cube_pair(rng, {"N": 2}, 0), "n"),
        ("open-witness", "witness-distance-equals-eps",
         pv._gen_open_witness(rng, params, 0), "trunc"),
        ("cauchy-incomplete", "cauchy-distance-law", {"depth": 5}, "depth"),
        ("cauchy-incomplete", "rank-witness-diverges", {"depth": 5}, "depth"),
    ]


@pytest.mark.parametrize("suite,prop,case,field", cases())
def test_integer_text_replays(suite, prop, case, field):
    assert replay(suite, prop, case)
    assert replay(suite, prop, dict(case, **{field: f" {case[field]} "}))


@pytest.mark.parametrize("bad", [True, False, "1_0", "3.0", "٣", "three"])
@pytest.mark.parametrize("suite,prop,case,field", cases())
def test_off_grammar_ints_raise_value_error(suite, prop, case, field, bad):
    with pytest.raises(ValueError, match="expected an integer"):
        replay(suite, prop, dict(case, **{field: bad}))


@pytest.mark.parametrize("flag", [True, False])
def test_bool_is_not_an_int(flag):
    with pytest.raises(ValueError, match="expected an integer"):
        _as_int(flag)
    with pytest.raises(ValueError, match="bad value for parameter 'N'"):
        run_suite("cube-isometry", seed=0, trials=1, params={"N": flag})


@pytest.mark.parametrize("suite,prop,case", [
    ("not-totally-bounded", "replicates-pairwise-half-diameter",
     {"c": "0", "d": "1", "k": 3.0}),
    ("not-totally-bounded", "replicates-pairwise-half-diameter",
     {"c": 0.5, "d": "1", "k": 3}),
    ("cauchy-incomplete", "cauchy-distance-law", {"depth": 5.0}),
    ("cauchy-incomplete", "rank-witness-diverges", {"depth": 5.0}),
    ("cube-isometry", "cube-embedding-isometric", {"x": ["0"], "y": ["0"]}),
    ("cauchy-incomplete", "cauchy-distance-law", {}),
])
def test_malformed_case_raises_value_error(suite, prop, case):
    with pytest.raises(ValueError, match="malformed case"):
        replay(suite, prop, case)
