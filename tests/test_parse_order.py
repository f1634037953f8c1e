"""The one-pass interval and module parser and the int run key.

``parse_interval`` must give the interval, or the exception class and
message, of ``oracles.reference_parse_interval`` on every text, and
``parse_module`` the module that the reference parser's intervals make; a
module's runs must come in ``Interval.canonical_key`` order, merged exactly
where that key is equal."""

import json
import random
from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from persistd import (
    NEG_INF,
    POS_INF,
    Endpoint,
    ExtRational,
    Interval,
    PModule,
    ModuleFormatError,
    make_interval,
    parse_interval,
    parse_module,
)

from oracles import reference_parse_interval

SPACES = ["", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "\x85"]
HUGE = "9" * 4301  # past int's default conversion limit of 4300 digits
NUMBERS = [
    "0", "-0", "+0", "00", "7", "-7", "+7", "1/2", "2/4", "-1/2", "+3/6", "1/3", "2/3",
    "5/3", "1/0", "0/0", "1/-2", "1/+2", "-1/-2", "1.5", "1e3", "1_0", "1/1_0", "0x1",
    "١", "５", "1/٢", "1 /2", "1/ 2", "- 1", "/2", "1/", "--1", "",
    "9" * 4300, HUGE, "1/" + HUGE, "123456789012345678901/98765432109876543211",
]
INFINITIES = ["inf", "+inf", "-inf", "+-inf", "Inf", "INF", "infinity", "∞", "- inf", "inf/1"]
OPENS, CLOSES = ["[", "(", "{", "<", ""], ["]", ")", "}", ">", ""]


def spaced(token):
    return st.tuples(st.sampled_from(SPACES), token, st.sampled_from(SPACES)).map("".join)


tokens = spaced(st.sampled_from(NUMBERS + INFINITIES))
bracketed = st.builds(
    lambda outer, o, lo, comma, hi, c, tail: f"{outer}{o}{lo}{comma}{hi}{c}{tail}",
    st.sampled_from(SPACES),
    st.sampled_from(OPENS),
    tokens,
    st.sampled_from([",", ",", ",", "", ",,", ", ,"]),
    tokens,
    st.sampled_from(CLOSES),
    st.sampled_from(SPACES),
)
texts = st.one_of(
    bracketed,
    spaced(st.sampled_from(["empty", "Empty", "empt y", "[]", "()", "[", ",", "[,)"])),
    st.text(alphabet="[](),/-+0123456789 inf١", max_size=14),
)


def outcome(parse, text):
    try:
        got = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    fields = None if got.is_empty else [
        (e.value.sign, e.value.value, e.closed) for e in (got.lo, got.hi)
    ]
    return got, fields


@given(texts)
@settings(max_examples=1500)
@example("[inf,inf)")
@example("(inf,inf)")
@example("(-inf,+inf)")
@example("(+inf,-inf)")
@example("[1/2,2/4)")
@example("[1/2,2/4]")
@example("(3,3]")
@example(f"[0,{HUGE})")
@example(f"[{HUGE},0)")
@example(f"[1/0,{HUGE})")
@example("[1_0,2)")
@example("[١,2)")
@example("[1/-2,0]")
@example(" ( -1 , 1/3 ] ")
def test_parser_equals_reference(text):
    assert outcome(parse_interval, text) == outcome(reference_parse_interval, text)


def test_bracket_kinds_and_equal_endpoints():
    """All four bracket kinds, at distinct and at equal values, finite and
    infinite."""
    values = ["-inf", "-1/2", "0", "2/4", "inf"]
    for (o, c), lo, hi in product(product("[(", "])"), values, values):
        text = f"{o}{lo},{hi}{c}"
        assert outcome(parse_interval, text) == outcome(reference_parse_interval, text)


# Values that stress the run key: the infinities, values of one floor
# (1/3, 1/2, 2/3) and of its neighbours, and values a hair apart over the
# primes P = 10**12 - 11 and Q = 10**12 + 39, which share their floor at
# 2**64 with small and with large numerators.
P, Q = 999_999_999_989, 1_000_000_000_039
KEY_VALUES = [
    NEG_INF, POS_INF,
    *(ExtRational(Fraction(n, d)) for n, d in [
        (0, 1), (1, 3), (1, 2), (2, 3), (1, 1), (-1, 3), (-1, 2), (-2, 3), (-1, 1), (4, 3),
        (P - 1, P), (Q - 1, Q), (P + 1, P), (Q + 1, Q), (-P - 1, P), (1, P), (1, Q),
    ]),
]


@st.composite
def key_intervals(draw):
    lo, hi = sorted(draw(st.lists(st.sampled_from(KEY_VALUES), min_size=2, max_size=2)))
    return make_interval(Endpoint(lo, lo.is_finite and draw(st.booleans())),
                         Endpoint(hi, hi.is_finite and draw(st.booleans())))


@given(st.lists(key_intervals().filter(lambda s: not s.is_empty), max_size=12))
@settings(max_examples=300)
def test_runs_come_in_canonical_order(copies):
    copies = [parse_interval(str(s)) for s in copies]  # equal but distinct objects
    expected = sorted(copies, key=Interval.canonical_key)
    got = PModule(copies).summands
    assert got == tuple(expected) and list(map(str, got)) == list(map(str, expected))


def fraction_key(s: Interval):
    """``canonical_key`` on (sign, Fraction) tuples, without ExtRational's
    comparisons."""
    lo, hi = s.lo, s.hi
    return ((lo.value.sign, lo.value.value, 0 if lo.closed else 1),
            (hi.value.sign, hi.value.value, 1 if hi.closed else 0))


def test_int_key_orders_as_canonical_key():
    """Every pair of key intervals, every decoration at equal values, two
    copies each in a shuffled order: the module's runs come in
    ``canonical_key`` order, which ``fraction_key`` gives too, and each run
    holds the two copies of one interval.  The int key is a total order,
    so it agrees with ``canonical_key`` on every pair of the pool."""
    pool = set()
    for lo, hi in product(KEY_VALUES, repeat=2):
        for lo_closed, hi_closed in product((False, True), repeat=2):
            s = make_interval(Endpoint(lo, lo_closed and lo.is_finite),
                              Endpoint(hi, hi_closed and hi.is_finite))
            if not s.is_empty:
                pool.add(s)
    assert len(pool) > 300
    expected = sorted(pool, key=Interval.canonical_key)
    assert expected == sorted(pool, key=fraction_key)
    copies = [parse_interval(str(s)) for s in pool] * 2
    random.Random(5).shuffle(copies)
    m = PModule(copies)
    assert m._runs == tuple((s, 2) for s in expected)
    assert parse_module(m.to_json()) == m


def test_a_long_denominator_at_either_end_refines_its_floor():
    """1/P and 1/Q share their floor at 2**64: as the upper endpoints of
    two runs, or as their lower endpoints, they stay two runs, in order."""
    for texts in ([f"[0,1/{Q})", f"[0,1/{P})"], [f"(1/{Q},1]", f"(1/{P},1]"]):
        for parse in (PModule.of, lambda *ts: parse_module(PModule.of(*ts).to_json())):
            assert list(map(str, parse(*texts[::-1]).summands)) == texts


# Endpoint texts for module JSON: unreduced spellings of one value, signs,
# the infinities, values a hair apart over the primes P and Q, off-grammar
# numbers, a zero denominator and integers past int's digit limit.
ENDPOINTS = ["0", "-0", "1/2", "2/4", " 3/6 ", "+1/2", "-1/2", "-2/4", "1/3", "2/6", "7",
             "14/2", "inf", "+inf", "-inf", " inf ", f"{P - 1}/{P}", f"{2 * Q - 2}/{2 * Q}",
             f"{Q - 1}/{Q}", "1/0", "0/0", "1.5", "1_0", HUGE, "1/" + HUGE, "9" * 4300]
interval_texts = st.builds(
    lambda outer, o, lo, hi, c: f"{outer}{o}{lo},{hi}{c}{outer}",
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["[", "[", "(", "("]),
    st.sampled_from(ENDPOINTS),
    st.sampled_from(ENDPOINTS),
    st.sampled_from(["]", "]", ")", ")"]),
) | st.sampled_from(["empty", "[1/2,2/4]", "[2/4,1/2)", "(0,0]", "[-inf,0)", "(0,inf]", "{0,1)"])


@st.composite
def module_texts(draw):
    """Module JSON over a few interval texts, each possibly repeated, with
    and without multiplicities."""
    pool = draw(st.lists(interval_texts, min_size=1, max_size=4))
    entries = [{"interval": text} if k is None else {"interval": text, "multiplicity": k}
               for text, k in draw(st.lists(st.tuples(st.sampled_from(pool),
                                                      st.none() | st.integers(1, 3)),
                                            max_size=8))]
    return json.dumps({"summands": entries})


def reference_parse_module(data: str) -> PModule:
    """``PModule._of_runs`` over ``reference_parse_interval``'s intervals,
    refusing an empty one as ``parse_module`` does."""
    runs = []
    for pos, entry in enumerate(json.loads(data)["summands"]):
        text = entry["interval"]
        s = reference_parse_interval(text)
        if s.is_empty:
            raise ModuleFormatError(f"summand #{pos} is empty: {text!r}")
        runs.append((s, entry.get("multiplicity", 1)))
    return PModule._of_runs(runs)


def module_outcome(parse, data):
    try:
        m = parse(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return m, m._runs, list(map(str, m._runs)), m.to_json(), m._lattice_view()


@given(module_texts())
@settings(max_examples=400)
@example('{"summands": [{"interval": "[1/2,1)"}, {"interval": "[2/4,1)", "multiplicity": 2}]}')
@example('{"summands": [{"interval": "(-inf,+inf)"}, {"interval": " ( -inf , inf ) "}]}')
@example('{"summands": [{"interval": "[0,1)"}, {"interval": "[1/0,1)"}]}')
@example('{"summands": [{"interval": "[0,1)"}, {"interval": "[2,2)"}]}')
@example('{"summands": [{"interval": "[0,%s)"}]}' % HUGE)
def test_module_parser_equals_reference(data):
    """``parse_module`` against the reference parser's runs: the same
    module, runs, JSON and integer view, or the same exception class and
    message."""
    assert module_outcome(parse_module, data) == module_outcome(reference_parse_module, data)
