"""The one-pass interval parser and the flat run key.

``parse_interval`` must give the interval, or the exception class and
message, of ``oracles.reference_parse_interval`` on every text, and a
module's runs must come in ``Interval.canonical_key`` order, merged
exactly where that key is equal."""

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
    make_interval,
    parse_interval,
)
from persistd.pmodule import _run_key

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
# primes P = 10**12 - 11 and Q = 10**12 + 39.
P, Q = 999_999_999_989, 1_000_000_000_039
KEY_VALUES = [
    NEG_INF, POS_INF,
    *(ExtRational(Fraction(n, d)) for n, d in [
        (0, 1), (1, 3), (1, 2), (2, 3), (1, 1), (-1, 3), (-1, 2), (-2, 3), (-1, 1), (4, 3),
        (P - 1, P), (Q - 1, Q), (P + 1, P), (Q + 1, Q), (-P - 1, P),
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


def test_run_key_orders_as_canonical_key():
    """Every pair of key intervals, every decoration at equal values: the
    flat key, ``canonical_key`` and ``fraction_key`` agree on ``<`` and
    ``==``."""
    pool = set()
    for lo, hi in product(KEY_VALUES, repeat=2):
        for lo_closed, hi_closed in product((False, True), repeat=2):
            s = make_interval(Endpoint(lo, lo_closed and lo.is_finite),
                              Endpoint(hi, hi_closed and hi.is_finite))
            if not s.is_empty:
                pool.add(s)
    assert len(pool) > 300
    for a, b in product(pool, repeat=2):
        ka, kb, ca, cb = _run_key(a), _run_key(b), a.canonical_key(), b.canonical_key()
        fa, fb = fraction_key(a), fraction_key(b)
        assert (ka < kb, ka == kb) == (ca < cb, ca == cb) == (fa < fb, fa == fb), (a, b)
