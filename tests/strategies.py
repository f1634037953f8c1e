"""Hypothesis strategies for decorated intervals and modules, and the
seeded random pairs and kernel keys that several test files draw."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from persistd import (EMPTY, Endpoint, ExtRational, NEG_INF, POS_INF, PModule, interval,
                      make_interval, singleton)
from persistd.verify import random_interval

from oracles import column_table

grid_fractions = st.builds(
    Fraction, st.integers(-48, 48), st.sampled_from([1, 2, 4, 8, 16])
)


@st.composite
def intervals(draw, allow_empty=True, allow_infinite=True, finite_only=False):
    if allow_empty and draw(st.booleans()) and draw(st.integers(0, 7)) == 0:
        return EMPTY
    a = draw(grid_fractions)
    b = draw(grid_fractions)
    if a > b:
        a, b = b, a
    lo_inf = (not finite_only) and allow_infinite and draw(st.integers(0, 7)) == 0
    hi_inf = (not finite_only) and allow_infinite and draw(st.integers(0, 7)) == 0
    if a == b and not (lo_inf or hi_inf):
        return singleton(a)
    lo = Endpoint(NEG_INF, False) if lo_inf else Endpoint(ExtRational(a), draw(st.booleans()))
    hi = Endpoint(POS_INF, False) if hi_inf else Endpoint(ExtRational(b), draw(st.booleans()))
    out = make_interval(lo, hi)
    if out.is_empty and not allow_empty:
        return singleton(a)
    return out


def nonempty_intervals(allow_infinite=True):
    return intervals(allow_empty=False, allow_infinite=allow_infinite)


def finite_nonempty_intervals():
    return intervals(allow_empty=False, finite_only=True)


small_eps = st.builds(Fraction, st.integers(0, 24), st.sampled_from([1, 2, 4, 8]))


@st.composite
def modules(draw, max_summands=5, finite_only=True, max_copies=1):
    """Up to ``max_summands`` drawn intervals, each repeated 1 to
    ``max_copies`` times; the default draws no copy counts."""
    count = draw(st.integers(0, max_summands))
    summands = []
    for _ in range(count):
        s = draw(intervals(allow_empty=False, finite_only=finite_only))
        copies = draw(st.integers(1, max_copies)) if max_copies > 1 else 1
        summands += [s] * copies
    return PModule(summands)


@st.composite
def pooled_pairs(draw, max_count=6):
    """Two modules over one pool of at most 6 intervals (infinite endpoints
    included), each interval 0 to ``max_count`` times in each module."""
    pool = draw(st.lists(nonempty_intervals(), min_size=1, max_size=6))
    counts = st.lists(st.integers(0, max_count), min_size=len(pool), max_size=len(pool))
    return tuple(
        PModule([s for s, k in zip(pool, draw(counts)) for _ in range(k)]) for _ in range(2)
    )


# Denominators up to 2^41, the scale of a depth-40 Cauchy stage's distances.
deep_fractions = st.sampled_from([1, 3, 7, 16, 2**20, 2**40, 2**41]).flatmap(
    lambda den: st.builds(Fraction, st.integers(-6 * den, 6 * den), st.just(den))
)


@st.composite
def lattice_intervals(draw):
    """Nonempty intervals of every shape: finite with mixed decorations,
    singletons, half-lines, the whole line; endpoints on small grids or
    with deep denominators."""
    values = st.one_of(grid_fractions, deep_fractions)
    a, b = sorted((draw(values), draw(values)))
    kind = draw(st.sampled_from(["finite", "finite", "singleton", "left", "right", "line"]))
    if kind == "singleton":
        return singleton(a)
    lo = (
        Endpoint(NEG_INF, False)
        if kind in ("left", "line")
        else Endpoint(ExtRational(a), draw(st.booleans()))
    )
    hi = (
        Endpoint(POS_INF, False)
        if kind in ("right", "line")
        else Endpoint(ExtRational(b), draw(st.booleans()))
    )
    out = make_interval(lo, hi)
    return singleton(a) if out.is_empty else out


lattice_modules = st.lists(lattice_intervals(), max_size=4).map(PModule)


def random_pool_pair(rng: random.Random):
    """Two modules over one pool of up to 6 intervals on [-6, 6], some
    with an infinite endpoint, each interval 0 to 6 times per module."""
    pool = []
    for _ in range(rng.randint(1, 6)):
        s = random_interval(rng, Fraction(-6), Fraction(6), 4)
        side = rng.randrange(5)
        if side == 0:
            s = make_interval(Endpoint(NEG_INF, False), s.hi)
        elif side == 1:
            s = make_interval(s.lo, Endpoint(POS_INF, False))
        pool.append(s)
    return tuple(PModule([s for s in pool for _ in range(rng.randint(0, 6))]) for _ in range(2))


def near_copies(rng: random.Random, eps: int):
    """One or two intervals on the half-integers of [0, 12], and two or
    three near copies of them with each endpoint moved by -eps, 0 or eps
    and fresh decorations; the sides swapped or mirrored at random."""
    ms = [random_interval(rng, Fraction(0), Fraction(12), 2) for _ in range(rng.randint(1, 2))]
    ns = []
    for _ in range(rng.randint(2, 3)):
        s = rng.choice(ms)
        lo, hi = (x.value.as_fraction + rng.choice((-eps, 0, eps)) for x in (s.lo, s.hi))
        if lo <= hi:
            ns.append(interval(lo, hi, rng.choice(("[)", "(]", "[]", "()"))))
    ns = [s for s in ns if not s.is_empty]
    if rng.random() < 0.5:
        ms, ns = ns, ms
    if rng.random() < 0.5:
        ms, ns = ([interval(-s.hi.value.as_fraction, -s.lo.value.as_fraction,
                            ("[" if s.hi.closed else "(") + ("]" if s.lo.closed else ")"))
                   for s in side] for side in (ms, ns))
    return PModule(ms), PModule(ns)


def key_columns(*points):
    """The key columns (lower keys, upper keys) of the key points given."""
    return [low for low, _ in points], [up for _, up in points]


def random_table(rng: random.Random, n_m: int, n_n: int, top: int):
    """Random kernel keys, all up to ``top``, the keys of a side in
    increasing order as the runs' are; the table of costs they stand for
    (``oracles.column_table``); and a threshold that is mostly one of the
    entries, so that ties with it are common: (costs, keys, t)."""
    cols = [key_columns(*sorted((rng.randint(0, top), rng.randint(0, top)) for _ in range(size)))
            for size in (n_m, n_n)]
    dtz_m = [rng.randint(0, top) for _ in range(n_m)]
    dtz_n = [rng.randint(0, top) for _ in range(n_n)]
    keys = dtz_m, dtz_n, *cols
    costs = column_table(*keys)
    t = rng.choice([*dtz_m, *dtz_n, *(c for row in costs for c in row), top])
    return costs, keys, t
