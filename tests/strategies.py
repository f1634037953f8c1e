"""Hypothesis strategies for decorated intervals and modules."""

from fractions import Fraction

from hypothesis import strategies as st

from persistd import EMPTY, Endpoint, ExtRational, NEG_INF, POS_INF, PModule, make_interval, singleton

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
def pooled_pairs(draw):
    """Two modules over one pool of at most 6 intervals (infinite endpoints
    included), each interval 0 to 6 times in each module."""
    pool = draw(st.lists(nonempty_intervals(), min_size=1, max_size=6))
    counts = st.lists(st.integers(0, 6), min_size=len(pool), max_size=len(pool))
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
