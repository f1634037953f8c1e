"""Epsilon-interleaving decision and exact interleaving distance for
interval modules (the empty interval stands for the zero module).

The decision is the erosion criterion: I and J are eps-interleaved iff the
eps-erosion of each is contained in the other.  The distance is the infimum
over feasible eps; it has a closed form in the endpoint values alone:

    min( max(gap(inf I, inf J), gap(sup I, sup J)),
         max(diam I, diam J) / 2 )

where gap is the endpoint displacement (zero between equal infinities,
infinite when the endpoints disagree at infinity).  Decorations never move
the infimum, only whether it is attained, so attainment questions go
through the decision and not the distance.

Both run on the integer lattice that ``bottleneck`` uses for whole modules:
an interval is a module of one summand, the empty interval one of none.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intervals import ExtRational, Interval, POS_INF, Rational, _as_fraction


def _lattice(ms: tuple[Interval, ...], ns: tuple[Interval, ...], eps: Fraction):
    """Put every endpoint of both summand sequences, and eps, on one integer
    lattice: finite values times S = 2*lcm(all finite denominators, eps's),
    so every half-diameter stays an int, and -inf, +inf as -big, +big with
    big = 8*reach + 2, where reach bounds every scaled |value| and eps.
    Returns (S, scaled eps, reach, endpoint pairs of ms, of ns).
    """
    finite = [v.value for s in (*ms, *ns) for v in (s.lo.value, s.hi.value) if v.is_finite]
    scale = 2 * math.lcm(eps.denominator, *{f.denominator for f in finite})
    e = eps.numerator * (scale // eps.denominator)
    reach = max([e, *(abs(f.numerator) * (scale // f.denominator) for f in finite)])
    big = 8 * reach + 2

    def point(x: ExtRational) -> int:
        return x.sign * big if x.sign else x.value.numerator * (scale // x.value.denominator)

    def pairs(summands: tuple[Interval, ...]) -> list[tuple[int, int]]:
        return [(point(s.lo.value), point(s.hi.value)) for s in summands]

    return scale, e, reach, pairs(ms), pairs(ns)


def _cost_table(ms: tuple[Interval, ...], ns: tuple[Interval, ...]):
    """Pairwise and to-zero costs of the summands, as lattice ints.

    The interval closed form min(max(|dlo|, |dhi|), max(diam)/2) runs on
    the lattice points.  No finite cost exceeds fin = 2*reach, and every
    cost the rationals call infinite is at least (big - reach)/2 > fin, so
    a cost is finite iff it is <= fin.  Returns (costs, dtz_m, dtz_n, S, fin).
    """
    scale, _, reach, pts_m, pts_n = _lattice(ms, ns, Fraction(0))
    dtz_m = [(hi - lo) // 2 for lo, hi in pts_m]
    dtz_n = [(hi - lo) // 2 for lo, hi in pts_n]
    cols = [(lo, hi, h) for (lo, hi), h in zip(pts_n, dtz_n)]
    costs = []
    # Plain comparisons instead of abs/max/min calls: this is the hot loop.
    for (alo, ahi), ha in zip(pts_m, dtz_m):
        row = []
        for lo, hi, h in cols:
            g = alo - lo if alo > lo else lo - alo
            g_hi = ahi - hi if ahi > hi else hi - ahi
            if g_hi > g:
                g = g_hi
            if ha > h:
                h = ha
            row.append(g if g < h else h)
        costs.append(row)
    return costs, dtz_m, dtz_n, scale, 2 * reach


def _decision_table(ms: tuple[Interval, ...], ns: tuple[Interval, ...], eps: Rational):
    """The erosion criterion at eps >= 0 for every pair of summands, and
    for every summand against the zero module: (edge_ok, gone_m, gone_n).

    A lower endpoint at lattice point v keys as 2v when closed and 2v+1
    when open, an upper one as 2v-1 when open and 2v when closed, so key
    order is the decorated endpoint order and an interval is nonempty iff
    its lower key is <= its upper key.  Eroding by eps adds 2e to the lower
    key and subtracts 2e from the upper key; an infinite endpoint's key
    moves too, but the sentinels lie so far out that it stays beyond every
    finite key, eroded or not.
    """
    eps = _as_fraction(eps)
    if eps < 0:
        raise ValueError(f"interleaving needs eps >= 0, got {eps}")
    _, e, _, pts_m, pts_n = _lattice(ms, ns, eps)
    w = 2 * e

    def keys(summands: tuple[Interval, ...], pts: list[tuple[int, int]]):
        for s, (lo, hi) in zip(summands, pts):
            low = 2 * lo + (0 if s.lo.closed else 1)
            up = 2 * hi - (0 if s.hi.closed else 1)
            yield low, up, low + w, up - w, low + w > up - w

    keys_m, keys_n = list(keys(ms, pts_m)), list(keys(ns, pts_n))
    # Eroded a lies in b: it is empty, or b's keys enclose its eroded keys.
    edge_ok = [
        [
            (a_gone or (b_low <= a_low_e and a_up_e <= b_up))
            and (b_gone or (a_low <= b_low_e and b_up_e <= a_up))
            for b_low, b_up, b_low_e, b_up_e, b_gone in keys_n
        ]
        for a_low, a_up, a_low_e, a_up_e, a_gone in keys_m
    ]
    return edge_ok, [k[4] for k in keys_m], [k[4] for k in keys_n]


def _summands(i: Interval) -> tuple[Interval, ...]:
    return () if i.is_empty else (i,)


def _distance(ms: tuple[Interval, ...], ns: tuple[Interval, ...]) -> ExtRational:
    costs, dtz_m, dtz_n, scale, fin = _cost_table(ms, ns)
    d = costs[0][0] if ms and ns else max([0, *dtz_m, *dtz_n])
    return POS_INF if d > fin else ExtRational(Fraction(d, scale))


def are_eps_interleaved(i: Interval, j: Interval, eps: Rational) -> bool:
    """Erosion criterion at a specific eps >= 0 (decoration-sensitive)."""
    ms, ns = _summands(i), _summands(j)
    edge_ok, gone_m, gone_n = _decision_table(ms, ns, eps)
    return edge_ok[0][0] if ms and ns else all(gone_m + gone_n)


def distance_to_zero(i: Interval) -> ExtRational:
    """Interleaving distance to the zero module: half the diameter."""
    return _distance(_summands(i), ())


def interval_distance(i: Interval, j: Interval) -> ExtRational:
    """Exact interleaving distance between two interval modules."""
    return _distance(_summands(i), _summands(j))


def ball_membership(i: Interval, center: Interval, radius: Rational) -> bool:
    """Strict membership in the open ball of the given radius > 0."""
    radius = _as_fraction(radius)
    if radius <= 0:
        raise ValueError(f"open ball needs radius > 0, got {radius}")
    return interval_distance(i, center) < ExtRational(radius)
