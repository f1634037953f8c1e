"""Epsilon-interleaving decision and exact interleaving distance for
interval modules (the empty interval stands for the zero module).

The decision is the erosion criterion: I and J are eps-interleaved iff the
eps-erosion of each is contained in the other.  The distance is the infimum
over feasible eps; it has a closed form in the endpoint values alone:

    min( max(gap(inf I, inf J), gap(sup I, sup J)),
         max(diam I, diam J) / 2 )

where gap is the endpoint displacement (zero between equal infinities,
infinite when the endpoints disagree at infinity).  Decorations never move
the infimum, only whether it is attained.

Both run the closed form on the decorated endpoint keys of the pair (an
interval is a module of one summand, the empty interval one of none), so
its one entry records the distance and whether it is attained: the
decision is one comparison of the entry with eps, and the distance is the
entry's class.  This module holds only that per-pair lattice code; the
module-level table of every pair of summands is ``bottleneck._cost_tables``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intervals import EMPTY, ExtRational, Interval, POS_INF, Rational, _as_fraction


def _lattice(ms: tuple[Interval, ...], ns: tuple[Interval, ...], eps: Rational):
    """Put every endpoint of both summand sequences, and eps >= 0, on one
    integer lattice as decorated keys.

    A finite value scales to P = value*S with S = 4*lcm(all finite
    denominators, eps's), so every P and eps*S is a multiple of 4; -inf and
    +inf scale to -big and +big, big = 8*reach + 2, where reach bounds
    every |P| and eps*S.  A lower endpoint at P keys as 2P when closed and
    2P+1 when open, an upper one as 2P-1 when open and 2P when closed, so
    key order is the decorated endpoint order.  Returns (S, reach, 2*eps*S,
    (lower key, upper key) of each of ms, of each of ns).
    """
    eps = _as_fraction(eps)
    if eps < 0:
        raise ValueError(f"interleaving needs eps >= 0, got {eps}")
    # Each endpoint's sign, numerator and denominator, read once.  An
    # infinity holds the value 0, so it adds nothing to S or reach.
    summands = (*ms, *ns)
    ends = [(x.sign, *x.value.as_integer_ratio())
            for s in summands for x in (s.lo.value, s.hi.value)]
    scale = 4 * math.lcm(eps.denominator, *{den for _, _, den in ends})
    e = eps.numerator * (scale // eps.denominator)
    points = [num * (scale // den) for _, num, den in ends]
    reach = max([e, *map(abs, points)])
    big = 8 * reach + 2
    points = [sign * big if sign else p for (sign, _, _), p in zip(ends, points)]
    keys = [(2 * lo + (0 if s.lo.closed else 1), 2 * hi - (0 if s.hi.closed else 1))
            for s, lo, hi in zip(summands, points[::2], points[1::2])]
    return scale, reach, 2 * e, keys[:len(ms)], keys[len(ms):]


def _class_top(r: int) -> int:
    """The top 2C+1 of the class {2C-1, 2C, 2C+1} of a table entry r; the
    distance of the class is C/S = (top - 1)/(2S)."""
    return ((r + 1) & -4) + 1


def _key_entry(a, b) -> int:
    """The entry of two (lower key, upper key) pairs of ``_lattice``; None
    stands for the zero module.

    The interval closed form min(max(|dlo|, |dhi|), max(diam)/2) runs on
    the keys, with (up - low)//2 + 1 as a summand's half-diameter.  For a
    pair, or a summand against the zero module, at undecorated distance c,
    the entry is 2C-1 or 2C (C = c*S) when the infimum c is attained and
    2C+1 when it is not, and the pair is eps-interleaved iff its entry is
    <= w = 2*eps*S.  C is even, so the classes {2C-1, 2C, 2C+1} of distinct
    costs are disjoint.  No finite entry exceeds fin = 4*reach + 1, and
    every entry the rationals call infinite is at least big - reach > fin,
    so an entry is finite iff it is <= fin."""
    if a is None or b is None:
        key = b if a is None else a
        return 0 if key is None else (key[1] - key[0]) // 2 + 1
    h = max(a[1] - a[0], b[1] - b[0]) // 2 + 1
    return min(max(abs(a[0] - b[0]), abs(a[1] - b[1])), h)


def _entry(i: Interval, j: Interval, eps: Rational = 0):
    """The one table entry of the pair, as (entry, S, fin, w)."""
    ms, ns = (() if i.is_empty else (i,)), (() if j.is_empty else (j,))
    scale, reach, w, keys_m, keys_n = _lattice(ms, ns, eps)
    r = _key_entry(keys_m[0] if ms else None, keys_n[0] if ns else None)
    return r, scale, 4 * reach + 1, w


def _distance(i: Interval, j: Interval) -> ExtRational:
    r, scale, fin, _ = _entry(i, j)
    return POS_INF if r > fin else ExtRational(Fraction(_class_top(r) - 1, 2 * scale))


def are_eps_interleaved(i: Interval, j: Interval, eps: Rational) -> bool:
    """Erosion criterion at a specific eps >= 0 (decoration-sensitive)."""
    r, _, _, w = _entry(i, j, eps)
    return r <= w


def distance_to_zero(i: Interval) -> ExtRational:
    """Interleaving distance to the zero module: half the diameter."""
    return _distance(i, EMPTY)


def interval_distance(i: Interval, j: Interval) -> ExtRational:
    """Exact interleaving distance between two interval modules."""
    return _distance(i, j)


def ball_membership(i: Interval, center: Interval, radius: Rational) -> bool:
    """Strict membership in the open ball of the given radius > 0."""
    radius = _as_fraction(radius)
    if radius <= 0:
        raise ValueError(f"open ball needs radius > 0, got {radius}")
    return interval_distance(i, center) < ExtRational(radius)
