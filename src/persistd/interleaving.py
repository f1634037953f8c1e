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
decision is one comparison of the entry with eps's bound, and the
distance is the entry's class.  This module holds only that per-pair
lattice code.  No table of entries is built: ``bottleneck`` reads each
entry off the pair's keys when it needs it.

A side's keys are two int columns, (lower keys, upper keys) by run.  They
start from a ``_view`` of each sequence of runs: its own lcm and its key
columns at its own scale, read once from the ints the runs hold
(``intervals._ends``).  A ``PModule`` keeps the view of its runs, so the
kernel reads each module's runs once however many distances and decisions
it takes part in, and never builds an ``Interval`` or a ``Fraction`` of
them; ``_lattice`` only rescales the columns of each side to the pair's
scale, and not at all when that is the side's own and it has no infinite
endpoint, whatever eps (``_bound``): the kernel then reads the view's own
columns.  A pair of intervals gets one throwaway view of their ints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intervals import EMPTY, ExtRational, Interval, POS_INF, Rational, _as_fraction, _ends


def _view(runs) -> tuple:
    """The integer view of a sequence of ``intervals._ends`` tuples at its
    own scale S0 = 4*lcm(their finite denominators): (that lcm, reach,
    whether an endpoint is infinite, the key columns (lower keys, upper
    keys) of the runs as ``_lattice`` keys the sequence alone, and the
    numerator and denominator of every endpoint value, flat, in run order,
    0 and 1 for an infinity).  Every |key| of a finite endpoint is at most
    2*reach + 1, and every infinite one is larger."""
    ends = [p for e in runs for p in (e[:3], e[4:7])]
    dens = [den for sign, _, den in ends if not sign]
    lcm = math.lcm(*set(dens))
    points = [num * (4 * lcm // den) for _, num, den in ends]
    # An infinity holds the value 0, so it adds nothing to reach.
    reach = max(map(abs, points), default=0)
    infinite = len(dens) < len(ends)
    if infinite:
        big = 8 * reach + 2
        points = [sign * big if sign else p for (sign, _, _), p in zip(ends, points)]
    # e[3] is 1 for an open lower endpoint, e[7] 1 for a closed upper one.
    lows = [2 * lo + e[3] for e, lo in zip(runs, points[::2])]
    ups = [2 * hi - 1 + e[7] for e, hi in zip(runs, points[1::2])]
    return lcm, reach, infinite, (lows, ups), [r for _, num, den in ends for r in (num, den)]


def _rescaled(view, scale: int, big: int) -> tuple:
    """The key columns of ``view`` at the pair's scale S, infinities at -big
    and +big.  At its own scale with no infinity they are the view's own
    columns object.

    A key k = 2P +- d (d = k & 1, the decoration) of the value num/den is
    num * (2S // den) +- d at S: a big int divided by a small one and
    multiplied by a small one, where scaling the view's own key would
    multiply two big ints when both sides' lcms are large and coprime."""
    lcm, reach, infinite, cols, ratios = view
    if scale == 4 * lcm and not infinite:
        return cols
    lim = 2 * reach + 1
    s2 = 2 * scale
    lows, ups = cols
    return ([n * (s2 // d) + (lo & 1) if lo >= -lim else 1 - 2 * big
             for lo, n, d in zip(lows, ratios[::4], ratios[1::4])],
            [n * (s2 // d) - (up & 1) if up <= lim else 2 * big - 1
             for up, n, d in zip(ups, ratios[2::4], ratios[3::4])])


def _lattice(view_m, view_n):
    """Two ``_view``s' endpoints on one integer lattice, as (S, reach, the
    key columns (lower keys, upper keys) of the first, of the second).

    A finite value scales to P = value*S, S = 4*lcm(all finite
    denominators), a multiple of 4, -inf and +inf to -big and +big, big =
    8*reach + 2, where reach bounds every |P|.  A lower endpoint at P keys
    as 2P when closed and 2P+1 when open, an upper one as 2P-1 when open
    and 2P when closed: key order is the decorated endpoint order.  A side
    at its own scale with no infinity returns its view's columns, unchanged."""
    (lcm_m, reach_m), (lcm_n, reach_n) = view_m[:2], view_n[:2]
    lcm = math.lcm(lcm_m, lcm_n)
    f_m, f_n = lcm // lcm_m, lcm // lcm_n
    reach = max(f_m * reach_m, f_n * reach_n)
    big = 8 * reach + 2
    return 4 * lcm, reach, _rescaled(view_m, 4 * lcm, big), _rescaled(view_n, 4 * lcm, big)


def _bound(eps: Rational, scale: int, reach: int) -> int:
    """W: on a ``_lattice`` of scale S, an entry is eps-interleaved iff it is
    <= W.  With E = eps*S = num/den, not reduced, W = 2E when E is an even
    integer; classes C are even, so else W is the top 2C+1 = 4*ceil(E/2) - 3
    of the largest even C < E.  W <= fin = 4*reach + 1 admits no infinite
    entry.  A distance is <= eps iff its entry is <= W | 1."""
    eps = _as_fraction(eps)
    if eps < 0:
        raise ValueError(f"interleaving needs eps >= 0, got {eps}")
    num, den = eps.numerator * scale, eps.denominator
    w = 2 * num // den if num % (2 * den) == 0 else 4 * -(-num // (2 * den)) - 3
    return min(w, 4 * reach + 1)


def _class_top(r: int) -> int:
    """The top 2C+1 of the class {2C-1, 2C, 2C+1} of a table entry r; the
    distance of the class is C/S = (top - 1)/(2S)."""
    return ((r + 1) & -4) + 1


def _key_entry(a, b) -> int:
    """The entry of two runs' (lower key, upper key) on one ``_lattice``;
    None stands for the zero module.

    The interval closed form min(max(|dlo|, |dhi|), max(diam)/2) runs on
    the keys, with (up - low)//2 + 1 as a summand's half-diameter.  For a
    pair, or a summand against the zero module, at undecorated distance c,
    the entry is 2C-1 or 2C (C = c*S) when the infimum c is attained and
    2C+1 when it is not, and the pair is eps-interleaved iff its entry is
    <= ``_bound(eps, S, reach)``.  C is even, so the classes {2C-1, 2C,
    2C+1} of distinct costs are disjoint.  No finite entry exceeds fin =
    4*reach + 1, and every entry the rationals call infinite is at least
    big - reach > fin, so an entry is finite iff it is <= fin."""
    if a is None or b is None:
        key = b if a is None else a
        return 0 if key is None else (key[1] - key[0]) // 2 + 1
    h = max(a[1] - a[0], b[1] - b[0]) // 2 + 1
    return min(max(abs(a[0] - b[0]), abs(a[1] - b[1])), h)


def _entry(i: Interval, j: Interval):
    """The one table entry of the pair, as (entry, S, reach), read on one
    throwaway view of both intervals' ints."""
    ms, ns = (() if i.is_empty else (_ends(i),)), (() if j.is_empty else (_ends(j),))
    lcm, reach, _, (lows, ups), _ = _view((*ms, *ns))
    r = _key_entry((lows[0], ups[0]) if ms else None, (lows[-1], ups[-1]) if ns else None)
    return r, 4 * lcm, reach


def _distance(i: Interval, j: Interval) -> ExtRational:
    r, scale, reach = _entry(i, j)
    return POS_INF if r > 4 * reach + 1 else ExtRational(Fraction(_class_top(r) - 1, 2 * scale))


def are_eps_interleaved(i: Interval, j: Interval, eps: Rational) -> bool:
    """Erosion criterion at a specific eps >= 0 (decoration-sensitive)."""
    r, scale, reach = _entry(i, j)
    return r <= _bound(eps, scale, reach)


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
