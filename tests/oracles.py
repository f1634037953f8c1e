"""Independent test oracles.

Everything here reasons through pointwise membership at adaptively chosen
rational sample points, never through the decorated-endpoint orders that
the library itself uses, so an agreement between the two is evidence and
not tautology.  The exception is the reference distances and decisions
at the end: the interval closed form on ``ExtRational`` values, the
erosion decision through ``erode``, and the library's matching probe on
tables of them, against which the integer-lattice kernel is checked; the
table decision and per-pair certificate check that the table-free ones
replaced; ``direct_lattice``, the pair lattice built from the endpoint
fractions on every call, against which the cached per-module views of
``interleaving._lattice`` are checked; and ``key_table``, the module table
built one ``interleaving._key_entry`` at a time on it, against which the
kernel's table loop is checked.
"""

import math
from fractions import Fraction
from itertools import product

from persistd import EMPTY, ExtRational, Interval, PModule, POS_INF
from persistd.intervals import ZERO, _as_fraction
from persistd.bottleneck import _matching_at
from persistd.interleaving import _key_entry


def member(i: Interval, x: Fraction) -> bool:
    """Pointwise membership straight from the endpoint fields."""
    if i.is_empty:
        return False
    x = ExtRational(x)
    above = i.lo.value < x or (i.lo.value == x and i.lo.closed)
    below = x < i.hi.value or (x == i.hi.value and i.hi.closed)
    return above and below


def sample_points(*intervals: Interval) -> list[Fraction]:
    """Finite endpoint values of the inputs, padded by a small offset on
    each side of every value and by far-out points standing in for the
    unbounded directions."""
    values = set()
    for i in intervals:
        if i.is_empty:
            continue
        for ep in (i.lo, i.hi):
            if ep.value.is_finite:
                values.add(ep.value.as_fraction)
    if not values:
        values = {Fraction(0)}
    ordered = sorted(values)
    gaps = [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
    delta = min(gaps) / 4 if gaps else Fraction(1, 4)
    pts = set()
    for v in ordered:
        pts.update((v - delta, v, v + delta))
    pts.add(max(ordered) + 7)
    pts.add(min(ordered) - 7)
    return sorted(pts)


def leq_oracle(a: Interval, b: Interval) -> bool:
    """Literal two-quantifier reading of the interval order on samples."""
    pts = sample_points(a, b)
    in_a = [x for x in pts if member(a, x)]
    in_b = [x for x in pts if member(b, x)]
    cond1 = all(any(y >= x for y in in_b) for x in in_a)
    cond2 = all(any(x <= y for x in in_a) for y in in_b)
    return cond1 and cond2


def precedes_oracle(a: Interval, b: Interval) -> bool:
    pts = sample_points(a, b)
    in_a = [x for x in pts if member(a, x)]
    in_b = [x for x in pts if member(b, x)]
    return all(x <= y for x in in_a for y in in_b)


def subset_oracle(a: Interval, b: Interval) -> bool:
    pts = sample_points(a, b)
    return all(member(b, x) for x in pts if member(a, x))


def naturality_map_exists(source: Interval, target: Interval,
                          lo: int = -4, hi: int = 8) -> bool:
    """Brute-force search for a nonzero componentwise 0/1 map on a half-
    integer grid, checking every consecutive naturality square.  Only
    valid when all finite endpoints are integers inside [lo, hi]."""
    grid = [Fraction(k, 2) for k in range(2 * lo, 2 * hi + 1)]
    support = [x for x in grid if member(source, x) and member(target, x)]
    if not support:
        return False
    idx = {x: k for k, x in enumerate(support)}
    for bits in product((0, 1), repeat=len(support)):
        if not any(bits):
            continue
        def f(x):
            return bits[idx[x]] if x in idx else 0
        ok = True
        for x, y in zip(grid, grid[1:]):
            sxy = 1 if member(source, x) and member(source, y) else 0
            txy = 1 if member(target, x) and member(target, y) else 0
            if f(y) * sxy != txy * f(x):
                ok = False
                break
        if ok:
            return True
    return False


def radical_dimension(m: PModule, x: Fraction) -> int:
    """Dimension of the radical fiber at x: summands containing x together
    with some strictly earlier point."""
    out = 0
    for s in m.summands:
        if member(s, x) and s.lo.value < ExtRational(x):
            out += 1
    return out


def persistent_dimension(m: PModule, p: Fraction, x: Fraction) -> int:
    """Dimension of the p-persistent fiber at x: summands containing both
    x - p and x."""
    return sum(1 for s in m.summands if member(s, x) and member(s, x - p))


def module_dimension(m: PModule, x: Fraction) -> int:
    return sum(1 for s in m.summands if member(s, x))


def contraction_dimension(m: PModule, t: Fraction, x: Fraction) -> int:
    """Dimension at x of the contraction path at time 0 < t < 1: summands
    [c, d] with c + t(d - c)/2 <= x < d - t(d - c)/2, whatever their
    decorations."""
    out = 0
    for s in m.summands:
        c, d = s.lo.value.as_fraction, s.hi.value.as_fraction
        if c + t * (d - c) / 2 <= x < d - t * (d - c) / 2:
            out += 1
    return out


def erode(i: Interval, eps) -> Interval:
    """Shrink by eps >= 0 on each side: the intersection of the two shifts."""
    eps = _as_fraction(eps)
    if eps < 0:
        raise ValueError(f"erosion needs eps >= 0, got {eps}")
    return i.shift(eps).intersect(i.shift(-eps))


def reference_are_eps_interleaved(i: Interval, j: Interval, eps) -> bool:
    """Erosion criterion through ``erode`` and ``is_subset_of``."""
    eps = _as_fraction(eps)
    if eps < 0:
        raise ValueError(f"interleaving needs eps >= 0, got {eps}")
    return erode(i, eps).is_subset_of(j) and erode(j, eps).is_subset_of(i)


def reference_distance_to_zero(i: Interval) -> ExtRational:
    """Half the diameter, on ``ExtRational``."""
    return i.diameter().half()


def reference_interval_distance(i: Interval, j: Interval) -> ExtRational:
    """The interval closed form on ``ExtRational``: the smaller of the worst
    endpoint gap and the larger half-diameter."""
    if i.is_empty or j.is_empty:
        if i.is_empty and j.is_empty:
            return ZERO
        return reference_distance_to_zero(j if i.is_empty else i)
    endpoint_term = max(
        i.lo.value.gap(j.lo.value),
        i.hi.value.gap(j.hi.value),
    )
    halving_term = max(i.diameter(), j.diameter()).half()
    return min(endpoint_term, halving_term)


def reference_search(m: PModule, n: PModule) -> tuple[ExtRational, int]:
    """Module distance by plain binary search over candidates, every cost an
    ``ExtRational`` from the reference closed form, and the number of
    unseeded probes that search makes."""
    ms, ns = m.summands, n.summands
    costs = [[reference_interval_distance(a, b) for b in ns] for a in ms]
    dtz_m = [reference_distance_to_zero(a) for a in ms]
    dtz_n = [reference_distance_to_zero(b) for b in ns]
    candidates = {ExtRational(0), *dtz_m, *dtz_n, *(c for row in costs for c in row)}
    ordered = sorted(c for c in candidates if c.is_finite)

    probes = 0
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if full_probe(costs, dtz_m, dtz_n, ordered[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return (ordered[hi] if hi < len(ordered) else POS_INF), probes


def reference_module_distance(m: PModule, n: PModule) -> ExtRational:
    """The distance that ``reference_search`` finds."""
    return reference_search(m, n)[0]


def reference_modules_eps_interleaved(m: PModule, n: PModule, eps: Fraction) -> bool:
    """Module eps-decision with every pair decided by the erosion reference:
    a probe at 0 of the table that is 0 where the reference says yes, 1
    where it says no."""
    def cost(a, b):
        return 0 if reference_are_eps_interleaved(a, b, eps) else 1

    ms, ns = m.summands, n.summands
    return full_probe(
        [[cost(a, b) for b in ns] for a in ms],
        [cost(a, EMPTY) for a in ms],
        [cost(b, EMPTY) for b in ns],
        0,
    ) is not None


def reference_lattice(ms, ns, eps):
    """The lattice of ``ms``, ``ns`` and eps, read through the
    ``ExtRational`` and ``Fraction`` properties, one endpoint field at a
    time: S = 4*lcm(every finite denominator, eps's), so w = 2*eps*S is an
    even integer and an entry is eps-interleaved iff it is <= w.  Returns
    (S, reach, w, decorated keys of ``ms``, of ``ns``); at eps 0 that is
    ``interleaving._lattice`` with w = 0, and at other eps an independent
    check of ``interleaving._bound``."""
    eps = _as_fraction(eps)
    finite = [v.as_fraction for s in (*ms, *ns) for v in (s.lo.value, s.hi.value)
              if v.is_finite]
    scale = 4 * math.lcm(eps.denominator, *(f.denominator for f in finite))
    e = eps.numerator * (scale // eps.denominator)
    reach = max([e, *(abs(f.numerator) * (scale // f.denominator) for f in finite)])
    big = 8 * reach + 2

    def point(x):
        return x.sign * big if not x.is_finite else x.as_fraction * scale

    def key(s):
        return (2 * int(point(s.lo.value)) + (0 if s.lo.closed else 1),
                2 * int(point(s.hi.value)) - (0 if s.hi.closed else 1))

    return scale, reach, 2 * e, [key(s) for s in ms], [key(s) for s in ns]


def direct_lattice(ms, ns, eps):
    """``reference_lattice`` of the summand sequences ``ms`` and ``ns``
    computed from scratch, with no per-module view: every endpoint's sign,
    numerator and denominator read, one lcm over all of them and eps's, and
    every key scaled from its point.  At eps 0 it is what
    ``interleaving._lattice`` returns, with w = 0 inserted third."""
    eps = _as_fraction(eps)
    if eps < 0:
        raise ValueError(f"interleaving needs eps >= 0, got {eps}")
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


def lattice_scale(m: PModule, n: PModule) -> int:
    """2 * lcm of every finite endpoint denominator of both modules."""
    dens = [
        ep.value.as_fraction.denominator
        for s in (*m.summands, *n.summands)
        for ep in (s.lo, s.hi)
        if ep.value.is_finite
    ]
    return 2 * math.lcm(1, *dens)


def candidate_values(m: PModule, n: PModule) -> set[Fraction]:
    """0, every finite pairwise distance and every finite to-zero distance."""
    ms, ns = m.summands, n.summands
    values = {ExtRational(0)}
    values.update(reference_interval_distance(a, b) for a in ms for b in ns)
    values.update(reference_distance_to_zero(s) for s in (*ms, *ns))
    return {v.as_fraction for v in values if v.is_finite}


def full_probe(costs, dtz_m, dtz_n, t, mates=None, copies=None):
    """``bottleneck._matching_at`` on whole rows and columns: every index
    is a possible neighbour.  Unseeded unless ``mates`` are given."""
    near_m = [range(len(dtz_n))] * len(dtz_m)
    near_n = [range(len(dtz_m))] * len(dtz_n)
    if mates is None:
        sizes = (len(dtz_m), len(dtz_n)) if copies is None else (
            sum(map(len, ranges)) for ranges in copies)
        mates = tuple([-1] * size for size in sizes)
    return _matching_at(costs, dtz_m, dtz_n, t, near_m, near_n, mates, copies)


def key_table(ms, ns, eps=0):
    """The decorated table of the summand sequences ``ms`` and ``ns``, each
    entry one ``interleaving._key_entry`` call on the keys of one
    ``direct_lattice`` at eps: (costs, dtz_m, dtz_n, S, fin, w)."""
    scale, reach, w, keys_m, keys_n = direct_lattice(ms, ns, eps)
    costs = [[_key_entry(a, b) for b in keys_n] for a in keys_m]
    dtz_m = [_key_entry(a, None) for a in keys_m]
    dtz_n = [_key_entry(None, b) for b in keys_n]
    return costs, dtz_m, dtz_n, scale, 4 * reach + 1, w


def table_modules_eps_interleaved(m: PModule, n: PModule, eps) -> bool:
    """The table decision: one unseeded probe at w = 2*eps*S of the
    decorated cost table of every summand copy."""
    costs, dtz_m, dtz_n, _, _, w = key_table(m.summands, n.summands, eps)
    return full_probe(costs, dtz_m, dtz_n, w) is not None


def reference_verify_certificate(m: PModule, n: PModule, cert) -> bool:
    """The per-pair certificate check on ``ExtRational``: every copy is
    listed once, the threshold is not negative, and every pair's distance
    and every unmatched copy's distance to zero is at most the threshold."""
    ms, ns = m.summands, n.summands
    used_m = sorted([*cert.unmatched_m, *(i for i, _ in cert.pairs)])
    used_n = sorted([*cert.unmatched_n, *(j for _, j in cert.pairs)])
    if used_m != list(range(len(ms))) or used_n != list(range(len(ns))):
        return False
    t = cert.threshold
    return t >= ZERO and all(
        [reference_interval_distance(ms[i], ns[j]) <= t for i, j in cert.pairs]
        + [reference_distance_to_zero(ms[i]) <= t for i in cert.unmatched_m]
        + [reference_distance_to_zero(ns[j]) <= t for j in cert.unmatched_n]
    )
