"""Independent test oracles.

Everything here reasons through pointwise membership at adaptively chosen
rational sample points, never through the decorated-endpoint orders that
the library itself uses, so an agreement between the two is evidence and
not tautology.  The exception is the reference distances and decisions
at the end: the interval closed form on ``ExtRational`` values, the
erosion decision through ``erode``, and the library's matching probe on
tables of them, against which the integer-lattice kernel is checked.
"""

from fractions import Fraction
from itertools import product

from persistd import EMPTY, ExtRational, Interval, PModule, POS_INF
from persistd.intervals import ZERO, _as_fraction
from persistd.bottleneck import _matching_at


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


def reference_module_distance(m: PModule, n: PModule) -> ExtRational:
    """Module distance by binary search over candidates, every cost an
    ``ExtRational`` from the reference closed form."""
    costs = [[reference_interval_distance(a, b) for b in n.summands] for a in m.summands]
    dtz_m = [reference_distance_to_zero(a) for a in m.summands]
    dtz_n = [reference_distance_to_zero(b) for b in n.summands]
    candidates = {ExtRational(0), *dtz_m, *dtz_n, *(c for row in costs for c in row)}
    ordered = sorted(c for c in candidates if c.is_finite)

    def feasible(t):
        return _matching_at(costs, dtz_m, dtz_n, t) is not None

    best = POS_INF
    lo, hi = 0, len(ordered) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if feasible(ordered[mid]):
            best, hi = ordered[mid], mid - 1
        else:
            lo = mid + 1
    return best


def reference_modules_eps_interleaved(m: PModule, n: PModule, eps: Fraction) -> bool:
    """Module eps-decision with every pair decided by the erosion reference:
    a probe at 0 of the table that is 0 where the reference says yes, 1
    where it says no."""
    def cost(a, b):
        return 0 if reference_are_eps_interleaved(a, b, eps) else 1

    return _matching_at(
        [[cost(a, b) for b in n.summands] for a in m.summands],
        [cost(a, EMPTY) for a in m.summands],
        [cost(b, EMPTY) for b in n.summands],
        0,
    ) is not None
