"""Independent test oracles.

Everything here reasons through pointwise membership at adaptively chosen
rational sample points, never through the decorated-endpoint orders that
the library itself uses, so an agreement between the two is evidence and
not tautology.  The exceptions, against which the integer-lattice kernel
is checked, come after ``contraction_dimension``: the interval closed
form on ``ExtRational`` values and the erosion decision (``erode``); the
copy-level matching probe ``full_probe`` and ``copy_search``, the
distance search as it ran with one vertex per summand copy; the table
decision and the per-pair certificate check; ``direct_lattice``, the pair
lattice from the endpoint fractions, against which the cached views of
``interleaving._lattice`` and ``interleaving._bound`` are checked; and
``key_table``, ``run_table``, ``column_table`` and ``table_floor``, tables
built one ``interleaving._key_entry`` at a time and the Koenig floor read
off one, against which the entries and floors read off the keys are
checked.  Nothing here calls a private function of ``bottleneck``: the
table probe that runs the kernel's own matchers, and every other view of
the kernel's internals, is in ``kernel_seam.py``.
``reference_parse_interval`` is the interval parser as it was before the
one-pass parser, and the ``reference_*`` families are the witness families
as they were built from ``Interval`` values, before they filled the int
runs themselves.
"""

import math
import re
from bisect import bisect_left
from collections import deque
from fractions import Fraction
from itertools import accumulate, chain, product, repeat

from persistd import (
    EMPTY,
    Endpoint,
    ExtRational,
    Interval,
    IntervalParseError,
    MalformedIntervalError,
    NEG_INF,
    PModule,
    POS_INF,
    interval,
)
from persistd.intervals import ZERO, _as_fraction
from persistd import MatchingCertificate, families
from persistd.interleaving import _key_entry, _lattice


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


def direct_lattice(ms, ns, eps):
    """The lattice of the summand sequences ``ms``, ``ns`` and eps, computed
    from scratch, with no per-module view: every endpoint's sign, numerator
    and denominator read, S = 4*lcm(every finite denominator, eps's), so w
    = 2*eps*S is an even integer and an entry is eps-interleaved iff it is
    <= w.  Returns (S, reach, w, decorated keys of ``ms``, of ``ns``); at
    eps 0 it is what ``interleaving._lattice`` returns, with w = 0 inserted
    third, and at other eps an independent check of ``interleaving._bound``."""
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


def run_summands(m: PModule) -> tuple:
    """One summand of each run of m, in run order."""
    return tuple(s for s, _ in m._runs)


def index_certificate(m: PModule, n: PModule, eps) -> MatchingCertificate:
    """Copy i of M against copy i of N, the rest unmatched, at threshold
    eps."""
    k = min(len(m), len(n))
    return MatchingCertificate(ExtRational(eps), tuple((i, i) for i in range(k)),
                               tuple(range(k, len(m))), tuple(range(k, len(n))))


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


def copy_hopcroft_karp(adj: list[list[int]], pair_l: list[int],
                      pair_r: list[int]) -> tuple[int, list[int], list[int]]:
    """Maximum-cardinality bipartite matching, one vertex per copy, by
    Hopcroft-Karp's phases as the kernel ran them before its matcher took
    capacities; returns (size, pair_l, pair_r) with -1 for unmatched
    vertices.  ``pair_l`` and ``pair_r`` are a starting matching on edges
    of ``adj``, augmented in place.  Left vertices may share one list
    object.  The kernel's matcher then skips repeated scans, which must
    leave its matching as it is here, where every list is scanned."""
    n_left = len(adj)
    unreachable = n_left + 1
    dist = [0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if pair_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = unreachable
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = pair_r[v]
                if w == -1:
                    found_free = True
                elif dist[w] == unreachable:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found_free

    def dfs(frames) -> bool:
        # frames: [left vertex, edge chosen from it, next adjacency index],
        # from the root; they stay as the augmenting path when one is found.
        while frames:
            frame = frames[-1]
            u = frame[0]
            descended = False
            while frame[2] < len(adj[u]):
                v = adj[u][frame[2]]
                frame[2] += 1
                w = pair_r[v]
                if w == -1:
                    frame[1] = v
                    for left, via, _ in frames:
                        pair_l[left] = via
                        pair_r[via] = left
                    return True
                if dist[w] == dist[u] + 1:
                    frame[1] = v
                    frames.append([w, -1, 0])
                    descended = True
                    break
            if not descended:
                dist[u] = unreachable
                frames.pop()
        return False

    size = n_left - pair_l.count(-1)
    while bfs():
        for u in range(n_left):
            if pair_l[u] == -1:
                size += dfs([[u, -1, 0]])
    return size, pair_l, pair_r


def copy_cover(runs, lists, mate, n_right, ranges):
    """One side's ``copy_hopcroft_karp`` run over the copies of its
    mandatory ``runs``, whose neighbour runs are ``lists``: (the copies,
    their partners), or None when a copy stays free.  With ``ranges``,
    (this side's, the other side's) copy index ranges by run, the lists are
    expanded to copies and all copies of a run share one list object.

    Each copy i keeps its partner mate[i] from an earlier probe while that
    is still among its neighbours and no copy before it has taken it, and
    the matching is written back to ``mate``."""
    mand, adj, members = runs, lists, lists
    if ranges is not None:
        own, other = ranges
        lists = [list(chain.from_iterable(map(other.__getitem__, near))) for near in lists]
        counts = [len(own[r]) for r in runs]
        mand = list(chain.from_iterable(map(own.__getitem__, runs)))
        adj = list(chain.from_iterable(map(repeat, lists, counts)))
        members = list(chain.from_iterable(map(repeat, map(set, lists), counts)))
    pair_l, pair_r = [-1] * len(mand), [-1] * n_right
    for k, i in enumerate(mand):
        j = mate[i]
        if j != -1 and pair_r[j] == -1 and j in members[k]:
            pair_l[k] = j
            pair_r[j] = k
    size, pair_l, _ = copy_hopcroft_karp(adj, pair_l, pair_r)
    for i, j in zip(mand, pair_l):
        mate[i] = j
    return (mand, pair_l) if size == len(mand) else None


def copy_merge(side_m, side_n) -> dict[int, int]:
    """One matching out of the two sides' ``copy_cover`` matchings
    (Mendelsohn-Dulmage): from each mandatory N copy j that M1 leaves
    free, give j its M2 partner i and move on to i's old M1 partner."""
    chosen = dict(zip(*side_m))
    m2 = dict(zip(*side_n))
    covered = set(chosen.values())
    for j in side_n[0]:
        if j in covered:
            continue
        while j in m2:
            i = m2[j]
            j, chosen[i] = chosen.get(i), j
    return chosen


def copy_matching_at(costs, dtz_m, dtz_n, t, near_m, near_n, mates, copies):
    """The search probe with one vertex per copy, as the kernel ran it
    before its matcher took capacities: a matching {M copy: N copy} over
    the pairs of cost <= t that saturates every copy of to-zero cost > t,
    or None.  The table and the lists ``near_m``, ``near_n`` are by run,
    as for the table probe of ``kernel_seam``; ``copies`` is None or (the M copy
    ranges by run, the N ones), and ``mates`` holds each copy's partner
    from an earlier probe, -1 for none."""
    runs_m = [i for i, v in enumerate(dtz_m) if v > t]
    runs_n = [j for j, v in enumerate(dtz_n) if v > t]
    mate_m, mate_n = mates
    lists_m = [[j for j in near_m[i] if costs[i][j] <= t] for i in runs_m]
    side_m = copy_cover(runs_m, lists_m, mate_m, len(mate_n), copies)
    if side_m is None:
        return None
    lists_n = [[i for i in near_n[j] if costs[i][j] <= t] for j in runs_n]
    side_n = copy_cover(runs_n, lists_n, mate_n, len(mate_m), copies and copies[::-1])
    if side_n is None:
        return None
    for i, near in zip(runs_m, lists_m):
        near_m[i] = near
    for j, near in zip(runs_n, lists_n):
        near_n[j] = near
    return copy_merge(side_m, side_n)


def run_table(m: PModule, n: PModule):
    """The table of the pair of m and n on its runs, each entry one
    ``interleaving._key_entry`` call on the keys of the pair's lattice:
    (costs, dtz_m, dtz_n, S, fin, counts), where no finite entry exceeds
    fin = 4*reach + 1 and ``counts`` is None when no summand repeats, else
    each side's copy counts by run."""
    scale, reach, keys_m, keys_n = _lattice(m._lattice_view(), n._lattice_view())
    costs = [[_key_entry(a, b) for b in keys_n] for a in keys_m]
    dtz_m = [_key_entry(a, None) for a in keys_m]
    dtz_n = [_key_entry(None, b) for b in keys_n]
    counts = [k for _, k in m._ints], [k for _, k in n._ints]
    if all(k == 1 for side in counts for k in side):
        counts = None
    return costs, dtz_m, dtz_n, scale, 4 * reach + 1, counts


def column_table(dtz_m, dtz_n, cols_m, cols_n):
    """The table that key columns and to-zero entries stand for, as the
    probe reads them (``kernel_seam.run_keys``): each entry the larger of the two key
    gaps, capped by the larger of the two to-zero entries.  On a pair's own
    keys it is ``run_table``'s; the to-zero entries may also be any ints."""
    (lows_m, ups_m), (lows_n, ups_n) = cols_m, cols_n
    return [[min(max(abs(lows_m[i] - lows_n[j]), abs(ups_m[i] - ups_n[j])),
                 max(dtz_m[i], dtz_n[j])) for j in range(len(dtz_n))]
            for i in range(len(dtz_m))]


def table_floor(hall, lists, dtz, costs, columns: bool) -> int:
    """The Koenig floor of one side's failed probe on a table of runs:
    the least of the to-zero entries of the runs X in ``hall`` and of their
    entries in ``costs`` (X's rows, or with ``columns`` X's columns)
    against the runs of the other side outside N(X), the union of X's
    neighbour ``lists``."""
    hood = set().union(*map(lists.__getitem__, hall))
    if columns:
        rows, take = [i for i in range(len(costs)) if i not in hood], hall
    else:
        rows, take = hall, [j for j in range(len(costs[0])) if j not in hood]
    return min(chain(map(dtz.__getitem__, hall), (costs[i][j] for i in rows for j in take)))


def copy_ranges(counts):
    """None when no run repeats, else each side's copy index ranges by run,
    from ``run_table``'s counts."""
    if counts is None or all(k == 1 for side in counts for k in side):
        return None
    starts = [[0, *accumulate(side)] for side in counts]
    return tuple([range(a, b) for a, b in zip(ends, ends[1:])] for ends in starts)


def copy_search(m: PModule, n: PModule):
    """The kernel's distance search as it ran with one vertex per copy: on
    ``run_table``, each ``copy_matching_at`` probe seeded
    with the matchings of the one before, the bracket's top jumping to a
    feasible matching's value.  Returns (distance, the answer's top, the
    number of probes)."""
    costs, dtz_m, dtz_n, scale, fin, counts = run_table(m, n)
    copies = copy_ranges(counts)
    entries = {0, *dtz_m, *dtz_n}
    for row in costs:
        entries.update(row)
    tops = sorted({((r + 1) & -4) + 1 for r in entries if r <= fin})
    copy_dtz_m, copy_dtz_n = dtz_m, dtz_n
    if copies is not None:
        run_m, run_n = ([r for r, copies_r in enumerate(ranges) for _ in copies_r]
                        for ranges in copies)
        copy_dtz_m, copy_dtz_n = [dtz_m[i] for i in run_m], [dtz_n[j] for j in run_n]
    near_m = [range(len(dtz_n))] * len(dtz_m)
    near_n = [range(len(dtz_m))] * len(dtz_n)
    mates = [-1] * len(copy_dtz_m), [-1] * len(copy_dtz_n)
    lo, hi, probes = 0, len(tops), 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        found = copy_matching_at(costs, dtz_m, dtz_n, tops[mid], near_m, near_n, mates, copies)
        if found is None:
            lo = mid + 1
            continue
        taken = set(found.values())
        pairs = found.items() if copies is None else (
            (run_m[i], run_n[j]) for i, j in found.items())
        value = max([0, *(costs[i][j] for i, j in pairs),
                     *(v for i, v in enumerate(copy_dtz_m) if i not in found),
                     *(v for j, v in enumerate(copy_dtz_n) if j not in taken)])
        hi = bisect_left(tops, ((value + 1) & -4) + 1)
    if hi == len(tops):
        return POS_INF, None, probes
    return ExtRational(Fraction(tops[hi] - 1, 2 * scale)), tops[hi], probes


def full_probe(costs, dtz_m, dtz_n, t, copies=None):
    """``copy_matching_at``, unseeded, on whole rows and columns: every
    index is a possible neighbour.  ``copies`` is None or each side's copy
    count by run (``run_table``'s counts)."""
    ranges = copy_ranges(copies)
    near_m = [range(len(dtz_n))] * len(dtz_m)
    near_n = [range(len(dtz_m))] * len(dtz_n)
    sizes = (len(dtz_m), len(dtz_n)) if ranges is None else (
        sum(map(len, side)) for side in ranges)
    mates = tuple([-1] * size for size in sizes)
    return copy_matching_at(costs, dtz_m, dtz_n, t, near_m, near_n, mates, ranges)


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


_REFERENCE_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _reference_endpoint(token: str, text: str, what: str) -> ExtRational:
    token = token.strip()
    if token in ("inf", "+inf"):
        return POS_INF
    if token == "-inf":
        return NEG_INF
    match = _REFERENCE_RATIONAL.fullmatch(token)
    try:
        if match is None:
            raise ValueError(token)
        num, den = match.groups()
        return ExtRational(Fraction(int(num), int(den)) if den else Fraction(int(num)))
    except (ValueError, ZeroDivisionError):
        raise IntervalParseError(
            f"bad {what} endpoint {token!r} in interval {text!r}: "
            "expected p/q, an integer, inf or -inf"
        ) from None


def reference_parse_interval(text: str) -> Interval:
    """``parse_interval`` checked step by step: 'empty', the brackets, one
    comma, the lower and then the upper endpoint, closed infinities, and
    the endpoint order."""
    s = text.strip()
    if s == "empty":
        return EMPTY
    if len(s) < 2 or s[0] not in "[(" or s[-1] not in ")]":
        raise IntervalParseError(
            f"interval {text!r} must be 'empty' or bracketed like [lo,hi)"
        )
    parts = s[1:-1].split(",")
    if len(parts) != 2:
        raise IntervalParseError(
            f"interval {text!r} must contain exactly one comma between endpoints"
        )
    lo = _reference_endpoint(parts[0], text, "lower")
    hi = _reference_endpoint(parts[1], text, "upper")
    lo_closed, hi_closed = s[0] == "[", s[-1] == "]"
    if lo_closed and lo.sign:
        raise MalformedIntervalError(f"closed infinite lower endpoint in interval {text!r}")
    if hi_closed and hi.sign:
        raise MalformedIntervalError(f"closed infinite upper endpoint in interval {text!r}")
    lo_key, hi_key = (lo.sign, lo.value), (hi.sign, hi.value)
    if lo_key > hi_key:
        raise IntervalParseError(
            f"lower endpoint exceeds upper endpoint in interval {text!r}"
        )
    if lo_key == hi_key and not (lo_closed and hi_closed):
        return EMPTY
    return Interval(Endpoint(lo, lo_closed), Endpoint(hi, hi_closed))


def reference_cube_point_module(n: int, coords) -> PModule:
    """``families.cube_point_module`` as it was built from ``Interval``
    values: summand i is [i/n, i/n + 1/(10n) + x_i)."""
    if n < 1:
        raise ValueError(f"cube dimension must be positive, got {n}")
    families._check_copies(n)
    xs = [_as_fraction(x) for x in coords]
    if len(xs) != n:
        raise ValueError(f"expected {n} coordinates, got {len(xs)}")
    bound = Fraction(1, 100 * n)
    for x in xs:
        if not 0 <= x < bound:
            raise ValueError(
                f"coordinate {x} out of range [0, {bound}) for dimension {n}"
            )
    return PModule(
        interval(Fraction(i, n), Fraction(i, n) + Fraction(1, 10 * n) + xs[i - 1], "[)")
        for i in range(1, n + 1)
    )


def reference_binary_sequence_module(bits) -> PModule:
    """``families.binary_sequence_module`` built from ``Interval`` values:
    [2n-1, 2n+1) for a 0 bit and [2(n-1), 2n+2) for a 1 bit."""
    if not bits:
        raise ValueError("the bit sequence must be nonempty")
    families._check_copies(len(bits))
    out = []
    for pos, bit in enumerate(bits, start=1):
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r}")
        if bit == 0:
            out.append(interval(2 * pos - 1, 2 * pos + 1, "[)"))
        else:
            out.append(interval(2 * (pos - 1), 2 * pos + 2, "[)"))
    return PModule(out)


def reference_cauchy_witness(n: int) -> PModule:
    """``families.cauchy_witness`` built from ``Interval`` values: the sum
    of [-1/2^k, 1/2^k) for k = 0..n."""
    if n < 0:
        raise ValueError(f"stage must be nonnegative, got {n}")
    if n > families._MAX_CAUCHY_STAGE:
        raise ValueError(f"stage must be at most {families._MAX_CAUCHY_STAGE}, got {n}")
    return PModule(
        interval(-Fraction(1, 2**k), Fraction(1, 2**k), "[)") for k in range(n + 1)
    )


def reference_staircase(n: int) -> PModule:
    """``families.staircase`` built from ``Interval`` values: the sum of
    [0, k) for k = 1..n."""
    if n < 1:
        raise ValueError(f"staircase height must be positive, got {n}")
    if n > families._MAX_COPIES:
        raise ValueError(f"staircase height must be at most {families._MAX_COPIES}, got {n}")
    return PModule(interval(0, k, "[)") for k in range(1, n + 1))


def reference_open_subset_witness(module: PModule, inclusion: str, eps, trunc: int,
                                  bounds=None) -> PModule:
    """``families.open_subset_witness`` with its tails built from
    ``Interval`` values."""
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError(f"witness needs eps > 0, got {eps}")
    if trunc < 1:
        raise ValueError(f"truncation count must be positive, got {trunc}")
    if trunc > families._MAX_COPIES:
        raise ValueError(
            f"truncation count must be at most {families._MAX_COPIES}, got {trunc}")
    if inclusion not in families.INCLUSIONS:
        raise ValueError(
            f"unknown inclusion {inclusion!r}; choose from {families.INCLUSIONS}")

    if inclusion == "ffid_cd_in_ffid":
        if bounds is None:
            raise families.ClassMismatchError("ffid_cd_in_ffid needs the class bounds [c, d]")
        c, d = _as_fraction(bounds[0]), _as_fraction(bounds[1])
        if module.classify(bounds=(c, d)).in_ffid_cd is not True:
            raise families.ClassMismatchError(f"module has a summand outside [{c},{d}]")
        extra = [(interval(d, d + 2 * eps, "[)"), 1)]
    elif inclusion == "ffid_in_cfid" and not module.classify().in_ffid:
        raise families.ClassMismatchError("module has an unbounded summand")
    else:
        families._check_copies(len(module) + trunc)
        extra = ([(interval(k, k + 2 * eps, "[)"), 1) for k in range(1, trunc + 1)]
                 if inclusion == "fid_in_pfd" else [(interval(0, 2 * eps, "[)"), trunc)])
    return module.direct_sum(PModule._of_runs(extra))
