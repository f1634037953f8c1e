"""Exact interleaving distance between interval-decomposable modules.

For these modules the interleaving distance agrees with the bottleneck
matching value: minimize, over partial bijections between the two summand
multisets, the worst of the matched pairwise distances and the to-zero
distances of everything left unmatched.  A threshold t is feasible iff a
matching over the pairs at distance <= t saturates every summand too big
to delete (to-zero distance > t), and one does exactly when, on each side,
a maximum matching saturates that side's mandatory summands: from the
first, walk the alternating paths of their union from each mandatory
summand of the second module it leaves free (Mendelsohn-Dulmage).

All of this runs on plain ints.  ``interleaving._lattice`` keys every
endpoint of the pair, times S = 4*lcm(its finite denominators), with its
decoration, starting from the integer view each ``PModule`` builds of its
runs on first use and keeps, so a module's fractions are read once, not on
every call; a threshold is one int on it, ``interleaving._bound``.  Every
entry point reaches the keys of a pair through ``_pair``, which checks the
vertex cap and then fixed work budgets, in bits of S times runs, before the
lattice is built (``_check_budget``).  ``_cost_tables`` builds the one
pairwise table, the closed form of ``interleaving._key_entry`` on the keys
of every pair of summands: an entry is 2C-1, 2C or 2C+1 for the scaled
undecorated cost C, the last when the infimum is not attained.  The
distance is the smallest feasible class top 2C+1, by binary search over
the sorted tops of the table's entries, and becomes an ``ExtRational``
once, at the end.  ``_matching_at`` probes a top on the table.  Each probe
is seeded with the previous probe's matchings, a feasible probe's matching
lowers the bracket's top to the class of its own value, and each mandatory
summand keeps only its neighbours at the last feasible probe, which the
later probes filter.  The search returns only the distance and its top.

The eps-decision, the certificate's matching and the certificate check
build no table.  For a summand whose to-zero entry exceeds t, an entry is
<= t exactly when both key gaps are, so its neighbours form an L-infinity
box around its key point.  ``_sides`` reads each box with ``bisect`` and
runs one unseeded Hopcroft-Karp per side: the decision at eps asks whether
both saturate, and the certificate is their ``_merge`` at the answer's top,
the matching of an unseeded probe there on whole rows and columns.  The
check computes each listed pair's entry from its key pairs.

The table, the candidates and the neighbour lists are built on the
distinct summands, the (interval, count) runs of a ``PModule``; the
matchings keep one vertex per copy, and all copies of a run share one
neighbour list object, which Hopcroft-Karp scans once where it can.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .interleaving import _bound, _key_entry, _lattice
from .intervals import ExtRational, POS_INF, Rational, ZERO, _as_int
from .pmodule import PModule


# The vertex cap: a distance, certificate or eps-decision matches at most
# this many summand copies, both modules together.
MATCH_CAP = 10_000

# Work budgets on a pair's lattice, fixed like the vertex cap, in B, the
# bit lengths of both modules' lcms of denominators summed (the bits of
# S/4): a cost table costs about B * runs_m * runs_n, the eps-decision and
# the certificate check about B * (runs_m + runs_n).  Denominators up to 16
# (20 bits a side) pass both up to the vertex cap, 40 * 5000 * 5000 =
# 1.0e9 and 40 * 10,000 = 4.0e5; so does Cauchy stage 1000 against 999.
TABLE_BUDGET = 3 * 10**9
KEYS_BUDGET = 10**8


class InfiniteDistanceError(ValueError):
    """No finite-threshold matching exists between the two modules."""


class MatchingCertificate(NamedTuple):
    """A matching witnessing that two modules are within ``threshold``.

    ``pairs`` are (index into M, index into N) over the canonical summand
    orders; every summand index appears exactly once across pairs and the
    unmatched lists, every pair is within the threshold, and every
    unmatched summand is within the threshold of the zero module.
    """

    threshold: ExtRational
    pairs: tuple[tuple[int, int], ...]
    unmatched_m: tuple[int, ...]
    unmatched_n: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "threshold": str(self.threshold),
            "pairs": [list(p) for p in self.pairs],
            "unmatched_m": list(self.unmatched_m),
            "unmatched_n": list(self.unmatched_n),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "MatchingCertificate":
        try:
            threshold, pairs, *unmatched = (obj[key] for key in cls._fields)
            if isinstance(threshold, bool):
                raise TypeError("threshold must not be a boolean")
            for key, value in zip(cls._fields[1:], (pairs, *unmatched)):
                if not isinstance(value, list):
                    raise TypeError(f"{key} must be a JSON array")
            if not all(isinstance(pair, list) for pair in pairs):
                raise TypeError("each pair must be a JSON array of 2 indices")
            return cls(ExtRational(threshold), tuple((_as_int(i), _as_int(j)) for i, j in pairs),
                       *(tuple(map(_as_int, indices)) for indices in unmatched))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad certificate JSON: {exc}") from exc


def _ranges(runs) -> list[range]:
    """The copy indices of each (interval, count) run."""
    counts = [k for _, k in runs]
    return [range(end - k, end) for end, k in zip(accumulate(counts), counts)]


def _check_budget(view_m, view_n, table: bool) -> None:
    """Refuse the pair's lattice, before it is built, when B * runs_m *
    runs_n exceeds ``TABLE_BUDGET`` (``table``) or B * (runs_m + runs_n)
    ``KEYS_BUDGET``."""
    runs_m, runs_n = len(view_m[3]), len(view_n[3])
    bits = view_m[0].bit_length() + view_n[0].bit_length()
    work, budget, kind = ((bits * runs_m * runs_n, TABLE_BUDGET, "table") if table else
                          (bits * (runs_m + runs_n), KEYS_BUDGET, "key"))
    if work > budget:
        raise ValueError(f"{runs_m}+{runs_n} distinct summands on a lattice of {bits} bits "
                         f"exceed the {kind} budget {budget} ({work})")


def _pair(m: PModule, n: PModule, table: bool):
    """The pair's one road to its keys: (S, reach, keys_m, keys_n, copies),
    ``interleaving._lattice`` of the two modules' cached views, in (interval,
    count) run order, and ``copies``: None when no summand repeats, else
    each side's copy index ranges by run.  Refuses more copies than the
    vertex cap before it builds a view, and a lattice over the table
    (``table``) or key budget before it builds the lattice."""
    size_m, size_n = len(m), len(n)
    if size_m + size_n > MATCH_CAP:
        raise ValueError(f"matching on {size_m}+{size_n} summands exceeds the vertex "
                         f"cap {MATCH_CAP}")
    copies = None
    if size_m != len(m._runs) or size_n != len(n._runs):
        copies = _ranges(m._runs), _ranges(n._runs)
    view_m, view_n = m._lattice_view(), n._lattice_view()
    _check_budget(view_m, view_n, table)
    return (*_lattice(view_m, view_n), copies)


def _cost_tables(m: PModule, n: PModule):
    """The ``interleaving._key_entry`` of every pair of distinct summands,
    row i and column j for the i-th and j-th runs, and of each against the
    zero module, on the keys of ``_pair``: (costs, dtz_m, dtz_n, S, fin,
    copies), where no finite entry exceeds fin = 4*reach + 1.  A table over
    ``TABLE_BUDGET`` is refused."""
    scale, reach, keys_m, keys_n, copies = _pair(m, n, True)
    dtz_m = [(up - low) // 2 + 1 for low, up in keys_m]
    dtz_n = [(up - low) // 2 + 1 for low, up in keys_n]
    cols = [(lo, hi, h) for (lo, hi), h in zip(keys_n, dtz_n)]
    costs = []
    # Plain comparisons instead of abs/max/min calls: this is the hot loop.
    for (alo, ahi), ha in zip(keys_m, dtz_m):
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
    return costs, dtz_m, dtz_n, scale, 4 * reach + 1, copies


def _hopcroft_karp(adj: list[list[int]], pair_l: list[int],
                   pair_r: list[int]) -> tuple[int, list[int], list[int]]:
    """Maximum-cardinality bipartite matching; returns (size, pair_l, pair_r)
    with -1 for unmatched vertices.  ``pair_l`` and ``pair_r`` are a
    starting matching on edges of ``adj``, augmented in place.
    Iterative, so deep augmenting paths are fine.

    Left vertices may share one list object, as the copies of a summand do,
    and two exact skips then save repeated scans: the result is that of
    unshared, equal lists.  The BFS skips a vertex whose list it has just
    scanned.  In a phase, a free root with the previous root's list starts
    where that root stopped, since the edges before led nowhere; only the
    edge that root's path took from its layer-1 vertex can lead on again,
    so the root starts there if it comes earlier.  After a root with the
    list fails, the next ones with it are skipped."""
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
        scanned = None
        while queue:
            u = queue.popleft()
            if adj[u] is scanned:
                continue
            scanned = adj[u]
            for v in scanned:
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
        shared = None
        for u in range(n_left):
            if pair_l[u] != -1:
                continue
            start = 0
            if adj[u] is shared:
                if not path:
                    continue
                start = path[0][2]
                if len(path) > 1 and path[1][1] in shared[:start]:
                    start = shared.index(path[1][1])
            shared, path = adj[u], [[u, -1, start]]
            size += dfs(path)
    return size, pair_l, pair_r


def _within(row, near, t) -> list[int]:
    """The indices in ``near`` whose entry of ``row`` is <= t, in order."""
    return [j for j in near if row[j] <= t]


def _cover(runs, lists, mate, n_right, ranges):
    """One side's Hopcroft-Karp run over the copies of its mandatory
    ``runs``, whose neighbour runs are ``lists``: (the copies, their
    partners), or None when a copy stays free.  With ``ranges``, (this
    side's, the other side's) copy index ranges by run, the lists are
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
        # Seeds test membership in one set per run, shared like the lists.
        members = list(chain.from_iterable(map(repeat, map(set, lists), counts)))
    pair_l, pair_r = [-1] * len(mand), [-1] * n_right
    for k, i in enumerate(mand):
        j = mate[i]
        if j != -1 and pair_r[j] == -1 and j in members[k]:
            pair_l[k] = j
            pair_r[j] = k
    size, pair_l, _ = _hopcroft_karp(adj, pair_l, pair_r)
    for i, j in zip(mand, pair_l):
        mate[i] = j
    return (mand, pair_l) if size == len(mand) else None


def _matching_at(costs, dtz_m, dtz_n, t, near_m, near_n, mates,
                 copies) -> dict[int, int] | None:
    """A matching over the pairs of cost <= t that saturates every summand
    of to-zero cost > t on both sides, or None when there is none.

    ``costs``, ``dtz_m`` and ``dtz_n`` are over runs, and ``copies`` is
    ``_cost_tables``'s; the matchings, ``mates`` and the result are over
    copies, and the copies of a mandatory run share its neighbour list.

    ``near_m[i]`` lists, in index order, the columns that can still be row
    i's neighbours at t, and ``near_n[j]`` the rows of column j, both by
    run.  Only the mandatory runs' lists are read, each entry through
    ``<=`` against t, so any totally ordered entries work.  A feasible
    probe narrows each mandatory run's list in place to its neighbours at
    t; an infeasible one leaves them alone.

    ``mates`` = (mate_m, mate_n) holds each copy's partner in an earlier
    probe's matching on its side, -1 for none (all -1 when unseeded), and
    each list is as long as its side has copies.  Partners still among the
    neighbours seed the side's Hopcroft-Karp run, whose matching is written
    back; a seeded probe decides as an unseeded one, but its matching can
    differ."""
    runs_m = [i for i, v in enumerate(dtz_m) if v > t]
    runs_n = [j for j, v in enumerate(dtz_n) if v > t]
    mate_m, mate_n = mates

    lists_m = [_within(costs[i], near_m[i], t) for i in runs_m]
    side_m = _cover(runs_m, lists_m, mate_m, len(mate_n), copies)
    if side_m is None:
        return None
    lists_n = [[i for i in near_n[j] if costs[i][j] <= t] for j in runs_n]
    side_n = _cover(runs_n, lists_n, mate_n, len(mate_m), copies and copies[::-1])
    if side_n is None:
        return None

    for i, near in zip(runs_m, lists_m):
        near_m[i] = near
    for j, near in zip(runs_n, lists_n):
        near_n[j] = near
    return _merge(side_m, side_n)


def _merge(side_m, side_n) -> dict[int, int]:
    """One matching out of the two sides' ``_cover`` matchings, covering
    every M copy that M1 (side_m) matches and every N copy that M2
    (side_n) matches (Mendelsohn-Dulmage): from each mandatory N copy j
    that M1 leaves free, give j its M2 partner i and move on to i's old M1
    partner, until a copy without an M2 edge or an i without an M1 edge."""
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


def _boxes(keys, other, w):
    """The runs among ``keys`` of to-zero entry > w, and each one's
    neighbours at w among ``other``, in index order: the runs within w on
    both keys, a ``bisect`` window on the lower key filtered on the upper.
    Runs come in canonical order, in which their keys strictly increase,
    so the lower keys of ``other`` are already sorted."""
    lows, ups = [low for low, _ in other], [up for _, up in other]
    runs, lists = [], []
    for i, (low, up) in enumerate(keys):
        if (up - low) // 2 + 1 > w:
            a, b = bisect_left(lows, low - w), bisect_right(lows, low + w)
            below, above = up - w, up + w
            runs.append(i)
            lists.append([j for j, u in enumerate(ups[a:b], a) if below <= u <= above])
    return runs, lists


def _sides(keys_m, keys_n, w, size_m, size_n, copies):
    """Both sides' unseeded ``_cover`` matchings at w, read off the keys of
    ``_pair`` with ``_boxes``, or None when a side leaves a mandatory copy
    free.  For a run whose to-zero entry exceeds w, an entry is <= w
    exactly when both key gaps are, so these are the runs and neighbour
    lists, in index order, of a probe at w on whole rows and columns."""
    side_m = _cover(*_boxes(keys_m, keys_n, w), [-1] * size_m, size_n, copies)
    if side_m is None:
        return None
    side_n = _cover(*_boxes(keys_n, keys_m, w), [-1] * size_n, size_m, copies and copies[::-1])
    return None if side_n is None else (side_m, side_n)


def modules_eps_interleaved(m: PModule, n: PModule, eps: Rational) -> bool:
    """Decision at a specific eps >= 0, decoration-sensitive: is there a
    matching whose pairs are all eps-interleaved and whose leftovers are
    all eps-interleaved with the zero module?  An entry <= w =
    ``_bound(eps, S, reach)`` is exactly an eps-interleaved pair, as in
    ``are_eps_interleaved``.  No table: ``_sides`` at w must saturate both
    sides.  The vertex cap and ``KEYS_BUDGET`` are checked before eps,
    which only ``_bound`` reads."""
    scale, reach, keys_m, keys_n, copies = _pair(m, n, False)
    return _sides(keys_m, keys_n, _bound(eps, scale, reach), len(m), len(n), copies) is not None


def _search(m: PModule, n: PModule):
    """Binary search over the sorted distinct class tops of the finite
    entries.  A probe at a top has as edges the pairs within the class's
    undecorated cost, so feasibility is monotone along the tops.

    Each probe is seeded with the matchings of the one before.  A feasible
    probe's matching is feasible at the top of its own value, the largest
    of its pair costs and of the to-zero costs of the summands it leaves
    unmatched, so the bracket's upper end jumps there, never above the
    probe.  Returns (distance, the answer's top), or (+inf, None) when no
    finite threshold is feasible."""
    costs, dtz_m, dtz_n, scale, fin, copies = _cost_tables(m, n)
    entries = {0, *dtz_m, *dtz_n}
    for row in costs:
        entries.update(row)
    # ((r + 1) & -4) + 1 is interleaving._class_top(r), inlined.
    tops = sorted({((r + 1) & -4) + 1 for r in entries if r <= fin})

    # The matchings are over copies; the jump's value reads their entries
    # by run.
    copy_dtz_m, copy_dtz_n = dtz_m, dtz_n
    if copies is not None:
        run_m, run_n = ([r for r, copies_r in enumerate(ranges) for _ in copies_r]
                        for ranges in copies)
        copy_dtz_m, copy_dtz_n = [dtz_m[i] for i in run_m], [dtz_n[j] for j in run_n]
    # Every probe after a feasible one at t lies at or below t, so the
    # neighbour lists it narrows stay supersets of the later probes'
    # neighbours.
    near_m = [range(len(dtz_n))] * len(dtz_m)
    near_n = [range(len(dtz_m))] * len(dtz_n)
    mates = [-1] * len(copy_dtz_m), [-1] * len(copy_dtz_n)
    lo, hi = 0, len(tops)
    while lo < hi:
        mid = (lo + hi) // 2
        found = _matching_at(costs, dtz_m, dtz_n, tops[mid], near_m, near_n, mates, copies)
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
        return POS_INF, None
    return ExtRational(Fraction(tops[hi] - 1, 2 * scale)), tops[hi]


def module_distance(m: PModule, n: PModule) -> ExtRational:
    """Exact interleaving (= bottleneck) distance between two modules."""
    return _search(m, n)[0]


def distance_certificate(m: PModule, n: PModule) -> MatchingCertificate:
    """A matching certificate whose threshold is the exact module distance:
    the ``_merge`` of ``_sides`` at the answer's top, the matching of an
    unseeded probe there on whole rows and columns.  Its ``_pair`` is
    checked against the table budget, which the search has passed."""
    d, top = _search(m, n)
    if top is None:
        raise InfiniteDistanceError("the modules are infinitely far apart; no certificate exists")
    _, _, keys_m, keys_n, copies = _pair(m, n, True)
    matching = _merge(*_sides(keys_m, keys_n, top, len(m), len(n), copies))
    matched_n = set(matching.values())
    return MatchingCertificate(
        threshold=d,
        pairs=tuple(sorted(matching.items())),
        unmatched_m=tuple(i for i in range(len(m)) if i not in matching),
        unmatched_n=tuple(j for j in range(len(n)) if j not in matched_n),
    )


def verify_certificate(m: PModule, n: PModule, cert: MatchingCertificate) -> bool:
    """Exact re-check of the certificate invariants: a valid certificate
    witnesses module_distance(m, n) <= cert.threshold (upper bound only).
    No distance is below 0, so a negative threshold fails.  The pair's
    lattice checks each distinct pair of runs and each unmatched run once:
    its distance is <= t iff its entry is <= ``_bound(t, S, reach) | 1``.
    More than ``MATCH_CAP`` runs, which no distance certificate covers, are
    refused before any view is built, a lattice over ``KEYS_BUDGET`` after."""
    used_m = sorted([*cert.unmatched_m, *(i for i, _ in cert.pairs)])
    used_n = sorted([*cert.unmatched_n, *(j for _, j in cert.pairs)])
    t = cert.threshold
    if used_m != list(range(len(m))) or used_n != list(range(len(n))) or t < ZERO:
        return False
    if not t.is_finite:
        return True
    if len(m._runs) + len(n._runs) > MATCH_CAP:
        raise ValueError(f"certificate on {len(m._runs)}+{len(n._runs)} distinct summands "
                         f"exceeds the vertex cap {MATCH_CAP}")
    view_m, view_n = m._lattice_view(), n._lattice_view()
    _check_budget(view_m, view_n, False)
    scale, reach, keys_m, keys_n = _lattice(view_m, view_n)
    top = _bound(t.as_fraction, scale, reach) | 1
    key_m, key_n = ([key for key, (_, k) in zip(keys, x._runs) for _ in range(k)]
                    for keys, x in ((keys_m, m), (keys_n, n)))
    pairs = {(key_m[i], key_n[j]) for i, j in cert.pairs}
    pairs.update((key_m[i], None) for i in cert.unmatched_m)
    pairs.update((None, key_n[j]) for j in cert.unmatched_n)
    return all(_key_entry(a, b) <= top for a, b in pairs)
