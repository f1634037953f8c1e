"""Exact interleaving distance between interval-decomposable modules.

For these modules the interleaving distance agrees with the bottleneck
matching value: minimize, over partial bijections between the two summand
multisets, the worst of the matched pairwise distances and the
to-zero distances of everything left unmatched.

The optimum always lies in the finite candidate set (all pairwise
distances, all to-zero distances, and 0), and feasibility of a threshold t
is monotone, so the distance is the smallest feasible candidate by binary
search.  A threshold t is feasible iff there is a matching, using only
pairs at distance <= t, that saturates every summand too big to delete
(to-zero distance > t).  ``_matching_at`` decides that on the cost table
itself: it lists the mandatory summands, reads each one's neighbours off
its row or column, and runs two plain maximum-cardinality matchings, one
saturating each side's mandatory summands.  The search keeps, for every
summand, the index-ordered list of rows or columns that can still be its
neighbours: a feasible probe at t cuts each mandatory summand's list down
to its neighbours at t, and every later probe lies below t, so a probe
filters these lists instead of scanning whole rows and columns and still
sees the same neighbours in the same order.  A single matching saturating
both exists when they do: start from the first, and from each mandatory
summand of the second module that it leaves free, walk the alternating
path of their union and swap in the second matching's edges along it.

The table, the candidates and the neighbour lists are built on the
distinct summands, the (interval, count) runs of a ``PModule``; the
matchings keep one vertex per copy, and all copies of a run share one
neighbour list object, which Hopcroft-Karp scans once where it can.

The search only needs each probe's yes or no.  So each probe seeds its two
Hopcroft-Karp runs with the previous probe's matchings, less the pairs that
are no longer edges, and a feasible probe's matching lowers the bracket's
top to the class of its own value, which may lie well below the probe.
Only the certificate needs a canonical matching: one unseeded probe at the
answer's top, on the narrowed lists, gives the matching an unseeded probe
on whole rows and columns gives.

All of this runs on plain ints, on the decorated cost table of
``interleaving._cost_table`` (every endpoint times S = 4*lcm(all finite
denominators) as an open/closed key, infinities as far-out sentinels).  An
entry is 2C-1, 2C or 2C+1 for the scaled undecorated cost C, the last when
the infimum is not attained.  The search runs over the sorted distinct
class tops 2C+1, so a probe's edges are those of cost <= C; the
eps-decision is a single probe at 2*eps*S.  The answer becomes an
``ExtRational`` once, at the end.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import deque
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .interleaving import _cost_table, distance_to_zero, interval_distance
from .intervals import ExtRational, POS_INF, Rational, _as_int
from .pmodule import PModule


DEFAULT_MATCH_CAP = 10_000
_CAP_ENV = "PERSISTD_MATCH_CAP"


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
            threshold = ExtRational(obj["threshold"])
            pairs = tuple((_as_int(i), _as_int(j)) for i, j in obj["pairs"])
            unmatched_m = tuple(map(_as_int, obj["unmatched_m"]))
            unmatched_n = tuple(map(_as_int, obj["unmatched_n"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad certificate JSON: {exc}") from exc
        return cls(threshold, pairs, unmatched_m, unmatched_n)


def _match_cap() -> int:
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_MATCH_CAP
    try:
        cap = _as_int(raw)
    except ValueError:
        raise ValueError(f"{_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{_CAP_ENV} must be positive, got {cap}")
    return cap


def _check_cap(m: PModule, n: PModule) -> None:
    cap = _match_cap()
    if len(m) + len(n) > cap:
        raise ValueError(
            f"matching on {len(m)}+{len(n)} summands exceeds the vertex cap "
            f"{cap}; raise {_CAP_ENV} to override"
        )


def _ranges(runs) -> list[range]:
    """The copy indices of each (interval, count) run."""
    counts = [k for _, k in runs]
    return [range(end - k, end) for end, k in zip(accumulate(counts), counts)]


def _cost_tables(m: PModule, n: PModule, eps: Rational = 0):
    """``interleaving._cost_table`` of the distinct summands, row i and
    column j for the i-th and j-th (interval, count) runs, under the vertex
    cap, which counts copies.  Adds ``copies``: None when no summand
    repeats, else each side's copy index ranges by run."""
    _check_cap(m, n)
    tables = _cost_table(tuple(s for s, _ in m._runs), tuple(s for s, _ in n._runs), eps)
    if len(m) == len(m._runs) and len(n) == len(n._runs):
        return (*tables, None)
    return (*tables, (_ranges(m._runs), _ranges(n._runs)))


def _hopcroft_karp(adj: list[list[int]], n_right: int, pair_l: list[int] | None = None,
                   pair_r: list[int] | None = None) -> tuple[int, list[int], list[int]]:
    """Maximum-cardinality bipartite matching; returns (size, pair_l, pair_r)
    with -1 for unmatched vertices.  ``pair_l`` and ``pair_r``, when given,
    are a starting matching on edges of ``adj``, augmented in place.
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
    if pair_l is None:
        pair_l, pair_r = [-1] * n_left, [-1] * n_right
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
    size, pair_l, _ = _hopcroft_karp(adj, n_right, pair_l, pair_r)
    for i, j in zip(mand, pair_l):
        mate[i] = j
    return (mand, pair_l) if size == len(mand) else None


def _matching_at(costs, dtz_m, dtz_n, t, near_m=None, near_n=None, mates=None,
                 copies=None) -> dict[int, int] | None:
    """A matching over the pairs of cost <= t that saturates every summand
    of to-zero cost > t on both sides, or None when there is none.

    ``costs``, ``dtz_m`` and ``dtz_n`` are over runs, and ``copies`` is
    ``_cost_tables``'s: with None, every run is one summand.  The matchings
    are over copies: the copies of a mandatory run are mandatory and share
    the run's neighbour list, and ``mates`` and the returned matching are
    indexed by copy.

    ``near_m[i]`` lists, in index order, the columns that can still be row
    i's neighbours at t, and ``near_n[j]`` the rows of column j (every
    index when None), both by run.  Only the mandatory runs' lists are
    read, each entry through ``<=`` against t, so any totally ordered
    entries work.  A feasible probe narrows each mandatory run's list in
    place to its neighbours at t, which hold every neighbour at a lower
    threshold; an infeasible one leaves the lists alone.

    ``mates`` = (mate_m, mate_n) holds each copy's partner in an earlier
    probe's matching on its side, -1 for none (no partners when None).  The
    mandatory copies' partners that are still neighbours at t, each taken
    once, seed the side's Hopcroft-Karp run, whose matching is written
    back.  A seeded probe decides as an unseeded one, but its matching can
    differ."""
    runs_m = [i for i, v in enumerate(dtz_m) if v > t]
    runs_n = [j for j, v in enumerate(dtz_n) if v > t]
    if near_m is None:
        near_m = [range(len(dtz_n))] * len(dtz_m)
        near_n = [range(len(dtz_m))] * len(dtz_n)
    n_m, n_n = len(dtz_m), len(dtz_n)
    if copies is not None:
        n_m, n_n = (sum(map(len, ranges)) for ranges in copies)
    mate_m, mate_n = mates or ([-1] * n_m, [-1] * n_n)

    lists_m = [_within(costs[i], near_m[i], t) for i in runs_m]
    side_m = _cover(runs_m, lists_m, mate_m, n_n, copies)
    if side_m is None:
        return None
    lists_n = [[i for i in near_n[j] if costs[i][j] <= t] for j in runs_n]
    side_n = _cover(runs_n, lists_n, mate_n, n_m, copies and copies[::-1])
    if side_n is None:
        return None

    for i, near in zip(runs_m, lists_m):
        near_m[i] = near
    for j, near in zip(runs_n, lists_n):
        near_n[j] = near

    # Mendelsohn-Dulmage: start from M1, the matching that saturates the
    # mandatory M summands.  A mandatory N summand that M1 leaves free ends
    # a path alternating between M2 (the matching that saturates the
    # mandatory N summands) and M1 edges, and no other path or cycle of
    # their union holds one; swap in M2's edges along it.  Each step gives
    # j its M2 partner i and moves on to i's old M1 partner.  The walk stops
    # at a summand with no M2 edge (not mandatory) or at an i without an M1
    # edge.
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


def modules_eps_interleaved(m: PModule, n: PModule, eps: Rational) -> bool:
    """Decision at a specific eps >= 0, decoration-sensitive: is there a
    matching whose pairs are all eps-interleaved and whose leftovers are
    all eps-interleaved with the zero module?  One probe of the cost table
    at w = 2*eps*S, where an entry <= w is exactly an eps-interleaved pair,
    as in ``are_eps_interleaved``."""
    costs, dtz_m, dtz_n, _, _, w, copies = _cost_tables(m, n, eps)
    return _matching_at(costs, dtz_m, dtz_n, w, None, None, None, copies) is not None


def _search(m: PModule, n: PModule):
    """Binary search over the sorted distinct class tops of the finite
    entries.  A probe at a top has as edges the pairs within the class's
    undecorated cost, so feasibility is monotone along the tops.

    Each probe is seeded with the matchings of the one before.  A feasible
    probe's matching is feasible at the top of its own value, the largest
    of its pair costs and of the to-zero costs of the summands it leaves
    unmatched, so the bracket's upper end jumps there, never above the
    probe.  Returns (distance, the arguments of an unseeded probe at the
    answer's top), or (+inf, None) when no finite threshold is feasible.
    """
    costs, dtz_m, dtz_n, scale, fin, _, copies = _cost_tables(m, n)
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
    top = tops[hi]
    return ExtRational(Fraction(top - 1, 2 * scale)), (
        costs, dtz_m, dtz_n, top, near_m, near_n, None, copies)


def module_distance(m: PModule, n: PModule) -> ExtRational:
    """Exact interleaving (= bottleneck) distance between two modules."""
    return _search(m, n)[0]


def distance_certificate(m: PModule, n: PModule) -> MatchingCertificate:
    """A matching certificate whose threshold is the exact module distance:
    the matching of one unseeded probe at the answer's top, on the
    neighbour lists the search narrowed.  Those lists hold every neighbour
    at that top in index order, so the matching is that of an unseeded
    probe on whole rows and columns."""
    d, probe = _search(m, n)
    if probe is None:
        raise InfiniteDistanceError(
            "the modules are infinitely far apart; no certificate exists"
        )
    matching = _matching_at(*probe)
    pairs = tuple(sorted(matching.items()))
    matched_m = {i for i, _ in pairs}
    matched_n = {j for _, j in pairs}
    return MatchingCertificate(
        threshold=d,
        pairs=pairs,
        unmatched_m=tuple(i for i in range(len(m)) if i not in matched_m),
        unmatched_n=tuple(j for j in range(len(n)) if j not in matched_n),
    )


def verify_certificate(m: PModule, n: PModule, cert: MatchingCertificate) -> bool:
    """Exact re-check of the certificate invariants: a valid certificate
    witnesses module_distance(m, n) <= cert.threshold (upper bound only)."""
    ms, ns = m.summands, n.summands
    m_used = sorted(list(cert.unmatched_m) + [i for i, _ in cert.pairs])
    n_used = sorted(list(cert.unmatched_n) + [j for _, j in cert.pairs])
    if m_used != list(range(len(m))) or n_used != list(range(len(n))):
        return False
    t = cert.threshold
    for i, j in cert.pairs:
        if interval_distance(ms[i], ns[j]) > t:
            return False
    for i in cert.unmatched_m:
        if distance_to_zero(ms[i]) > t:
            return False
    for j in cert.unmatched_n:
        if distance_to_zero(ns[j]) > t:
            return False
    return True
