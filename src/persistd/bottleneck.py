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
from collections import deque
from fractions import Fraction
from typing import NamedTuple

from .interleaving import _class_top, _cost_table, distance_to_zero, interval_distance
from .intervals import ExtRational, POS_INF, Rational
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
            pairs = tuple((int(i), int(j)) for i, j in obj["pairs"])
            unmatched_m = tuple(int(i) for i in obj["unmatched_m"])
            unmatched_n = tuple(int(j) for j in obj["unmatched_n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad certificate JSON: {exc}") from exc
        return cls(threshold, pairs, unmatched_m, unmatched_n)


def _match_cap() -> int:
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_MATCH_CAP
    try:
        cap = int(raw)
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


def _cost_tables(m: PModule, n: PModule, eps: Rational = 0):
    """``interleaving._cost_table`` of the summands, under the vertex cap."""
    _check_cap(m, n)
    return _cost_table(m.summands, n.summands, eps)


def _hopcroft_karp(adj: list[list[int]], n_right: int) -> tuple[int, list[int], list[int]]:
    """Maximum-cardinality bipartite matching; returns (size, pair_l, pair_r)
    with -1 for unmatched vertices.  Iterative, so deep augmenting paths are
    fine."""
    n_left = len(adj)
    pair_l = [-1] * n_left
    pair_r = [-1] * n_right
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

    def dfs(root: int) -> bool:
        # frames: [left vertex, edge chosen from it, next adjacency index]
        frames = [[root, -1, 0]]
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

    size = 0
    while bfs():
        for u in range(n_left):
            if pair_l[u] == -1 and dfs(u):
                size += 1
    return size, pair_l, pair_r


def _within(row, near, t) -> list[int]:
    """The indices in ``near`` whose entry of ``row`` is <= t, in order."""
    return [j for j in near if row[j] <= t]


def _matching_at(costs, dtz_m, dtz_n, t, near_m=None, near_n=None) -> dict[int, int] | None:
    """A matching over the pairs of cost <= t that saturates every summand
    of to-zero cost > t on both sides, or None when there is none.

    ``near_m[i]`` lists, in index order, the columns that can still be row
    i's neighbours at t, and ``near_n[j]`` the rows of column j (every
    index when None).  Only the mandatory summands' lists are read, each
    entry through ``<=`` against t, so any totally ordered entries work.
    A feasible probe narrows each mandatory summand's list in place to its
    neighbours at t, which hold every neighbour at a lower threshold; an
    infeasible one leaves the lists alone."""
    mand_m = [i for i, v in enumerate(dtz_m) if v > t]
    mand_n = [j for j, v in enumerate(dtz_n) if v > t]
    if near_m is None:
        near_m = [range(len(dtz_n))] * len(dtz_m)
        near_n = [range(len(dtz_m))] * len(dtz_n)

    adj_m = [_within(costs[i], near_m[i], t) for i in mand_m]
    size_m, pair_l_m, _ = _hopcroft_karp(adj_m, len(dtz_n))
    if size_m < len(mand_m):
        return None

    adj_n = [[i for i in near_n[j] if costs[i][j] <= t] for j in mand_n]
    size_n, pair_l_n, _ = _hopcroft_karp(adj_n, len(dtz_m))
    if size_n < len(mand_n):
        return None

    for i, adj in zip(mand_m, adj_m):
        near_m[i] = adj
    for j, adj in zip(mand_n, adj_n):
        near_n[j] = adj

    # Mendelsohn-Dulmage: start from M1, the matching that saturates the
    # mandatory M summands.  A mandatory N summand that M1 leaves free ends
    # a path alternating between M2 (the matching that saturates the
    # mandatory N summands) and M1 edges, and no other path or cycle of
    # their union holds one; swap in M2's edges along it.  Each step gives
    # j its M2 partner i and moves on to i's old M1 partner.  The walk stops
    # at a summand with no M2 edge (not mandatory) or at an i without an M1
    # edge.
    chosen = {i: pair_l_m[k] for k, i in enumerate(mand_m)}
    m2 = {j: pair_l_n[k] for k, j in enumerate(mand_n)}
    covered = set(chosen.values())
    for j in mand_n:
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
    costs, dtz_m, dtz_n, _, _, w = _cost_tables(m, n, eps)
    return _matching_at(costs, dtz_m, dtz_n, w) is not None


def _search(m: PModule, n: PModule):
    """Binary search over the sorted distinct class tops of the finite
    entries.  A probe at a top has as edges the pairs within the class's
    undecorated cost, so feasibility is monotone along the tops, and the
    last feasible probe is at the answer's top.  Returns (distance, its
    matching), or (+inf, None) when no finite threshold is feasible.
    """
    costs, dtz_m, dtz_n, scale, fin, _ = _cost_tables(m, n)
    entries = {0, *dtz_m, *dtz_n}
    for row in costs:
        entries.update(row)
    tops = sorted({_class_top(r) for r in entries if r <= fin})

    # Every probe after a feasible one at t lies below t, so the neighbour
    # lists it narrows stay supersets of the later probes' neighbours.
    near_m = [range(len(dtz_n))] * len(dtz_m)
    near_n = [range(len(dtz_m))] * len(dtz_n)
    best, matching = POS_INF, None
    lo, hi = 0, len(tops)
    while lo < hi:
        mid = (lo + hi) // 2
        found = _matching_at(costs, dtz_m, dtz_n, tops[mid], near_m, near_n)
        if found is not None:
            best, matching = ExtRational(Fraction(tops[mid] - 1, 2 * scale)), found
            hi = mid
        else:
            lo = mid + 1
    return best, matching


def module_distance(m: PModule, n: PModule) -> ExtRational:
    """Exact interleaving (= bottleneck) distance between two modules."""
    return _search(m, n)[0]


def distance_certificate(m: PModule, n: PModule) -> MatchingCertificate:
    """A matching certificate whose threshold is the exact module distance:
    the matching of the search's last feasible probe."""
    d, matching = _search(m, n)
    if matching is None:
        raise InfiniteDistanceError(
            "the modules are infinitely far apart; no certificate exists"
        )
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
