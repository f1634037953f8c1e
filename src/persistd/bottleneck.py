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
entry point admits its pair once, through ``_admit``, the only caller of
``_lattice``: it checks fixed work budgets, in bits of S times runs, on
the lcms alone, and only then builds the views and the lattice.  ``_pair``
checks the vertex cap before it, and the distance and the certificate
hand the one pair it admits to ``_search``.  ``_cost_tables`` builds the one
pairwise table, the closed form of ``interleaving._key_entry`` on the keys
of every pair of summands: an entry is 2C-1, 2C or 2C+1 for the scaled
undecorated cost C, the last when the infimum is not attained.  The
distance is the smallest feasible class top 2C+1, by binary search over
the sorted tops of the table's entries, and becomes an ``ExtRational``
once, at the end.  ``_matching_at`` probes a top on the table.  Each probe
is seeded with the previous probe's matchings or flows, a feasible
probe's matching lowers the bracket's top to the class of its own value,
and each mandatory summand keeps only its neighbours at the last feasible
probe, which the later probes filter.  The search returns only the
distance and its top.

The eps-decision, the certificate's matching and the certificate check
build no table.  For a summand whose to-zero entry exceeds t, an entry is
<= t exactly when both key gaps are, so its neighbours form an L-infinity
box around its key point, which ``_boxes`` reads with ``bisect``.  The
decision at eps asks whether one unseeded matching per side saturates
there; the certificate is the ``_unit_merge`` of one unseeded matching
per side at the answer's top, the matching of an unseeded probe there on
whole rows and columns of copies.  The check computes each listed pair's
entry from its key pairs.

The table, the candidates, the neighbour lists, the search's probes and
the decision work on the distinct summands, the (interval, count) runs of
a ``PModule``, one vertex per run.  When no summand of the pair repeats,
every vertex has capacity 1 and a side's matching is a list of partners
(``_unit_cover``, ``_unit_merge``).  Otherwise a mandatory run has to be
matched as many times as it has copies and a run of the other side takes
at most that many: ``_cover`` finds such a flow of units with
``_hopcroft_karp`` on capacities (Gabow's degree-constrained subgraphs;
Hopcroft-Karp's phases are Dinic's blocking flows), and ``_merge`` walks
Mendelsohn-Dulmage over the two sides' flows.  Before Hopcroft-Karp runs,
each vertex that is still short takes free room from its neighbours in
list order (the greedy start).  Only the certificate has one vertex per
copy, where all copies of a run share one neighbour list, which
Hopcroft-Karp scans once where it can; ``MATCH_CAP`` still counts copies.
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


def _ranges(counts) -> list[range]:
    """The copy indices of each run, from the runs' copy counts."""
    return [range(end - k, end) for end, k in zip(accumulate(counts), counts)]


def _admit(m: PModule, n: PModule, table: bool):
    """The pair's one road to its keys, (S, reach, keys_m, keys_n):
    ``interleaving._lattice`` of the two modules' cached views, in run
    order.  Before either view is built, the pair is refused when B *
    runs_m * runs_n exceeds ``TABLE_BUDGET`` (``table``) or B * (runs_m +
    runs_n) ``KEYS_BUDGET``; B reads each lcm off ``PModule._lcm``."""
    runs_m, runs_n = len(m._runs), len(n._runs)
    bits = m._lcm().bit_length() + n._lcm().bit_length()
    work, budget, kind = ((bits * runs_m * runs_n, TABLE_BUDGET, "table") if table else
                          (bits * (runs_m + runs_n), KEYS_BUDGET, "key"))
    if work > budget:
        raise ValueError(f"{runs_m}+{runs_n} distinct summands on a lattice of {bits} bits "
                         f"exceed the {kind} budget {budget} ({work})")
    return _lattice(m._lattice_view(), n._lattice_view())


def _pair(m: PModule, n: PModule, table: bool):
    """The admitted pair: (S, reach, keys_m, keys_n, counts), ``_admit``'s
    keys and ``counts``, None when no summand repeats, else each side's
    copy counts by run.  Refuses more copies than the vertex cap before
    ``_admit`` runs."""
    size_m, size_n = len(m), len(n)
    if size_m + size_n > MATCH_CAP:
        raise ValueError(f"matching on {size_m}+{size_n} summands exceeds the vertex "
                         f"cap {MATCH_CAP}")
    counts = None
    if size_m != len(m._runs) or size_n != len(n._runs):
        counts = [k for _, k in m._runs], [k for _, k in n._runs]
    return (*_admit(m, n, table), counts)


def _cost_tables(pair):
    """The ``interleaving._key_entry`` of every pair of distinct summands,
    row i and column j for the i-th and j-th runs, and of each against the
    zero module, on the keys of a ``_pair`` admitted against the table
    budget: (costs, dtz_m, dtz_n, S, fin, counts), where no finite entry
    exceeds fin = 4*reach + 1."""
    scale, reach, keys_m, keys_n, counts = pair
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
    return costs, dtz_m, dtz_n, scale, 4 * reach + 1, counts


def _hopcroft_karp(adj: list[list[int]], pair_l: list, pair_r: list[int],
                   need: list[int] | None = None) -> int:
    """Hopcroft-Karp's phases from the left vertices to the right ones
    along ``adj``, from the start given and augmented in place; returns
    how many units stay unmatched.  Iterative, so deep augmenting paths are
    fine.  With ``need``, the capacitated ``_flow``: left u still has to
    send need[u] units, right v can still take pair_r[v], and pair_l[u]
    maps right vertices to the units u sends them.  Without it, every
    capacity is 1 and this is a maximum-cardinality matching: pair_l[u]
    and pair_r[v] are partners, -1 for none, and the count returned is of
    left vertices left free.

    Left vertices may then share one list object, as the copies of a
    summand do, and two exact skips save repeated scans: the result is that
    of unshared, equal lists.  The BFS skips a vertex whose list it has
    just scanned.  In a phase, a free root with the previous root's list
    starts where that root stopped, since the edges before led nowhere;
    only the edge that root's path took from its layer-1 vertex can lead on
    again, so the root starts there if it comes earlier.  After a root with
    the list fails, the next ones with it are skipped."""
    if need is not None:
        return _flow(adj, pair_l, pair_r, need)
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

    free = pair_l.count(-1)
    while free and bfs():
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
            free -= dfs(path)
    return free


def _flow(adj: list[list[int]], sent: list[dict[int, int]], room: list[int],
          need: list[int]) -> int:
    """Maximum flow from left vertex u, which still has to send need[u]
    units, to right vertex v, which can still take room[v], along ``adj``,
    from the flow ``sent`` (sent[u] maps right vertices to the units u
    sends them), augmented in place: Hopcroft-Karp's phases on capacities,
    Dinic's blocking flows, each augmenting path carrying its smallest
    residual and a root trying again while it has units to send.  Returns
    the units still unsent.  Iterative, so deep augmenting paths are fine.
    With unit capacities and no start the matching is that of
    ``_hopcroft_karp`` without ``need`` on the same lists, when no two left
    vertices share one list object."""
    short = sum(need)
    if not short:
        return 0
    n_left = len(adj)
    unreachable = n_left + 1
    dist = [0] * n_left
    # users[v] maps the left vertices that send to v to their units.
    users = [{} for _ in room]
    for u, out in enumerate(sent):
        for v, units in out.items():
            users[v][u] = units

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if need[u]:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = unreachable
        found_free = False
        # A right vertex's users get their layer when it is first reached;
        # reaching it again adds nothing.
        reached = bytearray(len(room))
        while queue:
            u = queue.popleft()
            layer = dist[u] + 1
            for v in adj[u]:
                if reached[v]:
                    continue
                reached[v] = 1
                if room[v]:
                    found_free = True
                    continue
                for w in users[v]:
                    if dist[w] == unreachable:
                        dist[w] = layer
                        queue.append(w)
        return found_free

    def dfs(frames) -> int:
        # frames: [left vertex, right vertex it sends to next, that one's
        # index in its list], from the root; each later frame's vertex is a
        # user of the right vertex before.  They stay as the augmenting
        # path when one is found.
        while frames:
            frame = frames[-1]
            u, _, k = frame
            row, layer = adj[u], dist[u] + 1
            while k < len(row):
                v = row[k]
                if room[v]:
                    frame[1], frame[2] = v, k
                    return push(frames, v)
                for w in users[v]:
                    if dist[w] == layer:
                        break
                else:
                    k += 1
                    continue
                frame[1], frame[2] = v, k
                frames.append([w, -1, 0])
                break
            else:
                dist[u] = unreachable
                frames.pop()
        return 0

    def push(frames, last) -> int:
        root = frames[0][0]
        steps = [(frame[1], after[0]) for frame, after in zip(frames, frames[1:])]
        units = min([need[root], room[last], *(users[v][w] for v, w in steps)])
        for u, v, _ in frames:
            sent[u][v] = sent[u].get(v, 0) + units
            users[v][u] = users[v].get(u, 0) + units
        for v, w in steps:
            if users[v][w] == units:
                del users[v][w], sent[w][v]
            else:
                users[v][w] -= units
                sent[w][v] -= units
        need[root] -= units
        room[last] -= units
        return units

    while short and bfs():
        for u in range(n_left):
            start = 0
            while need[u]:
                path = [[u, -1, start]]
                pushed = dfs(path)
                if not pushed:
                    break
                short -= pushed
                start = path[0][2]
    return short


def _within(row, near, t) -> list[int]:
    """The indices in ``near`` whose entry of ``row`` is <= t, in order."""
    return [j for j in near if row[j] <= t]


def _unit_cover(runs, lists, mate, n_right):
    """One side's matching when no run of the pair repeats, so that each
    run is one vertex of capacity 1: (its mandatory ``runs``, their
    partners among the other side's runs, ``lists`` their neighbours), or
    None when one stays free.  Each run i keeps its partner mate[i] from an
    earlier probe while that is still among its neighbours and no run
    before it has taken it; each run still free then takes its first free
    neighbour (the greedy start), and ``_hopcroft_karp`` completes the
    matching, which is written back to ``mate``."""
    pair_l, pair_r = [-1] * len(runs), [-1] * n_right
    for k, i in enumerate(runs):
        j = mate[i]
        if j != -1 and pair_r[j] == -1 and j in lists[k]:
            pair_l[k] = j
            pair_r[j] = k
    for k, near in enumerate(lists):
        if pair_l[k] == -1:
            for j in near:
                if pair_r[j] == -1:
                    pair_l[k] = j
                    pair_r[j] = k
                    break
    free = _hopcroft_karp(lists, pair_l, pair_r)
    for i, j in zip(runs, pair_l):
        mate[i] = j
    return None if free else (runs, pair_l)


def _cover(runs, lists, counts, sent, room):
    """One side's flow when some run of the pair repeats: each run is one
    vertex, a mandatory run r on this side has to send counts[r] units to
    its neighbour runs ``lists`` on the other side, and run j there takes
    at most room[j] more.  Returns {mandatory run: {neighbour: units}}, in
    run order, or None when a copy stays free.

    ``sent`` maps this side's runs to their {neighbour: units}: empty, with
    ``room`` the other side's copy counts, or an earlier probe's flow,
    which seeds this one and is updated in place.  The runs that are no
    longer mandatory give their units back, and so do the edges no longer
    in a run's list; then each run that is still short takes free room
    from its neighbours in list order (the greedy start), and
    ``_hopcroft_karp`` completes the flow."""
    for r in sent.keys() - set(runs):
        for j, units in sent.pop(r).items():
            room[j] += units
    flows, need = [], []
    for r, near in zip(runs, lists):
        out = sent.setdefault(r, {})
        for j in [j for j in out if j not in near]:
            room[j] += out.pop(j)
        flows.append(out)
        need.append(counts[r] - sum(out.values()))
    for k, near in enumerate(lists):
        short, out = need[k], flows[k]
        for j in near:
            if not short:
                break
            free = room[j]
            if free:
                units = free if free < short else short
                out[j] = out.get(j, 0) + units
                room[j] = free - units
                short -= units
        need[k] = short
    if _hopcroft_karp(lists, flows, room, need):
        return None
    return dict(zip(runs, flows))


def _matching_at(costs, dtz_m, dtz_n, t, near_m, near_n, seeds, counts):
    """A matching of the copies over the pairs of cost <= t that matches
    every copy of each run of to-zero cost > t on both sides, or None when
    there is none.  ``costs``, ``dtz_m``, ``dtz_n`` and ``counts`` are
    ``_cost_tables``'s, and every vertex is a run.  When no run repeats
    (``counts`` None) the matching is ``_unit_merge``'s {M run: N run} and
    ``seeds`` = (mate_m, mate_n) holds each run's partner in an earlier
    probe's matching on its side, -1 for none, for ``_unit_cover``; else it
    is ``_merge``'s flow {M run: {N run: units}}, and ``seeds`` = ((sent_m,
    room_n), (sent_n, room_m)) each side's flow and the room it leaves, for
    ``_cover``.  Either is empty when unseeded and is updated in place; a
    seeded probe decides as an unseeded one, but its matching can differ.

    ``near_m[i]`` lists, in index order, the columns that can still be row
    i's neighbours at t, and ``near_n[j]`` the rows of column j.  Only the
    mandatory runs' lists are read, each entry through ``<=`` against t,
    so any totally ordered entries work.  A feasible probe narrows each
    mandatory run's list in place to its neighbours at t; an infeasible one
    leaves them alone."""
    runs_m = [i for i, v in enumerate(dtz_m) if v > t]
    runs_n = [j for j, v in enumerate(dtz_n) if v > t]
    if counts is None:
        cover, args_m, args_n = _unit_cover, (seeds[0], len(dtz_n)), (seeds[1], len(dtz_m))
    else:
        cover, args_m, args_n = _cover, (counts[0], *seeds[0]), (counts[1], *seeds[1])

    lists_m = [_within(costs[i], near_m[i], t) for i in runs_m]
    side_m = cover(runs_m, lists_m, *args_m)
    if side_m is None:
        return None
    lists_n = [[i for i in near_n[j] if costs[i][j] <= t] for j in runs_n]
    side_n = cover(runs_n, lists_n, *args_n)
    if side_n is None:
        return None

    for i, near in zip(runs_m, lists_m):
        near_m[i] = near
    for j, near in zip(runs_n, lists_n):
        near_n[j] = near
    return _unit_merge(side_m, side_n) if counts is None else _merge(side_m, side_n, *counts)


def _unit_merge(side_m, side_n) -> dict[int, int]:
    """One matching out of the two sides' ``_unit_cover`` matchings,
    covering every M vertex that M1 (side_m) matches and every N vertex
    that M2 (side_n) matches (Mendelsohn-Dulmage): from each mandatory N
    vertex j that M1 leaves free, give j its M2 partner i and move on to
    i's old M1 partner, until a vertex without an M2 edge or an i without
    an M1 edge."""
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


def _merge(side_m, side_n, counts_m, counts_n) -> dict[int, dict[int, int]]:
    """``_unit_merge`` over the two sides' ``_cover`` flows, F1 (side_m)
    and F2 (side_n): one flow {M run: {N run: units}} that matches every
    copy F1 matches on M and every copy F2 matches on N.  Starting from F1,
    while a mandatory N run j is short, it gives j units of j's F2 partner
    i; when i then sends more than counts_m[i], the excess comes back off
    i's F1 units, whose N runs, when mandatory, are short again.  Every
    step spends F2 units, so the walk ends."""
    chosen = {i: dict(row) for i, row in side_m.items()}
    spare = {i: dict(row) for i, row in side_m.items()}  # F1 units not taken back
    offers = {j: dict(row) for j, row in side_n.items()}  # F2 units not given yet
    sent_m = {i: sum(row.values()) for i, row in side_m.items()}
    sent_n = dict.fromkeys(side_n, 0)
    for row in side_m.values():
        for j, units in row.items():
            if j in sent_n:
                sent_n[j] += units
    for start in side_n:
        walk = [start]
        while walk:
            j = walk.pop()
            short = counts_n[j] - sent_n[j]
            if not short:
                continue
            i, units = _take(offers[j], short)
            row = chosen.setdefault(i, {})
            row[j] = row.get(j, 0) + units
            sent_n[j] += units
            sent_m[i] = sent_m.get(i, 0) + units
            walk.append(j)
            while sent_m[i] > counts_m[i]:
                k, units = _take(spare[i], sent_m[i] - counts_m[i])
                row[k] -= units
                if not row[k]:
                    del row[k]
                sent_m[i] -= units
                if k in sent_n:
                    sent_n[k] -= units
                    walk.append(k)
    return chosen


def _take(units_by_key, most):
    """(key, units): up to ``most`` units off the first entry of the dict
    ``units_by_key``, removed from it."""
    key = next(iter(units_by_key))
    units = units_by_key.pop(key)
    if units > most:
        units_by_key[key] = units - most
        units = most
    return key, units


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


def modules_eps_interleaved(m: PModule, n: PModule, eps: Rational) -> bool:
    """Decision at a specific eps >= 0, decoration-sensitive: is there a
    matching whose pairs are all eps-interleaved and whose leftovers are
    all eps-interleaved with the zero module?  An entry <= w =
    ``_bound(eps, S, reach)`` is exactly an eps-interleaved pair, as in
    ``are_eps_interleaved``.  No table: for a run whose to-zero entry
    exceeds w, an entry is <= w exactly when both key gaps are, so
    ``_boxes`` gives each side's mandatory runs and their neighbour runs,
    and one unseeded ``_cover`` per side, or ``_unit_cover`` when no run
    repeats, must match every copy of them.  The vertex cap and
    ``KEYS_BUDGET`` are checked before eps, which only ``_bound`` reads."""
    scale, reach, keys_m, keys_n, counts = _pair(m, n, False)
    w = _bound(eps, scale, reach)
    if counts is None:
        return (_unit_cover(*_boxes(keys_m, keys_n, w), [-1] * len(keys_m), len(keys_n))
                is not None and
                _unit_cover(*_boxes(keys_n, keys_m, w), [-1] * len(keys_n), len(keys_m))
                is not None)
    counts_m, counts_n = counts
    return (_cover(*_boxes(keys_m, keys_n, w), counts_m, {}, list(counts_n)) is not None
            and _cover(*_boxes(keys_n, keys_m, w), counts_n, {}, list(counts_m)) is not None)


def _search(pair):
    """Binary search, on the table of the admitted ``pair``, over the
    sorted distinct class tops of the finite entries.  A probe at a top
    has as edges the pairs within the class's undecorated cost, so
    feasibility is monotone along the tops.

    Every vertex is a run, and each probe is seeded with the matchings or
    flows of the one before.  A feasible probe's matching is feasible at
    the top of its own value, the largest of its pair costs and of the
    to-zero costs of the runs it leaves a copy of unmatched, so the
    bracket's upper end jumps there, never above the probe.  Returns
    (distance, the answer's top), or (+inf, None) when no finite threshold
    is feasible."""
    costs, dtz_m, dtz_n, scale, fin, counts = _cost_tables(pair)
    entries = {0, *dtz_m, *dtz_n}
    for row in costs:
        entries.update(row)
    # ((r + 1) & -4) + 1 is interleaving._class_top(r), inlined.
    tops = sorted({((r + 1) & -4) + 1 for r in entries if r <= fin})

    # Every probe after a feasible one at t lies at or below t, so the
    # neighbour lists it narrows stay supersets of the later probes'
    # neighbours.
    near_m = [range(len(dtz_n))] * len(dtz_m)
    near_n = [range(len(dtz_m))] * len(dtz_n)
    if counts is None:
        seeds = [-1] * len(dtz_m), [-1] * len(dtz_n)
    else:
        seeds = ({}, list(counts[1])), ({}, list(counts[0]))
    lo, hi = 0, len(tops)
    while lo < hi:
        mid = (lo + hi) // 2
        found = _matching_at(costs, dtz_m, dtz_n, tops[mid], near_m, near_n, seeds, counts)
        if found is None:
            lo = mid + 1
            continue
        if counts is None:
            taken = set(found.values())
            value = max([0, *(costs[i][j] for i, j in found.items()),
                         *(v for i, v in enumerate(dtz_m) if i not in found),
                         *(v for j, v in enumerate(dtz_n) if j not in taken)])
        else:
            sent_m, sent_n = [0] * len(dtz_m), [0] * len(dtz_n)
            value = 0
            for i, row in found.items():
                for j, units in row.items():
                    sent_m[i] += units
                    sent_n[j] += units
                    value = max(value, costs[i][j])
            value = max([value, *(v for v, k, c in zip(dtz_m, sent_m, counts[0]) if k < c),
                         *(v for v, k, c in zip(dtz_n, sent_n, counts[1]) if k < c)])
        hi = bisect_left(tops, ((value + 1) & -4) + 1)
    if hi == len(tops):
        return POS_INF, None
    return ExtRational(Fraction(tops[hi] - 1, 2 * scale)), tops[hi]


def module_distance(m: PModule, n: PModule) -> ExtRational:
    """Exact interleaving (= bottleneck) distance between two modules."""
    return _search(_pair(m, n, True))[0]


def _copy_cover(runs, lists, n_right, ranges):
    """One side's unseeded ``_hopcroft_karp`` matching with one vertex per
    copy: (the copies of its mandatory ``runs``, their partners), partners
    -1 when free.  ``ranges`` is None when no run repeats, else (this
    side's, the other side's) copy index ranges by run; the run lists are
    then expanded to copies and all copies of a run share one list
    object."""
    mand, adj = runs, lists
    if ranges is not None:
        own, other = ranges
        lists = [list(chain.from_iterable(map(other.__getitem__, near))) for near in lists]
        mand = list(chain.from_iterable(map(own.__getitem__, runs)))
        adj = list(chain.from_iterable(map(repeat, lists, (len(own[r]) for r in runs))))
    pair_l = [-1] * len(mand)
    _hopcroft_karp(adj, pair_l, [-1] * n_right)
    return mand, pair_l


def distance_certificate(m: PModule, n: PModule) -> MatchingCertificate:
    """A matching certificate whose threshold is the exact module distance:
    the ``_unit_merge`` of both sides' ``_copy_cover`` matchings on
    ``_boxes`` at the answer's top, the matching of an unseeded probe there
    on whole rows and columns of copies, read off the keys of the one
    ``_pair`` that the search ran on."""
    pair = _pair(m, n, True)
    d, top = _search(pair)
    if top is None:
        raise InfiniteDistanceError("the modules are infinitely far apart; no certificate exists")
    _, _, keys_m, keys_n, counts = pair
    ranges = None if counts is None else (_ranges(counts[0]), _ranges(counts[1]))
    matching = _unit_merge(_copy_cover(*_boxes(keys_m, keys_n, top), len(n), ranges),
                           _copy_cover(*_boxes(keys_n, keys_m, top), len(m),
                                       ranges and ranges[::-1]))
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
    More than ``MATCH_CAP`` runs, which no distance certificate covers, and
    a pair over ``KEYS_BUDGET`` (``_admit``) are refused before any view is
    built."""
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
    scale, reach, keys_m, keys_n = _admit(m, n, False)
    top = _bound(t.as_fraction, scale, reach) | 1
    key_m, key_n = ([key for key, (_, k) in zip(keys, x._runs) for _ in range(k)]
                    for keys, x in ((keys_m, m), (keys_n, n)))
    pairs = {(key_m[i], key_n[j]) for i, j in cert.pairs}
    pairs.update((key_m[i], None) for i in cert.unmatched_m)
    pairs.update((None, key_n[j]) for j in cert.unmatched_n)
    return all(_key_entry(a, b) <= top for a, b in pairs)
