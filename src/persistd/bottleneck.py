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
distance is the smallest feasible class top 2C+1 = 4k + 1, by binary
search over the class index k between bounds that the probes prove, with
no candidate set, and becomes an ``ExtRational`` once, at the end.
``_matching_at`` probes a top on the table.  A feasible probe lowers the
bracket's top to the class of the value of a matching it proves to exist;
an infeasible one raises its bottom to the Koenig floor of the side that
failed (``_floor``), the least entry below which the mandatory runs that
the failed matcher's last BFS reached still violate Hall's condition.
The search returns only the distance and its top.

The table, the neighbour lists, the search's probes and the decision work
on the distinct summands, the (interval, count) runs of a ``PModule``, one
vertex per run, and each pair shape has one matcher, which the search's
probes and the eps-decision share.

When no summand of the pair repeats, every vertex has capacity 1 and the
matcher is ``_repair``: it repairs a matching with partners on both
sides, in place.  On each side every free mandatory run takes a direct
target, a free run or one whose partner may be deleted and lets go, or
else a swap one level deep, and Hopcroft-Karp's phases match the runs
still free with the same targets.  The alternating paths keep every
matched run matched, so a failed repair proves that no matching covers
both sides' mandatory runs.  The search keeps the matching of its last
feasible probe, and a probe repairs a copy of it, without its pairs above
t; the decision repairs the empty matching.  A run's neighbour list is
built only when the repair reads it, and a probe keeps the lists it read,
for the later probes, which all lie lower, only when it is feasible; an
infeasible probe's lists give the floor its N(X).

Otherwise a mandatory run has to be matched as many times as it has
copies and a run of the other side takes at most that many: ``_cover``
finds one side's flow of units with ``_hopcroft_karp`` on capacities
(Gabow's degree-constrained subgraphs; Hopcroft-Karp's phases are Dinic's
blocking flows), from a seed flow and then a greedy pass over the lists.
A probe seeds each side with its flow at the probe before and narrows
every mandatory run's list; the decision starts both sides empty.  The
two sides' flows are never merged: the search jumps on a bound read off
them (``_search``).

The eps-decision, the certificate's matching and the certificate check
build no table.  For a summand whose to-zero entry exceeds t, an entry is
<= t exactly when both key gaps are, so its neighbours form an L-infinity
box around its key point, which ``_box_query`` reads with ``bisect``.
The certificate is the ``_unit_merge`` of one unseeded matching per side
at the answer's top (``_boxes``), with one vertex per copy, where all
copies of a run share one neighbour list, which Hopcroft-Karp scans once
where it can; ``MATCH_CAP`` still counts copies.  The check computes each
listed pair's entry from its key pairs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import itemgetter
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


def _to_zero(keys) -> list[int]:
    """The ``interleaving._key_entry`` of each of a side's key pairs
    against the zero module."""
    return [(up - low) // 2 + 1 for low, up in keys]


def _cost_tables(pair):
    """The ``interleaving._key_entry`` of every pair of distinct summands,
    row i and column j for the i-th and j-th runs, and of each against the
    zero module, on the keys of a ``_pair`` admitted against the table
    budget: (costs, dtz_m, dtz_n, S, fin, counts), where no finite entry
    exceeds fin = 4*reach + 1."""
    scale, reach, keys_m, keys_n, counts = pair
    dtz_m, dtz_n = _to_zero(keys_m), _to_zero(keys_n)
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
                   need: list[int] | None = None, hall: list[int] | None = None,
                   shortest: bool = False) -> int:
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
    the list fails, the next ones with it are skipped.

    A left vertex whose pair_l is neither -1 nor a right vertex that leads
    back to it takes no part: it is never a root, and the BFS never reaches
    it.  With ``shortest``, each BFS stops at the first list that reaches a
    free right vertex and keeps only the layers up to it, so a phase finds
    only shortest augmenting paths and reads the fewest lists.  The
    matching can differ from that of the full BFS, which the certificate's
    matching is pinned to.

    When units stay unmatched, the left vertices that the last BFS reached,
    those that alternating (residual) paths reach from a free (short) one,
    are appended to ``hall``, if given: every right vertex their lists
    reach is full, and taken only by them, so they are a Hall violator."""
    if need is not None:
        return _flow(adj, pair_l, pair_r, need, hall)
    n_left = len(pair_l)
    unreachable = n_left + 1
    dist = [0] * n_left

    def bfs() -> bool:
        dist[:] = [0 if v == -1 else unreachable for v in pair_l]
        queue = deque(roots)
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
            if found_free and shortest:
                # Past u's layer lie only longer augmenting paths.
                for w in queue:
                    if dist[w] > dist[u]:
                        dist[w] = unreachable
                break
        return found_free

    def dfs(frames) -> bool:
        # frames: [left vertex, edge chosen from it, next adjacency index],
        # from the root; they stay as the augmenting path when one is found.
        while frames:
            frame = frames[-1]
            u = frame[0]
            row = adj[u]
            descended = False
            while frame[2] < len(row):
                v = row[frame[2]]
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

    # The free roots of a phase: only a root's own path can match it.
    roots = [u for u, v in enumerate(pair_l) if v == -1]
    free = len(roots)
    while free and bfs():
        shared = None
        for u in roots:
            start = 0
            if adj[u] is shared:
                if not path:
                    continue
                start = path[0][2]
                if len(path) > 1 and path[1][1] in shared[:start]:
                    start = shared.index(path[1][1])
            shared, path = adj[u], [[u, -1, start]]
            free -= dfs(path)
        roots = [u for u in roots if pair_l[u] == -1]
    if free and hall is not None:
        hall += [u for u, d in enumerate(dist) if d != unreachable]
    return free


def _flow(adj: list[list[int]], sent: list[dict[int, int]], room: list[int],
          need: list[int], hall: list[int] | None = None) -> int:
    """Maximum flow from left vertex u, which still has to send need[u]
    units, to right vertex v, which can still take room[v], along ``adj``,
    from the flow ``sent`` (sent[u] maps right vertices to the units u
    sends them), augmented in place: Hopcroft-Karp's phases on capacities,
    Dinic's blocking flows, each augmenting path carrying its smallest
    residual and a root trying again while it has units to send.  Returns
    the units still unsent, and appends to ``hall``, if given and some are,
    the left vertices the last BFS reached.  Iterative, so deep augmenting
    paths are fine.  With unit capacities and no start the matching is that of
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
    if short and hall is not None:
        hall += [u for u in range(n_left) if dist[u] != unreachable]
    return short


def _within(row, near, t) -> list[int]:
    """The indices in ``near`` whose entry of ``row`` is <= t, in order."""
    return [j for j in near if row[j] <= t]


def _cover(runs, lists, counts, sent, room, hall=None):
    """One side's flow when some run of the pair repeats: each run is one
    vertex, a mandatory run r on this side has to send counts[r] units to
    its neighbour runs ``lists`` on the other side, and run j there takes
    at most room[j] more.  Returns {mandatory run: {neighbour: units}}, in
    run order, or None when a copy stays free, and then appends to
    ``hall``, if given, the runs that residual paths reach from a short
    one (``_flow``).

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
    reached = []
    if _hopcroft_karp(lists, flows, room, need, hall=reached):
        if hall is not None:
            hall += [runs[k] for k in reached]
        return None
    return dict(zip(runs, flows))


class _Lists(dict):
    """One side's neighbour lists at a probe's top, by run, each built by
    ``build`` when first read and kept for the probe's later reads."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, run):
        near = self[run] = self.build(run)
        return near


def _repair(t, dtz, mate, other, lists, dtz_other, hall=None) -> bool:
    """Repair one side of a matching at t in place, so that it covers this
    side's mandatory runs (to-zero entry > t) and still covers every run of
    the other side that it covered: whether it could.  ``mate`` holds this
    side's partners and ``other`` the other side's, -1 for none, every pair
    an edge at t; ``lists``, a ``_Lists``, gives each mandatory run's
    neighbours at t, and ``dtz_other`` the other side's to-zero entries.

    The target of a mandatory run is a free run or a run whose partner is
    not mandatory, and that partner lets go.  Each free mandatory run takes
    the first target in its list that is mandatory itself, so that the
    other side's repair finds it covered, else its first target.  One with
    none takes a neighbour whose partner can move on to a target of its own
    (a swap).  A free mandatory run with no neighbour fails the repair at
    once.  For the runs still free, ``_hopcroft_karp`` runs its phases over
    the mandatory runs alone, where a run whose partner is not mandatory
    counts as free.  Every step is an augmenting path that keeps every
    matched run matched, except a partner that lets go, so when some
    matching covers both sides' mandatory runs, this side's repair cannot
    fail (Mendelsohn-Dulmage).  A failed repair appends to ``hall``, if
    given, a Hall violator among the mandatory runs: the run with no
    neighbour, or the runs the phases' last BFS reached.  The steps before
    the phases are written out, not shared through helpers: they run on
    nearly every probe."""
    stuck = []
    for i in [i for i, j in enumerate(mate) if j == -1 and dtz[i] > t]:
        near = lists[i]
        if not near:
            if hall is not None:
                hall.append(i)
            return False
        spare = -1
        for j in near:
            o = other[j]
            if o == -1 or dtz[o] <= t:
                if dtz_other[j] > t:
                    break
                if spare == -1:
                    spare = j
        else:
            if spare == -1:
                stuck.append(i)
                continue
            j = spare
        o = other[j]
        if o != -1:
            mate[o] = -1
        mate[i] = j
        other[j] = i
    if not stuck:
        return True
    # The swaps, i -> j -> o -> k: the partner o of a neighbour j that is
    # not a target is mandatory.  A run without a target keeps none, since
    # targets only get taken, so each list is searched for one at most once
    # in vain.
    dead = set(stuck)
    for i in stuck:
        for j in lists[i]:
            o = other[j]
            if o in dead:
                continue
            for k in lists[o]:
                p = other[k]
                if p == -1 or dtz[p] <= t:
                    break
            else:
                dead.add(o)
                continue
            if p != -1:
                mate[p] = -1
            mate[o] = k
            other[k] = o
            mate[i] = j
            other[j] = i
            break
    if all(mate[i] != -1 for i in stuck):
        return True
    # -2: a run that is not mandatory is never a root of the phases, and
    # ``pair_r`` never leads to it.
    pair_l = [j if v > t else -2 for v, j in zip(dtz, mate)]
    pair_r = [-1 if i == -1 or dtz[i] <= t else i for i in other]
    # Cutting each BFS at its first free layer saves building the lists of
    # deeper runs.  Once every mandatory run's list is built, as after a
    # repair from the empty matching, it saves nothing and adds phases.
    unbuilt = len(lists) < len(pair_l) - pair_l.count(-2)
    if _hopcroft_karp(lists, pair_l, pair_r, hall=hall, shortest=unbuilt):
        return False
    for i, j in enumerate(pair_l):
        if j >= 0 and mate[i] != j:
            o = other[j]
            if o != -1 and mate[o] == j:
                mate[o] = -1
            other[j] = i
            mate[i] = j
    return True


def _floor(hall, lists, dtz, costs, columns: bool) -> int:
    """The Koenig floor of one side's failed probe at t: the least of the
    to-zero entries of the runs X in ``hall`` and of their entries in
    ``costs`` (X's rows, or with ``columns`` X's columns) against the runs
    of the other side outside N(X), the union of X's neighbour ``lists`` at
    t.  N(X) cannot take every copy of X, and below the floor X is still
    mandatory and its neighbours still lie inside N(X): every probe there
    fails too.  The floor exceeds t."""
    hood = set().union(*map(lists.__getitem__, hall))
    if columns:
        rows, take = [i for i in range(len(costs)) if i not in hood], hall
    else:
        rows, take = hall, [j for j in range(len(costs[0])) if j not in hood]
    low = min(map(dtz.__getitem__, hall))
    if not take:
        return low
    # One index more, so that itemgetter returns a tuple even for one; the
    # rows' minima are read one by one, with no list of every entry.
    pick = itemgetter(take[0], *take)
    return min(low, min(map(min, map(pick, map(costs.__getitem__, rows))), default=low))


def _matching_at(costs, dtz_m, dtz_n, t, near_m, near_n, seeds, counts):
    """The probe at t: when the copies have a matching over the pairs of
    cost <= t that matches every copy of each run of to-zero cost > t on
    both sides, what proves it, else the ``_floor`` below which every
    probe fails, read off the side that failed.  ``costs``, ``dtz_m``,
    ``dtz_n`` and ``counts`` are ``_cost_tables``'s, and every vertex is a
    run.

    When no run repeats (``counts`` None), ``seeds`` = (mate_m, mate_n) is
    a matching with partners on both sides, -1 for none, such as an earlier
    feasible probe's.  The probe repairs a copy of it: it drops every pair
    whose entry exceeds t, then ``_repair``s M's side and then N's, and
    returns the repaired (mate_m, mate_n), such a matching.  Otherwise it
    returns the two sides' ``_cover`` flows (side_m, side_n), side_m =
    {mandatory M run: {N run: units}} and side_n the same from N, and
    ``seeds`` = ((sent_m, room_n), (sent_n, room_m)) is each side's flow
    and the room it leaves, empty when unseeded, which ``_cover`` updates
    in place.  A seeded probe decides as an unseeded one, but what it
    returns can differ.

    ``near_m[i]`` lists, in index order, the columns that can still be row
    i's neighbours at t, and ``near_n[j]`` the rows of column j, each entry
    read through ``<=`` against t, so any totally ordered entries work.  A
    feasible probe narrows to its neighbours at t each list it read: every
    mandatory run's on runs that repeat, else the runs ``_repair`` read.
    An infeasible probe leaves them alone, and its lists at t give N(X)."""
    hall = []
    if counts is None:
        mate_m, mate_n = list(seeds[0]), list(seeds[1])
        for i, j in [(i, j) for i, j in enumerate(mate_m) if j != -1 and costs[i][j] > t]:
            mate_m[i] = mate_n[j] = -1
        lists_m = _Lists(lambda i: _within(costs[i], near_m[i], t))
        lists_n = _Lists(lambda j: [i for i in near_n[j] if costs[i][j] <= t])
        if not _repair(t, dtz_m, mate_m, mate_n, lists_m, dtz_n, hall):
            return _floor(hall, lists_m, dtz_m, costs, False)
        if not _repair(t, dtz_n, mate_n, mate_m, lists_n, dtz_m, hall):
            return _floor(hall, lists_n, dtz_n, costs, True)
        for near, lists in ((near_m, lists_m), (near_n, lists_n)):
            for run, within in lists.items():
                near[run] = within
        return mate_m, mate_n

    runs_m = [i for i, v in enumerate(dtz_m) if v > t]
    runs_n = [j for j, v in enumerate(dtz_n) if v > t]
    lists_m = [_within(costs[i], near_m[i], t) for i in runs_m]
    side_m = _cover(runs_m, lists_m, counts[0], *seeds[0], hall)
    if side_m is None:
        return _floor(hall, dict(zip(runs_m, lists_m)), dtz_m, costs, False)
    lists_n = [[i for i in near_n[j] if costs[i][j] <= t] for j in runs_n]
    side_n = _cover(runs_n, lists_n, counts[1], *seeds[1], hall)
    if side_n is None:
        return _floor(hall, dict(zip(runs_n, lists_n)), dtz_n, costs, True)

    for i, near in zip(runs_m, lists_m):
        near_m[i] = near
    for j, near in zip(runs_n, lists_n):
        near_n[j] = near
    return side_m, side_n


def _unit_merge(side_m, side_n) -> dict[int, int]:
    """One matching out of the two sides' ``_copy_cover`` matchings, for
    the certificate, covering every M vertex that M1 (side_m) matches and
    every N vertex that M2 (side_n) matches (Mendelsohn-Dulmage): from
    each mandatory N vertex j that M1 leaves free, give j its M2 partner i
    and move on to i's old M1 partner, until a vertex without an M2 edge
    or an i without an M1 edge."""
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


def _box_query(keys, other, w):
    """The box query at w from the runs of ``keys`` to those of ``other``:
    a function from a run i to the runs within w of keys[i] on both keys,
    in index order, a ``bisect`` window on the lower key filtered on the
    upper.  These are run i's neighbours at w only when its to-zero entry
    exceeds w.  Runs come in canonical order, in which their keys strictly
    increase, so the lower keys of ``other`` are already sorted."""
    lows, ups = [low for low, _ in other], [up for _, up in other]

    def box(i) -> list[int]:
        low, up = keys[i]
        a, b = bisect_left(lows, low - w), bisect_right(lows, low + w)
        below, above = up - w, up + w
        return [j for j, u in enumerate(ups[a:b], a) if below <= u <= above]
    return box


def _boxes(keys, other, w):
    """The runs among ``keys`` of to-zero entry > w, and each one's
    neighbours at w among ``other`` (``_box_query``)."""
    runs = [i for i, v in enumerate(_to_zero(keys)) if v > w]
    return runs, list(map(_box_query(keys, other, w), runs))


def modules_eps_interleaved(m: PModule, n: PModule, eps: Rational) -> bool:
    """Decision at a specific eps >= 0, decoration-sensitive: is there a
    matching whose pairs are all eps-interleaved and whose leftovers are
    all eps-interleaved with the zero module?  An entry <= w =
    ``_bound(eps, S, reach)`` is exactly an eps-interleaved pair, as in
    ``are_eps_interleaved``.  No table: for a run whose to-zero entry
    exceeds w, an entry is <= w exactly when both key gaps are, so its
    neighbours are a ``_box_query``.  When no run repeats, M's side and
    then N's ``_repair`` the empty matching, a valid start; a repair fails
    only when no matching covers both sides' mandatory runs.  Otherwise one
    unseeded ``_cover`` per side must match every copy of the mandatory
    runs of ``_boxes``.  The vertex cap and ``KEYS_BUDGET`` are checked
    before eps, which only ``_bound`` reads."""
    scale, reach, keys_m, keys_n, counts = _pair(m, n, False)
    w = _bound(eps, scale, reach)
    if counts is None:
        dtz_m, dtz_n = _to_zero(keys_m), _to_zero(keys_n)
        mate_m, mate_n = [-1] * len(keys_m), [-1] * len(keys_n)
        # A box is the neighbour list only of a run whose to-zero entry
        # exceeds w, and _repair and its phases read no other run's list.
        return (_repair(w, dtz_m, mate_m, mate_n, _Lists(_box_query(keys_m, keys_n, w)), dtz_n) and
                _repair(w, dtz_n, mate_n, mate_m, _Lists(_box_query(keys_n, keys_m, w)), dtz_m))
    counts_m, counts_n = counts
    return (_cover(*_boxes(keys_m, keys_n, w), counts_m, {}, list(counts_n)) is not None
            and _cover(*_boxes(keys_n, keys_m, w), counts_n, {}, list(counts_m)) is not None)


def _search(pair):
    """Binary search, on the table of the admitted ``pair``, for the least
    class index k whose top 4k + 1 a probe passes; feasibility is monotone
    in k.  No candidate set is built: every class below lo fails, class hi
    passes, and hi = reach + 1 stands for +inf.  hi starts one class above
    the largest to-zero entry's, where the empty matching passes, or at
    reach + 1 when a to-zero entry exceeds fin.  Each probe is the middle
    class of [lo, hi), or after two passing probes in a row, when lo and
    hi differ by two bits or more, the middle of their bit lengths, so a
    descent through many bits (Cauchy stages) takes the log of their number
    of probes.  (r + 2) >> 2 is the first class whose top reaches entry r.

    Every vertex is a run.  A feasible probe at t proves a matching of some
    value V <= t, feasible at V's class top, so hi jumps there.  When no run
    repeats, each probe repairs the last feasible probe's matching, and V
    is its value: the largest of its pair costs and of the to-zero costs of
    the runs it leaves unmatched.  Otherwise each probe is seeded with the
    two sides' flows of the one before, F1 = side_m and F2 = side_n, and V
    is the largest of every edge cost in F1 and F2 and the to-zero cost of
    every M run F1 does not cover and every N run F2 does not cover, all
    <= t.  Their Mendelsohn-Dulmage merge (``copy_merge`` of
    ``tests/oracles.py`` builds it on copies) uses only their edges and
    leaves unmatched no copy of a run F1 covers on M or F2 covers on N, so
    a matching of value <= V exists and the jump is exact; the merge is
    never built.

    An infeasible probe at t returns the Koenig floor L > t of the side
    that failed (``_floor``): its mandatory runs X that alternating, or on
    repeated runs residual, paths reach from a run left short have more
    copies than their neighbours N(X) can take, and L is the least of X's
    to-zero entries and of X's entries to runs outside N(X).  At every top
    below L, X is still mandatory and has no neighbour outside N(X), so it
    still violates Hall's condition and the probe fails: lo jumps to the
    first class whose top reaches L, past the probe, and that jump is
    exact too.  The later probes all lie above t, so the infeasible probe's
    lists, subsets of their neighbours, narrow nothing: they give N(X).
    Returns (distance, the answer's top), or (+inf, None) when no finite
    threshold is feasible."""
    costs, dtz_m, dtz_n, scale, fin, counts = _cost_tables(pair)
    # Every probe after a feasible one at t lies below t, so the neighbour
    # lists it narrows stay supersets of the later probes' neighbours.
    near_m = [range(len(dtz_n))] * len(dtz_m)
    near_n = [range(len(dtz_m))] * len(dtz_n)
    if counts is None:
        seeds = [-1] * len(dtz_m), [-1] * len(dtz_n)
    else:
        seeds = ({}, list(counts[1])), ({}, list(counts[0]))
    reach = fin >> 2
    lo, hi = 0, min(max([0, *dtz_m, *dtz_n]) + 1 >> 2, reach) + 1
    # Feasible probes in a row: after two, the answer may lie many bits
    # below, and the probe bisects the bit lengths of lo and hi.
    drops = 0
    while lo < hi:
        a, b = lo.bit_length(), hi.bit_length()
        mid = 1 << (a + b - 1) // 2 if drops > 1 and b - a > 1 else (lo + hi) // 2
        found = _matching_at(costs, dtz_m, dtz_n, 4 * mid + 1, near_m, near_n, seeds, counts)
        if isinstance(found, int):
            lo, drops = found + 2 >> 2, 0
            continue
        drops += 1
        if counts is None:
            seeds = mate_m, mate_n = found
            value = max([0, *(v if j == -1 else costs[i][j]
                              for i, (v, j) in enumerate(zip(dtz_m, mate_m))),
                         *(v for v, i in zip(dtz_n, mate_n) if i == -1)])
        else:
            side_m, side_n = found
            value = max([0, *(costs[i][j] for i, row in side_m.items() for j in row),
                         *(costs[i][j] for j, row in side_n.items() for i in row),
                         *(v for i, v in enumerate(dtz_m) if i not in side_m),
                         *(v for j, v in enumerate(dtz_n) if j not in side_n)])
        hi = value + 2 >> 2
    if hi > reach:
        return POS_INF, None
    return ExtRational(Fraction(2 * hi, scale)), 4 * hi + 1


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
    ``_boxes`` at the answer's top, one unseeded Hopcroft-Karp run per side
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
