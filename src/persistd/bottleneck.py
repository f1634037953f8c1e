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
decoration, from the integer view each ``PModule`` builds of its runs on
first use and keeps; a threshold is one int on it, ``interleaving._bound``.
A side's keys are its view's two int columns, (lower keys, upper keys) by
run, rescaled to the pair's S when that is not the view's own; every
entry, box query and floor reads them.
Every entry point admits its pair once, through ``_admit``, the only
caller of ``_lattice``, which checks fixed work budgets before any view is
built; ``_pair`` checks the vertex cap before it.  The entry of a pair of
runs, ``interleaving._key_entry``, is 2C-1, 2C or 2C+1 for the scaled
undecorated cost C, the last when the infimum is not attained.  No table
of entries is built: each is read off the two runs' keys when needed.

The distance is the least feasible class top 2C+1 = 4k + 1.  ``_search``
finds it by a threshold search in the manner of Gabow and Tarjan: a probe
at t, ``_matching_at``, returns the one bound it proves, the value of a
matching when that is at most t, else a Koenig floor above t, and the
bracket of class indices moves to that bound's class.  When the two
modules share a run or one is zero, the bracket's bottom starts at the
class of a floor on the answer's entry, ``_shared_floor``, each run's
least cost off its nearest key gaps, and the first probe is there: on
stages of a witness family, which differ in a few runs, that is the
answer.  No candidate set is built, and the distance becomes an
``ExtRational`` once, at the end.  With no repeated summand, a probe pays
only for the pairs that changed: the search's one matching carries each M
run's term, the entry of its pair or its to-zero entry, and a feasible
probe reads the entries of its new pairs alone.

Every vertex is a run of a ``PModule``, an (ends, count) pair of ints:
its endpoints as ``intervals._ends`` gives them, and its copy count.  Each
pair shape has one matcher, called the same way on each side, ``(t, dtz,
lists, state, hall)``: it reads the side's mandatory runs off ``dtz > t``
and their neighbour runs off ``lists[r]``, a ``_Lists``, and updates the
side's state in place (``_sides``).  ``_repair`` repairs a matching when no
summand repeats; otherwise ``_cover`` runs the side's flow of units
(``_flow``), in which a mandatory run sends as many units as it has
copies.  The search's probes, the eps-decision and the certificate's
matching (``_copy_cover``) all read their lists from a ``_Lists`` on the
keys: a mandatory run's neighbours form an L-infinity box around its key
point.  The certificate is the ``_unit_merge`` of one unseeded matching
per side with one vertex per copy, on the search's own set-up
(``_cost_tables``); ``MATCH_CAP`` still counts copies.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .interleaving import _bound, _lattice
from .intervals import ExtRational, POS_INF, Rational, ZERO, _as_int
from .pmodule import PModule


# The vertex cap: a distance, certificate or eps-decision matches at most
# this many summand copies, both modules together.
MATCH_CAP = 10_000

# The lattice cap: B, the bit lengths of both modules' lcms of denominators
# summed (the bits of S/4), is at most this.  The work budgets below are
# linear in B, but folding the lcms and building the views cost about B**2.
# Near the cap, a distance against the zero module takes 0.02 s on 5 runs
# [1/q, 2) with 13,000-bit q and 0.06 s on 200 runs with 330-bit q; on 50
# runs with 13,000-bit q it took 2.2 s.  The largest B of the tests and the
# benchmark's workloads is 14,610.
BITS_CAP = 2**16

# Work budgets on a pair's lattice, fixed like the vertex cap, in B: a
# distance search's neighbour lists cost about B * runs_m * runs_n
# per probe in the worst case, every run within the probe of every other,
# and the keys, which every entry point builds, about B * (runs_m +
# runs_n).  Denominators up to 16 (20 bits a side) pass both up to the
# vertex cap, 40 * 5000 * 5000 = 1.0e9 and 40 * 10,000 = 4.0e5; so does
# Cauchy stage 1000 against 999.
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
    """The pair's one road to its keys, (S, reach, cols_m, cols_n, shares):
    ``interleaving._lattice`` of the two modules' cached views, in run
    order, and whether a side has no run or the two share one, read off the
    views' sets of run ends (``_search`` floors such a pair).  Before either
    view is built, the pair is refused when B exceeds ``BITS_CAP``, checked
    as the lcms fold, then when, with ``table``, B * runs_m * runs_n
    exceeds ``TABLE_BUDGET``, or B * (runs_m + runs_n) ``KEYS_BUDGET``,
    which every entry point checks, since each builds the keys.  B reads
    each lcm off ``PModule._lcm``, which stops once the bits so far pass
    the cap: M's alone, then N's added to them; the cap's refusal then
    states a lower bound, and a budget's states B exactly."""
    runs_m, runs_n = len(m._ints), len(n._ints)
    bits_m = m._lcm(BITS_CAP).bit_length()
    bits = bits_m + n._lcm(BITS_CAP - bits_m).bit_length()
    if bits > BITS_CAP:
        raise ValueError(f"{runs_m}+{runs_n} distinct summands on a lattice of at least {bits} "
                         f"bits exceed the bit cap {BITS_CAP}")
    checks = ((runs_m * runs_n, TABLE_BUDGET, "table"),) if table else ()
    checks += ((runs_m + runs_n, KEYS_BUDGET, "key"),)
    for runs, budget, kind in checks:
        if bits * runs > budget:
            raise ValueError(f"{runs_m}+{runs_n} distinct summands on a lattice of {bits} bits "
                             f"exceed the {kind} budget {budget} ({bits * runs})")
    view_m, view_n = m._lattice_view(), n._lattice_view()
    ends_m, ends_n = view_m[5], view_n[5]
    shares = not ends_m or not ends_n or not ends_m.isdisjoint(ends_n)
    return (*_lattice(view_m, view_n), shares)


def _pair(m: PModule, n: PModule, table: bool):
    """The admitted pair: (S, reach, cols_m, cols_n, shares, counts),
    ``_admit``'s and ``counts``, None when no summand repeats, else each
    side's copy counts by run.  Refuses more copies than the vertex cap before
    ``_admit`` runs."""
    size_m, size_n = len(m), len(n)
    if size_m + size_n > MATCH_CAP:
        raise ValueError(f"matching on {size_m}+{size_n} summands exceeds the vertex "
                         f"cap {MATCH_CAP}")
    counts = None
    if size_m != len(m._ints) or size_n != len(n._ints):
        counts = [k for _, k in m._ints], [k for _, k in n._ints]
    return (*_admit(m, n, table), counts)


def _to_zero(cols) -> list[int]:
    """The ``interleaving._key_entry`` of each run of a side, from its key
    columns, against the zero module."""
    lows, ups = cols
    return [(up - low) // 2 + 1 for low, up in zip(lows, ups)]


def _cost_tables(pair):
    """The search's one per-pair set-up, on the key columns of a ``_pair``
    admitted against the table budget: (dtz_m, dtz_n, cols_m, cols_n), each
    side's to-zero entries (``_to_zero``) and its key columns as ``_pair``
    gives them, built once per distance or certificate, which reads its
    matching off the same set-up after the search.  Runs come in canonical
    order, in which their keys strictly increase: the lower keys are sorted,
    and so are the upper keys of the runs of one lower key.  No pairwise
    table is built: every probe reads the entries it needs off the key
    columns.  The name stays only because the benchmark's layer tracer
    hooks it."""
    cols_m, cols_n = pair[2:4]
    return _to_zero(cols_m), _to_zero(cols_n), cols_m, cols_n


def _entries(pairs, dtz_m, dtz_n, cols_m, cols_n) -> list[int]:
    """The ``interleaving._key_entry`` of each (run of M, run of N) in
    ``pairs``, off the key columns and the to-zero entries: the larger of
    the two key gaps, capped by the larger of the two to-zero entries."""
    (lows_m, ups_m), (lows_n, ups_n) = cols_m, cols_n
    out = []
    # Plain comparisons instead of abs/max/min calls: every probe runs this.
    for i, j in pairs:
        a, b = lows_m[i], lows_n[j]
        g = a - b if a > b else b - a
        a, b = ups_m[i], ups_n[j]
        g_up = a - b if a > b else b - a
        if g_up > g:
            g = g_up
        h, h_n = dtz_m[i], dtz_n[j]
        if h_n > h:
            h = h_n
        out.append(g if g < h else h)
    return out


def _hopcroft_karp(adj: list[list[int]], pair_l: list[int], pair_r: list[int],
                   hall: list[int], shortest: bool) -> int:
    """Hopcroft-Karp's phases from the left vertices to the right ones
    along ``adj``, from the start given and augmented in place, a
    maximum-cardinality matching: pair_l[u] and pair_r[v] are partners, -1
    for none.  Returns how many left vertices stay free.  Iterative, so
    deep augmenting paths are fine.

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
    are appended to ``hall``: every right vertex their lists reach is
    full, and taken only by them, so they are a Hall violator."""
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
    if free:
        hall += [u for u, d in enumerate(dist) if d != unreachable]
    return free


def _flow(adj, sent: dict[int, dict[int, int]], room: list[int], need: list[int],
          hall: list[int]) -> int:
    """Maximum flow from left vertex u, which still has to send need[u]
    units, to right vertex v, which can still take room[v], along adj[u],
    from the flow ``sent`` (sent[u] maps right vertices to the units u
    sends them, a key for each u that sends or still has to), augmented in
    place: Hopcroft-Karp's phases on capacities, Dinic's blocking flows,
    each augmenting path carrying its smallest residual and a root trying
    again while it has units to send.  Returns the units still unsent, and
    appends to ``hall``, when some are, the left vertices the last BFS
    reached.  Iterative, so deep augmenting paths are fine.  With unit
    capacities and no start the matching is that of ``_hopcroft_karp`` on
    the same lists, when no two left vertices share one list object."""
    short = sum(need)
    if not short:
        return 0
    n_left = len(need)
    unreachable = n_left + 1
    dist = [0] * n_left
    # users[v] maps the left vertices that send to v to their units, in
    # vertex order, so that the flow found does not depend on the order in
    # which ``sent`` gained its keys.
    users = [{} for _ in room]
    for u in sorted(sent):
        for v, units in sent[u].items():
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
    if short:
        hall += [u for u in range(n_left) if dist[u] != unreachable]
    return short


def _cover(t, dtz, lists, counts, sent, room, hall) -> bool:
    """One side's flow at t when some run of the pair repeats: each run is
    one vertex, a mandatory run r on this side (to-zero entry > t) has to
    send counts[r] units to its neighbour runs ``lists[r]`` on the other
    side, and run j there takes at most room[j] more.  Returns whether every
    copy is sent; when one is not, appends to ``hall`` the runs that
    residual paths reach from a short one (``_flow``).

    ``sent`` maps this side's runs to their {neighbour: units}: empty, with
    ``room`` the other side's copy counts, or an earlier probe's flow,
    which seeds this one and is updated in place.  The runs that are no
    longer mandatory give their units back, and so do the edges no longer
    in a run's list; then each run that is still short takes free room
    from its neighbours in list order (the greedy start), and ``_flow``
    completes it."""
    runs = [r for r, v in enumerate(dtz) if v > t]
    for r in sent.keys() - set(runs):
        for j, units in sent.pop(r).items():
            room[j] += units
    need = [0] * len(dtz)
    for r in runs:
        out, near = sent.setdefault(r, {}), lists[r]
        for j in [j for j in out if j not in near]:
            room[j] += out.pop(j)
        need[r] = counts[r] - sum(out.values())
    for r in runs:
        short, out = need[r], sent[r]
        for j in lists[r]:
            if not short:
                break
            free = room[j]
            if free:
                units = free if free < short else short
                out[j] = out.get(j, 0) + units
                room[j] = free - units
                short -= units
        need[r] = short
    return not _flow(lists, sent, room, need, hall)


class _Lists(dict):
    """One side's neighbour lists at w, by run, each built when first read
    and kept for later reads: what every matcher reads its lists from.  The
    list of run i is the box query at w from this side's key columns
    ``cols`` to the other side's ``other``: the runs within w of run i on
    both keys, in index order, which are run i's neighbours at w only when
    its to-zero entry exceeds w.  The keys of ``other`` increase,
    so its runs within w on the lower key are a ``bisect`` window, filtered
    on the upper key; when the window holds one lower key, as in a
    staircase, its upper keys increase too, and a second ``bisect`` finds
    the runs within w on both."""

    def __init__(self, cols, other, w):
        self.cols, self.other, self.w = cols, other, w

    def __missing__(self, i):
        (own_lows, own_ups), (lows, ups), w = self.cols, self.other, self.w
        low, up = own_lows[i], own_ups[i]
        a, b = bisect_left(lows, low - w), bisect_right(lows, low + w)
        below, above = up - w, up + w
        if a < b and lows[a] == lows[b - 1]:
            near = list(range(bisect_left(ups, below, a, b), bisect_right(ups, above, a, b)))
        else:
            # An index loop: slicing and enumerating a short window costs
            # about three times as much.
            near = []
            for j in range(a, b):
                if below <= ups[j] <= above:
                    near.append(j)
        self[i] = near
        return near


def _repair(t, dtz, lists, mate, other, dtz_other, hall) -> bool:
    """Repair one side of a matching at t in place, so that it covers this
    side's mandatory runs (to-zero entry > t) and still covers every run of
    the other side that it covered: whether it could.  ``lists``, a
    ``_Lists``, gives each mandatory run's neighbours at t; ``mate`` holds
    this side's partners and ``other`` the other side's, -1 for none, every
    pair an edge at t, and ``dtz_other`` the other side's to-zero entries.

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
    fail (Mendelsohn-Dulmage).  A failed repair appends to ``hall`` a Hall
    violator among the mandatory runs: the run with no neighbour, or the
    runs the phases' last BFS reached.  The steps before the phases are
    written out, not shared through helpers: they run on nearly every
    probe."""
    stuck = []
    for i in [i for i, j in enumerate(mate) if j == -1 and dtz[i] > t]:
        near = lists[i]
        if not near:
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
    if _hopcroft_karp(lists, pair_l, pair_r, hall, unbuilt):
        return False
    for i, j in enumerate(pair_l):
        if j >= 0 and mate[i] != j:
            o = other[j]
            if o != -1 and mate[o] == j:
                mate[o] = -1
            other[j] = i
            mate[i] = j
    return True


def _floor(hall, lists, dtz, cols, other) -> int:
    """The Koenig floor of one side's failed probe at t: the least of the
    to-zero entries of the runs X in ``hall`` and of their entries against
    the runs of the other side outside N(X), the union of X's neighbour
    ``lists`` at t.  N(X) cannot take every copy of X, and below the floor X
    is still mandatory and its neighbours still lie inside N(X): every
    probe there fails too.  The floor exceeds t.

    It reads this side's key columns ``cols`` and the other side's
    ``other``.  An entry of a run of X caps its larger key gap by a to-zero
    entry at least that run's, so it lies below the least to-zero entry of
    X exactly when its key gap does: the floor is that least to-zero entry,
    lowered to each smaller key gap, and only runs whose lower key lies
    within it of a run of X, a ``bisect`` window, are read."""
    hood = set().union(*map(lists.__getitem__, hall))
    low = min(map(dtz.__getitem__, hall))
    lows, ups = other
    for i in hall:
        a, u = cols[0][i], cols[1][i]
        for j in range(bisect_right(lows, a - low), bisect_left(lows, a + low)):
            if j in hood:
                continue
            b = lows[j]
            g = a - b if a > b else b - a
            b = ups[j]
            g_up = u - b if u > b else b - u
            if g_up > g:
                g = g_up
            if g < low:
                low = g
    return low


def _unseeded(counts, size_m: int, size_n: int):
    """A matcher's empty start on a pair of ``size_m`` and ``size_n`` runs
    (``_sides``): the empty matching (mate_m, mate_n) when no run repeats
    (``counts`` None), to which the search adds the terms of its probes'
    seeds (``_matching_at``), else each side's empty flow and the room the
    other side's copy counts leave, ((sent_m, room_n), (sent_n, room_m))."""
    if counts is None:
        return [-1] * size_m, [-1] * size_n
    return ({}, list(counts[1])), ({}, list(counts[0]))


def _sides(dtz_m, dtz_n, seeds, counts):
    """The pair shape's matcher and each side's state for it, which the
    matcher reads and updates in place, from ``seeds`` (``_unseeded``):
    ``_repair`` on (mate, other, dtz_other) or ``_cover`` on (counts,
    sent, room)."""
    if counts is None:
        mate_m, mate_n = seeds
        return _repair, (mate_m, mate_n, dtz_n), (mate_n, mate_m, dtz_m)
    (sent_m, room_n), (sent_n, room_m) = seeds
    return _cover, (counts[0], sent_m, room_n), (counts[1], sent_n, room_m)


def _matching_at(dtz_m, dtz_n, cols_m, cols_n, t, seeds, counts) -> int:
    """The probe at t on ``_cost_tables``'s to-zero entries and key
    columns, every vertex a run and ``counts`` ``_pair``'s: the one bound b
    it proves.  The pair shape's matcher (``_sides``) runs on M's side and
    then on N's, from ``seeds``, and must match every copy of the side's
    runs of to-zero entry > t over the pairs of entry <= t.  b > t is the
    Koenig floor of the first side that fails (``_floor``): every probe
    below b fails too.  b <= t is the value of what the probe leaves in
    ``seeds``, the largest of the entries of the edges it uses
    (``_entries``) and of the to-zero entries of the runs it leaves
    unmatched, on repeated runs those each side's flow leaves short on its
    own side; a matching of that value exists (for flows, their
    Mendelsohn-Dulmage merge, ``copy_merge`` of ``tests/oracles.py``).

    ``seeds`` is updated in place.  With no repeated run it is a matching
    (mate_m, mate_n), such as the last feasible probe's, with the term of
    each M run: the entry of its pair, or its to-zero entry when it is
    unmatched.  The probe repairs a copy of the matching without the pairs
    whose term exceeds t; when feasible, it writes the matching back and
    reads the entries of its new pairs alone, so that the value is the
    largest term and to-zero entry of an unmatched N run.  Otherwise
    ``_cover`` updates each side's flow and room, feasible or not.  A
    seeded probe decides as an unseeded one, but its bound can differ.

    Each side's lists are ``_Lists`` at t, in index order: a run's list is
    its exact neighbour list whenever its to-zero entry exceeds t, and the
    matchers read no other run's list."""
    work = seeds
    if counts is None:
        mate_m, mate_n, term = seeds
        work = mate_m, mate_n = list(mate_m), list(mate_n)
        for i, j in enumerate(mate_m):
            if j != -1 and term[i] > t:
                mate_m[i] = mate_n[j] = -1
    match, side_m, side_n = _sides(dtz_m, dtz_n, work, counts)
    hall = []
    lists_m = _Lists(cols_m, cols_n, t)
    if not match(t, dtz_m, lists_m, *side_m, hall):
        return _floor(hall, lists_m, dtz_m, cols_m, cols_n)
    lists_n = _Lists(cols_n, cols_m, t)
    if not match(t, dtz_n, lists_n, *side_n, hall):
        return _floor(hall, lists_n, dtz_n, cols_n, cols_m)
    if counts is None:
        moved = [(i, j) for i, (j, old) in enumerate(zip(mate_m, seeds[0])) if j != old]
        for i, _ in moved:
            term[i] = dtz_m[i]
        new = [(i, j) for i, j in moved if j != -1]
        for (i, _), entry in zip(new, _entries(new, dtz_m, dtz_n, cols_m, cols_n)):
            term[i] = entry
        seeds[0][:], seeds[1][:] = mate_m, mate_n
        return max([0, *term, *(v for v, i in zip(dtz_n, mate_n) if i == -1)])
    (sent_m, _), (sent_n, _) = seeds
    used = [*((i, j) for i, row in sent_m.items() for j in row),
            *((i, j) for j, row in sent_n.items() for i in row)]
    free = [*(v for i, v in enumerate(dtz_m) if i not in sent_m),
            *(v for j, v in enumerate(dtz_n) if j not in sent_n)]
    return max([0, *_entries(used, dtz_m, dtz_n, cols_m, cols_n), *free])


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


def modules_eps_interleaved(m: PModule, n: PModule, eps: Rational) -> bool:
    """Decision at a specific eps >= 0, decoration-sensitive: is there a
    matching whose pairs are all eps-interleaved and whose leftovers are
    all eps-interleaved with the zero module?  An entry <= w =
    ``_bound(eps, S, reach)`` is exactly an eps-interleaved pair, as in
    ``are_eps_interleaved``.  No table: for a run whose to-zero entry
    exceeds w, an entry is <= w exactly when both key gaps are, so its
    neighbours are its box in ``_Lists``, and no matcher reads another
    run's list.  The pair shape's matcher (``_sides``) runs from the empty
    start on M's side and then on N's, and fails only when no matching
    covers both sides' mandatory runs; the Hall set it gathers goes unread.
    The vertex cap, ``BITS_CAP`` and ``KEYS_BUDGET`` are checked before
    eps, which only ``_bound`` reads."""
    scale, reach, cols_m, cols_n, _, counts = _pair(m, n, False)
    w = _bound(eps, scale, reach)
    dtz_m, dtz_n = _to_zero(cols_m), _to_zero(cols_n)
    match, side_m, side_n = _sides(dtz_m, dtz_n, _unseeded(counts, len(dtz_m), len(dtz_n)),
                                   counts)
    hall = []
    return (match(w, dtz_m, _Lists(cols_m, cols_n, w), *side_m, hall) and
            match(w, dtz_n, _Lists(cols_n, cols_m, w), *side_n, hall))


def _nearest(keys, key: int, cap: int) -> int:
    """The least gap between ``key`` and the sorted ints ``keys``, capped
    at ``cap``."""
    p = bisect_left(keys, key)
    if p < len(keys) and keys[p] - key < cap:
        cap = keys[p] - key
    if p and key - keys[p - 1] < cap:
        cap = key - keys[p - 1]
    return cap


def _shared_floor(dtz_m, dtz_n, cols_m, cols_n) -> int:
    """L, a floor on the entry of the search's answer, off ``_cost_tables``'s
    to-zero entries and key columns.  An entry of run i caps its larger key
    gap by a to-zero entry at least h_i, run i's own, and deleting run i
    costs h_i, so every matching pays at least min(h_i, the larger of run
    i's nearest gaps to the other side's lower keys and to its upper keys,
    each read alone).  L is the largest of these costs.  A run with an
    identical partner on the other side costs at least 0, so only the runs
    without one are read; against an empty side a run costs h_i."""
    floor = 0
    for dtz, (lows, ups), (other_lows, other_ups) in ((dtz_m, cols_m, cols_n),
                                                      (dtz_n, cols_n, cols_m)):
        shared = set(zip(other_lows, other_ups))
        other_ups = sorted(other_ups)
        for h, low, up in zip(dtz, lows, ups):
            if h > floor and (low, up) not in shared:
                cost = max(_nearest(other_lows, low, h), _nearest(other_ups, up, h))
                if cost > floor:
                    floor = cost
    return floor


def _search(pair, tables):
    """Binary search, on the admitted ``pair`` and its ``_cost_tables``
    ``tables``, for the least class index k whose top 4k + 1 a probe
    passes; feasibility is monotone in k.  No candidate set is built: every
    class below lo fails, class hi passes, and hi = reach + 1 stands for
    +inf.  hi starts one class above the largest to-zero entry's, where the
    empty matching passes, or at reach + 1 when a to-zero entry exceeds
    4*reach + 1.  lo starts at 0, or, when the pair shares a run or a side
    has none (``_admit``), at the class (L + 2) >> 2 of the floor L of
    ``_shared_floor``, capped at hi, the first class whose top reaches L.
    Such a pair differs in a few runs, as a witness family's stages do, and
    L is often the answer's entry: its first probe is at class lo, and a
    floor that meets hi makes no probe.  Every other probe is the middle
    class of [lo, hi), or after two passing probes in a row, when lo and hi
    differ by two bits or more, the middle of their bit lengths, so a
    descent through many bits (Cauchy stages) takes the log of their number
    of probes.  A probe at t returns the bound b it proves
    (``_matching_at``), and the bracket moves to b's class k = (b + 2) >> 2,
    the first whose top reaches b: lo = k when b > t, else hi = k.  With no
    repeated run, the probes' seeds carry the term of each M run, which
    starts as its to-zero entry, since the matching starts empty.  Returns
    (distance, the answer's top), or (+inf, None) when no finite threshold
    is feasible."""
    scale, reach, _, _, floored, counts = pair
    dtz_m, dtz_n, _, _ = tables
    seeds = _unseeded(counts, len(dtz_m), len(dtz_n))
    if counts is None:
        seeds += (list(dtz_m),)
    lo, hi = 0, min(max([0, *dtz_m, *dtz_n]) + 1 >> 2, reach) + 1
    if floored:
        lo = min(_shared_floor(*tables) + 2 >> 2, hi)
    # Feasible probes in a row: after two, the answer may lie many bits
    # below, and the probe bisects the bit lengths of lo and hi.
    drops = 0
    while lo < hi:
        if floored:
            mid, floored = lo, False
        else:
            a, b = lo.bit_length(), hi.bit_length()
            mid = 1 << (a + b - 1) // 2 if drops > 1 and b - a > 1 else (lo + hi) // 2
        top = 4 * mid + 1
        bound = _matching_at(*tables, top, seeds, counts)
        k = bound + 2 >> 2
        if bound > top:
            lo, drops = k, 0
        else:
            hi, drops = k, drops + 1
    if hi > reach:
        return POS_INF, None
    return ExtRational(Fraction(2 * hi, scale)), 4 * hi + 1


def module_distance(m: PModule, n: PModule) -> ExtRational:
    """Exact interleaving (= bottleneck) distance between two modules."""
    pair = _pair(m, n, True)
    return _search(pair, _cost_tables(pair))[0]


def _copy_cover(t, dtz, lists, n_right, ranges):
    """One side's unseeded ``_hopcroft_karp`` matching at t with one vertex
    per copy: (the copies of its mandatory runs, of to-zero entry > t,
    their partners), partners -1 when free, each run's neighbours read off
    ``lists``.  ``ranges`` is None when no run repeats, else (this side's,
    the other side's) copy index ranges by run; the run lists are then
    expanded to copies and all copies of a run share one list object."""
    mand = [r for r, v in enumerate(dtz) if v > t]
    adj = [lists[r] for r in mand]
    if ranges is not None:
        own, other = ranges
        copies = [list(chain.from_iterable(map(other.__getitem__, near))) for near in adj]
        adj = list(chain.from_iterable(map(repeat, copies, (len(own[r]) for r in mand))))
        mand = list(chain.from_iterable(map(own.__getitem__, mand)))
    pair_l = [-1] * len(mand)
    _hopcroft_karp(adj, pair_l, [-1] * n_right, [], False)
    return mand, pair_l


def distance_certificate(m: PModule, n: PModule) -> MatchingCertificate:
    """A matching certificate whose threshold is the exact module distance:
    the ``_unit_merge`` of both sides' ``_copy_cover`` matchings at the
    answer's top, one unseeded Hopcroft-Karp run per side on whole rows and
    columns of copies, their ``_Lists`` read off the one ``_cost_tables``
    that the search ran on."""
    pair = _pair(m, n, True)
    tables = dtz_m, dtz_n, cols_m, cols_n = _cost_tables(pair)
    d, top = _search(pair, tables)
    if top is None:
        raise InfiniteDistanceError("the modules are infinitely far apart; no certificate exists")
    counts = pair[5]
    ranges = None if counts is None else (_ranges(counts[0]), _ranges(counts[1]))
    matching = _unit_merge(
        _copy_cover(top, dtz_m, _Lists(cols_m, cols_n, top), len(n), ranges),
        _copy_cover(top, dtz_n, _Lists(cols_n, cols_m, top), len(m), ranges and ranges[::-1]))
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
    No distance is below 0, so a negative threshold fails.  On the pair's
    key columns, the check reads the entry of each distinct pair of runs
    once (``_entries``) and the to-zero entry of each unmatched copy's run:
    a distance is <= t iff its entry is <= ``_bound(t, S, reach) | 1``.
    More than ``MATCH_CAP`` runs, which no distance certificate covers, and
    a pair over ``BITS_CAP`` or ``KEYS_BUDGET`` (``_admit``) are refused
    before any view is built."""
    used_m = sorted([*cert.unmatched_m, *(i for i, _ in cert.pairs)])
    used_n = sorted([*cert.unmatched_n, *(j for _, j in cert.pairs)])
    t = cert.threshold
    if used_m != list(range(len(m))) or used_n != list(range(len(n))) or t < ZERO:
        return False
    if not t.is_finite:
        return True
    if len(m._ints) + len(n._ints) > MATCH_CAP:
        raise ValueError(f"certificate on {len(m._ints)}+{len(n._ints)} distinct summands "
                         f"exceeds the vertex cap {MATCH_CAP}")
    scale, reach, cols_m, cols_n, _ = _admit(m, n, False)
    top = _bound(t.as_fraction, scale, reach) | 1
    dtz_m, dtz_n = _to_zero(cols_m), _to_zero(cols_n)
    run_m, run_n = ([r for r, (_, k) in enumerate(x._ints) for _ in range(k)] for x in (m, n))
    pairs = {(run_m[i], run_n[j]) for i, j in cert.pairs}
    return (all(dtz_m[run_m[i]] <= top for i in cert.unmatched_m) and
            all(dtz_n[run_n[j]] <= top for j in cert.unmatched_n) and
            all(r <= top for r in _entries(pairs, dtz_m, dtz_n, cols_m, cols_n)))
