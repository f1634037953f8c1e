"""The one test module that calls or patches the private names of
``persistd.bottleneck``.  Tests assert on the views it gives, so that a
kernel change to a private call shape, to a probe's seeds or to the lists
its matchers read edits this file alone.

The views are on plain ints.  ``keys`` = (dtz_m, dtz_n, cols_m, cols_n)
are what a probe reads: each side's to-zero entries by run and its key
columns (lower keys, upper keys), whose table is ``oracles.column_table``.
``counts`` is None when no summand repeats, else each side's copy counts
by run.  A probe leaves a matching {M run: N run} when no run repeats,
else flows, one {run: {run of the other side: units}} per side.
"""

import copy
from contextlib import contextmanager
from typing import NamedTuple

import pytest

from persistd import bottleneck

from oracles import column_table, full_probe, run_table, table_floor


def run_keys(m, n):
    """The ``keys`` of the admitted pair of m and n: the search's set-up."""
    return bottleneck._cost_tables(bottleneck._pair(m, n, True))


def entries(keys, pairs) -> list[int]:
    """The entry of each (run of M, run of N) in ``pairs``, off the keys."""
    return bottleneck._entries(pairs, *keys)


def neighbour_runs(cols, other, t) -> list[list[int]]:
    """Each run's list at t as the matchers read it: the runs of the other
    side (key columns ``other``) within t of it on both keys, in index
    order, its neighbours when its to-zero entry exceeds t."""
    lists = bottleneck._Lists(cols, other, t)
    return [lists[i] for i in range(len(cols[0]))]


def key_floor(hall, dtz, cols, other, t) -> int:
    """The Koenig floor at t of the runs ``hall`` of the side of ``dtz`` and
    ``cols``, off the keys."""
    return bottleneck._floor(hall, bottleneck._Lists(cols, other, t), dtz, cols, other)


def hopcroft_karp(adj, pair_l, pair_r) -> int:
    """The unit matcher: pair_l, pair_r (-1 for none) augmented in place to
    a maximum matching along ``adj``; how many left vertices stay free."""
    return bottleneck._hopcroft_karp(adj, pair_l, pair_r, [], False)


def flow(adj, sent, room, need) -> int:
    """The capacitated matcher: ``sent``, {u: {v: units}}, augmented in place
    by need[u] more units along adj[u], room[v] more into v; units unsent."""
    return bottleneck._flow(adj, sent, room, need, [])


def search_top(keys, reach, counts=None, floored=False):
    """The top of the class the search finds on any ``keys``, None for +inf;
    with ``floored``, the search starts at its shared-run floor."""
    return bottleneck._search((1, reach, None, None, floored, counts), keys)[1]


def search_floor(m, n):
    """The floor L on the answer's entry that the search of m and n starts
    from, or None when the pair gets none: they share no run and neither
    is zero."""
    pair = bottleneck._pair(m, n, True)
    return bottleneck._shared_floor(*bottleneck._cost_tables(pair)) if pair[4] else None


def patch_lattice(monkeypatch, replacement):
    """The kernel's one call of ``interleaving._lattice`` calls ``replacement``."""
    monkeypatch.setattr(bottleneck, "_lattice", replacement)


def _terms(mate_m, costs, dtz_m) -> list[int]:
    """The term of each M run of a matching, as the unit seeds carry it: the
    cost of its pair, or its to-zero cost when unmatched."""
    return [v if j == -1 else costs[i][j] for i, (v, j) in enumerate(zip(dtz_m, mate_m))]


def _start(dtz_m, dtz_n, counts, costs, pairs=None):
    """The seeds of a first probe: the matching ``pairs`` with its terms
    when no run repeats, else the empty flows."""
    seeds = bottleneck._unseeded(counts, len(dtz_m), len(dtz_n))
    if counts is not None:
        return seeds
    mate_m, mate_n = seeds
    for i, j in (pairs or {}).items():
        mate_m[i], mate_n[j] = j, i
    return mate_m, mate_n, _terms(mate_m, costs, dtz_m)


def _flows(pairs) -> tuple[dict, dict]:
    """A matching of runs as the two sides' flows of one unit each."""
    return {i: {j: 1} for i, j in pairs.items()}, {j: {i: 1} for i, j in pairs.items()}


def _value(costs, dtz_m, dtz_n, flow_m, flow_n) -> int:
    """The largest cost of the two sides' flows and to-zero cost of a run
    that its own side's flow leaves out."""
    return max([0, *(costs[i][j] for i, row in flow_m.items() for j in row),
                *(costs[i][j] for j, row in flow_n.items() for i in row),
                *(v for i, v in enumerate(dtz_m) if i not in flow_m),
                *(v for j, v in enumerate(dtz_n) if j not in flow_n)])


class Probed(NamedTuple):
    """One probe: the keys and counts it ran on, its top t, the bound it
    returned, a copy of the seeds it left, read through ``left``, and a
    failed probe's Hall set, (side, runs), or None."""

    keys: tuple
    counts: object
    t: int
    bound: int
    seeds: object
    hall: object = None

    @property
    def left(self):
        """The matching or flows the probe left, checked: a matching whose
        two sides agree and whose terms are those of its pairs, or flows
        whose rooms, plus the units sent into each run, are its copy count."""
        dtz_m, dtz_n = self.keys[:2]
        if self.counts is None:
            mate_m, mate_n, term = self.seeds
            pairs = {i: j for i, j in enumerate(mate_m) if j != -1}
            assert (len(mate_m), len(mate_n)) == (len(dtz_m), len(dtz_n)), self.seeds
            assert pairs == {i: j for j, i in enumerate(mate_n) if i != -1}, self.seeds
            assert term == _terms(mate_m, column_table(*self.keys), dtz_m), self.seeds
            return pairs
        for (sent, room), count in zip(self.seeds, self.counts[::-1]):
            into = [0] * len(count)
            for row in sent.values():
                for j, units in row.items():
                    into[j] += units
            assert min([0, *room]) == 0 and [r + k for r, k in zip(room, into)] == count, (
                sent, room, count)
        return tuple({r: dict(row) for r, row in sent.items()} for sent, _ in self.seeds)


def check_probe(probed: Probed, costs=None):
    """The contract of a probe at t on the table ``costs`` (its keys' unless
    given): the bound is an int, at most t exactly when the copy-level full
    probe at t passes.  Above t, the full probe fails just below it, and a
    known Hall set is of mandatory runs with more copies than their
    neighbours, whose ``table_floor`` the bound is.  At or below t, what
    the probe left covers each mandatory run on both sides, over pairs of
    cost <= t, sending every copy, flows from those runs alone, and the
    bound is its ``_value``."""
    counts, t, bound = probed.counts, probed.t, probed.bound
    dtz_m, dtz_n = probed.keys[:2]
    costs = column_table(*probed.keys) if costs is None else costs
    left = probed.left
    assert isinstance(bound, int) and not isinstance(bound, bool), bound
    feasible = full_probe(costs, dtz_m, dtz_n, t, copies=counts) is not None
    assert (bound <= t) == feasible, (bound, t)
    own_m, own_n = counts or ([1] * len(dtz_m), [1] * len(dtz_n))
    flipped = [[row[j] for row in costs] for j in range(len(dtz_n))]
    sides = (dtz_m, costs, own_m, own_n), (dtz_n, flipped, own_n, own_m)
    if not feasible:
        assert full_probe(costs, dtz_m, dtz_n, bound - 1, copies=counts) is None, (bound, t)
        if probed.hall is not None:
            side, hall = probed.hall
            dtz, table, mine, theirs = sides[side]
            lists = {i: [j for j, c in enumerate(table[i]) if c <= t] for i in hall}
            near = set().union(*lists.values())
            assert hall and all(dtz[i] > t for i in hall), (hall, t)
            assert sum(map(mine.__getitem__, hall)) > sum(map(theirs.__getitem__, near)), hall
            assert bound == table_floor(hall, lists, dtz, costs, side == 1), (hall, bound)
        return
    flows = _flows(left) if counts is None else left
    for (dtz, table, mine, _), side in zip(sides, flows):
        mandatory = {i for i, v in enumerate(dtz) if v > t}
        assert mandatory <= set(side) if counts is None else mandatory == set(side), (side, t)
        for i, row in side.items():
            assert sum(row.values()) == mine[i], (side, t)
            assert all(units > 0 and table[i][j] <= t for j, units in row.items()), (side, t)
    assert _value(costs, dtz_m, dtz_n, *flows) == bound, (flows, bound, t)


class _LazyLists(dict):
    """Lists by run, each built by ``build`` when first read, then kept."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, run):
        near = self[run] = self.build(run)
        return near


def _table_probe(costs, dtz_m, dtz_n, t, near_m, near_n, seeds, counts) -> int:
    """The search's probe at t as it ran on a table of every pair of runs,
    the reference that the probe on keys must match bound for bound: the
    same matchers from the same ``seeds``, updated in place, on the lists
    ``near_m[i]`` (columns that can still be row i's neighbours at t) and
    ``near_n[j]`` filtered on the table; a feasible probe narrows the lists
    it read, since every later probe lies below t, and recomputes every
    term.  Returns the first failing side's ``table_floor``, else the value
    of what the probe leaves in ``seeds``."""
    work = seeds
    if counts is None:
        work = mate_m, mate_n = list(seeds[0]), list(seeds[1])
        for i, j in [(i, j) for i, j in enumerate(mate_m) if j != -1 and costs[i][j] > t]:
            mate_m[i] = mate_n[j] = -1
    match, side_m, side_n = bottleneck._sides(dtz_m, dtz_n, work, counts)
    hall = []
    lists_m = _LazyLists(lambda i: [j for j in near_m[i] if costs[i][j] <= t])
    if not match(t, dtz_m, lists_m, *side_m, hall):
        return table_floor(hall, lists_m, dtz_m, costs, False)
    lists_n = _LazyLists(lambda j: [i for i in near_n[j] if costs[i][j] <= t])
    if not match(t, dtz_n, lists_n, *side_n, hall):
        return table_floor(hall, lists_n, dtz_n, costs, True)
    for near, lists in ((near_m, lists_m), (near_n, lists_n)):
        for run, within in lists.items():
            near[run] = within
    if counts is not None:
        return _value(costs, dtz_m, dtz_n, seeds[0][0], seeds[1][0])
    seeds[0][:], seeds[1][:] = mate_m, mate_n
    seeds[2][:] = _terms(mate_m, costs, dtz_m)
    return _value(costs, dtz_m, dtz_n, *_flows({i: j for i, j in enumerate(mate_m) if j != -1}))


def table_probes(m, n, tops) -> list[int]:
    """The bounds of table probes on ``run_table`` at ``tops`` in turn, each
    seeded with what the one before left and on the lists the feasible ones
    before narrowed, as the search ran them on its table."""
    costs, dtz_m, dtz_n, _, _, counts = run_table(m, n)
    near_m = [range(len(dtz_n))] * len(dtz_m)
    near_n = [range(len(dtz_m))] * len(dtz_n)
    seeds = _start(dtz_m, dtz_n, counts, costs)
    return [_table_probe(costs, dtz_m, dtz_n, t, near_m, near_n, seeds, counts) for t in tops]


class Chain:
    """Probes at t in turn on ``keys`` and ``counts``, as the search runs
    them: the first from the matching ``pairs`` (no repeated run) or the
    empty start, each later one from what the one before left."""

    def __init__(self, keys, counts=None, pairs=None, costs=None):
        self.keys, self.counts = keys, counts
        self.costs = column_table(*keys) if costs is None else costs
        self.seeds = _start(*keys[:2], counts, self.costs, pairs)

    def probe(self, t) -> Probed:
        """The probe at t, which returns the bound, and leaves the seeds, of
        the table probe on ``costs`` (``column_table`` unless given) from a
        copy of its seeds, and keeps the probe's contract (``check_probe``)."""
        dtz_m, dtz_n = self.keys[:2]
        expected = copy.deepcopy(self.seeds)
        whole = [range(len(dtz_n))] * len(dtz_m), [range(len(dtz_m))] * len(dtz_n)
        bound = _table_probe(self.costs, dtz_m, dtz_n, t, *whole, expected, self.counts)
        with recording() as rec:
            bottleneck._matching_at(*self.keys, t, self.seeds, self.counts)
        probed, = rec.probes
        assert (probed.bound, self.seeds) == (bound, expected), (t, self.keys, self.counts)
        check_probe(probed, self.costs)
        return probed


class Matcher(NamedTuple):
    """One matcher run: the flow or Hopcroft-Karp, how many lists it was
    given, and for a flow each left vertex's units still to send and the
    room left on the other side."""

    flow: bool
    lists: int
    need: list = None
    room: int = None


class Record:
    """What the kernel ran while ``recording``: ``probes``, one ``Probed``
    per probe; ``lists``, the runs whose neighbour list was built, in turn;
    ``matchers``, one ``Matcher`` per matcher run; ``entries``, how many
    pairs' entries probes read; and ``lattices`` and ``setups``, the calls
    of the pair's lattice and of the search's per-pair set-up."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.probes, self.lists, self.matchers = [], [], []
        self.entries = self.lattices = self.setups = 0

    @property
    def bounds(self) -> list[tuple[int, int]]:
        """The search's (top, bound) sequence."""
        return [(p.t, p.bound) for p in self.probes]


@contextmanager
def recording():
    """A ``Record`` of what the kernel runs inside the block."""
    rec, probing = Record(), {}

    def probe(*args, _real=bottleneck._matching_at):
        probing.clear()
        probing["dtz_m"] = args[0]
        bound = _real(*args)
        *keys, t, seeds, counts = args
        rec.probes.append(Probed(tuple(keys), counts, t, bound, copy.deepcopy(seeds),
                                 probing.get("hall")))
        return bound

    def floor(hall, lists, dtz, *args, _real=bottleneck._floor):
        probing["hall"] = 0 if dtz is probing["dtz_m"] else 1, list(hall)
        return _real(hall, lists, dtz, *args)

    class Lists(bottleneck._Lists):
        def __missing__(self, run):
            rec.lists.append(run)
            return super().__missing__(run)

    def unit(adj, *args, _real=bottleneck._hopcroft_karp, **kwargs):
        rec.matchers.append(Matcher(False, len(adj)))
        return _real(adj, *args, **kwargs)

    def capacitated(adj, sent, room, need, *args, _real=bottleneck._flow):
        rec.matchers.append(Matcher(True, len(adj), list(need), sum(room)))
        return _real(adj, sent, room, need, *args)

    def read(pairs, *args, _real=bottleneck._entries):
        rec.entries += len(pairs)
        return _real(pairs, *args)

    def counted(field, real):
        def call(*args):
            setattr(rec, field, getattr(rec, field) + 1)
            return real(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for name, fn in (("_matching_at", probe), ("_floor", floor), ("_Lists", Lists),
                         ("_hopcroft_karp", unit), ("_flow", capacitated), ("_entries", read),
                         ("_lattice", counted("lattices", bottleneck._lattice)),
                         ("_cost_tables", counted("setups", bottleneck._cost_tables))):
            patch.setattr(bottleneck, name, fn)
        yield rec
