"""The kernel matches runs, not copies: a mandatory run that repeats is one
left vertex that must send as many units as it has copies, and a run on
the other side is one right vertex that takes at most that many.  These
tests hold the capacitated ``_hopcroft_karp`` and the search and the
decision built on it to the copy-level references of ``oracles``."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from persistd import module_distance, modules_eps_interleaved
from persistd.bottleneck import _cost_tables, _hopcroft_karp, _matching_at, _pair

from oracles import (
    copy_hopcroft_karp,
    copy_search,
    full_probe,
    lattice_scale,
    reference_module_distance,
    table_modules_eps_interleaved,
)
from strategies import pooled_pairs
from test_bottleneck import _assert_flow_at
from test_table_free import _random_pool_pair


def _random_runs(rng: random.Random, max_count: int):
    """A random bipartite graph on runs: (each left run's neighbour list,
    the left runs' counts, the right runs' counts), counts 0 to
    ``max_count``."""
    n_left, n_right = rng.randint(0, 6), rng.randint(0, 6)
    adj = [sorted(rng.sample(range(n_right), rng.randint(0, n_right))) for _ in range(n_left)]
    return (adj, [rng.randint(0, max_count) for _ in range(n_left)],
            [rng.randint(0, max_count) for _ in range(n_right)])


def _copy_maximum(adj, need, room) -> int:
    """The maximum matching of the copy graph: run u's copies each take
    one copy of a neighbour run, by the copy-level reference."""
    firsts = [sum(room[:v]) for v in range(len(room))]
    copies = [[firsts[v] + c for v in near for c in range(room[v])] for near in adj]
    copy_adj = [copies[u] for u, k in enumerate(need) for _ in range(k)]
    size, _, _ = copy_hopcroft_karp(copy_adj, [-1] * len(copy_adj), [-1] * sum(room))
    return size


def _check_flow(adj, need, room, sent, short, start_need, start_room):
    """``sent`` is a flow on edges of ``adj`` within the counts, and
    ``need``, ``room`` and ``short`` are what it leaves."""
    into = [0] * len(start_room)
    for u, out in enumerate(sent):
        assert all(v in adj[u] and units > 0 for v, units in out.items())
        assert sum(out.values()) + need[u] == start_need[u]
        for v, units in out.items():
            into[v] += units
    assert [k + r for k, r in zip(into, room)] == start_room
    assert min([0, *need, *room]) == 0 and short == sum(need)


def test_capacitated_total_is_the_copy_maximum():
    """On random run graphs with counts 0 to 7, unseeded and from a random
    valid start, the flow's total is the copy graph's maximum matching."""
    rng = random.Random(2024)
    for _ in range(600):
        adj, need, room = _random_runs(rng, 7)
        best = _copy_maximum(adj, need, room)
        starts = [[{} for _ in adj]]
        start = [{} for _ in adj]
        left, free = list(need), list(room)
        for u in rng.sample(range(len(adj)), len(adj)):
            for v in adj[u]:
                units = rng.randint(0, min(left[u], free[v]))
                if units:
                    start[u][v] = units
                    left[u] -= units
                    free[v] -= units
        starts.append(start)
        for sent in starts:
            sent = [dict(out) for out in sent]
            start_need = list(need)
            now_need = [k - sum(out.values()) for k, out in zip(need, sent)]
            now_room = list(room)
            for out in sent:
                for v, units in out.items():
                    now_room[v] -= units
            short = _hopcroft_karp(adj, sent, now_room, now_need)
            assert sum(start_need) - short == best, (adj, need, room)
            _check_flow(adj, now_need, now_room, sent, short, start_need, room)


def test_unit_capacities_match_the_reference_exactly():
    """With every count 1 and no start, the capacitated flow is the
    matching of the copy-level reference, edge for edge, and so is the
    matching mode of the same function."""
    rng = random.Random(77)
    for _ in range(2000):
        adj, _, _ = _random_runs(rng, 1)
        n_right = 1 + max([-1, *(v for near in adj for v in near)])
        n_right += rng.randint(0, 2)
        expected = copy_hopcroft_karp(adj, [-1] * len(adj), [-1] * n_right)
        sent = [{} for _ in adj]
        short = _hopcroft_karp(adj, sent, [1] * n_right, [1] * len(adj))
        assert [next(iter(out), -1) for out in sent] == expected[1], adj
        assert short == len(adj) - expected[0]
        pair_l, pair_r = [-1] * len(adj), [-1] * n_right
        assert _hopcroft_karp(adj, pair_l, pair_r) == len(adj) - expected[0]
        assert (pair_l, pair_r) == (expected[1], expected[2])


def test_seeded_probes_decide_as_unseeded():
    """Probes up and down the class tops, each seeded with the flows or
    matchings the one before left, decide as an unseeded copy-level probe
    and return a flow at their threshold: a run that stops being mandatory
    gives its units back, and so does an edge that leaves a run's list."""
    rng = random.Random(9)
    for _ in range(300):
        m, n = _random_pool_pair(rng)
        costs, dtz_m, dtz_n, _, fin, counts = _cost_tables(_pair(m, n, True))
        tops = sorted({((r + 1) & -4) + 1 for row in [dtz_m, dtz_n, *costs] for r in row
                       if r <= fin} | {1})
        if counts is None:
            seeds = [-1] * len(dtz_m), [-1] * len(dtz_n)
        else:
            seeds = ({}, list(counts[1])), ({}, list(counts[0]))
        for t in rng.choices(tops, k=8):
            near_m, near_n = [range(len(dtz_n))] * len(dtz_m), [range(len(dtz_m))] * len(dtz_n)
            found = _matching_at(costs, dtz_m, dtz_n, t, near_m, near_n, seeds, counts)
            full = full_probe(costs, dtz_m, dtz_n, t, copies=counts)
            assert (found is None) == (full is None), (t, m.to_json(), n.to_json())
            if found is not None:
                _assert_flow_at(found, costs, dtz_m, dtz_n, t, counts)


@given(pooled_pairs(max_count=7), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_run_kernel_against_copy_references(pair, k):
    """Distances equal the copy-level search and the table reference, and
    decisions equal the table decision at d, d +- 1/(4S), d/2 and at
    eps = 2k/S, where E = eps*S is even."""
    m, n = pair
    d = module_distance(m, n)
    assert d == copy_search(m, n)[0] == reference_module_distance(m, n)
    scale = 2 * lattice_scale(m, n)  # S = 4*lcm
    step = Fraction(1, 4 * scale)
    eps_values = {Fraction(2 * k, scale)}
    if d.is_finite:
        at = d.as_fraction
        eps_values.update((at, at + step, at / 2))
        if at >= step:
            eps_values.add(at - step)
    for eps in eps_values:
        assert modules_eps_interleaved(m, n, eps) == table_modules_eps_interleaved(m, n, eps), (
            str(eps), m.to_json(), n.to_json())


