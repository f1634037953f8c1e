"""The kernel matches runs, not copies: a mandatory run that repeats is one
left vertex that must send as many units as it has copies, and a run on
the other side is one right vertex that takes at most that many.  These
tests hold the capacitated matcher ``_flow`` and the search and the
decision built on it to the copy-level references of ``oracles``."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persistd import (
    ExtRational,
    POS_INF,
    bottleneck,
    bruteforce_module_distance,
    module_distance,
    modules_eps_interleaved,
)
from persistd.bottleneck import _flow, _hopcroft_karp, _ranges

from oracles import (
    copy_hopcroft_karp,
    copy_merge,
    copy_search,
    full_probe,
    lattice_scale,
    reference_module_distance,
    run_keys,
    run_table,
    table_modules_eps_interleaved,
    unit_seeds,
)
from strategies import lattice_modules, pooled_pairs
from test_bottleneck import _assert_probe, _assert_room, _seed_value, _seeded_probe
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
    """``sent`` is a flow on edges of ``adj`` within the counts, keyed by
    the left runs that had units to send, and ``need``, ``room`` and
    ``short`` are what it leaves."""
    assert sorted(sent) == [u for u, k in enumerate(start_need) if k]
    into = [0] * len(start_room)
    for u, k in enumerate(start_need):
        out = sent.get(u, {})
        assert all(v in adj[u] and units > 0 for v, units in out.items())
        assert sum(out.values()) + need[u] == k
        for v, units in out.items():
            into[v] += units
    assert [k + r for k, r in zip(into, room)] == start_room
    assert min([0, *need, *room]) == 0 and short == sum(need)


def test_capacitated_total_is_the_copy_maximum():
    """On random run graphs with counts 0 to 7, unseeded and from a random
    valid start, the flow's total is the copy graph's maximum matching.
    The flow is keyed by run, with a key for each run of count > 0, and
    inserted in a random order of runs; the same start inserted in the
    reverse order gives the same flow."""
    rng = random.Random(2024)
    for _ in range(600):
        adj, need, room = _random_runs(rng, 7)
        best = _copy_maximum(adj, need, room)
        order = rng.sample(range(len(adj)), len(adj))
        starts = [{u: {} for u in order if need[u]}]
        start = dict(starts[0])
        left, free = list(need), list(room)
        for u in order:
            for v in adj[u]:
                units = rng.randint(0, min(left[u], free[v]))
                if units:
                    start[u] = {**start[u], v: units}
                    left[u] -= units
                    free[v] -= units
        starts.append(start)
        for sent in starts:
            sent = {u: dict(out) for u, out in sent.items()}
            now_need = [k - sum(sent.get(u, {}).values()) for u, k in enumerate(need)]
            now_room = list(room)
            for out in sent.values():
                for v, units in out.items():
                    now_room[v] -= units
            again = (dict(reversed([(u, dict(out)) for u, out in sent.items()])),
                     list(now_room), list(now_need))
            short = _flow(adj, sent, now_room, now_need)
            assert sum(need) - short == best, (adj, need, room)
            _check_flow(adj, now_need, now_room, sent, short, need, room)
            assert _flow(adj, *again) == short and again == (sent, now_room, now_need)


def test_unit_capacities_match_the_reference_exactly():
    """With every count 1 and no start, the capacitated flow is the
    matching of the copy-level reference, edge for edge, and so is that of
    the unit matcher ``_hopcroft_karp``."""
    rng = random.Random(77)
    for _ in range(2000):
        adj, _, _ = _random_runs(rng, 1)
        n_right = 1 + max([-1, *(v for near in adj for v in near)])
        n_right += rng.randint(0, 2)
        expected = copy_hopcroft_karp(adj, [-1] * len(adj), [-1] * n_right)
        sent = {u: {} for u in range(len(adj))}
        short = _flow(adj, sent, [1] * n_right, [1] * len(adj))
        assert [next(iter(sent[u]), -1) for u in range(len(adj))] == expected[1], adj
        assert short == len(adj) - expected[0]
        pair_l, pair_r = [-1] * len(adj), [-1] * n_right
        assert _hopcroft_karp(adj, pair_l, pair_r) == len(adj) - expected[0]
        assert (pair_l, pair_r) == (expected[1], expected[2])


def test_seeded_probes_decide_as_unseeded():
    """Probes up and down the class tops, each seeded with the flows the
    one before left or the matching the last feasible one left, decide as
    an unseeded copy-level probe and keep the probe's contract
    (``_assert_probe``) and the table probe's bound (``_seeded_probe``): a
    run that stops being mandatory gives its units back, and so does an
    edge that leaves a run's list."""
    rng = random.Random(9)
    for _ in range(300):
        m, n = _random_pool_pair(rng)
        costs, dtz_m, dtz_n, _, fin, counts = run_table(m, n)
        tables = run_keys(m, n)
        tops = sorted({((r + 1) & -4) + 1 for row in [dtz_m, dtz_n, *costs] for r in row
                       if r <= fin} | {1})
        seeds = bottleneck._unseeded(counts, len(dtz_m), len(dtz_n))
        if counts is None:
            seeds = unit_seeds(*seeds, costs, dtz_m)
        for t in rng.choices(tops, k=8):
            bound = _seeded_probe(tables, costs, t, seeds, counts)
            _assert_probe(bound, seeds, costs, dtz_m, dtz_n, t, counts)


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


def _copy_matching(flow, own, other):
    """A run flow {run: {run of the other side: units}} as a matching of
    copies (the copies, their partners), as ``oracles.copy_merge`` takes
    it: a run's units take its copies in ``own`` in order, and the units
    into a run of the other side take its copies in ``other`` in order."""
    taken = [0] * len(other)
    copies, partners = [], []
    for r, row in flow.items():
        mine = iter(own[r])
        for j, units in row.items():
            for _ in range(units):
                copies.append(next(mine))
                partners.append(other[j][taken[j]])
                taken[j] += 1
    return copies, partners


@given(pooled_pairs(max_count=7))
@settings(max_examples=150, deadline=None)
def test_jump_bound_covers_the_merge(pair):
    """At every feasible probe of a search on repeated runs, the bound V
    that the probe returns and the search jumps on, the largest of every
    edge cost in the two sides' flows (side_m, side_n) that it leaves in
    its seeds and of the to-zero cost of every run that its side's flow
    does not cover, lies between the value of the flows'
    Mendelsohn-Dulmage merge (``oracles.copy_merge`` on the flows expanded
    to copies) and the probe's top t, and the copy-level full probe is
    feasible at V's class top.  At every infeasible probe, the copy-level
    full probe fails just below the floor it returns, which lies above t.
    After every probe, the room each side's flow leaves adds up
    (``_assert_room``).  The search's bracket of class indices moves exactly as V and the
    floors say: each probe is the middle of the bracket the probes before
    leave, by bit length after two feasible probes in a row while lo and
    hi differ by two bits or more, and the distance is the class the last
    one leaves."""
    m, n = pair
    costs, dtz_m, dtz_n, scale, fin, counts = run_table(m, n)
    if counts is None:
        return
    own_m, own_n = map(_ranges, counts)
    run_m, run_n = ([r for r, copies in enumerate(own) for _ in copies] for own in (own_m, own_n))
    probes = []

    def recorded(*args, _real=bottleneck._matching_at):
        bound = _real(*args)
        # The flows are the seeds of the next probe, which updates them.
        probes.append((args[4], bound, tuple(
            ({r: dict(row) for r, row in sent.items()}, list(room)) for sent, room in args[5])))
        return bound

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bottleneck, "_matching_at", recorded)
        d = module_distance(m, n)
    # A class k has the top 4k + 1; (r + 2) >> 2 is the first class whose
    # top reaches r, and reach + 1 = (fin >> 2) + 1 stands for +inf.
    lo, hi = 0, min(max([0, *dtz_m, *dtz_n]) + 1 >> 2, fin >> 2) + 1
    drops = 0
    for t, bound, flows in probes:
        _assert_room(flows, counts)
        a, b = lo.bit_length(), hi.bit_length()
        mid = 1 << (a + b - 1) // 2 if drops > 1 and b - a > 1 else (lo + hi) // 2
        assert lo <= mid < hi and t == 4 * mid + 1
        if bound > t:
            assert full_probe(costs, dtz_m, dtz_n, bound - 1, copies=counts) is None
            lo, drops = bound + 2 >> 2, 0
            continue
        drops += 1
        assert bound == _seed_value(flows, costs, dtz_m, dtz_n, counts)
        (side_m, _), (side_n, _) = flows
        merged = copy_merge(_copy_matching(side_m, own_m, own_n),
                            _copy_matching(side_n, own_n, own_m))
        matched_n = set(merged.values())
        assert all(i in merged for i, r in enumerate(run_m) if dtz_m[r] > t)
        assert all(j in matched_n for j, r in enumerate(run_n) if dtz_n[r] > t)
        value = max([0, *(costs[run_m[i]][run_n[j]] for i, j in merged.items()),
                     *(dtz_m[r] for i, r in enumerate(run_m) if i not in merged),
                     *(dtz_n[r] for j, r in enumerate(run_n) if j not in matched_n)])
        assert value <= bound <= t, (value, bound, t, m.to_json(), n.to_json())
        hi = bound + 2 >> 2
        assert full_probe(costs, dtz_m, dtz_n, 4 * hi + 1, copies=counts) is not None
    assert lo >= hi
    assert d == (POS_INF if hi > fin >> 2 else ExtRational(Fraction(2 * hi, scale)))


def _assert_floors_bound(m, n):
    """Every floor that an infeasible probe of the search on m and n
    returns lies above its probe's top t, the copy-level full probe fails
    at each class top below it and just below it, and it is at most the
    entry of the distance by exhaustive matching, the top of its class
    (by the candidate scan when a side has more than 5 copies)."""
    costs, dtz_m, dtz_n, scale, fin, counts = run_table(m, n)
    tops = sorted({((r + 1) & -4) + 1 for row in [dtz_m, dtz_n, *costs] for r in row
                   if r <= fin} | {1})
    floors = []

    def recorded(*args, _real=bottleneck._matching_at):
        bound = _real(*args)
        if bound > args[4]:
            floors.append((args[4], bound))
        return bound

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bottleneck, "_matching_at", recorded)
        module_distance(m, n)
    exact = bruteforce_module_distance if max(len(m), len(n)) <= 5 else reference_module_distance
    d = exact(m, n)
    for t, floor in floors:
        assert floor > t, (t, floor)
        for top in [top for top in tops if top < floor] + [floor - 1]:
            assert full_probe(costs, dtz_m, dtz_n, top, copies=counts) is None, (t, floor, top)
        if d.is_finite:
            assert floor <= 2 * scale * d.as_fraction + 1, (t, floor, str(d))


@given(pooled_pairs(max_count=7))
@settings(max_examples=150, deadline=None)
def test_floors_bound_the_distance_on_runs(pair):
    """Floors on repeated runs, infinite endpoints included: ``_cover``'s
    short runs and the runs residual paths reach from them."""
    _assert_floors_bound(*pair)


@given(lattice_modules, lattice_modules)
@settings(max_examples=150, deadline=None)
def test_floors_bound_the_distance_on_deep_lattices(m, n):
    """Floors on every interval shape, with denominators up to 2^41."""
    _assert_floors_bound(m, n)

