"""Every kernel entry point finishes on small pairs within a fixed number
of executed lines of ``persistd`` code, and gives the answers of the
references.  The count is made with ``sys.settrace``, not a clock, so a
kernel edit that loops forever (a search bracket that stops shrinking, a
Mendelsohn-Dulmage walk around a cycle, a Hopcroft-Karp phase that finds
nothing to augment) fails here at once instead of hanging the run."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import persistd
from persistd import (
    InfiniteDistanceError,
    PModule,
    cauchy_witness,
    distance_certificate,
    module_distance,
    modules_eps_interleaved,
    verify_certificate,
)

from kernel_seam import search_top
from oracles import copy_search, full_probe, lattice_scale, table_modules_eps_interleaved
from strategies import near_copies, random_pool_pair, random_table

PACKAGE = str(Path(persistd.__file__).parent)

# Lines of package code one call may run; no call on the random pairs
# below needs 3,000.
LINES = 200_000


def bounded(fn, *args, limit=LINES):
    """``fn(*args)``, failing once it has run more than ``limit`` lines of
    package code."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > limit:
                raise AssertionError(f"{fn.__name__} ran more than {limit} lines")
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        return fn(*args)
    finally:
        sys.settrace(previous)


def _pairs():
    rng = random.Random(31)
    for k in range(60):
        yield random_pool_pair(rng) if k % 3 else near_copies(rng, rng.randint(1, 3))


# Deep lattices, built by the test so that a broken family fails a family
# test first.  Cauchy stages 60 and 59 have about 60 bits of lattice
# between their largest and smallest entries.  They share 60 runs, so the
# search starts at its shared-run floor, the answer's class, and probes
# once.  Against stage 59 with closed upper ends, which shares no run, a
# search that bisects the bit lengths takes about 8,700 lines (11,600 with
# the certificate's matching), one that probes once per bit about 30,900.
# The pooled pair repeats runs whose endpoints have denominators up to 2^41,
# with an infinite one.
DEEP = (
    pytest.param(lambda: (cauchy_witness(60), cauchy_witness(59), 20_000), id="61x60"),
    pytest.param(lambda: (
        cauchy_witness(60), PModule.of(*(f"[-1/{2**k},1/{2**k}]" for k in range(60))), 20_000),
        id="61x60-closed"),
    pytest.param(lambda: (
        PModule.of(*["[1/2199023255552,3/1099511627776)"] * 3, *["(-5/3,7/16]"] * 2, "[1/7,inf)",
                   *["(0,1/1099511627776]"] * 4),
        PModule.of(*["[1/2199023255552,3/1099511627776)"] * 2, *["(-5/3,7/16]"] * 2,
                   *["[1/7,inf)"] * 3, "(0,1/1099511627776]", "(-1/3,5/2199023255552)")),
        id="10x9"),
)


@pytest.mark.parametrize("pair", [*_pairs(), *DEEP], ids=lambda p: f"{len(p[0])}x{len(p[1])}")
def test_kernel_finishes_and_agrees(pair):
    m, n, limit = (*(pair() if callable(pair) else pair), LINES)[:3]
    d = bounded(module_distance, m, n, limit=limit)
    assert d == copy_search(m, n)[0], (m.to_json(), n.to_json())
    step = Fraction(1, 8 * lattice_scale(m, n))
    if not d.is_finite:
        with pytest.raises(InfiniteDistanceError):
            bounded(distance_certificate, m, n)
        return
    cert = bounded(distance_certificate, m, n, limit=limit)
    assert cert.threshold == d and bounded(verify_certificate, m, n, cert)
    at = d.as_fraction
    for eps in {at, at + step, at / 2, max(at - step, Fraction(0))}:
        assert bounded(modules_eps_interleaved, m, n, eps) == (
            table_modules_eps_interleaved(m, n, eps)), (str(eps), m.to_json(), n.to_json())


def test_search_on_any_table():
    """The search finds the least class k whose top 4k + 1 the full probe
    passes, or +inf when none up to reach does, on key columns and to-zero
    entries of any small ints, repeated runs or not.  Their tables have
    entries 4k + 2, above class k's top, which no finite lattice entry is:
    a floor there must still move the bracket past the probe, and the empty
    matching is feasible only one class above the largest to-zero
    entry's.  Half the searches start at the shared-run floor, which holds
    on any such table."""
    rng = random.Random(5)
    for i in range(400):
        n_m, n_n = rng.randint(0, 5), rng.randint(0, 5)
        costs, keys, _ = random_table(rng, n_m, n_n, rng.randint(0, 14))
        dtz_m, dtz_n = keys[:2]
        counts = None if rng.random() < 0.5 else (
            [rng.randint(1, 3) for _ in range(n_m)], [rng.randint(1, 3) for _ in range(n_n)])
        reach = rng.randint(0, 4)
        top = bounded(search_top, keys, reach, counts, i % 2 == 1)
        least = next((k for k in range(reach + 1)
                      if full_probe(costs, dtz_m, dtz_n, 4 * k + 1, copies=counts) is not None), None)
        assert top == (None if least is None else 4 * least + 1), (keys, reach, counts)
