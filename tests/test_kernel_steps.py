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
    distance_certificate,
    module_distance,
    modules_eps_interleaved,
    verify_certificate,
)

from oracles import copy_search, lattice_scale, table_modules_eps_interleaved
from test_table_free import _near_copies, _random_pool_pair

PACKAGE = str(Path(persistd.__file__).parent)

# Lines of package code one call may run; no call below needs 3,000.
LINES = 200_000


def bounded(fn, *args):
    """``fn(*args)``, failing once it has run more than ``LINES`` lines of
    package code."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > LINES:
                raise AssertionError(f"{fn.__name__} ran more than {LINES} lines")
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
        yield _random_pool_pair(rng) if k % 3 else _near_copies(rng, rng.randint(1, 3))


@pytest.mark.parametrize("pair", list(_pairs()), ids=lambda p: f"{len(p[0])}x{len(p[1])}")
def test_kernel_finishes_and_agrees(pair):
    m, n = pair
    d = bounded(module_distance, m, n)
    assert d == copy_search(m, n)[0], (m.to_json(), n.to_json())
    step = Fraction(1, 8 * lattice_scale(m, n))
    if not d.is_finite:
        with pytest.raises(InfiniteDistanceError):
            bounded(distance_certificate, m, n)
        return
    cert = bounded(distance_certificate, m, n)
    assert cert.threshold == d and bounded(verify_certificate, m, n, cert)
    at = d.as_fraction
    for eps in {at, at + step, at / 2, max(at - step, Fraction(0))}:
        assert bounded(modules_eps_interleaved, m, n, eps) == (
            table_modules_eps_interleaved(m, n, eps)), (str(eps), m.to_json(), n.to_json())
