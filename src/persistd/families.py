"""Generators for the constructive witness families.

Each generator returns a finite module evidencing a structural fact about
the spaces of interval-decomposable modules:

* ``cube_point_module`` - an isometric embedding of an L-infinity cube,
* ``binary_sequence_module`` - an uncountable 1-separated family (finite
  truncations of it), so the bigger spaces are not separable,
* ``cauchy_witness`` - a Cauchy sequence whose limit leaves the class,
* ``staircase`` - finite stages of a module infinitely far from zero,
* ``replicate`` - arbitrarily many modules pairwise half-a-diameter apart,
  so no finite cover at small radius exists,
* ``open_subset_witness`` - a module just outside a subclass but within
  any given distance of a member, so the inclusion is not open.

Infinite direct sums are exposed only as finite truncations with an
explicit ``trunc`` count.  Each generator fills its module's int runs
(``intervals._ends``) through ``intervals._finite_ends``; none builds an
``Interval``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .intervals import Interval, Rational, _as_fraction, _finite_ends
from .pmodule import _MAX_COPIES, PModule, _check_copies


INCLUSIONS = (
    "ffid_cd_in_ffid",
    "ffid_in_cfid",
    "fid_in_cid",
    "fid_in_pfd",
    "cid_in_rid",
    "pfd_in_rid",
)


# The deepest Cauchy stage.  Stage n has n + 1 summands with denominators up
# to 2**n, so its size grows as n**2 whatever the copy bound allows.
_MAX_CAUCHY_STAGE = 1000


class ClassMismatchError(ValueError):
    """The module is not in the source class of the requested inclusion."""


def cube_point_module(n: int, coords: Sequence[Rational]) -> PModule:
    """The module for a point of the cube [0, eps]^n with eps < 1/(100n):
    summand i is [i/n, i/n + 1/(10n) + x_i).  The map is an isometry for
    the L-infinity metric on coordinates."""
    if n < 1:
        raise ValueError(f"cube dimension must be positive, got {n}")
    _check_copies(n)
    xs = [_as_fraction(x) for x in coords]
    if len(xs) != n:
        raise ValueError(f"expected {n} coordinates, got {len(xs)}")
    bound = Fraction(1, 100 * n)
    for x in xs:
        if not 0 <= x < bound:
            raise ValueError(
                f"coordinate {x} out of range [0, {bound}) for dimension {n}"
            )
    return PModule._of_ints(
        (_finite_ends(Fraction(i, n), Fraction(10 * i + 1, 10 * n) + x, "[)"), 1)
        for i, x in enumerate(xs, start=1)
    )


def binary_sequence_module(bits: Sequence[int]) -> PModule:
    """The module of a finite binary sequence: position n contributes
    [2n-1, 2n+1) for a 0 bit and [2(n-1), 2n+2) for a 1 bit.  Distinct
    equal-length sequences are exactly distance 1 apart."""
    if not bits:
        raise ValueError("the bit sequence must be nonempty")
    _check_copies(len(bits))
    out = []
    for pos, bit in enumerate(bits, start=1):
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r}")
        lo, hi = (2 * pos - 1, 2 * pos + 1) if bit == 0 else (2 * (pos - 1), 2 * pos + 2)
        out.append((_finite_ends(lo, hi, "[)"), 1))
    return PModule._of_ints(out)


def cauchy_witness(n: int) -> PModule:
    """Stage n of the Cauchy sequence without a pointwise-finite limit:
    the sum of [-1/2^k, 1/2^k) for k = 0..n."""
    if n < 0:
        raise ValueError(f"stage must be nonnegative, got {n}")
    if n > _MAX_CAUCHY_STAGE:
        raise ValueError(f"stage must be at most {_MAX_CAUCHY_STAGE}, got {n}")
    return PModule._of_ints(
        (_finite_ends(Fraction(-1, 2**k), Fraction(1, 2**k), "[)"), 1) for k in range(n + 1)
    )


def staircase(n: int) -> PModule:
    """The sum of [0, k) for k = 1..n; its distance to zero grows as n/2."""
    if n < 1:
        raise ValueError(f"staircase height must be positive, got {n}")
    if n > _MAX_COPIES:
        raise ValueError(f"staircase height must be at most {_MAX_COPIES}, got {n}")
    return PModule._of_ints((_finite_ends(0, k, "[)"), 1) for k in range(1, n + 1))


def replicate(summand: Interval, count: int) -> PModule:
    """count copies of one interval; replicas of different counts are
    exactly half the diameter apart."""
    if summand.is_empty:
        raise ValueError("replicate needs a nonempty interval")
    if not isinstance(count, int) or isinstance(count, bool):
        raise TypeError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return PModule._of_runs([(summand, count)] if count else [])


def open_subset_witness(
    module: PModule,
    inclusion: str,
    eps: Rational,
    trunc: int,
    bounds: tuple[Rational, Rational] | None = None,
) -> PModule:
    """A module in the larger class, outside the smaller one, at distance
    exactly eps from ``module`` (for modules whose summands stay clear of
    the added tails).  ``trunc`` truncates the infinite direct sums; the
    ffid_cd_in_ffid case needs the class bounds [c, d]."""
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError(f"witness needs eps > 0, got {eps}")
    if trunc < 1:
        raise ValueError(f"truncation count must be positive, got {trunc}")
    if trunc > _MAX_COPIES:
        raise ValueError(f"truncation count must be at most {_MAX_COPIES}, got {trunc}")
    if inclusion not in INCLUSIONS:
        raise ValueError(f"unknown inclusion {inclusion!r}; choose from {INCLUSIONS}")

    if inclusion == "ffid_cd_in_ffid":
        if bounds is None:
            raise ClassMismatchError("ffid_cd_in_ffid needs the class bounds [c, d]")
        c, d = _as_fraction(bounds[0]), _as_fraction(bounds[1])
        if module.classify(bounds=(c, d)).in_ffid_cd is not True:
            raise ClassMismatchError(
                f"module has a summand outside [{c},{d}]"
            )
        extra = [(_finite_ends(d, d + 2 * eps, "[)"), 1)]
    elif inclusion == "ffid_in_cfid" and not module.classify().in_ffid:
        raise ClassMismatchError("module has an unbounded summand")
    else:
        # trunc tails: ``direct_sum``'s refusal, before they are built and sorted.
        _check_copies(len(module) + trunc)
        extra = ([(_finite_ends(k, k + 2 * eps, "[)"), 1) for k in range(1, trunc + 1)]
                 if inclusion == "fid_in_pfd" else [(_finite_ends(0, 2 * eps, "[)"), trunc)])
    return module.direct_sum(PModule._of_ints(extra))
