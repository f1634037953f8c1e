"""Nonzero morphisms between interval modules.

A nonzero map from the interval module on I to the one on J exists exactly
when J <= I in the interval order and the two intervals overlap.  When it
exists the map is unique up to scalar: the identity on the overlap and zero
elsewhere, so it is represented by its image, kernel and cokernel rather
than as a per-point function.
"""

from __future__ import annotations

from typing import NamedTuple

from .intervals import Interval, residuals


class NoNonzeroMapError(ValueError):
    """Requested the canonical map between intervals that only admit zero."""


class CanonicalMapParts(NamedTuple):
    image: Interval
    kernel: Interval
    cokernel: Interval


def has_nonzero_map(source: Interval, target: Interval) -> bool:
    """True iff a nonzero module map source -> target exists, i.e.
    target <= source and the intervals intersect."""
    if source.is_empty or target.is_empty:
        raise ValueError("nonzero-map test needs nonempty intervals")
    return target.leq(source) and not source.intersect(target).is_empty

def canonical_map_parts(source: Interval, target: Interval) -> CanonicalMapParts:
    """Image, kernel and cokernel of the canonical map source -> target.

    The image is the overlap; the kernel is what the source keeps above it,
    the cokernel what the target keeps below it.
    """
    if not has_nonzero_map(source, target):
        raise NoNonzeroMapError(f"no nonzero map from {source} to {target}")
    image = source.intersect(target)
    cokernel, kernel = residuals(target, source)
    return CanonicalMapParts(image=image, kernel=kernel, cokernel=cokernel)
