"""Exact interleaving and bottleneck distances for interval-decomposable
persistence modules with decorated endpoints.

Everything is computed in exact rational arithmetic; decorations
(open/closed endpoints) are honored everywhere they matter, which is at
exact thresholds.

``verify``, ``families`` and ``maps`` (the property suites, the witness
families and the map criteria) load on first use.  ``import persistd``
registers them in ``sys.modules`` and binds them here, but their code runs
only when one of their attributes, or one of the names this package
re-exports from them, is first read.  A distance runs none of it.
"""

import importlib.util
import sys


def _load_on_first_use(name: str):
    """Register submodule ``name`` with ``importlib.util.LazyLoader``: it is
    in ``sys.modules`` at once, and its code runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Registered before the eager imports below, so that sys.modules lists these
# three first.  A tool that walks sys.modules and rebinds functions (the
# benchmark's layer tracer) then loads them before it rebinds anything they
# import, so none of them keeps a rebound function after the tool undoes its
# changes.
families = _load_on_first_use("families")
maps = _load_on_first_use("maps")
verify = _load_on_first_use("verify")

from .bottleneck import (
    InfiniteDistanceError,
    MatchingCertificate,
    distance_certificate,
    module_distance,
    modules_eps_interleaved,
    verify_certificate,
)
from .interleaving import (
    are_eps_interleaved,
    ball_membership,
    distance_to_zero,
    interval_distance,
)
from .intervals import (
    EMPTY,
    Endpoint,
    ExtRational,
    Interval,
    IntervalParseError,
    MalformedIntervalError,
    NEG_INF,
    OrderingError,
    POS_INF,
    format_interval,
    interval,
    make_interval,
    parse_interval,
    residuals,
    singleton,
)
from .pmodule import ClassMembership, ModuleFormatError, PModule, parse_module


# The public names of the three modules registered above, served by
# ``__getattr__``.
_DEFERRED = {
    **dict.fromkeys(
        ("ClassMismatchError", "INCLUSIONS", "binary_sequence_module", "cauchy_witness",
         "cube_point_module", "open_subset_witness", "replicate", "staircase"),
        families,
    ),
    **dict.fromkeys(
        ("CanonicalMapParts", "NoNonzeroMapError", "canonical_map_parts", "has_nonzero_map"),
        maps,
    ),
    **dict.fromkeys(
        ("SUITE_NAMES", "SuiteReport", "bruteforce_module_distance",
         "candidate_scan_interval_distance", "replay", "run_suite"),
        verify,
    ),
}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})


__version__ = "0.1.0"

__all__ = [
    "CanonicalMapParts",
    "ClassMembership",
    "ClassMismatchError",
    "EMPTY",
    "Endpoint",
    "ExtRational",
    "INCLUSIONS",
    "InfiniteDistanceError",
    "Interval",
    "IntervalParseError",
    "MalformedIntervalError",
    "MatchingCertificate",
    "ModuleFormatError",
    "NEG_INF",
    "NoNonzeroMapError",
    "OrderingError",
    "PModule",
    "POS_INF",
    "SUITE_NAMES",
    "SuiteReport",
    "are_eps_interleaved",
    "ball_membership",
    "binary_sequence_module",
    "bruteforce_module_distance",
    "candidate_scan_interval_distance",
    "cauchy_witness",
    "cube_point_module",
    "distance_certificate",
    "distance_to_zero",
    "format_interval",
    "has_nonzero_map",
    "canonical_map_parts",
    "interval",
    "interval_distance",
    "make_interval",
    "module_distance",
    "modules_eps_interleaved",
    "open_subset_witness",
    "parse_interval",
    "parse_module",
    "replay",
    "replicate",
    "residuals",
    "run_suite",
    "singleton",
    "staircase",
    "verify_certificate",
]
