"""Finitely interval-decomposable persistence modules.

A module is a finite multiset of nonempty decorated intervals, stored in a
canonical sorted order so that equality of values is isomorphism of
modules.  All operations return new modules; values are immutable.

JSON format::

    {"summands": [{"interval": "[0,2)", "multiplicity": 1}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator

from .intervals import (
    Endpoint,
    ExtRational,
    Interval,
    Rational,
    _as_fraction,
    interval,
    make_interval,
    parse_interval,
)


# The most summand copies one module may hold, counted with multiplicity.
# Every copy is stored, so an entry that would pass this is refused before
# its copies are built.
_MAX_COPIES = 10**6


class ModuleFormatError(ValueError):
    """Module JSON that does not match the accepted schema."""


@dataclass(frozen=True)
class ClassMembership:
    """Which of the interval-decomposable classes a module belongs to.

    ``in_fid`` is always true here; ``in_ffid_cd`` is only set when bounds
    were supplied.  The zero module sits in every class.
    """

    in_fid: bool
    in_ffid: bool
    in_ffid_cd: bool | None
    is_ephemeral: bool
    is_zero: bool


class PModule:
    """A persistence module given by its interval summands (with multiplicity).

    The summand-wise transforms (radical, persistent submodule, contraction
    path) compute one image per distinct summand and repeat it for each
    copy."""

    __slots__ = ("_summands",)

    def __init__(self, summands: Iterable[Interval] = ()):
        items = []
        for s in summands:
            if not isinstance(s, Interval):
                raise TypeError(f"summands must be Interval values, got {s!r}")
            if s.is_empty:
                raise ValueError("the empty interval cannot be a summand")
            items.append(s)
        items.sort(key=Interval.canonical_key)
        object.__setattr__(self, "_summands", tuple(items))

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("PModule is immutable")

    @classmethod
    def zero(cls) -> "PModule":
        return cls(())

    @classmethod
    def of(cls, *texts: str) -> "PModule":
        """Build from interval text forms: ``PModule.of("[0,2)", "[3,3]")``."""
        return cls(parse_interval(t) for t in texts)

    @property
    def summands(self) -> tuple[Interval, ...]:
        return self._summands

    @property
    def is_zero(self) -> bool:
        return not self._summands

    def __len__(self) -> int:
        return len(self._summands)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._summands)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PModule):
            return NotImplemented
        return self._summands == other._summands

    def __hash__(self) -> int:
        return hash(self._summands)

    def __str__(self) -> str:
        if not self._summands:
            return "0"
        return " + ".join(str(s) for s in self._summands)

    def __repr__(self) -> str:
        return f"PModule.of({', '.join(repr(str(s)) for s in self._summands)})"

    def direct_sum(self, other: "PModule") -> "PModule":
        """Multiset union of the summands."""
        return PModule(self._summands + other._summands)

    def dimension_at(self, x: Rational | ExtRational) -> int:
        """Dimension of the fiber at x: how many summands contain x."""
        return sum(1 for s in self._summands if s.contains(x))

    def rank(self, a: Rational, b: Rational) -> int:
        """Rank of the structure map from a to b (a <= b): the number of
        summands containing the whole closed interval [a, b]."""
        a, b = _as_fraction(a), _as_fraction(b)
        if a > b:
            raise ValueError(f"rank needs a <= b, got {a} > {b}")
        span = interval(a, b, "[]")
        return sum(1 for s in self._summands if span.is_subset_of(s))

    def classify(self, bounds: tuple[Rational, Rational] | None = None) -> ClassMembership:
        in_ffid_cd = None
        if bounds is not None:
            c, d = _as_fraction(bounds[0]), _as_fraction(bounds[1])
            if c >= d:
                raise ValueError(f"bounds need c < d, got [{c},{d}]")
            box = interval(c, d, "[]")
            in_ffid_cd = all(s.is_subset_of(box) for s in self._summands)
        return ClassMembership(
            in_fid=True,
            in_ffid=all(s.is_finite for s in self._summands),
            in_ffid_cd=in_ffid_cd,
            is_ephemeral=all(s.is_singleton for s in self._summands),
            is_zero=self.is_zero,
        )

    def _map(self, f) -> "PModule":
        """Apply the summand transform ``f`` once per distinct summand and
        repeat its image for each copy; empty images are dropped."""
        out = []
        for s, run in groupby(self._summands):
            image = f(s)
            if not image.is_empty:
                out.extend([image] * len(list(run)))
        return PModule(out)

    def radical(self) -> "PModule":
        """Submodule generated by images of strictly earlier structure maps:
        drops singleton summands and opens closed finite lower endpoints."""
        return self._map(lambda s: make_interval(Endpoint(s.lo.value, False), s.hi))

    def persistent_submodule(self, p: Rational) -> "PModule":
        """Pointwise image of the structure map from p earlier: each summand
        becomes its intersection with its own right-shift by p."""
        p = _as_fraction(p)
        if p < 0:
            raise ValueError(f"persistence needs p >= 0, got {p}")
        return self._map(lambda s: s.intersect(s.shift(-p)))

    def contraction_path(self, t: Rational) -> "PModule":
        """The straight-line contraction onto the zero module, evaluated at
        time t in [0, 1]: each summand closes in on its midpoint at speed
        half its diameter.  Only defined for modules whose summands all
        have finite diameter (an unbounded summand is infinitely far from
        the zero module)."""
        t = _as_fraction(t)
        if not 0 <= t <= 1:
            raise ValueError(f"path parameter must lie in [0, 1], got {t}")
        if t == 0:
            return self
        if t == 1:
            return PModule.zero()

        def stage(s: Interval) -> Interval:
            if not s.is_finite:
                raise ValueError(
                    f"summand {s} has infinite diameter; no contraction path exists"
                )
            c = s.lo.value.as_fraction
            d = s.hi.value.as_fraction
            h = Fraction(d - c, 2)
            return interval(c + t * h, d - t * h, "[)")

        return self._map(stage)

    def to_json_obj(self) -> dict:
        summands = [
            {"interval": str(key), "multiplicity": len(list(grp))}
            for key, grp in groupby(self._summands)
        ]
        return {"summands": summands}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj) -> "PModule":
        if not isinstance(obj, dict) or "summands" not in obj:
            raise ModuleFormatError('module JSON must be {"summands": [...]}')
        entries = obj["summands"]
        if not isinstance(entries, list):
            raise ModuleFormatError('"summands" must be a list')
        out = []
        total = 0
        for pos, entry in enumerate(entries):
            if not isinstance(entry, dict) or "interval" not in entry:
                raise ModuleFormatError(
                    f'summand #{pos} must be {{"interval": ..., "multiplicity": ...}}'
                )
            mult = entry.get("multiplicity", 1)
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ModuleFormatError(
                    f"summand #{pos} multiplicity must be a positive integer, got {mult!r}"
                )
            text = entry["interval"]
            if not isinstance(text, str):
                raise ModuleFormatError(f"summand #{pos} interval must be a string")
            parsed = parse_interval(text)
            if parsed.is_empty:
                raise ModuleFormatError(f"summand #{pos} is empty: {text!r}")
            total += mult
            if total > _MAX_COPIES:
                raise ModuleFormatError(
                    f"summand #{pos} brings the module to {total} copies, "
                    f"more than the limit {_MAX_COPIES}"
                )
            out.extend([parsed] * mult)
        return cls(out)


def parse_module(data: str | bytes) -> PModule:
    """Parse the module JSON format; errors carry the failing position."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ModuleFormatError(f"invalid module JSON: {exc}") from exc
    return PModule.from_json_obj(obj)
