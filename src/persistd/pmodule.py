"""Finitely interval-decomposable persistence modules.

A module is a finite multiset of nonempty decorated intervals, stored as
(ends, count) runs in a canonical order, so that equality of values is
isomorphism of modules: ``ends`` holds each endpoint's sign, reduced
numerator and denominator and decoration as ints (``intervals._ends``).
``parse_module`` and ``PModule.of`` fill the runs straight from the text,
and the witness families (``families``) from their values; the distance
kernel reads only these ints, and ``Interval`` objects are built, once,
when something reads them.  Values are immutable; operations return new ones.

JSON format::

    {"summands": [{"interval": "[0,2)", "multiplicity": 1}, ...]}
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

from . import interleaving
from .intervals import (
    ExtRational,
    Interval,
    Rational,
    _as_fraction,
    _ends,
    _format_ends,
    _interval_of,
    _parse_ends,
    interval,
)


# The most summand copies one module may hold, counted with multiplicity:
# the matcher and its certificates index every copy, not every run.
_MAX_COPIES = 10**6


def _check_copies(total: int) -> None:
    """Refuse a module of more than ``_MAX_COPIES`` summand copies."""
    if total > _MAX_COPIES:
        raise ValueError(f"a module holds at most {_MAX_COPIES} summand copies, got {total}")


def _floor_key(e: tuple) -> tuple:
    """The sort key of a run's ends (``intervals._ends``) when no
    denominator passes 32 bits: per endpoint its sign, floor(v * 2**64) and
    its decoration.  Distinct values of denominators under 2**32 differ by
    more than 2**-64, so their floors differ."""
    return e[0], (e[1] << 64) // e[2], e[3], e[4], (e[5] << 64) // e[6], e[7]


def _sort_key(ends):
    """An exact int sort key of the runs of ``ends``, in ``canonical_key``
    order: ``_floor_key``, with floor(v * 4**L) after each (sign, floor)
    that a value of denominator past 32 bits holds, L the bits of the
    longest denominator.  Distinct values of denominators under 2**L differ
    by more than 4**-L, and only values that share a floor with a long
    denominator pay for the long shift."""
    crowded = set()
    for e in ends:
        if e[2] >> 32 or e[6] >> 32:
            k = _floor_key(e)
            crowded.update(at for at, den in ((k[:2], e[2]), (k[3:5], e[6])) if den >> 32)
    if not crowded:
        return _floor_key
    shift = 2 * max(d for e in ends for d in (e[2], e[6])).bit_length()

    def fine(at, num, den):
        return (num << shift) // den if at in crowded else 0

    def key(e):
        k = _floor_key(e)
        return (*k[:2], fine(k[:2], e[1], e[2]), *k[2:5], fine(k[3:5], e[5], e[6]), k[5])

    return key


def _summand_ends(s) -> tuple:
    """The ``intervals._ends`` of a summand, which must be a nonempty
    ``Interval``."""
    if not isinstance(s, Interval):
        raise TypeError(f"summands must be Interval values, got {s!r}")
    if s.lo is None:
        raise ValueError("the empty interval cannot be a summand")
    return _ends(s)


def _canonical(runs) -> tuple[tuple, int]:
    """(ends, count) pairs of ``intervals._ends`` tuples with equal ends
    merged, sorted in ``Interval.canonical_key`` order, and their total
    count; more than ``_MAX_COPIES`` copies in all are refused."""
    counts = {}
    for e, k in runs:
        counts[e] = counts.get(e, 0) + k
    total = sum(counts.values())
    _check_copies(total)
    return tuple((e, counts[e]) for e in sorted(counts, key=_sort_key(counts))), total


class ModuleFormatError(ValueError):
    """Module JSON that does not match the accepted schema."""


class ClassMembership(NamedTuple):
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
    """A persistence module: a direct sum of interval modules, kept as one
    run (ends, count) per distinct summand, its ``intervals._ends`` ints.
    ``_runs`` projects the runs to (Interval, count) pairs when something
    reads them, and ``summands`` expands those, for the matcher.  ``_len``
    is the number of copies, and ``_view`` caches the runs' integer view for
    the distance kernel (see ``_lattice_view``)."""

    __slots__ = ("_ints", "_len", "_view", "_objs")

    def __init__(self, summands: Iterable[Interval] = ()):
        self._set(zip(map(_summand_ends, summands), repeat(1)))

    @classmethod
    def _of_runs(cls, runs) -> "PModule":
        """The module of (summand, count) pairs with positive counts."""
        return cls._of_ints((_summand_ends(s), k) for s, k in runs)

    @classmethod
    def _of_ints(cls, runs) -> "PModule":
        """The module of (ends, count) pairs with positive counts."""
        out = object.__new__(cls)
        out._set(runs)
        return out

    def _set(self, runs) -> None:
        runs, total = _canonical(runs)
        object.__setattr__(self, "_ints", runs)
        object.__setattr__(self, "_len", total)
        object.__setattr__(self, "_view", None)
        object.__setattr__(self, "_objs", None)

    @property
    def _runs(self) -> tuple[tuple[Interval, int], ...]:
        """The runs as (Interval, count) pairs, projected on first read and
        kept in ``_objs``."""
        runs = self._objs
        if runs is None:
            runs = tuple((_interval_of(e), k) for e, k in self._ints)
            object.__setattr__(self, "_objs", runs)
        return runs

    def _lattice_view(self) -> tuple:
        """``interleaving._view`` of the runs' ends, built on first use and
        kept.  It is derived from ``_ints``, so equality, hashing, copies
        and pickles ignore it."""
        view = self._view
        if view is None:
            view = interleaving._view([e for e, _ in self._ints])
            object.__setattr__(self, "_view", view)
        return view

    def _lcm(self, limit: int) -> int:
        """The lcm of the runs' denominators, ``_lattice_view()[0]``: the
        cached view's, else read off the runs without building a view.  An
        infinity holds the value 0, of denominator 1.  The fold stops as
        soon as it passes ``limit`` bits, and returns a divisor of the lcm
        that is longer: the cost of the fold grows with the square of the
        lcm's bits."""
        if self._view is not None:
            return self._view[0]
        lcm = 1
        for den in {e[i] for e, _ in self._ints for i in (2, 6)}:
            lcm = math.lcm(lcm, den)
            if lcm.bit_length() > limit:
                break
        return lcm

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("PModule is immutable")

    def __reduce__(self):
        return (PModule._of_ints, (self._ints,))

    @classmethod
    def zero(cls) -> "PModule":
        return cls(())

    @classmethod
    def of(cls, *texts: str) -> "PModule":
        """Build from interval text forms: ``PModule.of("[0,2)", "[3,3]")``.
        The runs are filled straight from the text, as ``parse_module``
        fills them."""
        points = {}  # the ints of each distinct endpoint text
        runs = []
        for text in texts:
            ends = _parse_ends(text, points)
            if ends is None:
                raise ValueError("the empty interval cannot be a summand")
            runs.append((ends, 1))
        return cls._of_ints(runs)

    @property
    def summands(self) -> tuple[Interval, ...]:
        """Every summand copy, in the canonical order of certificate indices."""
        return tuple(chain.from_iterable(repeat(s, k) for s, k in self._runs))

    @property
    def is_zero(self) -> bool:
        return not self._ints

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.summands)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PModule):
            return NotImplemented
        return self._ints == other._ints

    def __hash__(self) -> int:
        return hash(self._ints)

    def __str__(self) -> str:
        return " + ".join(map(str, self.summands)) or "0"

    def __repr__(self) -> str:
        return f"PModule.of({', '.join(repr(str(s)) for s in self.summands)})"

    def direct_sum(self, other: "PModule") -> "PModule":
        """Multiset union of the summands."""
        return PModule._of_ints(self._ints + other._ints)

    def dimension_at(self, x: Rational | ExtRational) -> int:
        """Dimension of the fiber at x: how many summands contain x."""
        return sum(k for s, k in self._runs if s.contains(x))

    def rank(self, a: Rational, b: Rational) -> int:
        """Rank of the structure map from a to b (a <= b): the number of
        summands containing the whole closed interval [a, b]."""
        a, b = _as_fraction(a), _as_fraction(b)
        if a > b:
            raise ValueError(f"rank needs a <= b, got {a} > {b}")
        span = interval(a, b, "[]")
        return sum(k for s, k in self._runs if span.is_subset_of(s))

    def classify(self, bounds: tuple[Rational, Rational] | None = None) -> ClassMembership:
        in_ffid_cd = None
        if bounds is not None:
            c, d = _as_fraction(bounds[0]), _as_fraction(bounds[1])
            if c >= d:
                raise ValueError(f"bounds need c < d, got [{c},{d}]")
            box = interval(c, d, "[]")
            in_ffid_cd = all(s.is_subset_of(box) for s, _ in self._runs)
        return ClassMembership(
            in_fid=True,
            in_ffid=all(s.is_finite for s, _ in self._runs),
            in_ffid_cd=in_ffid_cd,
            is_ephemeral=all(s.is_singleton for s, _ in self._runs),
            is_zero=self.is_zero,
        )

    def _map(self, f) -> "PModule":
        """Apply the summand transform ``f`` once per run; each image keeps
        its run's count, and empty images are dropped."""
        return PModule._of_runs(
            (image, k) for s, k in self._runs if not (image := f(s)).is_empty
        )

    def radical(self) -> "PModule":
        """Submodule generated by images of strictly earlier structure maps:
        drops singleton summands and opens closed finite lower endpoints."""
        return PModule._of_ints(((*e[:3], True, *e[4:]), k)
                                for e, k in self._ints if e[:3] != e[4:7])

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
        return {"summands": [{"interval": _format_ends(e), "multiplicity": k}
                             for e, k in self._ints]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj) -> "PModule":
        if not isinstance(obj, dict) or "summands" not in obj:
            raise ModuleFormatError('module JSON must be {"summands": [...]}')
        entries = obj["summands"]
        if not isinstance(entries, list):
            raise ModuleFormatError('"summands" must be a list')
        runs = []
        total = 0
        points = {}  # the ints of each distinct endpoint text
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
            ends = _parse_ends(text, points)
            if ends is None:
                raise ModuleFormatError(f"summand #{pos} is empty: {text!r}")
            total += mult
            if total > _MAX_COPIES:
                raise ModuleFormatError(
                    f"summand #{pos} brings the module to {total} copies, "
                    f"more than the limit {_MAX_COPIES}"
                )
            runs.append((ends, mult))
        return cls._of_ints(runs)


def parse_module(data: str | bytes) -> PModule:
    """Parse the module JSON format; errors carry the failing position."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ModuleFormatError(f"invalid module JSON: {exc}") from exc
    except RecursionError:
        raise ModuleFormatError("invalid module JSON: nested too deeply") from None
    return PModule.from_json_obj(obj)
