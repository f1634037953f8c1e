"""Finitely interval-decomposable persistence modules.

A module is a finite multiset of nonempty decorated intervals, stored as
(interval, count) runs in a canonical order, so that equality of values is
isomorphism of modules.  Values are immutable; operations return new ones.

JSON format::

    {"summands": [{"interval": "[0,2)", "multiplicity": 1}, ...]}
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from . import interleaving
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


# The most summand copies one module may hold, counted with multiplicity:
# the matcher and its certificates index every copy, not every run.
_MAX_COPIES = 10**6


def _check_copies(total: int) -> None:
    """Refuse a module of more than ``_MAX_COPIES`` summand copies."""
    if total > _MAX_COPIES:
        raise ValueError(f"a module holds at most {_MAX_COPIES} summand copies, got {total}")


def _run_key(s: Interval) -> tuple:
    """``s.canonical_key()`` of a nonempty ``s``, flat and led by ints: per
    endpoint its sign, the floor of its value times 2**64, the value and
    its decoration.  So only values that agree to 64 binary places compare
    as Fractions, and none does when both keys hold the same value object,
    as ``parse_module`` arranges for endpoints written the same way; the
    order and the equality are those of ``canonical_key``."""
    lo, hi = s.lo, s.hi
    a, b = lo.value, hi.value
    x, y = a.value, b.value
    return (a.sign, (x.numerator << 64) // x.denominator, x, 0 if lo.closed else 1,
            b.sign, (y.numerator << 64) // y.denominator, y, 1 if hi.closed else 0)


def _canonical_runs(pairs) -> tuple[tuple[tuple[Interval, int], ...], int]:
    """(summand, count) pairs checked, sorted by ``_run_key``, equal
    summands merged, and their total count; more than ``_MAX_COPIES``
    copies in all are refused."""
    keyed = []
    total = 0
    for s, k in pairs:
        if not isinstance(s, Interval):
            raise TypeError(f"summands must be Interval values, got {s!r}")
        if s.lo is None:
            raise ValueError("the empty interval cannot be a summand")
        keyed.append((_run_key(s), s, k))
        total += k
    _check_copies(total)
    runs = []
    for key, s, k in sorted(keyed, key=itemgetter(0)):
        if runs and key == runs[-1][0]:
            runs[-1][2] += k
        else:
            runs.append([key, s, k])
    return tuple((s, k) for _, s, k in runs), total


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
    run (interval, count) per distinct summand.  Every operation works on
    the runs; only ``summands`` expands them, for the matcher.  ``_len``
    is the number of copies, and ``_view`` caches the runs' integer view
    for the distance kernel (see ``_lattice_view``)."""

    __slots__ = ("_runs", "_len", "_view")

    def __init__(self, summands: Iterable[Interval] = ()):
        self._set_runs(zip(summands, repeat(1)))

    @classmethod
    def _of_runs(cls, runs) -> "PModule":
        """The module of (summand, count) pairs with positive counts."""
        out = object.__new__(cls)
        out._set_runs(runs)
        return out

    def _set_runs(self, pairs) -> None:
        runs, total = _canonical_runs(pairs)
        object.__setattr__(self, "_runs", runs)
        object.__setattr__(self, "_len", total)
        object.__setattr__(self, "_view", None)

    def _lattice_view(self) -> tuple:
        """``interleaving._view`` of the runs' summands, built on first use
        and kept.  It is derived from ``_runs``, so equality, hashing, copies
        and pickles ignore it."""
        view = self._view
        if view is None:
            view = interleaving._view([s for s, _ in self._runs])
            object.__setattr__(self, "_view", view)
        return view

    def _lcm(self, limit: int | None = None) -> int:
        """The lcm of the runs' finite denominators, ``_lattice_view()[0]``:
        the cached view's, else read off the runs without building a view.
        An infinity holds the value 0, of denominator 1.  With ``limit``, the
        fold stops as soon as it passes ``limit`` bits, and returns a divisor
        of the lcm that is longer: the cost of the fold grows with the
        square of the lcm's bits."""
        if self._view is not None:
            return self._view[0]
        lcm = 1
        for den in {x.value.denominator for s, _ in self._runs for x in (s.lo.value, s.hi.value)}:
            lcm = math.lcm(lcm, den)
            if limit is not None and lcm.bit_length() > limit:
                break
        return lcm

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("PModule is immutable")

    def __reduce__(self):
        return (PModule._of_runs, (self._runs,))

    @classmethod
    def zero(cls) -> "PModule":
        return cls(())

    @classmethod
    def of(cls, *texts: str) -> "PModule":
        """Build from interval text forms: ``PModule.of("[0,2)", "[3,3]")``."""
        return cls(parse_interval(t) for t in texts)

    @property
    def summands(self) -> tuple[Interval, ...]:
        """Every summand copy, in the canonical order of certificate indices."""
        return tuple(chain.from_iterable(repeat(s, k) for s, k in self._runs))

    @property
    def is_zero(self) -> bool:
        return not self._runs

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.summands)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PModule):
            return NotImplemented
        return self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __str__(self) -> str:
        return " + ".join(map(str, self.summands)) or "0"

    def __repr__(self) -> str:
        return f"PModule.of({', '.join(repr(str(s)) for s in self.summands)})"

    def direct_sum(self, other: "PModule") -> "PModule":
        """Multiset union of the summands."""
        return PModule._of_runs(self._runs + other._runs)

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
        return {"summands": [{"interval": str(s), "multiplicity": k} for s, k in self._runs]}

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
        points = {}  # one value per distinct endpoint text
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
            parsed = parse_interval(text, points)
            if parsed.is_empty:
                raise ModuleFormatError(f"summand #{pos} is empty: {text!r}")
            total += mult
            if total > _MAX_COPIES:
                raise ModuleFormatError(
                    f"summand #{pos} brings the module to {total} copies, "
                    f"more than the limit {_MAX_COPIES}"
                )
            runs.append((parsed, mult))
        return cls._of_runs(runs)


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
