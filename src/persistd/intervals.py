"""Exact decorated-interval arithmetic.

Every value is built from exact rationals (``fractions.Fraction``); there is
no floating point anywhere.  An interval carries a decoration (open/closed)
on each endpoint, which is what decides morphism existence at exact
thresholds, so all comparisons are made through two total orders on
(value, decoration) pairs:

* the *lower-bound order*, where at equal values a closed endpoint precedes
  an open one (``[0`` starts before ``(0``), and
* the *upper-bound order*, where at equal values an open endpoint precedes
  a closed one (``2)`` ends before ``2]``).

Infinite endpoints are always open: intervals are subsets of the real line.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import eq, ge, gt, le, lt


class MalformedIntervalError(ValueError):
    """An endpoint combination that cannot describe a real interval."""


class IntervalParseError(ValueError):
    """Interval text that does not match the accepted grammar."""


class OrderingError(ValueError):
    """A relation precondition (such as J <= I) does not hold."""


Rational = Fraction | int


# One endpoint in the text grammar: an optionally signed integer or p/q, or
# an infinity, with optional surrounding whitespace.
_POINT = r"\s*(?:([+-]?[0-9]+)(?:/([0-9]+))?|(\+?inf|-inf))\s*"
_POINT_TEXT = re.compile(_POINT)


def _parse_fraction(text: str) -> Fraction:
    """Rational text in the documented grammar: an optionally signed integer
    or p/q, with optional surrounding whitespace.  Decimals, exponents and
    digit underscores are refused, so short text cannot ask for a huge power
    of ten.  A zero denominator raises ``ZeroDivisionError``."""
    match = _POINT_TEXT.fullmatch(text)
    if match is None or match[3]:
        raise ValueError(f"expected p/q or an integer, got {text!r}")
    num, den = match[1], match[2]
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _as_int(x: int | str) -> int:
    """An int, or integer text in the grammar of ``_parse_fraction``: an
    optionally signed run of ASCII digits with optional surrounding
    whitespace.  Digit underscores, non-ASCII digits and floats, all of
    which ``int()`` takes, are refused, and so are ``True`` and ``False``."""
    if isinstance(x, str):
        match = _POINT_TEXT.fullmatch(x)
        if match is None or not match[1] or match[2]:
            raise ValueError(f"expected an integer, got {x!r}")
        return int(match[1])
    if not isinstance(x, int):
        raise TypeError(f"expected an int or integer text, got {x!r}")
    if isinstance(x, bool):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _as_fraction(x: Rational | str) -> Fraction:
    if isinstance(x, str):
        return _parse_fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass Fraction, int or 'p/q'")
    return Fraction(x)


def _above(a: ExtRational, b: ExtRational) -> int:
    """Positive, zero or negative as ``a`` lies above, at or below ``b``:
    one int comparison, with no Fraction comparisons."""
    if a.sign or b.sign:
        return a.sign - b.sign
    x, y = a.value, b.value
    return x.numerator * y.denominator - y.numerator * x.denominator


def _comparison(op):
    """The ExtRational comparison ``op(_above(self, other), 0)``."""

    def compare(self, other):
        if not isinstance(other, ExtRational):
            return NotImplemented
        return op(_above(self, other), 0)

    return compare


class ExtRational:
    """A point of the extended rational line: -inf < every p/q < +inf.

    Finite values are reduced fractions; the infinities are singleton-like
    values that compare outside every fraction.  Adding or subtracting a
    finite rational leaves an infinity unchanged.

    Comparisons are between ``ExtRational`` values only: ``<``, ``<=``,
    ``>`` and ``>=`` against a plain number raise ``TypeError``, and
    ``==`` against one is ``False`` (``ExtRational(1) == 1`` is false).
    Wrap the number first: ``x < ExtRational(2)``.
    """

    __slots__ = ("sign", "value")

    def __init__(self, value: Rational | str | "ExtRational" = 0):
        if isinstance(value, ExtRational):
            sign, val = value.sign, value.value
        elif isinstance(value, str):
            match = _POINT_TEXT.fullmatch(value)
            try:
                if match is None:
                    raise ValueError(value)
                sign, num, den = _point(*match.groups())
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"not an extended rational: {value!r}") from None
            val = Fraction(num, den)
        else:
            sign, val = 0, _as_fraction(value)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "value", val)

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("ExtRational is immutable")

    # copy and pickle rebuild each value class through its constructor: the
    # default restores slots with setattr, which the guard refuses.
    def __reduce__(self):
        return (ExtRational, (str(self),))

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    @property
    def as_fraction(self) -> Fraction:
        if self.sign != 0:
            raise ValueError("infinite value has no fraction form")
        return self.value

    def _key(self) -> tuple[int, Fraction]:
        return (self.sign, self.value)

    __eq__, __lt__, __le__, __gt__, __ge__ = map(_comparison, (eq, lt, le, gt, ge))

    def __hash__(self) -> int:
        return hash(self._key())

    def __add__(self, other: "Rational | ExtRational") -> "ExtRational":
        if isinstance(other, ExtRational):
            if self.sign and other.sign and self.sign != other.sign:
                raise ArithmeticError("inf + -inf is undefined")
            if self.sign or other.sign:
                return self if self.sign else other
            return ExtRational(self.value + other.value)
        if self.sign:
            return self
        return ExtRational(self.value + _as_fraction(other))

    __radd__ = __add__

    def __sub__(self, other: "Rational | ExtRational") -> "ExtRational":
        if isinstance(other, ExtRational):
            return self + (-other)
        return self + (-_as_fraction(other))

    def __neg__(self) -> "ExtRational":
        if self.sign:
            return _ext(-self.sign, self.value)
        return ExtRational(-self.value)

    def __abs__(self) -> "ExtRational":
        return -self if self._key() < (0, Fraction(0)) else self

    def half(self) -> "ExtRational":
        if self.sign:
            return self
        return ExtRational(self.value / 2)

    def gap(self, other: "ExtRational") -> "ExtRational":
        """Endpoint displacement: |x - y|, zero between equal infinities,
        infinite when exactly one side is (or the infinities differ)."""
        if self.sign or other.sign:
            return ExtRational(0) if self.sign == other.sign else POS_INF
        return abs(ExtRational(self.value - other.value))

    def __str__(self) -> str:
        if self.sign > 0:
            return "inf"
        if self.sign < 0:
            return "-inf"
        return str(self.value)

    def __repr__(self) -> str:
        return f"ExtRational({str(self)!r})"


def _unchecked(cls):
    """A constructor of the two-slot value class ``cls`` that sets the slots
    and checks nothing: for callers that have made the checks already."""
    first, second = (getattr(cls, name).__set__ for name in cls.__slots__)

    def make(a, b):
        out = object.__new__(cls)
        first(out, a)
        second(out, b)
        return out

    return make


_ext = _unchecked(ExtRational)
NEG_INF = _ext(-1, Fraction(0))
POS_INF = _ext(1, Fraction(0))
ZERO = ExtRational(0)


class Endpoint:
    """An interval endpoint: an extended rational plus an open/closed flag."""

    __slots__ = ("value", "closed")

    def __init__(self, value: ExtRational, closed: bool):
        if not isinstance(value, ExtRational):
            value = ExtRational(value)
        if closed and not value.is_finite:
            raise MalformedIntervalError(f"infinite endpoint {value} must be open")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "closed", closed)

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("Endpoint is immutable")

    def __reduce__(self):
        return (Endpoint, (self.value, self.closed))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.closed) == (other.value, other.closed)

    def __hash__(self) -> int:
        return hash((self.value, self.closed))

    def flipped(self) -> "Endpoint":
        return Endpoint(self.value, not self.closed)

    def __repr__(self) -> str:
        return f"Endpoint({self.value}, {'closed' if self.closed else 'open'})"


_endpoint = _unchecked(Endpoint)


def lower_key(e: Endpoint) -> tuple[ExtRational, int]:
    """Sort key for endpoints used as lower bounds: closed before open."""
    return (e.value, 0 if e.closed else 1)


def upper_key(e: Endpoint) -> tuple[ExtRational, int]:
    """Sort key for endpoints used as upper bounds: open before closed."""
    return (e.value, 1 if e.closed else 0)


class Interval:
    """A decorated interval, or the empty interval (both endpoints ``None``).

    The pair realizes ``{x : lo < x < hi}`` with strictness at an endpoint
    iff it is open.  Construct through :func:`make_interval`, which
    normalizes point-free endpoint pairs to the empty interval.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Endpoint | None, hi: Endpoint | None):
        if (lo is None) != (hi is None):
            raise MalformedIntervalError("both endpoints or neither")
        if lo is not None:
            above = _above(lo.value, hi.value)
            if above > 0:
                raise MalformedIntervalError(
                    f"lower endpoint {lo.value} exceeds upper endpoint {hi.value}")
            if above == 0 and not (lo.closed and hi.closed):
                raise MalformedIntervalError(
                    "an equal-value endpoint pair is only valid when both are closed; "
                    "use make_interval to normalize"
                )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("Interval is immutable")

    def __reduce__(self):
        return (Interval, (self.lo, self.hi))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @property
    def is_empty(self) -> bool:
        return self.lo is None

    @property
    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo.value == self.hi.value

    @property
    def is_finite(self) -> bool:
        """True when the interval has finite diameter (the empty interval counts)."""
        return self.is_empty or (self.lo.value.is_finite and self.hi.value.is_finite)

    def contains(self, x: Rational | ExtRational) -> bool:
        if self.is_empty:
            return False
        x = x if isinstance(x, ExtRational) else ExtRational(x)
        lo, hi = self.lo, self.hi
        above = lo.value < x or (lo.value == x and lo.closed)
        below = x < hi.value or (x == hi.value and hi.closed)
        return above and below

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo = max(self.lo, other.lo, key=lower_key)
        hi = min(self.hi, other.hi, key=upper_key)
        return make_interval(lo, hi)

    def is_subset_of(self, other: "Interval") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return (
            lower_key(other.lo) <= lower_key(self.lo)
            and upper_key(self.hi) <= upper_key(other.hi)
        )

    def leq(self, other: "Interval") -> bool:
        """The interval partial order: A <= B iff every point of A has a
        point of B above it and every point of B has a point of A below it.

        Empty intervals follow the literal quantifier reading:
        empty <= empty, and the relation fails between empty and nonempty.
        """
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return (
            lower_key(self.lo) <= lower_key(other.lo)
            and upper_key(self.hi) <= upper_key(other.hi)
        )

    def strictly_precedes(self, other: "Interval") -> bool:
        """True iff every point of self is <= every point of other
        (vacuously true when either side is empty)."""
        if self.is_empty or other.is_empty:
            return True
        return self.hi.value <= other.lo.value

    def diameter(self) -> ExtRational:
        """Endpoint spread, decorations ignored; 0 for empty and singletons."""
        if self.is_empty:
            return ZERO
        return self.hi.value - self.lo.value

    def shift(self, eps: Rational) -> "Interval":
        """x lies in the shift by eps iff x + eps lies in the original;
        both endpoint values decrease by eps, decorations are kept."""
        if self.is_empty:
            return self
        eps = _as_fraction(eps)
        return Interval(
            Endpoint(self.lo.value - eps, self.lo.closed),
            Endpoint(self.hi.value - eps, self.hi.closed),
        )

    def canonical_key(self):
        """Deterministic sort key; empty sorts first."""
        if self.is_empty:
            return ((NEG_INF, -1), (NEG_INF, -1))
        return (lower_key(self.lo), upper_key(self.hi))

    def __str__(self) -> str:
        return format_interval(self)

    def __repr__(self) -> str:
        return f"Interval({format_interval(self)!r})"


_interval = _unchecked(Interval)
EMPTY = Interval(None, None)


def make_interval(lo: Endpoint, hi: Endpoint) -> Interval:
    """Normalized construction: returns the empty interval whenever the
    endpoint pair describes no points (lo above hi, or equal values not
    both closed).  Closed infinite endpoints are rejected at
    :class:`Endpoint` construction."""
    above = _above(lo.value, hi.value)
    if above > 0 or above == 0 and not (lo.closed and hi.closed):
        return EMPTY
    return _interval(lo, hi)


def interval(lo: Rational | str, hi: Rational | str, bounds: str = "[)") -> Interval:
    """Convenience constructor: ``interval(0, 2, "[)")`` is ``[0,2)``."""
    if len(bounds) != 2 or bounds[0] not in "[(" or bounds[1] not in ")]":
        raise ValueError(f"bounds must look like '[)' or '(]', got {bounds!r}")
    return make_interval(
        Endpoint(ExtRational(lo), bounds[0] == "["),
        Endpoint(ExtRational(hi), bounds[1] == "]"),
    )


def singleton(r: Rational | str) -> Interval:
    return interval(r, r, "[]")


def residuals(j: Interval, i: Interval) -> tuple[Interval, Interval]:
    """For J <= I, split off what each interval keeps outside the overlap:
    returns (J without I∩J, I without I∩J).  Both parts are intervals, and
    the first strictly precedes the overlap, which strictly precedes the
    second."""
    if j.is_empty or i.is_empty:
        raise OrderingError("residuals need nonempty intervals")
    if not j.leq(i):
        raise OrderingError(f"residuals require {j} <= {i}, which fails")
    k = i.intersect(j)
    if k.is_empty:
        return (j, i)
    j_part = EMPTY if not k.lo.value.is_finite else make_interval(j.lo, k.lo.flipped())
    i_part = EMPTY if not k.hi.value.is_finite else make_interval(k.hi.flipped(), i.hi)
    return (j_part, i_part)


_INTERVAL_TEXT = re.compile(rf"\s*([\[(]){_POINT},{_POINT}([\])])\s*")


def _point(num: str | None, den: str | None, inf: str | None) -> tuple[int, int, int]:
    """The (sign, numerator, denominator) of one ``_POINT`` match, reduced;
    an infinity is (-1 or 1, 0, 1).  A zero denominator raises
    ``ZeroDivisionError``, and digits past int's text limit ``ValueError``."""
    if inf:
        return -1 if inf == "-inf" else 1, 0, 1
    num, den = int(num), int(den or 1)
    if not den:
        raise ZeroDivisionError(num)
    g = math.gcd(num, den)
    return 0, num // g, den // g


def _refusal(text: str) -> IntervalParseError:
    """The error of interval text that failed to parse: the first of the
    grammar's checks, in order, that it fails."""
    s = text.strip()
    if len(s) < 2 or s[0] not in "[(" or s[-1] not in ")]":
        return IntervalParseError(f"interval {text!r} must be 'empty' or bracketed like [lo,hi)")
    parts = s[1:-1].split(",")
    if len(parts) != 2:
        return IntervalParseError(
            f"interval {text!r} must contain exactly one comma between endpoints")
    try:
        ExtRational(parts[0])
        what, token = "upper", parts[1]
    except ValueError:
        what, token = "lower", parts[0]
    return IntervalParseError(f"bad {what} endpoint {token.strip()!r} in interval {text!r}: "
                              "expected p/q, an integer, inf or -inf")


def _parse_ends(text: str, points: dict) -> tuple | None:
    """The ``_ends`` of interval text, None for the empty interval: the one
    grammar path of ``parse_interval`` and ``parse_module``.  ``points``,
    shared across calls, keeps each endpoint text's reduced ints."""
    match = _INTERVAL_TEXT.fullmatch(text)
    if match is None:
        if text.strip() == "empty":
            return None
        raise _refusal(text)
    groups = match.groups()
    lo_key, hi_key = groups[1:4], groups[4:7]
    try:
        lo = points.get(lo_key)
        if lo is None:
            lo = points[lo_key] = _point(*lo_key)
        hi = points.get(hi_key)
        if hi is None:
            hi = points[hi_key] = _point(*hi_key)
    except (ValueError, ZeroDivisionError):
        raise _refusal(text) from None
    (lo_sign, lo_num, lo_den), (hi_sign, hi_num, hi_den) = lo, hi
    lo_closed, hi_closed = groups[0] == "[", groups[7] == "]"
    if lo_closed and lo_sign:
        raise MalformedIntervalError(f"closed infinite lower endpoint in interval {text!r}")
    if hi_closed and hi_sign:
        raise MalformedIntervalError(f"closed infinite upper endpoint in interval {text!r}")
    above = lo_sign - hi_sign if lo_sign or hi_sign else lo_num * hi_den - hi_num * lo_den
    if above > 0:
        raise IntervalParseError(f"lower endpoint exceeds upper endpoint in interval {text!r}")
    if above == 0 and not (lo_closed and hi_closed):
        return None
    return (*lo, not lo_closed, *hi, hi_closed)


def parse_interval(text: str) -> Interval:
    """Parse the interval text form: ``[lo,hi)``, ``(lo,hi]``, ``[lo,hi]``,
    ``(lo,hi)``, ``[r,r]`` or ``empty``, with rational endpoints written as
    ``p/q`` or integers and the infinities as ``-inf``/``inf``.

    Rejects text whose lower endpoint exceeds the upper one, and closed
    infinite endpoints; an equal-value pair that is not closed on both
    sides parses to the empty interval.
    """
    ends = _parse_ends(text, {})
    return EMPTY if ends is None else _interval_of(ends)


def _ends(s: Interval) -> tuple:
    """The int form of a nonempty interval, (sign, numerator, denominator,
    open) of the lower endpoint and (sign, numerator, denominator, closed)
    of the upper one: each value reduced, an infinity's 0/1, and each
    decoration ordered as in ``lower_key`` and ``upper_key``."""
    lo, hi = s.lo, s.hi
    return (lo.value.sign, *lo.value.value.as_integer_ratio(), not lo.closed,
            hi.value.sign, *hi.value.value.as_integer_ratio(), hi.closed)


def _finite_ends(lo: Rational, hi: Rational, bounds: str) -> tuple:
    """The ``_ends`` of the interval of finite ``lo`` and ``hi`` with the
    decorations of ``bounds`` (``"[)"`` and the like); a pair that holds
    no point is refused."""
    (lo_num, lo_den), (hi_num, hi_den) = lo.as_integer_ratio(), hi.as_integer_ratio()
    lo_open, hi_closed = bounds[0] == "(", bounds[1] == "]"
    above = lo_num * hi_den - hi_num * lo_den
    if above > 0 or above == 0 and (lo_open or not hi_closed):
        raise ValueError("the empty interval cannot be a summand")
    return 0, lo_num, lo_den, lo_open, 0, hi_num, hi_den, hi_closed


def _interval_of(ends: tuple) -> Interval:
    """The interval of an ``_ends`` tuple."""
    lo_sign, lo_num, lo_den, lo_open, hi_sign, hi_num, hi_den, hi_closed = ends
    return _interval(_endpoint(_ext(lo_sign, Fraction(lo_num, lo_den)), not lo_open),
                     _endpoint(_ext(hi_sign, Fraction(hi_num, hi_den)), hi_closed))


def format_interval(i: Interval) -> str:
    return "empty" if i.is_empty else _format_ends(_ends(i))


def _format_ends(e: tuple) -> str:
    """The text form of the interval of an ``_ends`` tuple."""
    lo, hi = (("-inf" if sign < 0 else "inf") if sign else f"{num}/{den}" if den != 1 else str(num)
              for sign, num, den in (e[:3], e[4:7]))
    return f"{'(' if e[3] else '['}{lo},{hi}{']' if e[7] else ')'}"
