"""Exact dyadic-rational arithmetic.

Every time quantity in a synchronized shared-processor schedule is built
from job processing times by repeated averaging, so all values live in
the ring of dyadic rationals: numbers of the form ``mantissa / 2**exponent``.
This module provides that number type with exact (arbitrary-precision)
addition, subtraction, multiplication, halving and comparison.  There is
no rounding anywhere and no general division.

Canonical form: the mantissa is odd or zero, and zero has exponent 0.
Values are immutable and safe to share between threads.

Hot loops elsewhere in the package do not use this type: they clear the
denominators of their inputs by one power of two
(:func:`_clear_denominators`), run on plain integers, and build a
``Dyadic`` once per result through :func:`_make`, which skips the public
constructor's type checks, or print a result straight from its integers
through :func:`_text`, the one route to a value's text.

Literals are ``n``, ``n/d`` (``d`` a power of two) or ``n/2^k``, where
``n`` is an optional ``-`` followed by ASCII digits and ``d``, ``k`` are
ASCII digits; nothing else, not even surrounding whitespace, is accepted.
A literal's exponent (``k``, or the bit length of ``d`` minus one) may
not exceed :data:`_MAX_EXPONENT`.
"""

from __future__ import annotations

import operator
import re
import sys
from typing import Sequence

__all__ = ["Dyadic", "as_dyadic", "ZERO", "ONE"]

_LITERAL_RE = re.compile(r"(-?[0-9]+)(?:/(?:2\^([0-9]+)|([0-9]+)))?")

# The largest exponent a literal may carry.  Arithmetic aligns operands on
# the largest exponent among them, so one literal such as "1/2^20000000000"
# would otherwise make every value in its computation that many bits wide.
# 2**13 keeps a literal's denominator (at most 2467 decimal digits) within
# Python's default int-from-str limit of 4300 digits, which already bounds
# its numerator, and lies far above what the halving recurrence needs.
_MAX_EXPONENT = 8192

# hash(int) and hash(Fraction) reduce modulo the Mersenne prime 2**_HASH_BITS - 1
_HASH_BITS = sys.hash_info.modulus.bit_length()

# The most characters of an input value's repr that an error text quotes.
_QUOTED = 60


class Dyadic:
    """A dyadic rational ``mantissa / 2**exponent`` in canonical form."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        if isinstance(mantissa, bool) or not isinstance(mantissa, int):
            raise TypeError(f"mantissa must be an int, got {type(mantissa).__name__}")
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise TypeError(f"exponent must be an int, got {type(exponent).__name__}")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        _store(self, mantissa, exponent)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic values are immutable")

    def __reduce__(self):
        # pickle and copy would restore the slots through __setattr__
        return (type(self), (self.mantissa, self.exponent))

    # -- parsing / formatting -------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "Dyadic":
        """Parse ``"n"``, ``"n/d"`` (d a power of two) or ``"n/2^k"``.

        Raises ``ValueError`` for any other text, or for a number in it
        longer than Python's int-from-str digit limit, and ``OverflowError``
        for an exponent above :data:`_MAX_EXPONENT`.
        """
        if text.isdigit() and text.isascii():  # plain digits: the common literal
            try:
                return _store(_new(cls), int(text), 0)
            except ValueError:  # past Python's int-from-str digit limit
                raise _too_long() from None
        match = _LITERAL_RE.fullmatch(text)
        if not match:
            raise ValueError(f"not a dyadic literal: {_quoted(text)}")
        num, exp, den = match.groups()
        try:
            mantissa, exponent, den = int(num), int(exp or 0), int(den or 1)
        except ValueError:
            raise _too_long() from None
        if den <= 0 or den & (den - 1):
            raise ValueError(f"denominator is not a power of two: {_quoted(text)}")
        exponent += den.bit_length() - 1  # one of exp and den is absent
        if exponent > _MAX_EXPONENT:
            raise OverflowError(
                f"exponent {exponent} exceeds the limit of {_MAX_EXPONENT}: {_quoted(text)}"
            )
        return _store(_new(cls), mantissa, exponent)

    def __str__(self) -> str:
        return _text(self.mantissa, self.exponent)

    def __repr__(self) -> str:
        return f"Dyadic({str(self)!r})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "Dyadic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (a, b), e = _clear_denominators((self, other))
        return _make(a + b, e)

    __radd__ = __add__

    def __sub__(self, other) -> "Dyadic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (a, b), e = _clear_denominators((self, other))
        return _make(a - b, e)

    def __rsub__(self, other) -> "Dyadic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Dyadic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(self.mantissa * other.mantissa, self.exponent + other.exponent)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return _make(-self.mantissa, self.exponent)

    def __abs__(self) -> "Dyadic":
        return _make(abs(self.mantissa), self.exponent)

    def half(self) -> "Dyadic":
        """Exact division by two."""
        return _make(self.mantissa, self.exponent + 1)

    def mul_pow2(self, k: int) -> "Dyadic":
        """Exact multiplication by ``2**k`` (``k`` may be negative)."""
        e = self.exponent - k
        if e >= 0:
            return _make(self.mantissa, e)
        return _make(self.mantissa << -e, 0)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.mantissa == other.mantissa and self.exponent == other.exponent

    def _compare(self, other, holds):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (a, b), _ = _clear_denominators((self, other))
        return holds(a, b)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __hash__(self) -> int:
        # equal to hash(Fraction(mantissa, 2**exponent)), hence to hash(int)
        # for integers: |mantissa| / 2**exponent modulo the Mersenne prime,
        # where 2**-e is 2**(-e mod bits) because 2**bits == 1 there
        h = hash(hash(abs(self.mantissa)) << (-self.exponent % _HASH_BITS))
        if self.mantissa < 0:
            h = -h
        return -2 if h == -1 else h

    def __bool__(self) -> bool:
        return self.mantissa != 0

    @property
    def sign(self) -> int:
        return (self.mantissa > 0) - (self.mantissa < 0)

    @property
    def is_integer(self) -> bool:
        return self.exponent == 0


def _coerce(value):
    if isinstance(value, Dyadic):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return _make(value, 0)
    return NotImplemented


def as_dyadic(value) -> Dyadic:
    """Coerce an int, canonical string, or Dyadic to a Dyadic.

    Floats are rejected: binary floats would silently smuggle rounding
    into what must stay an exact computation.
    """
    if isinstance(value, str):
        return Dyadic.from_string(value)
    result = _coerce(value)
    if result is NotImplemented:
        raise TypeError(f"cannot interpret {type(value).__name__} as a dyadic rational")
    return result


_new = object.__new__
_set_mantissa = Dyadic.mantissa.__set__
_set_exponent = Dyadic.exponent.__set__


def _store(value: Dyadic, mantissa: int, exponent: int) -> Dyadic:
    """Put ``mantissa / 2**exponent`` into ``value`` in canonical form."""
    if exponent and not mantissa & 1:
        if mantissa:
            # strip factors of two shared with the denominator
            shift = min(exponent, (mantissa & -mantissa).bit_length() - 1)
            mantissa >>= shift
            exponent -= shift
        else:
            exponent = 0
    _set_mantissa(value, mantissa)
    _set_exponent(value, exponent)
    return value


def _make(mantissa: int, exponent: int) -> Dyadic:
    """``Dyadic(mantissa, exponent)`` for ints the caller knows to be an
    int and a non-negative int: the trusted constructor of every value the
    package computes, without the public constructor's type checks."""
    return _store(_new(Dyadic), mantissa, exponent)


def _text(num: int, e: int, dens: dict[int, str] | None = None) -> str:
    """The canonical text of ``num / 2**e``: ``"n"``, or ``"n/d"`` with ``n``
    odd, as ``str`` gives it for ``_make(num, e)``, without building that value.

    ``dens`` is a caller's memo of each exponent's denominator text, so the
    values of one report that share an exponent convert ``2**e`` once.
    Like ``str(int)``, raises ``ValueError`` for a number longer than
    Python's int-to-str digit limit.
    """
    if e and not num & 1:
        if num:
            # strip factors of two shared with the denominator
            shift = min(e, (num & -num).bit_length() - 1)
            num >>= shift
            e -= shift
        else:
            e = 0
    if not e:
        return str(num)
    if dens is None:
        return f"{num}/{1 << e}"
    den = dens.get(e)
    if den is None:
        den = dens[e] = str(1 << e)
    return f"{num}/{den}"


def _quoted(value) -> str:
    """``repr(value)`` for an error text that quotes an input value; past
    ``_QUOTED`` characters, the first ``_QUOTED`` and the length of the
    whole, so that a message stays short however long the value is."""
    text = repr(value)
    if len(text) <= _QUOTED:
        return text
    return f"{text[:_QUOTED]}... ({len(text)} characters)"


def _too_long() -> ValueError:
    """The error for a number longer than Python's int-from-str digit limit.

    It replaces CPython's own text, which differs between versions and
    names a function to call.
    """
    return ValueError(f"a number has more than {sys.get_int_max_str_digits()} digits")


def _clear_denominators(values: Sequence[Dyadic]) -> tuple[list[int], int]:
    """Integers ``ints`` and one exponent ``e`` with ``values[i] == ints[i] / 2**e``.

    ``e`` is the largest exponent among the values (0 for none), so the
    integers are as small as a common power of two allows.
    """
    e = max([v.exponent for v in values], default=0)
    return [v.mantissa << (e - v.exponent) for v in values], e


ZERO = Dyadic(0)
ONE = Dyadic(1)
