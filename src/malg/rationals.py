"""Non-negative exact rationals extended with +infinity.

Every measure value in this package is an :class:`ExtRational`. Arithmetic
follows the measure-theoretic conventions, in particular ``0 * inf == 0``.
Values are immutable, so infinity and zero are each built once, as the
module constants ``INF`` and ``ZERO`` (the package exports only ``INF``):
every sum of weights starts at ``ZERO``, and ``0 * inf`` returns it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Optional, Union

from .errors import InvalidRational, NegativeWeight

RationalLike = Union["ExtRational", Fraction, int, str]

INF_TOKEN = "inf"

# CPython's default int-to-str limit: every parsed value prints, though a
# value derived from several (a ratio, a sum) may not
MAX_DIGITS = 4300
_TOO_BIG = 10**MAX_DIGITS
# "p" and "p/q" in ASCII digits up to this length are read by int() alone:
# far under MAX_DIGITS and the length cap, so neither check can fail
_SHORT = 64


def parse_rational(text: str) -> Optional[Fraction]:
    """The one parser of rational strings: "p/q", decimals with an optional
    exponent, or "inf" (returned as None). Raises InvalidRational on malformed
    text and on a numerator or denominator of more than MAX_DIGITS digits;
    length and exponent are checked first, so hostile strings cost little.
    Short unsigned "p" and "p/q" with q nonzero skip the general path.
    """
    if len(text) <= _SHORT and text.isascii():
        num, slash, den = text.partition("/")
        if num.isdigit():
            if not slash:
                return Fraction(int(num))
            q = int(den) if den.isdigit() else 0
            if q:
                return Fraction(int(num), q)
    if text.strip() == INF_TOKEN:
        return None
    exponent = text.lower().partition("e")[2]
    if len(text) > 2 * MAX_DIGITS + 16 or len(exponent.lstrip("+-0")) > 4:
        raise InvalidRational(f"not a rational: {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidRational(f"not a rational: {text!r}") from None
    if max(abs(value.numerator), value.denominator) >= _TOO_BIG:
        raise InvalidRational(
            f"numerator or denominator over {MAX_DIGITS} digits: {text!r}"
        )
    return value


def to_fraction(value) -> Fraction:
    """The one coercion of finite numbers from callers: an int, a Fraction,
    or a string through parse_rational; signs pass through. "inf" raises
    InvalidRational; any other type raises TypeError. A Fraction is
    immutable and in lowest terms, so it comes back as is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"expected an int, Fraction or str, not {value!r}")
    frac = parse_rational(value)
    if frac is None:
        raise InvalidRational(f"expected a finite rational, not {value!r}")
    return frac


@total_ordering
class ExtRational:
    """A non-negative rational kept in lowest terms, or +infinity.

    The one coercion of measure values: it takes an ExtRational, an int, a
    Fraction, or a string through parse_rational ("inf" is infinity), and
    raises NegativeWeight, a MalgError that is also a ValueError, on a
    value below zero. Instances are immutable, hashable, and totally
    ordered with every finite value below infinity. Addition and
    multiplication accept ints and Fractions on either side; subtraction
    is deliberately absent (the domain is non-negative).
    """

    __slots__ = ("_frac",)

    def __init__(self, value: RationalLike):
        if isinstance(value, ExtRational):
            frac = value._frac
        elif isinstance(value, str):
            frac = parse_rational(value)
        else:
            frac = to_fraction(value)
        if frac is not None and frac < 0:
            raise NegativeWeight(f"negative value not allowed: {frac}")
        self._frac = frac

    @classmethod
    def infinity(cls) -> "ExtRational":
        out = cls.__new__(cls)
        out._frac = None
        return out

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def is_zero(self) -> bool:
        return self._frac == 0

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("infinite value has no Fraction form")
        return self._frac

    @staticmethod
    def _coerce(value) -> "ExtRational | None":
        if isinstance(value, ExtRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ExtRational(value)
        return None

    def __add__(self, other) -> "ExtRational":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self._frac is None or rhs._frac is None:
            return INF
        return ExtRational(self._frac + rhs._frac)

    __radd__ = __add__

    def __mul__(self, other) -> "ExtRational":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self._frac is None or rhs._frac is None:
            # 0 * inf == 0 by the measure-theoretic convention
            if self._frac == 0 or rhs._frac == 0:
                return ZERO
            return INF
        return ExtRational(self._frac * rhs._frac)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._frac == rhs._frac

    def __lt__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # infinity lies above every finite value
        if self._frac is None:
            return False
        return rhs._frac is None or self._frac < rhs._frac

    def __hash__(self):
        if self._frac is None:
            return hash(("ExtRational", "inf"))
        return hash(self._frac)

    def __str__(self) -> str:
        if self._frac is None:
            return INF_TOKEN
        return str(self._frac)

    def __repr__(self) -> str:
        return f"ExtRational({str(self)!r})"


INF = ExtRational.infinity()
ZERO = ExtRational(0)
