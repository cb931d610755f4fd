"""Exception types, limits and the coefficient rule shared across the
package."""

import sys
from fractions import Fraction


class ResourceLimitError(RuntimeError):
    """An operation was asked to exceed its configured enumeration/size limit."""


def int_digits_limit() -> int:
    """Digits Python prints an int with (4,300 by default); 0: no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


class ExpressionParseError(ValueError):
    """Input text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def rational(value) -> int | Fraction:
    """The one coefficient of value's value: an int when it is whole, else
    a Fraction.  Every coefficient in bellhop follows this rule, so 3 and
    Fraction(3) never both stand for three.  A str, float or other number
    goes through Fraction, which raises on what it cannot read."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value
