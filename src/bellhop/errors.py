"""Exception types, limits and the JSON coefficient rule shared across the
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


def _json_coefficient(value) -> int | Fraction:
    """An integer string as an int, as the parsers read "3" and the JSON
    forms print an int; any other string as its Fraction; a JSON number by
    the constructor's rule."""
    if not isinstance(value, str):
        return value
    try:
        return int(value)
    except ValueError:
        return Fraction(value)
