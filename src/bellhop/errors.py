"""Exception types and limits shared across the package."""

import sys


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
