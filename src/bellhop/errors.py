"""Exception types and limits shared across the package."""

import sys

# Rational data run on integers over one common scale D (an lcm of
# denominators) only while bits(D) <= SCALE_RATIO * mean bits of the
# denominators; past that, as for 1/p_k with p_k the k-th prime, the scaled
# integers outgrow the reduced fractions and the Fraction path runs.  In the
# EGF recurrences, where D^n is what grows, the two routes break even near
# 18 at order 90, and 1/p_k at order 40 (~37) runs 1.5x slower scaled.
SCALE_RATIO = 20


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
