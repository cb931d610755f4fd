"""Exception types, limits, the one reading of a size, a long int's size
for refusals, the coefficient rule, the one exact evaluator, a Horner pass
for every exact sum at a rational point (as an integer pair or one
Fraction), and the bound on that pass's work, SERIES_BITS_LIMIT."""

import math
import operator
import sys
from fractions import Fraction
from typing import Iterable

# bits of one exact series' integers: at 2^30 (128 MiB), order 4000 at beta
# epsilon = 0.05, M = 20 takes ~1.5 s and 262 MiB (Python 3.11, 2-vCPU VM)
SERIES_BITS_LIMIT = 2**30


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


def int_text(n: int) -> str:
    """str(n) for an n >= 0, or its size as ~10^d once it has more than 30
    digits: a refusal names its argument without printing it, which Python
    refuses past 4,300 digits."""
    if n < 10**30:
        return str(n)
    return f"~10^{int(n.bit_length() * math.log10(2))}"


def size(value, name: str = "n", limit: int | None = None, what: str = "") -> int:
    """value as a count, order or exponent: an int >= 0 (a float or str
    raises TypeError), refused past limit, when one is given, as
    "{what}{value} exceeds the limit {limit}", value named by int_text."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    if limit is not None and value > limit:
        raise ResourceLimitError(f"{what}{int_text(value)} exceeds the limit {limit}")
    return value


def float_times(count: int, factor: float) -> float:
    """count * factor for an int count and a float factor, both >= 0; inf
    where count passes the float range, whose conversion to a float raises
    OverflowError: a size bound made of it refuses instead of crashing."""
    if not factor:
        return 0.0
    return count * factor if count <= sys.float_info.max else math.inf


def _horner(numerators: Iterable[tuple[int, int]], y: Fraction, egf: bool = False) -> tuple[int, int]:
    """sum_d N_d y^d over the (d, N_d) pairs at y = p/q, or with egf the EGF
    sum_d N_d y^d / d!, as an unreduced integer pair (numerator, q^top, times
    top! in an EGF): by Horner from the top degree down to the lowest one,
    low, whose steps are those of 1 + y (1 + y/2 (1 + y/3 (...))) in an EGF."""
    by_degree: dict[int, int] = {}
    for d, n in numerators:
        by_degree[d] = by_degree.get(d, 0) + n
    p, q = y.numerator, y.denominator
    low, top = min(by_degree, default=0), max(by_degree, default=0)
    total, q_power = by_degree.get(top, 0), 1
    for d in range(top - 1, low - 1, -1):
        q_power *= q * (d + 1) if egf else q
        total = total * p + by_degree.get(d, 0) * q_power
    # no degree below low: its factor y^low, or y^low / low! in an EGF, once
    return total * p**low, q_power * q**low * (math.factorial(low) if egf else 1)


def _polynomial_at(numerators: Iterable[tuple[int, int]], scale: int, y: Fraction) -> Fraction:
    """_horner's plain sum over scale, as one Fraction."""
    numerator, denominator = _horner(numerators, y)
    return Fraction(numerator, scale * denominator)


def _check_series(N: int, *points: Fraction) -> None:
    """Refuse an exact series of order N at the rational points x, before any
    term is built, when its N + 1 Horner steps on integers of N bits(x) +
    log2 N! bits pass SERIES_BITS_LIMIT bits in all."""
    width = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in points)
    # an N past the limit is refused as an int: lgamma(N + 1) can pass the float range
    bits = (N + 1) * (N * width + math.lgamma(N + 1) / math.log(2)) if N <= SERIES_BITS_LIMIT else math.inf
    if bits > SERIES_BITS_LIMIT:
        raise ResourceLimitError(f"a series of order {int_text(N)} takes {bits:.3g} bits, past {SERIES_BITS_LIMIT}")
