"""Truncated Dobinski evaluation with certified tail bounds.

B_n(y) = e^{-y} sum_k k^n y^k / k!: the partial sum and the tail bound are
each one exact EGF sum in y, by Horner's rule, scaled by e^{-y} in mpmath.
This is the one module that imports mpmath and dataclasses.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import ResourceLimitError, _check_series, _polynomial_at, int_text

# Dobinski's working digits, precision and guard: `dobinski 10` at 10^5 takes ~1 s
PRECISION_LIMIT = 10**5


@dataclass(frozen=True)
class DobinskiResult:
    """Truncated Dobinski value with a certified bound on the omitted tail."""

    value: mpmath.mpf
    tail_bound: mpmath.mpf
    terms_used: int
    precision: int


def _decimal_digits(x: int) -> int:
    """len(str(x)) for an integer x >= 1, counted without printing x, which
    Python refuses past 4,300 digits."""
    # 2^(b-1) <= x < 2^b puts the count at floor(b log10 2) or one more
    digits = int(x.bit_length() * math.log10(2))
    while x >= 10**digits:
        digits += 1
    return digits


def _dobinski_tail_start(n: int, K: int, y_ceiling: int) -> int:
    # From index k0 on, successive terms k^n y^k / k! shrink by at least 1/2:
    # the ratio is (1+1/k)^n * y/(k+1) <= e^(1/2) * y/(k+1) once k >= 2n,
    # and e^(1/2)/(k+1) <= 1/2 once k >= 3 (for y <= 1; scale by y otherwise).
    return max(K + 1, 2 * n, 3, 4 * y_ceiling)


def dobinski_bell(n: int, K: int, precision: int = 50) -> DobinskiResult:
    """(1/e) sum_{k=0}^{K} k^n / k!  with a certified tail bound.

    The exact Bell number lies within value +/- tail_bound up to
    working-precision representation error.
    """
    return dobinski_bell_poly(n, 1, K, precision)


def dobinski_bell_poly(n: int, y, K: int, precision: int = 50) -> DobinskiResult:
    """e^{-y} sum_{k=0}^{K} (k^n / k!) y^k  with a certified tail bound."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if K < 1:
        raise ValueError("K must be >= 1")
    if precision < 10:
        raise ValueError("precision below 10 digits gives a meaningless certificate")
    y = Fraction(y)
    if y <= 0:
        raise ValueError("y must be positive")
    k0 = _dobinski_tail_start(n, K, -(-y.numerator // y.denominator))
    _check_series(k0, y)
    partial = _polynomial_at(((k, k**n) for k in range(K + 1)), 1, y, egf=True)  # 0**0 == 1
    # explicit terms up to the geometric regime, then a factor-2 cap
    tail_frac = _polynomial_at([*((k, k**n) for k in range(K + 1, k0)), (k0, 2 * k0**n)], 1, y, egf=True)
    # Padding so the prefactor multiplication's roundoff stays far below
    # the certified truncation tail, however tight that tail is.
    ratio = partial / tail_frac
    guard = 10 + _decimal_digits(1 + ratio.numerator // ratio.denominator)
    if precision + guard > PRECISION_LIMIT:
        raise ResourceLimitError(
            f"precision {int_text(precision)} + {guard} guard digits exceeds {PRECISION_LIMIT}"
        )
    with mpmath.workdps(precision + guard):
        prefactor = mpmath.e ** (-mpmath.mpf(y.numerator) / y.denominator)
        value = prefactor * partial.numerator / partial.denominator
        tail = prefactor * tail_frac.numerator / tail_frac.denominator
        out_value = +value
        out_tail = +tail
    return DobinskiResult(out_value, out_tail, K + 1, precision)
