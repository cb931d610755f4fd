"""Truncated Dobinski evaluation with certified tail bounds, as library
results.

dobinski_bell and dobinski_bell_poly return a DobinskiResult whose value
and tail_bound enclose B_n(y) = e^{-y} sum_k k^n y^k / k!: value <= B_n(y)
<= value + tail_bound, proved exactly by bellhop.enclosure's integers.  The
two fields are mpf, so building one imports mpmath; DobinskiResult is the
one dataclass in bellhop, and `bellhop dobinski` loads neither this module
nor dataclasses: it prints enclosure's integers itself.
"""

from dataclasses import dataclass

# PRECISION_LIMIT is read here too, beside the library calls it limits
from .enclosure import PRECISION_LIMIT, _dobinski_fixed


@dataclass(frozen=True)
class DobinskiResult:
    """Truncated Dobinski value with a certified bound on the omitted tail."""

    value: "mpmath.mpf"  # a string: the module imports mpmath only to build one
    tail_bound: "mpmath.mpf"
    terms_used: int
    precision: int


def dobinski_bell(n: int, K: int, precision: int = 50) -> DobinskiResult:
    """(1/e) sum_{k=0}^{K} k^n / k!  with a certified tail bound.

    value <= B(n) <= value + tail_bound holds exactly: e^{-1} is enclosed
    between two integers at a binary scale and every rounding is directed.
    value carries precision + guard significant digits; `bellhop dobinski`
    prints it and tail_bound rounded to nearest at precision + 1 digits.
    """
    return dobinski_bell_poly(n, 1, K, precision)


def dobinski_bell_poly(n: int, y, K: int, precision: int = 50) -> DobinskiResult:
    """e^{-y} sum_{k=0}^{K} (k^n / k!) y^k  with a certified tail bound, as
    dobinski_bell: value <= B_n(y) <= value + tail_bound exactly."""
    import mpmath  # for the mpf fields alone

    value, tail, scale = _dobinski_fixed(n, y, K, precision)
    return DobinskiResult(*(mpmath.mpf((x, -scale), prec=x.bit_length()) for x in (value, tail)),
                          K + 1, precision)
