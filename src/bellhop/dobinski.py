"""Truncated Dobinski evaluation with certified tail bounds, as library
results.

dobinski_bell and dobinski_bell_poly return a DobinskiResult whose value
and tail_bound enclose B_n(y) = e^{-y} sum_k k^n y^k / k!: value <= B_n(y)
<= value + tail_bound, proved exactly by bellhop.enclosure's integers.  The
two fields are those integers over a power of two, as BinaryFraction: a
Fraction that mpmath also reads exactly, through the raw tuple it looks
for on a number (mpmath.mpf(x), nstr, and mixed arithmetic or comparison
with an mpf), without this module importing mpmath.  DobinskiResult is the
one dataclass in bellhop, and `bellhop dobinski` loads neither this module
nor dataclasses: it prints enclosure's integers itself.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction

# PRECISION_LIMIT is read here too, beside the library calls it limits
from .enclosure import PRECISION_LIMIT, _dobinski_fixed, _nstr


class BinaryFraction(Fraction):
    """An exact numerator / denominator, both ints, the denominator a power
    of two, as a Fraction that mpmath reads as the mpf of that value.

    Arithmetic is Fraction's, and returns a Fraction.  str prints 15
    significant digits, as str(mpf) does at mpmath's default precision, so
    neither str nor repr prints the whole numerator, which Python refuses
    past 4,300 digits.
    """

    __slots__ = ()

    def __new__(cls, numerator: int, denominator: int = 1):
        num, den = operator.index(numerator), operator.index(denominator)
        if den <= 0 or den & (den - 1):
            raise ValueError(f"denominator must be a power of 2, not {den}")
        # lowest terms by one shift, not Fraction's gcd, which at 10^5 digits takes ~0.25 s
        shift = den.bit_length() - 1
        if num:
            shift = min(shift, (num & -num).bit_length() - 1)
        self = super().__new__(cls)
        self._numerator, self._denominator = num >> shift, den >> shift
        return self

    @property
    def man_exp(self) -> tuple[int, int]:
        """(man, exp), |value| = man 2^exp with man odd (0, 0 at zero): an
        mpf's man_exp."""
        num = abs(self._numerator)
        if not num:
            return 0, 0
        zeros = (num & -num).bit_length() - 1  # none unless the denominator is 1
        return num >> zeros, zeros + 1 - self._denominator.bit_length()

    @property
    def _mpf_(self) -> tuple[int, int, int, int]:
        """mpmath's normalised raw tuple (sign, odd mantissa, exponent, bit
        count), which mpmath reads from any number that has it."""
        man, exp = self.man_exp
        return int(self._numerator < 0), man, exp, man.bit_length()

    def __str__(self) -> str:
        man, exp = self.man_exp
        return ("-" if self._numerator < 0 else "") + (_nstr(man, exp, 15) if man else "0.0")

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"

    def __reduce__(self):
        # exact at any size; Python 3.10's Fraction pickles through str
        return type(self), (self._numerator, self._denominator)


@dataclass(frozen=True)
class DobinskiResult:
    """Truncated Dobinski value with a certified bound on the omitted tail."""

    value: BinaryFraction
    tail_bound: BinaryFraction
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
    value, tail, scale = _dobinski_fixed(n, y, K, precision)
    # x 2^-scale, at either sign of scale
    up, down = (1, 1 << scale) if scale >= 0 else (1 << -scale, 1)
    return DobinskiResult(BinaryFraction(value * up, down), BinaryFraction(tail * up, down), K + 1, precision)
