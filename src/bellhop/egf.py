"""Truncated exponential-generating-function arithmetic, plus the
moment/connected-moment (W <-> V) transforms.

A series of order N stores a_0..a_N and represents sum a_n x^n / n!.  An
exact coefficient is an int exactly when it is whole, and a Fraction
otherwise (``errors.rational``); the constructor, the sum and every
recurrence keep that rule.  The product, exp and log recurrences only add
and multiply by binomials, so integer series stay integer and float or
complex ones run in floating point.  Each output reads its binomials from
one row C(m, 0..m) kept across calls (``_binomials``, at most 128 rows);
the products keep their order and grouping, so float and complex results
are those of the per-term sum.  Rational input runs on integers too:
the recurrences are homogeneous of weighted degree n, so with one scale D
per call such that den(a_n) divides D^n, the integers a_n D^n go through
the same recurrence and each output n is A_n / D^n.  Input whose
denominators share no common scale (1/p_k for the k-th prime, say) would
make D^n far longer than the fractions; it runs as Fractions instead, as
does every call whose D has more than SCALE_RATIO times the mean bits of
its denominators.  A call whose products times digits pass EGF_WORK_LIMIT is
refused before the recurrence starts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from .errors import ResourceLimitError, rational, size

# Rational input runs on integers over one scale D only while bits(D) <=
# SCALE_RATIO * mean bits of the denominators; past that, as for 1/p_k with
# p_k the k-th prime, D^n outgrows the reduced fractions and the Fraction
# path runs.  The two routes break even near 18 at order 90, and 1/p_k at
# order 40 (~37) runs 1.5x slower scaled.
SCALE_RATIO = 20

# products times the digits of their operands (see _refuse_work): 0.1-1.2 s
# per 10^9 with the kept binomial rows (Python 3.11, 2-vCPU VM), so at most
# ~0.6 s of recurrence is admitted: order 588 of 9/7, the largest, takes
# 0.4-0.6 s
EGF_WORK_LIMIT = 5 * 10**8


class EGFSeries:
    """Coefficients a_0..a_N, each an int when it is whole and else a
    Fraction, as the constructor makes them.

    Immutable, and not a tuple: a series has no length, iteration or
    tuple + and *; its + and * are the series sum and product.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int | Fraction, ...]

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(map(rational, coeffs))
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an EGFSeries")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an EGFSeries")

    def __reduce__(self):  # copy and pickle through the constructor, not setattr
        return EGFSeries, (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def identity(cls, order: int) -> "EGFSeries":
        """The series 1 (neutral for multiplication)."""
        return cls((1,) + (0,) * size(order, "order"))

    @classmethod
    def zero(cls, order: int) -> "EGFSeries":
        return cls((0,) * (size(order, "order") + 1))

    # with any other operand Python raises TypeError, as for unrelated types
    def __mul__(self, other: "EGFSeries") -> "EGFSeries":
        if not isinstance(other, EGFSeries):
            return NotImplemented
        return egf_mul(self, other)

    def __add__(self, other: "EGFSeries") -> "EGFSeries":
        if not isinstance(other, EGFSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return EGFSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    def __eq__(self, other) -> bool:
        return isinstance(other, EGFSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"EGFSeries(coeffs={self.coeffs!r})"

    def to_json(self) -> str:
        # json.dumps' text of {"order": ..., "coefficients": [str(c), ...]},
        # written without json: str() of an int or a Fraction is digits, "-"
        # and "/", none of which JSON escapes
        coefficients = ", ".join(f'"{c}"' for c in self.coeffs)
        return f'{{"order": {self.order}, "coefficients": [{coefficients}]}}'

    @classmethod
    def from_json(cls, text: str) -> "EGFSeries":
        import json

        data = json.loads(text)
        coeffs = data["coefficients"]
        if len(coeffs) != data["order"] + 1:
            raise ValueError("coefficient count does not match order")
        return cls(coeffs)  # the constructor reads the text by the coefficient rule


@lru_cache(maxsize=128)
def _binomials(m: int) -> tuple[int, ...]:
    """Row C(m, 0..m), kept across calls: output m of a recurrence reads
    row m (or m - 1) alone, so one call reads each row once and the calls
    after it gain.

    The first half comes from C(m, k+1) = C(m, k) (m - k) / (k + 1), each
    quotient exact, the rest by symmetry: O(m) products by small factors,
    where math.comb per entry costs O(k) each (rows 0..600 take 0.02 s
    against 0.70 s, Python 3.11, 2-vCPU VM).  At most 128 rows are kept,
    least recently used out: 0.15 MiB for orders <= 90 and <= 7.4 MiB at
    order 704, the largest EGF_WORK_LIMIT admits, whose 705 rows would
    hold 18.6 MiB (sys.getsizeof).
    """
    half = [1]
    for k in range(m // 2):
        half.append(half[-1] * (m - k) // (k + 1))
    return (*half, *reversed(half[:m + 1 - len(half)]))


def _mul_coeffs(x: Sequence, y: Sequence) -> list:
    # binomial convolution: c_n = sum_k C(n,k) x_k y_{n-k}
    return [sum(map(mul, map(mul, _binomials(m), x), y[m::-1]))
            for m in range(min(len(x), len(y)))]


def _exp_coeffs(c: Sequence) -> list:
    # a_0 = 1;  a_n = sum_{k=1..n} C(n-1, k-1) c_k a_{n-k}
    a = [1]
    for m in range(1, len(c)):
        a.append(sum(map(mul, map(mul, _binomials(m - 1), c[1:m + 1]), a[::-1])))
    return a


def _log_coeffs(a: Sequence) -> list:
    # inversion of the exp recurrence: c_0 = 0, c_n = a_n - sum_{k<n} C(n-1, k-1) c_k a_{n-k}
    c = [0]
    for m in range(1, len(a)):
        c.append(a[m] - sum(map(mul, map(mul, _binomials(m - 1), c[1:]), a[m - 1:0:-1])))
    return c


def _refuse_work(n: int, digits: float, operand_digits: float = 0):
    # n(n+1)/2 products with up to `digits` digits of operands in all; past
    # CPython's Karatsuba cutoff (70 30-bit words, ~630 digits) a product of
    # two long operands costs (operand_digits / 630)^0.585 times their length
    work = n * (n + 1) // 2 * digits * max(1.0, operand_digits / 630) ** 0.585
    if work > EGF_WORK_LIMIT:
        raise ResourceLimitError(
            f"an EGF recurrence of order {n - 1} needs {work:.3g} digit-products, "
            f"past the limit {EGF_WORK_LIMIT:.0e}"
        )


def _common_scale(seqs: list[Sequence]) -> tuple[int, bool]:
    """The scale D, built by gcds alone (whenever den(s_m) does not divide
    D^m, D takes on the part of den(s_m) that D^m lacks), and whether it
    stays within SCALE_RATIO times the mean bits of the denominators; if
    not, the D that first passed that bound."""
    n = len(seqs[0])
    den_bits = sum(v.denominator.bit_length() for s in seqs for v in s[1:])
    max_bits = SCALE_RATIO * den_bits / max(1, (n - 1) * len(seqs))
    scale, power = 1, 1
    for m in range(1, n):
        power *= scale
        for s in seqs:
            q = s[m].denominator
            if power % q:
                scale *= q // math.gcd(q, power)
                if scale.bit_length() > max_bits:
                    return scale, False
                power = scale**m
    return scale, True


def _scaled(kernel, *seqs: Sequence) -> list:
    """kernel(*seqs) with exact input run on integers, each exact output by
    the coefficient rule; float or complex input as the kernel gives it.

    Scale x -> D x: input n becomes the integer s_n D^n, the kernel's output
    n comes out times D^n, and one division per output maps it back.  A
    constant term p/q multiplies its whole sequence by q, which only the
    bilinear product allows: exp and log get an integer constant term.
    """
    n = min(map(len, seqs))
    seqs = [s[:n] for s in seqs]
    # binomials and partition counts of order n have up to n log10(n) digits;
    # refused on those alone before the scale, whose powers cost O(n^2)
    growth = n * math.log10(n)
    _refuse_work(n, growth)
    kinds = {type(v) for s in seqs for v in s}
    if not kinds <= {int, Fraction}:
        return kernel(*seqs)  # float or complex: as given
    has_fraction = Fraction in kinds
    scale, commensurate = _common_scale(seqs) if has_fraction else (1, True)
    # s_m D^m has up to m (rate + bits(D)) bits
    bits = [[v.numerator.bit_length() for v in s] for s in seqs]
    rate = max((b / m for row in bits for m, b in enumerate(row) if m), default=0)
    units = [s[0].denominator for s in seqs]
    const_bits = max(row[0] + u.bit_length() for row, u in zip(bits, units))
    widest = max(map(max, bits)) + n * scale.bit_length()
    _refuse_work(n, growth + math.log10(2) * (n * (rate + scale.bit_length()) + const_bits),
                 math.log10(2) * widest)
    if not has_fraction:
        return kernel(*seqs)  # integers
    if not commensurate:  # denominators with no common scale: Fractions
        return list(map(rational, kernel(*seqs)))
    ints = []
    for s, unit in zip(seqs, units):
        power, row = 1, [s[0].numerator]
        for v in s[1:]:
            power *= scale
            row.append(v.numerator * (power // v.denominator) * unit)
        ints.append(row)
    out = kernel(*ints)
    power = math.prod(units)
    for m in range(n):
        out[m] = rational(Fraction(out[m], power))
        power *= scale
    return out


def egf_mul(a: EGFSeries, b: EGFSeries) -> EGFSeries:
    """Binomial convolution: c_n = sum_k C(n,k) a_k b_{n-k}."""
    return EGFSeries(tuple(_scaled(_mul_coeffs, a.coeffs, b.coeffs)))


def egf_exp(c: EGFSeries) -> EGFSeries:
    """exp of a series with zero constant term, exact, same order."""
    if c.coeffs[0] != 0:
        raise ValueError("egf_exp needs a zero constant term")
    return EGFSeries(tuple(_scaled(_exp_coeffs, (0, *c.coeffs[1:]))))


def egf_log(a: EGFSeries) -> EGFSeries:
    """log of a series with constant term 1; inverse of egf_exp."""
    if a.coeffs[0] != 1:
        raise ValueError("egf_log needs constant term 1")
    return EGFSeries(tuple(_scaled(_log_coeffs, (1, *a.coeffs[1:]))))


def bell_egf(order: int) -> EGFSeries:
    """The series whose n-th coefficient is the n-th Bell number."""
    from .combinatorics import bell  # only bell_egf loads combinatorics

    bell(size(order, "order"))  # one call builds rows 0..order, or refuses before any row
    return EGFSeries(tuple(map(bell, range(order + 1))))


def w_to_v(w: Sequence) -> list:
    """Connected moments V_1..V_N from moments W_0..W_N (W_0 must be 1).

    The W series is the exponential of the V series.  Each V_n is in the
    arithmetic of the W_n: exact for int or Fraction input, floating point
    for float or complex input.
    """
    if not w or w[0] != 1:
        raise ValueError("w_to_v needs W_0 = 1")
    return _scaled(_log_coeffs, [1, *w[1:]])[1:]


def v_to_w(v: Sequence) -> list:
    """Moments W_0..W_N from connected moments V_1..V_N; inverts w_to_v.

    W_0 is the integer 1; the other W_n are in the arithmetic of the V_n.
    """
    return _scaled(_exp_coeffs, [0, *v])
