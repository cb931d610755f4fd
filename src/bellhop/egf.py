"""Truncated exponential-generating-function arithmetic, plus the
moment/connected-moment (W <-> V) transforms.

A series of order N stores a_0..a_N and represents sum a_n x^n / n!.  The
product, exp and log recurrences only add and multiply by binomials, so
integer series stay integer and float or complex ones run in floating
point.  Rational input runs on integers too: the recurrences are
homogeneous of weighted degree n, so with one scale D per call such that
den(a_n) divides D^n, the integers a_n D^n go through the same recurrence
and each output n is one Fraction(A_n, D^n).  Input whose denominators
share no common scale (1/p_k for the k-th prime, say) would make D^n far
longer than the fractions; it runs as Fractions instead, as does every
call whose D has more than SCALE_RATIO times the mean bits of its
denominators.  A call whose products times digits pass EGF_WORK_LIMIT is
refused before the recurrence starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinatorics import bell
from .errors import ResourceLimitError

# scaled integers only while bits(D) <= SCALE_RATIO * mean bits of the
# denominators, past which D^n outgrows the reduced fractions: at order 90
# the two routes break even near 18, and 1/p_k at order 40 (~37) runs 1.5x
# slower scaled
SCALE_RATIO = 20
# products times the digits of their operands (see _refuse_work): 0.6-3 s
# per 10^9 on a 2-vCPU VM, so at most ~1.5 s of recurrence is admitted
EGF_WORK_LIMIT = 5 * 10**8


@dataclass(frozen=True)
class EGFSeries:
    """Coefficients a_0..a_N: each an int, or else made a Fraction."""

    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(
            self, "coeffs", tuple(c if type(c) is int else Fraction(c) for c in self.coeffs)
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def identity(cls, order: int) -> "EGFSeries":
        """The series 1 (neutral for multiplication)."""
        return cls((1,) + (0,) * order)

    @classmethod
    def zero(cls, order: int) -> "EGFSeries":
        return cls((0,) * (order + 1))

    def __mul__(self, other: "EGFSeries") -> "EGFSeries":
        return egf_mul(self, other)

    def __add__(self, other: "EGFSeries") -> "EGFSeries":
        n = min(self.order, other.order)
        return EGFSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    def __eq__(self, other) -> bool:
        return isinstance(other, EGFSeries) and self.coeffs == other.coeffs

    def truncate(self, order: int) -> "EGFSeries":
        if order >= self.order:
            return self
        return EGFSeries(self.coeffs[: order + 1])

    def to_json(self) -> str:
        return json.dumps(
            {"order": self.order, "coefficients": [str(c) for c in self.coeffs]}
        )

    @classmethod
    def from_json(cls, text: str) -> "EGFSeries":
        data = json.loads(text)
        coeffs = tuple(Fraction(c) for c in data["coefficients"])
        if len(coeffs) != data["order"] + 1:
            raise ValueError("coefficient count does not match order")
        return cls(coeffs)


def _mul_coeffs(x: Sequence, y: Sequence) -> list:
    # binomial convolution: c_n = sum_k C(n,k) x_k y_{n-k}
    return [sum(math.comb(m, k) * x[k] * y[m - k] for k in range(m + 1))
            for m in range(min(len(x), len(y)))]


def _exp_coeffs(c: Sequence) -> list:
    # a_0 = 1;  a_n = sum_{k=1..n} C(n-1, k-1) c_k a_{n-k}
    a = [1]
    for m in range(1, len(c)):
        a.append(sum(math.comb(m - 1, k - 1) * c[k] * a[m - k] for k in range(1, m + 1)))
    return a


def _log_coeffs(a: Sequence) -> list:
    # inversion of the exp recurrence: c_0 = 0, c_n = a_n - sum_{k<n} C(n-1, k-1) c_k a_{n-k}
    c = [0]
    for m in range(1, len(a)):
        c.append(a[m] - sum(math.comb(m - 1, k - 1) * c[k] * a[m - k] for k in range(1, m)))
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
    """kernel(*seqs) with rational input run on integers; each output n is
    in the arithmetic of inputs 0..n, as the kernel alone gives it.

    Scale x -> D x: input n becomes the integer s_n D^n, the kernel's output
    n comes out times D^n, and one Fraction per output maps it back.  A
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
    if not (has_fraction and commensurate):
        return kernel(*seqs)  # integers, or denominators with no common scale
    ints = []
    for s, unit in zip(seqs, units):
        power, row = 1, [s[0].numerator]
        for v in s[1:]:
            power *= scale
            row.append(v.numerator * (power // v.denominator) * unit)
        ints.append(row)
    out = kernel(*ints)
    # outputs before the first Fraction input stay int
    first = min(i for s in seqs for i, v in enumerate(s) if type(v) is Fraction)
    power = math.prod(units)
    for m in range(n):
        out[m] = out[m] // power if m < first else Fraction(out[m], power)
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
    return EGFSeries(tuple(bell(n) for n in range(order + 1)))


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
