"""Truncated exponential-generating-function arithmetic, plus the
moment/connected-moment (W <-> V) transforms.

A series of order N stores a_0..a_N and represents sum a_n x^n / n!.  The
product, exp and log recurrences only add and multiply by binomials, so
each runs in the arithmetic of its input: integer series stay integer,
rational ones exact, and float or complex ones in floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .combinatorics import bell


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


def egf_mul(a: EGFSeries, b: EGFSeries) -> EGFSeries:
    """Binomial convolution: c_n = sum_k C(n,k) a_k b_{n-k}."""
    x, y, n = a.coeffs, b.coeffs, min(a.order, b.order)
    return EGFSeries(tuple(
        sum(math.comb(m, k) * x[k] * y[m - k] for k in range(m + 1)) for m in range(n + 1)
    ))


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


def egf_exp(c: EGFSeries) -> EGFSeries:
    """exp of a series with zero constant term, exact, same order."""
    if c.coeffs[0] != 0:
        raise ValueError("egf_exp needs a zero constant term")
    return EGFSeries(tuple(_exp_coeffs(c.coeffs)))


def egf_log(a: EGFSeries) -> EGFSeries:
    """log of a series with constant term 1; inverse of egf_exp."""
    if a.coeffs[0] != 1:
        raise ValueError("egf_log needs constant term 1")
    return EGFSeries(tuple(_log_coeffs(a.coeffs)))


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
    return _log_coeffs(w)[1:]


def v_to_w(v: Sequence) -> list:
    """Moments W_0..W_N from connected moments V_1..V_N; inverts w_to_v.

    W_0 is the integer 1; the other W_n are in the arithmetic of the V_n.
    """
    return _exp_coeffs([0, *v])
