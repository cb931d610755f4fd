"""Dobinski's integer engine: B_n(y) = e^{-y} sum_k k^n y^k / k! enclosed
between integers at one binary scale, and those integers printed.

The partial sum and the tail bound are each one exact EGF sum in y, by
Horner's rule.  e^{-y} is enclosed between two integers at a binary scale,
from the binary-split Taylor sum of e^y (of pieces of y's binary digits for
a y with a wide denominator), so the value and the tail bound come out as
integers at one binary scale with the rounding directed: value <= B_n(y) <=
value + tail_bound.  `bellhop dobinski` loads this module alone and prints
the integers with _nstr; bellhop.dobinski hands them out as exact binary
fractions.  The module loads neither mpmath nor dataclasses.
"""

import math
import operator
import sys
from fractions import Fraction

from .errors import ResourceLimitError, _check_series, _horner, int_digits_limit, int_text, size

# Dobinski's working digits, precision and guard: `dobinski 10` at 10^5 takes
# ~1 s, ~2 s at a 20-digit decimal y
PRECISION_LIMIT = 10**5


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


def _exp_series(p: int, q: int, s: int, a: int, b: int) -> tuple[int, int]:
    """(Q, T) with Q = q^(b-a) b!/a! and T/(Q 2^(s(b-a))) = sum_{k=a+1}^{b}
    prod_{j=a+1}^{k} x/j, the terms a+1..b of e^x, x = p/(q 2^s), over its
    term a: by binary splitting, with Horner's rule on short runs."""
    if b - a <= 32:
        Q, T = 1, 0
        for j in range(b, a, -1):  # x/j (1 + T/(Q 2^(s(b-j))))
            T, Q = p * ((Q << s * (b - j)) + T), Q * q * j
        return Q, T
    c = (a + b) // 2
    Q1, T1 = _exp_series(p, q, s, a, c)
    Q2, T2 = _exp_series(p, q, s, c, b)
    return Q1 * Q2, (T1 * Q2 << s * (b - c)) + p ** (c - a) * T2


def _exp_terms(p: int, q: int, s: int, bits: int) -> tuple[int, int, int]:
    """(m, Q, T): _exp_series(p, q, s, 0, m) for the first m that leaves
    terms past m of e^x, x = p/(q 2^s) > 0, summing to at most 2^-bits."""
    log_x, m_least = math.log2(p) - math.log2(q) - s, -(-2 * p // (q << s)) - 2

    def clears(m: int) -> bool:  # x^(m+1)/(m+1)! <= 2^-(bits+3) and m + 2 >= 2x, by floats
        return m >= m_least and math.lgamma(m + 2) / math.log(2) - (m + 1) * log_x >= bits + 3

    # the first m that clears, by bisection: past m_least the terms shrink
    low, m = 0, 1
    while not clears(m):
        low, m = m, 2 * m
    while m - low > 1:
        mid = (low + m) // 2
        low, m = (low, mid) if clears(mid) else (mid, m)
    while True:
        Q, T = _exp_series(p, q, s, 0, m)
        # the terms past m are at most twice the first of them,
        # x^(m+1)/(m+1)!, once m + 2 >= 2x: here at most 2^-bits
        if p ** (m + 1) << (bits + 1) <= Q * q * (m + 1) << s * (m + 1):
            return m, Q, T
        m += m // 8 + 1


def _exp_neg(y: Fraction, bits: int) -> tuple[int, int]:
    """Integers lo <= e^{-y} 2^bits <= hi <= lo + 2, for a rational y > 0."""
    p, q = y.numerator, y.denominator
    if q.bit_length() <= 16:
        m, Q, T = _exp_terms(p, q, 0, bits)
        # e^y in [E, E + 2^-bits] with E = (Q + T)/Q >= 1 puts e^{-y} 2^bits
        # in [2^bits/E - 1, 2^bits/E]
        z = (Q << bits) // (Q + T)
        return z - 1, z + 1
    # A wide q would add its bits to every term of that series.  Instead y,
    # floored at 2^-B, is cut into pieces d/2^s, s = 16, 32, 64, ... (the
    # bit-burst method): a piece below 2^(-s/2) needs ~2 wide/s terms of ~s
    # bits, so each piece's series is ~2 wide bits, however wide q is.
    guard = 8  # 2^8 > 4k + 2 for the k < 60 pieces, whose roundings cost 4k + 2
    wide = bits + guard
    B = wide + 2
    Y, low, k = (p << B) // q, 1 << wide, 0
    head, done, s = 0, 0, 16  # head/2^done: the pieces so far, y to 2^-done
    while done < B:
        s = min(s, B)
        top = Y >> (B - s)
        d = top - (head << (s - done))
        head, done = top, s
        if d:
            m, Q, T = _exp_terms(d, 1, s, wide)
            # z <= e^(d/2^s) 2^wide <= z + 2, and z >= 2^wide
            shift = wide - s * m
            z = (1 << wide) + (T << shift if shift >= 0 else T >> -shift) // Q
            low, k = low * z >> wide, k + 1
        s *= 2
    # low <= e^(Y/2^B) 2^wide <= low (1 + 4k 2^-wide): each piece's width 2
    # and each floor cost at most 2^(1-wide) and 2^-wide of a product >= 2^wide.
    # So z - 4k <= e^(-Y/2^B) 2^wide <= z + 1, and 0 <= y - Y/2^B < 2^-B
    # costs one unit more below
    z = (1 << 2 * wide) // low
    return (z - 4 * k - 1) >> guard, -(-(z + 1) >> guard)


def _dobinski_sums(n: int, y: Fraction, K: int) -> tuple[int, int, int]:
    """(P, T, D): the partial sum sum_{k<=K} k^n y^k/k! is P/D and the tail
    bound T/D, over one unreduced denominator D = q^k0 k0!."""
    k0 = _dobinski_tail_start(n, K, -(-y.numerator // y.denominator))
    _check_series(k0, y)
    partial, partial_scale = _horner(((k, k**n) for k in range(K + 1)), y, egf=True)  # 0**0 == 1
    # explicit terms up to the geometric regime, then a factor-2 cap
    tail, scale = _horner([*((k, k**n) for k in range(K + 1, k0)), (k0, 2 * k0**n)], y, egf=True)
    return partial * (scale // partial_scale), tail, scale


def _dobinski_fixed(n: int, y, K: int, precision: int) -> tuple[int, int, int]:
    """(v, t, s) with v/2^s <= e^{-y} P <= B_n(y) <= e^{-y} (P + T) <= (v + t)/2^s
    for _dobinski_sums' partial sum P and tail bound T: v to precision +
    guard significant digits, and t to precision + 10 or more."""
    n, K, precision = size(n), operator.index(K), operator.index(precision)
    if K < 1:
        raise ValueError("K must be >= 1")
    if precision < 10:
        raise ValueError("precision below 10 digits gives a meaningless certificate")
    y = Fraction(y)
    if y <= 0:
        raise ValueError("y must be positive")
    partial, tail, scale = _dobinski_sums(n, y, K)
    # guard digits put the value's rounding far below the tail, however tight
    guard = 10 + _decimal_digits(1 + partial // tail)
    if precision + guard > PRECISION_LIMIT:
        raise ResourceLimitError(
            f"precision {int_text(precision)} + {guard} guard digits exceeds {PRECISION_LIMIT}"
        )
    bits = math.ceil((precision + guard) * math.log2(10))
    # e^{-y} 2^w >= 2^(bits+4): its enclosure's width 2 costs the value a
    # quarter unit at the value's scale 2^s, and a floor or ceiling one more
    w = bits + 4 + math.ceil(float(y) * math.log2(math.e))
    lo, hi = _exp_neg(y, w)
    low, high = lo * partial, hi * (partial + tail)
    shift = bits + 2 - (low.bit_length() - scale.bit_length())  # s - w
    if shift >= 0:
        value, upper = (low << shift) // scale, -(-(high << shift) // scale)
    else:
        value, upper = low // (scale << -shift), -(-high // (scale << -shift))
    return value, upper - value, w + shift

def _nstr(man: int, exp: int, digits: int) -> str:
    """man 2^exp > 0 rounded to nearest (a half up) at `digits` significant
    digits, laid out as mpmath.nstr lays out an mpf: in fixed point while the
    leading digit's exponent e has min(-(digits // 3), -5) < e < digits,
    else as d.ddde+E, with trailing zeros stripped down to one."""
    e = math.floor((man.bit_length() - 1 + exp) * math.log10(2))  # the exponent, or one below it
    top = 10**digits
    while True:
        k = digits - 1 - e
        # twice man 2^exp 10^k, floored, then rounded a half up
        N = ((man * 10 ** max(k, 0)) << (max(exp, 0) + 1)) // 10 ** max(-k, 0) >> max(-exp, 0)
        N = (N + 1) >> 1
        if N >= top:
            e += 1
        elif 10 * N < top:
            e -= 1
        else:
            break
    # up to 10^5 digits are printed through an int, past the digits Python
    # prints an int with; the limit is lifted for this one str() alone
    limit = int_digits_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text, split = str(N), 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if min(-(digits // 3), -5) < e < digits:  # fixed point: no exponent
        if e < 0:
            text = "0" * -e + text
        split, e = max(e, 0) + 1, 0
    text = (text[:split] + "." + text[split:]).rstrip("0")
    text += "0" if text.endswith(".") else ""
    return text if e == 0 else f"{text}e{e:+d}"
