"""Independent oracles for the benchmark's output checks.

Nothing in this module imports bellhop: every expected value comes from a
closed form or a construction of its own.

- Bell numbers from the Bell (Aitken) triangle; Stirling numbers of the
  second kind from the explicit alternating sum.
- Normal forms by the Bargmann-Fock representation (a -> d/dx, ad -> x on
  Q[x]), plus two closed forms: the BCH expansion of (c1 ad + c2 a)^n and
  S(n, k) on the diagonal of (ad a)^n (Blasiak, Penson & Solomon, Ann.
  Combin. 7, 2003).
- The set-partition census from n! / prod(k!^m_k m_k!) over integer
  partitions generated here.
- Coherent-state moments: Touchard polynomials for ad a, Gaussian moments
  for a + ad.
- Coproducts from the binomial formula for primitive generators.
- The regularised partition function from (1 - e^(-alpha M)) / alpha.

Every checker raises Mismatch with a short description on the first
disagreement.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

A, AD = 0, 1  # letters of a boson word: annihilator a, creator ad


class Mismatch(Exception):
    """A program output disagrees with its oracle."""


def require(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


# --------------------------------------------------------------------------
# Bell and Stirling numbers
# --------------------------------------------------------------------------


def bell_numbers(nmax: int) -> list[int]:
    """B(0..nmax) from the Bell triangle: each row starts with the last
    entry of the row above, and each next entry adds the entry above."""
    out = [1]
    row = [1]
    for _ in range(nmax):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        out.append(row[0])
    return out


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """S(n, k) = (1/k!) sum_j (-1)^j C(k, j) (k - j)^n."""
    if k < 0 or k > n:
        return 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


@lru_cache(maxsize=None)
def touchard(n: int, y: Fraction) -> Fraction:
    """Bell polynomial B_n(y) = sum_k S(n, k) y^k, exact."""
    y = Fraction(y)
    return sum((stirling2(n, k) * y**k for k in range(n + 1)), Fraction(0))


# --------------------------------------------------------------------------
# Integer partitions and the set-partition census
# --------------------------------------------------------------------------


def integer_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as ascending tuples."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, smallest: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(smallest, remaining + 1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, 1, [])
    return out


def census_multiplicity(parts: tuple[int, ...]) -> int:
    """Set partitions of {1..n} whose block sizes are `parts`:
    n! / prod_k (k!^m_k m_k!)."""
    denom = 1
    for k in set(parts):
        m = parts.count(k)
        denom *= math.factorial(k) ** m * math.factorial(m)
    return math.factorial(sum(parts)) // denom


def check_census(n: int, counts: dict[tuple[int, ...], int]):
    """counts maps ascending block-size tuples to multiplicities."""
    expected = set(integer_partitions(n))
    require(set(counts) == expected, f"census {n}: keys are not the integer partitions of {n}")
    for parts, c in counts.items():
        want = census_multiplicity(parts)
        require(c == want, f"census {n}: {parts} has {c}, expected {want}")


def monomials_up_to_weight(w: int) -> int:
    return sum(len(integer_partitions(j)) for j in range(w + 1))


# --------------------------------------------------------------------------
# Normal ordering in the Bargmann-Fock representation
# --------------------------------------------------------------------------

Poly = dict[int, Fraction]  # exponent -> coefficient


def apply_word(word: tuple[int, ...], poly: Poly) -> Poly:
    """The operator word acting on a polynomial; the rightmost letter acts
    first, a as d/dx and ad as multiplication by x."""
    for letter in reversed(word):
        if letter == AD:
            poly = {e + 1: c for e, c in poly.items()}
        else:
            poly = {e - 1: c * e for e, c in poly.items() if e}
    return poly


def apply_sum_power(terms: list[tuple[Fraction, tuple[int, ...]]], power: int, poly: Poly) -> Poly:
    """(sum_i c_i w_i)^power acting on poly, one factor at a time, so the
    2^n-word expansion is never formed."""
    for _ in range(power):
        out: Poly = {}
        for c, word in terms:
            for e, v in apply_word(word, poly).items():
                out[e] = out.get(e, Fraction(0)) + c * v
        poly = {e: v for e, v in out.items() if v}
    return poly


def apply_normal_form(form: dict[tuple[int, int], Fraction], m: int) -> Poly:
    """sum c_rs ad^r a^s acting on x^m."""
    out: Poly = {}
    for (r, s), c in form.items():
        if s <= m:
            e = m - s + r
            out[e] = out.get(e, Fraction(0)) + c * math.perm(m, s)
    return {e: v for e, v in out.items() if v}


def max_annihilators(terms: list[tuple[Fraction, tuple[int, ...]]], power: int) -> int:
    return power * max((word.count(A) for _, word in terms), default=0)


def check_normal_form(terms, power: int, form: dict[tuple[int, int], Fraction], label: str):
    """The expression (sum terms)^power and the returned normal form agree
    on x^m for m = 0..max s, which fixes every coefficient."""
    smax = max([max_annihilators(terms, power)] + [s for (_, s) in form])
    for m in range(smax + 1):
        want = apply_sum_power(terms, power, {m: Fraction(1)})
        got = apply_normal_form(form, m)
        require(got == want, f"{label}: normal form disagrees with the expression on x^{m}")


def linear_power_form(c1: Fraction, c2: Fraction, n: int) -> dict[tuple[int, int], Fraction]:
    """(c1 ad + c2 a)^n = sum n!/(r! s! k! 2^k) c1^r c2^s (c1 c2)^k ad^r a^s,
    r + s + 2k = n."""
    out = {}
    for k in range(n // 2 + 1):
        for r in range(n - 2 * k + 1):
            s = n - 2 * k - r
            coeff = Fraction(math.factorial(n), math.factorial(r) * math.factorial(s) * math.factorial(k) * 2**k)
            out[(r, s)] = coeff * c1**r * c2**s * (c1 * c2) ** k
    return {rs: c for rs, c in out.items() if c}


def number_power_form(n: int, c: Fraction = Fraction(1)) -> dict[tuple[int, int], Fraction]:
    """c (ad a)^n = c sum_k S(n, k) ad^k a^k."""
    return {(k, k): c * stirling2(n, k) for k in range(n + 1) if stirling2(n, k)}


_NF_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\s*)?((?:ad(?:\^\d+)?)?)\s*((?:a(?:\^\d+)?)?)$")


def parse_normal_form(text: str) -> dict[tuple[int, int], Fraction]:
    """Read 'ad^2 a^2 + 4 ad a - 1/2' back into {(r, s): coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[tuple[int, int], Fraction] = {}
    pieces = re.split(r"\s+([+-])\s+", text)
    signs = ["+"] + pieces[1::2]
    for sign, body in zip(signs, pieces[0::2]):
        if body.startswith("-"):
            sign, body = ("-" if sign == "+" else "+"), body[1:]
        match = _NF_TERM.match(body.strip())
        require(match is not None and body.strip() != "", f"unreadable normal-form term {body!r}")
        num, ad, a = match.groups()
        r = 0 if not ad else (int(ad[3:]) if "^" in ad else 1)
        s = 0 if not a else (int(a[2:]) if "^" in a else 1)
        c = Fraction(num) if num else Fraction(1)
        require((r, s) not in out, f"repeated normal-form term {body!r}")
        out[(r, s)] = -c if sign == "-" else c
    return out


# --------------------------------------------------------------------------
# Coherent-state moments (real rational z)
# --------------------------------------------------------------------------


def number_moments(nmax: int, z: Fraction) -> list[Fraction]:
    """<z|(ad a)^n|z> = B_n(|z|^2)."""
    return [touchard(n, Fraction(z) ** 2) for n in range(nmax + 1)]


def quadrature_moments(nmax: int, z: Fraction) -> list[Fraction]:
    """<z|(a + ad)^n|z> for real z: moments of 2z + G with G standard
    normal, sum over even k of C(n, k) (2z)^(n-k) (k-1)!!."""
    out = []
    for n in range(nmax + 1):
        acc = Fraction(0)
        for k in range(0, n + 1, 2):
            acc += math.comb(n, k) * (2 * Fraction(z)) ** (n - k) * math.prod(range(k - 1, 0, -2))
        out.append(acc)
    return out


def number_connected(nmax: int, z: Fraction) -> list[Fraction]:
    """log of the (ad a) moment EGF is |z|^2 (e^x - 1): every V_n = |z|^2."""
    return [Fraction(z) ** 2] * nmax


def quadrature_connected(nmax: int, z: Fraction) -> list[Fraction]:
    """log of the (a + ad) moment EGF is 2z x + x^2/2."""
    return ([2 * Fraction(z), Fraction(1)] + [Fraction(0)] * nmax)[:nmax]


def egf_value(seq, x: float) -> float:
    return math.fsum(float(c) * x**n / math.factorial(n) for n, c in enumerate(seq))


def close(got: float, want: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(got - want) <= max(rel * abs(want), absolute)


# --------------------------------------------------------------------------
# Dobinski
# --------------------------------------------------------------------------


def check_dobinski(value: Fraction, tail: Fraction, exact: Fraction, precision: int, label: str):
    """value <= B_n(y) <= value + tail_bound, up to working-precision
    representation error."""
    slack = abs(exact) * Fraction(1, 10**precision)
    require(tail >= 0, f"{label}: negative tail bound")
    require(value <= exact + slack, f"{label}: value exceeds B_n(y)")
    require(exact <= value + tail + slack, f"{label}: B_n(y) lies beyond value + tail_bound")


# --------------------------------------------------------------------------
# BELL Hopf algebra
# --------------------------------------------------------------------------


def coproduct_monomial(letters: tuple[int, ...]) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Delta(y^alpha) = sum_beta prod_k C(alpha_k, beta_k) y^beta (x) y^(alpha-beta)."""
    mult = {k: letters.count(k) for k in sorted(set(letters))}
    out = {((), ()): 1}
    for k, m in mult.items():
        new = {}
        for (left, right), c in out.items():
            for j in range(m + 1):
                key = (tuple(sorted(left + (k,) * j)), tuple(sorted(right + (k,) * (m - j))))
                new[key] = new.get(key, 0) + c * math.comb(m, j)
        out = new
    return out


def coproduct_element(terms: dict[tuple[int, ...], Fraction]) -> dict:
    out: dict = {}
    for letters, c in terms.items():
        for pair, d in coproduct_monomial(letters).items():
            out[pair] = out.get(pair, Fraction(0)) + c * d
    return {p: v for p, v in out.items() if v}


def antipode_element(terms: dict[tuple[int, ...], Fraction]) -> dict:
    """Primitive generators: S(y^alpha) = (-1)^deg y^alpha."""
    return {m: c * (-1) ** len(m) for m, c in terms.items() if c}


# --------------------------------------------------------------------------
# Partition function
# --------------------------------------------------------------------------


def regularized_Z(beta: float, epsilon: float, cutoff: float) -> float:
    """integral_0^M exp(-alpha y) dy = (1 - e^(-alpha M)) / alpha, with
    alpha = 1 - e^(-beta epsilon)."""
    alpha = -math.expm1(-beta * epsilon)
    return -math.expm1(-alpha * cutoff) / alpha
