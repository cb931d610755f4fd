"""Exact integer combinatorics: Stirling and Bell numbers, Bell polynomials,
truncated Dobinski evaluation with certified tail bounds, set-partition
enumeration, and the block-size census as the complete Bell polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

import math
import threading

from .errors import ResourceLimitError
from .hopf import Monomial

if TYPE_CHECKING:
    import mpmath

ENUMERATION_LIMIT = 14  # enumeration yields B(n) partitions: B(14) = 190,899,322
# the census keeps p(m) monomials in row m, not B(m) partitions: p(25) = 1,958
CENSUS_LIMIT = 25


# --------------------------------------------------------------------------
# Stirling / Bell numbers
# --------------------------------------------------------------------------


# rows S(n, 0..n) built so far, row n at index n; the lock keeps two
# threads from appending the same row twice, which would shift later indices
_STIRLING_ROWS: list[tuple[int, ...]] = [(1,)]
_STIRLING_LOCK = threading.Lock()


def _stirling_row(n: int) -> tuple[int, ...]:
    """Row S(n, 0..n), filled in a loop from the last row built and kept."""
    rows = _STIRLING_ROWS
    if n >= len(rows):
        with _STIRLING_LOCK:
            while len(rows) <= n:
                # S(m, k) = k S(m-1, k) + S(m-1, k-1); S(m, 0) = 0 and S(m, m) = 1
                prev = rows[-1]
                rows.append((0, *(k * prev[k] + prev[k - 1] for k in range(1, len(prev))), 1))
    return rows[n]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind; 0 when k > n or (k=0, n>0).

    Read from row n when it is built; otherwise the explicit sum
    S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n / k!, which builds no rows.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        return 0
    if n < len(_STIRLING_ROWS):
        return _STIRLING_ROWS[n][k]
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def bell(n: int) -> int:
    """Number of partitions of an n-element set; bell(0) = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(_stirling_row(n))


def bell_polynomial(n: int, y) -> Fraction:
    """Exact evaluation of sum_k S(n,k) y^k at rational y = p/q, as the one
    integer sum_k S(n,k) p^k q^(n-k) over q^n."""
    y = Fraction(y)
    p, q = y.numerator, y.denominator
    return Fraction(sum(s * p**k * q ** (n - k) for k, s in enumerate(_stirling_row(n))), q**n)


def partition_count(n: int) -> int:
    """Number of integer partitions of n, by the parts-bounded recurrence.

    Independent of the census path; used to cross-check its key count.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # p(n, k) = partitions of n into parts <= k
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n] if n > 0 else 1


# --------------------------------------------------------------------------
# Dobinski evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DobinskiResult:
    """Truncated Dobinski value with a certified bound on the omitted tail."""

    value: mpmath.mpf
    tail_bound: mpmath.mpf
    terms_used: int
    precision: int


def _over_common_denominator(x: Fraction, N: int, shift: int) -> list[int]:
    """Integers u_0..u_N with u_n / u_0 = x^n / (n + shift)! for shift 0 or 1.

    With x = m / d, u_n = m^n d^(N-n) (N + shift)! / (n + shift)!, so sums of
    terms x^n / (n + shift)! become integer sums with one division at the end.
    """
    m, d = x.as_integer_ratio()
    u = [d**N * math.factorial(N + shift)]
    for n in range(N):
        u.append(u[n] * m // (d * (n + 1 + shift)))  # exact: d and n + 1 + shift divide u[n]
    return u


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
    import mpmath  # only the Dobinski paths pay for it

    if K < 1:
        raise ValueError("K must be >= 1")
    if precision < 10:
        raise ValueError("precision below 10 digits gives a meaningless certificate")
    y = Fraction(y)
    if y <= 0:
        raise ValueError("y must be positive")
    k0 = _dobinski_tail_start(n, K, -(-y.numerator // y.denominator))
    u = _over_common_denominator(y, k0, 0)  # u_k / u_0 = y^k / k!, and 0**0 == 1
    partial = Fraction(sum(k**n * u[k] for k in range(K + 1)), u[0])
    # explicit terms up to the geometric regime, then a factor-2 cap
    tail_frac = Fraction(sum(k**n * u[k] for k in range(K + 1, k0)) + 2 * k0**n * u[k0], u[0])
    # Padding so the prefactor multiplication's roundoff stays far below
    # the certified truncation tail, however tight that tail is.
    ratio = partial / tail_frac
    guard = 10 + len(str(1 + ratio.numerator // ratio.denominator))
    with mpmath.workdps(precision + guard):
        prefactor = mpmath.e ** (-mpmath.mpf(y.numerator) / y.denominator)
        value = prefactor * partial.numerator / partial.denominator
        tail = prefactor * tail_frac.numerator / tail_frac.denominator
        out_value = +value
        out_tail = +tail
    return DobinskiResult(out_value, out_tail, K + 1, precision)


# --------------------------------------------------------------------------
# Set partitions and the diagram census
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..n}; blocks are canonically sorted by least element."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if seen.intersection(block):
                raise ValueError("blocks are not disjoint")
            seen.update(block)
        if seen != set(range(1, self.n + 1)):
            raise ValueError(f"blocks do not cover 1..{self.n}")
        canonical = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0]))
        object.__setattr__(self, "blocks", canonical)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(b) for b in self.blocks))

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


@dataclass(frozen=True)
class DiagramCensus:
    """Partitions of {1..n} grouped by block-size multiset, keyed by the
    monomial coding a size-k block as the letter y_k."""

    n: int
    counts: dict[Monomial, int]

    def total(self) -> int:
        return sum(self.counts.values())


def _check_limit(n: int, limit: int, what: str):
    if n < 1:
        raise ValueError("n must be positive")
    if n > limit:
        raise ResourceLimitError(f"{what} for n={n} exceeds the limit {limit}")


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length n, lexicographically."""
    a = [0] * n
    b = [0] * n  # running prefix maxima
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] > b[j - 1]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        b[j] = max(b[j - 1], a[j])
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = b[i - 1]


def enumerate_set_partitions(n: int, limit: int = ENUMERATION_LIMIT) -> Iterator[SetPartition]:
    """Every partition of {1..n} exactly once, in restricted-growth-string
    lexicographic order (blocks come out sorted by least element)."""
    _check_limit(n, limit, "set-partition enumeration")
    for rgs in restricted_growth_strings(n):
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for i, v in enumerate(rgs, start=1):
            blocks[v].append(i)
        yield SetPartition(n, tuple(tuple(b) for b in blocks))


def diagram_census(n: int, limit: int = CENSUS_LIMIT) -> DiagramCensus:
    """Tally all partitions of {1..n} by block-size multiset.

    The tally is the complete Bell polynomial Y_n(y_1..y_n), computed by its
    recurrence without enumerating the partitions.
    """
    _check_limit(n, limit, "diagram census")
    # exp in BELL, i.e. the complete Bell polynomial: Y_m = sum_k C(m-1,k-1) y_k Y_{m-k}
    Y: list[dict[Monomial, int]] = [{Monomial(): 1}]
    for m in range(1, n + 1):
        row: dict[Monomial, int] = {}
        for k in range(1, m + 1):
            c, y_k = math.comb(m - 1, k - 1), Monomial((k,))
            for mono, count in Y[m - k].items():
                key = y_k * mono
                row[key] = row.get(key, 0) + c * count
        Y.append(row)
    return DiagramCensus(n, Y[n])
