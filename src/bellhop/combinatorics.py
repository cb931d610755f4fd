"""Exact integer combinatorics: Stirling and Bell numbers, Bell polynomials,
the size check of an exact series, set-partition enumeration, and the
block-size census as the complete Bell polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple

import math
import threading

from .errors import ResourceLimitError, _polynomial_at, float_times, int_text

if TYPE_CHECKING:
    from .hopf import Monomial

ENUMERATION_LIMIT = 14  # enumeration yields B(n) partitions: B(14) = 190,899,322
# the census keeps p(m) monomials in row m, not B(m) partitions: p(25) = 1,958
CENSUS_LIMIT = 25
# digits of the powers in stirling2's explicit sum, about 10 ms of work:
# S(1000, 1000) = 1 would take 3e6 digits, S(12000, 12000) 6e8
STIRLING_SUM_LIMIT = 10**6
# bits of one exact series' integers: at 2^30 (128 MiB), order 4000 at beta
# epsilon = 0.05, M = 20 takes ~1.5 s and 262 MiB (Python 3.11, 2-vCPU VM)
SERIES_BITS_LIMIT = 2**30


# --------------------------------------------------------------------------
# Stirling / Bell numbers
# --------------------------------------------------------------------------


# rows S(n, 0..n) built so far, row n at index n, and beside them the Bell
# numbers B(n) = sum_k S(n, k), B(n) at index n: bell (bell_egf through it)
# and bell_polynomial extend both, stirling2 reads the rows built, and
# combinatorial_Z runs the recurrence on its weights and builds none.  Each
# list is extended to n from its own length, so both stay index-aligned
# whatever the length of the other.  The lock keeps two threads from
# appending the same row or number twice, which would shift later indices
_STIRLING_ROWS: list[tuple[int, ...]] = [(1,)]
_BELLS: list[int] = [1]
_STIRLING_LOCK = threading.Lock()


def _stirling_row(n: int) -> tuple[int, ...]:
    """Row S(n, 0..n), filled in a loop from the last row built and kept,
    with B(0..n) beside it.

    Refused before any row is built when the rows 0..n would hold more
    than SERIES_BITS_LIMIT bits: row m has m + 1 entries of at most
    m log2(m) bits (S(m, k) <= k^m / k!), and log2(n) bounds every
    log2(m), so the rows hold at most log2(n) n (n + 1) (n + 2) / 3 bits.
    The bound counts the whole kept table, since a loop over n builds one
    row a call; it refuses from n = 698 on.
    """
    rows, bells = _STIRLING_ROWS, _BELLS
    if n >= len(rows) or n >= len(bells):
        bits = float_times(n * (n + 1) * (n + 2) // 3, math.log2(n)) if n > 1 else 0
        if bits > SERIES_BITS_LIMIT:
            raise ResourceLimitError(
                f"Stirling rows 0..{int_text(n)} take {bits:.3g} bits, past {SERIES_BITS_LIMIT}"
            )
        with _STIRLING_LOCK:
            while len(rows) <= n:
                # S(m, k) = k S(m-1, k) + S(m-1, k-1); S(m, 0) = 0 and S(m, m) = 1
                prev = rows[-1]
                rows.append((0, *(k * prev[k] + prev[k - 1] for k in range(1, len(prev))), 1))
            bells.extend(map(sum, rows[len(bells):n + 1]))
    return rows[n]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind; 0 when k > n or (k=0, n>0).

    Read from row n when it is built; otherwise the explicit sum
    S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n / k!, which builds no rows,
    refused when its k + 1 powers of up to n log10(k) digits pass
    STIRLING_SUM_LIMIT digits in all.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        return 0
    if n < len(_STIRLING_ROWS):
        return _STIRLING_ROWS[n][k]
    digits = float_times((k + 1) * n, math.log10(k)) if k > 1 else 0
    if digits > STIRLING_SUM_LIMIT:
        raise ResourceLimitError(
            f"S({int_text(n)}, {int_text(k)}) by the explicit sum needs {digits:.3g} digits of powers, "
            f"past the limit {STIRLING_SUM_LIMIT}"
        )
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def bell(n: int) -> int:
    """Number of partitions of an n-element set; bell(0) = 1.  Read from the
    kept Bell numbers, which _stirling_row extends with its rows."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= len(_BELLS):
        _stirling_row(n)
    return _BELLS[n]


def bell_polynomial(n: int, y) -> Fraction:
    """Exact evaluation of sum_k S(n,k) y^k at rational y = p/q, by Horner
    over a power of q: the one integer sum_k S(n,k) p^k q^(n-k) over q^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _polynomial_at(enumerate(_stirling_row(n)), 1, Fraction(y))


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


def _check_series(N: int, *points: Fraction) -> None:
    """Refuse an exact series of order N at the rational points x, before any
    term is built, when its N + 1 Horner steps on integers of N bits(x) +
    log2 N! bits pass SERIES_BITS_LIMIT bits in all."""
    width = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in points)
    # an N past the limit is refused as an int: lgamma(N + 1) can pass the float range
    bits = (N + 1) * (N * width + math.lgamma(N + 1) / math.log(2)) if N <= SERIES_BITS_LIMIT else math.inf
    if bits > SERIES_BITS_LIMIT:
        raise ResourceLimitError(
            f"a series of order {int_text(N)} takes {bits:.3g} bits, past {SERIES_BITS_LIMIT}"
        )


# --------------------------------------------------------------------------
# Set partitions and the diagram census
# --------------------------------------------------------------------------


class SetPartition(NamedTuple("SetPartition", [("n", int), ("blocks", tuple)])):
    """A partition of {1..n}; blocks are canonically sorted by least element."""

    __slots__ = ()

    def __new__(cls, n: int, blocks: tuple[tuple[int, ...], ...]):
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            if seen.intersection(block):
                raise ValueError("blocks are not disjoint")
            seen.update(block)
        if seen != set(range(1, n + 1)):
            raise ValueError(f"blocks do not cover 1..{n}")
        canonical = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return super().__new__(cls, n, canonical)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: it checks too
        return cls(*iterable)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


class DiagramCensus(NamedTuple):
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
        raise ResourceLimitError(f"{what} for n={int_text(n)} exceeds the limit {limit}")


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


def enumerate_set_partitions(n: int) -> Iterator[SetPartition]:
    """Every partition of {1..n} exactly once, in restricted-growth-string
    lexicographic order (blocks come out sorted by least element)."""
    _check_limit(n, ENUMERATION_LIMIT, "set-partition enumeration")
    for rgs in restricted_growth_strings(n):
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for i, v in enumerate(rgs, start=1):
            blocks[v].append(i)
        yield SetPartition(n, tuple(tuple(b) for b in blocks))


def diagram_census(n: int) -> DiagramCensus:
    """Tally all partitions of {1..n} by block-size multiset.

    The tally is the complete Bell polynomial Y_n(y_1..y_n), computed by its
    recurrence without enumerating the partitions.
    """
    from .hopf import Monomial  # the census key; only the census loads hopf

    _check_limit(n, CENSUS_LIMIT, "diagram census")
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
