"""Exact integer combinatorics, bellhop's base layer (of bellhop it loads
`errors` alone): Stirling and Bell numbers, Bell polynomials, integer
partitions, set-partition enumeration, and the block-size census as the
complete Bell polynomial, keyed by `Monomial`, the BELL algebra's basis."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, NamedTuple

import itertools
import math
import operator
import threading

from .errors import SERIES_BITS_LIMIT, ResourceLimitError, _polynomial_at, float_times, int_text, size

ENUMERATION_LIMIT = 14  # enumeration yields B(n) partitions: B(14) = 190,899,322
# the census keeps p(m) monomials in row m, not B(m) partitions: p(25) = 1,958
CENSUS_LIMIT = 25
# digits of the powers in stirling2's explicit sum, about 10 ms of work;
# S(697, 697) takes 1.38e6, S(1000, 1000) = 1 would take 3e6, S(12000, 12000) 6e8
STIRLING_SUM_LIMIT = 1_500_000
# partition_count's n: p(40,000) takes ~1 s and a few MiB (Python 3.11, 2-vCPU VM)
PARTITION_LIMIT = 40_000


# --------------------------------------------------------------------------
# Stirling / Bell numbers
# --------------------------------------------------------------------------


# rows S(n, 0..n) built so far, row n at index n: bell (bell_egf through it)
# and bell_polynomial extend them; stirling2 reads a row built and never
# builds one.  The lock keeps two threads from appending a row twice, which
# would shift later ones
_STIRLING_ROWS: list[tuple[int, ...]] = [(1,)]
_STIRLING_LOCK = threading.Lock()


def _stirling_row(n: int) -> tuple[int, ...]:
    """Row S(n, 0..n), filled in a loop from the last row built and kept.

    Refused before any row is built when the rows 0..n would hold more
    than SERIES_BITS_LIMIT bits: row m has m + 1 entries of at most
    m log2(m) bits (S(m, k) <= k^m / k!), and log2(n) bounds every
    log2(m), so the rows hold at most log2(n) n (n + 1) (n + 2) / 3 bits.
    The bound counts the whole kept table, since a loop over n builds one
    row a call; it refuses from n = 698 on.
    """
    rows = _STIRLING_ROWS
    if n >= len(rows):
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
    return rows[n]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind; 0 when k > n or (k=0, n>0).

    Read from row n when it is built; otherwise the explicit sum
    S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n / k!, which builds no rows,
    refused before the work when its k + 1 powers of up to n log10(k)
    digits pass STIRLING_SUM_LIMIT digits in all.
    """
    n, k = size(n), size(k, "k")
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


@cache
def bell(n: int) -> int:
    """Number of partitions of an n-element set; bell(0) = 1: the sum of
    Stirling row n, memoized, so bell(0..N) sums each row once a process
    (at most 698 entries: a refusal past row 697 is not cached).  A float
    is refused even where an int of its value is kept: the memo keys an
    int by itself and any other argument by a tuple, so 2.0 misses B(2)."""
    return sum(_stirling_row(size(n)))


def bell_polynomial(n: int, y) -> Fraction:
    """Exact evaluation of sum_k S(n,k) y^k at rational y = p/q, by Horner
    over a power of q: the one integer sum_k S(n,k) p^k q^(n-k) over q^n."""
    return _polynomial_at(enumerate(_stirling_row(size(n))), 1, Fraction(y))


def partition_count(n: int) -> int:
    """Number of integer partitions of n, by Euler's pentagonal-number
    recurrence p(m) = sum_k>=1 (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))
    in O(n) memory.  Independent of the census, whose key count it checks."""
    n = size(n, limit=PARTITION_LIMIT, what="partition count for n=")
    # the pentagonal numbers k(3k -+ 1)/2 <= n, of odd k and of even k, need k <= sqrt(n)
    ks = range(1, math.isqrt(n) + 1)
    added, subtracted = ([g for k in half for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)]
                         for half in (ks[::2], ks[1::2]))
    p = [1]
    for m in range(1, n + 1):
        total = 0
        for g in added:
            if g > m:
                break
            total += p[m - g]
        for g in subtracted:
            if g > m:
                break
            total -= p[m - g]
        p.append(total)
    return p[n]


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


class Monomial(tuple):
    """A commutative word in the alphabet {y_1, y_2, ...}: the sorted tuple
    of its letter indices, so hash, equality and order are the tuple's.

    The empty tuple is the algebra unit.  The constructor is the one place
    letters are checked; a product of two monomials merges them without
    checking again.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()) -> "Monomial":
        letters = sorted(map(operator.index, letters))  # a float or str letter raises TypeError
        if letters and letters[0] < 1:
            raise ValueError("letter indices must be positive")
        return tuple.__new__(cls, letters)

    letters = property(tuple)  # the plain tuple
    weight = property(sum)  # sum of the indices
    degree = property(len)  # number of letters

    def __mul__(self, other: "Monomial") -> "Monomial":
        return tuple.__new__(Monomial, sorted(self + other))

    def multiplicities(self) -> dict[int, int]:
        return {k: len(list(run)) for k, run in itertools.groupby(self)}

    def __str__(self) -> str:
        parts = (f"y{k}" if m == 1 else f"y{k}^{m}" for k, m in self.multiplicities().items())
        return "*".join(parts) or "1"


class DiagramCensus(NamedTuple):
    """Partitions of {1..n} grouped by block-size multiset, keyed by the
    monomial coding a size-k block as the letter y_k."""

    n: int
    counts: dict[Monomial, int]

    def total(self) -> int:
        return sum(self.counts.values())


def enumerate_set_partitions(n: int) -> Iterator[SetPartition]:
    """Every partition of {1..n} exactly once: element i joins each block of
    a partition of {1..i-1} in turn, then a block of its own.  That is
    restricted-growth-string lexicographic order, with blocks sorted by
    least element.  The empty set, n = 0, has one partition, of no blocks."""
    n = size(n, limit=ENUMERATION_LIMIT, what="set-partition enumeration for n=")

    def place(i: int, blocks: tuple[tuple[int, ...], ...]) -> Iterator[SetPartition]:
        if i > n:
            yield SetPartition(n, blocks)
            return
        for j in range(len(blocks)):
            yield from place(i + 1, blocks[:j] + (blocks[j] + (i,),) + blocks[j + 1:])
        yield from place(i + 1, blocks + ((i,),))

    return place(1, ())  # refused at the call, not at the first partition


def diagram_census(n: int) -> DiagramCensus:
    """Tally all partitions of {1..n} by block-size multiset.

    The tally is the complete Bell polynomial Y_n(y_1..y_n), computed by its
    recurrence without enumerating the partitions; Y_0 = 1 counts the empty
    set's one partition.
    """
    n = size(n, limit=CENSUS_LIMIT, what="diagram census for n=")
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
