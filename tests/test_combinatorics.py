"""Exact combinatorics: recurrences vs brute-force enumeration oracles."""

import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellhop import combinatorics
from bellhop.combinatorics import (
    SetPartition,
    bell,
    bell_polynomial,
    diagram_census,
    dobinski_bell,
    dobinski_bell_poly,
    enumerate_set_partitions,
    partition_count,
    restricted_growth_strings,
    stirling2,
)
from bellhop.errors import ResourceLimitError
from bellhop.hopf import Monomial


def _dob_close(res, exact, slack_exp=-25):
    """Compare a Dobinski result against an exact rational at full precision."""
    exact = Fraction(exact)
    with mpmath.workdps(res.precision + 15):
        diff = abs(res.value - mpmath.mpf(exact.numerator) / exact.denominator)
        return diff <= res.tail_bound + mpmath.mpf(10) ** slack_exp


def brute_force_partitions(n):
    """Independent oracle: grow partitions element by element."""
    parts = [[]]
    for x in range(1, n + 1):
        new = []
        for p in parts:
            for i in range(len(p)):
                new.append([blk + [x] if j == i else blk for j, blk in enumerate(p)])
            new.append(p + [[x]])
        parts = new
    return [tuple(tuple(b) for b in p) for p in parts]


# ---------------------------------------------------------------------------
# Stirling / Bell


def test_stirling_trivial():
    assert stirling2(3, 3) == 1
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(2, 5) == 0


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 2)])
def test_stirling_vs_brute_force(n, k):
    oracle = sum(1 for p in brute_force_partitions(n) if len(p) == k)
    assert stirling2(n, k) == oracle


def test_stirling_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7


def test_bell_reference_values():
    assert [bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_bell_is_stirling_row_sum():
    for n in range(13):
        assert bell(n) == sum(stirling2(n, k) for k in range(n + 1))


def test_stirling_sum_agrees_with_rows(monkeypatch):
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    summed = [[stirling2(n, k) for k in range(n + 1)] for n in range(61)]
    assert len(combinatorics._STIRLING_ROWS) == 1  # the explicit sum builds no row
    assert summed == [list(combinatorics._stirling_row(n)) for n in range(61)]
    assert [[stirling2(n, k) for k in range(n + 1)] for n in range(61)] == summed


def test_stirling_rows_under_threads(monkeypatch):
    reference = [combinatorics._stirling_row(n) for n in range(121)]
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])

    def build(seed):
        order = list(range(121))
        random.Random(seed).shuffle(order)
        for n in order:
            combinatorics._stirling_row(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert combinatorics._STIRLING_ROWS == reference


def _python(code: str) -> str:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_bell_499_needs_no_recursion():
    # a fresh interpreter: the rows 0..499 are built in a loop, not a call chain
    got = int(_python("from bellhop import bell; print(bell(499))"))
    row = [1]  # Bell triangle (Aitken's array): row n starts with B(n)
    for _ in range(499):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    assert got == row[0]


def test_bell_polynomial():
    assert bell_polynomial(1, Fraction(7, 3)) == Fraction(7, 3)
    assert bell_polynomial(3, 2) == 22  # y + 3y^2 + y^3 at y = 2
    for n in range(11):
        assert bell_polynomial(n, 1) == bell(n)


def test_partition_count():
    # p(0..10) = 1 1 2 3 5 7 11 15 22 30 42
    assert [partition_count(n) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


# ---------------------------------------------------------------------------
# Dobinski


def test_dobinski_bell_certified():
    for n, K in [(3, 30), (0, 10), (8, 60)]:
        res = dobinski_bell(n, K, 50)
        assert _dob_close(res, bell(n), slack_exp=-40)


def test_dobinski_bell_8_tight():
    res = dobinski_bell(8, 60, 50)
    assert abs(res.value - 4140) < mpmath.mpf(10) ** (-20)


def test_dobinski_tail_bound_certifies_for_small_K():
    # K below the geometric regime still certifies
    for n in range(0, 16):
        for K in (max(1, n // 2), 2 * n + 2, 2 * n + 40):
            res = dobinski_bell(n, K, 50)
            assert _dob_close(res, bell(n), slack_exp=-35)


def test_dobinski_poly_matches_exact():
    for n in range(11):
        for y in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)):
            res = dobinski_bell_poly(n, y, 2 * n + 40, 40)
            assert _dob_close(res, bell_polynomial(n, y))


def test_dobinski_poly_examples():
    res = dobinski_bell_poly(2, 2, 40, 30)
    assert _dob_close(res, 6, slack_exp=-20)
    res = dobinski_bell_poly(0, Fraction(5, 2), 40, 30)
    assert _dob_close(res, 1, slack_exp=-20)


def _dobinski_per_term(n, y, K, precision):
    """dobinski_bell_poly with one Fraction per term: the reference for the
    integer sum, through the same mpmath steps."""
    y = Fraction(y)

    def term(k):
        kn = 1 if (k == 0 and n == 0) else k**n  # 0^0 = 1 by convention
        return Fraction(kn) * y**k / math.factorial(k)

    partial = sum(term(k) for k in range(K + 1))
    k0 = combinatorics._dobinski_tail_start(n, K, math.ceil(y))
    tail = sum(term(k) for k in range(K + 1, k0)) + 2 * term(k0)
    ratio = partial / tail
    guard = 10 + len(str(1 + ratio.numerator // ratio.denominator))
    with mpmath.workdps(precision + guard):
        prefactor = mpmath.e ** (-mpmath.mpf(y.numerator) / y.denominator)
        value = prefactor * partial.numerator / partial.denominator
        bound = prefactor * tail.numerator / tail.denominator
        return +value, +bound


@pytest.mark.parametrize("n, y, K, precision", [
    (0, Fraction(5, 2), 40, 30), (0, Fraction(1, 3), 1, 20), (5, 1, 60, 50),
    (10, Fraction(2, 3), 60, 50), (60, Fraction(23, 8), 200, 80), (7, Fraction(41, 5), 3, 25),
])
def test_dobinski_integer_sum_matches_per_term_fractions(n, y, K, precision):
    res = dobinski_bell_poly(n, y, K, precision)
    value, bound = _dobinski_per_term(n, y, K, precision)
    assert (res.value, res.tail_bound) == (value, bound)


def test_dobinski_rejects_low_precision():
    with pytest.raises(ValueError):
        dobinski_bell(3, 30, 8)
    with pytest.raises(ValueError):
        dobinski_bell(3, 0, 50)


# ---------------------------------------------------------------------------
# Enumeration and census


def test_enumerate_n1():
    assert list(enumerate_set_partitions(1)) == [SetPartition(1, ((1,),))]


def test_enumerate_n3_explicit_list():
    got = {str(p) for p in enumerate_set_partitions(3)}
    assert got == {"{1,2,3}", "{1,2}{3}", "{1,3}{2}", "{1}{2,3}", "{1}{2}{3}"}


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_count_and_uniqueness(n):
    parts = list(enumerate_set_partitions(n))
    assert len(parts) == bell(n)
    assert len(set(parts)) == len(parts)
    oracle = {frozenset(map(frozenset, p)) for p in brute_force_partitions(n)}
    assert {frozenset(map(frozenset, p.blocks)) for p in parts} == oracle


def test_enumeration_blocks_by_k():
    for n in range(1, 9):
        by_k = {}
        for p in enumerate_set_partitions(n):
            by_k[p.num_blocks] = by_k.get(p.num_blocks, 0) + 1
        for k in range(1, n + 1):
            assert by_k.get(k, 0) == stirling2(n, k)


def test_rgs_lexicographic_order():
    strings = list(restricted_growth_strings(4))
    assert strings == sorted(strings)
    assert strings[0] == (0, 0, 0, 0)
    assert strings[-1] == (0, 1, 2, 3)


def test_enumeration_limit():
    with pytest.raises(ResourceLimitError):
        list(enumerate_set_partitions(15))
    with pytest.raises(ResourceLimitError):
        diagram_census(26)
    with pytest.raises(ResourceLimitError):
        diagram_census(9, limit=8)
    # limit is overridable
    assert diagram_census(9, limit=9).total() == bell(9)


def test_limit_messages_name_the_work():
    with pytest.raises(ResourceLimitError, match=r"^diagram census for n=26 exceeds the limit 25$"):
        diagram_census(26)
    with pytest.raises(ResourceLimitError, match=r"^set-partition enumeration for n=15 "):
        list(enumerate_set_partitions(15))


def test_enumeration_n10_count():
    assert sum(1 for _ in enumerate_set_partitions(10)) == 115975


def test_census_n3():
    census = diagram_census(3)
    assert census.counts == {
        Monomial((1, 1, 1)): 1,
        Monomial((1, 2)): 3,
        Monomial((3,)): 1,
    }


def test_census_n1():
    assert diagram_census(1).counts == {Monomial((1,)): 1}


def test_census_n5():
    census = diagram_census(5)
    assert census.total() == 52
    assert len(census.counts) == 7


def multinomial_census_oracle(n):
    """Closed-form multiplicity: n! / (prod (k!)^m_k m_k!)."""
    import math

    out = {}
    for key in _partitions_of(n):
        mult = math.factorial(n)
        counts = {}
        for k in key:
            counts[k] = counts.get(k, 0) + 1
        for k, m in counts.items():
            mult //= math.factorial(k) ** m * math.factorial(m)
        out[tuple(sorted(key))] = mult
    return out


def _partitions_of(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions_of(n - part, part):
            yield (part,) + rest


def test_census_at_its_limit():
    # the recurrence keeps p(n) monomials, so n = CENSUS_LIMIT stays cheap
    n = combinatorics.CENSUS_LIMIT
    start = time.perf_counter()
    census = diagram_census(n)
    assert time.perf_counter() - start < 2.0
    assert census.total() == bell(n)
    assert len(census.counts) == partition_count(n)


@pytest.mark.parametrize("n", range(1, 15))
def test_census_invariants(n):
    census = diagram_census(n)
    assert census.total() == bell(n)
    assert len(census.counts) == partition_count(n)
    for m in census.counts:
        assert m.weight == n
    oracle = multinomial_census_oracle(n)
    assert {m.letters: c for m, c in census.counts.items()} == oracle


def _census_py(n):
    """Pure-Python census kernel: tally every restricted growth string of
    length n by the sorted sizes of its blocks."""
    counts = {}
    for rgs in restricted_growth_strings(n):
        sizes = [0] * (max(rgs) + 1)
        for v in rgs:
            sizes[v] += 1
        key = tuple(sorted(sizes))
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("n", range(1, 11))
def test_python_census_kernel_matches(n):
    # the enumerating kernel is the reference for the Bell-polynomial recurrence
    raw = _census_py(n)
    assert {Monomial(k): v for k, v in raw.items()} == diagram_census(n).counts


def test_setpartition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2),))  # missing 3
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        SetPartition(2, ((1, 2), ()))  # empty block


def test_setpartition_canonical_form():
    p = SetPartition(4, ((4, 2), (3, 1)))
    assert p.blocks == ((1, 3), (2, 4))


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_stirling_recurrence_property(n, k):
    if n >= 1 and k >= 1:
        assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=8),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(5), max_denominator=20),
)
def test_dobinski_poly_property(n, y):
    res = dobinski_bell_poly(n, y, 2 * n + 30, 30)
    assert _dob_close(res, bell_polynomial(n, y), slack_exp=-15)
