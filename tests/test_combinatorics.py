"""Exact combinatorics: recurrences vs brute-force enumeration oracles."""

import copy
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellhop import combinatorics, enclosure
from bellhop.combinatorics import (
    SetPartition,
    bell,
    bell_polynomial,
    diagram_census,
    enumerate_set_partitions,
    partition_count,
    stirling2,
)
from bellhop.dobinski import BinaryFraction, dobinski_bell, dobinski_bell_poly
from bellhop.boson import BosonExpression, CoherentParam, coherent_expectation, normal_order, number_word, stirling_via_ordering
from bellhop.egf import EGFSeries, bell_egf, egf_exp, v_to_w
from bellhop.errors import ResourceLimitError, int_digits_limit
from bellhop.hopf import Monomial
from coefficient_rule import assert_canonical


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


def bell_triangle(nmax: int) -> list[int]:
    """B(0..nmax) by the Bell triangle (Aitken's array), whose row n starts
    with B(n): independent of the Stirling rows."""
    row, bells = [1], [1]
    for _ in range(nmax):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        bells.append(row[0])
    return bells


def test_stirling_rows_under_threads(monkeypatch):
    reference = [combinatorics._stirling_row(n) for n in range(121)]
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    bell.cache_clear()

    def build(seed):
        order = list(range(121))
        random.Random(seed).shuffle(order)
        extend = bell if seed % 2 else combinatorics._stirling_row
        for n in order:
            extend(n)

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
    # the memo, filled by the threads calling bell, holds each B(n) once
    assert [bell(n) for n in range(121)] == bell_triangle(120)
    assert bell.cache_info().currsize == 121


def test_kept_bell_numbers_stay_at_their_index_when_the_rows_are_reset(monkeypatch):
    bell.cache_clear()
    bell(30)
    # rows reset below the memo: B(0..30) are read from it, and the numbers
    # past B(30) are summed from the rebuilt rows
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    assert bell(30) == bell_triangle(30)[-1] and combinatorics._STIRLING_ROWS == [(1,)]
    assert [bell(n) for n in range(61)] == bell_triangle(60)
    assert len(combinatorics._STIRLING_ROWS) == bell.cache_info().currsize == 61
    # the memo reset below the kept rows: each number is summed from the
    # rows built, and no row is built again
    rows = combinatorics._STIRLING_ROWS[:]
    bell.cache_clear()
    assert [bell(n) for n in range(61)] == bell_triangle(60)
    assert combinatorics._STIRLING_ROWS == rows


def test_stirling_rows_past_the_bits_limit_are_refused_before_any_is_built(monkeypatch):
    # rows 0..n hold at most log2(n) n (n + 1) (n + 2) / 3 bits, past
    # SERIES_BITS_LIMIT from n = 698 on; the ascending loops of bell_egf and
    # the CLI ask for B(n) first, so they are refused before any row too
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    bell.cache_clear()
    start = time.perf_counter()
    for call in (lambda: bell(698), lambda: bell(10**4), lambda: bell_egf(10**4),
                 lambda: bell_polynomial(10**4, 1), lambda: combinatorics._stirling_row(10**4)):
        with pytest.raises(ResourceLimitError, match=r"^Stirling rows 0\.\.\d+ take [0-9.e+]+ bits, past 1073741824$"):
            call()
    assert time.perf_counter() - start < 1.0
    # a refusal is not memoized: nothing is kept
    assert combinatorics._STIRLING_ROWS == [(1,)] and bell.cache_info().currsize == 0
    # the largest table admitted: a process peak of 80 MiB, ~0.2 s on 2 vCPUs
    assert bell(697) == bell_triangle(697)[-1]


# each exact integer function reads its integer arguments with
# operator.index before any branch: a float is a TypeError whether rows are
# kept or not, and builds no row
NON_INTEGER_CALLS = {
    "stirling2-n": lambda: stirling2(50.0, 3),
    "stirling2-k": lambda: stirling2(50, 3.0),
    "bell": lambda: bell(1.5),
    "bell-kept-value": lambda: bell(2.0),  # B(2) is in the memo once rows are built
    "bell_polynomial": lambda: bell_polynomial(3.0, 2),
    "dobinski-n": lambda: dobinski_bell(3.0, 10),
    "dobinski-K": lambda: dobinski_bell(3, 10.0),
    "dobinski-precision": lambda: dobinski_bell_poly(3, 1, 10, 20.0),
    "power": lambda: BosonExpression.ad() ** 2.0,
}


@pytest.mark.parametrize("rows", ["reset", "built"])
@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS)
def test_exact_integer_functions_refuse_non_integers(call, rows, monkeypatch):
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    bell.cache_clear()
    if rows == "built":
        bell(60)
    kept = combinatorics._STIRLING_ROWS[:]
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()
    assert combinatorics._STIRLING_ROWS == kept


def test_int_and_bool_arguments_keep_their_values(monkeypatch):
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    bell.cache_clear()
    by_sum = stirling2(50, 3)  # no rows built: the explicit sum
    bell(50)
    by_row = stirling2(50, 3)  # read from row 50
    assert by_sum == by_row == 119649664052358811373730 == (3**50 - 3 * 2**50 + 3) // 6
    assert type(by_sum) is type(by_row) is int
    assert (stirling2(True, True), stirling2(True, False), bell(True), bell(False)) == (1, 0, 1, 1)
    assert (bell_polynomial(True, 2), bell_polynomial(2, 3)) == (2, 12)
    assert enclosure._dobinski_fixed(True, 1, True, 10) == enclosure._dobinski_fixed(1, 1, 1, 10)
    x = BosonExpression.ad() + BosonExpression.a()
    assert (x**True, x**False) == (x, BosonExpression.one())


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
    assert got == bell_triangle(499)[-1]


def test_bell_polynomial():
    assert bell_polynomial(1, Fraction(7, 3)) == Fraction(7, 3)
    assert bell_polynomial(3, 2) == 22  # y + 3y^2 + y^3 at y = 2
    for n in range(11):
        assert bell_polynomial(n, 1) == bell(n)


def test_partition_count():
    # p(0..10) = 1 1 2 3 5 7 11 15 22 30 42
    assert [partition_count(n) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def partition_table(n: int) -> int:
    """p(n) by the parts-bounded recurrence p(m, k) = p(m, k-1) + p(m-k, k)
    over an (n+1)^2 table: independent of the pentagonal numbers."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n] if n > 0 else 1


def test_partition_count_agrees_with_the_parts_bounded_table():
    assert [partition_count(n) for n in range(301)] == [partition_table(n) for n in range(301)]


def rademacher_leading_term(n: int) -> mpmath.mpf:
    """The k = 1 term of Rademacher's series for p(n),
    d/dn [sinh(c l) / l] / (pi sqrt 2) with l = sqrt(n - 1/24) and
    c = pi sqrt(2/3); the rest of the series is below sqrt(p(n))."""
    l = mpmath.sqrt(n - mpmath.mpf(1) / 24)
    c = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)
    derivative = (c * mpmath.cosh(c * l) / l - mpmath.sinh(c * l) / l**2) / (2 * l)
    return derivative / (mpmath.pi * mpmath.sqrt(2))


def test_partition_count_at_ten_thousand_in_linear_memory():
    # the (n+1)^2 table would hold 10^8 entries; p(10^4) has 107 digits
    start = time.perf_counter()
    value = partition_count(10**4)
    assert time.perf_counter() - start < 1.0
    with mpmath.workdps(130):
        assert abs(value / rademacher_leading_term(10**4) - 1) < mpmath.mpf(10) ** -40
    assert len(str(value)) == 107


def test_partition_count_past_its_limit_is_refused_at_once():
    start = time.perf_counter()
    for n in (combinatorics.PARTITION_LIMIT + 1, 10**12):
        with pytest.raises(ResourceLimitError, match=r"^partition count for n=\d+ exceeds the limit 40000$"):
            partition_count(n)
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# Dobinski


def test_dobinski_bell_certified():
    for n, K in [(3, 30), (0, 10), (8, 60)]:
        res = dobinski_bell(n, K, 50)
        assert _dob_close(res, bell(n), slack_exp=-40)


def test_dobinski_bell_8_tight():
    res = dobinski_bell(8, 60, 50)
    assert abs(res.value - 4140) < Fraction(1, 10**20)


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
    """dobinski_bell_poly with one Fraction per term and mpmath's e^{-y}: the
    exact partial sum and tail bound, the guard digits, and value and tail
    bound at precision + guard digits, the reference for the integer route."""
    y = Fraction(y)

    def term(k):
        kn = 1 if (k == 0 and n == 0) else k**n  # 0^0 = 1 by convention
        return Fraction(kn) * y**k / math.factorial(k)

    partial = sum(term(k) for k in range(K + 1))
    k0 = enclosure._dobinski_tail_start(n, K, math.ceil(y))
    tail = sum(term(k) for k in range(K + 1, k0)) + 2 * term(k0)
    ratio = partial / tail
    guard = 10 + len(str(1 + ratio.numerator // ratio.denominator))
    with mpmath.workdps(precision + guard):
        prefactor = mpmath.e ** (-mpmath.mpf(y.numerator) / y.denominator)
        value = prefactor * partial.numerator / partial.denominator
        bound = prefactor * tail.numerator / tail.denominator
        return partial, tail, guard, +value, +bound


@pytest.mark.parametrize("n, y, K, precision", [
    (0, Fraction(5, 2), 40, 30), (0, Fraction(1, 3), 1, 20), (5, 1, 60, 50),
    (10, Fraction(2, 3), 60, 50), (60, Fraction(23, 8), 200, 80), (7, Fraction(41, 5), 3, 25),
])
def test_dobinski_integer_sum_matches_per_term_fractions(n, y, K, precision):
    partial, tail, scale = enclosure._dobinski_sums(n, Fraction(y), K)
    ref_partial, ref_tail, guard, value, bound = _dobinski_per_term(n, y, K, precision)
    assert (Fraction(partial, scale), Fraction(tail, scale)) == (ref_partial, ref_tail)
    res = dobinski_bell_poly(n, y, K, precision)
    # the value to its working precision, precision + guard digits; the tail
    # is rounded at the value's scale, which leaves it precision + 10 digits
    with mpmath.workdps(2 * (precision + guard)):
        assert abs(res.value - value) <= value * mpmath.mpf(10) ** -(precision + guard - 1)
        assert abs(res.tail_bound - bound) <= bound * mpmath.mpf(10) ** -(precision + 9)
        assert res.value <= ref_partial * mpmath.exp(-mpmath.mpf(Fraction(y).numerator) / Fraction(y).denominator)


def test_dobinski_rounding_is_directed():
    # v/2^s <= e^{-y} P and e^{-y} (P + T) <= (v + t)/2^s, each against
    # mpmath at twice the working bits, on random arguments
    rng = random.Random(3434)
    for _ in range(300):
        n, y = rng.randint(0, 30), Fraction(rng.randint(1, 60), rng.randint(1, 12))
        K, precision = rng.randint(1, 80), rng.randint(10, 40)
        v, t, s = enclosure._dobinski_fixed(n, y, K, precision)
        partial, tail, scale = enclosure._dobinski_sums(n, y, K)
        with mpmath.workprec(2 * max(v.bit_length(), s) + 64):
            prefactor = mpmath.exp(-mpmath.mpf(y.numerator) / y.denominator) * mpmath.mpf(2) ** s / scale
            assert v <= prefactor * partial, (n, y, K, precision)
            assert prefactor * (partial + tail) <= v + t, (n, y, K, precision)


# a y as wide as --y takes, 4,300 digits over 4,300, and a 20-digit decimal:
# e^{-y} comes from pieces of y's binary digits, not one series in y itself
WIDE_Y = "7" * 4300 + "/" + "7" * 4299 + "6"
DECIMAL_Y = "1.2345678901234567890"

# the README command, the shapes of the benchmark's `cli` workload, n = 0 at
# four y, K = 2000, precision 5000, whose digits Python prints only with its
# int printing limit lifted, and the wide y at precision 5000
CLI_DOBINSKI = [
    (10, "1/2", 60, 50), (10, "2/3", 60, 50), (5, "1", 60, 20), (13, "1", 60, 47), (20, "1", 60, 60),
    (0, "1", 60, 50), (0, "2/3", 60, 50), (0, "1/3", 60, 50), (0, "20", 60, 50),
    (10, "1", 2000, 50), (3, "2/3", 60, 5000), (0, WIDE_Y, 1, 5000), (10, DECIMAL_Y, 60, 5000),
]


@pytest.mark.parametrize("n, y, K, precision", CLI_DOBINSKI,
                         ids=["-".join(map(str, c)) if c[1] != WIDE_Y else "wide-y" for c in CLI_DOBINSKI])
def test_dobinski_command_prints_the_digits_mpmath_prints(n, y, K, precision, capsys):
    from bellhop import cli

    limit = int_digits_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        *_, value, bound = _dobinski_per_term(n, y, K, precision)
        row = [str(n), y, str(K + 1), mpmath.nstr(value, precision + 1), mpmath.nstr(bound, precision + 1)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    header = ["n", "y", "terms", "value", "tail_bound"]
    widths = [max(len(h), len(v)) for h, v in zip(header, row)]
    expected = {
        "plain": "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n"
                         for line in (header, row)),
        "csv": ",".join(header) + "\n" + ",".join(row) + "\n",
        "json": json.dumps([{"n": n, "y": y, "terms": K + 1, "value": row[3], "tail_bound": row[4]}],
                           separators=(",", ":")) + "\n",
    }
    for fmt, text in expected.items():
        argv = ["--format", fmt, "dobinski", str(n), "--y", y, "--k-max", str(K), "--precision", str(precision)]
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (text, ""), argv
    assert int_digits_limit() == limit


def test_nstr_prints_past_the_int_digits_limit_and_restores_it():
    # 5,001 digits, past the 4,300 Python prints an int with by default
    limit = int_digits_limit()
    man = 1234567890 * (10**5000 - 1) // (10**10 - 1) * 10 + 1  # the digits 1234567890 500 times, then 1
    assert enclosure._nstr(man, 0, 5001) == "1234567890" * 500 + "1.0"
    assert enclosure._nstr(10**5001 - 1, 0, 5000) == "1.0e+5001"  # rounded up, onto the next power of ten
    assert int_digits_limit() == limit


def test_nstr_lays_out_digits_as_mpmath_does():
    # random mantissas about the leading-digit exponents where nstr turns
    # from fixed point to an exponent, both ways, and far past them
    rng = random.Random(34)
    for _ in range(4000):
        digits = rng.randint(1, 80)
        e10 = rng.choice([rng.randint(-(digits // 3) - 8, digits + 4), rng.randint(-6000, 6000)])
        man = rng.getrandbits(rng.randint(1, 400)) | 1
        exp = round(e10 * math.log2(10)) - man.bit_length() + rng.randint(-4, 4)
        x = mpmath.mpf((man, exp), prec=man.bit_length())
        assert enclosure._nstr(man, exp, digits) == mpmath.nstr(x, digits), (man, exp, digits)
    # a carry from 9.99... onto the next power of ten, and exact halves
    for man, exp, digits in [(2**64 - 1, 0, 5), (999995, 0, 5), (999949, 0, 5), (1, -3, 2), (5, -1, 1),
                             (3, -2, 1), (1, 0, 11), (52, 0, 51), (10**20 - 1, -20, 11)]:
        x = mpmath.mpf((man, exp), prec=max(man.bit_length(), 1))
        assert enclosure._nstr(man, exp, digits) == mpmath.nstr(x, digits), (man, exp, digits)


@pytest.mark.parametrize("y", [Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(20), Fraction(1, 10**30),
                               Fraction(41, 5), Fraction(10**30 + 1, 10**30), Fraction(1234, 7),
                               Fraction(12345, 65521), Fraction(10**6 + 1, 2**17), Fraction(DECIMAL_Y),
                               Fraction(WIDE_Y), Fraction(10**40 + 1, 10**37 + 3)])
def test_exp_neg_encloses_e_to_the_minus_y(y):
    for bits in (1, 53, 200, 1000, 6000, 20000):
        w = bits + math.ceil(float(y) * math.log2(math.e))  # e^{-y} 2^w >= 2^bits
        lo, hi = enclosure._exp_neg(y, w)
        assert 0 < hi - lo <= 2
        with mpmath.workprec(2 * w + 64):
            scaled = mpmath.exp(-mpmath.mpf(y.numerator) / y.denominator) * mpmath.mpf(2) ** w
            assert lo <= scaled <= hi, (y, bits)


# y = 1, denominators of a few bits, two y whose denominators pass 16 bits
# (e^{-y} from pieces of y's binary digits), a value past its working bits
# (a negative binary scale), and 5,000 digits
BINARY_GRID = [
    (0, Fraction(1), 1, 10), (5, Fraction(1), 30, 50), (10, Fraction(2, 3), 60, 50),
    (12, Fraction(3, 2), 60, 40), (7, Fraction(41, 5), 3, 25), (10, Fraction(10**6 + 1, 2**17), 60, 60),
    (10, Fraction(DECIMAL_Y), 60, 200), (100, Fraction(5), 150, 10), (10, Fraction(1), 60, 5000),
]


@pytest.mark.parametrize("n, y, K, precision", BINARY_GRID)
def test_dobinski_fields_read_as_the_mpf_of_the_integers(n, y, K, precision):
    # each field is enclosure's integer over 2^scale, and mpmath reads it as
    # the exact mpf((x, -scale)) that the fields were before BinaryFraction
    value, tail, scale = enclosure._dobinski_fixed(n, y, K, precision)
    res = dobinski_bell_poly(n, y, K, precision)
    assert (scale < 0) == (n == 100)  # the one value past its working bits
    one = mpmath.mpf(1)
    for field, x in ((res.value, value), (res.tail_bound, tail)):
        want = mpmath.mpf((x, -scale), prec=x.bit_length())
        assert type(field) is BinaryFraction and field == Fraction(x) * Fraction(2) ** -scale
        assert (field._mpf_, field.man_exp) == (want._mpf_, want.man_exp)
        assert str(field) == str(want) and mpmath.nstr(field, 40) == mpmath.nstr(want, 40)
        with mpmath.workprec(x.bit_length()):
            assert mpmath.mpf(field) == want
            assert (field - one, one - field, field + one, one + field) == (want - one, one - want, want + one, one + want)
        # exact either way round, one unit past it in its last bit
        above = mpmath.mpf((2 * x + 1, -scale - 1), prec=x.bit_length() + 1)
        assert field <= want <= field and field <= above and not above <= field
    total = res.value + res.tail_bound
    assert type(total) is Fraction and total == Fraction(value + tail) * Fraction(2) ** -scale


def test_binary_fraction_prints_pickles_and_copies_at_precision_5000():
    # the value's numerator has ~5,000 digits, past the 4,300 that str(int)
    # prints: the fields print 15 digits, as str(mpf) does, and pickle exactly
    res = dobinski_bell(10, 60, 5000)
    assert res.value.numerator.bit_length() > 4300 * math.log2(10)
    assert repr(res) == ("DobinskiResult(value=BinaryFraction('115975.0'), "
                         "tail_bound=BinaryFraction('1.03402057263653e-66'), terms_used=61, precision=5000)")
    for field in (res.value, res.tail_bound):
        for twin in (pickle.loads(pickle.dumps(field)), copy.copy(field), copy.deepcopy(field)):
            assert type(twin) is BinaryFraction
            assert (twin.numerator, twin.denominator) == (field.numerator, field.denominator)
    assert pickle.loads(pickle.dumps(res)) == res == copy.deepcopy(res)


def test_binary_fraction_is_in_lowest_terms_and_refuses_other_denominators():
    x = BinaryFraction(12, 16)
    assert (x.numerator, x.denominator, x.man_exp, x._mpf_) == (3, 4, (3, -2), (0, 3, -2, 2))
    for num, den in [(-40, 1), (0, 8), (-3, 4), (5, 2**70)]:
        want = mpmath.mpf(num) / den  # exact: den is a power of 2
        assert (BinaryFraction(num, den)._mpf_, str(BinaryFraction(num, den))) == (want._mpf_, str(want))
    for den in (3, 0, -4):
        with pytest.raises(ValueError, match="power of 2"):
            BinaryFraction(1, den)


def test_dobinski_decimal_y_at_the_highest_precision(capsys):
    # 99,000 digits of B_10(y) at a 20-digit decimal y in a few seconds, where
    # one series in y would carry its 64-bit denominator in each of ~25,000
    # terms.  At K = 400 the tail is near 10^-800 of the value, so the value
    # printed must agree to ~800 digits with the enclosure found at 5,000
    # digits, whose digits are checked against mpmath above at K = 60
    from bellhop import cli

    y, precision = Fraction(DECIMAL_Y), 99000
    v, t, s = enclosure._dobinski_fixed(10, y, 400, 5000)
    assert t < v >> 2500  # under 10^-750 of the value
    argv = ["--format", "csv", "dobinski", "10", "--y", DECIMAL_Y, "--k-max", "400", "--precision", str(precision)]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    limit = int_digits_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        value, tail = (Fraction(x) for x in out.splitlines()[1].split(",")[3:])
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert err == "" and tail > 0
    # the printed value is the certified one rounded at 99,001 digits
    ulp = value / 10**precision
    assert Fraction(v, 2**s) - tail - ulp <= value <= Fraction(v + t, 2**s) + ulp


def test_decimal_digits_match_str():
    rng = random.Random(16)
    xs = [1, 9, 10, 2**64 - 1, 2**64] + [10**k + d for k in range(1, 4300, 37) for d in (-1, 0, 1)]
    xs += [rng.getrandbits(rng.randint(1, 14000)) | 1 for _ in range(300)]
    for x in xs:
        assert enclosure._decimal_digits(x) == len(str(x)), x


def test_dobinski_rejects_low_precision():
    with pytest.raises(ValueError):
        dobinski_bell(3, 30, 8)
    with pytest.raises(ValueError):
        dobinski_bell(3, 0, 50)


@pytest.mark.parametrize("y", [0, -1])
def test_dobinski_poly_rejects_a_nonpositive_y(y):
    with pytest.raises(ValueError, match="^y must be positive$"):
        dobinski_bell_poly(3, y, 10)


def test_bell_polynomial_rejects_negative_n():
    # as bell does; the Horner sum would read the last row built for n = -1
    for n in (-1, -5):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            bell_polynomial(n, 2)


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


def _growth_string(p: SetPartition) -> tuple[int, ...]:
    """Element i's entry is the index of its block, blocks by least element."""
    index = {i: b for b, block in enumerate(p.blocks) for i in block}
    return tuple(index[i] for i in range(1, p.n + 1))


def test_rgs_lexicographic_order():
    # n = 10: all B(10) = 115,975 partitions, in order (~0.75 s)
    for n, count in [(4, 15), (10, 115975)]:
        strings = [_growth_string(p) for p in enumerate_set_partitions(n)]
        assert len(strings) == count
        assert strings == sorted(strings)
        assert strings[0] == (0,) * n
        assert strings[-1] == tuple(range(n))


def test_enumeration_limit():
    with pytest.raises(ResourceLimitError):
        list(enumerate_set_partitions(15))
    with pytest.raises(ResourceLimitError):
        diagram_census(26)


def test_limit_messages_name_the_work():
    with pytest.raises(ResourceLimitError, match=r"^diagram census for n=26 exceeds the limit 25$"):
        diagram_census(26)
    with pytest.raises(ResourceLimitError, match=r"^set-partition enumeration for n=15 "):
        list(enumerate_set_partitions(15))


def test_stirling_sum_limit(monkeypatch):
    # no rows built: every value comes from the explicit sum or is refused
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    assert stirling2(600, 3) == (3**600 - 3 * 2**600 + 3) // 6
    assert stirling2(14286, 2) == 2**14285 - 1
    assert stirling2(300, 300) == 1 and stirling2(10**12, 1) == 1
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"^S\(1000, 1000\) by the explicit sum needs 3e\+06 digits"):
        stirling2(1000, 1000)
    with pytest.raises(ResourceLimitError, match=r"past the limit 1500000$"):
        stirling2(12000, 12000)
    # (k + 1) n past the float range: the digits read inf, not an OverflowError
    with pytest.raises(ResourceLimitError, match=r"needs inf digits"):
        stirling2(10**400, 3)
    assert time.perf_counter() - start < 1.0  # before the work: the sum for S(12000, 12000) takes 69 s
    assert len(combinatorics._STIRLING_ROWS) == 1


def test_stirling_past_the_sum_limit_reads_row_n_when_the_rows_are_in_reach(monkeypatch):
    # one answer per input, whatever rows an earlier call built: the explicit
    # sum answers every n <= 697 that rows could, and S(698, 698) too, with
    # no row built; once rows 0..697 are built, stirling2 reads them
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    # S(n, n - 1) = C(n, 2) and S(n, n - 2) = C(n, 3) + 3 C(n, 4) = C(n, 3) (3n - 5) / 4
    cases = {(698, 698): 1, (697, 697): 1, (697, 696): math.comb(697, 2),
             (697, 695): math.comb(697, 3) * (3 * 697 - 5) // 4}
    assert {nk: stirling2(*nk) for nk in cases} == cases
    assert len(combinatorics._STIRLING_ROWS) == 1
    combinatorics._stirling_row(697)  # as bell(697) builds them
    assert len(combinatorics._STIRLING_ROWS) == 698
    assert {nk: stirling2(*nk) for nk in cases} == cases


def _stirling_column(n: int, k: int) -> int:
    """S(n, k) by the recurrence on columns 0..k alone: no explicit sum."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


@pytest.mark.parametrize("n, k, expected", [
    (600, 3, (3**600 - 3 * 2**600 + 3) // 6),
    (600, 600, 1), (697, 697, 1), (698, 698, 1),
    (697, 695, math.comb(697, 3) * (3 * 697 - 5) // 4),
    (2000, 300, None),  # 1.49e6 digits of powers, just inside the limit
])
def test_stirling2_only_reads_rows(n, k, expected, monkeypatch):
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    assert stirling2(n, k) == (_stirling_column(n, k) if expected is None else expected)
    assert combinatorics._STIRLING_ROWS == [(1,)]
    start = time.perf_counter()
    for past in [(1500, 500), (12000, 12000)]:
        with pytest.raises(ResourceLimitError, match=r"past the limit 1500000$"):
            stirling2(*past)
    assert time.perf_counter() - start < 1.0
    assert combinatorics._STIRLING_ROWS == [(1,)]


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
    """Pure-Python census kernel: tally every enumerated partition of
    {1..n} by the sorted sizes of its blocks."""
    counts = {}
    for p in enumerate_set_partitions(n):
        key = tuple(sorted(map(len, p.blocks)))
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


def test_setpartition_checks_in_every_constructor():
    # a NamedTuple checking and sorting in __new__; _replace goes through it
    p = SetPartition(n=3, blocks=((3,), (2, 1)))
    assert p == SetPartition(3, ((1, 2), (3,))) and hash(p) == hash(SetPartition(3, ((1, 2), (3,))))
    assert (str(p), p.num_blocks) == ("{1,2}{3}", 2)
    assert p._replace(blocks=((3, 1), (2,))).blocks == ((1, 3), (2,))
    with pytest.raises(ValueError, match="do not cover"):
        p._replace(n=4)
    with pytest.raises(ValueError, match="not disjoint"):
        SetPartition(n=2, blocks=((1, 2), (2,)))
    with pytest.raises(AttributeError):
        p.n = 4


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


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(6), max_denominator=50),
)
def test_every_route_to_the_bell_polynomial_agrees(n, y):
    """The six exact routes to B_n(y), and Dobinski's enclosure of it."""
    want = bell_polynomial(n, y)
    census = diagram_census(n).counts
    routes = {
        "egf_exp": egf_exp(EGFSeries((0,) + (y,) * n)).coeffs[n],
        "v_to_w": v_to_w([y] * n)[n],
        "coherent": coherent_expectation(normal_order(number_word(n)), CoherentParam.from_mod_sq(y)),
        "census": sum(count * y ** mono.degree for mono, count in census.items()),
        "ordering": sum(s * y**k for k, s in enumerate(stirling_via_ordering(n), 1)),
    }
    for route, got in routes.items():
        assert got == want and type(got) in (int, Fraction), route
    assert _dob_close(dobinski_bell_poly(n, y, 2 * n + 30, 30), want, slack_exp=-15)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(Fraction),
                          st.fractions(min_value=-3, max_value=3, max_denominator=6)),
                min_size=8, max_size=8))
@example([Fraction(1, 2), Fraction(3, 4), 1, Fraction(2), Fraction(-1, 3), 0, Fraction(5, 2), 2])
def test_the_census_at_the_connected_moments_is_the_moments(v):
    """The paper's W/V exponential formula: W_n sums, over the set
    partitions of n, the product of V_|B| over the blocks B, which is
    diagram_census(n) evaluated at y_k = V_k."""
    w = v_to_w(v)
    assert_canonical(w)
    for n in range(1, 9):
        census = diagram_census(n).counts
        assert w[n] == sum(count * math.prod(v[k - 1] for k in mono) for mono, count in census.items()), n
