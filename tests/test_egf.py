"""EGF arithmetic: convolution against a direct double-sum oracle, exact
exp/log inversion, and the moment transforms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellhop.boson import number_word, word_moments
from bellhop.combinatorics import bell, bell_polynomial
from bellhop.egf import (
    EGFSeries,
    bell_egf,
    egf_exp,
    egf_log,
    egf_mul,
    v_to_w,
    w_to_v,
)

rationals = st.fractions(max_denominator=12, min_value=-10, max_value=10)


def series(coeffs):
    return EGFSeries(tuple(Fraction(c) for c in coeffs))


def conv_oracle(a, b, n):
    """Direct binomial convolution, written independently of egf_mul."""
    return sum(
        Fraction(math.factorial(n), math.factorial(k) * math.factorial(n - k))
        * a[k] * b[n - k]
        for k in range(n + 1)
    )


def test_mul_exp_times_exp():
    e = series([1] * 9)
    prod = egf_mul(e, e)
    assert prod.coeffs == tuple(Fraction(2**n) for n in range(9))


def test_mul_identity_neutral():
    a = series([3, Fraction(1, 2), 5, 0, 7])
    assert egf_mul(a, EGFSeries.identity(4)) == a


def test_mul_expm1_squared():
    em1 = series([0] + [1] * 8)
    prod = egf_mul(em1, em1)
    assert prod.coeffs[0] == 0
    for n in range(1, 9):
        assert prod.coeffs[n] == (2**n - 2 if n >= 1 else 0)


@settings(max_examples=40)
@given(st.lists(rationals, min_size=1, max_size=7), st.lists(rationals, min_size=1, max_size=7))
def test_mul_against_oracle(a, b):
    sa, sb = series(a), series(b)
    prod = egf_mul(sa, sb)
    n = min(sa.order, sb.order)
    assert prod.order == n
    for m in range(n + 1):
        assert prod.coeffs[m] == conv_oracle(a, b, m)


def test_exp_of_expm1_is_bell():
    c = series([0] + [1] * 10)
    assert egf_exp(c).coeffs == tuple(Fraction(bell(n)) for n in range(11))


def test_exp_trivial():
    assert egf_exp(EGFSeries.zero(5)) == EGFSeries.identity(5)
    x = series([0, 1, 0, 0, 0])
    assert egf_exp(x).coeffs == tuple(Fraction(1) for _ in range(5))


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        egf_exp(series([1, 1]))
    with pytest.raises(ValueError):
        egf_log(series([2, 1]))


def test_log_of_bell_egf_is_all_ones():
    logged = egf_log(bell_egf(8))
    assert logged.coeffs[0] == 0
    assert all(c == 1 for c in logged.coeffs[1:])


def test_log_identity_is_zero():
    assert egf_log(EGFSeries.identity(6)) == EGFSeries.zero(6)


@settings(max_examples=50)
@given(st.lists(rationals, min_size=1, max_size=12))
def test_exp_log_roundtrip(tail):
    a = series([1] + tail)
    assert egf_exp(egf_log(a)) == a
    c = series([0] + tail)
    assert egf_log(egf_exp(c)) == c


@settings(max_examples=30)
@given(st.lists(rationals, min_size=1, max_size=8), st.lists(rationals, min_size=1, max_size=8))
def test_exp_homomorphism(t1, t2):
    n = min(len(t1), len(t2))
    c1 = series([0] + t1[:n])
    c2 = series([0] + t2[:n])
    assert egf_exp(c1 + c2) == egf_mul(egf_exp(c1), egf_exp(c2))


def test_bell_egf_values():
    assert bell_egf(6).coeffs == (1, 1, 2, 5, 15, 52, 203)
    assert bell_egf(0).coeffs == (1,)
    assert bell_egf(10).coeffs[10] == 115975


# ---------------------------------------------------------------------------
# W <-> V


def test_w_to_v_bell():
    w = [bell(n) for n in range(11)]
    assert w_to_v(w) == [1] * 10


def test_w_to_v_bell_polynomial():
    for msq in (Fraction(1, 2), Fraction(2), Fraction(7, 3)):
        w = [bell_polynomial(n, msq) for n in range(9)]
        assert w_to_v(w) == [msq] * 8


def test_w_to_v_identity_sequence():
    assert w_to_v([1, 0, 0, 0]) == [0, 0, 0]


def test_w_to_v_requires_normalization():
    with pytest.raises(ValueError):
        w_to_v([2, 1, 1])
    with pytest.raises(ValueError):
        w_to_v([])


def test_v_to_w_ones_gives_bell():
    assert v_to_w([1] * 10) == [bell(n) for n in range(11)]


def test_v_to_w_zero():
    assert v_to_w([0, 0, 0]) == [1, 0, 0, 0]


@settings(max_examples=50)
@given(st.lists(rationals, min_size=1, max_size=8))
def test_wv_roundtrip(v):
    assert w_to_v(v_to_w(v)) == v


def test_wv_complex_path():
    v = [1 + 1j, 0.5, -2j]
    w = v_to_w(v)
    back = w_to_v(w)
    assert all(abs(x - y) < 1e-12 for x, y in zip(back, v))


def test_wv_matches_boson_moments():
    moments = word_moments(number_word(1), 8, 1)
    assert w_to_v(moments) == [1] * 8


# ---------------------------------------------------------------------------
# Serialization


def test_json_roundtrip():
    a = series([1, Fraction(-3, 7), 0, Fraction(22, 3)])
    text = a.to_json()
    assert '"coefficients": ["1", "-3/7", "0", "22/3"]'.replace(" ", "") in text.replace(" ", "")
    assert EGFSeries.from_json(text) == a


def test_json_order_mismatch_rejected():
    with pytest.raises(ValueError):
        EGFSeries.from_json('{"order": 3, "coefficients": ["1", "2"]}')


def test_mixed_order_truncates_to_min():
    a = series([1, 2, 3, 4, 5])
    b = series([1, 1])
    assert egf_mul(a, b).order == 1


# ---------------------------------------------------------------------------
# Arithmetic of the input: no recurrence divides


def test_integer_series_stay_int():
    bells = [bell(n) for n in range(12)]
    ones = EGFSeries(tuple([0] + [1] * 11))
    outputs = [
        egf_mul(EGFSeries(tuple(bells)), EGFSeries(tuple(bells))).coeffs,
        egf_exp(ones).coeffs,
        egf_log(EGFSeries(tuple(bells))).coeffs,
        bell_egf(11).coeffs,
        w_to_v(bells),
        v_to_w([1, -2, 3, 0, 5]),
    ]
    for out in outputs:
        assert all(type(c) is int for c in out), out
    assert egf_log(EGFSeries(tuple(bells))).coeffs == (0,) + (1,) * 11


integers = st.integers(min_value=-50, max_value=50)


@settings(max_examples=40)
@given(st.lists(st.one_of(integers, rationals), min_size=1, max_size=9),
       st.lists(st.one_of(integers, rationals), min_size=1, max_size=9))
def test_input_arithmetic_matches_fraction_copies(xs, ys):
    def fr(values):
        return [Fraction(v) for v in values]

    a, b = EGFSeries(tuple(xs)), EGFSeries(tuple(ys))
    fa, fb = EGFSeries(tuple(fr(xs))), EGFSeries(tuple(fr(ys)))
    assert egf_mul(a, b) == egf_mul(fa, fb)
    c, fc = EGFSeries((0, *xs)), EGFSeries((0, *fr(xs)))
    assert egf_exp(c) == egf_exp(fc)
    e, fe = EGFSeries((1, *xs)), EGFSeries((1, *fr(xs)))
    assert egf_log(e) == egf_log(fe)
    assert w_to_v([1, *xs]) == w_to_v([1, *fr(xs)])
    assert v_to_w(xs) == v_to_w(fr(xs))


def test_float_moments_stay_float():
    v = [0.5, -0.25, 1.75, 0.125, -3.0, 2.5]
    w = v_to_w(v)
    assert w[0] == 1 and all(type(x) is float for x in w[1:])
    exact_w = v_to_w([Fraction(x) for x in v])  # floats are dyadic rationals
    assert all(abs(x - y) <= 1e-12 * max(1, abs(y)) for x, y in zip(w, exact_w))
    back = w_to_v(w)
    assert all(type(x) is float for x in back)
    exact_v = w_to_v([Fraction(x) for x in w])
    assert all(abs(x - y) <= 1e-12 * max(1, abs(y)) for x, y in zip(back, exact_v))
    assert all(abs(x - y) <= 1e-12 * max(1, abs(y)) for x, y in zip(back, v))
