"""EGF arithmetic: convolution against a direct double-sum oracle, exact
exp/log inversion, and the moment transforms."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellhop import egf
from bellhop.boson import number_word, word_moments
from bellhop.combinatorics import bell, bell_polynomial
from bellhop.errors import ResourceLimitError
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


# ---------------------------------------------------------------------------
# Rational input on scaled integers, against the plain Fraction recurrences


def exp_oracle(c):
    """exp through ordinary power series, dividing: with A = exp(C), A' = C'A,
    so n alpha_n = sum_k k gamma_k alpha_{n-k}, gamma_k = c_k / k!."""
    gamma = [Fraction(x, 1) / math.factorial(k) for k, x in enumerate(c)]
    alpha = [Fraction(1)]
    for n in range(1, len(c)):
        alpha.append(Fraction(sum(k * gamma[k] * alpha[n - k] for k in range(1, n + 1))) / n)
    return [math.factorial(n) * x for n, x in enumerate(alpha)]


def log_oracle(a):
    """log through the same identity solved for gamma (alpha_0 = 1)."""
    alpha = [Fraction(x, 1) / math.factorial(k) for k, x in enumerate(a)]
    gamma = [Fraction(0)]
    for n in range(1, len(a)):
        gamma.append(alpha[n] - Fraction(sum(k * gamma[k] * alpha[n - k] for k in range(1, n))) / n)
    return [math.factorial(n) * x for n, x in enumerate(gamma)]


def assert_typed(out, want, *inputs, skip_constant=False):
    """Equal values; output n is a Fraction exactly when some input at an
    index <= n is (exp and log never read the constant term)."""
    out = list(out)
    assert out == want
    first = min((i for xs in inputs for i, x in enumerate(xs)
                 if type(x) is Fraction and (i or not skip_constant)), default=len(out))
    assert [type(x) for x in out] == [int] * min(first, len(out)) + [Fraction] * (len(out) - first)


# ints, small and wide rationals, and Fractions with denominator 1
mixed = st.one_of(
    integers, rationals, st.fractions(-3, 3, max_denominator=10**6), integers.map(Fraction)
)


@settings(max_examples=60)
@given(st.lists(mixed, min_size=1, max_size=12), st.lists(mixed, min_size=1, max_size=12),
       st.sampled_from([0, Fraction(0)]), st.sampled_from([1, Fraction(1)]))
@example([1], [Fraction(1, 2)], 0, 1)  # a constant term the scale leaves fractional
@example([Fraction(-3, 4), 2, Fraction(5, 6)], [Fraction(2, 9), Fraction(1, 4), 7], Fraction(0), 1)
def test_scaled_route_matches_fraction_oracle(xs, ys, zero, one):
    n = min(len(xs), len(ys))
    # the product keeps any constant term, a non-integer one included
    assert_typed(egf_mul(EGFSeries(tuple(xs)), EGFSeries(tuple(ys))).coeffs,
                 [conv_oracle(xs, ys, m) for m in range(n)], xs[:n], ys[:n])
    c, a = [zero, *xs], [one, *xs]
    assert_typed(egf_exp(EGFSeries(tuple(c))).coeffs, exp_oracle(c), c, skip_constant=True)
    assert_typed(egf_log(EGFSeries(tuple(a))).coeffs, log_oracle(a), a, skip_constant=True)
    assert_typed(w_to_v(a), log_oracle(a)[1:], xs)
    assert_typed(v_to_w(xs), exp_oracle(c), c, skip_constant=True)


def _kernel_inputs(monkeypatch, name):
    # the sequences the named recurrence is handed
    seen, kernel = [], getattr(egf, name)
    monkeypatch.setattr(egf, name, lambda *seqs: seen.extend(seqs) or kernel(*seqs))
    return seen


def _primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def test_prime_denominators_run_as_fractions(monkeypatch):
    # 1/p_k has no common scale: D = p_1...p_40 would make D^40 thousands of
    # digits long against the fractions' few, so the recurrence gets Fractions
    c = (0, *(Fraction(1, p) for p in _primes(40)))
    seen = _kernel_inputs(monkeypatch, "_exp_coeffs")
    assert_typed(egf_exp(EGFSeries(c)).coeffs, exp_oracle(c), c, skip_constant=True)
    assert v_to_w(list(c[1:])) == exp_oracle(c)
    assert all(any(type(x) is Fraction for x in s) for s in seen)
    a = (1, *c[1:])
    seen = _kernel_inputs(monkeypatch, "_log_coeffs")
    assert_typed(egf_log(EGFSeries(a)).coeffs, log_oracle(a), a, skip_constant=True)
    assert any(type(x) is Fraction for x in seen[0])


def test_common_denominators_run_as_integers(monkeypatch):
    c = (0, *[Fraction(5, 8)] * 40)
    seen = _kernel_inputs(monkeypatch, "_exp_coeffs")
    assert_typed(egf_exp(EGFSeries(c)).coeffs, exp_oracle(c), c, skip_constant=True)
    assert all(type(x) is int for x in seen[0])
    x = (Fraction(1, 3), *[Fraction(k, 6) for k in range(1, 20)])
    seen = _kernel_inputs(monkeypatch, "_mul_coeffs")
    assert_typed(egf_mul(EGFSeries(x), EGFSeries(x)).coeffs,
                 [conv_oracle(x, x, m) for m in range(20)], x)
    assert all(type(v) is int for s in seen for v in s)


@pytest.mark.parametrize("call", [
    lambda: egf_exp(EGFSeries((0,) + (Fraction(9, 7),) * 1500)),
    lambda: egf_log(EGFSeries((1,) + (1,) * 2000)),
    lambda: egf_mul(EGFSeries((Fraction(1, 3),) * 900), EGFSeries((2,) * 900)),
    lambda: v_to_w([0.5] * 5000),
    lambda: w_to_v([1] + [Fraction(1, 10**300)] * 100),
], ids=["exp", "log", "mul", "float", "wide"])
def test_work_limit_refuses_before_the_recurrence(call):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        call()
    assert time.perf_counter() - start < 1.0
