"""EGF arithmetic: convolution against a direct double-sum oracle, exact
exp/log inversion, and the moment transforms."""

import json
import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellhop import egf
from bellhop.boson import number_word, word_moments
from bellhop.combinatorics import bell, bell_polynomial
from bellhop.errors import ResourceLimitError, rational
from bellhop.egf import (
    EGFSeries,
    bell_egf,
    egf_exp,
    egf_log,
    egf_mul,
    v_to_w,
    w_to_v,
)
from coefficient_rule import assert_canonical

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


def test_mul_operator_is_the_series_product():
    # (1 + 2x)(3 + 4x) to order 1: 3 + (4 + 6) x
    product = EGFSeries((1, 2)) * EGFSeries((3, 4))
    assert product == EGFSeries((3, 10)) == egf_mul(EGFSeries((1, 2)), EGFSeries((3, 4)))


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


@pytest.mark.parametrize("coeffs", [
    (0,), (7,), (-1,), (Fraction(-3, 7),), (0, 0, 0), (1, Fraction(-3, 7), 0, Fraction(22, 3)),
    (-(10**400), 10**600 + 1, Fraction(-(10**300), 3**500)), tuple(Fraction(-k, k + 1) for k in range(30)),
], ids=["zero", "int", "negative", "negative-fraction", "zeros", "mixed", "long", "order-29"])
def test_to_json_is_the_text_json_dumps_writes(coeffs):
    # to_json writes its one shape itself; json.dumps of the same object is the oracle
    series = EGFSeries(coeffs)
    expected = json.dumps({"order": series.order, "coefficients": [str(c) for c in series.coeffs]})
    assert series.to_json() == expected


def test_json_round_trip_keeps_coefficient_types():
    # a whole value is an int on both sides, whole Fraction input included,
    # and any other value a Fraction
    for coeffs in [(1, 2, 5), (1, Fraction(-3, 7), 0, Fraction(22, 3)), (Fraction(1, 2), -4),
                   (Fraction(3), Fraction(1, 2))]:
        series = EGFSeries(coeffs)
        back = EGFSeries.from_json(series.to_json()).coeffs
        assert back == coeffs
        assert [type(c) for c in back] == [type(c) for c in series.coeffs]
        assert_canonical(back)


@pytest.mark.parametrize("op", [operator.mul, operator.add], ids=["mul", "add"])
@pytest.mark.parametrize("other", [2, Fraction(1, 2), 0.5], ids=["int", "Fraction", "float"])
def test_arithmetic_with_a_non_series_is_a_type_error(op, other):
    # the series operators return NotImplemented, so Python raises its own
    # TypeError, in both operand orders
    series = EGFSeries((1, 2))
    for left, right in [(series, other), (other, series)]:
        with pytest.raises(TypeError, match="unsupported operand type"):
            op(left, right)


def test_series_is_an_immutable_value_and_not_a_tuple():
    import copy
    import pickle

    a = EGFSeries((1, Fraction(1, 2), 3))
    assert a == EGFSeries([1, Fraction(1, 2), 3]) and hash(a) == hash(EGFSeries((1, Fraction(1, 2), 3)))
    assert a != (1, Fraction(1, 2), 3) and a != EGFSeries((1, 2, 3))
    assert repr(a) == "EGFSeries(coeffs=(1, Fraction(1, 2), 3))"
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.coeffs = (1,)
    with pytest.raises(AttributeError):
        del a.coeffs
    with pytest.raises(AttributeError):
        a.order_hint = 2  # __slots__: no other attribute either
    with pytest.raises(TypeError):
        len(a)
    with pytest.raises(ValueError, match="constant coefficient"):
        EGFSeries(())
    with pytest.raises(ValueError, match="constant coefficient"):
        EGFSeries(c for c in ())  # an iterable is read once


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


def assert_typed(out, want):
    """Equal values, each output an int exactly when it is whole."""
    out = list(out)
    assert out == want
    assert_canonical(out)


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
                 [conv_oracle(xs, ys, m) for m in range(n)])
    c, a = [zero, *xs], [one, *xs]
    assert_typed(egf_exp(EGFSeries(tuple(c))).coeffs, exp_oracle(c))
    assert_typed(egf_log(EGFSeries(tuple(a))).coeffs, log_oracle(a))
    assert_typed(w_to_v(a), log_oracle(a)[1:])
    assert_typed(v_to_w(xs), exp_oracle(c))


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
    assert_typed(egf_exp(EGFSeries(c)).coeffs, exp_oracle(c))
    assert_typed(v_to_w(list(c[1:])), exp_oracle(c))
    assert all(any(type(x) is Fraction for x in s) for s in seen)
    a = (1, *c[1:])
    seen = _kernel_inputs(monkeypatch, "_log_coeffs")
    assert_typed(egf_log(EGFSeries(a)).coeffs, log_oracle(a))
    assert any(type(x) is Fraction for x in seen[0])


def test_common_denominators_run_as_integers(monkeypatch):
    c = (0, *[Fraction(5, 8)] * 40)
    seen = _kernel_inputs(monkeypatch, "_exp_coeffs")
    assert_typed(egf_exp(EGFSeries(c)).coeffs, exp_oracle(c))
    assert all(type(x) is int for x in seen[0])
    x = (Fraction(1, 3), *[Fraction(k, 6) for k in range(1, 20)])
    seen = _kernel_inputs(monkeypatch, "_mul_coeffs")
    assert_typed(egf_mul(EGFSeries(x), EGFSeries(x)).coeffs,
                 [conv_oracle(x, x, m) for m in range(20)])
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


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed, min_size=1, max_size=10), st.lists(mixed, min_size=1, max_size=10))
# no common scale: the recurrences run on Fractions, and W_2 = 3/4 + (1/2)^2 is whole
@example([Fraction(1, 2), Fraction(3, 4), *(Fraction(1, p) for p in _primes(30)[2:])], [2] * 30)
@example([Fraction(1, 2), Fraction(3, 4)], [Fraction(1, 2), Fraction(1, 2)])  # whole outputs of halves
def test_every_route_keeps_the_coefficient_rule(xs, ys):
    a, b = EGFSeries(tuple(xs)), EGFSeries(tuple(ys))
    outputs = [a.coeffs, b.coeffs, (a + b).coeffs, egf_mul(a, b).coeffs,
               egf_exp(EGFSeries((0, *xs))).coeffs, egf_log(EGFSeries((1, *xs))).coeffs,
               w_to_v([1, *xs]), v_to_w(xs), EGFSeries.from_json(a.to_json()).coeffs]
    for out in outputs:
        assert_canonical(out)
    assert EGFSeries.from_json(a.to_json()) == a


# ---------------------------------------------------------------------------
# Kept binomial rows, against the per-term math.comb sums they replace


def comb_mul(x, y):
    """c_n = sum_k C(n,k) x_k y_{n-k}, one math.comb per product."""
    return [sum(math.comb(m, k) * x[k] * y[m - k] for k in range(m + 1))
            for m in range(min(len(x), len(y)))]


def comb_exp(c):
    """a_n = sum_{k=1..n} C(n-1, k-1) c_k a_{n-k}, one math.comb per product."""
    a = [1]
    for m in range(1, len(c)):
        a.append(sum(math.comb(m - 1, k - 1) * c[k] * a[m - k] for k in range(1, m + 1)))
    return a


def comb_log(a):
    """c_n = a_n - sum_{k<n} C(n-1, k-1) c_k a_{n-k}, one math.comb per product."""
    c = [0]
    for m in range(1, len(a)):
        c.append(a[m] - sum(math.comb(m - 1, k - 1) * c[k] * a[m - k] for k in range(1, m)))
    return c


def assert_bitwise(out, want):
    # repr tells every two floats apart, -0.0 from 0.0 included
    assert [type(v) for v in out] == [type(v) for v in want]
    assert list(map(repr, out)) == list(map(repr, want))


@pytest.mark.parametrize("order", [0, 1, 2, 5, 12, 40, 90, 140])
@pytest.mark.parametrize("kind", ["float", "complex"])
def test_floating_kernels_match_the_per_term_comb_sum(order, kind):
    # same products, same grouping, same order of summation: bit for bit,
    # through rows past the 128 kept (order 140) as well as within them
    rng = random.Random(order)

    def draw():
        if kind == "float":
            return rng.uniform(-1, 1)
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    x, y = [draw() for _ in range(order + 1)], [draw() for _ in range(order + 1)]
    c, a = [0, *x[1:]], [1, *x[1:]]
    assert_bitwise(egf._mul_coeffs(x, y), comb_mul(x, y))
    assert_bitwise(egf._exp_coeffs(c), comb_exp(c))
    assert_bitwise(egf._log_coeffs(a), comb_log(a))
    assert_bitwise(w_to_v(a), comb_log(a)[1:])
    assert_bitwise(v_to_w(x[1:]), comb_exp(c))


@pytest.mark.parametrize("order", [0, 3, 40, 140])
def test_series_match_the_per_term_comb_sum(order):
    # a series reads each float as its exact dyadic value: the same sums, exact
    rng = random.Random(order)
    x = EGFSeries(tuple(rng.uniform(-1, 1) for _ in range(order + 1)))
    y = EGFSeries(tuple(rng.uniform(-1, 1) for _ in range(order + 1)))
    c, a = (0, *x.coeffs[1:]), (1, *x.coeffs[1:])
    assert_typed(egf_mul(x, y).coeffs, list(map(rational, comb_mul(x.coeffs, y.coeffs))))
    assert_typed(egf_exp(EGFSeries(c)).coeffs, list(map(rational, comb_exp(c))))
    assert_typed(egf_log(EGFSeries(a)).coeffs, list(map(rational, comb_log(a))))


def test_binomial_rows_are_kept_within_their_bound():
    egf._binomials.cache_clear()
    # order 300 reads rows 0..299, more than the 128 kept
    assert v_to_w([1] * 300) == [bell(n) for n in range(301)]
    info = egf._binomials.cache_info()
    assert info.currsize <= info.maxsize == 128
    # half a row by the ratio C(m, k+1) / C(m, k), the rest by symmetry
    for m in (0, 1, 2, 3, 298, 299):
        assert egf._binomials(m) == tuple(math.comb(m, k) for k in range(m + 1))
    # rows evicted by the sweep are rebuilt as they are read
    q = [Fraction(5, 8)] * 20
    assert_typed(v_to_w(q), exp_oracle([0, *q]))
