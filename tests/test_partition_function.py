"""Partition-function routes: closed form, regularized quadrature, the
truncated combinatorial expansion, and the divergence demonstration."""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellhop import boson
from bellhop.boson import BosonExpression, CoherentParam, NormalOrderedForm, number_word, parse_expression, word_moments
from bellhop.combinatorics import _stirling_row, bell, bell_polynomial
from bellhop import combinatorics, partition_function as pf
from bellhop.errors import ResourceLimitError
from bellhop.partition_function import (
    GeneralFResult,
    ModelParams,
    QuadratureConfig,
    _legendre_rule,
    closed_form_Z,
    combinatorial_Z,
    divergence_report,
    general_F,
    integrand,
    regularized_Z,
    regularized_series_Z,
    termwise_partial,
)

LN2 = math.log(2.0)


def params(beta_eps: float) -> ModelParams:
    return ModelParams(beta=1.0, epsilon=beta_eps)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -2.0)
    # the exact series routes need a finite x = -beta epsilon
    for beta, epsilon in [(1.0, math.inf), (1.0, math.nan), (math.nan, 1.0), (1e200, 1e200)]:
        with pytest.raises(ValueError):
            ModelParams(beta, epsilon)
    p = params(LN2)
    assert abs(p.alpha - 0.5) < 1e-15
    assert 0 < params(0.01).alpha < 1
    for cutoff in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="cutoff must be positive"):
            QuadratureConfig(cutoff)


def test_records_check_their_fields_in_every_constructor():
    # NamedTuples: keyword construction, the default method, and the checks
    # in __new__, which _replace goes through too
    q = QuadratureConfig(cutoff=2.5)
    assert (q.cutoff, q.method) == (2.5, "analytic")
    assert QuadratureConfig(cutoff=1.0, method="gauss") == (1.0, "gauss")
    with pytest.raises(ValueError, match="unknown method 'simpson'"):
        QuadratureConfig(1.0, method="simpson")
    with pytest.raises(ValueError, match="unknown method"):
        q._replace(method="simpson")
    with pytest.raises(ValueError, match="cutoff must be positive"):
        q._replace(cutoff=-1.0)
    p = ModelParams(beta=2.0, epsilon=0.5)
    assert (p.beta, p.epsilon, p.x) == (2.0, 0.5, -1.0)
    assert p._replace(epsilon=0.25).x == -0.5
    with pytest.raises(ValueError, match="finite product"):
        ModelParams(beta=-1.0, epsilon=1.0)
    with pytest.raises(ValueError, match="finite product"):
        p._replace(beta=math.inf)
    with pytest.raises(AttributeError):
        p.beta = 3.0
    report = divergence_report(1, p, [10.0, 1.0])
    assert report.cutoffs == (1.0, 10.0) and report.monotone and report.n == 1
    assert hash(p) == hash(ModelParams(2.0, 0.5)) and hash(q) == hash(QuadratureConfig(2.5))


def test_closed_form():
    assert abs(closed_form_Z(params(LN2)) - 2.0) < 1e-14
    assert abs(closed_form_Z(params(1.0)) - 1 / (1 - math.exp(-1))) < 1e-14
    assert abs(closed_form_Z(params(50.0)) - 1.0) < 1e-14  # ground state only


def test_integrand():
    p = params(1.0)
    assert integrand(0.0, p) == 1.0
    assert abs(integrand(1 / p.alpha, p) - math.exp(-1)) < 1e-15
    with pytest.raises(ValueError):
        integrand(-1.0, p)


def test_integrand_refuses_nan():
    with pytest.raises(ValueError, match=r"^y must be nonnegative$"):
        integrand(float("nan"), params(1.0))


def test_integrand_matches_truncated_bell_sum():
    # sum_{n<=N} B_n(y) x^n / n! ~ exp(y(e^x - 1)) at modest (x, y); the
    # truncation error at N = 20 is ~2e-6 and reaches 1e-10 near N = 32
    p = params(0.7)
    y = Fraction(2)
    x = Fraction(-7, 10)

    def truncated(N: int) -> float:
        acc = Fraction(0)
        for n in range(N + 1):
            acc += bell_polynomial(n, y) * x**n / math.factorial(n)
        return float(acc)

    assert abs(truncated(20) - integrand(2.0, p)) < 1e-5
    assert abs(truncated(32) - integrand(2.0, p)) < 1e-10


def test_regularized_analytic():
    p = params(LN2)
    value, err = regularized_Z(p, QuadratureConfig(cutoff=100.0))
    assert abs(value - 2.0 * (1 - math.exp(-50))) < 1e-14
    assert abs(value - 2.0) < 1e-20 + 1e-14


def test_regularized_gauss_matches_closed_form():
    p = params(1.0)
    M = 28.0 / p.alpha  # e^{-alpha M} < 1e-12
    value, err = regularized_Z(p, QuadratureConfig(cutoff=M, method="gauss"))
    assert abs(value - closed_form_Z(p)) < 1e-10
    assert err < 1e-10


def test_regularized_gauss_accuracy():
    # 200 seeded (beta epsilon, M) from small to astronomically large
    # cutoffs, against (1 - e^(-alpha M)) / alpha at the same float alpha
    # in 40-digit arithmetic
    import mpmath

    rng = random.Random(2024)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(200):
            p = params(10 ** rng.uniform(math.log10(0.05), math.log10(5)))
            M = 10 ** rng.uniform(0, 9)
            value, estimate = regularized_Z(p, QuadratureConfig(cutoff=M, method="gauss"))
            alpha = mpmath.mpf(p.alpha)
            exact = -mpmath.expm1(-alpha * M) / alpha
            worst = max(worst, float(abs(value - exact) / exact))
            assert abs(value - exact) <= estimate <= 1e-10
    assert worst < 4e-15


def test_gauss_estimate_certifies_the_value():
    # the estimate bounds the error against the exact integral at the same
    # float alpha, from a cutoff far below 1/alpha to one far past the cut,
    # and is not vacuous
    import mpmath

    with mpmath.workdps(50):
        for beta_eps in (1e-6, 0.05, 1.0, 5.0, 20.0):
            p = params(beta_eps)
            alpha = mpmath.mpf(p.alpha)
            for M in (1e-3, 20.0, 1e4, 1e9):
                value, estimate = regularized_Z(p, QuadratureConfig(cutoff=M, method="gauss"))
                exact = -mpmath.expm1(-alpha * M) / alpha
                assert abs(value - exact) <= estimate <= 1e-12 * value, (beta_eps, M)


def test_regularized_error_scale():
    # doubling M squares the e^{-alpha M} tail factor
    p = params(1.0)
    z = closed_form_Z(p)
    gap1 = abs(regularized_Z(p, QuadratureConfig(cutoff=10.0))[0] - z)
    gap2 = abs(regularized_Z(p, QuadratureConfig(cutoff=20.0))[0] - z)
    assert abs(gap2 - gap1**2 * p.alpha) < 1e-12 * gap1


def test_termwise_values():
    p = params(LN2)  # alpha = 1/2
    assert abs(termwise_partial(0, p, 8.0) - 8.0) < 1e-14
    assert abs(termwise_partial(1, p, 10.0) - (-25.0)) < 1e-12


def test_termwise_grows_without_bound():
    p = params(LN2)
    for n in range(7):
        vals = [abs(termwise_partial(n, p, M)) for M in (10.0, 100.0, 1000.0)]
        assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("n", [0, 1, 5, 76, 77, 200, 1000])
def test_termwise_is_the_exact_term_rounded_once(n):
    # (-alpha)^n / n! * M^(n+1) / (n+1) in exact rationals at the float alpha
    # and M; the float formula overflows from n = 77 at M = 1e4
    p = params(1.0)
    for M in (10.0, 100.0, 1000.0, 10000.0):
        exact = Fraction(-p.alpha) ** n / math.factorial(n) * Fraction(M) ** (n + 1) / (n + 1)
        try:
            want = float(exact)
        except OverflowError:
            want = math.inf if exact > 0 else -math.inf
        assert termwise_partial(n, p, M) == want


def test_termwise_limit():
    p = params(1.0)
    assert termwise_partial(pf.DIVERGENCE_LIMIT, p, 10000.0) == math.inf
    with pytest.raises(ResourceLimitError, match=r"^divergence term n=10001 exceeds the limit 10000$"):
        termwise_partial(pf.DIVERGENCE_LIMIT + 1, p, 10.0)


def test_divergence_report():
    p = params(LN2)
    rep = divergence_report(2, p, [10.0, 100.0, 1000.0])
    assert rep.monotone
    assert rep.alpha == p.alpha
    oracle = [(-0.5) ** 2 / 2 * M**3 / 3 for M in (10.0, 100.0, 1000.0)]
    assert all(abs(a - b) < 1e-9 * abs(b) for a, b in zip(rep.values, oracle))


def test_divergence_report_decides_growth_on_exact_terms():
    # the floats tie at 0.0 below the float range; the exact terms grow
    rep = divergence_report(1000, ModelParams(1.0, 1.0), [10, 100, 1e3, 1e4])
    assert rep.values[:2] == (0.0, 0.0) and rep.values[3] == math.inf
    assert rep.monotone
    assert not divergence_report(1000, ModelParams(1.0, 1.0), [10, 100, 100, 1e4]).monotone
    assert not divergence_report(2, params(LN2), [10.0, 10.0]).monotone


def test_series_small_alpha_M():
    p = params(LN2)
    got = regularized_series_Z(p, 20.0, 200)
    assert abs(got - 2.0 * (1 - math.exp(-10))) < 1e-10


def test_series_order_zero():
    assert regularized_series_Z(params(1.0), 7.0, 0) == 7.0


def test_series_fixed_N_diverges_in_M():
    # order of limits matters: fixed N = 5, growing M walks away from Z
    p = params(1.0)
    z = closed_form_Z(p)
    gaps = [abs(regularized_series_Z(p, M, 5) - z) for M in (10.0, 100.0, 1000.0)]
    assert gaps[0] < gaps[1] < gaps[2]
    assert gaps[2] > 1e6


def test_series_past_the_float_range():
    # the terms (alpha M)^n M / (n+1)! overflow; the exact sum is rounded once
    p = params(5.0)
    assert regularized_series_Z(p, 1e6, 200) == math.inf  # top term, even n, dominates
    assert regularized_series_Z(p, 1e6, 199) == -math.inf
    # terms peak near 10^345 and fall again: the sum is (1 - e^(-alpha M)) / alpha
    assert abs(regularized_series_Z(p, 800.0, 2500) - closed_form_Z(p)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1.0, 1e-200]), st.one_of(st.floats(1e-9, 20.0), st.sampled_from([1e-300, 5e-324])),
       st.floats(1e-3, 1e7), st.integers(0, 120))
@example(1.0, 5.0, 1e6, 200)
@example(1.0, 5.0, 1e6, 199)
@example(1.0, 5.0, 150.0, 500)  # terms peak near 10^63, and the sum is ~1
def test_series_matches_its_termwise_fraction_sum(beta, epsilon, M, N):
    # M sum_n x^n / (n+1)!, x = -alpha M, summed term by term in Fractions
    # and rounded once by int / int division: the route's
    # (1 - e_{N+1}(x)) / alpha is this value, bit for bit, also at alpha = 0
    # (beta = 1e-200 and beta epsilon below the float range) and past the float
    # range.  test_series_past_the_float_range's third point, N = 2500, takes
    # ~40 s this way (2-vCPU VM), so a shorter sum with the same cancellation stands in.
    p = ModelParams(beta, epsilon)
    x = -Fraction(p.alpha) * Fraction(M)
    exact = sum(Fraction(M) * x**n / math.factorial(n + 1) for n in range(N + 1))
    try:
        want = exact.numerator / exact.denominator
    except OverflowError:
        want = math.inf if exact > 0 else -math.inf
    assert regularized_series_Z(p, M, N) == want


def _float_of(value: Fraction) -> float:
    """float(value), or an infinity of its sign past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# beta epsilon = 1e-500 reads 0 as a float, so alpha = 0; at M = 1e300 the
# sums of order 1 and up pass the float range, to +inf or -inf
FLOAT_GRID = [(p, M, N) for p in (ModelParams(1.0, 1.0), ModelParams(1.0, 0.05), ModelParams(1.0, 5.0),
                                  ModelParams(1.0, 1e-9), ModelParams(1e-200, 1e-300))
              for M in (1e-3, 0.5, 20.0, 1e300) for N in (0, 1, 2, 7, 30)]


def test_float_series_routes_match_their_per_term_fraction_sums():
    # the three exact sums rounded once from Horner's unreduced integer pair
    # against float() of an independent per-term Fraction sum: bit for bit
    signs = set()
    for p, M, N in FLOAT_GRID:
        x, Mq = Fraction(p.x), Fraction(M)
        series = Mq * sum((-Fraction(p.alpha) * Mq) ** n / math.factorial(n + 1) for n in range(N + 1))
        integral = sum(x**n / math.factorial(n) * sum(combinatorics.stirling2(n, k) * Mq ** (k + 1) / (k + 1)
                                                      for k in range(n + 1)) for n in range(N + 1))
        got = regularized_series_Z(p, M, N), combinatorial_Z(p, M, N)
        assert got == (_float_of(series), _float_of(integral)), (p, M, N)
        signs.update(v for v in got if math.isinf(v))
    assert signs == {math.inf, -math.inf}
    rng = random.Random(35)
    for coeffs in [(1, 2, 3), (Fraction(1, 3), -2, Fraction(7, 5)), (10**300, -(10**301), 5),
                   tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(25))]:
        for x in (-0.9, 0.0, 2.5, 1e300, -1e300, 5e-324):
            exact = sum(Fraction(c) * Fraction(x) ** n / math.factorial(n) for n, c in enumerate(coeffs))
            assert pf._egf_at(coeffs, x) == _float_of(exact), (coeffs, x)


def test_series_cauchy_in_N():
    # at fixed finite M the series converges (interchange is legal there)
    p = params(1.0)
    M = 15.0
    target = -math.expm1(-p.alpha * M) / p.alpha
    gaps = [abs(regularized_series_Z(p, M, N) - target) for N in (20, 40, 80)]
    assert gaps[2] < 1e-10
    assert gaps[0] > gaps[2]


# ---------------------------------------------------------------------------
# Gauss-Legendre rule


@pytest.mark.parametrize("n", range(2, 21))
def test_legendre_rule_is_exact_to_degree_2n_minus_1(n):
    nodes, weights = _legendre_rule(n)
    assert len(nodes) == len(weights) == n
    assert list(nodes) == sorted(nodes)
    assert all(nodes[i] == -nodes[n - 1 - i] for i in range(n))
    assert all(w > 0 for w in weights)
    assert abs(sum(weights) - 2) < 1e-15
    for k in range(2 * n):
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(sum(w * x**k for x, w in zip(nodes, weights)) - exact) < 1e-15, k


def test_gauss_rule_is_within_the_certificates_allowance():
    # regularized_Z's rounding bound allows 6u for the computed 16-point rule:
    # its nodes are within 0.32u of the exact ones, and sum |w - w_exact| / 2
    # < 4.1u, times e^(alpha h) < 1.4 for the integrand's spread on a panel
    import mpmath

    u, n = 2.0**-53, pf.POINTS
    nodes, weights = _legendre_rule(n)
    with mpmath.workdps(40):
        exact = [mpmath.findroot(lambda t: mpmath.legendre(n, t), x) for x in nodes]
        exact_weights = [2 * (1 - t**2) / (n * mpmath.legendre(n - 1, t)) ** 2 for t in exact]
        assert max(abs(x - t) for x, t in zip(nodes, exact)) < 0.32 * u
        assert sum(abs(w - v) for w, v in zip(weights, exact_weights)) / 2 < 4.1 * u


# ---------------------------------------------------------------------------
# Combinatorial route


def _bell_poly_coeffs_fraction(x: float, N: int) -> list[Fraction]:
    """The coefficients summed as Fractions of x's exact powers: the
    reference for the integer sum."""
    xf = Fraction(x)
    rows = [_stirling_row(n) for n in range(N + 1)]
    xpow = [Fraction(1)]
    for _ in range(N):
        xpow.append(xpow[-1] * xf)
    fact = [math.factorial(n) for n in range(N + 1)]
    gs = []
    for k in range(N + 1):
        g = Fraction(0)
        for n in range(k, N + 1):
            s = rows[n][k] if k <= n else 0
            if s:
                g += s * xpow[n] / fact[n]
        gs.append(g)
    return gs


def _integrated(gs: list[Fraction], M: float) -> float:
    """sum_k g_k y^k integrated over [0, M] in exact rationals, rounded once."""
    Mf = Fraction(M)
    return float(sum(g * Mf ** (k + 1) / (k + 1) for k, g in enumerate(gs)))


@pytest.mark.parametrize(
    "x, N",
    [(-0.7713, 200), (-1.0, 200), (-0.05, 60), (-2.5, 60), (-7.25, 80), (-1e-5, 30),
     (-0.3, 0), (-0.3, 1), (-0.3, 7)],
)
def test_bell_poly_coeffs_match_fraction_sum(x, N):
    # the integer sum is the exact value, rounded once: 2.7 is not dyadic,
    # so the cutoff's denominator is exercised too
    M = 2.7
    assert combinatorial_Z(ModelParams(1.0, -x), M, N) == _integrated(_bell_poly_coeffs_fraction(x, N), M)


@pytest.mark.parametrize("x, N", [(-0.7713, 40), (-1.0, 24), (-2.5, 30), (-0.05, 12)])
def test_bell_poly_coeffs_egf_identity(x, N):
    # sum_n S(n,k) x^n / n! = (e^x - 1)^k / k!: power the truncated series
    # of e^x - 1 in exact rationals, with no Stirling number in sight
    base = [Fraction(0)] + [Fraction(1, math.factorial(n)) for n in range(1, N + 1)]
    power = [Fraction(1)] + [Fraction(0)] * N  # (e^x - 1)^0
    xf = Fraction(x)
    gs = []
    for k in range(N + 1):
        gs.append(sum(c * xf**n for n, c in enumerate(power)) / math.factorial(k))
        power = [sum(power[j] * base[n - j] for j in range(n + 1)) for n in range(N + 1)]
    M = 2.7
    assert combinatorial_Z(ModelParams(1.0, -x), M, N) == _integrated(gs, M)


def test_combinatorial_needs_a_finite_cutoff():
    with pytest.raises(ValueError, match="finite cutoff"):
        combinatorial_Z(params(1.0), math.inf, 40)


def test_combinatorial_past_the_float_range():
    # the top term g_N M^(N+1) / (N+1), with g_N = x^N / N!, dominates and sets the sign
    assert combinatorial_Z(params(1.0), 1e9, 200) == math.inf
    assert combinatorial_Z(params(1.0), 1e9, 199) == -math.inf


def test_combinatorial_refuses_before_any_row_or_weight(monkeypatch):
    # order 20,000 passes SERIES_BITS_LIMIT; no command reaches it, since
    # regularized_series_Z refuses the same order first
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="a series of order 20000"):
        combinatorial_Z(ModelParams(1.0, 0.05), 20.0, 20000)
    assert time.perf_counter() - start < 1.0
    assert len(combinatorics._STIRLING_ROWS) == 1


def test_combinatorial_builds_no_stirling_row(monkeypatch):
    # Stirling's recurrence runs on the weights, so no row is built or read;
    # the two exact routes to the cut-off integral print one value, at order
    # 1000 too (~0.8 s), where rows 0..1000 would pass SERIES_BITS_LIMIT
    monkeypatch.setattr(combinatorics, "_STIRLING_ROWS", [(1,)])
    p = ModelParams(1.0, 0.05)
    for order in (300, 1000):
        value = combinatorial_Z(p, 20.0, order)
        assert combinatorics._STIRLING_ROWS == [(1,)]
        assert value == regularized_series_Z(p, 20.0, order) == 12.773333645271567, order


def test_combinatorial_order_zero_is_M():
    assert abs(combinatorial_Z(params(1.0), 6.0, 0) - 6.0) < 1e-12


def test_combinatorial_converges_at_fixed_cutoff():
    # N first, then M: at a fixed modest cutoff the truncation settles onto
    # the analytic integral over [0, M]
    p = params(1.0)
    M = 8.0
    target = -math.expm1(-p.alpha * M) / p.alpha
    assert abs(combinatorial_Z(p, M, 120) - target) < 1e-8
    gap_small = abs(combinatorial_Z(p, M, 60) - target)
    gap_large = abs(combinatorial_Z(p, M, 120) - target)
    assert gap_large <= gap_small


def test_combinatorial_agrees_with_regularized_at_same_cutoff():
    p = params(0.5)
    M = 10.0
    reg, _ = regularized_Z(p, QuadratureConfig(cutoff=M, method="gauss"))
    comb = combinatorial_Z(p, M, 100)
    assert abs(reg - comb) < 1e-8


def test_cutoff_integral_taylor_coefficients():
    # n-th x-Taylor coefficient of integral_0^M exp(y(e^x - 1)) dy equals
    # integral_0^M B_n(y) dy / n!; extract by central finite differences in
    # high precision, where tightening h tightens the agreement
    import mpmath

    M = 3
    with mpmath.workdps(60):

        def cutoff_integral(x):
            if x == 0:
                return mpmath.mpf(M)
            a = mpmath.expm1(x)  # e^x - 1
            return (mpmath.expm1(a * M)) / a

        stencils = {
            0: [(0, 1)],
            1: [(-1, mpmath.mpf(-1) / 2), (1, mpmath.mpf(1) / 2)],
            2: [(-1, 1), (0, -2), (1, 1)],
            3: [(-2, mpmath.mpf(-1) / 2), (-1, 1), (1, -1), (2, mpmath.mpf(1) / 2)],
            4: [(-2, 1), (-1, -4), (0, 6), (1, -4), (2, 1)],
            5: [(-3, mpmath.mpf(-1) / 2), (-2, 2), (-1, mpmath.mpf(-5) / 2),
                (1, mpmath.mpf(5) / 2), (2, -2), (3, mpmath.mpf(1) / 2)],
        }
        for n in range(6):
            exact = bell_polynomial_antiderivative(n, M) / math.factorial(n)
            gaps = []
            for h in (mpmath.mpf(1) / 100, mpmath.mpf(1) / 1000):
                deriv = sum(c * cutoff_integral(k * h) for k, c in stencils[n]) / h**n
                gaps.append(abs(deriv / mpmath.factorial(n) - exact))
            assert gaps[1] < gaps[0] or gaps[1] < mpmath.mpf(10) ** (-12)
            assert gaps[1] < 1e-3 * max(1.0, abs(exact))


def bell_polynomial_antiderivative(n: int, M: int) -> Fraction:
    """integral_0^M B_n(y) dy via the exact polynomial antiderivative."""
    from bellhop.combinatorics import stirling2

    if n == 0:
        return Fraction(M)
    return sum(
        Fraction(stirling2(n, k) * M ** (k + 1), k + 1) for k in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# general_F


def test_general_F_bell():
    res = general_F(number_word(1), -1.0, 1, 10)
    assert list(res.w_moments) == [bell(n) for n in range(11)]
    assert list(res.v_sequence) == [1] * 10
    expected = sum(bell(n) * (-1.0) ** n / math.factorial(n) for n in range(11))
    assert abs(res.f_value - expected) < 1e-12


def test_general_F_mod_sq_two():
    z = CoherentParam.from_mod_sq(2)
    res = general_F(number_word(1), -0.5, z, 8)
    assert list(res.v_sequence) == [2] * 8
    assert list(res.w_moments) == [bell_polynomial(n, 2) for n in range(9)]


def test_general_F_x_zero():
    res = general_F(number_word(1), 0.0, 1, 6)
    assert res.f_value == 1.0
    assert res.discrepancy < 1e-14


def test_general_F_exp_form_consistency():
    res = general_F(number_word(1), -0.4, 1, 16)
    # truncation-aware: both forms approximate exp(e^{-0.4} - 1) closely
    assert res.discrepancy < 1e-8


def test_general_F_past_the_float_range_is_infinite():
    # exp of the connected sum overflows: an infinite exponential form, not an OverflowError
    res = general_F(parse_expression("ad a"), 1.0, 30, 8)
    assert res.exp_form_value == math.inf and math.isfinite(res.f_value)


def test_general_F_at_a_complex_point_is_complex():
    # <z| ad^n |z> = conj(z)^n: V_1 = -i and V_n = 0 past it, so exp(-i/2)
    res = general_F(parse_expression("ad"), 0.5, 1j, 4)
    assert res.v_sequence == (-1j, 0, 0, 0)
    assert type(res.f_value) is type(res.exp_form_value) is complex
    assert abs(res.f_value - sum((-0.5j) ** n / math.factorial(n) for n in range(5))) < 1e-15
    assert abs(res.exp_form_value - cmath.exp(-0.5j)) < 1e-15


def test_general_F_non_number_conserving():
    w = BosonExpression.a() + BosonExpression.ad()
    res = general_F(w, 0.3, 0, 8)
    # <0|exp(x(a+ad))|0> = e^{x^2/2}
    assert abs(res.f_value - math.exp(0.3**2 / 2)) < 1e-6
    assert res.discrepancy < 1e-8


def test_general_F_rounds_exact_sums_once():
    # summed in floats, F was off by 1.6e-14 relative here
    res = general_F(number_word(1), -0.9, Fraction(7, 4), 24)
    x = Fraction(-0.9)
    f_value = sum(w * x**n / math.factorial(n) for n, w in enumerate(res.w_moments))
    exponent = sum(v * x**n / math.factorial(n) for n, v in enumerate(res.v_sequence, 1))
    assert res.f_value == float(f_value)
    assert res.exp_form_value == math.exp(float(exponent))


@pytest.mark.parametrize("text", ["ad a", "ad + a"])
@pytest.mark.parametrize("z", [Fraction(5, 4), CoherentParam.from_mod_sq(Fraction(2, 3))], ids=["z", "mod_sq"])
def test_moments_take_a_form_or_an_expression(text, z, monkeypatch):
    by_words = word_moments(parse_expression(text), 12, z), general_F(parse_expression(text), -0.3, z, 10)

    def refuse(expr):
        raise AssertionError("a form is the step as it is")

    monkeypatch.setattr(boson, "normal_order", refuse)
    form = NormalOrderedForm.parse(text)
    by_form = word_moments(form, 12, z), general_F(form, -0.3, z, 10)
    assert by_form == by_words
    for got, want in zip(by_form[0] + list(by_form[1].w_moments), by_words[0] + list(by_words[1].w_moments)):
        assert type(got) is type(want)


def test_gauss_value_is_the_same_on_every_python():
    # each panel and the weight normalisation use math.fsum, so the value does
    # not depend on whether the builtin sum is compensated (it is from 3.12 on)
    value, _ = regularized_Z(ModelParams(1.0, 2.0), QuadratureConfig(cutoff=45.0, method="gauss"))
    assert value == 1.1565176427496653


def test_gauss_refuses_an_infinite_range():
    # below beta epsilon ~2.3e-307, 60 ln 2 / alpha overflows: with an infinite
    # cutoff the panels would span [0, inf] and the value and estimate be NaN
    with pytest.raises(ValueError, match="overflows"):
        regularized_Z(ModelParams(1.0, 1e-310), QuadratureConfig(math.inf, "gauss"))
    # a finite range keeps its value and estimate, bit for bit
    value, estimate = regularized_Z(ModelParams(1.0, 1e-6), QuadratureConfig(math.inf, "gauss"))
    assert (value.hex(), estimate.hex()) == ("0x1.e8481000002cep+19", "0x1.0052c276351afp-25")


@pytest.mark.parametrize("M", [1e-3, 20.0, 1e300])
def test_every_route_answers_alpha_zero(M):
    # beta epsilon underflows to 0, so alpha = 0 and the integrand is 1: the
    # series routes sum to M, and the closed form and the integral follow
    p = ModelParams(1e-200, 1e-300)
    assert p.alpha == 0.0 and closed_form_Z(p) == math.inf
    analytic, _ = regularized_Z(p, QuadratureConfig(M))
    gauss, estimate = regularized_Z(p, QuadratureConfig(M, "gauss"))
    assert analytic == M and abs(gauss - M) <= estimate
    if M == 20.0:
        series = regularized_series_Z(p, M, 30)
        assert series == analytic and abs(gauss - series) <= estimate
    with pytest.raises(ValueError, match="overflows"):
        regularized_Z(p, QuadratureConfig(math.inf, "gauss"))


@pytest.mark.parametrize("beta_eps", [1e-260, 1e-300, 1e-306])
def test_gauss_estimate_stays_finite_at_a_tiny_beta_eps(beta_eps):
    # the rule's constant (n!)^4 / ((2n+1) ((2n)!)^3) must be formed before it
    # scales the moment: below beta epsilon ~1e-269 the moment times 16!^4
    # ~ 1.9e53 overflows, and the estimate would read inf beside a finite value
    value, estimate = regularized_Z(ModelParams(1.0, beta_eps), QuadratureConfig(math.inf, "gauss"))
    assert math.isfinite(estimate) and abs(value - 1 / beta_eps) <= estimate < 1e-13 * value
    if beta_eps == 1e-300:
        assert (value, estimate) == (9.999999999999996e299, 2.9839942183950144e286)
