"""Partition-function routes: closed form, regularized quadrature, the
truncated combinatorial expansion, and the divergence demonstration."""

import math
import random
from fractions import Fraction

import pytest

from bellhop.boson import BosonExpression, CoherentParam, number_word
from bellhop.combinatorics import _stirling_row, bell, bell_polynomial
from bellhop.errors import QuadratureError
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
    p = params(LN2)
    assert abs(p.alpha - 0.5) < 1e-15
    assert 0 < params(0.01).alpha < 1


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
            assert estimate <= 1e-10
    assert worst < 4e-15


def test_regularized_error_scale():
    # doubling M squares the e^{-alpha M} tail factor
    p = params(1.0)
    z = closed_form_Z(p)
    gap1 = abs(regularized_Z(p, QuadratureConfig(cutoff=10.0))[0] - z)
    gap2 = abs(regularized_Z(p, QuadratureConfig(cutoff=20.0))[0] - z)
    assert abs(gap2 - gap1**2 * p.alpha) < 1e-12 * gap1


def test_regularized_quadrature_failure_is_reported():
    p = params(1.0)
    q = QuadratureConfig(cutoff=30.0, method="gauss", panels=1, points_per_panel=2,
                         tolerance=1e-14)
    with pytest.raises(QuadratureError) as exc:
        regularized_Z(p, q)
    assert exc.value.achieved > 1e-14


def test_termwise_values():
    p = params(LN2)  # alpha = 1/2
    assert abs(termwise_partial(0, p, 8.0) - 8.0) < 1e-14
    assert abs(termwise_partial(1, p, 10.0) - (-25.0)) < 1e-12


def test_termwise_grows_without_bound():
    p = params(LN2)
    for n in range(7):
        vals = [abs(termwise_partial(n, p, M)) for M in (10.0, 100.0, 1000.0)]
        assert vals[0] < vals[1] < vals[2]


def test_divergence_report():
    p = params(LN2)
    rep = divergence_report(2, p, [10.0, 100.0, 1000.0])
    assert rep.monotone
    assert rep.alpha == p.alpha
    oracle = [(-0.5) ** 2 / 2 * M**3 / 3 for M in (10.0, 100.0, 1000.0)]
    assert all(abs(a - b) < 1e-9 * abs(b) for a, b in zip(rep.values, oracle))


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


def test_general_F_non_number_conserving():
    w = BosonExpression.a() + BosonExpression.ad()
    res = general_F(w, 0.3, 0, 8)
    # <0|exp(x(a+ad))|0> = e^{x^2/2}
    assert abs(res.f_value - math.exp(0.3**2 / 2)) < 1e-6
    assert res.discrepancy < 1e-8


def test_gauss_value_is_the_same_on_every_python():
    # each panel and the weight normalisation use math.fsum, so the value does
    # not depend on whether the builtin sum is compensated (it is from 3.12 on)
    value, _ = regularized_Z(ModelParams(1.0, 2.0), QuadratureConfig(cutoff=45.0, method="gauss"))
    assert value == 1.1565176427496653
