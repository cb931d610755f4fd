"""Numeric routes to the free-boson canonical partition function.

The radial coherent-state integral reduces the 2-D trace to
Z = integral_0^inf exp(-alpha y) dy with alpha = 1 - e^(-beta epsilon);
this module evaluates it in closed form, by cutoff-regularized quadrature,
and through the truncated Bell-polynomial expansion, and it reproduces the
term-wise divergence of the illegal sum/integral interchange.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .boson import BosonExpression, CoherentParam, word_moments
from .combinatorics import _over_common_denominator, _stirling_row
from .egf import w_to_v
from .errors import QuadratureError


@dataclass(frozen=True)
class ModelParams:
    """beta (inverse temperature) and epsilon (energy scale), both > 0."""

    beta: float
    epsilon: float

    def __post_init__(self):
        if self.beta <= 0 or self.epsilon <= 0:
            raise ValueError("beta and epsilon must be positive")

    @property
    def x(self) -> float:
        return -self.beta * self.epsilon

    @property
    def alpha(self) -> float:
        return -math.expm1(self.x)  # 1 - e^x, in (0, 1)


@dataclass(frozen=True)
class QuadratureConfig:
    cutoff: float
    method: str = "analytic"        # "analytic" | "gauss"
    panels: int = 64
    points_per_panel: int = 16
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.method not in ("analytic", "gauss"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.panels < 1 or self.points_per_panel < 2:
            raise ValueError("need at least 1 panel and 2 points per panel")


@dataclass(frozen=True)
class DivergenceReport:
    """Growth of one term of the illegal interchange as the cutoff rises."""

    n: int
    alpha: float
    cutoffs: tuple[float, ...]
    values: tuple[float, ...]
    monotone: bool


def closed_form_Z(p: ModelParams) -> float:
    """1 / (1 - e^(-beta epsilon))."""
    return 1.0 / p.alpha


def integrand(y: float, p: ModelParams) -> float:
    """exp(-alpha y): the Bell-polynomial generating function at (x, y)."""
    if y < 0:
        raise ValueError("y must be nonnegative")
    return math.exp(-p.alpha * y)


@lru_cache(maxsize=8)
def _legendre_rule(points: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Each positive root of P_n comes from Newton's method on the three-term
    recurrence, started at Tricomi's estimate cos(pi (i + 3/4) / (n + 1/2)).
    The rule is symmetric by construction and its weights are scaled to sum
    to 2, the length of [-1, 1].
    """
    n = points

    def legendre(x: float) -> tuple[float, float]:
        # P_n(x) and P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    roots = [0.0] if n % 2 else []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):  # quadratic convergence: a handful of steps
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) < 1e-15:
                break
        roots.append(x)
    roots.sort()
    nodes = [-x for x in reversed(roots) if x > 0] + roots
    weights = []
    for x in nodes:
        _, dp = legendre(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    scale = 2 / math.fsum(weights)
    return tuple(nodes), tuple(w * scale for w in weights)


def _composite_gauss(f, lo: float, hi: float, panels: int, points: int) -> float:
    nodes, weights = _legendre_rule(points)
    step = (hi - lo) / panels
    total = 0.0
    for i in range(panels):
        a = lo + i * step
        b = hi if i == panels - 1 else lo + (i + 1) * step  # the last edge is hi exactly
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        total += half * math.fsum(w * f(mid + half * t) for t, w in zip(nodes, weights))
    return total


def regularized_Z(p: ModelParams, q: QuadratureConfig) -> tuple[float, float]:
    """integral_0^M exp(-alpha y) dy, with an error estimate.

    The analytic route returns (1 - e^(-alpha M)) / alpha; the quadrature
    route integrates numerically and Richardson-checks against doubled
    panels, within tolerance * max(1, |value|).  Converges to closed_form_Z
    at rate e^(-alpha M) / alpha.

    Quadrature stops at M' = min(M, 60 ln 2 / alpha), where e^(-alpha M')
    < 2^-60, so the panels resolve the integrand whatever M is; the omitted
    integral over [M', M] is added to the error estimate.
    """
    alpha, M = p.alpha, q.cutoff
    analytic = -math.expm1(-alpha * M) / alpha
    if q.method == "analytic":
        return analytic, abs(analytic) * 1e-15
    top = min(M, 60 * math.log(2) / alpha)  # past it, e^(-alpha y) < 2^-60
    f = lambda y: math.exp(-alpha * y)
    coarse = _composite_gauss(f, 0.0, top, q.panels, q.points_per_panel)
    fine = _composite_gauss(f, 0.0, top, 2 * q.panels, q.points_per_panel)
    estimate = abs(fine - coarse) + (math.exp(-alpha * top) - math.exp(-alpha * M)) / alpha
    if estimate > q.tolerance * max(1.0, abs(fine)):
        raise QuadratureError("regularized_Z quadrature", fine, estimate)
    return fine, estimate


def termwise_partial(n: int, p: ModelParams, M: float) -> float:
    """n-th term of the illegal interchange, cut off at M:
    (-alpha)^n / n! * M^(n+1) / (n+1).  Unbounded in M for every fixed n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if M <= 0:
        raise ValueError("M must be positive")
    return (-p.alpha) ** n / math.factorial(n) * M ** (n + 1) / (n + 1)


def divergence_report(n: int, p: ModelParams, cutoffs: Sequence[float]) -> DivergenceReport:
    """termwise_partial at each cutoff, flagging strict growth in magnitude."""
    cutoffs = tuple(sorted(cutoffs))
    values = tuple(termwise_partial(n, p, M) for M in cutoffs)
    mags = [abs(v) for v in values]
    monotone = all(a < b for a, b in zip(mags, mags[1:]))
    return DivergenceReport(n, p.alpha, cutoffs, values, monotone)


def regularized_series_Z(p: ModelParams, M: float, N: int) -> float:
    """sum_{n=0}^{N} (-alpha)^n / n! * M^(n+1) / (n+1).

    The legal order of operations: finite cutoff first, so summation and
    integration commute; as N grows this converges to
    (1 - e^(-alpha M)) / alpha at fixed M.

    The terms alternate and their largest grows like e^(alpha M), so float
    rounding of the terms would swamp the sum once alpha M passes ~35.  The
    series is summed exactly at the float alpha and M and rounded once, to
    an infinity if it lies beyond the float range.
    """
    _check_series_args(M, N)
    # M sum_n x^n / (n+1)! with x = -alpha M
    u = _over_common_denominator(Fraction(-p.alpha) * Fraction(M), N, 1)
    a, b = Fraction(M).as_integer_ratio()
    return _rounded(a * sum(u), b * u[0])


def combinatorial_Z(p: ModelParams, M: float, N: int) -> float:
    """integral_0^M sum_{n<=N} B_n(y) x^n / n! dy, the order-N truncation of
    the Bell-polynomial sum integrated over [0, M].

    With g_k = sum_n S(n,k) x^n / n!, the truncation is sum_k g_k y^k, and
    each power integrates in closed form: the value is
    sum_k g_k M^(k+1) / (k+1), summed exactly at the float x and M and
    rounded once, to an infinity if it lies beyond the float range.

    Converges to closed_form_Z as M and N grow jointly (N first).  The
    truncation is an alternating series in n whose terms grow with both
    |x| y and N; at fixed N the usable cutoff M is limited accordingly.
    """
    _check_series_args(M, N)
    # u_n / u_0 = x^n / n!, so G_k / u_0 = g_k
    u = _over_common_denominator(Fraction(p.x), N, 0)
    rows = [_stirling_row(n) for n in range(N + 1)]
    G = [sum(rows[n][k] * u[n] for n in range(k, N + 1)) for k in range(N + 1)]
    # with M = a / b, M^(k+1) / (k+1) = a^(k+1) b^(N-k) ((N+1)! / (k+1)) / (b^(N+1) (N+1)!)
    a, b = Fraction(M).as_integer_ratio()
    F = math.factorial(N + 1)
    numerator = sum(g * a ** (k + 1) * b ** (N - k) * (F // (k + 1)) for k, g in enumerate(G))
    return _rounded(numerator, u[0] * b ** (N + 1) * F)


def _check_series_args(M: float, N: int) -> None:
    if M <= 0:
        raise ValueError("M must be positive")
    if N < 0:
        raise ValueError("N must be nonnegative")
    if not math.isfinite(M):
        raise ValueError("the series needs a finite cutoff M")


def _rounded(num: int, den: int) -> float:
    """num / den (den > 0) to the nearest float, or an infinity of the
    sign of num past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


@dataclass(frozen=True)
class GeneralFResult:
    """Moments, connected moments, and the truncated integrand F(x, z)."""

    w_moments: tuple
    v_sequence: tuple
    f_value: complex | float
    exp_form_value: complex | float

    @property
    def discrepancy(self) -> float:
        return abs(complex(self.f_value) - complex(self.exp_form_value))


def general_F(w: BosonExpression, x: float, z, N: int) -> GeneralFResult:
    """Truncated coherent-state integrand F(x, z) = sum_{n<=N} W_n x^n / n!
    for a general word w, with W_n = <z| w^n |z>, plus the V_n obtained from
    the W_n and the exponential form exp(sum_{n<=N} V_n x^n / n!)."""
    moments = word_moments(w, N, z)
    vs = w_to_v(moments)
    f_value = sum(complex(moments[n]) * x**n / math.factorial(n) for n in range(N + 1))
    exponent = sum(complex(vs[n - 1]) * x**n / math.factorial(n) for n in range(1, N + 1))
    try:
        exp_form = cmath.exp(exponent)
    except OverflowError:  # past the float range: infinite parts, not an error
        y = exponent.imag
        exp_form = complex(math.inf * math.cos(y), math.inf * math.sin(y) if y else 0.0)
    if f_value.imag == 0 and exp_form.imag == 0:
        return GeneralFResult(tuple(moments), tuple(vs), f_value.real, exp_form.real)
    return GeneralFResult(tuple(moments), tuple(vs), f_value, exp_form)
