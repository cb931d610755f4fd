"""Numeric routes to the free-boson canonical partition function.

The radial coherent-state integral reduces the 2-D trace to
Z = integral_0^inf exp(-alpha y) dy with alpha = 1 - e^(-beta epsilon);
this module evaluates it in closed form, by cutoff-regularized quadrature,
and through the truncated Bell-polynomial expansion, whose integrals
I_n = sum_k S(n,k) w_k come from Stirling's recurrence run on the weights,
I_n = (T^n w)_0 with (T v)_k = k v_k + v_(k+1), and it reproduces the
term-wise divergence of the illegal sum/integral interchange.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, repeat
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import _check_series, _horner, size

if TYPE_CHECKING:
    from .boson import BosonExpression, CoherentParam, NormalOrderedForm

PANELS, POINTS = 128, 16  # regularized_Z's Gauss rule: alpha h < 0.33 on every panel
DIVERGENCE_LIMIT = 10_000  # the exact term's integers grow with n


class ModelParams(NamedTuple("ModelParams", [("beta", float), ("epsilon", float)])):
    """beta (inverse temperature) and epsilon (energy scale), both > 0,
    with a finite product."""

    __slots__ = ()

    def __new__(cls, beta: float, epsilon: float):
        if not (beta > 0 and epsilon > 0 and math.isfinite(-beta * epsilon)):  # nan fails too
            raise ValueError("beta and epsilon must be positive, with a finite product")
        return super().__new__(cls, beta, epsilon)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: it checks too
        return cls(*iterable)

    @property
    def x(self) -> float:
        return -self.beta * self.epsilon

    @property
    def alpha(self) -> float:
        return -math.expm1(self.x)  # 1 - e^x, in [0, 1)


class QuadratureConfig(NamedTuple("QuadratureConfig", [("cutoff", float), ("method", str)])):
    __slots__ = ()

    def __new__(cls, cutoff: float, method: str = "analytic"):  # "analytic" | "gauss"
        if not cutoff > 0:  # nan fails too
            raise ValueError("cutoff must be positive")
        if method not in ("analytic", "gauss"):
            raise ValueError(f"unknown method {method!r}")
        return super().__new__(cls, cutoff, method)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: it checks too
        return cls(*iterable)


class DivergenceReport(NamedTuple):
    """Growth of one term of the illegal interchange as the cutoff rises."""

    n: int
    alpha: float
    cutoffs: tuple[float, ...]
    values: tuple[float, ...]
    monotone: bool


def closed_form_Z(p: ModelParams) -> float:
    """1 / (1 - e^(-beta epsilon)); inf at alpha = 0."""
    return 1.0 / p.alpha if p.alpha else math.inf


def integrand(y: float, p: ModelParams) -> float:
    """exp(-alpha y): the Bell-polynomial generating function at (x, y)."""
    if not y >= 0:
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


def regularized_Z(p: ModelParams, q: QuadratureConfig) -> tuple[float, float]:
    """integral_0^M exp(-alpha y) dy, with a bound on its error.

    The analytic route returns (1 - e^(-alpha M)) / alpha, and M at alpha =
    0.  Quadrature runs once over [0, M'], M' = min(M, 60 ln 2 / alpha) (M
    at alpha = 0), past which e^(-alpha y) < 2^-60; its estimate, a
    certificate if math.exp is within 1 ulp, sums bounds on the truncation,
    the rounding and the integral over [M', M].  An M' past the float range
    (M infinite, alpha below ~2.3e-307 or 0) raises ValueError.
    """
    alpha, M = p.alpha, q.cutoff
    analytic = -math.expm1(-alpha * M) / alpha if alpha else M
    if q.method == "analytic":
        return analytic, abs(analytic) * 1e-15
    top, n = min(M, 60 * math.log(2) / alpha) if alpha else M, POINTS
    if not math.isfinite(top):
        raise ValueError(f"the quadrature range 60 ln 2 / alpha overflows at alpha = {alpha!r}")
    nodes, weights = _legendre_rule(n)
    edges = [i * (top / PANELS) for i in range(PANELS)] + [top]  # neighbours share an edge
    value = moment = 0.0
    for a, b in zip(edges, edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        value += half * math.fsum(w * math.exp(-alpha * (mid + half * t)) for t, w in zip(nodes, weights))
        moment += (alpha * (b - a)) ** (2 * n) * (b - a)
    # A&S 25.4.30: on a panel of width h the n-point rule errs by
    # h^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) f^(2n)(xi), and |f^(2n)| <= alpha^(2n)
    truncation = moment * (math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3))
    # Rounding, relative to the value, with u = 2^-53 and math.exp within
    # 1 ulp (2u): PANELS - 1 additions of positive panel sums; 2u for exp; 3u
    # for the weight product, fsum and half-width product (widths are exact);
    # 6u for the computed rule (see the tests); 6u to spare; 3u alpha M' for a
    # node's exponent.  Below the normal range, each half width and its
    # product with the panel sum move the value by at most 2^-1074.
    rounding = 2.0**-53 * (PANELS + 16 + 3 * alpha * top) * value + 2 * PANELS * math.ulp(0.0)
    tail = (math.exp(-alpha * top) - math.exp(-alpha * M)) / alpha if alpha else 0.0
    return value, truncation + rounding + tail


def termwise_partial(n: int, p: ModelParams, M: float) -> float:
    """n-th term of the illegal interchange, cut off at M:
    (-alpha)^n / n! * M^(n+1) / (n+1).  Unbounded in M for every fixed n.

    The term M x^n / (n+1)!, x = -alpha M, is computed exactly at the float
    alpha and M and rounded once, to an infinity past the float range."""
    return _rounded(*_termwise_exact(n, p, M))


def _termwise_exact(n: int, p: ModelParams, M: float) -> tuple[int, int]:
    """termwise_partial as an integer numerator over a positive denominator."""
    n = size(n, limit=DIVERGENCE_LIMIT, what="divergence term n=")
    _check_series_args(M, n)
    m, d = (Fraction(-p.alpha) * Fraction(M)).as_integer_ratio()
    a, b = Fraction(M).as_integer_ratio()
    return a * m**n, b * d**n * math.factorial(n + 1)


def divergence_report(n: int, p: ModelParams, cutoffs: Sequence[float]) -> DivergenceReport:
    """termwise_partial at each cutoff, flagging strict growth in magnitude.

    Growth is decided on the exact terms: their floats can underflow to 0 or
    overflow to an infinity and so tie where the terms do not."""
    cutoffs = tuple(sorted(cutoffs))
    exact = [_termwise_exact(n, p, M) for M in cutoffs]
    # |a/b| < |c/d| with b, d > 0, without dividing
    monotone = all(abs(a) * d < abs(c) * b for (a, b), (c, d) in zip(exact, exact[1:]))
    return DivergenceReport(n, p.alpha, cutoffs, tuple(_rounded(*t) for t in exact), monotone)


def regularized_series_Z(p: ModelParams, M: float, N: int) -> float:
    """sum_{n=0}^{N} (-alpha)^n / n! * M^(n+1) / (n+1).

    The legal order of operations: finite cutoff first, so summation and
    integration commute; as N grows this converges to
    (1 - e^(-alpha M)) / alpha at fixed M.

    The terms alternate and their largest grows like e^(alpha M), so float
    rounding of the terms would swamp the sum once alpha M passes ~35.  The
    series is summed exactly at the float alpha and M and rounded once, to
    an infinity if it lies beyond the float range: with x = -alpha M, it is
    (1 - e_{N+1}(x)) / alpha for e_{N+1} the exponential series to order N + 1.
    """
    _check_series_args(M, N)
    alpha, M = Fraction(p.alpha), Fraction(M)
    x = -alpha * M
    _check_series(N, x)
    if not alpha:  # at a beta epsilon below the float range: the n = 0 term alone
        return _rounded(*M.as_integer_ratio())
    e, scale = _horner(((n, 1) for n in range(N + 2)), x, egf=True)  # e_{N+1}(x) = e / scale
    a, b = alpha.as_integer_ratio()
    return _rounded(b * (scale - e), a * scale)


def combinatorial_Z(p: ModelParams, M: float, N: int) -> float:
    """integral_0^M sum_{n<=N} B_n(y) x^n / n! dy, the order-N truncation of
    the Bell-polynomial sum integrated over [0, M].

    Each B_n(y) = sum_k S(n,k) y^k integrates in closed form, to
    I_n = sum_k S(n,k) M^(k+1) / (k+1): the value is the EGF
    sum_n I_n x^n / n!, summed exactly at the float x and M by one Horner
    pass and rounded once, to an infinity if it lies beyond the float range.
    Stirling's recurrence S(n+1,k) = k S(n,k) + S(n,k-1) runs on the
    weights w_k = M^(k+1) / (k+1) instead of on the rows: I_n = (T^n w)_0
    with (T v)_k = k v_k + v_(k+1), so no Stirling number is built and
    every multiplier is a small k.

    Converges to closed_form_Z as M and N grow jointly (N first).  The
    truncation is an alternating series in n whose terms grow with both
    |x| y and N; at fixed N the usable cutoff M is limited accordingly.
    """
    _check_series_args(M, N)
    x, M = Fraction(p.x), Fraction(M)
    _check_series(N, x, M)
    # with M = a / b, M^(k+1) / (k+1) = w_k / (b^(N+1) (N+1)!) for the integers
    # w_k = a^(k+1) b^(N-k) (N+1)! / (k+1), from running powers of a and b
    a, b = M.as_integer_ratio()
    F = math.factorial(N + 1)
    b_powers = list(accumulate(repeat(b, N), mul, initial=1))  # b^0 .. b^N
    a_powers = accumulate(repeat(a, N + 1), mul)  # a^1 .. a^(N+1)
    w = [ap * bp * (F // k) for k, ap, bp in zip(count(1), a_powers, reversed(b_powers))]
    integrals = []
    while w:  # I_n = (T^n w)_0, each T w one entry shorter
        integrals.append(w[0])
        w = list(map(add, map(mul, count(), w), w[1:]))
    value, scale = _horner(enumerate(integrals), x, egf=True)
    return _rounded(value, b ** (N + 1) * F * scale)


def _check_series_args(M: float, N: int) -> None:
    if not 0 < M < math.inf:  # nan fails too
        raise ValueError("the series needs a finite cutoff M > 0")
    size(N, "N")


def _rounded(num: int, den: int) -> float:
    """num / den (den > 0) to the nearest float, or an infinity of the
    sign of num past the float range.  int / int is rounded once, correctly,
    so an unreduced pair gives the float of its reduced Fraction."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _egf_at(coeffs: Sequence, x: float) -> complex | float:
    """sum_n c_n x^n / n!: for int or Fraction c_n exactly at the float x, by
    one Horner pass over the lcm of their denominators, rounded once; else in floats."""
    if not all(isinstance(c, (int, Fraction)) for c in coeffs):
        return sum(complex(c) * x**n / math.factorial(n) for n, c in enumerate(coeffs))
    x = Fraction(x)
    _check_series(len(coeffs) - 1, x)
    D = math.lcm(*(c.denominator for c in coeffs))
    terms = ((n, c.numerator * (D // c.denominator)) for n, c in enumerate(coeffs))
    value, scale = _horner(terms, x, egf=True)
    return _rounded(value, D * scale)


class GeneralFResult(NamedTuple):
    """Moments, connected moments, and the truncated integrand F(x, z)."""

    w_moments: tuple
    v_sequence: tuple
    f_value: complex | float
    exp_form_value: complex | float

    @property
    def discrepancy(self) -> float:
        return abs(complex(self.f_value) - complex(self.exp_form_value))


def general_F(w: BosonExpression | NormalOrderedForm, x: float, z, N: int) -> GeneralFResult:
    """Truncated coherent-state integrand F(x, z) = sum_{n<=N} W_n x^n / n!
    for a general word w, with W_n = <z| w^n |z>, plus the V_n obtained from
    the W_n and the exponential form exp(sum_{n<=N} V_n x^n / n!).

    w is an expression or a normal-ordered form, as in word_moments."""
    from .boson import word_moments  # only general_F loads boson and egf
    from .egf import w_to_v

    moments = word_moments(w, N, z)
    vs = w_to_v(moments)
    f_value, exponent = _egf_at(moments, x), _egf_at((0, *vs), x)
    try:
        exp_form = cmath.exp(exponent)
    except OverflowError:  # past the float range: infinite parts, not an error
        y = exponent.imag
        exp_form = complex(math.inf * math.cos(y), math.inf * math.sin(y) if y else 0.0)
    if f_value.imag == 0 and exp_form.imag == 0:
        return GeneralFResult(tuple(moments), tuple(vs), f_value.real, exp_form.real)
    return GeneralFResult(tuple(moments), tuple(vs), f_value, exp_form)
