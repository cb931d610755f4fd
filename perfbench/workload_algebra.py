"""`algebra`: in-process, along the paper's route from Bell numbers to the
BELL Hopf algebra.

The set-partition census, the Hopf axiom checks and the linear-combination
arithmetic on monomial keys dominate; EGF transforms, Bell and Stirling
numbers, Bell polynomials, Dobinski sums and the partition-function routes
fill the middle of the latency distribution. boson does nothing here.

The seed picks the Hopf elements, y, q, beta, epsilon and the cutoffs; the
sizes are a fixed ladder, so every seed gives the same mix of costs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import bellhop

import gen
import oracles
from harness import Op, peak_rss_mib  # noqa: F401  (the workload runs in this process)
from oracles import require

CENSUS_N = (7, 8, 9, 10)
CHECK_WEIGHTS = (1, 1, 1, 1, 2, 3)  # four of weight 1 make a cluster at the p90 rank
COPRODUCT_WEIGHTS = (8, 10, 12, 14)  # each element has 10 terms
EGF_ORDERS = (20, 40, 60, 90)
BELL_TABLES = (80, 200)
BELL_POLYNOMIALS = (30, 60, 80, 120, 150, 200)
DOBINSKI = ((10, 40, 30), (25, 80, 50), (40, 120, 60), (60, 200, 80))  # n, K, digits
REGULARIZED = 3
COMBINATORIAL = (2.5, 4.0)  # beta * epsilon * M

ROUNDS_MIN = 2  # 55 operations a round: at least 100 per run
NOMINAL_ROUND_S = 2.9  # one round at reference speed, checks included
PROCESS_GROUP = 0  # 0: each operation between two in-process reference loops


def trace_extras(seed: int) -> dict:
    return {}


def _census_op(n: int) -> Op:
    def run(tr):
        with tr.span("combinatorics.diagram_census"):
            return bellhop.diagram_census(n)

    def check(census, tr):
        counts = {m.letters: c for m, c in census.counts.items()}
        tr.count("combinatorics.census_partitions", sum(counts.values()))
        tr.count("combinatorics.census_monomials", len(counts))
        oracles.check_census(n, counts)

    return Op("census", f"diagram_census {n}", run, check)


def _checks_op(weight: int) -> Op:
    def run(tr):
        with tr.span("hopf.run_all_checks"):
            return bellhop.run_all_checks(weight)

    def check(reports, tr):
        tr.count("hopf.cases_checked", sum(r.checked for r in reports))
        basis = oracles.monomials_up_to_weight(weight)
        want = {"coassociativity": basis, "counit": basis, "antipode": basis,
                "bialgebra": 100, "commutativity": 100, "cocommutativity": basis}
        require({r.name: r.checked for r in reports} == want, f"run_all_checks {weight}: wrong cases")
        require(all(r.ok for r in reports), f"run_all_checks {weight}: an axiom check failed")

    return Op("hopf_checks", f"run_all_checks {weight}", run, check)


def _element(rng: random.Random, max_weight: int, nterms: int) -> dict:
    """Monomials fixed by the weight, so that the coproduct's size does not
    depend on the seed; coefficients from the seed."""
    shape = random.Random(max_weight)
    letters: set[tuple[int, ...]] = set()
    while len(letters) < nterms:
        parts, budget = [], shape.randint(1, max_weight)
        while budget:
            parts.append(shape.randint(1, budget))
            budget -= parts[-1]
        letters.add(tuple(sorted(parts)))
    return {m: gen.rational(rng) for m in sorted(letters)}


def _coproduct_op(terms: dict) -> Op:
    def run(tr):
        element = bellhop.HopfElement({bellhop.Monomial(m): c for m, c in terms.items()})
        with tr.span("hopf.coproduct"):
            delta = bellhop.coproduct(element)
        with tr.span("hopf.antipode"):
            s = bellhop.antipode(element)
        return delta, s

    def check(result, tr):
        delta, s = result
        tr.count("hopf.coproduct_terms", len(delta.terms))
        got = {(l.letters, r.letters): c for (l, r), c in delta.terms.items()}
        require(got == oracles.coproduct_element(terms), "coproduct differs from the binomial formula")
        require({m.letters: c for m, c in s.terms.items()} == oracles.antipode_element(terms),
                "antipode differs from (-1)^degree")

    weight = max(sum(m) for m in terms)
    return Op("coproduct", f"coproduct+antipode weight {weight}", run, check)


def _egf_ops(order: int, q: Fraction) -> list[Op]:
    def log_bell(tr):
        with tr.span("egf.bell_egf"):
            s = bellhop.bell_egf(order)
        with tr.span("egf.log"):
            return bellhop.egf_log(s)

    def exp_touchard(tr):
        with tr.span("egf.exp"):
            return bellhop.egf_exp(bellhop.EGFSeries((0,) + (q,) * order))

    def square_bell(tr):
        with tr.span("egf.bell_egf"):
            s = bellhop.bell_egf(order)
        with tr.span("egf.mul"):
            return bellhop.egf_mul(s, s)

    def round_trip(tr):
        with tr.span("egf.bell_egf"):
            s = bellhop.bell_egf(order)
        with tr.span("egf.log"):
            l = bellhop.egf_log(s)
        with tr.span("egf.exp"):
            return bellhop.egf_exp(l)

    bells = oracles.bell_numbers(order)

    def w_to_v(tr):
        with tr.span("egf.w_to_v"):
            return bellhop.w_to_v(bells)

    def v_to_w(tr):
        with tr.span("egf.v_to_w"):
            return bellhop.v_to_w([q] * order)

    def expect(label, want):
        def check(result, tr):
            got = list(getattr(result, "coeffs", result))
            require(got == want(), f"{label} order {order}: wrong coefficients")
        return check

    def touchard(y):
        return [oracles.touchard(n, y) for n in range(order + 1)]

    return [
        Op("egf", f"egf_log bell {order}", log_bell, expect("log of the Bell EGF", lambda: [0] + [1] * order)),
        Op("egf", f"egf_exp {q} {order}", exp_touchard, expect("exp", lambda: touchard(q))),
        Op("egf", f"egf_mul bell^2 {order}", square_bell, expect("Bell EGF squared", lambda: touchard(Fraction(2)))),
        Op("egf", f"egf_exp(egf_log) bell {order}", round_trip, expect("exp of log", lambda: bells)),
        Op("egf", f"w_to_v bell {order}", w_to_v, expect("w_to_v of Bell numbers", lambda: [1] * order)),
        Op("egf", f"v_to_w {q} {order}", v_to_w, expect("v_to_w", lambda: touchard(q))),
    ]


def _bell_table_op(nmax: int) -> Op:
    def run(tr):
        with tr.span("combinatorics.bell"):
            bells = [bellhop.bell(n) for n in range(nmax + 1)]
        with tr.span("combinatorics.stirling2"):
            row = [bellhop.stirling2(nmax, k) for k in range(nmax + 1)]
        return bells, row

    def check(result, tr):
        bells, row = result
        require(bells == oracles.bell_numbers(nmax), f"bell(0..{nmax}) differs from the Bell triangle")
        require(row == [oracles.stirling2(nmax, k) for k in range(nmax + 1)],
                f"stirling2({nmax}, k) differs from the explicit sum")

    return Op("bell", f"bell table {nmax}", run, check)


def _bell_polynomial_op(n: int, y: Fraction) -> Op:
    def run(tr):
        with tr.span("combinatorics.bell_polynomial"):
            return bellhop.bell_polynomial(n, y)

    def check(value, tr):
        require(value == oracles.touchard(n, y), f"bell_polynomial({n}, {y}) is wrong")

    return Op("bell_polynomial", f"bell_polynomial {n} {y}", run, check)


def mpf_fraction(x) -> Fraction:
    """An mpmath number as the exact rational it represents."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _dobinski_op(n: int, y: Fraction, k_max: int, digits: int) -> Op:
    label = f"dobinski_bell_poly {n} y={y} K={k_max} digits={digits}"

    def run(tr):
        with tr.span("combinatorics.dobinski"):
            return bellhop.dobinski_bell_poly(n, y, k_max, digits)

    def check(res, tr):
        tr.count("combinatorics.dobinski_terms", res.terms_used)
        require(res.terms_used == k_max + 1, f"{label}: wrong term count")
        oracles.check_dobinski(mpf_fraction(res.value), mpf_fraction(res.tail_bound),
                               oracles.touchard(n, y), digits, label)

    return Op("dobinski", label, run, check)


def _regularized_op(beta: float, epsilon: float, cutoff: float) -> Op:
    def run(tr):
        p = bellhop.ModelParams(beta, epsilon)
        with tr.span("partition_function.regularized_Z"):
            return bellhop.regularized_Z(p, bellhop.QuadratureConfig(cutoff=cutoff, method="gauss"))

    def check(result, tr):
        value, estimate = result
        want = oracles.regularized_Z(beta, epsilon, cutoff)
        require(estimate <= 1e-10 and oracles.close(value, want, 1e-10),
                f"regularized_Z(beta={beta}, eps={epsilon}, M={cutoff}) = {value}, expected {want}")

    return Op("regularized_Z", f"regularized_Z gauss {beta} {epsilon} M={cutoff}", run, check)


def _combinatorial_op(beta: float, epsilon: float, cutoff: float, order: int) -> Op:

    def run(tr):
        p = bellhop.ModelParams(beta, epsilon)
        with tr.span("partition_function.combinatorial_Z"):
            return bellhop.combinatorial_Z(p, cutoff, order)

    def check(value, tr):
        want = oracles.regularized_Z(beta, epsilon, cutoff)
        require(oracles.close(value, want, 1e-8),
                f"combinatorial_Z(beta={beta}, eps={epsilon}, M={cutoff}, N={order}) = {value}, expected {want}")

    return Op("combinatorial_Z", f"combinatorial_Z {beta} {epsilon} M={cutoff} N={order}", run, check)


def _combinatorial(rng: random.Random, product: float) -> Op:
    """The truncated Bell-polynomial series settles once N is several times
    beta*epsilon*M, and keeping that product small keeps float cancellation
    in the alternating sum far below the tolerance. The seed moves epsilon
    and M along a fixed product, so N and the cost stay the same."""
    epsilon = round(rng.uniform(0.2, 0.5), 3)
    return _combinatorial_op(1.0, epsilon, product / epsilon, math.ceil(8 * product) + 20)


def build_round(seed: int) -> list[Op]:
    rng = random.Random(seed)
    q = gen.eighths(rng, 1)
    return gen.interleave([
        [_census_op(n) for n in CENSUS_N],
        [_checks_op(w) for w in CHECK_WEIGHTS],
        [_coproduct_op(_element(rng, w, 10)) for w in COPRODUCT_WEIGHTS],
        [op for order in EGF_ORDERS for op in _egf_ops(order, q)],
        [_bell_table_op(n) for n in BELL_TABLES],
        [_bell_polynomial_op(n, gen.eighths(rng, 2)) for n in BELL_POLYNOMIALS],
        [_dobinski_op(n, gen.eighths(rng, 2), k, d) for n, k, d in DOBINSKI],
        [_regularized_op(round(rng.uniform(0.5, 2), 3), round(rng.uniform(0.2, 1), 3),
                         round(rng.uniform(10, 60), 2)) for _ in range(REGULARIZED)],
        [_combinatorial(rng, t) for t in COMBINATORIAL],
    ])
