"""`ordering`: in-process normal ordering of generated boson expressions.

Each operation is text -> parse_expression -> normal_order ->
format_normal_form, or a moment computation (word_moments, general_F).
Scalar-weighted sums raised to the n-th power expand to thousands of words
(2^n for (c1 ad + c2 a)^n), so word expansion and bellhop's word cache
dominate; single words such as (ad a)^n take only the fold. hopf and the
census do nothing here.

The seed picks the coefficients, |z| and x; the sizes are a fixed ladder,
so every seed gives the same mix of operation costs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial

import bellhop
from bellhop.boson import format_normal_form

import gen
import oracles
from harness import Op, peak_rss_mib  # noqa: F401  (the workload runs in this process)
from oracles import require

LINEAR_POWERS = (6, 8, 9, 9, 9, 9, 10, 11, 12, 12, 12, 12)  # clusters of 9 and 12 hold the p50 and p90 ranks
CUBIC_POWERS = (6, 8, 9, 10)
SINGLE_WORDS = ((gen.NUMBER, 12), (gen.NUMBER, 18), (gen.NUMBER, 24),
                (gen.RAISING, 8), (gen.RAISING, 12), (gen.RAISING, 16))
MOMENTS = (("number", 16), ("quadrature", 8), ("number", 24), ("quadrature", 10), ("quadrature", 11))
GENERAL_F = (("number", 16), ("quadrature", 8), ("quadrature", 10))

ROUNDS_MIN = 4  # 30 operations a round: at least 100 per run
NOMINAL_ROUND_S = 2.8  # one round at reference speed, checks included
PROCESS_GROUP = 0  # 0: each operation between two in-process reference loops


def trace_extras(seed: int) -> dict:
    return {}


class _Seen:
    """Words ordered earlier in the run; kept only when tracing."""

    def __init__(self):
        self.words: set = set()

    def record(self, expr, tr):
        words = expr.terms.keys()
        tr.count("boson.parsed_words", len(words))
        tr.count("boson.repeated_words", sum(1 for w in words if w in self.words))
        self.words.update(words)


def _order_op(terms, n: int, seen: _Seen, closed_form=None) -> Op:
    text = gen.power_text(terms, n)

    def run(tr):
        with tr.span("boson.parse"):
            expr = bellhop.parse_expression(text)
        with tr.span("boson.normal_order"):
            form = bellhop.normal_order(expr)
        with tr.span("boson.format"):
            printed = format_normal_form(form)
        return expr, form, printed

    def check(result, tr):
        expr, form, printed = result
        if tr.enabled:
            seen.record(expr, tr)
            tr.count("boson.normal_terms", len(form.terms))
        got = dict(form.terms)
        if closed_form is not None:
            require(got == closed_form(), f"{text}: differs from the closed form")
        oracles.check_normal_form(terms, n, got, text)
        require(oracles.parse_normal_form(printed) == got, f"{text}: printed form differs")

    return Op("order", text, run, check)


def _moment_oracles(word: str, nmax: int, z: Fraction):
    if word == "number":
        return oracles.number_moments(nmax, z), oracles.number_connected(nmax, z)
    return oracles.quadrature_moments(nmax, z), oracles.quadrature_connected(nmax, z)


WORD_TEXT = {"number": "ad a", "quadrature": "ad + a"}


def _moments_op(word: str, nmax: int, z: Fraction) -> Op:
    def run(tr):
        with tr.span("boson.parse"):
            w = bellhop.parse_expression(WORD_TEXT[word])
        with tr.span("boson.word_moments"):
            return bellhop.word_moments(w, nmax, bellhop.CoherentParam(z=z))

    def check(result, tr):
        want, _ = _moment_oracles(word, nmax, z)
        require(list(result) == want, f"word_moments({WORD_TEXT[word]}, {nmax}, z={z}) is wrong")

    return Op("word_moments", f"word_moments {WORD_TEXT[word]} {nmax} z={z}", run, check)


def _general_f_op(word: str, n: int, x: float, z: Fraction) -> Op:
    def run(tr):
        with tr.span("boson.parse"):
            w = bellhop.parse_expression(WORD_TEXT[word])
        with tr.span("partition_function.general_F"):
            return bellhop.general_F(w, x, bellhop.CoherentParam(z=z), n)

    def check(res, tr):
        label = f"general_F({WORD_TEXT[word]}, x={x}, z={z}, N={n})"
        moments, connected = _moment_oracles(word, n, z)
        require(list(res.w_moments) == moments, f"{label}: moments are wrong")
        require(list(res.v_sequence) == connected, f"{label}: connected moments are wrong")
        require(oracles.close(complex(res.f_value).real, oracles.egf_value(moments, x), 1e-12),
                f"{label}: F(x, z) is wrong")
        exponent = oracles.egf_value([0] + connected, x)
        require(oracles.close(complex(res.exp_form_value).real, math.exp(exponent), 1e-9),
                f"{label}: exponential form is wrong")

    return Op("general_F", f"general_F {WORD_TEXT[word]} N={n}", run, check)


def _z(rng: random.Random) -> Fraction:
    return rng.choice((Fraction(3, 4), Fraction(5, 4), Fraction(7, 4)))


def build_round(seed: int) -> list[Op]:
    rng = random.Random(seed)
    seen = _Seen()
    linear = []
    for n in LINEAR_POWERS:
        c1, c2 = gen.rational(rng), gen.rational(rng)
        linear.append(_order_op(gen.linear(c1, c2), n, seen, partial(oracles.linear_power_form, c1, c2, n)))
    cubic = [_order_op(gen.cubic(gen.rational(rng), gen.rational(rng), gen.rational(rng)), n, seen)
             for n in CUBIC_POWERS]
    singles = []
    for word, n in SINGLE_WORDS:
        c = gen.rational(rng)
        closed = partial(oracles.number_power_form, n, c**n) if word == gen.NUMBER else None
        singles.append(_order_op([(c, word)], n, seen, closed))
    moments = [_moments_op(word, n, _z(rng)) for word, n in MOMENTS]
    general = [_general_f_op(word, n, -rng.randint(100, 900) / 1000, _z(rng))
               for word, n in GENERAL_F]
    return gen.interleave([linear, cubic, singles, moments, general])
