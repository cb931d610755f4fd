"""The shared helpers in bellhop.errors: the one exact evaluator and the
refusals that name an argument too long to print."""

import math
import random
import time
from fractions import Fraction

import pytest

from bellhop import boson, combinatorics, dobinski, egf, hopf
from bellhop import partition_function as pf
from bellhop.errors import ResourceLimitError, _horner, _polynomial_at

HUGE = 10**5000  # past the 4,300 digits Python prints an int with


def _cases(seed: int):
    """(pairs, scale, y): degrees from a random lowest one up, gaps and
    repeats included, then a single degree (low == top) and no pairs."""
    rng = random.Random(seed)
    cases = []
    for _ in range(60):
        low = rng.randint(0, 30)
        degrees = [rng.randint(low, low + rng.randint(0, 25)) for _ in range(rng.randint(1, 12))]
        pairs = [(d, rng.randint(-10**6, 10**6)) for d in [low, *degrees]]
        y = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        cases.append((pairs, rng.randint(1, 10**4), y))
    cases += [([(7, 3)], 5, Fraction(-2, 3)), ([(0, 4)], 1, Fraction(5, 7)), ([], 3, Fraction(1, 2))]
    return cases


@pytest.mark.parametrize("egf", [False, True], ids=["plain", "egf"])
def test_polynomial_at_matches_the_term_by_term_sum(egf):
    # _polynomial_at sums plainly; the EGF sum is _horner's pair, put over scale here
    for pairs, scale, y in _cases(30):
        if egf:
            numerator, denominator = _horner(pairs, y, egf=True)
            got = Fraction(numerator, scale * denominator)
        else:
            got = _polynomial_at(pairs, scale, y)
        want = sum((Fraction(n) * y**d / (math.factorial(d) if egf else 1) for d, n in pairs), Fraction(0))
        assert (got, type(got)) == (want / scale, Fraction), (pairs, scale, y)


P = pf.ModelParams(1.0, 0.05)


@pytest.mark.parametrize("call", [
    lambda: dobinski.dobinski_bell_poly(5, HUGE, 40),
    lambda: dobinski.dobinski_bell(HUGE, 40),
    lambda: dobinski.dobinski_bell_poly(5, 1, 40, HUGE),
    lambda: pf.regularized_series_Z(P, 20.0, HUGE),
    lambda: pf.combinatorial_Z(P, 20.0, HUGE),
    lambda: pf.termwise_partial(HUGE, P, 10.0),
    lambda: combinatorics.stirling2(HUGE, 3),
    lambda: combinatorics.bell(HUGE),
    lambda: egf.bell_egf(HUGE),
    lambda: combinatorics.bell_polynomial(HUGE, 1),
    lambda: combinatorics.diagram_census(HUGE),
    lambda: list(combinatorics.enumerate_set_partitions(HUGE)),
    lambda: combinatorics.partition_count(HUGE),
    lambda: hopf.basis_monomials(HUGE),
    lambda: boson.word_moments(boson.number_word(), HUGE, 1),
    lambda: boson.BosonExpression.parse("2") ** HUGE,
], ids=["dobinski-y", "dobinski-n", "dobinski-precision", "series-Z", "combinatorial-Z", "termwise",
        "stirling2", "bell", "bell-egf", "bell-polynomial", "census", "enumeration",
        "partition-count", "basis", "moments", "power"])
def test_a_refused_argument_too_long_to_print_is_named_by_its_size(call):
    # the refusal's own message once printed the argument, which raised
    # ValueError (exit 2 at the command line) instead of ResourceLimitError
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"~10\^5000") as refusal:
        call()
    assert time.perf_counter() - start < 1.0
    assert len(str(refusal.value)) < 200
