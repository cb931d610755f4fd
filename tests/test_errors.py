"""The shared helpers in bellhop.errors: the one exact evaluator, the one
reading of a size, and the refusals that name an argument too long to
print."""

import ast
import math
import pathlib
import random
import sys
import time
from fractions import Fraction

import pytest

import bellhop
from bellhop import boson, cli, combinatorics, dobinski, egf, enclosure, hopf
from bellhop import partition_function as pf
from bellhop.combinatorics import Monomial, SetPartition
from bellhop.errors import ResourceLimitError, _horner, _polynomial_at, int_digits_limit

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


# --------------------------------------------------------------------------
# One rule for sizes: errors.size reads every count, order and exponent


ROWS_698 = "Stirling rows 0..698 take 1.08e+09 bits, past 1073741824"
SERIES_400 = "a series of order ~10^400 takes inf bits, past 1073741824"

# (the function whose size errors.size reads, a call on that size, the
# size's name in a refusal, a size past its limit or None, and the text the
# refusal has there)
SIZES = [
    ("combinatorics.stirling2", lambda v: combinatorics.stirling2(v, 3), "n", 10**400,
     "S(~10^400, 3) by the explicit sum needs inf digits of powers, past the limit 1500000"),
    ("combinatorics.stirling2", lambda v: combinatorics.stirling2(5, v), "k", None, None),
    ("combinatorics.bell", combinatorics.bell, "n", 698, ROWS_698),
    ("combinatorics.bell_polynomial", lambda v: combinatorics.bell_polynomial(v, 1), "n", 698, ROWS_698),
    ("combinatorics.partition_count", combinatorics.partition_count, "n", 40_001,
     "partition count for n=40001 exceeds the limit 40000"),
    ("combinatorics.enumerate_set_partitions", combinatorics.enumerate_set_partitions, "n", 15,
     "set-partition enumeration for n=15 exceeds the limit 14"),
    ("combinatorics.diagram_census", combinatorics.diagram_census, "n", 26,
     "diagram census for n=26 exceeds the limit 25"),
    ("boson.stirling_via_ordering", boson.stirling_via_ordering, "n", 25,
     "word of length 50 exceeds the ordering limit 48"),
    ("boson.word_moments", lambda v: boson.word_moments(boson.number_word(), v, 1), "nmax", 25,
     "moment order 25 exceeds the limit 24"),
    ("lincomb.LinearCombination.__pow__", lambda v: boson.BosonExpression.parse("2") ** v, "exponent", 10**400,
     f"power ~10^400 has coefficients of ~inf digits, over the {int_digits_limit()} digits an integer prints with"),
    ("enclosure._dobinski_fixed", lambda v: enclosure._dobinski_fixed(v, 1, 10, 50), "n", 10**400, SERIES_400),
    ("partition_function._check_series_args", lambda v: pf.regularized_series_Z(P, 20.0, v), "N", 10**400,
     SERIES_400),
    ("partition_function._check_series_args", lambda v: pf.combinatorial_Z(P, 20.0, v), "N", 10**400, SERIES_400),
    ("partition_function._termwise_exact", lambda v: pf.termwise_partial(v, P, 10.0), "n", 10_001,
     "divergence term n=10001 exceeds the limit 10000"),
    ("egf.bell_egf", egf.bell_egf, "order", 698, ROWS_698),
    ("egf.EGFSeries.identity", egf.EGFSeries.identity, "order", None, None),
    ("egf.EGFSeries.zero", egf.EGFSeries.zero, "order", None, None),
    ("hopf.basis_monomials", hopf.basis_monomials, "max_weight", 13, "basis of weight 13 exceeds the limit 12"),
]


def _refused(call, value, error):
    """The exception call(value) raises, within a second and with no Stirling row built."""
    rows, start = len(combinatorics._STIRLING_ROWS), time.perf_counter()
    with pytest.raises(error) as refusal:
        call(value)
    assert time.perf_counter() - start < 1.0
    assert len(combinatorics._STIRLING_ROWS) == rows
    return refusal.value


@pytest.mark.skipif(int_digits_limit() == 0, reason="a power's refusal needs the integer printing limit")
@pytest.mark.parametrize("reads, call, name, past, text", SIZES,
                         ids=[f"{row[0].rsplit('.', 1)[-1]}-{row[2]}-{i}" for i, row in enumerate(SIZES)])
def test_every_size_is_read_by_one_rule(reads, call, name, past, text):
    assert str(_refused(call, -1, ValueError)) == f"{name} must be nonnegative"
    for value in (2.5, "3"):
        _refused(call, value, TypeError)
    if past is not None:
        assert str(_refused(call, past, ResourceLimitError)) == text


def _size_readers() -> set[str]:
    """module.qualname of every function in bellhop whose own body calls size()."""
    found = set()

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = path + [child.name]
                # a nested function's call counts for the function it is defined in
                visit(child, inner, function or (".".join(inner) if isinstance(child, ast.FunctionDef) else None))
            else:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                        and child.func.id == "size" and function):
                    found.add(function)
                visit(child, path, function)

    for source in pathlib.Path(bellhop.__file__).parent.glob("*.py"):
        visit(ast.parse(source.read_text()), [source.stem], None)
    return found


def test_every_function_that_reads_a_size_has_a_row():
    assert _size_readers() == {row[0] for row in SIZES}


def test_the_empty_set_is_a_size_like_any_other():
    census = combinatorics.diagram_census(0)
    assert census.counts == {Monomial(): 1}
    assert list(combinatorics.enumerate_set_partitions(0)) == [SetPartition(0, ())]
    assert boson.stirling_via_ordering(0) == ()
    assert hopf.code_diagram(SetPartition(0, ())) == hopf.UNIT
    assert census.total() == combinatorics.bell(0) == combinatorics.partition_count(0) == 1


@pytest.mark.parametrize("fmt, text", [("plain", "monomial  multiplicity\n1         1\n"),
                                       ("csv", "monomial,multiplicity\n1,1\n"),
                                       ("json", '[{"monomial":"1","multiplicity":1}]\n')])
def test_diagrams_of_the_empty_set(fmt, text, capsys):
    assert cli.main(["--format", fmt, "diagrams", "0"]) == 0
    assert capsys.readouterr() == (text, "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no printing limit")
def test_an_interpreter_with_no_printing_limit(capsys):
    # Python 3.10.0-3.10.6 have neither sys.get_int_max_str_digits nor its
    # setter: with both deleted and the limit lifted, every path that reads
    # or lifts the limit must run as on those interpreters
    limit, getter, setter = int_digits_limit(), sys.get_int_max_str_digits, sys.set_int_max_str_digits
    setter(4300)
    try:
        assert cli.main(["stirling", "20000", "3"]) == 3
        capsys.readouterr()
        setter(0)
        del sys.get_int_max_str_digits, sys.set_int_max_str_digits
        assert int_digits_limit() == 0
        assert cli.main(["stirling", "20000", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.split()[-1]) == 9_542
        man = 1234567890 * (10**5000 - 1) // (10**10 - 1) * 10 + 1  # the digits 1234567890 500 times, then 1
        assert enclosure._nstr(man, 0, 5001) == "1234567890" * 500 + "1.0"
        power = hopf.parse_element("(2 y1)^20000")
        assert len(str(power.terms[Monomial((1,) * 20000)])) == 6_021
        assert hopf.parse_element("7" * 5000 + " y2").terms == {Monomial((2,)): int("7" * 5000)}
        sys.get_int_max_str_digits, sys.set_int_max_str_digits = getter, setter
        setter(4300)
        assert int_digits_limit() == 4300
    finally:
        sys.get_int_max_str_digits, sys.set_int_max_str_digits = getter, setter
        setter(limit)
