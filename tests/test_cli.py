"""End-to-end checks of the command-line interface, driven through
``cli.main`` so exit codes and output are observed exactly as a shell
would see them."""

import contextlib
import csv
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellhop import boson, cli
from bellhop.boson import format_normal_form, normal_order, parse_expression
from bellhop.combinatorics import bell, bell_polynomial, partition_count, stirling2


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bell / stirling


def test_bell_table(capsys):
    code, out, _ = run(["bell", "6"], capsys)
    assert code == 0
    values = [line.split()[1] for line in out.strip().splitlines()[1:]]
    assert values == ["1", "1", "2", "5", "15", "52", "203"]


def test_bell_triangle_row(capsys):
    code, out, _ = run(["bell", "4", "--triangle"], capsys)
    assert code == 0
    last = out.strip().splitlines()[-1].split()
    assert last[0] == "4"
    assert last[2:] == ["0", "1", "7", "6", "1"]


def test_bell_json_format(capsys):
    code, out, _ = run(["--format", "json", "bell", "3"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[-1] == {"n": 3, "bell": 5}


def test_bell_csv_format(capsys):
    code, out, _ = run(["--format", "csv", "bell", "2"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows == [{"n": "0", "bell": "1"}, {"n": "1", "bell": "1"}, {"n": "2", "bell": "2"}]


def test_bell_negative_exit_2(capsys):
    code, out, err = run(["bell", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_stirling_single(capsys):
    code, out, _ = run(["--format", "json", "stirling", "5", "3"], capsys)
    assert code == 0
    assert json.loads(out)[0]["stirling2"] == 25


def test_stirling_600_3_in_a_fresh_process():
    # a cold S(600, 3) by the explicit sum: no recursion, no rows built
    proc = _python("import sys; from bellhop import cli; sys.exit(cli.main(sys.argv[1:]))",
                   "--format", "json", "stirling", "600", "3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0]["stirling2"] == (3**600 - 3 * 2**600 + 3) // 6


@pytest.mark.parametrize("argv", [["bell", "3000"], ["stirling", "100000", "200"],
                                  ["stirling", "12000", "12000"], ["egf", "bell", "--order", "2100"],
                                  ["egf", "exp", "--", "0"] + ["9/7"] * 1500],
                         ids=["bell", "stirling", "stirling-sum", "egf-bell", "egf-work"])
def test_unprintable_integers_exit_3_before_the_work(argv, capsys):
    # a lower bound on the digits refuses them before any row is built;
    # S(12000, 12000) = 1 prints, but its explicit sum would take 12,001
    # powers of up to 49,000 digits (69 s on 2 vCPUs), past STIRLING_SUM_LIMIT;
    # the order-1500 exp recurrence is past EGF_WORK_LIMIT
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("resource limit:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["wv", "v-to-w", "1e5000"],
    ["wv", "w-to-v", "1", "1e-5000"],
    ["egf", "exp", "0", "3/7", "1e-4400"],
], ids=["wv-numerator", "wv-denominator", "egf-denominator"])
def test_egf_and_wv_values_too_long_to_print_exit_3(argv, capsys):
    # computed at once, then refused: a numerator or denominator has more
    # digits than Python prints
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("resource limit:") and err.count("\n") == 1


@pytest.mark.parametrize("n, code", [(14000, 0), (14285, 0), (14286, 3)])
def test_stirling_near_the_printing_limit(n, code, capsys):
    # S(n, 2) = 2^(n-1) - 1 has 4300 digits at n = 14285 and 4301 at 14286,
    # which the bound k^(n-k) lets through: the computed value is refused
    got, out, err = run(["--format", "json", "stirling", str(n), "2"], capsys)
    assert got == code, err
    if code == 0:
        assert json.loads(out)[0]["stirling2"] == 2 ** (n - 1) - 1


# ---------------------------------------------------------------------------
# normal ordering


def test_normal_order_basic(capsys):
    code, out, _ = run(["normal-order", "a ad"], capsys)
    assert code == 0
    assert out.strip() == "ad a + 1"


def test_normal_order_number_operator_square(capsys):
    code, out, _ = run(["normal-order", "(ad a)^2"], capsys)
    assert code == 0
    assert out.strip() == "ad^2 a^2 + ad a"


def test_normal_order_parse_error_exit_2(capsys):
    code, out, err = run(["normal-order", "a +"], capsys)
    assert code == 2
    assert "parse error" in err


def test_normal_order_resource_limit_exit_3(capsys):
    code, _, err = run(["normal-order", "(a + ad)^49"], capsys)
    assert code == 3
    assert "resource limit" in err


def random_text(rng: random.Random, nested: bool = False) -> str:
    """A random sentence of the expression grammar, with one level of
    parentheses, so that its words stay few and short."""
    def factor():
        x = rng.random()
        if x < 0.55:
            f = rng.choice(["a", "ad"])
        elif x < 0.8 or nested:
            f = str(rng.randint(0, 9)) + rng.choice(["", "/" + str(rng.randint(1, 9))])
        else:
            f = "(" + random_text(rng, True) + ")"
        return f + rng.choice(["", "", "^2", " ^ 3", "^0"])

    def term():
        return rng.choice([" ", "*", " * "]).join(factor() for _ in range(rng.randint(1, 3)))

    out = rng.choice(["", "-", "+"]) + term()
    for _ in range(rng.randint(0, 2)):
        out += rng.choice([" + ", " - ", "-"]) + term()
    return out


def test_normal_order_matches_word_fold(capsys):
    # the CLI builds forms by Wick products; the oracle parses words and
    # folds each word (normal_order)
    rng = random.Random(41)
    texts = [random_text(rng) for _ in range(300)] + [
        "(a + ad)^12", "(2 ad - 1/3 a)^8", "(a ad + 1/2 a^2)^5", "-(ad^2 a)^4 + 3/7",
        "(ad a)^12", "(a + ad + 1)^6", "a^24 ad^24", "a ad - ad a - 1", "0 a",
    ]
    for text in texts:
        expr = parse_expression(text)
        assert expr.max_word_length() <= 2 * boson.MOMENT_LIMIT
        code, out, err = run(["normal-order", "--", text], capsys)  # '--': text may start with '-'
        assert (code, err) == (0, "")
        assert out == format_normal_form(normal_order(expr)) + "\n", text


@pytest.mark.parametrize("n", [10, 24, 40])
def test_normal_order_bch_coefficients(n, capsys):
    # e^{x(a + ad)} = e^{x ad} e^{x a} e^{x^2/2}: the coefficient of
    # ad^j a^l in (a + ad)^n is n!/(j! l! m! 2^m) with j + l + 2m = n
    code, out, _ = run(["--format", "json", "normal-order", f"(a + ad)^{n}"], capsys)
    assert code == 0
    got = {(row["r"], row["s"]): Fraction(row["coeff"]) for row in json.loads(out)}
    want = {
        (j, n - j - 2 * m): Fraction(math.factorial(n), math.factorial(j) * math.factorial(n - j - 2 * m)
                                     * math.factorial(m) * 2**m)
        for m in range(n // 2 + 1)
        for j in range(n - 2 * m + 1)
    }
    assert got == want


def test_normal_order_number_operator_40(capsys):
    code, out, _ = run(["--format", "json", "normal-order", "(ad a)^40"], capsys)
    assert code == 0
    got = {(row["r"], row["s"]): int(row["coeff"]) for row in json.loads(out)}
    assert got == {(k, k): stirling2(40, k) for k in range(1, 41)}


def test_normal_order_never_builds_words(monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("the word path was used")

    monkeypatch.setattr(boson, "normal_order", refuse)
    monkeypatch.setattr(boson, "_normal_order_word", refuse)
    for text in ["a ad", "(a + ad)^16", "(ad a)^3 - 1/2 a^2"]:
        code, out, err = run(["normal-order", text], capsys)
        assert (code, err) == (0, "") and out.count("\n") == 1


@pytest.mark.parametrize("text", ["a^10000000", "2^99999999", "(a + ad)^49", "a^48 ad^49"])
def test_normal_order_term_bound_exit_3(text, capsys):
    code, out, err = run(["normal-order", text], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:")


def test_normal_order_formats(tmp_path, capsys):
    code, out, _ = run(["--format", "json", "normal-order", "(ad a)^2 - 1/2"], capsys)
    assert code == 0
    assert json.loads(out) == [
        {"r": 2, "s": 2, "coeff": "1"}, {"r": 1, "s": 1, "coeff": "1"}, {"r": 0, "s": 0, "coeff": "-1/2"},
    ]
    code, out, _ = run(["--format", "csv", "normal-order", "a ad"], capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == [
        {"r": "1", "s": "1", "coeff": "1"}, {"r": "0", "s": "0", "coeff": "1"},
    ]
    target = tmp_path / "form.txt"
    code, out, _ = run(["--out", str(target), "normal-order", "a ad"], capsys)
    assert (code, out) == (0, "")
    assert target.read_text() == "ad a + 1\n"
    code, out, _ = run(["--format", "json", "normal-order", "a - a"], capsys)
    assert (code, json.loads(out)) == (0, [])


@pytest.mark.parametrize(
    "argv",
    [
        ["normal-order", "3/0"],
        ["wv", "w-to-v", "1", "1/0"],
        ["egf", "exp", "0", "1/0"],
        ["dobinski", "5", "--y", "1/0"],
    ],
    ids=["normal-order", "wv", "egf", "dobinski"],
)
def test_zero_denominator_exit_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(("parse error:", "error:")) and err.count("\n") == 1
    assert "denominator" in err


def test_normal_order_deep_nesting_exit_2(capsys):
    code, _, err = run(["normal-order", "(" * 3000 + "a" + ")" * 3000], capsys)
    assert code == 2
    assert err.startswith("parse error:")


# Tokens of the grammar's alphabet, and exponents up to past any bound.
_FUZZ_TOKENS = st.one_of(
    st.sampled_from(["a", "ad", "0", "1", "2", "7", "/", "+", "-", "*", "^", "(", ")", " "]),
    st.integers(0, 10**12).map(str),
)


def run_quietly(argv: list[str]) -> tuple[int, str, float]:
    """cli.main(argv) with stdout discarded: exit code, stderr and seconds."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: a usage error, or a value that looks like an option
            code = exc.code
    return code, err.getvalue(), time.perf_counter() - start


@settings(max_examples=150, deadline=None)
@given(st.lists(_FUZZ_TOKENS, max_size=16).map("".join))
def test_normal_order_fuzz(text):
    code, err, elapsed = run_quietly(["normal-order", text])
    assert code in (0, 2, 3), (text, err)
    assert "Traceback" not in err
    # the slowest texts of this size the term bound admits, such as
    # '(1+a+ad+ad a)^48', take ~21 s on a 2-vCPU machine
    assert elapsed < 60, text


# Argument tokens for the argv fuzz: malformed, or a value in a drawn range.
# Sizes past a limit are drawn where the command has one (bell, stirling and
# egf bell past the integer printing limit, stirling past its explicit-sum
# work bound, egf exp/log and wv past the EGF work limit, diagrams,
# --divergence, --max-weight); elsewhere the ranges are capped so that every
# command stays fast.
_MALFORMED = st.sampled_from(["", "x", "-", "--", "1.5", "1e3", "-1/2", "1/0", "nan", "0x10", " 3"])


def _ints(lo: int, hi: int, *past_limit: int):
    drawn = st.integers(lo, hi) if not past_limit else st.one_of(st.integers(lo, hi), st.integers(*past_limit))
    return st.one_of(drawn.map(str), _MALFORMED)


_RATIONALS = st.one_of(st.fractions(-20, 20, max_denominator=9).map(str), _MALFORMED)
_FLOATS = st.one_of(
    st.sampled_from(["0", "-1", "1e-320", "1e-6", "0.5", "2", "45", "1e6", "1e300", "inf", "nan"]),
    st.floats(-1, 1e4).map(repr),
    _MALFORMED,
)


def _options(**options) -> st.SearchStrategy[list[str]]:
    """A subset of the given options, each with a drawn value (or none, for a flag)."""
    def pairs(name, values):
        flag = "--" + name.replace("_", "-")
        return st.just([flag]) if values is None else values.map(lambda v: [flag, v])
    return st.tuples(*(st.one_of(st.just([]), pairs(n, v)) for n, v in options.items())).map(
        lambda groups: [token for group in groups for token in group])


def _values(strategy, max_size: int) -> st.SearchStrategy[list[str]]:
    # '--' first, sometimes, so that a negative fraction reads as a value;
    # then a run of one value, within the EGF work limit or past it
    run = st.tuples(strategy, st.one_of(st.integers(0, 200), st.integers(2000, 20000)))
    return st.tuples(st.sampled_from([[], ["--"]]), st.lists(strategy, max_size=max_size), run).map(
        lambda t: t[0] + t[1] + [t[2][0]] * t[2][1])


_SUBCOMMANDS = st.one_of(
    st.tuples(st.just(["bell"]), _ints(-3, 300, 3000, 10**12).map(lambda v: [v]),
              _options(triangle=None)),
    st.tuples(st.just(["stirling"]),
              st.one_of(st.tuples(_ints(-3, 300, 301, 20000), _ints(-3, 300, 301, 20000)),
                        st.tuples(st.integers(10**5, 10**12).map(str), _ints(-1, 200))).map(list)),
    st.tuples(st.just(["normal-order"]), st.lists(_FUZZ_TOKENS, max_size=8).map(lambda ts: ["".join(ts)])),
    st.tuples(st.just(["dobinski"]), _ints(-3, 60).map(lambda v: [v]),
              _options(y=_RATIONALS, k_max=_ints(-2, 200), precision=_ints(-5, 100))),
    st.tuples(st.just(["egf"]), st.sampled_from([["exp"], ["log"], ["bell"]]),
              _options(order=_ints(-3, 40, 3000, 10**12)), _values(_RATIONALS, 8)),
    st.tuples(st.just(["wv"]), st.sampled_from([["w-to-v"], ["v-to-w"]]), _values(_RATIONALS, 8)),
    st.tuples(st.just(["diagrams"]), _ints(-3, 25, 26, 10**12).map(lambda v: [v])),
    st.tuples(st.just(["partition-function", "--beta-eps"]), st.lists(_FLOATS, max_size=3),
              _options(cutoff=_FLOATS, order=_ints(-3, 120), method=st.sampled_from(["analytic", "gauss"]),
                       combinatorial=None, divergence=_ints(-3, 200, 10_001, 10**12))),
    st.tuples(st.just(["hopf-verify"]),
              _options(max_weight=_ints(-3, 4, 13, 10**12), corrupt_antipode=None)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]]),
       _SUBCOMMANDS.map(lambda parts: [token for part in parts for token in part]))
def test_every_subcommand_fuzz(options, argv):
    argv = options + argv
    code, err, elapsed = run_quietly(argv)
    # 1 only for a failed Hopf axiom, which only the injected fault gives
    allowed = (0, 1, 2, 3) if "--corrupt-antipode" in argv else (0, 2, 3)
    assert code in allowed, (argv, err)
    assert "Traceback" not in err
    assert elapsed < 30, argv


# ---------------------------------------------------------------------------
# dobinski / egf / wv / diagrams


def test_dobinski_bell_number(capsys):
    code, out, _ = run(["--format", "json", "dobinski", "5"], capsys)
    assert code == 0
    row = json.loads(out)[0]
    assert abs(float(row["value"]) - 52) < 1e-12
    assert float(row["tail_bound"]) < 1e-20


def test_dobinski_polynomial_argument(capsys):
    code, out, _ = run(["--format", "json", "dobinski", "3", "--y", "1/2"], capsys)
    assert code == 0
    row = json.loads(out)[0]
    # B_3(y) = y + 3y^2 + y^3 at y = 1/2 is 11/8
    assert abs(float(row["value"]) - 11 / 8) < 1e-12


def test_dobinski_negative_n_exit_2(capsys):
    # the Dobinski sum's first term 0 ** n divides by zero for n < 0
    code, out, err = run(["dobinski", "-1"], capsys)
    assert (code, out, err) == (2, "", "error: n must be nonnegative\n")


def test_dobinski_prints_enclosure_at_precision(capsys):
    code, out, _ = run(["--format", "json", "dobinski", "10", "--y", "2/3", "--precision", "50"], capsys)
    assert code == 0
    row = json.loads(out)[0]
    value, tail = Fraction(row["value"]), Fraction(row["tail_bound"])
    exact = bell_polynomial(10, Fraction(2, 3))
    slack = exact / 10**50
    assert value <= exact + slack
    assert exact <= value + tail + slack


def test_egf_bell(capsys):
    code, out, _ = run(["egf", "bell", "--order", "6"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == ["1", "1", "2", "5", "15", "52", "203"]


def test_egf_exp_of_x(capsys):
    code, out, _ = run(["egf", "exp", "0", "1", "0", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == ["1", "1", "1", "1"]


def test_egf_exp_rejects_nonzero_constant(capsys):
    code, _, err = run(["egf", "exp", "1", "1"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (["egf", "exp", "--", "0", "-1/2", "1"], '{"order": 2, "coefficients": ["1", "-1/2", "5/4"]}\n'),
        (["wv", "v-to-w", "--", "1", "-3/7"], "1 1 4/7\n"),
    ],
)
def test_negative_fractions_after_double_dash(argv, want, capsys):
    # argparse reads -1/2 as an unknown option; after -- it is a value
    with pytest.raises(SystemExit) as exc:
        cli.main([a for a in argv if a != "--"])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert run(argv, capsys)[:2] == (0, want)


def test_wv_roundtrip(capsys):
    code, out, _ = run(["wv", "w-to-v", "1", "1", "2", "5", "15"], capsys)
    assert code == 0
    v = out.split()
    code, out, _ = run(["wv", "v-to-w"] + v, capsys)
    assert code == 0
    assert out.split() == ["1", "1", "2", "5", "15"]


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["w-to-v", "1", "1", "2", "5", "15"], [(1, "1"), (2, "1"), (3, "1"), (4, "1")]),
        (["v-to-w", "2", "2"], [(0, "1"), (1, "2"), (2, "6")]),
    ],
)
def test_wv_formats(argv, rows, tmp_path, capsys):
    code, out, _ = run(["--format", "json", "wv"] + argv, capsys)
    assert code == 0
    assert json.loads(out) == [{"index": i, "value": v} for i, v in rows]
    code, out, _ = run(["--format", "csv", "wv"] + argv, capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == [{"index": str(i), "value": v} for i, v in rows]
    target = tmp_path / "wv.txt"
    code, out, _ = run(["--out", str(target), "wv"] + argv, capsys)
    assert (code, out) == (0, "")
    assert target.read_text() == " ".join(v for _, v in rows) + "\n"


def test_diagrams_n3(capsys):
    code, out, _ = run(["--format", "json", "diagrams", "3"], capsys)
    assert code == 0
    rows = {r["monomial"]: r["multiplicity"] for r in json.loads(out)}
    assert rows == {"y3": 1, "y1*y2": 3, "y1^3": 1}


def test_diagrams_15_runs(capsys):
    code, out, _ = run(["--format", "json", "diagrams", "15"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert sum(r["multiplicity"] for r in rows) == bell(15)
    assert len(rows) == partition_count(15)


def test_diagrams_resource_limit(capsys):
    code, _, err = run(["diagrams", "30"], capsys)
    assert code == 3
    assert "resource limit" in err


# ---------------------------------------------------------------------------
# partition function


def test_partition_function_table(capsys):
    code, out, _ = run(
        ["--format", "json", "partition-function", "--beta-eps", "0.6931471805599453",
         "--cutoff", "45.0"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    methods = [r["method"] for r in rows]
    assert methods == ["closed_form", "regularized_analytic", "regularized_series"]
    assert abs(float(rows[0]["value"]) - 2.0) < 1e-12
    for r in rows[1:]:
        assert float(r["abs_error_vs_closed_form"]) < 1e-6


def test_partition_function_divergence(capsys):
    code, out, _ = run(
        ["--format", "json", "partition-function", "--beta-eps", "1.0", "--divergence", "3"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    values = [abs(float(r["value"])) for r in rows]
    assert values == sorted(values)
    assert values[-1] > 1e10


def test_partition_function_divergence_past_the_float_range(capsys):
    # past the float range a term rounds to an infinity; it does not overflow
    code, out, _ = run(["--format", "json", "partition-function", "--beta-eps", "1",
                        "--divergence", "77"], capsys)
    assert code == 0
    assert [float(r["value"]) for r in json.loads(out)][-1] == pytest.approx(-4.051192121777616e181)
    code, out, _ = run(["--format", "json", "partition-function", "--beta-eps", "1",
                        "--divergence", "200"], capsys)
    assert code == 0
    assert json.loads(out)[-1]["value"] == "inf"
    code, out, err = run(["partition-function", "--beta-eps", "1", "--divergence", "10001"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:")


def test_partition_function_combinatorial_small_cutoff(capsys):
    code, out, _ = run(
        ["--format", "json", "partition-function", "--beta-eps", "1.0",
         "--cutoff", "4.0", "--order", "60", "--combinatorial"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    comb = next(r for r in rows if r["method"] == "combinatorial")
    reg = next(r for r in rows if r["method"] == "regularized_analytic")
    assert abs(float(comb["value"]) - float(reg["value"])) < 1e-8


@pytest.mark.parametrize("cutoff", ["1e3", "1e6", "1e9"])
def test_partition_function_gauss_large_cutoffs(cutoff, capsys):
    code, out, err = run(
        ["--format", "json", "partition-function", "--beta-eps", "0.05", "1", "5",
         "--cutoff", cutoff, "--method", "gauss"],
        capsys,
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)
    closed = {r["beta_epsilon"]: float(r["value"]) for r in rows if r["method"] == "closed_form"}
    gauss = {r["beta_epsilon"]: float(r["value"]) for r in rows if r["method"] == "regularized_gauss"}
    assert sorted(gauss) == sorted(closed) == ["0.05", "1.0", "5.0"]
    for be, value in gauss.items():
        assert abs(value - closed[be]) < 1e-10, be


def test_partition_function_series_is_exact(capsys):
    # README's command: at beta eps = 2 the terms reach ~10^15 (alpha M ~ 39),
    # so a float sum of them would lose every digit of a value near 1
    code, out, err = run(
        ["--format", "json", "partition-function", "--beta-eps", "0.5", "1", "2",
         "--cutoff", "45", "--method", "gauss"],
        capsys,
    )
    assert (code, err) == (0, "")
    series = [r for r in json.loads(out) if r["method"] == "regularized_series"]
    assert [r["beta_epsilon"] for r in series] == ["0.5", "1.0", "2.0"]
    for r in series:
        alpha = -math.expm1(-float(r["beta_epsilon"]))
        want = -math.expm1(-alpha * 45.0) / alpha
        assert abs(float(r["value"]) - want) <= 1e-15 * want, r


def test_partition_function_gauss_estimate_is_relative(capsys):
    # Z ~ 1e6: an absolute 1e-10 would be below the rounding of the value
    code, out, err = run(
        ["--format", "json", "partition-function", "--beta-eps", "1e-6", "--cutoff", "1e9",
         "--method", "gauss"],
        capsys,
    )
    assert (code, err) == (0, "")
    (gauss,) = [r for r in json.loads(out) if r["method"] == "regularized_gauss"]
    alpha = -math.expm1(-1e-6)
    want = -math.expm1(-alpha * 1e9) / alpha
    assert abs(float(gauss["value"]) - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# hopf-verify


def test_hopf_verify_ok(capsys):
    code, out, _ = run(["hopf-verify", "--max-weight", "4"], capsys)
    assert code == 0
    assert "all axioms pass" in out
    assert "antipode" in out


def test_hopf_verify_corrupted_antipode_exit_1(capsys):
    code, out, _ = run(["hopf-verify", "--max-weight", "4", "--corrupt-antipode"], capsys)
    assert code == 1
    assert "all axioms pass" not in out


HOPF_CASES_W3 = [("coassociativity", 7), ("counit", 7), ("antipode", 7), ("bialgebra", 100),
                 ("commutativity", 100), ("cocommutativity", 7)]


def test_hopf_verify_formats(tmp_path, capsys):
    code, out, _ = run(["--format", "json", "hopf-verify", "--max-weight", "3"], capsys)
    assert code == 0
    assert json.loads(out) == [{"axiom": a, "ok": True, "cases": n} for a, n in HOPF_CASES_W3]
    code, out, _ = run(["--format", "csv", "hopf-verify", "--max-weight", "3"], capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == [
        {"axiom": a, "ok": "True", "cases": str(n)} for a, n in HOPF_CASES_W3
    ]
    target = tmp_path / "hopf.txt"
    code, out, _ = run(["--out", str(target), "hopf-verify", "--max-weight", "3"], capsys)
    assert (code, out) == (0, "")
    assert target.read_text() == "".join(f"{a}: pass ({n} cases)\n" for a, n in HOPF_CASES_W3) + "all axioms pass\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_hopf_verify_corrupted_antipode_formats_exit_1(fmt, tmp_path, capsys):
    target = tmp_path / f"hopf.{fmt}"
    code, out, _ = run(["--format", fmt, "--out", str(target), "hopf-verify", "--max-weight", "3",
                        "--corrupt-antipode"], capsys)
    assert (code, out) == (1, "")
    text = target.read_text()
    rows = json.loads(text) if fmt == "json" else list(csv.DictReader(io.StringIO(text)))
    failed = [r["axiom"] for r in rows if r["ok"] in (False, "False")]
    assert failed == ["antipode"]


def test_hopf_verify_negative_weight_exit_2(capsys):
    code, out, err = run(["hopf-verify", "--max-weight", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_hopf_verify_weight_limit_exit_3(capsys):
    start = time.perf_counter()
    code, out, err = run(["hopf-verify", "--max-weight", "13"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "resource limit: basis of weight 13 exceeds the limit 12\n"


# ---------------------------------------------------------------------------
# plumbing


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "bell.json"
    code, out, _ = run(["--format", "json", "--out", str(target), "bell", "3"], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[-1]["bell"] == 5


def test_out_missing_directory_exit_2(tmp_path, capsys):
    code, out, err = run(["--out", str(tmp_path / "missing" / "x"), "bell", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_determinism_byte_identical(capsys):
    argvs = [
        ["--format", "json", "bell", "8", "--triangle"],
        ["--format", "csv", "diagrams", "5"],
        ["hopf-verify", "--max-weight", "4"],
        ["--format", "json", "partition-function", "--beta-eps", "0.5", "--method", "gauss"],
    ]
    for argv in argvs:
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second


# ---------------------------------------------------------------------------
# third-party imports

ROOT = Path(__file__).resolve().parents[1]


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_loads_neither_numpy_nor_mpmath():
    proc = _python("import sys, bellhop.cli; print(sorted({'numpy', 'mpmath'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# the names bellhop exported before its submodules were loaded lazily
EXPORTS = {
    "combinatorics": ["DiagramCensus", "SetPartition", "bell", "bell_polynomial", "diagram_census",
                      "dobinski_bell", "dobinski_bell_poly", "enumerate_set_partitions",
                      "partition_count", "stirling2"],
    "boson": ["BosonExpression", "CoherentParam", "NormalOrderedForm", "coherent_expectation",
              "forgetful_normal_order", "normal_order", "parse_expression", "stirling_via_ordering",
              "word_moments"],
    "egf": ["EGFSeries", "bell_egf", "egf_exp", "egf_log", "egf_mul", "v_to_w", "w_to_v"],
    "partition_function": ["ModelParams", "QuadratureConfig", "closed_form_Z", "combinatorial_Z",
                           "general_F", "integrand", "regularized_Z", "regularized_series_Z",
                           "termwise_partial"],
    "hopf": ["HopfElement", "Monomial", "TensorElement", "antipode", "code_diagram", "coproduct",
             "counit", "parse_element", "poly_specialize", "product", "run_all_checks"],
    "errors": ["ExpressionParseError", "QuadratureError", "ResourceLimitError"],
}


def test_import_loads_no_submodule():
    proc = _python("import sys, bellhop; print(sorted(m for m in sys.modules if m.startswith('bellhop'))); "
                   "print(bellhop.hopf.Monomial is bellhop.Monomial)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['bellhop']\nTrue\n"  # a submodule is an attribute, as before


def test_package_exports_every_name_once_loaded():
    import importlib

    import bellhop

    assert sorted(bellhop.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"bellhop.{module}")
        assert getattr(bellhop, module) is home
        for name in names:
            assert getattr(bellhop, name) is getattr(home, name), name
            assert name in dir(bellhop)
    assert bellhop.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bellhop.no_such_name
    with pytest.raises(ImportError):
        from bellhop import no_such_name  # noqa: F401


def test_star_import_in_a_fresh_process():
    proc = _python("ns = {}; exec('from bellhop import *', ns); "
                   "print(sorted(n for n in ns if n != '__builtins__'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str(sorted(n for names in EXPORTS.values() for n in names)) + "\n"


_LOADED = """
import sys
from bellhop import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
loaded = {m for m in sys.modules if m.startswith("bellhop.")} - {"bellhop.cli", "bellhop.errors"}
sys.stderr.write(" ".join(sorted(m.split(".")[1] for m in loaded)))
sys.exit(code)
"""


# each subcommand and the bellhop modules it loads besides cli and errors
_LOADS = [
    (["bell", "5", "--triangle"], "combinatorics"),
    (["--format", "json", "stirling", "5", "2"], "combinatorics"),
    (["--format", "csv", "dobinski", "5"], "combinatorics"),
    (["normal-order", "(ad a)^2"], "boson lincomb"),
    (["--format", "json", "hopf-verify", "--max-weight", "2"], "hopf lincomb"),
    (["partition-function", "--beta-eps", "1", "--combinatorial", "--order", "10"],
     "combinatorics partition_function"),
    (["egf", "bell"], "combinatorics egf"),
    (["wv", "w-to-v", "1", "2"], "combinatorics egf"),
    (["diagrams", "4"], "combinatorics hopf lincomb"),
]


@pytest.mark.parametrize("argv, modules", _LOADS,
                         ids=[argv[2] if argv[0] == "--format" else argv[0] for argv, _ in _LOADS])
def test_each_subcommand_loads_only_its_modules(argv, modules):
    proc = _python(_LOADED, *argv)
    assert proc.returncode == 0
    assert proc.stderr == modules


def readme_commands() -> list[list[str]]:
    """The argv of every `bellhop ...` line in README's command-line block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bellhop ")]


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from bellhop import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write("mpmath loaded" if "mpmath" in sys.modules else "")
sys.exit(code)
"""


def _readme_id(argv: list[str]) -> str:
    """The command name, marked when `--` ends the options (values that start with `-`)."""
    return argv[0] + ("-dashdash" if "--" in argv else "")


@pytest.mark.parametrize("argv", readme_commands(), ids=_readme_id)
def test_readme_commands_run_without_numpy(argv, capsys):
    proc = _python(_NO_NUMPY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("mpmath loaded" if argv[0] == "dobinski" else "")
    code, out, _ = run(argv, capsys)
    assert (code, proc.stdout) == (0, out)
