"""Tests of the benchmark itself: its oracles against known values, one
mutation per checker (a flipped coefficient must be rejected), and the
rule that the benchmark uses only bellhop's public names.

Run from the root of the checkout:  python3 -m pytest perfbench/tests
"""

import ast
import contextlib
import dataclasses
import io
import os
import resource
import shutil
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import gen
import harness
import oracles
import run
import workload_algebra
import workload_cli
import workload_ordering
from harness import Failed, NullTracer, Sample, quantile
from oracles import Mismatch

from conftest import BENCH, ROOT

NULL = NullTracer()


# --------------------------------------------------------------------------
# oracles against known values
# --------------------------------------------------------------------------


def test_bell_numbers_match_oeis_a000110():
    assert oracles.bell_numbers(10) == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_stirling_and_touchard_small_values():
    assert [oracles.stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert oracles.stirling2(0, 0) == 1
    assert oracles.touchard(3, Fraction(2)) == 2 + 3 * 4 + 8
    assert sum(oracles.stirling2(10, k) for k in range(11)) == 115975


def test_census_of_three():
    counts = {p: oracles.census_multiplicity(p) for p in oracles.integer_partitions(3)}
    assert counts == {(1, 1, 1): 1, (1, 2): 3, (3,): 1}
    oracles.check_census(3, counts)


def test_census_totals_are_bell_numbers():
    for n in range(1, 9):
        assert sum(oracles.census_multiplicity(p) for p in oracles.integer_partitions(n)) == oracles.bell_numbers(n)[n]


def test_a_plus_ad_squared():
    want = {(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): 1}  # ad^2 + 2 ad a + a^2 + 1
    assert oracles.linear_power_form(Fraction(1), Fraction(1), 2) == want
    oracles.check_normal_form(gen.linear(Fraction(1), Fraction(1)), 2, want, "(ad + a)^2")
    assert oracles.parse_normal_form("ad^2 + 2 ad a + a^2 + 1") == want


def test_number_operator_power_has_stirling_diagonal():
    form = oracles.number_power_form(4)
    assert form == {(1, 1): 1, (2, 2): 7, (3, 3): 6, (4, 4): 1}
    oracles.check_normal_form([(Fraction(1), gen.NUMBER)], 4, form, "(ad a)^4")


def test_parse_normal_form_signs_and_fractions():
    assert oracles.parse_normal_form("-3/2 ad^2 a - a + 7") == {(2, 1): Fraction(-3, 2), (0, 1): -1, (0, 0): 7}
    assert oracles.parse_normal_form("0") == {}


def test_gaussian_and_touchard_moments():
    assert oracles.quadrature_moments(4, Fraction(0)) == [1, 0, 1, 0, 3]
    assert oracles.number_moments(3, Fraction(1)) == [1, 1, 2, 5]


def test_coproduct_of_y1_squared():
    assert oracles.coproduct_monomial((1, 1)) == {((), (1, 1)): 1, ((1,), (1,)): 2, ((1, 1), ()): 1}


def test_regularized_z_against_a_midpoint_sum():
    beta, eps, cutoff = 1.0, 0.5, 7.0
    alpha = 1 - 2.718281828459045 ** -0.5
    steps = 200000
    h = cutoff / steps
    midpoint = sum(2.718281828459045 ** (-alpha * (i + 0.5) * h) for i in range(steps)) * h
    assert oracles.close(oracles.regularized_Z(beta, eps, cutoff), midpoint, 1e-9)


def test_quantile_and_normalisation():
    assert quantile([1, 2, 3, 4, 5], 0.5) == 3
    assert quantile([0, 10], 0.9) == 9
    sample = Sample(0.2, 0.004, 0.006, 0.005)
    assert sample.norm_s == pytest.approx(0.2)


# --------------------------------------------------------------------------
# one mutation per checker
# --------------------------------------------------------------------------


def flip(value):
    return value + 1


def test_census_checker_rejects_a_flipped_multiplicity():
    counts = {p: oracles.census_multiplicity(p) for p in oracles.integer_partitions(5)}
    counts[(1, 4)] = flip(counts[(1, 4)])
    with pytest.raises(Mismatch):
        oracles.check_census(5, counts)


def test_normal_form_checker_rejects_a_flipped_coefficient():
    terms = gen.cubic(Fraction(2), Fraction(-1, 3), Fraction(5, 7))
    op = workload_ordering._order_op(terms, 3, workload_ordering._Seen())
    expr, form, printed = op.run(NULL)
    op.check((expr, form, printed), NULL)
    key = next(iter(form.terms))
    form.terms[key] = flip(form.terms[key])
    with pytest.raises(Mismatch):
        op.check((expr, form, printed), NULL)


def test_dobinski_checker_rejects_a_shifted_value():
    op = workload_algebra._dobinski_op(12, Fraction(3, 2), 60, 40)
    res = op.run(NULL)
    op.check(res, NULL)
    with mpmath.workdps(80):
        bumped = dataclasses.replace(res, value=res.value + res.tail_bound + res.value * mpmath.mpf(10) ** -35)
    with pytest.raises(Mismatch):
        op.check(bumped, NULL)


def test_coproduct_checker_rejects_a_flipped_coefficient():
    op = workload_algebra._coproduct_op({(1, 1, 2): Fraction(3), (4,): Fraction(-1, 2)})
    delta, s = op.run(NULL)
    op.check((delta, s), NULL)
    key = next(iter(delta.terms))
    delta.terms[key] = flip(delta.terms[key])
    with pytest.raises(Mismatch):
        op.check((delta, s), NULL)


def test_egf_checker_rejects_a_flipped_coefficient():
    op = workload_algebra._egf_ops(12, Fraction(3, 2))[1]  # egf_exp
    series = op.run(NULL)
    op.check(series, NULL)
    coeffs = list(series.coeffs)
    coeffs[5] = flip(coeffs[5])
    with pytest.raises(Mismatch):
        op.check(coeffs, NULL)


def test_moments_checker_rejects_a_flipped_moment():
    op = workload_ordering._moments_op("quadrature", 6, Fraction(3, 4))
    moments = op.run(NULL)
    op.check(moments, NULL)
    moments[3] = flip(moments[3])
    with pytest.raises(Mismatch):
        op.check(moments, NULL)


def test_partition_function_checker_rejects_a_shifted_value():
    op = workload_algebra._combinatorial_op(1.0, 0.3, 8.0, 40)
    value = op.run(NULL)
    op.check(value, NULL)
    with pytest.raises(Mismatch):
        op.check(value * (1 + 1e-6), NULL)


def cli_output(command):
    from bellhop import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(command.argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("make, old, new", [
    (lambda: workload_cli._bell(8, True, "plain"), "4140", "4141"),
    (lambda: workload_cli._diagrams(5, "json"), '"multiplicity":10', '"multiplicity":11'),
    (lambda: workload_cli._normal_order(gen.linear(Fraction(2), Fraction(-3)), 4), "24", "25"),
    (lambda: workload_cli._wv_v_to_w(6, Fraction(1, 2)), "1/2", "3/2"),
    (lambda: workload_cli._partition_function([0.7, 1.3], 12.0, "csv"), ",closed_form,,,", ",closed_form,,,1"),
    (lambda: workload_cli._hopf_verify(1), "bialgebra: pass (100", "bialgebra: pass (101"),
    (lambda: workload_cli._dobinski(12, Fraction(1), 40, "csv"), "4213597", "4213598"),
])
def test_cli_checkers_reject_a_changed_output(make, old, new):
    command = make()
    out = cli_output(command)
    command.check_output(out)
    assert old in out
    with pytest.raises(Mismatch):
        command.check_output(out.replace(old, new, 1))


def test_dobinski_printed_at_15_digits_counts_as_failed():
    # bellhop prints 15 significant digits whatever --precision is
    command = workload_cli._dobinski(10, Fraction(2, 3), 50, "plain")
    with pytest.raises(Failed, match="15 significant digits"):
        command.check_output(cli_output(command))


def test_cli_peak_rss_is_the_largest_bellhop_child(monkeypatch):
    # a reference process far larger than any bellhop child must not count
    def big_reference():
        subprocess.run([sys.executable, "-c", "b = b'x' * (96 << 20)"], check=True)
        return 0.25

    children = []

    def recording(run):
        def wrapped(tr):
            children.append(run(tr))
            return children[-1]
        return wrapped

    monkeypatch.setattr(harness, "reference_process", big_reference)
    monkeypatch.setattr(workload_cli, "_children_peak_mib", 0.0)
    ops = [dataclasses.replace(op, run=recording(op.run)) for op in workload_cli.build_round(1)[:2]]
    log = run.Log()
    run.run_round(ops, 0, workload_cli.PROCESS_GROUP, NULL, NULL, log)
    assert log.attempted == 2 and log.failed == 0 and not log.mismatches
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 > 96
    assert workload_cli.peak_rss_mib() == max(c.peak_rss_mib for c in children) < 96


def test_read_rows_keeps_empty_plain_columns():
    command = workload_cli._partition_function([0.5], 10.0, "plain")
    rows = workload_cli.read_rows(cli_output(command), "plain")
    assert rows[0]["method"] == "closed_form" and rows[0]["M"] == "" and rows[0]["N"] == ""
    assert rows[2]["N"] == "200"


# --------------------------------------------------------------------------
# the benchmark uses only bellhop's public names
# --------------------------------------------------------------------------


def benchmark_sources():
    for folder, _, files in os.walk(BENCH):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def test_no_underscore_name_from_bellhop():
    for path in benchmark_sources():
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bellhop"):
                assert not any(part.startswith("_") for part in node.module.split(".")), path
                for alias in node.names:
                    assert not alias.name.startswith("_"), f"{path}: {alias.name}"
                    bound.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("bellhop"):
                        assert not any(p.startswith("_") for p in alias.name.split(".")), path
                        bound.add((alias.asname or alias.name).split(".")[0])
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                assert not node.attr.startswith("_"), f"{path}: {node.value.id}.{node.attr}"


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
