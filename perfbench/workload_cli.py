"""`cli`: the README's commands as fresh `bellhop` processes.

Each operation starts `python -m bellhop.cli` with src on the path (no
console script is installed), one child at a time, with seeded small
arguments and output in plain, csv and json. Interpreter start, `import
bellhop`, argparse and output formatting dominate; compute is small and
every cache starts cold, so this is the only workload where import-time
work shows and where no in-process cache helps. Heavy commands such as
`hopf-verify --max-weight 6` stay out, so that no cluster of slow commands
sits at the p50 or p90 rank.

Two fixed commands are in every round and fail every time at this
revision, each counted as failed with its reason:
- `stirling 600 3`: the cold Stirling row recursion raises RecursionError,
  and the process exits 1 with a traceback. Once it succeeds it is checked
  against S(600, 3) = (3^600 - 3 * 2^600 + 3) / 6.
- `dobinski 10 --y 2/3 --precision 50`: bellhop prints `value` and
  `tail_bound` with 15 significant digits whatever --precision is, so the
  printed pair does not enclose B_10(2/3) at 50 digits. Every dobinski
  output is checked at the precision it was asked for.

Set-up imports `bellhop.cli` once, as the first command must, so that a
change to import time moves `setup_s` here as on the other workloads.
`peak_rss_mb` is the largest peak RSS of a bellhop child, each child's own
(wait4), so the reference processes never count.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import sys
import time
from fractions import Fraction

from bellhop import cli  # set-up loads the program once, as the first command must

import gen
import harness
import oracles
from harness import Failed, Op
from oracles import Mismatch, require

ROUNDS_MIN = 5  # 20 successful commands a round: at least 100 per run
NOMINAL_ROUND_S = 7.0  # one round at reference speed, checks included
PROCESS_GROUP = 3  # commands between two process references
FORMATS = ("plain", "csv", "json")


def read_rows(text: str, fmt: str) -> list[dict[str, str]]:
    """The rows bellhop's table output holds, every value as a string."""
    if fmt == "json":
        return [{k: str(v) for k, v in row.items()} for row in json.loads(text)]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    # plain: left-justified columns; cut each line at the header's offsets
    lines = text.rstrip("\n").split("\n")
    names = lines[0].split()
    starts = []
    for name in names:
        starts.append(lines[0].index(name, starts[-1] if starts else 0))
    bounds = list(zip(starts, starts[1:] + [None]))
    return [{name: line[a:b].strip() for name, (a, b) in zip(names, bounds)} for line in lines[1:]]


class Command:
    """One bellhop invocation and the checks on what it prints."""

    def __init__(self, kind: str, argv: list[str], fmt: str | None, check):
        self.kind = kind
        self.argv = (["--format", fmt] if fmt else []) + [kind] + argv
        self.check_output = check


def _bell(n: int, triangle: bool, fmt: str) -> Command:
    def check(out):
        rows = read_rows(out, fmt)
        bells = oracles.bell_numbers(n)
        require([r["n"] for r in rows] == [str(i) for i in range(n + 1)], "bell: wrong rows")
        require([r["bell"] for r in rows] == [str(b) for b in bells], "bell: wrong Bell numbers")
        if triangle:
            for i, r in enumerate(rows):
                want = " ".join(str(oracles.stirling2(i, k)) for k in range(i + 1))
                require(r["stirling"] == want, f"bell --triangle: wrong Stirling row {i}")
    return Command("bell", [str(n)] + (["--triangle"] if triangle else []), fmt, check)


def _stirling(n: int, k: int, fmt: str) -> Command:
    def check(out):
        rows = read_rows(out, fmt)
        require(len(rows) == 1 and rows[0]["stirling2"] == str(oracles.stirling2(n, k)),
                f"stirling {n} {k}: wrong value")
    return Command("stirling", [str(n), str(k)], fmt, check)


def _normal_order(terms, n: int, closed=None) -> Command:
    def check(out):
        form = oracles.parse_normal_form(out)
        oracles.check_normal_form(terms, n, form, f"normal-order {gen.power_text(terms, n)}")
        if closed is not None:
            require(form == closed(), "normal-order: differs from the closed form")
    return Command("normal-order", [gen.power_text(terms, n)], None, check)


def _dobinski(n: int, y: Fraction, digits: int, fmt: str) -> Command:
    def check(out):
        (row,) = read_rows(out, fmt)
        require(row["terms"] == "61", "dobinski: wrong term count")
        value, tail, exact = Fraction(row["value"]), Fraction(row["tail_bound"]), oracles.touchard(n, y)
        try:
            oracles.check_dobinski(value, tail, exact, digits, f"dobinski {n} --y {y}")
        except Mismatch as exc:
            # right to the 15 digits bellhop prints: the known print fault
            oracles.check_dobinski(value, tail, exact, 14, f"dobinski {n} --y {y}")
            raise Failed(f"{exc} at --precision {digits}: value and tail_bound "
                         "are printed with 15 significant digits") from None
    argv = [str(n)] + (["--y", str(y)] if y != 1 else []) + ["--precision", str(digits)]
    return Command("dobinski", argv, fmt, check)


def _coefficients(out: str) -> list[Fraction]:
    data = json.loads(out)
    coeffs = [Fraction(c) for c in data["coefficients"]]
    require(len(coeffs) == data["order"] + 1, "egf: order does not match the coefficients")
    return coeffs


def _egf_bell(order: int) -> Command:
    def check(out):
        require(_coefficients(out) == oracles.bell_numbers(order), "egf bell: wrong coefficients")
    return Command("egf", ["bell", "--order", str(order)], None, check)


def _egf_log_bell(order: int) -> Command:
    def check(out):
        require(_coefficients(out) == [0] + [1] * order, "egf log of Bell numbers is not (0, 1, 1, ...)")
    return Command("egf", ["log"] + [str(b) for b in oracles.bell_numbers(order)], None, check)


def _egf_exp(order: int, q: Fraction) -> Command:
    def check(out):
        require(_coefficients(out) == [oracles.touchard(n, q) for n in range(order + 1)],
                "egf exp: wrong coefficients")
    return Command("egf", ["exp", "0"] + [str(q)] * order, None, check)


def _wv_w_to_v(order: int) -> Command:
    def check(out):
        require(out.split() == ["1"] * order, "wv w-to-v of Bell numbers is not all ones")
    return Command("wv", ["w-to-v"] + [str(b) for b in oracles.bell_numbers(order)], None, check)


def _wv_v_to_w(order: int, q: Fraction) -> Command:
    def check(out):
        want = [oracles.touchard(n, q) for n in range(order + 1)]
        require([Fraction(v) for v in out.split()] == want, "wv v-to-w: wrong moments")
    return Command("wv", ["v-to-w"] + [str(q)] * order, None, check)


def _diagrams(n: int, fmt: str) -> Command:
    def check(out):
        counts = {}
        for row in read_rows(out, fmt):
            letters = []
            for factor in row["monomial"].split("*"):
                k, _, m = factor[1:].partition("^")
                letters += [int(k)] * int(m or 1)
            counts[tuple(sorted(letters))] = int(row["multiplicity"])
        oracles.check_census(n, counts)
    return Command("diagrams", [str(n)], fmt, check)


def _partition_function(beta_eps: list[float], cutoff: float, fmt: str) -> Command:
    def check(out):
        rows = read_rows(out, fmt)
        require(len(rows) == 3 * len(beta_eps), "partition-function: wrong row count")
        for row in rows:
            be = float(row["beta_epsilon"])
            alpha = -math.expm1(-be)
            value = float(row["value"])
            want = {"closed_form": 1 / alpha}.get(row["method"], oracles.regularized_Z(1.0, be, cutoff))
            # the series is an alternating sum whose largest term is about
            # e^(alpha M); its float rounding error scales with that
            tol = 1e-12 * cutoff * math.exp(alpha * cutoff) if row["method"] == "regularized_series" else 0
            require(oracles.close(value, want, 1e-10, tol),
                    f"partition-function {row['method']} at {be}: {value}, expected {want}")
            require(oracles.close(float(row["abs_error_vs_closed_form"]), abs(value - 1 / alpha), 1e-9, 1e-15),
                    "partition-function: wrong error column")
    argv = ["--beta-eps"] + [repr(b) for b in beta_eps] + ["--cutoff", repr(cutoff), "--method", "gauss"]
    return Command("partition-function", argv, fmt, check)


def _divergence(be: float, n: int, fmt: str) -> Command:
    def check(out):
        rows = read_rows(out, fmt)
        alpha = -math.expm1(-be)
        require([float(r["M"]) for r in rows] == [10.0, 100.0, 1000.0, 10000.0], "divergence: wrong grid")
        for r in rows:
            m = float(r["M"])
            want = (-alpha) ** n / math.factorial(n) * m ** (n + 1) / (n + 1)
            require(oracles.close(float(r["value"]), want, 1e-12), f"divergence term at M={m} is wrong")
    return Command("partition-function", ["--beta-eps", repr(be), "--divergence", str(n)], fmt, check)


def _hopf_verify(weight: int) -> Command:
    def check(out):
        basis = oracles.monomials_up_to_weight(weight)
        cases = {"coassociativity": basis, "counit": basis, "antipode": basis,
                 "bialgebra": 100, "commutativity": 100, "cocommutativity": basis}
        want = [f"{name}: pass ({n} cases)" for name, n in cases.items()] + ["all axioms pass"]
        require(out.strip().split("\n") == want, "hopf-verify: unexpected report")
    return Command("hopf-verify", ["--max-weight", str(weight)], None, check)


def _stirling_600() -> Command:
    def check(out):
        (row,) = read_rows(out, "plain")
        require(row["stirling2"] == str((3**600 - 3 * 2**600 + 3) // 6), "stirling 600 3: wrong value")
    return Command("stirling", ["600", "3"], None, check)


def commands(seed: int) -> list[Command]:
    rng = random.Random(seed)

    def fmt():
        return rng.choice(FORMATS)

    q = gen.eighths(rng, 1)
    c1, c2 = gen.rational(rng), gen.rational(rng)
    n_linear = rng.randint(3, 6)
    n_number = rng.randint(2, 8)
    k_number = rng.randint(2, 7)
    return [
        _bell(rng.randint(5, 15), False, fmt()),
        _stirling(n := rng.randint(10, 60), rng.randint(1, n), fmt()),
        _normal_order(gen.linear(c1, c2), n_linear,
                      lambda: oracles.linear_power_form(c1, c2, n_linear)),
        _dobinski(10, Fraction(2, 3), 50, "plain"),
        _dobinski(rng.randint(5, 20), Fraction(1), rng.randint(20, 60), fmt()),
        _egf_bell(rng.randint(5, 20)),
        _wv_w_to_v(rng.randint(5, 15)),
        _diagrams(rng.randint(3, 7), fmt()),
        _partition_function([round(rng.uniform(0.3, 2), 3) for _ in range(3)],
                            round(rng.uniform(8, 16), 2), fmt()),
        _stirling_600(),
        _bell(rng.randint(4, 10), True, fmt()),
        _normal_order([(Fraction(1), gen.NUMBER)], n_number,
                      lambda: oracles.number_power_form(n_number)),
        _egf_log_bell(rng.randint(5, 15)),
        _divergence(round(rng.uniform(0.3, 2), 3), rng.randint(1, 5), fmt()),
        _dobinski(rng.randint(5, 20), Fraction(1), rng.randint(20, 60), fmt()),
        _hopf_verify(2),
        _egf_exp(rng.randint(5, 12), q),
        _diagrams(rng.randint(3, 7), fmt()),
        _normal_order([(Fraction(1), gen.RAISING)], rng.randint(2, 5)),
        _wv_v_to_w(rng.randint(5, 12), q),
        _stirling(k_number + rng.randint(0, 20), k_number, fmt()),
        _bell(rng.randint(5, 15), True, fmt()),
    ]


_children_peak_mib = 0.0


def peak_rss_mib() -> float:
    """The largest peak RSS of a bellhop child so far."""
    return _children_peak_mib


def _run_process(argv: list[str], env):
    def run(tr):
        global _children_peak_mib
        with tr.span("cli.subprocess"):
            child = harness.run_child([sys.executable, "-m", "bellhop.cli", *argv], env)
        _children_peak_mib = max(_children_peak_mib, child.peak_rss_mib)
        return child
    return run


def _check_process(command: Command):
    def check(proc: harness.Child, tr):
        if proc.returncode != 0:
            last = proc.stderr.strip().split("\n")[-1] if proc.stderr.strip() else ""
            raise Failed(f"exit {proc.returncode}: {last}")
        tr.count("cli.output_bytes", len(proc.stdout.encode()))
        command.check_output(proc.stdout)
    return check


def build_round(seed: int) -> list[Op]:
    env = harness.child_env()
    return [Op(c.kind, "bellhop " + " ".join(c.argv), _run_process(c.argv, env), _check_process(c))
            for c in commands(seed)]


def trace_extras(seed: int) -> dict:
    """Each command once more through an in-process `cli.main(argv)`: the
    cost of the command itself, without interpreter start and import."""
    per_kind: dict[str, list[float]] = {}
    for command in commands(seed):
        before = harness.reference_loop()
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(command.argv)
        except Exception:  # stirling 600 3 may raise; its time is not a command's cost
            continue
        sample = harness.Sample((time.perf_counter_ns() - t0) * 1e-9, before, harness.reference_loop())
        per_kind.setdefault(command.kind, []).append(sample.norm_s * 1e3)
    out = {f"cli.main_ms.{kind}": harness.median(ms) for kind, ms in per_kind.items()}
    every = [ms for values in per_kind.values() for ms in values]
    out["cli.main_ms"] = sum(every) / len(every)
    return out
