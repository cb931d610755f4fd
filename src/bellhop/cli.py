"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction

from .errors import ExpressionParseError, ResourceLimitError, int_digits_limit

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _fmt_float(x: float) -> str:
    return repr(float(x))  # shortest round-trip decimal


def _emit(args, rows: list[dict], columns: list[str], plain: str | None = None):
    """Write rows in the selected format to --out or stdout; in plain
    format, the text plain in place of the table when one is given."""
    buf = io.StringIO()
    if args.format == "plain" and plain is not None:
        buf.write(plain)
    elif args.format == "json":
        import json

        json.dump(rows, buf, indent=None, separators=(",", ":"))
        buf.write("\n")
    elif args.format == "csv":
        import csv

        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c) for c in columns}
        buf.write("  ".join(c.ljust(widths[c]) for c in columns).rstrip() + "\n")
        for r in rows:
            buf.write("  ".join(str(r[c]).ljust(widths[c]) for c in columns).rstrip() + "\n")
    _write(args, buf.getvalue())


def _write(args, text: str):
    """Write text to --out or stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _refuse_unprintable(what: str, values):
    """Refuse computed values when the widest numerator or denominator is too
    long for Python to print: str() of an exact value prints both.  The work
    before it is bounded by the limits of the modules that compute it."""
    limit = int_digits_limit()
    if limit and max((max(abs(v.numerator), v.denominator) for v in values), default=0) >= 10**limit:
        raise ResourceLimitError(f"{what} has more than {limit} digits, the integer printing limit")


def cmd_bell(args) -> int:
    from . import combinatorics

    nmax = args.nmax
    # B(nmax) first: one call builds the rows 0..nmax, or refuses before any
    _refuse_unprintable(f"B({nmax})", [combinatorics.bell(nmax)])
    rows = []
    for n in range(nmax + 1):
        row = {"n": n, "bell": combinatorics.bell(n)}
        if args.triangle:
            row["stirling"] = " ".join(
                str(combinatorics.stirling2(n, k)) for k in range(n + 1)
            )
        rows.append(row)
    cols = ["n", "bell"] + (["stirling"] if args.triangle else [])
    _emit(args, rows, cols)
    return EXIT_OK


def cmd_stirling(args) -> int:
    from . import combinatorics

    n, k = args.n, args.k
    value = combinatorics.stirling2(n, k)
    _refuse_unprintable(f"S({n}, {k})", [value])
    _emit(args, [{"n": n, "k": k, "stirling2": value}], ["n", "k", "stirling2"])
    return EXIT_OK


def cmd_normal_order(args) -> int:
    from . import boson

    # parsed straight into the normal-ordered basis: no word is built
    form = boson.NormalOrderedForm.parse(args.expression)
    _refuse_unprintable("a coefficient", form.terms.values())
    rows = [{"r": r, "s": s, "coeff": str(c)} for (r, s), c in form.sorted_terms()]
    _emit(args, rows, ["r", "s", "coeff"], str(form) + "\n")
    return EXIT_OK


def cmd_dobinski(args) -> int:
    from . import enclosure  # the integers alone: no mpmath, no dataclasses

    value, tail, scale = enclosure._dobinski_fixed(args.n, _rational(args.y), args.k_max, args.precision)
    # one digit past --precision, rounded to nearest in mpmath.nstr's layout:
    # the digits mpmath printed but for a last one within 10^-(precision+9)
    # of a rounding half, which either may round the other way
    value, tail = (enclosure._nstr(x, -scale, args.precision + 1) for x in (value, tail))
    rows = [{"n": args.n, "y": args.y, "terms": args.k_max + 1, "value": value, "tail_bound": tail}]
    _emit(args, rows, ["n", "y", "terms", "value", "tail_bound"])
    return EXIT_OK


def cmd_egf(args) -> int:
    from . import egf

    if args.action == "bell":
        if args.coefficients:
            raise ValueError("egf bell takes --order, not coefficients")
        order = 8 if args.order is None else args.order
        series = egf.bell_egf(order)
    else:
        if args.order is not None:
            raise ValueError(f"egf {args.action} takes coefficients, not --order: the order is their count less one")
        coeffs = [_rational(v) for v in args.coefficients]
        series = egf.EGFSeries(tuple(coeffs))
        series = egf.egf_exp(series) if args.action == "exp" else egf.egf_log(series)
    _refuse_unprintable("an EGF coefficient", series.coeffs)
    _write(args, series.to_json() + "\n")
    return EXIT_OK


def cmd_wv(args) -> int:
    from . import egf

    values = [_rational(v) for v in args.values]
    if args.direction == "w-to-v":
        out, first = egf.w_to_v(values), 1  # V_1..V_N
    else:
        out, first = egf.v_to_w(values), 0  # W_0..W_N
    _refuse_unprintable("a moment", out)
    rows = [{"index": i, "value": str(v)} for i, v in enumerate(out, first)]
    _emit(args, rows, ["index", "value"], " ".join(str(v) for v in out) + "\n")
    return EXIT_OK


def cmd_diagrams(args) -> int:
    from . import combinatorics

    census = combinatorics.diagram_census(args.n)
    keyed = sorted(census.counts.items(), key=lambda kv: (kv[0].degree, kv[0].letters))
    rows = [{"monomial": str(m), "multiplicity": c} for m, c in keyed]
    _emit(args, rows, ["monomial", "multiplicity"])
    return EXIT_OK


def cmd_partition_function(args) -> int:
    from . import partition_function as pf

    def row(be, method, M, N, value, closed):
        return {
            "beta_epsilon": _fmt_float(be), "method": method,
            "M": "" if M is None else _fmt_float(M), "N": "" if N is None else N,
            "value": _fmt_float(value),
            # equal values are exact, also when both are infinite
            "abs_error_vs_closed_form": _fmt_float(0.0 if value == closed else abs(value - closed)),
        }

    rows = []
    for be in args.beta_eps:
        p = pf.ModelParams(1.0, be)
        closed = pf.closed_form_Z(p)
        if args.divergence is not None:
            report = pf.divergence_report(args.divergence, p, [10.0, 100.0, 1000.0, 10000.0])
            for M, v in zip(report.cutoffs, report.values):
                rows.append(row(be, f"termwise(n={args.divergence})", M, args.divergence, v, closed))
            continue
        rows.append(row(be, "closed_form", None, None, closed, closed))
        value, _ = pf.regularized_Z(p, pf.QuadratureConfig(cutoff=args.cutoff, method=args.method))
        rows.append(row(be, f"regularized_{args.method}", args.cutoff, None, value, closed))
        series = pf.regularized_series_Z(p, args.cutoff, args.order)
        rows.append(row(be, "regularized_series", args.cutoff, args.order, series, closed))
        if args.combinatorial:
            value = pf.combinatorial_Z(p, args.cutoff, args.order)
            rows.append(row(be, "combinatorial", args.cutoff, args.order, value, closed))
    _emit(args, rows, ["beta_epsilon", "method", "M", "N", "value", "abs_error_vs_closed_form"])
    return EXIT_OK


def cmd_hopf_verify(args) -> int:
    from . import hopf

    antipode_fn = hopf.antipode
    if args.corrupt_antipode:
        # deliberate fault: drop the sign, so the convolution identity fails
        antipode_fn = lambda a: hopf.HopfElement(dict(a.terms))
    reports = hopf.run_all_checks(args.max_weight, antipode_fn)
    ok = all(r.ok for r in reports)
    rows = [{"axiom": rep.name, "ok": rep.ok, "cases": rep.checked} for rep in reports]
    plain = "".join(str(rep) + "\n" for rep in reports) + ("all axioms pass\n" if ok else "")
    _emit(args, rows, ["axiom", "ok", "cases"], plain)
    return EXIT_OK if ok else EXIT_VERIFY


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellhop",
        description="Bell-number combinatorics, boson normal ordering, and the BELL Hopf algebra",
    )
    parser.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    parser.add_argument("--out", default=None, help="write output to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bell", help="Bell numbers B(0..nmax), optionally the Stirling triangle")
    p.add_argument("nmax", type=int)
    p.add_argument("--triangle", action="store_true")
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("stirling", help="one Stirling number of the second kind")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser("normal-order", help="normal-order a boson expression")
    p.add_argument("expression")
    p.set_defaults(func=cmd_normal_order)

    p = sub.add_parser("dobinski", help="truncated Dobinski evaluation with tail bound")
    p.add_argument("n", type=int)
    p.add_argument("--y", default="1", help="Bell-polynomial argument (rational, default 1)")
    p.add_argument("--k-max", type=int, default=60)
    p.add_argument("--precision", type=int, default=50)
    p.set_defaults(func=cmd_dobinski)

    p = sub.add_parser("egf", help="EGF operations with exact rational coefficients")
    p.add_argument("action", choices=["exp", "log", "bell"])
    p.add_argument("--order", type=int, help="order of the Bell series (bell only, default 8)")
    p.add_argument("coefficients", nargs="*",
                   help="a_0 a_1 ... as rationals (exp/log); put -- before them if one "
                        "is a negative fraction: egf exp -- 0 -1/2 1")
    p.set_defaults(func=cmd_egf)

    p = sub.add_parser("wv", help="moment <-> connected-moment transforms")
    p.add_argument("direction", choices=["w-to-v", "v-to-w"])
    p.add_argument("values", nargs="+",
                   help="W_0.. or V_1.. as rationals; put -- before them if one is a "
                        "negative fraction: wv v-to-w -- 1 -3/7")
    p.set_defaults(func=cmd_wv)

    p = sub.add_parser("diagrams", help="set-partition census by block-size monomial")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_diagrams)

    p = sub.add_parser("partition-function", help="compare partition-function routes")
    p.add_argument("--beta-eps", type=float, nargs="+", required=True)
    p.add_argument("--cutoff", type=float, default=20.0, help="regulator M")
    p.add_argument("--order", type=int, default=200, help="series order N")
    p.add_argument("--method", choices=["analytic", "gauss"], default="analytic")
    p.add_argument("--combinatorial", action="store_true",
                   help="include the truncated Bell-polynomial route")
    p.add_argument("--divergence", type=int, default=None, metavar="N",
                   help="emit the term-N divergence demonstration instead")
    p.set_defaults(func=cmd_partition_function)

    p = sub.add_parser("hopf-verify", help="machine-check the Hopf axioms")
    p.add_argument("--max-weight", type=int, default=6)
    p.add_argument("--corrupt-antipode", action="store_true",
                   help="debug fault injection: verify the checker catches a broken antipode")
    p.set_defaults(func=cmd_hopf_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ExpressionParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
