"""Benchmark for bellhop: three workloads, each checked against independent
oracles, timed in reference-normalised wall clock.

Run from the root of a bellhop checkout:

    python3 perfbench/run.py --workload {cli,ordering,algebra} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, from a run
that also writes its spans to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

import harness
from harness import Failed, NullTracer, Sample, Tracer, median, quantile, reference_loop
from oracles import Mismatch

WORKLOADS = ("cli", "ordering", "algebra")
SETUP_PROBES = 5
STARTUP_PROBES = 5
ROOT = harness.ROOT
SRC = harness.SRC
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

LAYERS = ("boson", "combinatorics", "egf", "partition_function", "hopf")
SPANS = (
    "boson.parse", "boson.normal_order", "boson.format", "boson.word_moments",
    "combinatorics.diagram_census", "combinatorics.bell", "combinatorics.stirling2",
    "combinatorics.bell_polynomial", "combinatorics.dobinski",
    "egf.bell_egf", "egf.exp", "egf.log", "egf.mul", "egf.w_to_v", "egf.v_to_w",
    "partition_function.regularized_Z", "partition_function.combinatorial_Z",
    "partition_function.general_F",
    "hopf.run_all_checks", "hopf.coproduct", "hopf.antipode",
    "cli.subprocess",
)
COUNTS = (
    "boson.parsed_words", "boson.repeated_words", "boson.normal_terms",
    "combinatorics.census_partitions", "combinatorics.census_monomials",
    "combinatorics.dobinski_terms", "hopf.cases_checked", "hopf.coproduct_terms",
    "cli.output_bytes",
)
CLI_KINDS = ("bell", "stirling", "normal-order", "dobinski", "egf", "wv", "diagrams",
             "partition-function", "hopf-verify")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in the order they are printed."""
    units = {
        "startup.python_ms": "ms", "startup.import_ms": "ms",
        "startup.modules": "count", "startup.native_threads": "count",
        "cli.main_ms": "ms",
    }
    units.update({f"cli.main_ms.{kind}": "ms" for kind in CLI_KINDS})
    units.update({f"{name}_ms": "ms" for name in SPANS})
    units.update({name: ("bytes" if name == "cli.output_bytes" else "count") for name in COUNTS})
    units.update({f"{layer}.share_pct": "%" for layer in LAYERS})
    units.update({
        "ref.loop_ms": "ms", "raw.p50_ms": "ms", "raw.p90_ms": "ms",
        "raw.ops_per_s": "1/s", "raw.setup_s": "s", "trace.overhead_ms": "ms",
    })
    return units


E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms", "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up as a run would, print the monotonic clock in ns and exit")
    return p.parse_args(argv)


class Log:
    """What happened to every operation attempted."""

    def __init__(self):
        self.attempted = 0
        self.samples: list[tuple[int, harness.Op, Sample, list]] = []
        self.failures: dict[str, list] = {}
        self.mismatches: list[str] = []

    def fail(self, op, reason: str):
        entry = self.failures.setdefault(op.label, [reason, 0])
        entry[1] += 1

    @property
    def failed(self) -> int:
        return sum(n for _, n in self.failures.values())


def run_round(ops, round_index: int, group: int, tracer, counter, log: Log):
    """Time each operation and check it afterwards. With group == 0 each
    operation runs between two in-process reference loops; otherwise the
    operations run `group` at a time between process references, each
    reference shared by the groups on either side of it. `tracer` records
    spans in the timed region, `counter` takes the counts made while
    checking."""
    chunks = [ops[i:i + group] for i in range(0, len(ops), group)] if group else [[op] for op in ops]
    reference = harness.reference_process if group else reference_loop
    nominal = harness.REF_PROCESS_NOMINAL_S if group else harness.REF_NOMINAL_S
    before = reference()
    for chunk in chunks:
        done = []
        for op in chunk:
            log.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                result = op.run(tracer)
            except Exception as exc:  # the program raised: a failed operation
                tracer.take_spans()
                log.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            done.append((op, result, (time.perf_counter_ns() - t0) * 1e-9, tracer.take_spans()))
        after = reference()
        for op, result, raw, spans in done:
            try:
                op.check(result, counter)
            except Failed as exc:
                log.fail(op, str(exc))
                continue
            except Mismatch as exc:
                log.mismatches.append(f"{op.label}: {exc}")
            log.samples.append((round_index, op, Sample(raw, before, after, nominal), spans))
        del done
        before = after if group else reference()


def probe_setup(args) -> list[Sample]:
    """Fresh interpreters doing a run's set-up; each reports the clock at
    the point where the run's first timed operation would start."""
    cmd = [sys.executable, os.path.relpath(__file__, ROOT), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    raws, refs = [], [harness.reference_process()]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        raws.append((int(proc.stdout.split()[-1]) - t0) * 1e-9)
        refs.append(harness.reference_process())
    return harness.process_samples(raws, refs)


STARTUP_CODE = """
import sys, time
t0 = time.perf_counter()
import bellhop
dt = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
print(dt, len(sys.modules), threads)
"""


def probe_startup(env) -> dict[str, float]:
    """Bare interpreter start (the floor) and `import bellhop` in fresh
    interpreters, normalised by the process reference."""
    bare, imports, modules, threads = [], [], [], []
    refs = [harness.reference_process()]
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        bare.append((time.perf_counter_ns() - t0) * 1e-9)
        proc = subprocess.run([sys.executable, "-c", STARTUP_CODE], check=True, env=env,
                              cwd=ROOT, capture_output=True, text=True)
        refs.append(harness.reference_process())
        dt, nmod, nthr = proc.stdout.split()
        imports.append(float(dt))
        modules.append(int(nmod))
        threads.append(int(nthr))
    return {
        "startup.python_ms": median([s.norm_s for s in harness.process_samples(bare, refs)]) * 1e3,
        "startup.import_ms": median([s.norm_s for s in harness.process_samples(imports, refs)]) * 1e3,
        "startup.modules": median(modules),
        "startup.native_threads": median(threads),
    }


def end_to_end(samples, setup, peak_rss) -> dict[str, float]:
    norms = [s.norm_s for _, _, s, _ in samples]
    return {
        "setup_s": median([s.norm_s for s in setup]),
        "ops_per_s": len(norms) / sum(norms),
        "p50_ms": quantile(norms, 0.5) * 1e3,
        "p90_ms": quantile(norms, 0.9) * 1e3,
        "peak_rss_mb": peak_rss,
    }


def per_layer(log: Log, untraced_rounds: int, traced_rounds: int, counter: Tracer,
              setup, startup: dict, extras: dict) -> dict[str, float]:
    values = dict.fromkeys(per_layer_units(), 0.0)
    values.update(startup)
    values.update(extras)
    plain = [s for r, _, s, _ in log.samples if r < untraced_rounds]
    warm = [s for r, _, s, _ in log.samples if 0 < r < untraced_rounds] or plain
    traced = [(s, spans) for r, _, s, spans in log.samples if r >= untraced_rounds]
    layer_ns = dict.fromkeys(LAYERS, 0.0)
    traced_total = 0.0
    for sample, spans in traced:
        traced_total += sample.norm_s
        for name, ns in harness.self_times_ns(spans).items():
            values[f"{name}_ms"] += ns * 1e-6 * sample.scale / traced_rounds
            layer = name.split(".")[0]
            if layer in layer_ns:
                layer_ns[layer] += ns * 1e-9 * sample.scale
    for layer, busy in layer_ns.items():
        values[f"{layer}.share_pct"] = 100 * busy / traced_total
    total_rounds = untraced_rounds + traced_rounds
    for name, value in counter.counts.items():
        values[name] = value / total_rounds
    raw = [s.raw_s for s in plain]
    values.update({
        "ref.loop_ms": median([(s.ref_before_s + s.ref_after_s) / 2 for s in plain]) * 1e3,
        "raw.p50_ms": quantile(raw, 0.5) * 1e3,
        "raw.p90_ms": quantile(raw, 0.9) * 1e3,
        "raw.ops_per_s": len(raw) / sum(raw),
        "raw.setup_s": median([s.raw_s for s in setup]),
        "trace.overhead_ms": (sum(s.norm_s for s, _ in traced) / len(traced)
                              - sum(s.norm_s for s in warm) / len(warm)) * 1e3,
    })
    return values


def write_spans(args, log: Log, untraced_rounds: int):
    records = []
    for op_id, (r, op, sample, spans) in enumerate(log.samples):
        if r < untraced_rounds:
            continue
        index = {id(s): i for i, s in enumerate(spans)}
        records.append({
            "op": op_id, "round": r, "kind": op.kind, "label": op.label,
            "raw_s": sample.raw_s, "scale": sample.scale,
            "spans": [{"id": index[id(s)], "name": s.name, "start_ns": s.start, "end_ns": s.end,
                       "parent": index.get(id(s.parent)) if s.parent else None} for s in spans],
        })
    harness.write_trace(os.path.join(OUT_DIR, f"trace_{args.workload}_{args.seed}.json"), records)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bellhop", "__init__.py")):
        sys.stderr.write("error: src/bellhop not found; run from the root of a bellhop checkout\n")
        return 2
    sys.path.insert(0, SRC)
    workload = importlib.import_module(f"workload_{args.workload}")
    ops = workload.build_round(args.seed)
    if args.setup_probe:
        print(time.monotonic_ns())
        return 0

    rounds = max(workload.ROUNDS_MIN, round(args.seconds / workload.NOMINAL_ROUND_S))
    traced_rounds = max(1, rounds // 2) if args.trace else 0
    counter = Tracer() if args.trace else NullTracer()
    log = Log()
    for r in range(rounds):
        run_round(ops, r, workload.PROCESS_GROUP, NullTracer(), counter, log)
    for r in range(rounds, rounds + traced_rounds):
        run_round(ops, r, workload.PROCESS_GROUP, Tracer(), counter, log)
    peak_rss = workload.peak_rss_mib()
    setup = probe_setup(args)

    if args.trace:
        metrics = per_layer(log, rounds, traced_rounds, counter, setup,
                            probe_startup(harness.child_env()), workload.trace_extras(args.seed))
        units = per_layer_units()
        write_spans(args, log, rounds)
    else:
        metrics = end_to_end(log.samples, setup, peak_rss)
        units = E2E_UNITS

    for label, (reason, n) in log.failures.items():
        print(f"failed x{n}: {label}: {reason}")
    for line in log.mismatches[:20]:
        print(f"WRONG: {line}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not log.mismatches,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
