"""Timing, normalisation, tracing and statistics for the benchmark.

Timing rule: every operation is timed in wall clock and divided by the mean
of two runs of a fixed reference loop, one just before and one just after
it, then multiplied by REF_NOMINAL_S. The result reads as seconds at
reference speed, the speed of a machine on which the loop takes exactly
REF_NOMINAL_S. On a shared virtual machine whose speed swings by tens of
percent within seconds, this ratio moves far less than the raw time.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

ROOT = os.getcwd()  # the benchmark runs from the root of a checkout
SRC = os.path.join(ROOT, "src")
REF_NOMINAL_S = 0.005
REF_ITERATIONS = 800


def reference_loop() -> float:
    """Fixed Fraction, dict and tuple work, timed with the garbage collector
    paused; returns its wall time in seconds. It never calls bellhop, so
    nothing the program sets (gc thresholds, caches) changes its speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        acc: dict[tuple[int, int], Fraction] = {}
        total = Fraction(0)
        for i in range(REF_ITERATIONS):
            key = (i % 17, i % 5)
            step = Fraction(i % 7 + 1, i % 11 + 1)
            total += step
            acc[key] = acc.get(key, Fraction(0)) + step
        if total <= 0 or len(acc) != 85:
            raise RuntimeError("reference loop computed a wrong result")
        return (time.perf_counter_ns() - t0) * 1e-9
    finally:
        if enabled:
            gc.enable()


class Failed(Exception):
    """The operation did not complete: an error exit or an exception."""


@dataclass
class Op:
    """One benchmark operation. run(tracer) is timed; check(result, tracer)
    runs outside the timed region, raises oracles.Mismatch on a wrong
    output and Failed when the operation did not complete."""

    kind: str
    label: str
    run: Callable
    check: Callable


class Sample:
    """One timed interval with the reference runs around it."""

    __slots__ = ("raw_s", "ref_before_s", "ref_after_s", "nominal_s")

    def __init__(self, raw_s: float, ref_before_s: float, ref_after_s: float,
                 nominal_s: float = REF_NOMINAL_S):
        self.raw_s = raw_s
        self.ref_before_s = ref_before_s
        self.ref_after_s = ref_after_s
        self.nominal_s = nominal_s

    @property
    def scale(self) -> float:
        """Factor from raw seconds to seconds at reference speed."""
        return self.nominal_s / ((self.ref_before_s + self.ref_after_s) / 2)

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.scale


REF_PROCESS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_process.py")
REF_PROCESS_NOMINAL_S = 0.25


def reference_process() -> float:
    """Wall time of one run of reference_process.py in a fresh interpreter."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, REF_PROCESS], check=True)
    return (time.perf_counter_ns() - t0) * 1e-9


def process_samples(raws: list[float], refs: list[float]) -> list[Sample]:
    """raws[i] was timed between process references refs[i] and refs[i+1]."""
    return [Sample(raw, refs[i], refs[i + 1], REF_PROCESS_NOMINAL_S) for i, raw in enumerate(raws)]


def quantile(values: list[float], q: float) -> float:
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mib() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


@dataclass
class Child:
    """A finished child process and the peak RSS of that child alone."""

    returncode: int
    stdout: str
    stderr: str
    peak_rss_mib: float


def run_child(cmd: list[str], env) -> Child:
    """Run cmd to its end with its output captured. The child is reaped
    with wait4, so its peak RSS is its own, not the largest of every child
    this process has had (the reference processes among them)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                 b"".join(chunks[proc.stderr]).decode(), usage.ru_maxrss / 1024)


def child_env() -> dict[str, str]:
    """The caller's environment with src first on the path; thread and
    OpenBLAS settings stay as the user has them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------------------
# Tracing: spans and counts recorded around the benchmark's own calls into
# each layer, kept in memory and written out when the run ends.
# --------------------------------------------------------------------------


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.parent = tracer.stack[-1] if tracer.stack else None

    def __enter__(self):
        self.tracer.stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter_ns()
        self.tracer.stack.pop()
        self.tracer.spans.append(self)
        return False


class Tracer:
    """Records spans for the operation currently running. Counts are
    recorded outside the timed region, when the operation is checked."""

    enabled = True

    def __init__(self):
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}

    def span(self, name: str) -> Span:
        return Span(self, name)

    def count(self, name: str, value: float = 1):
        self.counts[name] = self.counts.get(name, 0) + value

    def take_spans(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a shared no-op."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float = 1):
        pass

    def take_spans(self) -> list:
        return []


def self_times_ns(spans: list[Span]) -> dict[str, int]:
    """Per span name: duration minus the part covered by child spans."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[id(s.parent)] = child_ns.get(id(s.parent), 0) + (s.end - s.start)
    out: dict[str, int] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + (s.end - s.start) - child_ns.get(id(s), 0)
    return out


def write_trace(path: str, records: list[dict]):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(records, fh)
