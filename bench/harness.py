"""Timing loop, spans and metric assembly shared by the three workloads.

A workload object supplies the instance mix and the per-operation hooks;
this module times it.  Load comes from one client in a closed loop: the
next operation starts only after the previous one returned and was
checked.  The mix is always run in whole passes, so every run of a seed
does the same work per pass and the per-pass counters repeat exactly.

The end-to-end timings are calibrated: every operation and every set-up is
bracketed by a fixed calibration kernel, and its wall time is scaled by
how much slower than nominal the kernel ran around it (see
``time_calibrated``).
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

SETUP_REPEATS = 5
# the calibration kernel's typical time on the 2-vCPU Xeon VM the benchmark
# was tuned on; calibrated timings are seconds on a CPU that runs it this fast
CALIBRATION_NOMINAL_S = 0.0012
IMPORTTIME_REPEATS = 3
CPU_PICK_INTERVAL_S = 0.25

# layers are the module names under src/iterroot
LAYERS = ("core", "paths", "criteria", "search", "fixedpoint", "pullback", "poly",
          "mfnio", "instances", "cli")

# name, unit, better; the harness prints exactly these, in this order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_p90", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# mean seconds per call of the span with the same name minus "_s"
_SPAN_MEANS = (
    "criteria.scan", "criteria.minimal_N", "criteria.forward-paths",
    "criteria.forward-points", "criteria.inverse-paths", "criteria.inverse-points",
    "paths.path_matrix_k2", "paths.count_paths",
    "core.profile", "core.invert", "core.iterate_k2", "core.iterate", "core.iterate_map",
    "search.single", "search.multi", "search.verify",
    "cli.main",
    "mfnio.parse", "mfnio.serialize",
    "pullback.pullback_of", "pullback.is_pullback",
    "fixedpoint.profile", "fixedpoint.exclusions",
    "poly.advise", "poly.first_solar",
    "instances.build",
)

PER_LAYER = (
    tuple((f"{name}_s", "s", "lower") for name in _SPAN_MEANS)
    + (
        ("criteria.checker_calls", "count", "lower"),
        ("criteria.certificates_fired", "count", "higher"),
        ("criteria.fired_ratio", "ratio", "higher"),
        ("search.single.nodes", "count", "lower"),
        ("search.multi.nodes", "count", "lower"),
        ("search.single.nodes_per_s", "1/s", "higher"),
        ("search.multi.nodes_per_s", "1/s", "higher"),
        ("search.decided_ratio", "ratio", "higher"),
        ("mfnio.bytes_in", "B", "lower"),
        ("mfnio.bytes_out", "B", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.import_numpy_s", "s", "lower"),
    )
    + tuple((f"{layer}.calls", "count", "lower") for layer in LAYERS)
    + tuple((f"{layer}.busy_s", "s", "lower") for layer in LAYERS)
    + (
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    )
)

# the per-pass work counters that both the traced and the untraced run report
COUNTERS = ("criteria.certificates_fired", "search.single.nodes", "search.multi.nodes",
            "search.verdicts", "search.decided", "mfnio.bytes_in", "mfnio.bytes_out")


@dataclass
class Verdict:
    """The checked outcome of one operation."""

    ok: bool
    decided: bool = True
    digest: str = ""
    counters: dict = field(default_factory=dict)
    error: str = ""


class Tracer:
    """In-memory spans: name, start, end, parent span index, request id, count.

    ``count`` is the work a span did, where the layer reports it (search nodes).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = ""

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "request", "count"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n",
                        encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "name", "index", "count")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.count = 0

    def __enter__(self) -> "_Span":
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, tr.request, 0])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        span = self.tracer.spans[self.index]
        span[2] = time.perf_counter()
        span[5] = self.count
        self.tracer._stack.pop()


class NullTracer:
    """Stands in for a Tracer where nothing is recorded."""

    count = 0

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc) -> None:
        return None


_KERNEL_RNG = random.Random(5)
_KERNEL_SIZE = 16
_KERNEL_MATRIX = [[int(_KERNEL_RNG.random() < 0.2) for _ in range(_KERNEL_SIZE)]
                  for _ in range(_KERNEL_SIZE)]
_KERNEL_MASKS = [_KERNEL_RNG.getrandbits(_KERNEL_SIZE) for _ in range(_KERNEL_SIZE)]


def calibration_kernel() -> float:
    """Seconds for a fixed piece of pure-Python work like the program's own.

    A dense integer matrix product, set unions over predecessor lists and
    bitmask unions, as in ``paths``, ``criteria`` and ``core``.  It is the
    benchmark's own code, so a change to the program never changes it.
    """
    A = _KERNEL_MATRIX
    # the program's garbage is not the kernel's to collect
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            P = [[sum(a * b for a, b in zip(row, col)) for col in zip(*A)] for row in A]
            points = set()
            for x in range(_KERNEL_SIZE):
                before = [y for y in range(_KERNEL_SIZE) if A[y][x]]
                sum(P[z][y] for y in before for z in range(_KERNEL_SIZE))
                for y in before:
                    points |= {z for z in range(_KERNEL_SIZE) if A[z][y]}
            for mask in _KERNEL_MASKS:
                image = 0
                for y in range(_KERNEL_SIZE):
                    if mask >> y & 1:
                        image |= _KERNEL_MASKS[y]
                image.bit_count()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def time_calibrated(call) -> tuple[object, float, float]:
    """Run ``call()``; returns its result, its wall time and its scale factor.

    On a shared VM the speed of a virtual CPU changes within seconds, by 20
    to 80%, and the whole machine can slow down for minutes.  The call is
    bracketed by two runs of ``calibration_kernel``; the ratio of
    CALIBRATION_NOMINAL_S to their mean says how fast the CPU was around
    it, and wall time times factor is the time on a CPU of nominal speed.
    The kernel is short and like the program's work, so it tracks the
    slowdowns the call sees.  An exception from ``call`` propagates.
    """
    before = calibration_kernel()
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    factor = CALIBRATION_NOMINAL_S / ((before + calibration_kernel()) / 2)
    return result, elapsed, factor


class CpuPicker:
    """Keeps the process, and the children it starts, on the fastest CPU.

    On a shared VM the speed of each virtual CPU changes within seconds,
    and two of them often differ by 20-40%.  Every CPU_PICK_INTERVAL_S the
    picker times the calibration kernel on each CPU the process may use and
    pins the process to the fastest.  Where there is one CPU, or pinning is not
    permitted, it does nothing.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.last = -math.inf

    def maybe_pick(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.last < CPU_PICK_INTERVAL_S:
            return
        try:
            speeds = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speeds.append((min(calibration_kernel() for _ in range(2)), cpu))
            os.sched_setaffinity(0, {min(speeds)[1]})
        except OSError:
            self.cpus = []
        self.last = time.perf_counter()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: with 100 samples, p90 leaves ten above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def time_fresh_import(root: Path) -> float:
    """Wall time of a new interpreter importing the CLI module."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import iterroot.cli"], env=child_env(root),
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def importtime(root: Path) -> tuple[float, float]:
    """Cumulative import seconds of iterroot.cli and of numpy, per -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import iterroot.cli"],
                          env=child_env(root), check=True, capture_output=True, text=True)
    found = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(4) in ("iterroot.cli", "numpy"):
            found[m.group(4)] = int(m.group(2)) / 1e6
    return found.get("iterroot.cli", 0.0), found.get("numpy", 0.0)


@dataclass
class PassLog:
    """Timings and checked verdicts of whole passes over the mix.

    ``times`` are wall times; ``factors`` scale each to nominal CPU speed.
    """

    times: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    failed: int = 0
    undecided: int = 0
    passes: int = 0
    pass_counters: list[dict] = field(default_factory=list)
    pass_digests: list[str] = field(default_factory=list)


def run_pass(workload, ops, log: PassLog, tracer: Tracer | None = None,
             picker: CpuPicker | None = None) -> None:
    """One pass over the mix.

    With a tracer, the first occurrence of each distinct operation is also
    probed: its layers are called once more, each call in its own span.
    """
    counters = dict.fromkeys(COUNTERS, 0)
    probed = set()
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        if picker is not None:
            picker.maybe_pick()
        if tracer is not None:
            tracer.request = f"{log.passes}:{i}"

        def call(op=op):
            if tracer is None:
                return workload.run(op)
            with tracer.span("op"):
                return workload.run_traced(op, tracer)

        start = time.perf_counter()
        factor = 1.0
        try:
            result, elapsed, factor = time_calibrated(call)
            verdict = workload.check(op, result)
            if tracer is not None and op.label not in probed:
                probed.add(op.label)
                workload.probe(op, result, tracer)
        except Exception:  # one broken operation must not stop the run
            verdict = Verdict(ok=False, error=traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - start
        log.times.append(elapsed)
        log.factors.append(factor)
        if not verdict.ok:
            log.failed += 1
            print(f"check failed: {op.label}: {verdict.error}", file=sys.stderr)
        if not verdict.decided:
            log.undecided += 1
        for key, value in verdict.counters.items():
            counters[key] += value
        digest.update(f"{op.label}|{verdict.digest}\n".encode())
    log.passes += 1
    log.pass_counters.append(counters)
    log.pass_digests.append(digest.hexdigest()[:16])


def run_passes(workload, ops, seconds: float, picker: CpuPicker | None = None) -> PassLog:
    """Whole passes until the next one would end after ``seconds``; at least one."""
    log = PassLog()
    start = time.perf_counter()
    while True:
        run_pass(workload, ops, log, picker=picker)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / log.passes > seconds:
            return log


def setup(workload, seed: int, workdir: Path, root: Path, picker: CpuPicker,
          repeats: int = SETUP_REPEATS) -> tuple[list, list[float]]:
    """Set the workload up ``repeats`` times; each repeat must build the same mix.

    Returns the mix and the calibrated time of each set-up.
    """
    def once():
        time_fresh_import(root)
        built = workload.build(seed, workdir)
        workload.warm_up(built)
        return built

    times = []
    ops = None
    for _ in range(repeats):
        picker.maybe_pick()
        built, elapsed, factor = time_calibrated(once)
        times.append(elapsed * factor)
        if ops is not None and [o.key() for o in built] != [o.key() for o in ops]:
            raise RuntimeError("set-up is not deterministic for this seed")
        ops = built
    return ops, times


def _fmt(value: float) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _consistent(*logs: PassLog) -> bool:
    """Every pass of every log did the same work and reached the same verdicts."""
    first = logs[0]
    return all(counters == first.pass_counters[0] and digest == first.pass_digests[0]
               for log in logs
               for counters, digest in zip(log.pass_counters, log.pass_digests))


def calibrated_per_op(log: PassLog) -> list[float]:
    """Each operation's calibrated time: the median over passes."""
    n = len(log.times) // log.passes
    calibrated = [t * f for t, f in zip(log.times, log.factors)]
    return [statistics.median(calibrated[i::n]) for i in range(n)]


def end_to_end(log: PassLog, setup_times: list[float], rss_mb: float) -> dict:
    per_op = calibrated_per_op(log)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_s_p50": percentile(per_op, 0.5),
        "op_s_p90": percentile(per_op, 0.9),
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer(tracer: Tracer, traced: PassLog, untraced: PassLog, import_s: float,
              numpy_s: float) -> dict:
    """Per-layer metrics from one traced pass; counts and seconds are per pass."""
    durations: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _, _, count), own in zip(tracer.spans, tracer.self_times()):
        durations.setdefault(name, []).append(end - start)
        work[name] = work.get(name, 0) + count
        layer = name.split(".", 1)[0]
        if layer in calls:
            calls[layer] += 1
            busy[layer] += own
    mean = {name: statistics.fmean(d) for name, d in durations.items()}
    total = {name: sum(d) for name, d in durations.items()}
    counters = traced.pass_counters[0]
    out = {f"{name}_s": mean.get(name, 0.0) for name in _SPAN_MEANS}
    checker_calls = sum(len(durations.get(f"criteria.{rule}", ()))
                        for rule in ("forward-paths", "forward-points",
                                     "inverse-paths", "inverse-points"))
    fired = counters["criteria.certificates_fired"]
    verdicts = counters["search.verdicts"]
    untraced_mean = statistics.fmean(untraced.times)
    overhead = statistics.fmean(traced.times) - untraced_mean
    out.update({
        "criteria.checker_calls": checker_calls,
        "criteria.certificates_fired": fired,
        "criteria.fired_ratio": fired / checker_calls if checker_calls else 0.0,
        "search.single.nodes": counters["search.single.nodes"],
        "search.multi.nodes": counters["search.multi.nodes"],
        "search.single.nodes_per_s": (work["search.single"] / total["search.single"]
                                      if "search.single" in total else 0.0),
        "search.multi.nodes_per_s": (work["search.multi"] / total["search.multi"]
                                     if "search.multi" in total else 0.0),
        "search.decided_ratio": counters["search.decided"] / verdicts if verdicts else 0.0,
        "mfnio.bytes_in": counters["mfnio.bytes_in"],
        "mfnio.bytes_out": counters["mfnio.bytes_out"],
        "cli.import_s": import_s,
        "cli.import_numpy_s": numpy_s,
    })
    out.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    out.update({f"{layer}.busy_s": busy[layer] for layer in LAYERS})
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / untraced_mean
    return out


def report(workload_name: str, seed: int, trace: bool, log: PassLog, traced: PassLog | None,
           setup_times: list[float], e2e: dict, metrics: dict, units: dict) -> dict:
    """Print the readable report and return the final result object."""
    logs = (log,) if traced is None else (log, traced)
    n = len(log.times)
    ops = n // log.passes
    consistent = _consistent(*logs)
    print(f"workload {workload_name} seed {seed} trace {int(trace)} "
          f"client closed-loop clients 1 passes {log.passes} samples {n}")
    for name, unit, _ in END_TO_END:
        count = (f"n={len(setup_times)} set-ups, median" if name == "setup_s" else
                 f"n={ops} operations, median of {log.passes} passes each")
        print(f"  {name} {_fmt(e2e[name])} {unit} ({count})")
    factors = sorted(log.factors)
    print(f"  calibration factor median {_fmt(statistics.median(factors))}, "
          f"range {_fmt(factors[0])}-{_fmt(factors[-1])} "
          f"(nominal kernel {CALIBRATION_NOMINAL_S} s / kernel time around each operation)")
    print(f"  failed_share {log.failed / n!r} share ({log.failed}/{n})")
    print(f"  undecided_share {log.undecided / n!r} share ({log.undecided}/{n})")
    print(f"  counters per pass {json.dumps(log.pass_counters[0], sort_keys=True)}")
    print(f"  verdict digest {log.pass_digests[0]}"
          f"{'' if consistent else ' (runs disagree: counters or verdicts changed)'}")
    if traced is not None:
        print(f"traced pass: samples {len(traced.times)}")
        for name, unit, _ in PER_LAYER:
            print(f"  {name} {_fmt(metrics[name])} {unit}")
    failed = sum(lg.failed for lg in logs)
    return {
        "correct": failed == 0 and consistent,
        "attempted": sum(len(lg.times) for lg in logs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
