"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload certify|search|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is imported
from ``src/`` and nothing needs to be installed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (including the tracing overhead) with ``--trace 1``.  The lines
before it are a readable report with sample counts, the failed and
undecided shares, the per-pass work counters and a digest of all verdicts.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "search", "cli")


def _load(name: str):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if name == "certify":
        from workload_certify import Certify
        return Certify()
    if name == "search":
        from workload_search import Search
        return Search()
    from workload_cli import Cli
    return Cli()


def measure(name: str, seed: int, seconds: float, trace: bool, ops_limit: int | None = None):
    """Set up, check and time one workload; returns (result, counters).

    ``ops_limit`` keeps only the first operations of the mix, for quick
    self-tests of the harness.
    """
    import harness

    workload = _load(name)
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    picker = harness.CpuPicker()
    try:
        # a traced run reports no set-up time, so it sets up once
        ops, setup_times = harness.setup(workload, seed, workdir, ROOT, picker,
                                         1 if trace else harness.SETUP_REPEATS)
        ops = ops[:ops_limit]
        workload.expect(ops)
        log = harness.run_passes(workload, ops, seconds / 2 if trace else seconds, picker)
        rss = harness.peak_rss_mb(workload.rss_of_children)
        e2e = harness.end_to_end(log, setup_times, rss)
        metrics = e2e
        units = {metric: unit for metric, unit, _ in harness.END_TO_END}
        traced = None
        if trace:
            tracer = harness.Tracer()
            traced = harness.PassLog()
            harness.run_pass(workload, ops, traced, tracer, picker)
            timings = [harness.importtime(ROOT) for _ in range(harness.IMPORTTIME_REPEATS)]
            metrics = harness.per_layer(tracer, traced, log,
                                        statistics.median(t[0] for t in timings),
                                        statistics.median(t[1] for t in timings))
            units = {metric: unit for metric, unit, _ in harness.PER_LAYER}
            tracer.dump(ROOT / ".bench_out" / f"trace-{name}-seed{seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = harness.report(name, seed, trace, log, traced, setup_times, e2e, metrics, units)
    return result, log.pass_counters[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "iterroot" / "__init__.py").is_file():
        print(f"error: no iterroot sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
