"""Self-tests of the benchmark: its checkers, its counters and its metric names.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import harness  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from iterroot import criteria, instances, search  # noqa: E402
from workload_certify import Certify  # noqa: E402
from workload_cli import Cli  # noqa: E402
from workload_search import Search  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _ops(workload, tmp_path, labels):
    ops = [op for op in workload.build(7, tmp_path) if op.label in labels]
    workload.expect(ops)
    return ops


def test_certify_check_rejects_a_corrupted_certificate(tmp_path):
    workload = Certify()
    (op,) = _ops(workload, tmp_path, {"f2(3)"})
    certs = workload.run(op)
    assert workload.check(op, certs).ok
    first = certs[0]
    for corrupt in (dataclasses.replace(first, measured_Q=first.measured_Q + 1),
                    dataclasses.replace(first, x0=first.x0 + 1),
                    dataclasses.replace(first, conclusion=criteria.Conclusion.NO_ROOTS_IN_CLASS)):
        assert not workload.check(op, [corrupt] + certs[1:]).ok
    assert not workload.check(op, certs[1:]).ok


def test_search_check_rejects_a_corrupted_witness_or_verdict(tmp_path):
    workload = Search()
    single, multi = _ops(workload, tmp_path, {"fig67 order 4", "f1(3) order 2 max-out 2 total"})
    result = workload.run(single)
    assert result.outcome == "witness" and workload.check(single, result).ok
    image = list(result.witness.image)
    image[0] = (image[0] + 1) % len(image)
    bad = dataclasses.replace(result.witness, image=tuple(image))
    assert not workload.check(single, dataclasses.replace(result, witness=bad)).ok
    assert not workload.check(single, dataclasses.replace(result, outcome="exhausted",
                                                          witness=None)).ok
    budget_hit = dataclasses.replace(result, outcome="budget", witness=None)
    verdict = workload.check(single, budget_hit)
    assert verdict.ok and not verdict.decided

    result = workload.run(multi)
    assert result.outcome == "exhausted" and workload.check(multi, result).ok
    witness = instances.f1(3)  # not a square root of itself
    assert not workload.check(multi, dataclasses.replace(result, outcome="witness",
                                                         witness=witness)).ok


def test_cli_check_rejects_corrupted_stdout_or_exit_code(tmp_path):
    workload = Cli()
    def flip_middle_byte(out):
        out = bytearray(out)
        out[len(out) // 2] ^= 1
        return bytes(out)

    corruptions = {
        "instance f1 depth 3": flip_middle_byte,
        "solar 200": flip_middle_byte,
        "check f1(3)": lambda out: out.replace(b'"measured_Q": "4"', b'"measured_Q": "5"'),
    }
    for op in _ops(workload, tmp_path, set(corruptions)):
        proc = workload.run(op)
        assert workload.check(op, proc).ok, op.label
        out = corruptions[op.label](proc.stdout)
        assert out != proc.stdout
        corrupted = subprocess.CompletedProcess(proc.args, proc.returncode, out, b"")
        assert not workload.check(op, corrupted).ok
        wrong_exit = subprocess.CompletedProcess(proc.args, 3, proc.stdout, b"")
        assert not workload.check(op, wrong_exit).ok


def test_certificate_oracle_agrees_with_scan():
    cases = [instances.f1(4), instances.f2(3)]
    cases += [instances.random_multifunction(9, seed, max_out_degree=2, density=0.4)
              for seed in range(30)]
    for F in cases:
        for M in (1, 2):
            got = [oracles.certificate_tuple(c) for c in criteria.scan(F, M)]
            assert got == oracles.certificates(F.images, M)


def test_cycle_type_oracle_agrees_with_search():
    for seed in range(40):
        perm = instances.random_permutation(7, seed)
        for n in (2, 3, 4):
            found = search.find_single_root(perm, n).found
            assert found == oracles.permutation_has_root(perm.image, n)


@pytest.mark.parametrize("workload,limit", [("certify", 3), ("search", 6), ("cli", 3)])
def test_traced_and_untraced_runs_report_the_same_counters(workload, limit, capsys):
    plain, plain_counters = run.measure(workload, 11, 0.01, False, ops_limit=limit)
    traced, traced_counters = run.measure(workload, 11, 0.01, True, ops_limit=limit)
    capsys.readouterr()
    assert plain["correct"] and traced["correct"]
    assert plain_counters == traced_counters
    assert set(plain["metrics"]) == {name for name, _, _ in harness.END_TO_END}
    assert set(traced["metrics"]) == {name for name, _, _ in harness.PER_LAYER}


def test_calibrated_times_are_scaled_medians_over_passes():
    log = harness.PassLog(times=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                          factors=[0.5, 1.0, 1.0, 1.0, 2.0, 0.5], passes=3)
    # operation 0 ran in passes as 1.0*0.5, 3.0*1.0, 5.0*2.0
    assert harness.calibrated_per_op(log) == [3.0, 3.0]
    result, elapsed, factor = harness.time_calibrated(lambda: "done")
    assert result == "done" and elapsed >= 0 and factor > 0


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(harness.PER_LAYER)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(set(names)) == len(names)
    for name in names + list(harness.COUNTERS):
        assert NAME.match(name), name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
