"""``check``, ``invert`` and ``pullback`` of a 200,000-point map, and one-node
``search``es of a 200,000-cycle, alone and with one point off it, each in a
process capped at 1 GiB of address space.

Size-bit image masks made these commands quadratic: at 100,000 points ``check``
took 1.2 GB, and the search of the 200,000-cycle ran out of memory under the cap.
On index rows and lists they are O(size + edges), so the cap is far above what
they need, and a return to masks fails here with MemoryError.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SIZE = 200_000
ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 120
SRC = str(Path(__file__).resolve().parent.parent / "src")
# the CLI's own entry point, after lowering this process's address-space limit
_CAPPED = ("import resource, runpy, sys; "
           f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE})); "
           "runpy.run_module('iterroot.cli', run_name='__main__')")


def _run(*args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", _CAPPED, *args], env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


@pytest.fixture(scope="module")
def large_map(tmp_path_factory):
    made = _run("instance", "random-map", "--size", str(SIZE), "--seed", "1")
    assert made.returncode == 0 and not made.stderr, made.stderr
    path = tmp_path_factory.mktemp("large") / "map.mfn"
    path.write_text(made.stdout, encoding="utf-8")
    return path, made.stdout


def _pullback_text(map_text):
    """The pullback x -> f^-1(x) in .mfn form, from the fibres of the map's lines."""
    header, kind, *edges = map_text.splitlines()
    assert kind == "kind single" and len(edges) == SIZE
    labels = header.split()[1:]
    index = {label: i for i, label in enumerate(labels)}
    fibres = [[] for _ in labels]
    for line in edges:  # sources in declaration order, so each fibre comes out sorted
        source, _, target = line.split()
        fibres[index[target]].append(source)
    return "\n".join([header] + [f"{labels[y]} -> {' '.join(fibre)}"
                                 for y, fibre in enumerate(fibres) if fibre]) + "\n"


def test_check_of_a_large_map_runs_in_bounded_memory(large_map):
    path, _ = large_map
    proc = _run("check", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "no certificate fires\n", "")


def test_invert_and_pullback_of_a_large_map_print_its_fibres(large_map):
    path, text = large_map
    expected = _pullback_text(text)
    for command in ("invert", "pullback"):
        proc = _run(command, str(path))
        assert (proc.returncode, proc.stderr) == (0, ""), (command, proc.stderr)
        assert proc.stdout == expected, command


def test_search_of_a_large_cycle_reaches_its_budget_in_bounded_memory(tmp_path):
    # x -> x + 7 mod SIZE is one SIZE-cycle, which passes the cycle-type test at
    # order 3 (at order 2 it is refused before the search starts), so the search
    # sets up every point's bounds and explores its one node
    made = _run("instance", "cyclic-power", "--modulus", str(SIZE), "--exponent", "7")
    assert made.returncode == 0 and not made.stderr, made.stderr
    path = tmp_path / "cycle.mfn"
    path.write_text(made.stdout, encoding="utf-8")
    proc = _run("search", str(path), "--order", "3", "--budget", "1", "--json")
    assert (proc.returncode, proc.stderr) == (3, "")
    assert proc.stdout == ('{\n  "nodes_explored": "1",\n  "order": 3,\n'
                           '  "outcome": "budget",\n  "witness": null\n}\n')


def test_search_of_a_large_cycle_with_a_tail_reads_its_symmetries_in_bounded_memory(tmp_path):
    # one point mapped onto the 200,000-cycle gives the map a point off its cycles,
    # so the search reads the AHU codes of its in-trees and the least rotation of
    # the cycle's codes, which must stay linear, before it explores its one node
    made = _run("instance", "cyclic-power", "--modulus", str(SIZE), "--exponent", "7")
    assert made.returncode == 0 and not made.stderr, made.stderr
    header, kind, *edges = made.stdout.splitlines()
    path = tmp_path / "tailed-cycle.mfn"
    path.write_text("\n".join([header + " tail", kind, *edges, "tail -> 0"]) + "\n",
                    encoding="utf-8")
    proc = _run("search", str(path), "--order", "3", "--budget", "1", "--json")
    assert (proc.returncode, proc.stderr) == (3, "")
    assert proc.stdout == ('{\n  "nodes_explored": "1",\n  "order": 3,\n'
                           '  "outcome": "budget",\n  "witness": null\n}\n')
