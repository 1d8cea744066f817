"""What a process loads: the package resolves its names on first use, and each
CLI command imports only the modules it runs."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterroot
from iterroot.instances import f1, fig67
from iterroot.mfnio import serialize

ENV = dict(os.environ, PYTHONPATH=str(Path(iterroot.__file__).parent.parent))

# the public names of the package, by defining module
EXPORTS = {
    "core": ["GroundSet", "Multifunction", "SingleMap", "StructuralProfile", "as_single_map",
             "compose", "equals", "identity_map", "identity_multifunction", "invert",
             "iterate", "iterate_map", "profile"],
    "criteria": ["Certificate", "Conclusion", "Rule", "check_forward_paths",
                 "check_forward_points", "check_inverse_paths", "check_inverse_points", "scan"],
    "fixedpoint": ["FixedPointProfile", "OrderExclusion", "fixed_point_profile",
                   "non_isolated_exclusion", "rice_exclusion"],
    "instances": ["InstanceSpec", "build", "cyclic_power", "f1", "f2", "fig67",
                  "random_multifunction", "random_permutation", "random_single_map"],
    "mfnio": ["ParseError", "parse", "serialize"],
    "paths": ["count_paths", "path_matrix"],
    "poly": ["ComplexPolynomial", "PolyAdvice", "advise", "first_solar", "solar_criterion"],
    "pullback": ["PullbackWitness", "decomposition_check", "is_pullback", "pullback_of",
                 "transfer_root"],
    "search": ["RootConstraint", "SearchResult", "UNCONSTRAINED", "find_multi_root",
               "find_single_root", "max_in_degree", "max_out_degree"],
}


# prints the iterroot modules a process has loaded, on stderr
_DUMP = 'print(*sorted(m for m in sys.modules if m.split(".")[0] == "iterroot"), file=sys.stderr)'
# runs its argv as ``python -m iterroot.cli`` would and dumps the modules at exit
_RUN_CLI = f"""
import atexit, runpy, sys
atexit.register(lambda: {_DUMP})
runpy.run_module("iterroot.cli", run_name="__main__", alter_sys=True)
"""


def loaded_modules(code, *argv):
    """The iterroot modules in sys.modules when ``python -c code *argv`` exits, and its stdout."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1), proc.stderr
    return set(proc.stderr.splitlines()[-1].split()), proc.stdout


def test_bare_import_loads_no_submodule():
    assert loaded_modules(f"import iterroot, sys; {_DUMP}") == ({"iterroot"}, "")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name, value in (("multi", f1(3)), ("single", fig67()[1])):
        (root / f"{name}.mfn").write_text(serialize(value), encoding="utf-8")
    return {name: str(root / f"{name}.mfn") for name in ("multi", "single")}


COMMANDS = [
    (["check", "multi", "--M", "2"], {"criteria"}),
    (["search", "single", "--order", "2"], {"search"}),
    (["iterate", "multi", "--order", "3"], set()),
    (["invert", "multi"], set()),
    (["pullback", "single"], {"pullback"}),
    (["paths", "multi", "--from", "x0", "--to", "x3", "--length", "3"], {"paths"}),
    (["fixedpoints", "single"], {"fixedpoint"}),
    (["poly", "--coeffs", "0,0,1", "--order", "3"], {"fixedpoint", "poly"}),
    (["solar", "--count", "5"], {"fixedpoint", "poly"}),
    (["instance", "f1", "--depth", "3"], {"instances"}),
]


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_each_command_loads_only_its_modules(files, argv, modules):
    argv = [files.get(arg, arg) for arg in argv]
    loaded, out = loaded_modules(_RUN_CLI, *argv)
    assert out
    assert loaded == {"iterroot"} | {f"iterroot.{m}" for m in {"core", "mfnio", *modules}}


def test_package_exports_the_same_names_and_objects():
    names = [name for module_names in EXPORTS.values() for name in module_names]
    assert len(names) + len(EXPORTS) == 66
    assert sorted(iterroot.__all__) == sorted([*names, *EXPORTS])
    assert set(iterroot.__all__) <= set(dir(iterroot))
    for module_name, module_names in EXPORTS.items():
        module = importlib.import_module(f"iterroot.{module_name}")
        assert getattr(iterroot, module_name) is module
        for name in module_names:
            assert getattr(iterroot, name) is getattr(module, name), name
    namespace = {}
    exec("from iterroot import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(iterroot.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        iterroot.no_such_name
    assert not hasattr(iterroot, "cli_main")


# names no command, module or benchmark probe read, deleted with no alias left behind
REMOVED = {
    "core": ["compose_map", "image", "inverse_image", "mask_of", "set_of"],
    "criteria": ["CHECKERS"],
    "paths": ["PathCountMatrix", "count_paths_dfs"],
}


def test_removed_names_do_not_resolve():
    for module_name, module_names in REMOVED.items():
        module = importlib.import_module(f"iterroot.{module_name}")
        for name in module_names:
            assert not hasattr(module, name), name
            assert not hasattr(iterroot, name), name
    core = importlib.import_module("iterroot.core")
    for owner, name in ((core.GroundSet, "full_mask"), (core.Multifunction, "image_set"),
                        (core.Multifunction, "out_degree")):
        assert not hasattr(owner, name), name


def test_submodule_by_attribute_after_a_bare_import():
    code = ("import iterroot\n"
            "f = iterroot.instances.random_single_map(6, seed=1)\n"
            "g = iterroot.iterate_map(f, 2)\n"
            "result = iterroot.search.find_single_root(g, 2)\n"
            "print(result.found, iterroot.iterate_map(result.witness, 2) == g)")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True\n", "")
