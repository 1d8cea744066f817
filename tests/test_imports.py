"""What a process loads: the package resolves its names on first use, and each
CLI command imports only the modules it runs."""
import importlib
import itertools
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import iterroot
from iterroot import core, criteria, fixedpoint
from iterroot.core import invert, iterate
from iterroot.criteria import Rule, check_rule
from iterroot.fixedpoint import fixed_point_profile
from iterroot.instances import f1, f2, fig67, random_multifunction, random_single_map
from iterroot.mfnio import serialize

ENV = dict(os.environ, PYTHONPATH=str(Path(iterroot.__file__).parent.parent))

# the public names of the package, by defining module
EXPORTS = {
    "core": ["GroundSet", "Multifunction", "SingleMap", "as_single_map", "compose",
             "identity_map", "identity_multifunction", "invert", "iterate"],
    "criteria": ["Certificate", "Conclusion", "Rule", "check_rule", "scan"],
    "fixedpoint": ["FixedPointProfile", "OrderExclusion", "fixed_point_profile"],
    "instances": ["InstanceSpec", "build", "cyclic_power", "f1", "f2", "fig67",
                  "random_multifunction", "random_permutation", "random_single_map"],
    "mfnio": ["ParseError", "parse", "serialize"],
    "paths": ["count_paths"],
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
    assert len(names) + len(EXPORTS) == 56
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


# names the benchmark's probes read as module attributes, which the package does
# not export: aliases and fixed-rule wrappers of an exported name, and the dense
# path_matrix and the structural profile, which the tests keep as oracles
MODULE_ONLY = {
    "core": ["StructuralProfile", "equals", "iterate_map", "profile"],
    "criteria": ["check_forward_paths", "check_forward_points", "check_inverse_paths",
                 "check_inverse_points"],
    "fixedpoint": ["non_isolated_exclusion", "rice_exclusion"],
    "paths": ["path_matrix"],
}


def test_module_only_names_resolve_from_their_modules_alone():
    for module_name, module_names in MODULE_ONLY.items():
        module = importlib.import_module(f"iterroot.{module_name}")
        for name in module_names:
            assert callable(getattr(module, name)), name
            assert name not in dir(iterroot), name
            with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
                getattr(iterroot, name)
    assert iterroot.check_rule is criteria.check_rule


# each alias and fixed-rule wrapper equals its canonical form on the exported names
def _pin_equals():
    values = [random_multifunction(4, seed=s % 5) for s in range(10)]
    for F, G in itertools.product(values, repeat=2):
        assert core.equals(F, G) is (F == G)


def _pin_iterate_map():
    assert core.iterate_map is iterate


def _pin_wrapper(rule):
    wrapper = getattr(criteria, f"check_{rule.name.lower()}")
    for F in (f1(3), f2(3), invert(f1(3)), *(random_multifunction(5, seed=s) for s in range(8))):
        for x0, M, N in itertools.product(range(F.ground.size), (1, 2), (1, 2)):
            assert wrapper(F, x0, M, N) == check_rule(F, rule, M, [x0], N)[0]


def _pin_exclusion(name):
    for f in (fig67()[0], *(random_single_map(6, seed=s) for s in range(40))):
        assert getattr(fixedpoint, name)(f) == getattr(fixed_point_profile(f), name)()


PINS = {
    "equals": _pin_equals,
    "iterate_map": _pin_iterate_map,
    **{f"check_{rule.name.lower()}": partial(_pin_wrapper, rule) for rule in Rule},
    **{name: partial(_pin_exclusion, name)
       for name in ("rice_exclusion", "non_isolated_exclusion")},
}


@pytest.mark.parametrize("pin", PINS.values(), ids=PINS)
def test_module_only_alias_equals_its_canonical_form(pin):
    pin()


def test_submodule_by_attribute_after_a_bare_import():
    code = ("import iterroot\n"
            "f = iterroot.instances.random_single_map(6, seed=1)\n"
            "g = iterroot.iterate(f, 2)\n"
            "result = iterroot.search.find_single_root(g, 2)\n"
            "print(result.found, iterroot.iterate(result.witness, 2) == g)")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True\n", "")
