"""Iterative roots of multifunctions on finite ground sets: nonexistence
certificates, pullback theory, fixed-point order exclusions, polynomial
advice, and exhaustive search oracles.

The package resolves its names on first use (PEP 562): ``import iterroot``
loads no submodule, and ``iterroot.scan`` or ``iterroot.search`` imports the
module that defines it, so a process pays only for the modules it touches.
"""

# each submodule and the public names it defines; equals, iterate_map, profile,
# StructuralProfile, path_matrix, the check_* rules and the two fixedpoint
# exclusions serve no command or module, only the benchmark's probes in bench/
_EXPORTS = {
    "core": (
        "GroundSet", "Multifunction", "SingleMap", "StructuralProfile", "as_single_map",
        "compose", "equals", "identity_map", "identity_multifunction", "invert", "iterate",
        "iterate_map", "profile",
    ),
    "criteria": (
        "Certificate", "Conclusion", "Rule", "check_forward_paths", "check_forward_points",
        "check_inverse_paths", "check_inverse_points", "scan",
    ),
    "fixedpoint": (
        "FixedPointProfile", "OrderExclusion", "fixed_point_profile",
        "non_isolated_exclusion", "rice_exclusion",
    ),
    "instances": (
        "InstanceSpec", "build", "cyclic_power", "f1", "f2", "fig67",
        "random_multifunction", "random_permutation", "random_single_map",
    ),
    "mfnio": ("ParseError", "parse", "serialize"),
    "paths": ("count_paths", "path_matrix"),
    "poly": ("ComplexPolynomial", "PolyAdvice", "advise", "first_solar", "solar_criterion"),
    "pullback": (
        "PullbackWitness", "decomposition_check", "is_pullback", "pullback_of",
        "transfer_root",
    ),
    "search": (
        "RootConstraint", "SearchResult", "UNCONSTRAINED", "find_multi_root",
        "find_single_root", "max_in_degree", "max_out_degree",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which also binds the submodule here and
    # is the one that -X importtime reports
    __import__(f"{__name__}.{module}")
    if name != module:  # stored, so later lookups do not come here
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
