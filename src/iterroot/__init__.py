"""Iterative roots of multifunctions on finite ground sets: nonexistence
certificates, pullback theory, fixed-point order exclusions, polynomial
advice, and exhaustive search oracles.

The package resolves its names on first use (PEP 562): ``import iterroot``
loads no submodule, and ``iterroot.scan`` or ``iterroot.search`` imports the
module that defines it, so a process pays only for the modules it touches.
It exports one name per concept; aliases and test oracles stay in their modules.
"""

# each submodule and the public names it defines
_EXPORTS = {
    "core": (
        "GroundSet", "Multifunction", "SingleMap", "as_single_map", "compose",
        "identity_map", "identity_multifunction", "invert", "iterate",
    ),
    "criteria": ("Certificate", "Conclusion", "Rule", "check_rule", "scan"),
    "fixedpoint": ("FixedPointProfile", "OrderExclusion", "fixed_point_profile"),
    "instances": (
        "InstanceSpec", "build", "cyclic_power", "f1", "f2", "fig67",
        "random_multifunction", "random_permutation", "random_single_map",
    ),
    "mfnio": ("ParseError", "parse", "serialize"),
    "paths": ("count_paths",),
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
