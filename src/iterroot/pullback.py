"""Pullback multifunctions of single-valued maps and root transfer.

The pullback of a map f sends each point to the full f-preimage of that
point, so it is ``invert(f)``.  A multifunction F is such a pullback exactly
when it is total and its inversion is a map, every row of ``invert(F)`` one
point (F's values are pairwise disjoint and cover the ground set), and that
map is the witness.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Multifunction, SingleMap, _count, compose, invert, iterate


def pullback_of(f: SingleMap) -> Multifunction:
    """The multifunction x -> preimage of x under f."""
    return invert(f)


@dataclass(frozen=True)
class PullbackWitness:
    is_pullback: bool
    witness_map: SingleMap | None
    failed_conditions: frozenset[str]


def is_pullback(F: Multifunction) -> PullbackWitness:
    """Decide pullback membership in O(size + edges); failures are reported, never raised."""
    sources = invert(F).rows  # sources[x]: the points y with x in F(y)
    failed = set()
    if max(map(len, sources)) > 1:
        failed.add("disjointness")
    if not all(sources):
        failed.add("surjectivity")
    if not all(F.rows):
        failed.add("totality")
    if failed:
        return PullbackWitness(False, None, frozenset(failed))
    return PullbackWitness(True, SingleMap(F.ground, tuple(y for (y,) in sources)), frozenset())


@dataclass(frozen=True)
class DecompositionReport:
    """Conclusions that pullback structure forces on a factorization F = G1 o G2."""

    applicable: bool
    failed_preconditions: tuple[str, ...]
    im_g1_full: bool | None = None
    g2_values_disjoint: bool | None = None
    root_is_pullback: bool | None = None


def decomposition_check(F: Multifunction, G1: Multifunction, G2: Multifunction,
                        root: Multifunction | None = None,
                        order: int | None = None) -> DecompositionReport:
    """Verify the closure conclusions for a factorization of a pullback F.

    ``root``/``order`` optionally name an n-th root G with G^n = F, in which
    case the report also records whether G itself is a pullback.
    """
    failed = []
    if compose(G1, G2) != F:
        failed.append("factorization")
    for name, H in (("totality", F), ("totality_g1", G1), ("totality_g2", G2)):
        if not all(H.rows):
            failed.append(name)
    if not is_pullback(F).is_pullback:
        failed.append("pullback")
    if root is not None:
        if order is None or order < 2:
            failed.append("root_order")
        elif iterate(root, order) != F or not all(root.rows):
            failed.append("root_identity")
    if failed:
        return DecompositionReport(False, tuple(failed))
    root_is_pullback = is_pullback(root).is_pullback if root is not None else None
    return DecompositionReport(True, (), all(invert(G1).rows),
                               max(map(len, invert(G2).rows)) <= 1, root_is_pullback)


@dataclass(frozen=True)
class TransferReport:
    """Agreement between a map root relation and its pullback root relation."""

    applicable: bool
    map_root_holds: bool | None = None
    pullback_root_holds: bool | None = None
    agree: bool | None = None


def transfer_root(f: SingleMap, g: SingleMap, n: int) -> TransferReport:
    """Compare g^n = f with (pullback g)^n = pullback f; the two must agree."""
    if f.ground != g.ground:
        raise ValueError("maps must share a ground set")
    n = _count(n, 2, "root order must be at least 2")
    pullback_f = pullback_of(f)
    if not all(pullback_f.rows):  # f is not onto
        return TransferReport(False)
    map_side = iterate(g, n) == f
    pullback_side = iterate(pullback_of(g), n) == pullback_f
    return TransferReport(True, map_side, pullback_side, map_side == pullback_side)
