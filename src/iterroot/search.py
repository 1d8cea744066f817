"""Exhaustive backtracking oracles for n-th iterative roots on small grounds.

The search assigns images point by point in index order; per point the
candidate image sets are tried in size-then-lexicographic order over bitmask
values, so the first witness found is the canonically least one and results
are deterministic.  Pruning uses two sound filters: decided parts of the
n-step orbit must stay inside the target image (with equality once fully
decided), and any root must commute with the target.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .core import Multifunction, SingleMap, bits, equals, iterate, iterate_map

DEFAULT_BUDGET = 5_000_000

# default refusal thresholds per constraint class; pass max_points to override
_MULTI_CAP_UNCONSTRAINED = 5
_MULTI_CAP_LOW_OUT = 6
_SINGLE_CAP = 8

UNCONSTRAINED_VARIANT = "unconstrained"
MAX_OUT_VARIANT = "max-out"
MAX_IN_VARIANT = "max-in"


@dataclass(frozen=True)
class RootConstraint:
    """Candidate class for the search: free, out-degree bounded, or in-degree bounded."""

    variant: str = UNCONSTRAINED_VARIANT
    bound: int | None = None
    require_total_domain: bool = False

    def __post_init__(self) -> None:
        if self.variant not in (UNCONSTRAINED_VARIANT, MAX_OUT_VARIANT, MAX_IN_VARIANT):
            raise ValueError(f"unknown constraint variant {self.variant!r}")
        if self.variant != UNCONSTRAINED_VARIANT and (self.bound is None or self.bound < 1):
            raise ValueError("degree-bounded constraints need a positive bound")


UNCONSTRAINED = RootConstraint()


def max_out_degree(bound: int, require_total_domain: bool = False) -> RootConstraint:
    return RootConstraint(MAX_OUT_VARIANT, bound, require_total_domain)


def max_in_degree(bound: int, require_total_domain: bool = False) -> RootConstraint:
    return RootConstraint(MAX_IN_VARIANT, bound, require_total_domain)


@dataclass(frozen=True)
class SearchResult:
    """Witness, proof of absence by exhaustion, or an exhausted node budget."""

    order: int
    constraint: RootConstraint | None
    outcome: str  # "witness" | "exhausted" | "budget"
    witness: object = None
    nodes_explored: int = 0
    budget: int = 0
    elapsed: float = field(default=0.0, compare=False)

    @property
    def found(self) -> bool:
        return self.outcome == "witness"


class _BudgetExceeded(Exception):
    pass


def _cap_for(constraint: RootConstraint) -> int:
    if constraint.variant == MAX_OUT_VARIANT and constraint.bound is not None and constraint.bound <= 2:
        return _MULTI_CAP_LOW_OUT
    return _MULTI_CAP_UNCONSTRAINED


def _consistent(imgs: list[int], decided: int, fimgs: tuple[int, ...], n: int) -> bool:
    """Sound check of the prefix assignment imgs[0:decided] against the target.

    Decided-path contributions to the n-step image are a lower bound of the
    eventual value, so they must lie inside the target image, with equality
    once every level of the orbit is decided.  The commutation of a root
    with its power is enforced the same way.
    """
    dmask = (1 << decided) - 1
    for x in range(decided):
        cur = 1 << x
        complete = True
        for _ in range(n):
            if cur & ~dmask:
                complete = False
            nxt = 0
            for y in bits(cur & dmask):
                nxt |= imgs[y]
            cur = nxt
        if complete:
            if cur != fimgs[x]:
                return False
        elif cur & ~fimgs[x]:
            return False
        # commutation filter: the two compositions of the root with the
        # target are both equal to the (n+1)-st power of the root
        fg = 0
        for y in bits(imgs[x]):
            fg |= fimgs[y]
        fx = fimgs[x]
        gf = 0
        for y in bits(fx & dmask):
            gf |= imgs[y]
        if fx & ~dmask:
            if gf & ~fg:
                return False
        elif gf != fg:
            return False
    return True


def find_multi_root(F: Multifunction, n: int, constraint: RootConstraint = UNCONSTRAINED,
                    budget: int = DEFAULT_BUDGET, max_points: int | None = None) -> SearchResult:
    """Search for a multifunction G with G^n = F inside the constraint class."""
    if n < 2:
        raise ValueError("root order must be at least 2")
    if budget <= 0:
        raise ValueError("budget must be positive")
    size = F.ground.size
    cap = max_points if max_points is not None else _cap_for(constraint)
    if size > cap:
        raise ValueError(
            f"ground of {size} points exceeds the cap {cap} for this constraint class; "
            "pass max_points to override")

    full = F.ground.full_mask
    candidates = sorted(range(full + 1), key=lambda m: (m.bit_count(), m))
    if constraint.variant == MAX_OUT_VARIANT:
        candidates = [m for m in candidates if m.bit_count() <= constraint.bound]
    if constraint.require_total_domain:
        candidates = [m for m in candidates if m]
    in_bound = constraint.bound if constraint.variant == MAX_IN_VARIANT else None

    start = time.perf_counter()
    imgs = [0] * size
    indeg = [0] * size
    nodes = 0

    def rec(i: int) -> bool:
        nonlocal nodes
        if i == size:
            return True
        for m in candidates:
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            if in_bound is not None:
                ok = True
                for y in bits(m):
                    indeg[y] += 1
                    if indeg[y] > in_bound:
                        ok = False
                if not ok:
                    for y in bits(m):
                        indeg[y] -= 1
                    continue
            imgs[i] = m
            if _consistent(imgs, i + 1, F.images, n) and rec(i + 1):
                return True
            if in_bound is not None:
                for y in bits(m):
                    indeg[y] -= 1
        return False

    try:
        found = rec(0)
    except _BudgetExceeded:
        return SearchResult(n, constraint, "budget", None, nodes, budget,
                           time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    if found:
        witness = Multifunction(F.ground, tuple(imgs))
        if not equals(iterate(witness, n), F):
            raise RuntimeError(f"search witness is not an order-{n} root of the target")
        return SearchResult(n, constraint, "witness", witness, nodes, budget, elapsed)
    return SearchResult(n, constraint, "exhausted", None, nodes, budget, elapsed)


def _map_consistent(g: list[int], i: int, fv: tuple[int, ...], n: int) -> bool:
    # decided points are exactly the indices 0..i
    for x in range(i + 1):
        fx = fv[x]
        if fx <= i and fv[g[x]] != g[fx]:
            return False
        cur = x
        complete = True
        for _ in range(n):
            if cur > i:
                complete = False
                break
            cur = g[cur]
        if complete and cur != fx:
            return False
    return True


def find_single_root(f: SingleMap, n: int, budget: int = DEFAULT_BUDGET,
                     max_points: int | None = None) -> SearchResult:
    """Search for a total map g with g^n = f, in canonical value order."""
    if n < 2:
        raise ValueError("root order must be at least 2")
    if budget <= 0:
        raise ValueError("budget must be positive")
    size = f.ground.size
    cap = max_points if max_points is not None else _SINGLE_CAP
    if size > cap:
        raise ValueError(
            f"ground of {size} points exceeds the single-map cap {cap}; "
            "pass max_points to override")

    start = time.perf_counter()
    g = [0] * size
    nodes = 0

    def rec(i: int) -> bool:
        nonlocal nodes
        if i == size:
            return True
        for v in range(size):
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            g[i] = v
            if _map_consistent(g, i, f.image, n) and rec(i + 1):
                return True
        return False

    try:
        found = rec(0)
    except _BudgetExceeded:
        return SearchResult(n, None, "budget", None, nodes, budget,
                           time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    if found:
        witness = SingleMap(f.ground, tuple(g))
        if iterate_map(witness, n) != f:
            raise RuntimeError(f"search witness is not an order-{n} root of the target")
        return SearchResult(n, None, "witness", witness, nodes, budget, elapsed)
    return SearchResult(n, None, "exhausted", None, nodes, budget, elapsed)
