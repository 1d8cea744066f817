"""Fixed-point structure of single maps and the order exclusions it implies.

A fixed point is non-isolated when some other point maps onto it; its tail
is its preimage minus itself.  Two exclusion rules are derived from the
profile: one bounds root orders by the total tail mass, the other combines
a tail-size bound with a divisibility condition on the candidate order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import SingleMap, invert


@dataclass(frozen=True)
class FixedPointProfile:
    """Fixed points of a map with per-point tails and preimage flags.

    ``total_tail_size`` is the size of the union of the tails over the
    non-isolated fixed points.
    """

    fixed_points: tuple[int, ...]
    tails: dict[int, frozenset[int]]
    non_isolated: tuple[int, ...]
    total_tail_size: int
    tail_preimage_nonempty: dict[int, bool]  # keyed by the tail points

    def rice_exclusion(self) -> OrderExclusion | None:
        """Exclude orders above the total tail mass, when some tail point has a preimage."""
        if not any(self.tail_preimage_nonempty.values()):
            return None
        return OrderExclusion(self.total_tail_size, None)

    def non_isolated_exclusion(self) -> OrderExclusion | None:
        """Exclude orders above the largest tail size that are coprime to every
        m up to the number of non-isolated fixed points.

        Requires at least two non-isolated fixed points and a nonempty preimage
        for every tail point; the count k is always taken from the full profile.
        """
        k = len(self.non_isolated)
        if k < 2 or not all(self.tail_preimage_nonempty.values()):
            return None
        l = max(len(self.tails[x]) for x in self.non_isolated)
        return OrderExclusion(l, k)


@dataclass(frozen=True)
class OrderExclusion:
    """Orders n > lower_bound are excluded, optionally only when no m in
    [2, forbidden_divisor_max] divides n; or, when given, exactly ``orders``."""

    lower_bound: int
    forbidden_divisor_max: int | None
    orders: frozenset[int] | None = None

    def excludes(self, n: int) -> bool:
        if self.orders is not None:
            return n in self.orders
        if n <= self.lower_bound:
            return False
        if self.forbidden_divisor_max is None:
            return True
        return all(n % m for m in range(2, self.forbidden_divisor_max + 1))

    def describe(self) -> str:
        if self.orders is not None:
            return "orders " + ", ".join(map(str, sorted(self.orders)))
        if self.forbidden_divisor_max is None:
            return f"all orders n > {self.lower_bound}"
        return (f"orders n > {self.lower_bound} with no divisor in "
                f"[2, {self.forbidden_divisor_max}]")


def fixed_point_profile(f: SingleMap) -> FixedPointProfile:
    preimages = invert(f).rows
    fixed = tuple(x for x, y in enumerate(f.image) if x == y)
    tails = {x: frozenset(preimages[x]) - {x} for x in fixed}
    non_isolated = tuple(x for x in fixed if tails[x])
    # the tails are disjoint, since each point has one image
    total = sum(len(tails[x]) for x in non_isolated)
    flags = {y: bool(preimages[y]) for x in non_isolated for y in tails[x]}
    return FixedPointProfile(fixed, tails, non_isolated, total, flags)


def rice_exclusion(f: SingleMap) -> OrderExclusion | None:
    """``FixedPointProfile.rice_exclusion`` of f's profile."""
    return fixed_point_profile(f).rice_exclusion()


def non_isolated_exclusion(f: SingleMap) -> OrderExclusion | None:
    """``FixedPointProfile.non_isolated_exclusion`` of f's profile."""
    return fixed_point_profile(f).non_isolated_exclusion()
