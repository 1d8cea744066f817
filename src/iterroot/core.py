"""Finite ground sets, multifunctions, single-valued maps, and their algebra.

Points are dense indices ``0..size-1`` with a label table.  Image sets are
stored as integer bitmasks keyed by index, so membership tests and unions
are O(1) word operations.  All values are immutable after construction and
every operation is a pure function of its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_of(images: list[int] | tuple[int, ...], mask: int) -> int:
    """The union of images[y] over the points y of mask."""
    out = 0
    for y in bits(mask):
        out |= images[y]
    return out


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


@dataclass(frozen=True)
class GroundSet:
    """An ordered finite set of distinct point labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("ground set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("ground set labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}") from None


@dataclass(frozen=True)
class Multifunction:
    """A function from a ground set into its power set; equivalently a digraph.

    ``images[x]`` is the bitmask of points in the image of point ``x``.
    Empty images are legal, so a proper subdomain is representable.
    """

    ground: GroundSet
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.ground.size:
            raise ValueError("one image mask per point required")
        size = self.ground.size
        for x, m in enumerate(self.images):
            if m < 0 or m.bit_length() > size:
                raise ValueError(f"image of point {x} is out of range")

    @classmethod
    def from_sets(cls, ground: GroundSet, images: Iterable[Iterable[int]]) -> "Multifunction":
        return cls(ground, tuple(mask_of(s) for s in images))

    def image_set(self, x: int) -> frozenset[int]:
        return set_of(self.images[x])

    def out_degree(self, x: int) -> int:
        return self.images[x].bit_count()


@dataclass(frozen=True)
class SingleMap:
    """A total single-valued self-map of a ground set."""

    ground: GroundSet
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "image", tuple(self.image))
        if len(self.image) != self.ground.size:
            raise ValueError("single map must be total")
        for x, y in enumerate(self.image):
            if not 0 <= y < self.ground.size:
                raise ValueError(f"image of point {x} is out of range")

    def __call__(self, x: int) -> int:
        return self.image[x]

    def as_multifunction(self) -> Multifunction:
        return Multifunction(self.ground, tuple(1 << y for y in self.image))


def as_single_map(F: Multifunction) -> SingleMap:
    """Convert a multifunction whose images are all singletons."""
    image = []
    for x, m in enumerate(F.images):
        if m.bit_count() != 1:
            raise ValueError(f"image of point {x} is not a singleton")
        image.append(m.bit_length() - 1)
    return SingleMap(F.ground, tuple(image))


def identity_multifunction(ground: GroundSet) -> Multifunction:
    return Multifunction(ground, tuple(1 << x for x in range(ground.size)))


def identity_map(ground: GroundSet) -> SingleMap:
    return SingleMap(ground, tuple(range(ground.size)))


def compose(F: Multifunction | SingleMap,
            G: Multifunction | SingleMap) -> Multifunction | SingleMap:
    """Return F after G, of the kind of its operands: ``(F o G)(x)`` is F(G(x))
    for maps and the union of F over G(x) for multifunctions, so the cost is
    the edge count of G."""
    if F.ground != G.ground:
        raise ValueError("composition requires a shared ground set")
    if type(F) is not type(G):
        raise TypeError("composition requires two maps or two multifunctions")
    if isinstance(G, SingleMap):
        return SingleMap(F.ground, tuple(F.image[y] for y in G.image))
    return Multifunction(F.ground, [union_of(F.images, m) for m in G.images])


def iterate(F: Multifunction | SingleMap, n: int) -> Multifunction | SingleMap:
    """The n-th iterate, of the kind of F; the 0-th iterate is the identity.

    Right-to-left binary exponentiation in O(log n) compositions.  Each
    multiply is ``compose(base, result)``, which unions over the lower power
    accumulated so far rather than over ``base = F^(2^k)``.
    """
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    result = (identity_map if isinstance(F, SingleMap) else identity_multifunction)(F.ground)
    base = F
    while n:
        if n & 1:
            result = compose(base, result)
        n >>= 1
        if n:
            base = compose(base, base)
    return result


# public names kept for callers of the map forms; both serve maps and multifunctions
compose_map = compose
iterate_map = iterate


def image(F: Multifunction, A: Iterable[int]) -> frozenset[int]:
    """The image of a point set: the union of the images of its points."""
    return set_of(union_of(F.images, mask_of(A)))


def inverse_image(F: Multifunction, A: Iterable[int], k: int) -> frozenset[int]:
    """Points whose k-step image meets A, for k >= 1."""
    if k < 1:
        raise ValueError("inverse image order must be at least 1")
    amask = mask_of(A)
    if amask & ~F.ground.full_mask:
        raise ValueError("point set not contained in the ground set")
    Fk = iterate(F, k)
    return frozenset(x for x in range(F.ground.size) if Fk.images[x] & amask)


def invert(F: Multifunction | SingleMap) -> Multifunction:
    """Reverse every edge of the graph of F; for a map f, its pullback x -> f^-1(x)."""
    inv = [0] * F.ground.size
    if isinstance(F, SingleMap):
        for x, y in enumerate(F.image):
            inv[y] |= 1 << x
    else:
        for x, m in enumerate(F.images):
            bit = 1 << x
            while m:  # the set bits inline: a generator per image costs more than the walk
                low = m & -m
                inv[low.bit_length() - 1] |= bit
                m ^= low
    return Multifunction(F.ground, tuple(inv))


def equals(F: Multifunction, G: Multifunction) -> bool:
    return F.ground == G.ground and F.images == G.images


@dataclass(frozen=True)
class StructuralProfile:
    """Degrees, domain/image, set-value points and fixed memberships of a multifunction."""

    domain: frozenset[int]
    image: frozenset[int]
    set_value_points: frozenset[int]
    max_out_degree: int
    max_in_degree: int
    fixed_membership: frozenset[int]
    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]


def profile(F: Multifunction) -> StructuralProfile:
    size = F.ground.size
    out_degrees = tuple(m.bit_count() for m in F.images)
    indeg = [0] * size
    im = 0
    for m in F.images:
        im |= m
        for y in bits(m):
            indeg[y] += 1
    return StructuralProfile(
        domain=frozenset(x for x in range(size) if F.images[x]),
        image=set_of(im),
        set_value_points=frozenset(x for x in range(size) if out_degrees[x] >= 2),
        max_out_degree=max(out_degrees),
        max_in_degree=max(indeg),
        fixed_membership=frozenset(x for x in range(size) if F.images[x] >> x & 1),
        out_degrees=out_degrees,
        in_degrees=tuple(indeg),
    )
