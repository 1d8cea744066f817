"""Finite ground sets, multifunctions, single-valued maps, and their algebra.

Points are dense indices ``0..size-1`` with a label table.  A multifunction's
images are index lists, the sorted ``rows``, so readers that walk edges
(``invert``, ``profile``, the certificates, path counts, the .mfn format)
cost O(size + edges).  ``images``, the same sets as integer bitmasks, serve
``compose``/``iterate`` and the search engines, whose unions and membership
tests are word operations on small grounds; a mask of a point near index n
takes about n/8 bytes, so masks of a large sparse ground are O(n^2) memory.
No operation changes a value after construction (a multifunction only
fills in its derived form), and every operation is a pure function of its
inputs.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, compress, count
from typing import Iterable, Iterator, Sequence


def _count(value, least: int | None, message: str) -> int:
    """``value`` as an int, when it is an integer of at least ``least`` (any integer
    for None); otherwise ValueError(message), and a non-integer's message also says so."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{message}; counts must be integers, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(message)
    return value


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


_BIT = (1).__lshift__  # y -> 1 << y; the sum over a row's distinct indices is its mask
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int) -> bytes:
    """Byte y is 1 where bit y of ``mask`` is set: the selectors ``compress`` reads."""
    return bin(mask)[:1:-1].encode().translate(_DIGITS)


def _row_of(mask: int) -> tuple[int, ...]:
    return tuple(compress(count(), _flags(mask)))


@dataclass(frozen=True)
class GroundSet:
    """An ordered finite set of distinct point labels."""

    labels: tuple[str, ...]
    # label -> index, built by the first ``index`` call, not by construction
    _positions: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("ground set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("ground set labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if self._positions is None:
            object.__setattr__(self, "_positions",
                               {lab: x for x, lab in enumerate(self.labels)})
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise ValueError(f"unknown label {label!r}") from None


def _first_out_of_range(entries: tuple, bad) -> None:
    """Raise the range error at the first point x whose entry ``bad`` flags; the
    callers look for it only once a C-level min/max has found one."""
    x = next(x for x, v in enumerate(entries) if bad(v))
    raise ValueError(f"image of point {x} is out of range")


class Multifunction:
    """A function from a ground set into its power set; equivalently a digraph.

    ``rows[x]`` is the sorted tuple of the indices in the image of point ``x``,
    and ``images[x]`` the same set as a bitmask.  A value holds the form it was
    built in (rows by ``from_sets`` and by every producer that collects index
    lists; masks by the constructor, and so by ``compose`` and ``iterate``) and
    derives the other on first use, keeping it; equal values compare and hash
    alike whichever form they hold.  Empty images are legal, so a proper
    subdomain is representable.
    """

    __slots__ = ("ground", "_rows", "_images")

    def __init__(self, ground: GroundSet, images: Iterable[int]) -> None:
        images = tuple(images)
        size = ground.size
        if len(images) != size:
            raise ValueError("one image mask per point required")
        if min(images) < 0 or max(map(int.bit_length, images)) > size:
            _first_out_of_range(images, lambda m: m < 0 or m.bit_length() > size)
        self.ground, self._rows, self._images = ground, None, images

    @classmethod
    def from_sets(cls, ground: GroundSet, images: Iterable[Iterable[int]]) -> "Multifunction":
        """The multifunction with image ``images[x]`` at x, given as any iterables of indices."""
        rows = tuple(tuple(sorted(set(map(operator.index, s)))) for s in images)
        size = ground.size
        if len(rows) != size:
            raise ValueError("one image mask per point required")
        if (min(chain.from_iterable(rows), default=0) < 0
                or max(chain.from_iterable(rows), default=0) >= size):
            _first_out_of_range(rows, lambda r: r and (r[0] < 0 or r[-1] >= size))
        return cls._of_rows(ground, rows)

    @classmethod
    def _of_rows(cls, ground: GroundSet, rows: tuple[tuple[int, ...], ...]) -> "Multifunction":
        """Wrap rows already known to be one sorted in-range tuple per point."""
        F = cls.__new__(cls)
        F.ground, F._rows, F._images = ground, rows, None
        return F

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if self._rows is None:
            self._rows = tuple(map(_row_of, self._images))
        return self._rows

    @property
    def images(self) -> tuple[int, ...]:
        if self._images is None:
            self._images = tuple(sum(map(_BIT, row)) for row in self._rows)
        return self._images

    def select(self, items: Sequence) -> Iterator[Iterable]:
        """Per point x, the ``items[y]`` for y in its image, ascending in y, read in C
        from the form held; a mask-held value keeps no rows for it, so a dense
        ``iterate`` result costs no int object per edge."""
        if self._rows is not None:
            pick = items.__getitem__
            return (map(pick, row) for row in self._rows)
        return (compress(items, _flags(m)) for m in self._images)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multifunction):
            return NotImplemented
        return self.ground == other.ground and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ground, self.rows))

    def __repr__(self) -> str:
        return f"Multifunction.from_sets({self.ground!r}, {self.rows!r})"


@dataclass(frozen=True)
class SingleMap:
    """A total single-valued self-map of a ground set."""

    ground: GroundSet
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = self.image
        # a tuple of ints is kept, not rebuilt, and compose and invert build theirs from
        # lists: CPython resizes a tuple built from an iterator of unknown length, and
        # parks it, once freed, on a free list that only tuples built at their length
        # draw from, so every search would leave more there, up to 2,000 per length
        if type(image) is not tuple or set(map(type, image)) != {int}:
            image = tuple(map(operator.index, image))
            object.__setattr__(self, "image", image)
        size = self.ground.size
        if len(image) != size:
            raise ValueError("single map must be total")
        if min(image) < 0 or max(image) >= size:
            _first_out_of_range(image, lambda y: not 0 <= y < size)

    def __call__(self, x: int) -> int:
        return self.image[x]

    def as_multifunction(self) -> Multifunction:
        return Multifunction._of_rows(self.ground, tuple((y,) for y in self.image))


def as_single_map(F: Multifunction) -> SingleMap:
    """Convert a multifunction whose images are all singletons."""
    image = []
    for x, row in enumerate(F.rows):
        if len(row) != 1:
            raise ValueError(f"image of point {x} is not a singleton")
        image.append(row[0])
    return SingleMap(F.ground, tuple(image))


def identity_multifunction(ground: GroundSet) -> Multifunction:
    return Multifunction._of_rows(ground, tuple((x,) for x in range(ground.size)))


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
        return SingleMap(F.ground, tuple([F.image[y] for y in G.image]))
    return Multifunction(F.ground, [union_of(F.images, m) for m in G.images])


def iterate(F: Multifunction | SingleMap, n: int) -> Multifunction | SingleMap:
    """The n-th iterate, of the kind of F; the 0-th iterate is the identity.

    Right-to-left binary exponentiation in O(log n) compositions.  Each
    multiply is ``compose(base, result)``, which unions over the lower power
    accumulated so far rather than over ``base = F^(2^k)``.
    """
    n = _count(n, 0, "iteration count must be nonnegative")
    result = (identity_map if isinstance(F, SingleMap) else identity_multifunction)(F.ground)
    base = F
    while n:
        if n & 1:
            result = compose(base, result)
        n >>= 1
        if n:
            base = compose(base, base)
    return result


# the map-form name of ``iterate``, which serves maps and multifunctions alike
iterate_map = iterate


def _in_degrees(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """Per point y, the number of ``rows`` that hold y: one pass over the edges, with
    no list of sources per point."""
    degrees = [0] * len(rows)
    for row in rows:
        for y in row:
            degrees[y] += 1
    return degrees


def invert(F: Multifunction | SingleMap) -> Multifunction:
    """Reverse every edge of the graph of F; for a map f, its pullback x -> f^-1(x).
    Row y lists the points x with y in F(x) (with f(x) = y for a map), ascending:
    sources are visited in order, so each row comes out sorted."""
    preds = [[] for _ in range(F.ground.size)]
    if isinstance(F, SingleMap):
        for x, y in enumerate(F.image):
            preds[y].append(x)
    else:
        for x, row in enumerate(F.rows):
            for y in row:
                preds[y].append(x)
    return Multifunction._of_rows(F.ground, tuple(list(map(tuple, preds))))


def equals(F: Multifunction, G: Multifunction) -> bool:
    return F == G


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
    rows = F.rows
    size = F.ground.size
    out_degrees = tuple(map(len, rows))
    in_degrees = tuple(_in_degrees(rows))
    return StructuralProfile(
        domain=frozenset(x for x in range(size) if rows[x]),
        image=frozenset(y for y in range(size) if in_degrees[y]),
        set_value_points=frozenset(x for x in range(size) if out_degrees[x] >= 2),
        max_out_degree=max(out_degrees),
        max_in_degree=max(in_degrees),
        fixed_membership=frozenset(x for x in range(size) if x in rows[x]),
        out_degrees=out_degrees,
        in_degrees=in_degrees,
    )
