"""Deterministic construction of the named benchmark instances and seeded
random generators.

The two chain-family multifunctions are finite truncations of infinite
pictures: an unbounded forward chain is closed by routing its last point
into a preimage-free backward-chain tail, which keeps the domain total,
keeps every in-degree away from the hub at one, and adds no new two-step
route into the hub.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass, fields

from .core import GroundSet, Multifunction, SingleMap, _count


@dataclass(frozen=True)
class InstanceSpec:
    """A reproducible instance request; identical specs build identical objects."""

    name: str
    depth: int | None = None
    modulus: int | None = None
    exponent: int | None = None
    variant: str | None = None
    size: int | None = None
    max_out_degree: int | None = None
    density: float | None = None
    seed: int | None = None


def _rows(ground: GroundSet, images: dict[str, tuple[str, ...]]) -> list[tuple[int, ...]]:
    """Per point in ground order, the image that ``images`` gives its label, with
    every label read through ``ground.index``.  ``f1`` and ``f2`` write their
    images in ground order, so the keys of ``images`` are their labels."""
    return [tuple(map(ground.index, images[label])) for label in ground.labels]


def f1(depth: int = 3) -> Multifunction:
    """Hub with four in-routes fed pairwise by two branching points, plus a
    forward cycle; fires the forward path rule with M=2, N=1 but leaves the
    two-step preimage of the hub at exactly two points."""
    depth = _count(depth, 3, "depth must be at least 3")
    images = {f"x{i}": (f"x{i + 1}",) for i in range(depth)}
    # close the forward chain into the preimage-free tail of backward chain 1
    images[f"x{depth}"] = (f"x-{depth}.1",)
    for j in range(1, 5):
        images[f"x-1.{j}"] = ("x0",)
    images["x-2.1"] = ("x-1.1", "x-1.2")
    images["x-2.2"] = ("x-1.3", "x-1.4")
    for i in range(3, depth + 1):
        for j in (1, 2):
            images[f"x-{i}.{j}"] = (f"x-{i - 1}.{j}",)
    ground = GroundSet(tuple(images))
    return Multifunction.from_sets(ground, _rows(ground, images))


def f2(depth: int = 3) -> Multifunction:
    """Hub branching into two forward chains with three in-routes and three
    backward chains; closed so the domain and image are both the whole set
    and every out-degree stays at most two."""
    depth = _count(depth, 2, "depth must be at least 2")
    images = {"x0": ("x1.1", "x1.2")}
    for i in range(1, depth):
        for j in (1, 2):
            images[f"x{i}.{j}"] = (f"x{i + 1}.{j}",)
    # close both forward chains so that all three backward tails get preimages
    images[f"x{depth}.1"] = (f"x-{depth}.1", f"x-{depth}.3")
    images[f"x{depth}.2"] = (f"x-{depth}.2",)
    for j in (1, 2, 3):
        images[f"x-1.{j}"] = ("x0",)
    for i in range(2, depth + 1):
        for j in (1, 2, 3):
            images[f"x-{i}.{j}"] = (f"x-{i - 1}.{j}",)
    ground = GroundSet(tuple(images))
    return Multifunction.from_sets(ground, _rows(ground, images))


def fig67() -> tuple[SingleMap, SingleMap]:
    """The 20-point map with four non-isolated fixed points and its order-4 root."""
    labels = [f"x{j}" for j in range(1, 5)]
    labels += [f"y{j}.1" for j in range(1, 5)]
    labels += [f"y{j}.2" for j in range(1, 5)]
    labels += [f"z{j}.1" for j in range(1, 5)]
    labels += [f"z{j}.2" for j in range(1, 5)]
    f, g = {}, {}  # label -> the label of its image
    for j in range(1, 5):
        f[f"x{j}"], g[f"x{j}"] = f"x{j}", f"x{j % 4 + 1}"
        for i in (1, 2):
            f[f"y{j}.{i}"], f[f"z{j}.{i}"] = f"x{j}", f"y{j}.{i}"
            if j <= 3:
                g[f"y{j}.{i}"], g[f"z{j}.{i}"] = f"y{j + 1}.{i}", f"z{j + 1}.{i}"
            else:
                g[f"y{j}.{i}"], g[f"z{j}.{i}"] = "x1", f"y1.{i}"
    ground = GroundSet(tuple(labels))
    return tuple(SingleMap(ground, [ground.index(h[label]) for label in labels]) for h in (f, g))


def cyclic_power(modulus: int, exponent: int, variant: str = "add") -> SingleMap:
    """Residue arithmetic maps: translation by e or multiplication by e mod q."""
    modulus = _count(modulus, 1, "modulus must be positive")
    exponent = _count(exponent, None, "exponent must be an integer")
    if variant not in ("add", "mul"):
        raise ValueError("variant must be 'add' or 'mul'")
    ground = GroundSet(tuple(str(i) for i in range(modulus)))
    step = operator.add if variant == "add" else operator.mul
    return SingleMap(ground, tuple(step(x, exponent) % modulus for x in range(modulus)))


def _ground(size: int) -> GroundSet:
    return GroundSet(tuple(f"p{i}" for i in range(_count(size, 1, "ground set must be nonempty"))))


def random_multifunction(size: int, seed: int, max_out_degree: int | None = None,
                         density: float = 0.5) -> Multifunction:
    if not 0 <= density <= 1:  # nan fails too
        raise ValueError(f"density must be in [0, 1], got {density}")
    if max_out_degree is not None:
        max_out_degree = _count(max_out_degree, 0,
                                f"max_out_degree must be nonnegative, got {max_out_degree}")
    ground, rng = _ground(size), random.Random(seed)
    images = []
    for _ in range(size):
        targets = [y for y in range(size) if rng.random() < density]
        if max_out_degree is not None and len(targets) > max_out_degree:
            targets = sorted(rng.sample(targets, max_out_degree))
        images.append(tuple(targets))
    # each row is ascending, distinct and in range, so it needs no normalising
    return Multifunction._of_rows(ground, tuple(images))


def random_single_map(size: int, seed: int) -> SingleMap:
    rng = random.Random(seed)
    return SingleMap(_ground(size), tuple(rng.randrange(size) for _ in range(size)))


def random_permutation(size: int, seed: int) -> SingleMap:
    ground, perm = _ground(size), list(range(size))
    random.Random(seed).shuffle(perm)
    return SingleMap(ground, tuple(perm))


# name -> (constructor, required spec fields, optional spec fields)
_BUILDERS = {
    "f1": (f1, (), ("depth",)),
    "f2": (f2, (), ("depth",)),
    "fig67-f": (lambda: fig67()[0], (), ()),
    "fig67-g": (lambda: fig67()[1], (), ()),
    "cyclic-power": (cyclic_power, ("modulus", "exponent"), ("variant",)),
    "random-mf": (random_multifunction, ("size", "seed"), ("max_out_degree", "density")),
    "random-map": (random_single_map, ("size", "seed"), ()),
}


def build(spec: InstanceSpec):
    """Dispatch a spec to its constructor; unknown names, fields the instance
    does not take, and missing or out-of-range parameters raise."""
    if spec.name not in _BUILDERS:
        raise ValueError(f"unknown instance name {spec.name!r}")
    make, required, optional = _BUILDERS[spec.name]
    given = {f.name: getattr(spec, f.name) for f in fields(spec)
             if f.name != "name" and getattr(spec, f.name) is not None}
    unused = [name for name in given if name not in required + optional]
    if unused:
        raise ValueError(f"instance {spec.name} does not take {', '.join(unused)}")
    if any(name not in given for name in required):
        raise ValueError(f"{spec.name} needs {' and '.join(required)}")
    return make(**given)
