"""Deterministic construction of the named benchmark instances and seeded
random generators.

The two chain-family multifunctions are finite truncations of infinite
pictures: an unbounded forward chain is closed by routing its last point
into a preimage-free backward-chain tail, which keeps the domain total,
keeps every in-degree away from the hub at one, and adds no new two-step
route into the hub.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .core import GroundSet, Multifunction, SingleMap


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


def f1(depth: int = 3) -> Multifunction:
    """Hub with four in-routes fed pairwise by two branching points, plus a
    forward cycle; fires the forward path rule with M=2, N=1 but leaves the
    two-step preimage of the hub at exactly two points."""
    if depth < 3:
        raise ValueError("depth must be at least 3")
    labels = [f"x{i}" for i in range(depth + 1)]
    labels += [f"x-1.{j}" for j in range(1, 5)]
    for i in range(2, depth + 1):
        labels += [f"x-{i}.1", f"x-{i}.2"]
    ground = GroundSet(tuple(labels))
    idx = {lab: k for k, lab in enumerate(ground.labels)}
    images = [()] * ground.size
    for i in range(depth):
        images[idx[f"x{i}"]] = (idx[f"x{i + 1}"],)
    # close the forward chain into the preimage-free tail of backward chain 1
    images[idx[f"x{depth}"]] = (idx[f"x-{depth}.1"],)
    for j in range(1, 5):
        images[idx[f"x-1.{j}"]] = (idx["x0"],)
    images[idx["x-2.1"]] = (idx["x-1.1"], idx["x-1.2"])
    images[idx["x-2.2"]] = (idx["x-1.3"], idx["x-1.4"])
    for i in range(3, depth + 1):
        for j in (1, 2):
            images[idx[f"x-{i}.{j}"]] = (idx[f"x-{i - 1}.{j}"],)
    return Multifunction.from_sets(ground, images)


def f2(depth: int = 3) -> Multifunction:
    """Hub branching into two forward chains with three in-routes and three
    backward chains; closed so the domain and image are both the whole set
    and every out-degree stays at most two."""
    if depth < 2:
        raise ValueError("depth must be at least 2")
    labels = ["x0"]
    for i in range(1, depth + 1):
        labels += [f"x{i}.1", f"x{i}.2"]
    for i in range(1, depth + 1):
        labels += [f"x-{i}.1", f"x-{i}.2", f"x-{i}.3"]
    ground = GroundSet(tuple(labels))
    idx = {lab: k for k, lab in enumerate(ground.labels)}
    images = [()] * ground.size
    images[idx["x0"]] = (idx["x1.1"], idx["x1.2"])
    for i in range(1, depth):
        for j in (1, 2):
            images[idx[f"x{i}.{j}"]] = (idx[f"x{i + 1}.{j}"],)
    # close both forward chains so that all three backward tails get preimages
    images[idx[f"x{depth}.1"]] = (idx[f"x-{depth}.1"], idx[f"x-{depth}.3"])
    images[idx[f"x{depth}.2"]] = (idx[f"x-{depth}.2"],)
    for j in (1, 2, 3):
        images[idx[f"x-1.{j}"]] = (idx["x0"],)
    for i in range(2, depth + 1):
        for j in (1, 2, 3):
            images[idx[f"x-{i}.{j}"]] = (idx[f"x-{i - 1}.{j}"],)
    return Multifunction.from_sets(ground, images)


def fig67() -> tuple[SingleMap, SingleMap]:
    """The 20-point map with four non-isolated fixed points and its order-4 root."""
    labels = [f"x{j}" for j in range(1, 5)]
    labels += [f"y{j}.1" for j in range(1, 5)]
    labels += [f"y{j}.2" for j in range(1, 5)]
    labels += [f"z{j}.1" for j in range(1, 5)]
    labels += [f"z{j}.2" for j in range(1, 5)]
    ground = GroundSet(tuple(labels))
    idx = {lab: k for k, lab in enumerate(ground.labels)}
    f = [0] * ground.size
    g = [0] * ground.size
    for j in range(1, 5):
        f[idx[f"x{j}"]] = idx[f"x{j}"]
        g[idx[f"x{j}"]] = idx[f"x{j % 4 + 1}"]
        for i in (1, 2):
            f[idx[f"y{j}.{i}"]] = idx[f"x{j}"]
            f[idx[f"z{j}.{i}"]] = idx[f"y{j}.{i}"]
            if j <= 3:
                g[idx[f"y{j}.{i}"]] = idx[f"y{j + 1}.{i}"]
                g[idx[f"z{j}.{i}"]] = idx[f"z{j + 1}.{i}"]
            else:
                g[idx[f"y{j}.{i}"]] = idx["x1"]
                g[idx[f"z{j}.{i}"]] = idx[f"y1.{i}"]
    return SingleMap(ground, tuple(f)), SingleMap(ground, tuple(g))


def cyclic_power(modulus: int, exponent: int, variant: str = "add") -> SingleMap:
    """Residue arithmetic maps: translation by e or multiplication by e mod q."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if variant not in ("add", "mul"):
        raise ValueError("variant must be 'add' or 'mul'")
    ground = GroundSet(tuple(str(i) for i in range(modulus)))
    if variant == "add":
        image = tuple((x + exponent) % modulus for x in range(modulus))
    else:
        image = tuple((x * exponent) % modulus for x in range(modulus))
    return SingleMap(ground, image)


def _ground(size: int) -> GroundSet:
    return GroundSet(tuple(f"p{i}" for i in range(size)))


def random_multifunction(size: int, seed: int, max_out_degree: int | None = None,
                         density: float = 0.5) -> Multifunction:
    if not 0 <= density <= 1:  # nan fails too
        raise ValueError(f"density must be in [0, 1], got {density}")
    if max_out_degree is not None and max_out_degree < 0:
        raise ValueError(f"max_out_degree must be nonnegative, got {max_out_degree}")
    rng = random.Random(seed)
    images = []
    for _ in range(size):
        targets = [y for y in range(size) if rng.random() < density]
        if max_out_degree is not None and len(targets) > max_out_degree:
            targets = sorted(rng.sample(targets, max_out_degree))
        images.append(tuple(targets))
    # each row is ascending, distinct and in range, so it needs no normalising
    return Multifunction._of_rows(_ground(size), tuple(images))


def random_single_map(size: int, seed: int) -> SingleMap:
    rng = random.Random(seed)
    return SingleMap(_ground(size), tuple(rng.randrange(size) for _ in range(size)))


def random_permutation(size: int, seed: int) -> SingleMap:
    rng = random.Random(seed)
    perm = list(range(size))
    rng.shuffle(perm)
    return SingleMap(_ground(size), tuple(perm))


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
