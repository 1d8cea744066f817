"""Exact-behaviour census of the two searches: ``find_single_root`` on every map
of 1..MAX_SIZE points at orders 2-6 (``maps MAX_SIZE``), or ``find_multi_root``
on every multifunction on SIZE points at the given orders, unconstrained or in
each class named, in that order (``multi SIZE ORDER... [--class
VARIANT[:BOUND][:total]]...``, as in ``max-in:1`` or ``max-out:2:total``).  Each
search adds one line of (key, outcome, witness) to the verdict digest and one of
(key, nodes) to the node digest, both SHA-256.  A change that keeps the verdict
digest keeps every outcome and witness; a stronger filter may move the node
digest alone.

Run as ``python tests/census.py maps 6`` (with ``src`` on the path) to print the
number of searches, their nodes and the two digests; it exits 1 when the request
is in ``PINNED`` and its census is not the pinned one."""
from __future__ import annotations

import argparse
import hashlib
import itertools
import sys

from iterroot.core import GroundSet, Multifunction, SingleMap
from iterroot.search import (UNCONSTRAINED, RootConstraint, find_multi_root, find_single_root,
                             max_in_degree, max_out_degree)


def maps(max_size: int):
    """(key, outcome, witness image, nodes) of every map search, in order."""
    for size in range(1, max_size + 1):
        ground = GroundSet(tuple(f"p{i}" for i in range(size)))
        for image in itertools.product(range(size), repeat=size):
            f = SingleMap(ground, image)
            for n in range(2, 7):
                result = find_single_root(f, n)
                witness = None if result.witness is None else result.witness.image
                yield f"{image} {n}", result.outcome, witness, result.nodes_explored


def multifunctions(size: int, orders: tuple[int, ...], classes: tuple[RootConstraint, ...]):
    """(key, outcome, witness images, nodes) of every multifunction search, in order."""
    ground = GroundSet(tuple(f"p{i}" for i in range(size)))
    for images in itertools.product(range(1 << size), repeat=size):
        F = Multifunction(ground, images)
        for n in orders:
            for c in classes:
                result = find_multi_root(F, n, c)
                witness = None if result.witness is None else result.witness.images
                key = f"{images} {n} {c.variant} {c.bound} {c.require_total_domain}"
                yield key, result.outcome, witness, result.nodes_explored


def run(request: tuple) -> tuple[int, int, str, str]:
    """(searches, nodes explored in all, verdict digest, node digest) of a request,
    ``(maps, max_size)`` or ``(multifunctions, size, orders, classes)``, the
    digests in SHA-256 hex."""
    universe, *args = request
    verdicts, node_counts = hashlib.sha256(), hashlib.sha256()
    searches = nodes = 0
    for key, outcome, witness, explored in universe(*args):
        verdicts.update(f"{key} {outcome} {witness}\n".encode())
        node_counts.update(f"{key} {explored}\n".encode())
        searches += 1
        nodes += explored
    return searches, nodes, verdicts.hexdigest(), node_counts.hexdigest()


# the recorded census of each request that tier-1 or CI runs
PINNED = {
    (maps, 5): (
        17_065, 741_392,
        "e44e20ece6717e286dda708f6d6b22c58043104c800a84a64162ab0d2445367e",
        "bb2d41d94ea8fe5aca1c576817ea923442ea43febc9348c4238199edaeed6d62"),
    (maps, 6): (
        250_345, 32_948_112,
        "31c27f9316a5e216ce9d1324daee788f8886bc5e01179e3ab04e9e028331efe9",
        "61fa7ce9078b1f3cd5625171327dabc1b56809887efb074e2265f5ef9677bbd8"),
    (multifunctions, 3, (2, 3), (UNCONSTRAINED, max_out_degree(1), max_in_degree(1),
                                 max_out_degree(2, require_total_domain=True))): (
        4_096, 110_588,
        "a16d82a14907a1acd50fed2144b33dd643fac6881fc7e78d48c3cab83427ef75",
        "6c3037a447e840797ee81f39388c4e6d19ff6a105aaf460fbb321e6e73a50ee0"),
    (multifunctions, 4, (2,), (UNCONSTRAINED,)): (
        65_536, 19_192_283,
        "c14eb3a80db389ce2e69b48cf4dbc689011c44193e30dc53a013d43b5ed71623",
        "c760589c7fc343418ae1c4fb94b985b307d3ccad127a9dcc2fc4e326addf2227"),
    (multifunctions, 4, (2,), (max_in_degree(1), max_out_degree(2, require_total_domain=True))): (
        131_072, 19_712_696,
        "b5f7b895e2c64092cb99e19c4d59153d7707257dbc6155ad0c81f8c3e47ff0ec",
        "2216d11c4cd797b582af960fd25c9edd911aa6d2bfcbbc46c03b9e1d25712f27"),
}


def constraint_class(spec: str) -> RootConstraint:
    """The class that ``VARIANT[:BOUND][:total]`` names."""
    variant, *rest = spec.split(":")
    total = rest[-1:] == ["total"]
    (bound,) = rest[:len(rest) - total] or [None]  # ValueError on more parts
    return RootConstraint(variant, None if bound is None else int(bound), total)


def request(argv: list[str] | None = None) -> tuple:
    """The request that a command line names, as ``run`` and ``PINNED`` take it."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    universes = parser.add_subparsers(dest="universe", required=True)
    universes.add_parser("maps").add_argument("max_size", type=int)
    multi = universes.add_parser("multi")
    multi.add_argument("size", type=int)
    multi.add_argument("orders", type=int, nargs="+")
    multi.add_argument("--class", dest="classes", type=constraint_class, action="append",
                       metavar="VARIANT[:BOUND][:total]")
    args = parser.parse_args(argv)
    if args.universe == "maps":
        return maps, args.max_size
    return multifunctions, args.size, tuple(args.orders), tuple(args.classes or (UNCONSTRAINED,))


if __name__ == "__main__":
    asked = request()
    got = run(asked)
    print("{} searches, {} nodes, verdict digest {}, node digest {}".format(*got))
    if got != PINNED.get(asked, got):
        sys.exit(f"not the pinned census: {PINNED[asked]}")
