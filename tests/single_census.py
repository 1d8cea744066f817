"""Exact-behaviour census of the single-map search: ``find_single_root`` on
every map of 1..max_size points at orders 2-6, each result hashed with
SHA-256 as one line of (image, n, outcome, witness image, nodes).  A change
to the search that keeps the census digest keeps every outcome, witness and
node count on these maps.

Run as ``python tests/single_census.py 6`` (with ``src`` on the path) to
print the number of searches, their nodes and the digest."""
from __future__ import annotations

import hashlib
import itertools
import sys

from iterroot.core import GroundSet, SingleMap
from iterroot.search import find_single_root


def census(max_size: int) -> tuple[int, int, str]:
    """(searches, nodes explored in all, SHA-256 hex digest of the results)."""
    digest = hashlib.sha256()
    searches = nodes = 0
    for size in range(1, max_size + 1):
        ground = GroundSet(tuple(f"p{i}" for i in range(size)))
        for image in itertools.product(range(size), repeat=size):
            f = SingleMap(ground, image)
            for n in range(2, 7):
                result = find_single_root(f, n)
                witness = None if result.witness is None else result.witness.image
                line = f"{image} {n} {result.outcome} {witness} {result.nodes_explored}\n"
                digest.update(line.encode())
                searches += 1
                nodes += result.nodes_explored
    return searches, nodes, digest.hexdigest()


if __name__ == "__main__":
    searches, nodes, hexdigest = census(int(sys.argv[1]))
    print(f"{searches} searches, {nodes} nodes, digest {hexdigest}")
