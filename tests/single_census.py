"""Exact-behaviour census of the single-map search: ``find_single_root`` on
every map of 1..max_size points at orders 2-6, each result hashed into two
SHA-256 digests: the verdict digest of one line of (image, n, outcome, witness
image) per search, and the node digest of one line of (image, n, nodes).  A
change to the search that keeps the verdict digest keeps every outcome and
witness on these maps; one that also keeps the node digest keeps every node
count.  A stronger filter may change the node digest alone.

Run as ``python tests/single_census.py 6`` (with ``src`` on the path) to
print the number of searches, their nodes and the two digests."""
from __future__ import annotations

import hashlib
import itertools
import sys

from iterroot.core import GroundSet, SingleMap
from iterroot.search import find_single_root


def census(max_size: int) -> tuple[int, int, str, str]:
    """(searches, nodes explored in all, verdict digest, node digest), the digests
    in SHA-256 hex."""
    verdicts, node_counts = hashlib.sha256(), hashlib.sha256()
    searches = nodes = 0
    for size in range(1, max_size + 1):
        ground = GroundSet(tuple(f"p{i}" for i in range(size)))
        for image in itertools.product(range(size), repeat=size):
            f = SingleMap(ground, image)
            for n in range(2, 7):
                result = find_single_root(f, n)
                witness = None if result.witness is None else result.witness.image
                verdicts.update(f"{image} {n} {result.outcome} {witness}\n".encode())
                node_counts.update(f"{image} {n} {result.nodes_explored}\n".encode())
                searches += 1
                nodes += result.nodes_explored
    return searches, nodes, verdicts.hexdigest(), node_counts.hexdigest()


if __name__ == "__main__":
    searches, nodes, verdict_digest, node_digest = census(int(sys.argv[1]))
    print(f"{searches} searches, {nodes} nodes, verdict digest {verdict_digest}, "
          f"node digest {node_digest}")
