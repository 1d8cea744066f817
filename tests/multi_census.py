"""Exact-behaviour census of the multi-map search: ``find_multi_root`` on every
multifunction on ``size`` points at the given orders and in the given constraint
classes, each result hashed into two SHA-256 digests: the verdict digest of one
line of (images, n, constraint, outcome, witness images) per search, and the
node digest of one line of (images, n, constraint, nodes).  A change to the
search that keeps the verdict digest keeps every outcome and witness on these
multifunctions; one that also keeps the node digest keeps every node count.  A
stronger filter may change the node digest alone.

Run as ``python tests/multi_census.py 4 2`` (with ``src`` on the path) to print
the number of searches, their nodes and the two digests of every multifunction
on 4 points at order 2, unconstrained; more orders may follow the first, and
each ``--class VARIANT[:BOUND][:total]`` (``max-in:1``, ``max-out:2:total``,
``unconstrained:total``) replaces the unconstrained class with the ones named,
searched in the order given."""
from __future__ import annotations

import argparse
import hashlib
import itertools

from iterroot.core import GroundSet, Multifunction
from iterroot.search import UNCONSTRAINED, RootConstraint, find_multi_root


def census(size: int, orders: tuple[int, ...],
           constraints: tuple[RootConstraint, ...]) -> tuple[int, int, str, str]:
    """(searches, nodes explored in all, verdict digest, node digest), the digests
    in SHA-256 hex."""
    verdicts, node_counts = hashlib.sha256(), hashlib.sha256()
    searches = nodes = 0
    ground = GroundSet(tuple(f"p{i}" for i in range(size)))
    for images in itertools.product(range(1 << size), repeat=size):
        F = Multifunction(ground, images)
        for n in orders:
            for c in constraints:
                result = find_multi_root(F, n, c)
                witness = None if result.witness is None else result.witness.images
                key = f"{images} {n} {c.variant} {c.bound} {c.require_total_domain}"
                verdicts.update(f"{key} {result.outcome} {witness}\n".encode())
                node_counts.update(f"{key} {result.nodes_explored}\n".encode())
                searches += 1
                nodes += result.nodes_explored
    return searches, nodes, verdicts.hexdigest(), node_counts.hexdigest()


def constraint_class(spec: str) -> RootConstraint:
    """The class that ``VARIANT[:BOUND][:total]`` names."""
    variant, *rest = spec.split(":")
    total = rest[-1:] == ["total"]
    (bound,) = rest[:len(rest) - total] or [None]  # ValueError on more parts
    return RootConstraint(variant, None if bound is None else int(bound), total)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("size", type=int)
    parser.add_argument("orders", type=int, nargs="+")
    parser.add_argument("--class", dest="classes", type=constraint_class, action="append",
                        metavar="VARIANT[:BOUND][:total]")
    args = parser.parse_args()
    searches, nodes, verdict_digest, node_digest = census(
        args.size, tuple(args.orders), tuple(args.classes or (UNCONSTRAINED,)))
    print(f"{searches} searches, {nodes} nodes, verdict digest {verdict_digest}, "
          f"node digest {node_digest}")
