"""Exact counting of fixed-length paths (walks) in the graph of a multifunction.

Counts are Python integers, hence arbitrary precision: path counts exceed
64 bits quickly and must stay exact.  ``count_paths``, which backs the
``paths`` command, propagates one count row over the sparse images, so it
costs O(k * edges) additions.  ``path_matrix``, the k-th power of the dense
adjacency matrix, is the test oracle for ``count_paths`` and for the
closed-form certificate counts in ``criteria``.  A recursive enumeration
counter is provided as an independent cross-check for small path lengths.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import GroundSet, Multifunction, bits

Matrix = list[list[int]]


def _adjacency(F: Multifunction) -> Matrix:
    size = F.ground.size
    return [[F.images[x] >> y & 1 for y in range(size)] for x in range(size)]


def _identity(size: int) -> Matrix:
    return [[int(x == y) for y in range(size)] for x in range(size)]


def _matmul(A: Matrix, B: Matrix) -> Matrix:
    size = len(A)
    Bt = [[B[y][z] for y in range(size)] for z in range(size)]
    return [[sum(row[y] * col[y] for y in range(size)) for col in Bt] for row in A]


@dataclass(frozen=True)
class PathCountMatrix:
    """Entry ``[x][y]`` counts the k-paths from x to y; k = 0 gives the identity."""

    ground: GroundSet
    k: int
    entries: tuple[tuple[int, ...], ...]

    def count(self, x: int, y: int) -> int:
        return self.entries[x][y]


def path_matrix(F: Multifunction, k: int) -> PathCountMatrix:
    """The k-th power of the 0/1 adjacency matrix of the graph of F.

    Binary exponentiation that starts from the adjacency matrix itself, so
    k = 2 costs one product and k = 0 is the identity.
    """
    if k < 0:
        raise ValueError("path length must be nonnegative")
    M = _identity(F.ground.size) if k == 0 else None
    A = _adjacency(F)
    e = k
    while e:
        if e & 1:
            M = A if M is None else _matmul(M, A)
        e >>= 1
        if e:
            A = _matmul(A, A)
    return PathCountMatrix(F.ground, k, tuple(tuple(row) for row in M))


def count_paths(F: Multifunction, from_points: Iterable[int], to_points: Iterable[int], k: int) -> int:
    """Number of k-paths starting in ``from_points`` and ending in ``to_points``, k >= 1.

    A point listed twice in either set counts twice.
    """
    if k < 1:
        raise ValueError("set-to-set path counting requires length at least 1")
    successors = [tuple(bits(m)) for m in F.images]
    row = [0] * F.ground.size
    for x in from_points:
        row[x] += 1
    for _ in range(k):
        nxt = [0] * F.ground.size
        for x, c in enumerate(row):
            if c:
                for y in successors[x]:
                    nxt[y] += c
        row = nxt
    return sum(row[y] for y in to_points)


def count_paths_dfs(F: Multifunction, x: int, y: int, k: int) -> int:
    """Enumeration oracle: walk the graph rather than multiply matrices."""
    if k < 0:
        raise ValueError("path length must be nonnegative")
    if k == 0:
        return int(x == y)
    return sum(count_paths_dfs(F, z, y, k - 1) for z in bits(F.images[x]))
