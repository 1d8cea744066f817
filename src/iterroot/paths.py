"""Exact counting of fixed-length paths (walks) in the graph of a multifunction.

Counts are Python integers, hence arbitrary precision: path counts exceed
64 bits quickly and must stay exact.  ``count_paths``, which backs the
``paths`` command, propagates one count row over the rows of F, so it costs
O(k * (size + edges)) additions.  ``path_matrix``, the k-th power of the dense
adjacency matrix, is the test oracle for ``count_paths`` and for the
closed-form certificate counts in ``criteria``, and the enumeration counter
in ``tests/path_oracle.py`` checks it in turn.
"""
from __future__ import annotations

from typing import Iterable

from .core import Multifunction

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


def path_matrix(F: Multifunction, k: int) -> tuple[tuple[int, ...], ...]:
    """The k-th power of the 0/1 adjacency matrix of F, whose row x, entry y counts
    the k-paths from x to y, by binary exponentiation from the adjacency matrix
    itself: k = 2 costs one product, and k = 0 gives the identity."""
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
    return tuple(map(tuple, M))


def count_paths(F: Multifunction, from_points: Iterable[int], to_points: Iterable[int], k: int) -> int:
    """Number of k-paths starting in ``from_points`` and ending in ``to_points``, k >= 1.

    A point listed twice in either set counts twice.
    """
    if k < 1:
        raise ValueError("set-to-set path counting requires length at least 1")
    successors = F.rows
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
