"""An enumeration oracle for the path-count tests: ``iterroot.paths`` counts
paths by row propagation and matrix powers and uses none of this."""
from __future__ import annotations

from iterroot.core import Multifunction


def count_paths_dfs(F: Multifunction, x: int, y: int, k: int) -> int:
    """The number of k-paths from x to y, by walking the graph rather than
    multiplying matrices."""
    if k < 0:
        raise ValueError("path length must be nonnegative")
    if k == 0:
        return int(x == y)
    return sum(count_paths_dfs(F, z, y, k - 1) for z in F.rows[x])
