"""Exhaustive root search and fixed-point order exclusions.

A 20-point single map with four mutually-cycling fixed points has an
order-4 iterative root; the fixed-point structure explains which other
orders are impossible, and the backtracking oracle confirms both sides.
"""
from iterroot import (
    f1,
    fig67,
    find_multi_root,
    find_single_root,
    fixed_point_profile,
    iterate,
    max_out_degree,
)


def main():
    f, g = fig67()
    print(f"20-point map: g^4 == f is {iterate(g, 4) == f}")

    result = find_single_root(f, 4)
    print(f"search order 4: {result.outcome} after {result.nodes_explored} "
          f"nodes in {result.elapsed:.2f}s")

    prof = fixed_point_profile(f)
    print(f"tail-mass exclusion: {prof.rice_exclusion().describe()}")
    exclusion = prof.non_isolated_exclusion()
    print(f"non-isolated exclusion: {exclusion.describe()}")
    for n in (2, 4, 5, 7):
        print(f"  order {n} excluded: {exclusion.excludes(n)}")

    F = f1(3)
    result = find_multi_root(F, 2, max_out_degree(2, require_total_domain=True))
    print(f"\nf1 square roots with out-degree <= 2: {result.outcome} "
          f"({result.nodes_explored} nodes) -- the certificate was right")


if __name__ == "__main__":
    main()
