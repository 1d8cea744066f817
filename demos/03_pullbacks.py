"""Pullback multifunctions and root transfer.

The pullback of a map sends each point to its preimage set.  Pullbacks are
exactly the total multifunctions with pairwise-disjoint values and full
image, and taking n-th roots commutes with the construction.
"""
from iterroot import (
    cyclic_power,
    f1,
    is_pullback,
    pullback_of,
    transfer_root,
)


def main():
    f = cyclic_power(8, 2, "add")
    g = cyclic_power(8, 1, "add")
    F = pullback_of(f)
    print("translation by 2 on Z_8; its pullback is translation by -2:")
    print("  F(0) =", {f.ground.labels[y] for y in F.rows[0]})

    witness = is_pullback(F)
    print(f"  recognized as a pullback: {witness.is_pullback}, "
          f"witness equals f: {witness.witness_map == f}")

    report = transfer_root(f, g, 2)
    print(f"root transfer at order 2: map side {report.map_root_holds}, "
          f"pullback side {report.pullback_root_holds}, agree {report.agree}")

    bad = is_pullback(f1(3))
    print(f"\nf1 is not a pullback; failed conditions: "
          f"{sorted(bad.failed_conditions)}")


if __name__ == "__main__":
    main()
