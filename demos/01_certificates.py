"""Nonexistence certificates on the two chain-family benchmark instances.

Walks through the four certificate rules on a multifunction whose hub has
four two-step in-routes, shows why the path-counting rule fires while the
point-counting rule stays silent, and then a second instance where both
rules rule out every root at once.
"""
from iterroot import (
    Rule,
    check_rule,
    f1,
    f2,
    invert,
    scan,
)


def show(ground, cert):
    print(f"  rule={cert.rule.value}  x0={ground.labels[cert.x0]}  "
          f"Q={cert.measured_Q}  bound={cert.M * cert.N ** 3}  "
          f"-> {cert.conclusion.value}")


def main():
    F = f1(3)
    x0 = F.ground.index("x0")
    print("instance f1: hub x0 with four one-step in-routes, out-degrees <= 2")

    print("forward rules at the hub (M=2, N=1):")
    show(F.ground, check_rule(F, Rule.FORWARD_PATHS, 2, [x0], 1)[0])
    show(F.ground, check_rule(F, Rule.FORWARD_POINTS, 2, [x0], 1)[0])
    print("  four 2-paths end at the hub but only two distinct start points;")
    print("  the strict bound Q > M*N^3 = 2 separates the two rules.\n")

    print("the reversed graph triggers the inverse-side rules instead:")
    for cert in scan(invert(F), 2):
        show(F.ground, cert)
    print()

    G = f2(3)
    print("instance f2: total, surjective, out-degrees <= 2 -- the extra")
    print("hypotheses upgrade the conclusion from a class to all roots:")
    for cert in scan(G, 2):
        show(G.ground, cert)


if __name__ == "__main__":
    main()
