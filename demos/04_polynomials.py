"""Order-exclusion advice for complex polynomials.

Six rules assert nonexistence of iterative roots for certain degrees and
orders; the advice is conservative -- an empty findings list claims
nothing.  The modular power criterion singles out the degrees whose pure
power maps have no roots of any order.
"""
from iterroot import ComplexPolynomial, advise, first_solar


def describe(poly, n):
    advice = advise(poly, n)
    degree = poly.degree
    print(f"degree {degree}, order {n}:")
    if not advice.findings:
        print("  no finding; nothing is asserted")
    for f in advice.findings:
        print(f"  {f.rule} [{f.citation}]")
    print(f"  order {n} excluded: {advice.excludes_order(n)}\n")


def main():
    print("degrees passing the modular power criterion:", first_solar(10), "\n")

    describe(ComplexPolynomial((1, 2, 1)), 3)            # (z+1)^2
    describe(ComplexPolynomial((0,) * 6 + (1,)), 2)      # z^6
    describe(ComplexPolynomial((0, 0, 0, 0, 0, 1)), 5)   # z^5 at its degree
    describe(ComplexPolynomial((0, 0, 0, 0, 1)), 2)      # z^4: silence
    describe(ComplexPolynomial((0, 1, -1, 1)), 2)        # the exceptional cubic
    describe(ComplexPolynomial((0, 1, 2, 1e300)), 2)     # decided exactly, no overflow


if __name__ == "__main__":
    main()
