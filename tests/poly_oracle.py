"""A numeric fixed-point oracle for the polynomial tests (numpy).

Roots come from the companion matrix and are clustered at an absolute
tolerance.  ``iterroot.poly`` counts a cubic's fixed points exactly and uses
none of this; the tests compare the exact count with this clustering where
the roots lie well apart.
"""
from iterroot.poly import ComplexPolynomial

FIXED_POINT_CLUSTER_TOL = 1e-7


def polynomial_roots(poly: ComplexPolynomial) -> list[complex]:
    """Roots via the companion matrix (numpy), high-degree polynomials included.

    Raises ValueError when a coefficient ratio in the companion matrix
    overflows the floating-point range.
    """
    import numpy as np

    if poly.degree == 0:
        return []
    high_first = list(reversed(poly.coefficients))
    with np.errstate(all="ignore"):
        try:
            return [complex(r) for r in np.roots(high_first)]
        except np.linalg.LinAlgError as exc:  # numpy found inf or nan in the matrix
            raise ValueError("coefficient ratios overflow the floating-point range") from exc


def _near(u: complex, v: complex, tol: float) -> bool:
    """|u - v| <= tol; the components are compared first, so that abs() never
    sees a difference whose modulus exceeds the float range."""
    d = u - v
    return abs(d.real) <= tol and abs(d.imag) <= tol and abs(d) <= tol


def fixed_points(poly: ComplexPolynomial) -> list[complex]:
    """Distinct solutions of f(z) = z, clustered at absolute tolerance."""
    coeffs = list(poly.coefficients)
    if len(coeffs) < 2:
        coeffs += [0j]
    coeffs[1] -= 1
    shifted = ComplexPolynomial(tuple(coeffs))
    roots = polynomial_roots(shifted)
    reps: list[complex] = []
    for v in sorted(roots, key=lambda z: (z.real, z.imag)):
        if not any(_near(v, r, FIXED_POINT_CLUSTER_TOL) for r in reps):
            reps.append(v)
    return reps


def non_isolated_fixed_points(poly: ComplexPolynomial) -> list[complex]:
    """Fixed points z* with some other solution of f(y) = z*."""
    out = []
    for z in fixed_points(poly):
        coeffs = list(poly.coefficients)
        coeffs[0] -= z
        preimages = polynomial_roots(ComplexPolynomial(tuple(coeffs)))
        if not all(_near(y, z, FIXED_POINT_CLUSTER_TOL) for y in preimages):
            out.append(z)
    return out
