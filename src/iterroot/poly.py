"""Nonexistence advice for iterative roots of complex polynomials.

Exact rules (degree, primality, the modular power criterion for pure power
maps, and the count of a cubic's fixed points) use integer arithmetic only.
The two structural rules match coefficients numerically and report the
tolerance they used.  Advice only ever asserts nonexistence: an empty
findings list claims nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fixedpoint import OrderExclusion

COEFF_REL_TOL = 1e-9


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class ComplexPolynomial:
    """Coefficients low degree first, all finite; the leading coefficient is nonzero."""

    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coefficients)
        for k, c in enumerate(coeffs):
            if not _finite(c):
                raise ValueError(f"coefficient {k} is not finite: {c}")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("polynomial must have a nonzero coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            return False
    return True


def _solar(d: int, primes: Iterable[int]) -> bool:
    return all(pow(d, p, p * p) != d % (p * p) for p in primes)


def solar_criterion(d: int) -> bool:
    """True iff d^p and d differ modulo p^2 for every prime p <= d."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    return _solar(d, primes_upto(d))


def first_solar(count: int) -> list[int]:
    """The first ``count`` degrees (ascending, starting at 2) passing the criterion."""
    if count < 1:
        raise ValueError("count must be positive")
    found: list[int] = []
    primes: list[int] = []  # the primes <= d, grown with d
    d = 2
    while len(found) < count:
        if is_prime(d):
            primes.append(d)
        if _solar(d, primes):
            found.append(d)
        d += 1
    return found


@dataclass(frozen=True)
class Finding:
    """One rule that fired; ``excluded`` is either an order window or an explicit set."""

    rule: str
    excluded: OrderExclusion | frozenset[int]
    citation: str
    tolerance: float | None = None

    def excludes(self, n: int) -> bool:
        if isinstance(self.excluded, OrderExclusion):
            return self.excluded.excludes(n)
        return n in self.excluded


@dataclass(frozen=True)
class PolyAdvice:
    polynomial: ComplexPolynomial
    order: int
    findings: tuple[Finding, ...]

    def excludes_order(self, n: int) -> bool:
        return any(f.excludes(n) for f in self.findings)


_ALL_ORDERS = OrderExclusion(1, None, "all-orders")


def _fixed_point_coefficients(poly: ComplexPolynomial) -> list[tuple[int, int]]:
    """a, b, c, d of f(z) - z = az^3 + bz^2 + cz + d for a cubic f, as Gaussian
    integers (re, im) scaled by one power of two.  Every float is a dyadic
    rational, so one scale makes all parts integers; each exact test on them is
    homogeneous, so the scale cannot change whether it holds."""
    ratios = [x.as_integer_ratio() for c in poly.coefficients for x in (c.real, c.imag)]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    ints[2] -= scale  # the coefficient of z in f(z) - z
    return list(zip(ints[::2], ints[1::2]))[::-1]


def _mul(*factors: tuple[int, int]) -> tuple[int, int]:
    re, im = 1, 0
    for x, y in factors:
        re, im = re * x - im * y, re * y + im * x
    return re, im


def repeated_fixed_point(poly: ComplexPolynomial) -> bool:
    """Whether f(z) - z of a cubic f has a repeated root, that is, whether its
    discriminant 18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27a^2 d^2 is exactly 0."""
    a, b, c, d = _fixed_point_coefficients(poly)
    terms = ((18, _mul(a, b, c, d)), (-4, _mul(b, b, b, d)), (1, _mul(b, b, c, c)),
             (-4, _mul(a, c, c, c)), (-27, _mul(a, a, d, d)))
    return not any(sum(k * t[part] for k, t in terms) for part in (0, 1))


def _triple_fixed_point(poly: ComplexPolynomial) -> bool:
    """Whether f(z) - z of a cubic f is a(z - r)^3, that is, b^2 = 3ac and bc = 9ad."""
    a, b, c, d = _fixed_point_coefficients(poly)
    return _mul(b, b) == _mul((3, 0), a, c) and _mul(b, c) == _mul((9, 0), a, d)


def _coeffs_close(a: Sequence[complex], b: Sequence[complex], tol: float) -> bool:
    """Whether |x - y| <= tol * max(1, |x|, |y|) for every pair; False unless
    every value is finite, since inf is within tol * inf of anything."""
    values = (*a, *b)
    if len(a) != len(b) or not all(map(_finite, values)):
        return False
    # dividing by a power of two is exact, and keeps abs() of finite values finite
    top = max((max(abs(z.real), abs(z.imag)) for z in values), default=0.0)
    s = 2.0 ** max(0, math.frexp(top)[1] - 1)
    return all(abs(x / s - y / s) <= tol * max(1 / s, abs(x / s), abs(y / s))
               for x, y in zip(a, b))


def _affine_substitute(coeffs: Sequence[complex], s: complex, t: complex) -> list[complex]:
    """Coefficients of p(s*z + t), low degree first, by Horner's rule in
    (s*z + t); products only, since complex ** raises OverflowError."""
    out = [complex(coeffs[-1])]
    for c in reversed(coeffs[:-1]):
        out = [t * a + s * b for a, b in zip(out + [0j], [0j] + out)]
        out[0] += c
    return out


def shifted_monomial_parameters(poly: ComplexPolynomial) -> tuple[complex, complex] | None:
    """Parameters (alpha, beta) with f(z) = alpha*(z-beta)^d + beta, if any."""
    d = poly.degree
    if d < 2:
        return None
    alpha = poly.coefficients[d]
    beta = -poly.coefficients[d - 1] / (d * alpha)
    candidate = [alpha * c for c in _affine_substitute((0,) * d + (1,), 1, -beta)]
    candidate[0] += beta
    if _coeffs_close(candidate, list(poly.coefficients), COEFF_REL_TOL):
        return alpha, beta
    return None


def conjugate_to_special_cubic(poly: ComplexPolynomial) -> bool:
    """Whether a cubic equals h o p o h^-1 for a linear h and the special
    cubic p(z) = z^3 - z^2 + z; both scale roots are tried and coefficients matched.

    p has a double and a simple fixed point, so a cubic with a triple one is
    ruled out exactly; a conjugate whose coefficients overflow cannot be told
    apart from the cubic, so it counts: only a finite mismatch rules one out.
    """
    if poly.degree != 3 or _triple_fixed_point(poly):
        return False
    import cmath  # loaded only here, so that starting the CLI does not load it

    c = poly.coefficients
    a0 = cmath.sqrt(1 / c[3])  # leading coefficient of h o p o h^-1 is 1/a^2
    if not a0:  # 1/c[3] underflowed to 0, so the conjugate overflows
        return True
    for a in (a0, -a0):
        b = (-1 / a - c[2]) / (3 * c[3])
        # conjugate p by h(z) = a z + b: a p((z - b)/a) + b, expanded in z
        q = [a * x for x in _affine_substitute((0, 1, -1, 1), 1 / a, -b / a)]
        q[0] += b
        if not all(map(_finite, q)) or _coeffs_close(q, c, COEFF_REL_TOL):
            return True
    return False


def advise(poly: ComplexPolynomial, n: int) -> PolyAdvice:
    """Evaluate every nonexistence rule against the polynomial and order.

    The advice transfers verbatim to the pullback multifunction of the
    polynomial.  Rules excluding all orders fire regardless of n; the
    order-specific rules fire only when they cover n (except the shifted
    monomial rule, which always reports its excluded order).
    """
    if n < 2:
        raise ValueError("root order must be at least 2")
    d = poly.degree
    if d < 2:
        raise ValueError("polynomial degree must be at least 2")
    findings: list[Finding] = []

    if d == 2:
        findings.append(Finding(
            "Quadratic", _ALL_ORDERS,
            "Rice, Schweizer & Sklar 1980, Thm. 1; Choczewski & Kuczma 1992, Thm. 2"))

    is_pure_power = (poly.coefficients[d] == 1
                     and all(c == 0 for c in poly.coefficients[:d]))
    if is_pure_power and solar_criterion(d):
        findings.append(Finding("Solar", _ALL_ORDERS, "Solarz 1976; list in Riesel 1964"))

    if d == 3 and repeated_fixed_point(poly) and not conjugate_to_special_cubic(poly):
        findings.append(Finding(
            "CubicSpecial", _ALL_ORDERS,
            "Choczewski & Kuczma 1992, Thm. 6",
            tolerance=COEFF_REL_TOL))

    if n > d * (d - 1):
        findings.append(Finding(
            "RiceDegree", OrderExclusion(d * (d - 1), None, "degree-bound"),
            "Rice, Schweizer & Sklar 1980, Thm. 4"))

    if is_prime(n) and n > d:
        findings.append(Finding(
            "PrimeOrder", frozenset({n}),
            "Choczewski & Kuczma 1992, Thm. 1"))

    if is_prime(d) and shifted_monomial_parameters(poly) is not None:
        findings.append(Finding(
            "ShiftedMonomialPrime", frozenset({d}),
            "non-isolated fixed-point divisibility rule",
            tolerance=COEFF_REL_TOL))

    return PolyAdvice(poly, n, tuple(findings))
