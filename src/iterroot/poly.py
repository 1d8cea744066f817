"""Nonexistence advice for iterative roots of complex polynomials.

Every rule is decided exactly on the given binary coefficients: each float
is a dyadic rational, so the coefficients of f times one power of two S are
Gaussian integers n_k, and the degree, primality, modular power, fixed-point
and structural tests are integer identities in them.  A finding is thus
sound for the polynomial whose coefficients are exactly the given floats.
Advice only ever asserts nonexistence: an empty findings list claims nothing.
Primality is trial division by the 13 primes up to 41, then Miller-Rabin to the
first k of them for the least k with n below psi_k, the least strong pseudoprime
to those k bases (OEIS A014233; Sorenson & Webster 2017): exact below psi_13 =
3,317,044,064,679,887,385,961,981.  An order at or above psi_13 never counts as
prime, so PrimeOrder abstains there; RiceDegree covers it whenever n > d(d - 1).

The two structural rules:

- Special cubic.  Scaled, f(z) - z = az^3 + bz^2 + cz + d.  A repeated fixed
  point means f(z) - z = A(z - r)^2 (z - s) with a = SA, and then
  b^2 - 3ac = a^2 (r - s)^2.  The map w -> r + (s - r)w conjugates f to
  w + A(s - r)^2 (w^3 - w^2); it is the only affine map that sends the double
  and the simple fixed point of p(z) = z^3 - z^2 + z to those of f.  So f is
  conjugate to p exactly when A(s - r)^2 = 1, that is, b^2 - 3ac = S a.
  A triple fixed point (r = s) gives b^2 - 3ac = 0 and so never passes.
- Shifted monomial.  f(z) = alpha (z - beta)^d + beta forces alpha = n_d / S
  and beta = P/Q with P = -n_{d-1} and Q = d n_d.  Matching the coefficient
  of z^k then reads n_d C(d, k) (-P)^(d-k) = n_k Q^(d-k) for 0 < k < d - 1,
  and n_d (-P)^d + S P Q^(d-1) = n_0 Q^d for the constant term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import _count
from .fixedpoint import OrderExclusion


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


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_1 ... psi_13: below psi_k, Miller-Rabin to the first k bases is exact
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly below psi_13 and False from it on, so no finding
    rests on an unproven prime; the round for base k ends the test once n < psi_k."""
    if n < 2 or n >= _PSI[-1]:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a, psi in zip(_SMALL_PRIMES, _PSI):
        x = pow(a, (n - 1) >> s, n)
        if x != 1:
            for _ in range(s):
                if x == n - 1:
                    break
                x = x * x % n
            else:
                return False
        if n < psi:  # n < psi_13, so the last round always ends here
            return True


def _solar(d: int, primes: Iterable[int]) -> bool:
    return all(pow(d, p, p * p) != d % (p * p) for p in primes)


def solar_criterion(d: int) -> bool:
    """True iff d^p and d differ modulo p^2 for every prime p <= d."""
    d = _count(d, 2, "degree must be at least 2")
    return _solar(d, filter(is_prime, range(2, d + 1)))


def first_solar(count: int) -> list[int]:
    """The first ``count`` degrees (ascending, starting at 2) passing the criterion."""
    count = _count(count, 1, "count must be positive")
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


_ALL_ORDERS = OrderExclusion(1, None)


def _scaled_coefficients(poly: ComplexPolynomial) -> tuple[list[tuple[int, int]], int]:
    """The coefficients of f times S, low degree first, as Gaussian integers
    (re, im), and S: every float is a dyadic rational, so one power of two S
    makes all parts integers."""
    ratios = [x.as_integer_ratio() for c in poly.coefficients for x in (c.real, c.imag)]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    return list(zip(ints[::2], ints[1::2])), scale


def _mul(*factors: tuple[int, int]) -> tuple[int, int]:
    re, im = 1, 0
    for x, y in factors:
        re, im = re * x - im * y, re * y + im * x
    return re, im


def repeated_fixed_point(poly: ComplexPolynomial) -> bool:
    """Whether f(z) - z = az^3 + bz^2 + cz + d of a cubic f has a repeated root,
    that is, whether 18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27a^2 d^2 is exactly 0."""
    (d, c, b, a), scale = _scaled_coefficients(poly)
    c = (c[0] - scale, c[1])
    terms = ((18, _mul(a, b, c, d)), (-4, _mul(b, b, b, d)), (1, _mul(b, b, c, c)),
             (-4, _mul(a, c, c, c)), (-27, _mul(a, a, d, d)))
    return not any(sum(k * t[part] for k, t in terms) for part in (0, 1))


def conjugate_to_special_cubic(poly: ComplexPolynomial) -> bool:
    """Whether a cubic f equals h o p o h^-1 for a linear h and the special
    cubic p(z) = z^3 - z^2 + z: f has a repeated fixed point and, on the scaled
    f(z) - z = az^3 + bz^2 + cz + d, b^2 - 3ac = S a (see the module docstring)."""
    if poly.degree != 3:
        return False
    (_, n1, b, a), scale = _scaled_coefficients(poly)
    # b^2 = a (3c + S) with c = n1 - S
    return (_mul(b, b) == _mul(a, (3 * n1[0] - 2 * scale, 3 * n1[1]))
            and repeated_fixed_point(poly))


def is_shifted_monomial(poly: ComplexPolynomial) -> bool:
    """Whether f(z) = alpha (z - beta)^d + beta for some alpha and beta, d >= 2.

    The powers grow by one factor per coefficient, from z^(d-2) down, and the
    first mismatch ends the test (see the module docstring).  When beta = 0
    every test reads n_k = 0, which is checked without the powers.
    """
    n, scale = _scaled_coefficients(poly)
    d = len(n) - 1
    if d < 2:
        return False
    sub, q = n[d - 1], _mul((d, 0), n[d])  # -P and Q, with beta = P/Q
    if sub == (0, 0):  # beta = 0, so f must be alpha z^d; this spares Q's powers
        return not any(map(any, n[:d - 1]))
    # n_d (-P)^(d-k), Q^(d-k) and C(d, k), at k = d - 1
    left, right, binom = _mul(n[d], sub), q, d
    for k in range(d - 2, -1, -1):
        last = right
        left, right, binom = _mul(left, sub), _mul(right, q), binom * (k + 1) // (d - k)
        want = (binom * left[0], binom * left[1])
        if k == 0:  # the constant term gains S P Q^(d-1)
            shift = _mul((scale, 0), sub, last)
            want = (want[0] - shift[0], want[1] - shift[1])
        if want != _mul(n[k], right):
            return False
    return True


def advise(poly: ComplexPolynomial, n: int) -> PolyAdvice:
    """Evaluate every nonexistence rule against the polynomial and order.

    The advice transfers verbatim to the pullback multifunction of the
    polynomial.  Rules excluding all orders fire regardless of n; the
    order-specific rules fire only when they cover n (except the shifted
    monomial rule, which always reports its excluded order).
    """
    n = _count(n, 2, "root order must be at least 2")
    d = _count(poly.degree, 2, "polynomial degree must be at least 2")
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
            "Choczewski & Kuczma 1992, Thm. 6"))

    if n > d * (d - 1):
        findings.append(Finding(
            "RiceDegree", OrderExclusion(d * (d - 1), None),
            "Rice, Schweizer & Sklar 1980, Thm. 4"))

    if is_prime(n) and n > d:
        findings.append(Finding(
            "PrimeOrder", frozenset({n}),
            "Choczewski & Kuczma 1992, Thm. 1"))

    if is_prime(d) and is_shifted_monomial(poly):
        findings.append(Finding(
            "ShiftedMonomialPrime", frozenset({d}),
            "non-isolated fixed-point divisibility rule"))

    return PolyAdvice(poly, n, tuple(findings))
