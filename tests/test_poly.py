import math
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import iterroot
from iterroot.fixedpoint import OrderExclusion
from iterroot.poly import (
    ComplexPolynomial,
    advise,
    conjugate_to_special_cubic,
    first_solar,
    is_prime,
    is_shifted_monomial,
    repeated_fixed_point,
    solar_criterion,
)

from poly_oracle import fixed_points, non_isolated_fixed_points, polynomial_roots

SOLAR_25 = [2, 3, 6, 11, 14, 15, 34, 39, 47, 58, 59, 66, 83, 86, 87,
            95, 102, 103, 106, 111, 114, 119, 123, 139, 142]


def poly(*low_first):
    return ComplexPolynomial(tuple(low_first))


def test_polynomial_normalisation_and_degree():
    p = poly(1, 2, 0, 0)
    assert p.degree == 1
    assert p.coefficients == (1 + 0j, 2 + 0j)
    with pytest.raises(ValueError):
        ComplexPolynomial((0,))


def test_polynomial_evaluation():
    p = poly(1, 0, 1)  # 1 + z^2
    assert p(2) == 5
    assert p(1j) == 0


def _primes_upto(n):
    """The trial-division oracle: the primes <= n."""
    return [m for m in range(2, n + 1) if all(m % p for p in range(2, math.isqrt(m) + 1))]


# psi_k, the least strong pseudoprime to each of the first k prime bases (OEIS A014233)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461)
_PSI_13 = 1287836182261 * 2575672364521


def test_primes_and_primality():
    assert _primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert _primes_upto(1) == []
    assert is_prime(2) and is_prime(97)
    assert not is_prime(1) and not is_prime(91)
    # strong pseudoprimes to the first 1-12 bases and Carmichael numbers
    for n in _PSI + (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n), n
    for n in (2**31 - 1, 2**61 - 1, 10**16 + 61, 10**18 + 9):
        assert is_prime(n), n
    # psi_13 passes all 13 Miller-Rabin bases, and 2^89 - 1 is a prime above it:
    # from psi_13 on, no number counts as prime
    assert _PSI_13 == 3317044064679887385961981
    assert not is_prime(_PSI_13)
    assert not is_prime(2**89 - 1)


def test_is_prime_runs_only_the_bases_its_n_needs(monkeypatch):
    # 1,000,003 lies between psi_1 and psi_2, so bases 2 and 3 decide it
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(iterroot.poly, "pow", counting_pow, raising=False)
    assert is_prime(1_000_003)
    assert len(calls) == 2


def test_is_prime_equals_trial_division_up_to_ten_to_the_five():
    assert [n for n in range(10**5 + 1) if is_prime(n)] == _primes_upto(10**5)


def test_solar_criterion_small_cases():
    assert solar_criterion(2)
    assert solar_criterion(3)
    assert not solar_criterion(4)  # 4^2 and 4 agree mod 4
    assert not solar_criterion(5)
    assert solar_criterion(6)


def test_first_25_solar_degrees():
    assert first_solar(25) == SOLAR_25


def test_first_solar_equals_filtering_by_the_criterion():
    expected = [d for d in range(2, 3687) if solar_criterion(d)]
    assert len(expected) == 300
    assert first_solar(300) == expected


def test_solar_criterion_matches_direct_modular_check():
    for d in range(2, 160):
        direct = all(pow(d, p) % (p * p) != d % (p * p) for p in _primes_upto(d))
        assert solar_criterion(d) == direct


def test_roots_of_simple_polynomials():
    roots = polynomial_roots(poly(-1, 0, 1))  # z^2 - 1
    assert sorted(r.real for r in roots) == pytest.approx([-1.0, 1.0])
    assert all(abs(r.imag) < 1e-12 for r in roots)


def test_fixed_points_of_square_map():
    fps = fixed_points(poly(0, 0, 1))  # z^2: fixed points 0 and 1
    assert sorted(z.real for z in fps) == pytest.approx([0.0, 1.0])


def test_fixed_points_with_multiplicity_are_clustered():
    # f(z) = z + (z-1)^2 has the double fixed point 1
    p = poly(1, -1, 1)
    assert len(fixed_points(p)) == 1
    assert fixed_points(p)[0] == pytest.approx(1.0)


def test_non_isolated_fixed_points_of_square_map():
    # 0 has the extra preimage 0 only; 1 has the extra preimage -1
    nfps = non_isolated_fixed_points(poly(0, 0, 1))
    assert len(nfps) == 1
    assert nfps[0] == pytest.approx(1.0)


def test_shifted_monomial_parameters_recovered():
    # 2(z - 3)^5 + 3, and the same with its constant term moved by 1
    alpha, beta = 2, 3
    coeffs = [0.0] * 6
    for k in range(6):
        coeffs[k] += alpha * math.comb(5, k) * (-beta) ** (5 - k)
    coeffs[0] += beta
    assert is_shifted_monomial(poly(*coeffs))
    coeffs[0] += 1
    assert not is_shifted_monomial(poly(*coeffs))


def _gmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _ginv(u):
    norm = u[0] * u[0] + u[1] * u[1]
    return (Fraction(u[0]) / norm, Fraction(-u[1]) / norm)


def _dyadic(rng, bits, shift):
    """A Gaussian rational (x + iy) / 2**shift with |x|, |y| <= 2**bits."""
    return (Fraction(rng.randint(-2**bits, 2**bits), 2**shift),
            Fraction(rng.randint(-2**bits, 2**bits), 2**shift))


def _expand(lead, roots):
    """lead * prod(z - r) over the roots, low degree first, in Gaussian rationals."""
    out = [lead]
    for r in roots:
        low = [_gmul((-r[0], -r[1]), c) for c in out] + [(0, 0)]
        out = [(a[0] + b[0], a[1] + b[1]) for a, b in zip([(0, 0)] + out, low)]
    return out


def _exact_polynomial(coeffs, add):
    """The polynomial with these Gaussian rational coefficients, the k-th plus
    ``add[k]`` where there is one, if every part is exactly a float; else None."""
    parts = [(c[0] + a[0], c[1] + a[1]) for c, a in zip(coeffs, add + [(0, 0)] * len(coeffs))]
    floats = [complex(float(x), float(y)) for x, y in parts]
    if any((Fraction(z.real), Fraction(z.imag)) != c for z, c in zip(floats, parts)):
        return None
    return ComplexPolynomial(tuple(floats))


def _cubic(lead, r, s):
    """z + lead (z - r)^2 (z - s), or None if a coefficient is no float."""
    return _exact_polynomial(_expand(lead, [r, r, s]), [(0, 0), (1, 0)])


def _shifted_monomial(alpha, beta, d):
    """alpha (z - beta)^d + beta, or None if a coefficient is no float."""
    return _exact_polynomial(_expand(alpha, [beta] * d), [beta])


def _one_ulp_off(rng, p, indices):
    """p with the real or imaginary part of one coefficient, at one of the
    indices, moved by one unit in the last place."""
    coeffs = list(p.coefficients)
    k = rng.choice(indices)
    re, im = coeffs[k].real, coeffs[k].imag
    step = rng.choice((math.inf, -math.inf))
    if rng.random() < 0.5:
        re = math.nextafter(re, step)
    else:
        im = math.nextafter(im, step)
    coeffs[k] = complex(re, im)
    return ComplexPolynomial(tuple(coeffs))


def _multiplier_agrees(p, verdict):
    """None unless the numeric fixed points form two groups at least 1e-3
    apart; else whether f'(s) at the simple one, the one whose multiplier lies
    farther from 1, is 2 exactly when the verdict holds: a double fixed point
    has multiplier 1, and p(z) = z^3 - z^2 + z has p'(1) = 2.  The corpora's
    multipliers are Gaussian integers, so "is 2" reads "lies within 1/2 of 2";
    the numeric error reaches about 3e-4 where the fixed points are close."""
    groups = []
    for z in fixed_points(p):
        if all(abs(z - g) >= 1e-3 for g in groups):
            groups.append(z)
    if len(groups) != 2:
        return None
    c = p.coefficients
    m = max((sum(k * c[k] * z ** (k - 1) for k in range(1, len(c))) for z in groups),
            key=lambda w: abs(w - 1))
    return (abs(m - 2) < 0.5) == verdict


_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def test_dyadic_conjugates_of_the_special_cubic_are_accepted():
    # h o p o h^-1 for h(z) = az + b is z + (z - b)^2 (z - b - a) / a^2; it is
    # dyadic when a^2 is a unit times a power of two
    rng = random.Random(21)
    accepted = compared = 0
    for _ in range(400):
        unit = rng.choice(_UNITS)
        a = _gmul(unit, (1, 1) if rng.random() < 0.5 else (1, 0))
        scale = Fraction(2) ** rng.randint(-6, 6)
        a = (a[0] * scale, a[1] * scale)
        b = _dyadic(rng, 10, rng.randint(0, 8))
        p = _cubic(_gmul(_ginv(a), _ginv(a)), b, (b[0] + a[0], b[1] + a[1]))
        if p is None:
            continue
        assert conjugate_to_special_cubic(p), p
        assert "CubicSpecial" not in {f.rule for f in advise(p, 2).findings}
        moved = _one_ulp_off(rng, p, range(4))
        assert not conjugate_to_special_cubic(moved), moved
        agrees = _multiplier_agrees(p, True)
        assert agrees is not False, p
        accepted += 1
        compared += agrees is True
    assert accepted >= 380 and compared >= 300


def test_cubic_verdict_is_whether_the_special_multiplier_is_one():
    # z + A (z - r)^2 (z - s) with Gaussian integers A, r and s: sending r to 0
    # and s to 1 conjugates it to w + A (s - r)^2 (w^3 - w^2), which is the
    # special cubic exactly when A (s - r)^2 = 1; half the corpus has s - r a
    # unit u and A = e / u^2, for e in 1, -1, i and 2
    rng = random.Random(22)
    verdicts = {True: 0, False: 0}
    compared = 0
    for k in range(2000):
        r = (rng.randint(-50, 50), rng.randint(-50, 50))
        if k % 2:
            unit = rng.choice(_UNITS)
            s = (r[0] + unit[0], r[1] + unit[1])
            e = rng.choice(((1, 0), (1, 0), (-1, 0), (0, 1), (2, 0)))
            lead = _gmul(e, _gmul(_ginv(unit), _ginv(unit)))
        else:
            s = (rng.randint(-50, 50), rng.randint(-50, 50))
            lead = (rng.randint(-4, 4), rng.randint(1, 4))
        if s == r:
            continue
        p = _cubic(lead, r, s)
        delta = (s[0] - r[0], s[1] - r[1])
        verdict = _gmul(lead, _gmul(delta, delta)) == (1, 0)
        assert repeated_fixed_point(p)
        assert conjugate_to_special_cubic(p) == verdict, p
        assert ("CubicSpecial" in {f.rule for f in advise(p, 2).findings}) != verdict
        if verdict:
            assert not conjugate_to_special_cubic(_one_ulp_off(rng, p, range(4)))
        agrees = _multiplier_agrees(p, verdict)
        assert agrees is not False, p
        compared += agrees is True
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 300 and compared >= 1900


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_dyadic_shifted_monomials_are_accepted(d):
    # alpha (z - beta)^d + beta with dyadic Gaussian alpha and beta; moving any
    # coefficient below z^(d-1) changes n_k Q^(d-k) alone, so it must fail
    rng = random.Random(23 + d)
    accepted = 0
    for _ in range(200):
        alpha = _dyadic(rng, 4, rng.randint(0, 6))
        beta = _dyadic(rng, 3, rng.randint(0, 3))
        p = _shifted_monomial(alpha, beta, d) if alpha != (0, 0) else None
        if p is None:
            continue
        assert is_shifted_monomial(p), p
        assert not is_shifted_monomial(_one_ulp_off(rng, p, range(d - 1))), p
        accepted += 1
    assert accepted >= 190


def test_shifted_monomial_test_is_fast_at_large_degree():
    # z^1009 is accepted, also with its leading coefficient moved by one ulp,
    # and rejected with its constant term moved by one ulp, where the scale S is
    # 2**1074 and Q^1009 would have over a million bits; a generic polynomial
    # fails the first comparison
    rng = random.Random(1009)
    generic = poly(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1010)))
    for p, expected in ((poly(*[0] * 1009, 1), True), (poly(*[0] * 1009, 1 + 2**-52), True),
                        (poly(5e-324, *[0] * 1008, 1), False), (generic, False)):
        start = time.perf_counter()
        assert is_shifted_monomial(p) is expected
        assert time.perf_counter() - start < 2.0


_ENV = dict(os.environ, PYTHONPATH=str(Path(iterroot.__file__).parent.parent))


def test_poly_advice_on_pure_powers_does_not_load_numpy():
    # the pure powers, the four polynomials of the cli benchmark, cubic included,
    # and three cubics that the former floating-point rules decided wrongly: no
    # request loads numpy, cmath or fractions
    for coeffs, n in (("0,0,1", 3), ("0,0,0,0,0,1", 3), ("0,0,0,0,0,1", 2), ("1,0,0,1", 2),
                      ("0.5,1,0,0,1", 3), ("0,1,2,1e300", 2), ("0,1,2,1e-320", 2),
                      ("-1e15,30000000001,-300000,1", 2)):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "iterroot.cli", "poly",
             f"--coeffs={coeffs}", "--order", str(n)],
            env=_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert f"order {n} excluded:" in proc.stdout
        loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "iterroot.poly" in loaded
        assert not loaded & {"numpy", "cmath", "fractions"}, coeffs


def test_cubic_advice_leaves_numpy_unloaded():
    # every branch of the cubic rule: three fixed points, a triple one, the
    # special cubic, and a subnormal leading coefficient, whose double fixed
    # point 0 and simple one -2e320 make no conjugate of the special cubic
    code = ("import sys\n"
            "from iterroot.poly import ComplexPolynomial, advise\n"
            "for c in ((1, 0, 0, 1), (-1, 4, -3, 1), (0, 1, -1, 1), (0, 1, 2, 1e-320)):\n"
            "    print(*(f.rule for f in advise(ComplexPolynomial(c), 2).findings))\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "\nCubicSpecial\n\nCubicSpecial\nFalse\n"


def test_shifted_monomial_rejects_generic_polynomials():
    assert not is_shifted_monomial(poly(1, 2, 3, 4))


def test_special_cubic_recognised_up_to_conjugacy():
    # p(z) = z^3 - z^2 + z is conjugate to itself
    assert conjugate_to_special_cubic(poly(0, 1, -1, 1))
    # conjugate by h(z) = 2z + 1: q = h o p o h^-1
    import numpy as np
    w = np.array([-0.5, 0.5], dtype=complex)  # h^-1(z) = (z - 1)/2
    w2 = np.convolve(w, w)
    w3 = np.convolve(w2, w)
    q = np.zeros(4, dtype=complex)
    q[: len(w3)] += w3
    q[: len(w2)] -= w2
    q[: len(w)] += w
    q = 2 * q
    q[0] += 1
    assert conjugate_to_special_cubic(ComplexPolynomial(tuple(complex(c) for c in q)))


def test_special_cubic_rejects_three_fixed_point_cubics():
    assert not conjugate_to_special_cubic(poly(0, 0, 0, 1))  # z^3


def test_advise_quadratic_excludes_everything():
    advice = advise(poly(1, 2, 1), 7)
    assert {f.rule for f in advice.findings} >= {"Quadratic"}
    for n in (2, 3, 7, 100):
        assert advice.excludes_order(n)


def test_advise_pure_power_solar_degree():
    advice = advise(poly(0, 0, 0, 0, 0, 0, 1), 2)  # z^6, solar degree
    assert "Solar" in {f.rule for f in advice.findings}
    assert advice.excludes_order(2) and advice.excludes_order(11)


def test_advise_z5_order_5_uses_shifted_monomial_not_solar():
    advice = advise(poly(0, 0, 0, 0, 0, 1), 5)  # z^5
    rules = {f.rule for f in advice.findings}
    assert "ShiftedMonomialPrime" in rules
    assert "Solar" not in rules
    assert advice.excludes_order(5)
    assert not advice.excludes_order(4)


def test_advise_z4_order_2_claims_nothing():
    advice = advise(poly(0, 0, 0, 0, 1), 2)  # z^4
    assert advice.findings == ()
    assert not advice.excludes_order(2)


def test_advise_rice_degree_bound():
    advice = advise(poly(0, 0, 0, 1), 7)  # z^3, n = 7 > 6 = d(d-1)
    assert "RiceDegree" in {f.rule for f in advice.findings}
    assert advice.excludes_order(7)


def test_advise_prime_order_above_degree():
    advice = advise(poly(1, 1, 0, 1), 5)  # degree 3, n = 5 prime > 3
    assert "PrimeOrder" in {f.rule for f in advice.findings}
    assert advice.excludes_order(5)
    # a large prime order is decided within a second; trial division took a minute
    start = time.perf_counter()
    advice = advise(poly(0, 0, 1), 10**18 + 9)
    assert time.perf_counter() - start < 1.0
    assert [f.excluded for f in advice.findings if f.rule == "PrimeOrder"] == [
        OrderExclusion(10**18 + 8, None, frozenset({10**18 + 9}))]


def test_advise_cubic_with_few_fixed_points():
    # f(z) = z + (z-1)^2 (z+1): cubic whose fixed points are just {1, -1},
    # and not conjugate to the special cubic (leading coefficients disagree)
    import numpy as np
    expanded = np.convolve(np.convolve([-1, 1], [-1, 1]), [1, 1])
    coeffs = [complex(c) for c in expanded] + [0j]
    coeffs[1] += 1  # add z
    advice = advise(ComplexPolynomial(tuple(coeffs[:4])), 2)
    assert "CubicSpecial" in {f.rule for f in advice.findings}
    assert advice.excludes_order(2)


def test_close_simple_fixed_points_back_no_cubic_special():
    # f(z) = z + (z - 1)(z - 1 - e)(z + 5) with e = 2**-30: three distinct fixed
    # points, each exact in floats, and so are the coefficients
    e = 2.0 ** -30
    p = poly(5.000000004656613, -8.00000000372529, 2.9999999990686774, 1.0)
    assert p.coefficients == (5 + 5 * e, -8 - 4 * e, 3 - e, 1)
    assert not repeated_fixed_point(p)
    assert "CubicSpecial" not in {f.rule for f in advise(p, 2).findings}


@pytest.mark.parametrize("c", [1, 2, 10, 10**3, 10**5])
def test_triple_fixed_point_backs_cubic_special(c):
    # f(z) = z + (z - c)^3 has the one fixed point c, of multiplicity 3, and
    # z^3 - z^2 + z a double and a simple one, so f is no conjugate of it;
    # every coefficient is exact in floats
    p = poly(-c**3, 3 * c * c + 1, -3 * c, 1)
    assert repeated_fixed_point(p)
    assert not conjugate_to_special_cubic(p)
    # f is no shifted monomial either: f(z) - c = w + w^3 with w = z - c
    assert not is_shifted_monomial(p)
    assert [f.rule for f in advise(p, 2).findings] == ["CubicSpecial"]


def _cubic_with_fixed_points(lead, roots, shift):
    """z + lead (z - r1)(z - r2)(z - r3), where lead and each 2**shift * r are
    Gaussian integers (x, y); expanded in integers, so every float coefficient
    is exact."""
    coeffs = [lead]  # lead * prod(2**shift z - x - iy), that is 2**(3 shift) (f(z) - z)
    for x, y in roots:
        up = [(0, 0)] + [(a << shift, b << shift) for a, b in coeffs]
        coeffs = [(u - x * a + y * b, v - x * b - y * a)
                  for (u, v), (a, b) in zip(up, coeffs + [(0, 0)])]
    assert all(abs(part) < 2**52 for c in coeffs for part in c)
    out = [complex(math.ldexp(a, -3 * shift), math.ldexp(b, -3 * shift)) for a, b in coeffs]
    out[1] += 1
    return ComplexPolynomial(tuple(out))


def test_exact_fixed_point_count_matches_the_pattern_and_the_oracle():
    # dyadic Gaussian fixed points at multiplicities 1-1-1 (some two of them
    # 2**-12 apart), 2-1 and 3; the numpy oracle is asked only where the three
    # fixed points lie at least 1e-3 apart, since its copies of a repeated root
    # often differ by more than its 1e-7 clustering tolerance
    rng = random.Random(16)
    shift, compared = 12, 0
    for k in range(1500):
        distinct = 3 - k % 3
        g = [(rng.randint(-2**13, 2**13), rng.randint(-2**13, 2**13)) for _ in range(3)]
        if distinct == 3 and k % 2:
            g[1] = (g[0][0] + 1, g[0][1])
        lead = (rng.randint(-8, 8), rng.randint(1, 8))
        if len(set(g)) < 3:
            continue
        p = _cubic_with_fixed_points(lead, g[:distinct] + [g[0]] * (3 - distinct), shift)
        assert repeated_fixed_point(p) == (distinct < 3), (g, distinct)
        zs = [complex(x, y) / 2**shift for x, y in g]
        if distinct == 3 and min(abs(zs[0] - zs[1]), abs(zs[0] - zs[2]),
                                 abs(zs[1] - zs[2])) >= 1e-3:
            assert len(fixed_points(p)) == 3, p
            compared += 1
    assert compared >= 200


def test_advise_special_cubic_is_not_flagged():
    advice = advise(poly(0, 1, -1, 1), 2)
    assert "CubicSpecial" not in {f.rule for f in advice.findings}


def test_advise_validation():
    with pytest.raises(ValueError):
        advise(poly(0, 1), 2)  # degree 1
    with pytest.raises(ValueError):
        advise(poly(0, 0, 1), 1)  # order 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), float("1e309"),
                                 complex(0, float("nan")), complex("1e309j"),
                                 complex(1, -float("inf"))])
def test_non_finite_coefficients_are_rejected(bad):
    for coeffs in ((bad, 0, 1), (0, 1, 2, bad), (bad,)):
        with pytest.raises(ValueError, match="not finite"):
            ComplexPolynomial(coeffs)


@pytest.mark.parametrize("coeffs, rules", [
    ((1.3e308 + 1.3e308j, 1, -1, 1), ["PrimeOrder"]),
    ((0, 0, 1.3e308 + 1.3e308j, 1), ["PrimeOrder"]),
    # A z^3 - z^2 + z with A = 1.3e308 (1 + i) is z + A z^2 (z - 1/A), and
    # A (1/A - 0)^2 = 1/A is not 1
    ((0, 1, -1, 1.3e308 + 1.3e308j), ["CubicSpecial", "PrimeOrder"]),
], ids=["coeffs0", "coeffs1", "coeffs2"])
def test_huge_finite_coefficients_give_advice_without_overflow(coeffs, rules):
    advice = _advice_without_warnings(coeffs, 5)
    assert [f.rule for f in advice.findings] == rules


def _advice_without_warnings(coeffs, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return advise(poly(*coeffs), n)


def test_overflowing_shifted_monomial_match_is_no_finding():
    # z^2 + 1e300 z + 5 is not alpha (z - beta)^2 + beta: the constant term of
    # the candidate is about 2.5e599, beyond the float range, and not 5
    assert not is_shifted_monomial(poly(5, 1e300, 1))
    rules = {f.rule for f in _advice_without_warnings((5, 1e300, 1), 3).findings}
    assert rules == {"Quadratic", "RiceDegree", "PrimeOrder"}


def test_overflowing_conjugacy_test_backs_no_finding():
    # 1e300 z^3 + 2 z^2 + z is z + A z^2 (z + 2/A) with A = 1e300, and
    # A (2/A)^2 = 4/A is not 1; the exact test decides it although h o p o h^-1
    # has coefficients beyond the float range, so CubicSpecial fires
    assert not conjugate_to_special_cubic(poly(0, 1, 2, 1e300))
    advice = _advice_without_warnings((0, 1, 2, 1e300), 2)
    assert [f.rule for f in advice.findings] == ["CubicSpecial"]


def test_roots_out_of_floating_point_range_are_an_error():
    # the companion matrix of the numpy oracle for 1e-320 z^3 + 2 z^2 + z holds 2/1e-320 = inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coefficient ratios overflow"):
            polynomial_roots(poly(0, 1, 2, 1e-320))


_EXACT_RULES = {"Quadratic", "Solar", "RiceDegree", "PrimeOrder"}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([0, 1, -1, 2, 0.5, 3j, 1e300, -1e300, 1e-300]), min_size=2,
                max_size=6).filter(lambda low: any(abs(c) >= 0.5 for c in low)),
       st.sampled_from([1e-320, -5e-324, 1e-310j]), st.integers(2, 40))
def test_exact_findings_survive_a_failed_root_finder(low, lead, n):
    # leading coefficients at which the numpy oracle overflows; advise finds no
    # roots, and its exact findings are those of the same polynomial led by 2
    p = poly(*low, lead)
    with pytest.raises(ValueError, match="coefficient ratios overflow"):
        polynomial_roots(p)
    exact = [f for f in _advice_without_warnings((*low, lead), n).findings if f.rule in _EXACT_RULES]
    finite = [f for f in _advice_without_warnings((*low, 2), n).findings if f.rule in _EXACT_RULES]
    assert exact == finite


def test_root_finder_overflow_silences_only_cubic_special():
    # the numpy oracle overflows on 1e-320 z^3 + 2 z^2 + z, which advise reads
    # exactly: its double fixed point 0 and A (2/A)^2 = 4/A, not 1, for
    # A = 1e-320 back CubicSpecial, and PrimeOrder excludes 5 beside it
    advice = _advice_without_warnings((0, 1, 2, 1e-320), 5)
    assert [f.rule for f in advice.findings] == ["CubicSpecial", "PrimeOrder"]
    assert advice.excludes_order(5)
    advice = _advice_without_warnings((0, 1, 2, 1e-320), 2)
    assert [f.rule for f in advice.findings] == ["CubicSpecial"]
