import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import iterroot
from iterroot.poly import (
    COEFF_REL_TOL,
    ComplexPolynomial,
    _affine_substitute,
    _coeffs_close,
    _finite,
    advise,
    conjugate_to_special_cubic,
    first_solar,
    is_prime,
    primes_upto,
    repeated_fixed_point,
    shifted_monomial_parameters,
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


def test_primes_and_primality():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1) == []
    assert is_prime(2) and is_prime(97)
    assert not is_prime(1) and not is_prime(91)


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
        direct = all(pow(d, p) % (p * p) != d % (p * p) for p in primes_upto(d))
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
    # 2(z - 3)^5 + 3
    alpha, beta = 2, 3
    coeffs = [0.0] * 6
    for k in range(6):
        coeffs[k] += alpha * math.comb(5, k) * (-beta) ** (5 - k)
    coeffs[0] += beta
    params = shifted_monomial_parameters(poly(*coeffs))
    assert params is not None
    assert params[0] == pytest.approx(alpha)
    assert params[1] == pytest.approx(beta)


def _reference_expand_shifted_monomial(alpha, beta, d):
    """The numpy expansion of alpha * (z - beta)^d + beta, low degree first."""
    import numpy as np

    base = np.array([-beta, 1.0], dtype=complex)
    expanded = np.array([1.0 + 0j])
    for _ in range(d):
        expanded = np.convolve(expanded, base)
    expanded = alpha * expanded
    expanded[0] += beta
    return [complex(c) for c in expanded]


def test_shifted_monomial_expansion_agrees_with_numpy():
    rng = random.Random(6)
    for _ in range(2000):
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        beta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        d = rng.randint(0, 9)
        got = [alpha * c for c in _affine_substitute((0,) * d + (1,), 1, -beta)]
        got[0] += beta
        want = _reference_expand_shifted_monomial(alpha, beta, d)
        assert len(got) == len(want) == d + 1
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _reference_shifted_monomial_parameters(p):
    """``shifted_monomial_parameters`` on the numpy expansion."""
    import numpy as np

    d = p.degree
    if d < 2:
        return None
    alpha = p.coefficients[d]
    beta = -p.coefficients[d - 1] / (d * alpha)
    with np.errstate(all="ignore"):
        candidate = _reference_expand_shifted_monomial(alpha, beta, d)
    return (alpha, beta) if _coeffs_close(candidate, p.coefficients, COEFF_REL_TOL) else None


def _numpy_special_cubic_conjugate(a, b):
    """h o p o h^-1 for h(z) = a z + b and p(z) = z^3 - z^2 + z, low degree first."""
    import numpy as np

    w = np.array([-b / a, 1 / a], dtype=complex)  # h^-1(z) = (z - b)/a
    w2 = np.convolve(w, w)
    w3 = np.convolve(w2, w)
    pw = np.zeros(4, dtype=complex)
    pw[: len(w3)] += w3
    pw[: len(w2)] -= w2
    pw[: len(w)] += w
    qw = a * pw
    qw[0] += b
    return [complex(x) for x in qw]


def _reference_conjugate_to_special_cubic(p):
    """The numpy conjugation that ``_affine_substitute`` replaced."""
    import numpy as np

    if p.degree != 3:
        return False
    c = list(p.coefficients)
    with np.errstate(all="ignore"):
        a0 = np.sqrt(1 / c[3])
        for a in (a0, -a0):
            q = _numpy_special_cubic_conjugate(a, (-1 / a - c[2]) / (3 * c[3]))
            if not all(map(_finite, q)) or _coeffs_close(q, c, COEFF_REL_TOL):
                return True
    return False


def _seeded_cubics(rng, count):
    """Conjugates of z^3 - z^2 + z by h(z) = a z + b and shifted cubic monomials
    alpha (z - beta)^3 + beta, all four parameters of modulus 1e-6 to 1e6; random
    cubics of moderate size; and random cubics with coefficients from 1e-300 to
    1e300."""
    def rc(scale):
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale

    for k in range(count):
        u, v = rc(10.0 ** rng.uniform(-6, 6)), rc(10.0 ** rng.uniform(-6, 6))
        if k % 4 == 0:
            q = _numpy_special_cubic_conjugate(u, v)
        elif k % 4 == 1:
            q = _reference_expand_shifted_monomial(u, v, 3)
        elif k % 4 == 2:
            q = [rc(10.0) for _ in range(4)]
        else:
            q = [rc(10.0 ** rng.randint(-300, 300)) for _ in range(4)]
        yield ComplexPolynomial(tuple(q))
    yield ComplexPolynomial((0, 1, -1, 1.3e308 + 1.3e308j))


def test_conjugation_kernel_verdicts_equal_the_numpy_reference():
    rng = random.Random(9)
    conjugate = shifted = 0
    for p in _seeded_cubics(rng, 6000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (conjugate_to_special_cubic(p), shifted_monomial_parameters(p) is not None)
        assert got == (_reference_conjugate_to_special_cubic(p),
                       _reference_shifted_monomial_parameters(p) is not None), p
        conjugate += got[0]
        shifted += got[1]
    assert conjugate >= 1500 and shifted >= 1500  # both verdicts occur often


_ENV = dict(os.environ, PYTHONPATH=str(Path(iterroot.__file__).parent.parent))


def test_poly_advice_on_pure_powers_does_not_load_numpy():
    # the pure powers, and the four polynomials of the cli benchmark, cubic included
    for coeffs, n in (("0,0,1", 3), ("0,0,0,0,0,1", 3), ("0,0,0,0,0,1", 2), ("1,0,0,1", 2),
                      ("0.5,1,0,0,1", 3)):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "iterroot.cli", "poly",
             "--coeffs", coeffs, "--order", str(n)],
            env=_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert f"order {n} excluded:" in proc.stdout
        assert "iterroot.poly" in proc.stderr and "numpy" not in proc.stderr


def test_cubic_advice_leaves_numpy_unloaded():
    # every branch of the cubic rule: three fixed points, a triple one, the
    # special cubic, and a conjugacy test that overflows
    code = ("import sys\n"
            "from iterroot.poly import ComplexPolynomial, advise\n"
            "for c in ((1, 0, 0, 1), (-1, 4, -3, 1), (0, 1, -1, 1), (0, 1, 2, 1e-320)):\n"
            "    print(*(f.rule for f in advise(ComplexPolynomial(c), 2).findings))\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "\nCubicSpecial\n\n\nFalse\n"


def test_shifted_monomial_rejects_generic_polynomials():
    assert shifted_monomial_parameters(poly(1, 2, 3, 4)) is None


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
    rules = [f.rule for f in advise(p, 2).findings]
    assert rules[0] == "CubicSpecial"
    # at 10^5 the coefficient tolerance also lets ShiftedMonomialPrime fire,
    # although f is no shifted monomial; that is the float test's own fault
    assert set(rules[1:]) <= ({"ShiftedMonomialPrime"} if c == 10**5 else set())


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


def test_coefficients_are_close_only_when_finite():
    inf, nan = complex("inf"), complex("nan")
    assert _coeffs_close([1, 2 + 1e-12], [1, 2], 1e-9)
    assert not _coeffs_close([1, 3], [1, 2], 1e-9)
    # inf is within tol * inf of anything, so it must not count as close
    assert not _coeffs_close([inf, 2], [1, 2], 1e-9)
    assert not _coeffs_close([inf], [inf], 1e-9)
    assert not _coeffs_close([nan], [nan], 1e-9)


def test_coefficient_closeness_is_exact_after_scaling():
    # the former unscaled comparison, wherever abs() stays finite
    def reference(a, b, tol):
        return all(abs(x - y) <= tol * max(1.0, abs(x), abs(y)) for x, y in zip(a, b))

    rng = random.Random(11)
    for _ in range(3000):
        scale = 10.0 ** rng.randint(-300, 300)
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
        rel = rng.choice((0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-3))
        y = x * complex(1 + rel * rng.uniform(-1.5, 1.5), rel * rng.uniform(-1.5, 1.5))
        pair = ([1, x], [1, y]) if rng.random() < 0.5 else ([x], [y])
        assert _coeffs_close(*pair, 1e-9) == reference(*pair, 1e-9)
    # |1.3e308 (1 + i)| exceeds the float range, where abs() raises
    huge = complex(1.3e308, 1.3e308)
    assert _coeffs_close([huge, 1], [huge * (1 + 1e-12), 1], 1e-9)
    assert not _coeffs_close([huge], [-huge], 1e-9)


@pytest.mark.parametrize("coeffs", [(1.3e308 + 1.3e308j, 1, -1, 1), (0, 0, 1.3e308 + 1.3e308j, 1),
                                    (0, 1, -1, 1.3e308 + 1.3e308j)])
def test_huge_finite_coefficients_give_advice_without_overflow(coeffs):
    advice = _advice_without_warnings(coeffs, 5)
    assert [f.rule for f in advice.findings] == ["PrimeOrder"]


def _advice_without_warnings(coeffs, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return advise(poly(*coeffs), n)


def test_overflowing_shifted_monomial_match_is_no_finding():
    # z^2 + 1e300 z + 5 is not alpha (z - beta)^2 + beta: the constant term of
    # the candidate, about 2.5e599, overflows to inf and matched 5
    assert shifted_monomial_parameters(poly(5, 1e300, 1)) is None
    rules = {f.rule for f in _advice_without_warnings((5, 1e300, 1), 3).findings}
    assert rules == {"Quadratic", "RiceDegree", "PrimeOrder"}


def test_overflowing_conjugacy_test_backs_no_finding():
    # h o p o h^-1 overflows for 1e300 z^3 + 2 z^2 + z, so the cubic cannot be
    # told apart from the special cubic and CubicSpecial must not fire
    assert conjugate_to_special_cubic(poly(0, 1, 2, 1e300))
    assert _advice_without_warnings((0, 1, 2, 1e300), 2).findings == ()


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
    # 1e-320 z^3 + 2 z^2 + z has the double fixed point 0, but its conjugacy test
    # overflows (1/1e-320 = inf), so CubicSpecial abstains; PrimeOrder reads
    # neither, so the overflow must not void it
    advice = _advice_without_warnings((0, 1, 2, 1e-320), 5)
    assert [f.rule for f in advice.findings] == ["PrimeOrder"]
    assert advice.excludes_order(5)
    assert _advice_without_warnings((0, 1, 2, 1e-320), 2).findings == ()
