"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success; a failed assertion makes
pytest report the matching FAIL line instead.  Timed criteria assert their
wall-clock budgets explicitly.
"""
import itertools
import json
import time

from iterroot.cli import main
from iterroot.core import (
    GroundSet,
    Multifunction,
    equals,
    invert,
    iterate_map,
)
from iterroot.criteria import (
    Conclusion,
    Rule,
    check_forward_paths,
    check_forward_points,
    check_inverse_paths,
    check_inverse_points,
    scan,
)
from iterroot.fixedpoint import (
    OrderExclusion,
    non_isolated_exclusion,
    rice_exclusion,
)
from iterroot.instances import (
    f1,
    fig67,
    random_multifunction,
    random_permutation,
    random_single_map,
)
from iterroot.mfnio import serialize
from iterroot.paths import path_matrix
from iterroot.poly import ComplexPolynomial, advise, first_solar
from iterroot.pullback import pullback_of, transfer_root
from iterroot.search import (
    find_multi_root,
    find_single_root,
    max_in_degree,
    max_out_degree,
)

from path_oracle import count_paths_dfs


def test_criterion_01_twenty_point_fourth_root_identity_and_search():
    f, g = fig67()
    assert iterate_map(g, 4) == f
    result = find_single_root(f, 4, max_points=20)
    assert result.found
    assert iterate_map(result.witness, 4) == f
    assert result.elapsed < 1.0
    print("PASS criterion 1: 20-point order-4 root identity holds and the "
          f"search re-finds a root in {result.elapsed:.2f}s")


def test_criterion_02_first_25_criterion_degrees():
    expected = [2, 3, 6, 11, 14, 15, 34, 39, 47, 58, 59, 66, 83, 86, 87,
                95, 102, 103, 106, 111, 114, 119, 123, 139, 142]
    assert first_solar(25) == expected
    print("PASS criterion 2: first 25 degrees passing the modular power "
          "criterion match the reference list")


def test_criterion_03_chain_family_discrepancy_pair():
    F = f1(3)
    x0 = F.ground.index("x0")
    paths_cert = check_forward_paths(F, x0, 2, 1)
    points_cert = check_forward_points(F, x0, 2, 1)
    assert paths_cert.conclusion is Conclusion.NO_ROOTS_IN_CLASS
    assert paths_cert.measured_Q == 4
    assert points_cert.conclusion is Conclusion.NOT_APPLICABLE
    assert points_cert.measured_Q == 2  # exactly M*N^3; strict comparison blocks it
    print("PASS criterion 3: path rule fires (Q=4 > 2) while the point rule "
          "stays silent (Q=2) on the same instance")


def test_criterion_04_firing_certificates_confirmed_by_search():
    start = time.perf_counter()
    fired = 0
    instances = 0
    for seed in range(2000):
        size = 3 + seed % 3
        F = random_multifunction(size, seed=seed, max_out_degree=2, density=0.4)
        instances += 1
        for cert in scan(F, 2):
            fired += 1
            if cert.conclusion is Conclusion.NO_ROOTS_AT_ALL:
                constraints = [None]
            elif cert.root_class == "max-out-degree":
                constraints = [max_out_degree(cert.M)]
            else:
                constraints = [max_in_degree(cert.M)]
            for constraint in constraints:
                for n in (2, 3):
                    if constraint is None:
                        result = find_multi_root(F, n)
                    else:
                        result = find_multi_root(F, n, constraint)
                    assert result.outcome == "exhausted", (seed, cert.rule, n)
    elapsed = time.perf_counter() - start
    assert instances >= 2000
    assert fired > 0
    assert elapsed < 600
    print(f"PASS criterion 4: {fired} firing certificates over {instances} "
          f"random instances all confirmed by exhaustive search in {elapsed:.1f}s")


def test_criterion_05_exact_path_counts_on_all_three_point_instances():
    start = time.perf_counter()
    ground = GroundSet(("a", "b", "c"))
    checked = 0
    for masks in itertools.product(range(8), repeat=3):
        F = Multifunction(ground, masks)
        mats = {k: path_matrix(F, k) for k in range(1, 5)}
        for k in (1, 2):
            for l in range(1, 5 - k):
                for x in range(3):
                    for z in range(3):
                        assert mats[k + l][x][z] == sum(
                            mats[k][x][y] * mats[l][y][z] for y in range(3))
        for x in range(3):
            for y in range(3):
                for k in (1, 2, 3, 4):
                    assert mats[k][x][y] == count_paths_dfs(F, x, y, k)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 512
    assert elapsed < 60
    print(f"PASS criterion 5: composition law and enumeration agree on all "
          f"512 three-point instances in {elapsed:.1f}s")


def test_criterion_06_forward_inverse_duality():
    checked = 0
    for seed in range(500):
        size = 3 + seed % 3
        F = random_multifunction(size, seed=seed + 5000)
        inv = invert(F)
        M = 1 + seed % 2
        for x0 in range(size):
            a = check_inverse_paths(F, x0, M, 1)
            b = check_forward_paths(inv, x0, M, 1)
            assert (a.conclusion, a.measured_Q) == (b.conclusion, b.measured_Q)
            c = check_inverse_points(F, x0, M, 1)
            d = check_forward_points(inv, x0, M, 1)
            assert (c.conclusion, c.measured_Q) == (d.conclusion, d.measured_Q)
            checked += 1
    assert checked >= 500
    print(f"PASS criterion 6: inverse rules equal forward rules on the "
          f"reversed graph across {checked} point checks")


def test_criterion_07_pullback_square_root_correspondence():
    start = time.perf_counter()
    found_pairs = 0
    for seed in range(500):
        size = 3 + seed % 3
        f = random_permutation(size, seed=seed)
        direct = find_single_root(f, 2)
        via_pullback = find_multi_root(
            pullback_of(f), 2, max_out_degree(1, require_total_domain=True))
        assert direct.found == via_pullback.found
        if direct.found:
            found_pairs += 1
            report = transfer_root(f, direct.witness, 2)
            assert report.applicable and report.agree and report.map_root_holds
    elapsed = time.perf_counter() - start
    assert found_pairs > 0
    assert elapsed < 300
    print(f"PASS criterion 7: both oracles agree on 500 permutations "
          f"({found_pairs} with square roots) in {elapsed:.1f}s")


def test_criterion_08_fixed_point_order_exclusions():
    f, _ = fig67()
    assert rice_exclusion(f) == OrderExclusion(8, None)
    non_iso = non_isolated_exclusion(f)
    assert non_iso == OrderExclusion(2, 4)
    assert non_iso.excludes(5)
    assert not non_iso.excludes(4)
    confirmed = 0
    for seed in range(2000):
        size = 3 + seed % 3
        g = random_single_map(size, seed=seed + 9000)
        for exclusion in (rice_exclusion(g), non_isolated_exclusion(g)):
            if exclusion is None:
                continue
            for n in range(2, 6):
                if exclusion.excludes(n):
                    assert find_single_root(g, n).outcome == "exhausted", (seed, n)
                    confirmed += 1
    assert confirmed > 0
    print(f"PASS criterion 8: 20-point exclusions are (k, l) = (4, 2) with "
          f"order 5 excluded and order 4 allowed; {confirmed} random "
          "exclusions confirmed rootless")


def test_criterion_09_polynomial_advice_regressions():
    quad = advise(ComplexPolynomial((0, 0, 1)), 2)
    assert quad.excludes_order(2) and quad.excludes_order(17)
    assert "Quadratic" in {f.rule for f in quad.findings}
    z5 = advise(ComplexPolynomial((0, 0, 0, 0, 0, 1)), 5)
    rules5 = {f.rule for f in z5.findings}
    assert "ShiftedMonomialPrime" in rules5 and "Solar" not in rules5
    assert z5.excludes_order(5)
    z4 = advise(ComplexPolynomial((0, 0, 0, 0, 1)), 2)
    assert z4.findings == ()
    print("PASS criterion 9: quadratic excluded everywhere, degree-5 power "
          "map excluded at order 5 by the prime rule, degree-4 power map "
          "gets no claim")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    f1_path = tmp_path / "f1.mfn"
    f1_path.write_text(serialize(f1(3)), encoding="utf-8")
    command_sets = [
        ["check", str(f1_path), "--M", "2", "--json"],
        ["search", str(f1_path), "--order", "2", "--max-out", "2", "--total", "--json"],
        ["instance", "random-mf", "--size", "5", "--seed", "11"],
        ["poly", "--coeffs", "0,0,1", "--order", "3", "--json"],
        ["solar", "--count", "10"],
    ]
    outputs = []
    for _ in range(2):
        snapshot = []
        for argv in command_sets:
            code = main(list(argv))
            captured = capsys.readouterr()
            snapshot.append((argv[0], code, captured.out))
        outputs.append(snapshot)
    assert outputs[0] == outputs[1]
    check_payload = json.loads(outputs[0][0][2])
    assert check_payload["certificates"]
    with capsys.disabled():
        print("PASS criterion 10: repeated CLI runs are byte-identical "
              "across five commands")
