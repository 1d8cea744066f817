import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import iterroot
from iterroot.core import (
    GroundSet,
    Multifunction,
    SingleMap,
    as_single_map,
    compose,
    identity_map,
    identity_multifunction,
    invert,
    iterate,
    profile,
    union_of,
)
from iterroot.criteria import Rule, check_rule, scan
from iterroot.instances import (cyclic_power, f1, f2, fig67, random_multifunction,
                                random_permutation, random_single_map)
from iterroot.mfnio import serialize
from iterroot.paths import count_paths, path_matrix
from iterroot.poly import ComplexPolynomial, advise, first_solar, solar_criterion
from iterroot.pullback import transfer_root
from iterroot.search import find_multi_root, find_single_root, max_in_degree, max_out_degree


def mf(size, *image_sets):
    ground = GroundSet(tuple(f"p{i}" for i in range(size)))
    return Multifunction.from_sets(ground, image_sets)


def all_multifunctions(size):
    ground = GroundSet(tuple(f"p{i}" for i in range(size)))
    full = (1 << size) - 1
    for masks in itertools.product(range(full + 1), repeat=size):
        yield Multifunction(ground, masks)


def test_ground_set_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))
    with pytest.raises(ValueError):
        GroundSet(())


def test_ground_set_index_of_unknown_label_is_value_error():
    ground = GroundSet(("a", "b"))
    assert ground.index("b") == 1
    with pytest.raises(ValueError, match="^unknown label 'c'$"):
        ground.index("c")


def test_ground_set_index_table_is_built_by_the_first_lookup():
    labels = tuple(f"p{i}" for i in range(5_000))
    ground = GroundSet(labels)
    assert ground._positions is None  # construction builds no table
    assert [ground.index(lab) for lab in labels] == list(range(len(labels)))
    table = ground._positions
    assert ground.index("p4999") == 4_999 and ground._positions is table  # built once
    with pytest.raises(ValueError, match="^unknown label 'p5000'$"):
        ground.index("p5000")
    with pytest.raises(ValueError, match=r"^unknown label \['p0'\]$"):
        ground.index(["p0"])
    # the table is no part of the value
    assert ground == GroundSet(labels) and hash(ground) == hash(GroundSet(labels))
    assert repr(GroundSet(("a",))) == "GroundSet(labels=('a',))"


def test_compose_union_by_definition():
    # G(a)={b,c}, F(b)={d}, F(c)={d,e}
    G = mf(5, {1, 2}, set(), set(), set(), set())
    F = mf(5, set(), {3}, {3, 4}, set(), set())
    assert compose(F, G).rows[0] == (3, 4)


def test_compose_empty_image_stays_empty():
    G = mf(3, set(), {0}, {1})
    F = mf(3, {1}, {2}, {0})
    assert compose(F, G).rows[0] == ()


def test_compose_with_identity_is_identity_on_composition():
    F = random_multifunction(4, seed=11)
    ident = identity_multifunction(F.ground)
    assert compose(ident, F) == F
    assert compose(F, ident) == F


def test_compose_requires_shared_ground():
    F = mf(2, {0}, {1})
    G = mf(3, {0}, {1}, {2})
    with pytest.raises(ValueError):
        compose(F, G)


def test_iterate_zero_is_identity():
    F = random_multifunction(5, seed=3)
    assert iterate(F, 0) == identity_multifunction(F.ground)


def _reference_iterate(F, n):
    """The linear loop ``result = compose(F, result)``, stopped once an iterate
    repeats: from the first repeat on the iterates run round a cycle, so F^n
    is read off the cycle and large n cost no more than the cycle."""
    result = (identity_map if isinstance(F, SingleMap) else identity_multifunction)(F.ground)
    seen, powers = {}, []
    while result not in seen:
        if len(powers) == n:
            return result
        seen[result] = len(powers)
        powers.append(result)
        result = compose(F, result)
    start = seen[result]
    return powers[start + (n - start) % (len(powers) - start)]


def _seeded_maps_and_multifunctions(seed, count, max_size):
    rng = random.Random(seed)
    for case in range(count):
        size = case % max_size + 1
        ground = GroundSet(tuple(f"p{i}" for i in range(size)))
        yield SingleMap(ground, tuple(rng.randrange(size) for _ in range(size)))
        yield Multifunction(ground, tuple(rng.randrange(1 << size) if rng.random() < 0.8 else 0
                                          for _ in range(size)))


def test_iterate_by_squaring_equals_the_linear_loop():
    for F in _seeded_maps_and_multifunctions(8, 100, 8):
        for n in range(41):
            assert iterate(F, n) == _reference_iterate(F, n)


def test_iterate_at_order_ten_to_the_eighteen_on_small_grounds():
    n = 10**18
    for F in _seeded_maps_and_multifunctions(18, 60, 4):
        assert iterate(F, n) == _reference_iterate(F, n)
    rng = random.Random(18)
    for q in range(1, 40):
        e = rng.randrange(q)
        assert iterate(cyclic_power(q, e), n) == cyclic_power(q, n * e % q)


def test_cli_iterate_at_order_ten_to_the_eight_is_bounded(tmp_path):
    # one composition per unit of the order would take tens of minutes here
    path = tmp_path / "f1_4.mfn"
    path.write_text(serialize(f1(4)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(iterroot.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "iterroot.cli", "iterate", str(path),
                           "--order", "100000000"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == serialize(_reference_iterate(f1(4), 100000000))


def test_non_integer_points_are_refused_at_construction():
    # cyclic_power(5, 2.5) built a map with images (2.5, 3.5, ...), and from_sets
    # kept 0.5 in a row; cyclic_power refuses a non-integer exponent at entry
    ground = GroundSet(("a", "b"))
    with pytest.raises(ValueError, match="counts must be integers"):
        cyclic_power(5, 2.5)
    with pytest.raises(TypeError):
        SingleMap(ground, (0, 1.0))
    with pytest.raises(TypeError):
        Multifunction.from_sets(ground, [[0.5], [1]])
    assert type(SingleMap(ground, (True, 0)).image[0]) is int


def test_image_masks_must_lie_in_the_ground_set():
    ground = GroundSet(("a", "b", "c"))
    assert Multifunction(ground, (0b111, 0, 0b100)).images == (0b111, 0, 0b100)
    for bad in (0b1000, 0b1111, -1):
        with pytest.raises(ValueError, match="image of point 1 is out of range"):
            Multifunction(ground, (0, bad, 0))


@pytest.mark.parametrize("bad", [3, 7, -1])
def test_rows_and_map_values_must_lie_in_the_ground_set(bad):
    ground = GroundSet(("a", "b", "c"))
    assert Multifunction.from_sets(ground, [{2, 0}, (), [1, 1]]).rows == ((0, 2), (), (1,))
    assert SingleMap(ground, (2, 0, 1)).image == (2, 0, 1)
    # the first bad point is named, whatever comes after it
    with pytest.raises(ValueError, match="^image of point 1 is out of range$"):
        Multifunction.from_sets(ground, [(0,), (1, bad), (bad,)])
    with pytest.raises(ValueError, match="^image of point 1 is out of range$"):
        SingleMap(ground, (0, bad, bad))
    with pytest.raises(ValueError, match="^one image mask per point required$"):
        Multifunction.from_sets(ground, [(0,), (1,)])
    with pytest.raises(ValueError, match="^single map must be total$"):
        SingleMap(ground, (0, 1))


def test_iterate_semigroup_on_random_instances():
    for seed in range(10):
        F = random_multifunction(4, seed=seed)
        assert compose(iterate(F, 2), iterate(F, 3)) == iterate(F, 5)


def test_iterate_additivity_small_orders():
    F = random_multifunction(4, seed=21)
    for m in range(5):
        for n in range(5):
            assert iterate(F, m + n) == compose(iterate(F, m), iterate(F, n))


def test_fig67_root_identity():
    f, g = fig67()
    assert iterate(g.as_multifunction(), 4) == f.as_multifunction()
    assert iterate(g, 4) == f


def test_compose_associative_exhaustive_two_points_and_sampled():
    two = list(all_multifunctions(2))
    for F, G, H in itertools.product(two, repeat=3):
        assert compose(F, compose(G, H)) == compose(compose(F, G), H)
    for seed in range(20):
        F = random_multifunction(4, seed=seed)
        G = random_multifunction(4, seed=seed + 100)
        H = random_multifunction(4, seed=seed + 200)
        assert compose(F, compose(G, H)) == compose(compose(F, G), H)


def inverse_image(F, targets, k):
    """The points whose ``iterate(F, k)`` row meets ``targets``."""
    return {x for x, row in enumerate(iterate(F, k).rows) if set(row) & set(targets)}


def test_image_of_whole_ground_is_im():
    F = f1(3)
    assert set().union(*F.rows) == profile(F).image


def test_inverse_image_on_f1_two_step_hub_preimage():
    F = f1(3)
    x0 = F.ground.index("x0")
    pre = inverse_image(F, [x0], 2)
    assert {F.ground.labels[i] for i in pre} == {"x-2.1", "x-2.2"}


def test_inverse_image_full_set_is_domain():
    F = mf(4, {1}, set(), {3}, {0})
    assert inverse_image(F, range(4), 1) == profile(F).domain == {0, 2, 3}


def brute_inverse_image(F, targets, k):
    # orbit enumeration, independent of iterate()
    hits = set()
    for x in range(F.ground.size):
        frontier = {x}
        for _ in range(k):
            frontier = {z for y in frontier for z in F.rows[y]}
        if frontier & set(targets):
            hits.add(x)
    return hits


def test_inverse_image_matches_orbit_enumeration():
    for seed in range(15):
        F = random_multifunction(5, seed=seed)
        assert inverse_image(F, [seed % 5], 3) == brute_inverse_image(F, [seed % 5], 3)


def test_invert_is_involution():
    for seed in range(10):
        F = random_multifunction(5, seed=seed)
        assert invert(invert(F)) == F


def test_invert_swaps_domain_and_image():
    F = random_multifunction(5, seed=9)
    assert profile(invert(F)).domain == profile(F).image
    assert profile(invert(F)).image == profile(F).domain


def test_invert_of_f1_gives_hub_out_degree_four():
    F = invert(f1(3))
    assert len(F.rows[F.ground.index("x0")]) == 4


def test_invert_antihomomorphism():
    for seed in range(10):
        G1 = random_multifunction(4, seed=seed)
        G2 = random_multifunction(4, seed=seed + 50)
        assert invert(compose(G1, G2)) == compose(invert(G2), invert(G1))


def test_profile_examples():
    F = f1(3)
    prof = profile(F)
    assert {F.ground.labels[i] for i in prof.set_value_points} == {"x-2.1", "x-2.2"}
    assert prof.max_out_degree == 2
    ident = identity_multifunction(F.ground)
    iprof = profile(ident)
    assert not iprof.set_value_points
    assert iprof.domain == iprof.image == frozenset(range(F.ground.size))
    assert iprof.fixed_membership == frozenset(range(F.ground.size))


def test_profile_in_degree_matches_inverse_image():
    F = random_multifunction(5, seed=33)
    prof = profile(F)
    for x in range(5):
        assert prof.in_degrees[x] == len(inverse_image(F, [x], 1))
        assert prof.in_degrees[x] == sum(x in row for row in F.rows)


def test_single_map_embedding_iterates_compatibly():
    f, _ = fig67()
    for n in range(4):
        assert iterate(f, n).as_multifunction() == iterate(f.as_multifunction(), n)


def test_as_single_map_requires_singletons():
    F = mf(2, {0, 1}, {0})
    with pytest.raises(ValueError):
        as_single_map(F)
    G = mf(2, {1}, {0})
    assert as_single_map(G).image == (1, 0)


def test_compose_map_matches_multifunction_compose():
    ground = GroundSet(("a", "b", "c"))
    f = SingleMap(ground, (1, 2, 0))
    g = SingleMap(ground, (2, 2, 1))
    assert compose(f, g).as_multifunction() == compose(
        f.as_multifunction(), g.as_multifunction())
    with pytest.raises(TypeError):
        compose(f, g.as_multifunction())


def test_equals_distinguishes_edge_removal():
    F = mf(2, {0, 1}, {0})
    G = mf(2, {0}, {0})
    assert F == mf(2, {0, 1}, {0})
    assert F != G


def test_union_of_matches_the_naive_loop():
    rng = random.Random(5)
    grounds = [(size, range(1 << size)) for size in range(1, 8)]
    # a wide mask, as compose and iterate send through the same loop
    grounds.append((20_000, [1 << 19_999 | 0b1011]))
    for size, masks in grounds:
        images = [rng.getrandbits(size) for _ in range(size)]
        for mask in masks:
            expected = 0
            for y in range(size):
                if mask >> y & 1:
                    expected |= images[y]
            assert union_of(images, mask) == union_of(tuple(images), mask) == expected


_F1 = f1(3)
_FIG_F, _FIG_G = fig67()
_SQUARE = ComplexPolynomial((0, 0, 1))
_ONE_POINT = identity_map(GroundSet(("p",)))  # within max_points=1, the least value

# every count a library function takes: (the call, the least count, its message)
_COUNTS = {
    "iterate": (lambda n: iterate(_F1, n), 0, "iteration count must be nonnegative"),
    "scan-M": (lambda M: scan(_F1, M), 1, "class bound M must be positive"),
    "check-M": (lambda M: check_rule(_F1, Rule.FORWARD_PATHS, M, [0], 1), 1,
                "bounds M and N must be positive"),
    "check-N": (lambda N: check_rule(_F1, Rule.FORWARD_PATHS, 1, [0], N), 1,
                "bounds M and N must be positive"),
    "path_matrix": (lambda k: path_matrix(_F1, k), 0, "path length must be nonnegative"),
    "count_paths": (lambda k: count_paths(_F1, [0], [1], k), 1,
                    "set-to-set path counting requires length at least 1"),
    "advise": (lambda n: advise(_SQUARE, n), 2, "root order must be at least 2"),
    "solar_criterion": (solar_criterion, 2, "degree must be at least 2"),
    "first_solar": (first_solar, 1, "count must be positive"),
    "transfer_root": (lambda n: transfer_root(_FIG_F, _FIG_G, n), 2,
                      "root order must be at least 2"),
    "search-order": (lambda n: find_single_root(_FIG_F, n), 2, "root order must be at least 2"),
    "search-budget": (lambda b: find_multi_root(_F1, 2, budget=b), 1, "budget must be positive"),
    "search-max_points": (lambda m: find_single_root(_ONE_POINT, 2, max_points=m), 1,
                          "max_points must be positive"),
    "max_out_degree": (max_out_degree, 1, "degree-bounded constraints need a positive bound"),
    "max_in_degree": (max_in_degree, 1, "degree-bounded constraints need a positive bound"),
    "f1": (f1, 3, "depth must be at least 3"),
    "f2": (f2, 2, "depth must be at least 2"),
    "cyclic_power": (lambda q: cyclic_power(q, 2), 1, "modulus must be positive"),
    "random_multifunction": (lambda d: random_multifunction(3, 0, max_out_degree=d), 0,
                             "max_out_degree must be nonnegative, got {}"),
    "random_multifunction-size": (lambda size: random_multifunction(size, 0), 1,
                                  "ground set must be nonempty"),
    "random_single_map": (lambda size: random_single_map(size, 0), 1,
                          "ground set must be nonempty"),
    "random_permutation": (lambda size: random_permutation(size, 0), 1,
                           "ground set must be nonempty"),
}


@pytest.mark.parametrize("value", [2.5, float("inf")], ids=["2.5", "inf"])
@pytest.mark.parametrize("name", list(_COUNTS))
def test_a_non_integer_count_is_refused(name, value):
    # a non-integer once failed deep inside with a TypeError, or was taken as is
    call, _, message = _COUNTS[name]
    with pytest.raises(ValueError, match="must be integers") as raised:
        call(value)
    assert str(raised.value).startswith(message.format(value))


@pytest.mark.parametrize("name", list(_COUNTS))
def test_a_count_below_its_least_keeps_its_message(name):
    call, least, message = _COUNTS[name]
    with pytest.raises(ValueError) as raised:
        call(least - 1)
    assert str(raised.value) == message.format(least - 1)
    call(least)


def test_non_integer_counts_no_longer_give_wrong_answers():
    # advise reported PrimeOrder for "order 2.5", first_solar(2.5) gave three degrees,
    # and an in-degree bound of 1.5 searched as a bound of 2
    with pytest.raises(ValueError, match="must be integers"):
        advise(_SQUARE, 2.5)
    with pytest.raises(ValueError, match="must be integers"):
        first_solar(2.5)
    with pytest.raises(ValueError, match="must be integers"):
        max_in_degree(1.5)


def test_a_count_is_kept_as_an_int():
    class Two:
        def __index__(self):
            return 2

    assert type(max_out_degree(Two()).bound) is int
    assert find_single_root(_FIG_F, Two(), budget=Two()).budget == 2
