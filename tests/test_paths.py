import itertools
import random

import pytest

from iterroot.core import GroundSet, Multifunction, invert, iterate
from iterroot.instances import f1, random_multifunction
from iterroot.paths import count_paths, path_matrix

from path_oracle import count_paths_dfs


def test_zero_length_gives_identity_matrix():
    F = random_multifunction(4, seed=1)
    pm = path_matrix(F, 0)
    for x in range(4):
        for y in range(4):
            assert pm[x][y] == int(x == y)


def test_f1_two_paths_into_hub():
    F = f1(3)
    x0 = F.ground.index("x0")
    pm = path_matrix(F, 2)
    assert sum(pm[x][x0] for x in range(F.ground.size)) == 4


def test_inverted_f1_one_paths_out_of_hub():
    F = invert(f1(3))
    x0 = F.ground.index("x0")
    pm = path_matrix(F, 1)
    assert sum(pm[x0][y] for y in range(F.ground.size)) == 4


def test_count_paths_from_point_to_all_is_out_degree():
    F = random_multifunction(5, seed=7)
    for x in range(5):
        assert count_paths(F, [x], range(5), 1) == len(F.rows[x])


def test_count_paths_dominates_inverse_image_size():
    for seed in range(10):
        F = random_multifunction(5, seed=seed)
        for k in (1, 2, 3):
            Fk = iterate(F, k)
            for x in range(5):
                # the points whose k-step image meets {x}
                reach = sum(x in row for row in Fk.rows)
                assert count_paths(F, range(5), [x], k) >= reach


def test_self_loop_has_one_path_of_every_length():
    F = Multifunction(GroundSet(("a",)), (1,))
    for k in (1, 2, 5, 17):
        assert count_paths(F, [0], [0], k) == 1


def test_zero_length_set_counting_rejected():
    F = random_multifunction(3, seed=0)
    with pytest.raises(ValueError):
        count_paths(F, [0], [1], 0)


def test_endpoints_outside_the_ground_are_refused():
    # -1 used to count paths from the last point, and 99 raised IndexError
    F = f1(3)
    for sources, targets in (([-1], [0]), ([99], [0]), ([0], [12]), (iter([0, -1]), [0])):
        with pytest.raises(ValueError, match="^path endpoints must be points of the ground set$"):
            count_paths(F, sources, targets, 1)
    with pytest.raises(TypeError):
        count_paths(F, [1.0], [0], 1)
    # iterables are read once, and a listed point still counts twice
    assert count_paths(F, iter([0, 0]), iter(range(12)), 1) == 2


def test_matrix_counts_match_dfs_enumeration():
    for seed in range(8):
        F = random_multifunction(6, seed=seed)
        for k in range(5):
            pm = path_matrix(F, k)
            for x in range(6):
                for y in range(6):
                    assert pm[x][y] == count_paths_dfs(F, x, y, k)


def test_chapman_kolmogorov_on_random_instances():
    for seed in range(10):
        F = random_multifunction(5, seed=seed + 40)
        mats = {k: path_matrix(F, k) for k in range(1, 4)}
        for k, l in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
            total = path_matrix(F, k + l)
            for x in range(5):
                for z in range(5):
                    assert total[x][z] == sum(
                        mats[k][x][y] * mats[l][y][z] for y in range(5))


def test_counts_monotone_under_edge_addition():
    F = random_multifunction(5, seed=77, density=0.3)
    missing = [(x, y) for x in range(5) for y in range(5)
               if not F.images[x] >> y & 1]
    assert missing
    x, y = missing[0]
    images = list(F.images)
    images[x] |= 1 << y
    G = Multifunction(F.ground, tuple(images))
    for k in (1, 2, 3, 4):
        a = path_matrix(F, k)
        b = path_matrix(G, k)
        for i, j in itertools.product(range(5), repeat=2):
            assert b[i][j] >= a[i][j]


def test_dense_graph_counts_are_exact_big_integers():
    ground = GroundSet(tuple(f"p{i}" for i in range(10)))
    full = (1 << 10) - 1
    F = Multifunction(ground, (full,) * 10)
    assert count_paths(F, range(10), [0], 30) == 10**30
    assert path_matrix(F, 30)[0][0] == 10**29


def test_repeated_squaring_agrees_with_direct_products():
    F = random_multifunction(5, seed=5)
    direct = path_matrix(F, 4)
    for k in (5, 6, 9):
        via_squaring = path_matrix(F, k)
        step = path_matrix(F, k - 4)
        expected = [[sum(direct[x][y] * step[y][z] for y in range(5))
                     for z in range(5)] for x in range(5)]
        assert [list(r) for r in via_squaring] == expected


def _reference_count_paths(matrix, from_points, to_points):
    """``count_paths`` before row propagation: sums over the dense path matrix."""
    to = tuple(to_points)
    return sum(matrix[x][y] for x in from_points for y in to)


def _seeded_multifunction(rng, size):
    """Random images with some empty ones (a partial domain) and some self-loops."""
    images = []
    for x in range(size):
        if rng.random() < 0.2:
            images.append(0)
            continue
        m = sum(1 << y for y in range(size) if rng.random() < rng.choice((0.15, 0.4)))
        if rng.random() < 0.3:
            m |= 1 << x
        images.append(m)
    return Multifunction(GroundSet(tuple(f"p{i}" for i in range(size))), tuple(images))


def test_row_propagation_equals_the_path_matrix_sums():
    rng = random.Random(4)
    for case in range(40):
        F = _seeded_multifunction(rng, case % 10 + 1)
        size = F.ground.size
        # repeated points in either set count once per listing
        pairs = [([rng.randrange(size) for _ in range(rng.randint(0, 4))],
                  [rng.randrange(size) for _ in range(rng.randint(0, 4))]) for _ in range(2)]
        pairs.append((range(size), range(size)))
        for k in range(1, 71):
            matrix = path_matrix(F, k)
            for sources, targets in pairs:
                assert count_paths(F, sources, targets, k) == \
                    _reference_count_paths(matrix, sources, targets)
