from iterroot.core import GroundSet, SingleMap, identity_map
from iterroot.fixedpoint import (
    FixedPointProfile,
    OrderExclusion,
    fixed_point_profile,
)
from iterroot.instances import fig67, random_permutation, random_single_map
from iterroot.search import find_single_root


def three_point_collapse():
    # a fixed, b -> a, c -> b
    return SingleMap(GroundSet(("a", "b", "c")), (0, 0, 1))


def test_fig67_profile():
    f, _ = fig67()
    prof = fixed_point_profile(f)
    labels = f.ground.labels
    assert sorted(labels[x] for x in prof.non_isolated) == ["x1", "x2", "x3", "x4"]
    for x in prof.non_isolated:
        assert len(prof.tails[x]) == 2
        assert all(prof.tail_preimage_nonempty[y] for y in prof.tails[x])
    assert prof.total_tail_size == 8


def test_identity_map_all_isolated():
    ground = GroundSet(tuple("abcd"))
    prof = fixed_point_profile(identity_map(ground))
    assert prof.fixed_points == (0, 1, 2, 3)
    assert prof.non_isolated == ()
    assert prof.total_tail_size == 0


def test_three_point_collapse_profile():
    prof = fixed_point_profile(three_point_collapse())
    assert prof.non_isolated == (0,)
    assert prof.tails[0] == {1}
    assert prof.tail_preimage_nonempty[1]
    assert prof.total_tail_size == 1


def test_rice_exclusion_fig67():
    f, _ = fig67()
    exclusion = fixed_point_profile(f).rice_exclusion()
    assert exclusion == OrderExclusion(8, None)
    assert exclusion.excludes(9) and exclusion.excludes(100)
    assert not exclusion.excludes(8)


def test_rice_exclusion_absent_for_permutations():
    for seed in range(10):
        assert fixed_point_profile(random_permutation(5, seed=seed)).rice_exclusion() is None


def test_rice_exclusion_three_point_collapse_excludes_everything():
    exclusion = fixed_point_profile(three_point_collapse()).rice_exclusion()
    assert exclusion.lower_bound == 1
    for n in (2, 3, 4, 5):
        assert exclusion.excludes(n)
        assert find_single_root(three_point_collapse(), n).outcome == "exhausted"


def test_non_isolated_exclusion_fig67():
    f, _ = fig67()
    exclusion = fixed_point_profile(f).non_isolated_exclusion()
    assert exclusion == OrderExclusion(2, 4)
    assert exclusion.excludes(5)
    assert exclusion.excludes(7) and exclusion.excludes(11) and exclusion.excludes(13)
    assert not exclusion.excludes(4)  # the order-4 root exists
    assert not exclusion.excludes(6)
    assert not exclusion.excludes(2)


def test_exclusion_describes_its_window():
    assert OrderExclusion(8, None).describe() == "all orders n > 8"
    assert OrderExclusion(2, 4).describe() == \
        "orders n > 2 with no divisor in [2, 4]"


def test_non_isolated_exclusion_needs_two_fixed_points():
    assert fixed_point_profile(three_point_collapse()).non_isolated_exclusion() is None


def test_non_isolated_exclusion_needs_tail_preimages():
    # two non-isolated fixed points but one tail point with empty preimage
    f = SingleMap(GroundSet(tuple("abcd")), (0, 0, 2, 2))
    assert fixed_point_profile(f).non_isolated_exclusion() is None  # b has no preimage


def test_two_fixed_point_instance_excludes_odd_orders():
    # two non-isolated fixed points with singleton tails, tails have preimages
    ground = GroundSet(tuple("abcdef"))
    f = SingleMap(ground, (0, 0, 1, 3, 3, 4))
    exclusion = fixed_point_profile(f).non_isolated_exclusion()
    assert exclusion == OrderExclusion(1, 2)
    assert exclusion.excludes(3) and exclusion.excludes(5)
    assert not exclusion.excludes(2)
    assert find_single_root(f, 3).outcome == "exhausted"


def test_exclusion_monotone_within_residue_pattern():
    exclusion = OrderExclusion(2, 4)
    assert exclusion.excludes(5)
    assert exclusion.excludes(25)  # same coprimality pattern, larger order


def test_joint_soundness_against_oracle():
    for seed in range(120):
        f = random_single_map(5, seed=seed)
        prof = fixed_point_profile(f)
        for exclusion in (prof.rice_exclusion(), prof.non_isolated_exclusion()):
            if exclusion is None:
                continue
            for n in (2, 3, 5):
                if exclusion.excludes(n):
                    assert find_single_root(f, n).outcome == "exhausted"


def _reference_profile(f):
    """The profile built from one preimage set per point."""
    size = f.ground.size
    preimages = [set() for _ in range(size)]
    for x, y in enumerate(f.image):
        preimages[y].add(x)
    fixed = tuple(x for x in range(size) if f.image[x] == x)
    tails = {x: frozenset(preimages[x] - {x}) for x in fixed}
    non_isolated = tuple(x for x in fixed if tails[x])
    union = set()
    for x in non_isolated:
        union |= tails[x]
    flags = {y: bool(preimages[y]) for x in non_isolated for y in tails[x]}
    return FixedPointProfile(fixed, tails, non_isolated, len(union), flags)


def test_profile_equals_the_preimage_set_reference():
    maps = [fig67()[0], three_point_collapse()]
    for size in (1, 2, 5, 9):
        ground = GroundSet(tuple(f"p{i}" for i in range(size)))
        maps.append(identity_map(ground))
        maps.extend(SingleMap(ground, (c,) * size) for c in {0, size - 1})
    for seed in range(60):
        maps.append(random_single_map(2 + seed % 11, seed=seed))
        maps.append(random_permutation(2 + seed % 11, seed=seed))
    for f in maps:
        assert fixed_point_profile(f) == _reference_profile(f), f.image
