import pytest

from iterroot.core import (
    GroundSet,
    Multifunction,
    SingleMap,
    compose,
    identity_map,
    identity_multifunction,
    iterate,
)
from iterroot.instances import cyclic_power, random_permutation, random_single_map
from iterroot.pullback import (
    decomposition_check,
    is_pullback,
    pullback_of,
    transfer_root,
)


def test_pullback_of_identity_is_identity():
    ground = GroundSet(("a", "b", "c"))
    assert pullback_of(identity_map(ground)) == identity_multifunction(ground)


def test_pullback_of_translation_is_inverse_translation():
    f = cyclic_power(8, 1, "add")
    F = pullback_of(f)
    for x in range(8):
        assert F.rows[x] == ((x - 1) % 8,)


def test_pullback_partitions_by_preimage():
    ground = GroundSet(("a", "b", "c"))
    f = SingleMap(ground, (1, 1, 1))
    F = pullback_of(f)
    assert F.rows[1] == (0, 1, 2)
    assert F.rows[0] == ()
    assert F.rows[2] == ()


def test_is_pullback_on_identity():
    ground = GroundSet(("a", "b", "c"))
    witness = is_pullback(identity_multifunction(ground))
    assert witness.is_pullback
    assert witness.witness_map == identity_map(ground)


def test_is_pullback_flags_overlapping_values():
    ground = GroundSet(("a", "b", "c"))
    F = Multifunction.from_sets(ground, [{2}, {2}, {0, 1}])
    witness = is_pullback(F)
    assert not witness.is_pullback
    assert "disjointness" in witness.failed_conditions


def test_is_pullback_flags_totality_and_surjectivity():
    ground = GroundSet(("a", "b"))
    F = Multifunction.from_sets(ground, [{0}, set()])
    witness = is_pullback(F)
    assert witness.failed_conditions == {"totality", "surjectivity"}


def test_pullback_round_trip_for_surjective_maps():
    for seed in range(30):
        f = random_permutation(6, seed=seed)
        witness = is_pullback(pullback_of(f))
        assert witness.is_pullback
        assert witness.witness_map == f


def test_round_trip_fails_totality_for_non_surjective_maps():
    ground = GroundSet(("a", "b", "c"))
    f = SingleMap(ground, (0, 0, 1))  # c has no preimage
    assert "totality" in is_pullback(pullback_of(f)).failed_conditions


def test_pullback_contravariance():
    for seed in range(20):
        f = random_single_map(5, seed=seed)
        g = random_single_map(5, seed=seed + 500)
        assert pullback_of(compose(f, g)) == compose(pullback_of(g), pullback_of(f))


def test_decomposition_of_translation_pullback():
    F = pullback_of(cyclic_power(8, 2, "add"))
    G = pullback_of(cyclic_power(8, 1, "add"))
    report = decomposition_check(F, G, G, root=G, order=2)
    assert report.applicable
    assert report.im_g1_full
    assert report.g2_values_disjoint
    assert report.root_is_pullback


def test_decomposition_of_identity_by_involution_pullback():
    ground = GroundSet(tuple("abcd"))
    invol = SingleMap(ground, (1, 0, 3, 2))
    F = identity_multifunction(ground)
    G = pullback_of(invol)
    report = decomposition_check(F, G, G, root=G, order=2)
    assert report.applicable
    assert report.im_g1_full and report.g2_values_disjoint and report.root_is_pullback


def test_decomposition_rejects_non_factorizations():
    ground = GroundSet(tuple("abcd"))
    F = identity_multifunction(ground)
    G = pullback_of(SingleMap(ground, (1, 2, 3, 0)))
    report = decomposition_check(F, G, G)
    assert not report.applicable
    assert "factorization" in report.failed_preconditions
    assert report.im_g1_full is None


def test_decomposition_of_searched_roots_of_pullbacks():
    from iterroot.search import find_multi_root
    for seed in range(8):
        f = random_permutation(4, seed=seed)
        F = pullback_of(f)
        result = find_multi_root(F, 2)
        if result.found:
            G = result.witness
            report = decomposition_check(F, G, G, root=G, order=2)
            assert report.applicable
            assert report.im_g1_full and report.g2_values_disjoint
            assert report.root_is_pullback


def test_transfer_translation_roots_agree():
    f = cyclic_power(8, 2, "add")
    g = cyclic_power(8, 1, "add")
    report = transfer_root(f, g, 2)
    assert report.applicable
    assert report.map_root_holds and report.pullback_root_holds and report.agree


def test_transfer_identity_and_involution():
    ground = GroundSet(tuple("abcd"))
    f = identity_map(ground)
    g = SingleMap(ground, (1, 0, 3, 2))
    report = transfer_root(f, g, 2)
    assert report.map_root_holds and report.pullback_root_holds and report.agree


def test_transfer_inapplicable_for_non_surjective_target():
    ground = GroundSet(("a", "b"))
    f = SingleMap(ground, (0, 0))
    report = transfer_root(f, identity_map(ground), 2)
    assert not report.applicable
    assert report.agree is None


def test_transfer_agreement_sweep():
    for seed in range(300):
        f = random_permutation(5, seed=seed)
        g = random_single_map(5, seed=seed + 10_000)
        report = transfer_root(f, g, 2)
        assert report.applicable
        assert report.agree


def test_transfer_rejects_bad_order():
    ground = GroundSet(("a",))
    with pytest.raises(ValueError):
        transfer_root(identity_map(ground), identity_map(ground), 1)
