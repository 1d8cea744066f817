import itertools

import pytest

from iterroot.core import (
    GroundSet,
    Multifunction,
    SingleMap,
    identity_map,
    identity_multifunction,
    iterate,
    iterate_map,
    profile,
)
from iterroot.instances import cyclic_power, f1, fig67, random_multifunction
from iterroot.pullback import pullback_of
from iterroot.search import (
    RootConstraint,
    UNCONSTRAINED,
    find_multi_root,
    find_single_root,
    max_in_degree,
    max_out_degree,
)


def test_identity_has_identity_square_root():
    ground = GroundSet(("a", "b", "c"))
    result = find_multi_root(identity_multifunction(ground), 2)
    assert result.found
    # canonical order tries the all-empty map first, whose square is empty,
    # so the identity itself is the least consistent witness
    assert result.witness == identity_multifunction(ground)


def test_fig67_single_map_fourth_root_found_and_valid():
    f, g = fig67()
    result = find_single_root(f, 4, max_points=20)
    assert result.found
    assert iterate_map(result.witness, 4) == f
    # the canonical witness need not be the hand-built g, but both are roots
    assert iterate_map(g, 4) == f


def test_f1_certificate_confirmed_by_constrained_exhaustion():
    F = f1(3)
    result = find_multi_root(F, 2, max_out_degree(2, require_total_domain=True),
                             max_points=F.ground.size)
    assert result.outcome == "exhausted"


def test_translation_pullback_square_root_found():
    F = pullback_of(cyclic_power(4, 2, "add"))
    result = find_multi_root(F, 2)
    assert result.found
    assert profile(result.witness).max_out_degree <= 1


def test_four_cycle_has_no_square_root():
    ground = GroundSet(tuple("abcd"))
    f = SingleMap(ground, (1, 2, 3, 0))
    assert find_single_root(f, 2).outcome == "exhausted"
    assert find_multi_root(f.as_multifunction(), 2,
                           max_out_degree(1, require_total_domain=True)).outcome == "exhausted"


def test_five_cycle_square_root_is_a_five_cycle():
    ground = GroundSet(tuple("abcde"))
    f = SingleMap(ground, (1, 2, 3, 4, 0))
    result = find_single_root(f, 2)
    assert result.found
    g = result.witness
    assert sorted(g.image) == [0, 1, 2, 3, 4]
    assert iterate_map(g, 2) == f


def _naive_squares(size):
    ground = GroundSet(tuple(f"p{i}" for i in range(size)))
    full = (1 << size) - 1
    squares = {}
    for masks in itertools.product(range(full + 1), repeat=size):
        G = Multifunction(ground, masks)
        squares.setdefault(iterate(G, 2).images, []).append(G)
    return ground, squares


def test_search_complete_against_naive_enumeration_on_two_points():
    ground, squares = _naive_squares(2)
    full = (1 << 2) - 1
    for masks in itertools.product(range(full + 1), repeat=2):
        F = Multifunction(ground, masks)
        result = find_multi_root(F, 2)
        assert result.found == (F.images in squares)
        if result.found:
            assert equals_square(result.witness, F)


def equals_square(G, F):
    from iterroot.core import equals
    return equals(iterate(G, 2), F)


def test_search_complete_against_naive_enumeration_on_three_points():
    ground, squares = _naive_squares(3)
    full = (1 << 3) - 1
    for masks in itertools.product(range(full + 1), repeat=3):
        F = Multifunction(ground, masks)
        result = find_multi_root(F, 2)
        assert result.found == (F.images in squares)


def test_search_is_deterministic():
    for seed in range(10):
        F = random_multifunction(4, seed=seed)
        first = find_multi_root(F, 2)
        second = find_multi_root(F, 2)
        assert first == second  # elapsed excluded from comparison


def test_constrained_witness_respects_bounds():
    for seed in range(20):
        F = random_multifunction(4, seed=seed + 300)
        out = find_multi_root(F, 2, max_out_degree(2))
        if out.found:
            assert profile(out.witness).max_out_degree <= 2
        inn = find_multi_root(F, 2, max_in_degree(2))
        if inn.found:
            assert profile(inn.witness).max_in_degree <= 2


def test_constrained_exhaustion_implied_by_unconstrained():
    for seed in range(30):
        F = random_multifunction(4, seed=seed + 900)
        if find_multi_root(F, 2).outcome == "exhausted":
            assert find_multi_root(F, 2, max_out_degree(2)).outcome == "exhausted"
            assert find_multi_root(F, 2, max_in_degree(2)).outcome == "exhausted"


def test_budget_exceeded_is_reported_not_misread_as_absence():
    F = random_multifunction(5, seed=123)
    result = find_multi_root(F, 3, budget=50)
    assert result.outcome == "budget"
    assert result.witness is None
    assert result.nodes_explored >= 50


def test_caps_refuse_oversized_grounds_without_override():
    F = random_multifunction(6, seed=0)
    with pytest.raises(ValueError):
        find_multi_root(F, 2)
    f, _ = fig67()
    with pytest.raises(ValueError):
        find_single_root(f, 4)


def test_parameter_validation():
    F = random_multifunction(3, seed=0)
    with pytest.raises(ValueError):
        find_multi_root(F, 1)
    with pytest.raises(ValueError):
        find_multi_root(F, 2, budget=0)
    with pytest.raises(ValueError):
        RootConstraint("max-out", None)
    with pytest.raises(ValueError):
        RootConstraint("sideways")


def test_single_root_of_identity_orders_two_and_three():
    ground = GroundSet(tuple("abcd"))
    ident = identity_map(ground)
    for n in (2, 3):
        result = find_single_root(ident, n)
        assert result.found
        assert iterate_map(result.witness, n) == ident


def test_single_and_multi_search_agree_on_total_maps():
    from iterroot.instances import random_single_map
    for seed in range(40):
        f = random_single_map(4, seed=seed)
        single = find_single_root(f, 2)
        multi = find_multi_root(f.as_multifunction(), 2,
                                max_out_degree(1, require_total_domain=True))
        assert single.found == multi.found


def test_unconstrained_search_on_constant_map():
    ground = GroundSet(("a", "b", "c"))
    f = SingleMap(ground, (0, 0, 0))
    result = find_multi_root(f.as_multifunction(), 2)
    assert result.found
    assert equals_square(result.witness, f.as_multifunction())


def test_witness_checks_raise_when_the_root_identity_fails(monkeypatch):
    # the final witness checks must not be assertions, which python -O strips
    from iterroot import search
    ground = GroundSet(("a", "b", "c"))
    monkeypatch.setattr(search, "iterate", lambda G, n: Multifunction(G.ground, (0, 0, 0)))
    with pytest.raises(RuntimeError, match="not an order-2 root"):
        find_multi_root(identity_multifunction(ground), 2)
    monkeypatch.setattr(search, "iterate_map",
                        lambda g, n: SingleMap(g.ground, (1, 2, 0)))
    with pytest.raises(RuntimeError, match="not an order-2 root"):
        find_single_root(identity_map(ground), 2)
