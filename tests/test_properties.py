"""Randomized structural properties driven by hypothesis strategies."""
from hypothesis import given, settings, strategies as st

from iterroot.core import (
    GroundSet,
    Multifunction,
    SingleMap,
    compose,
    equals,
    invert,
    iterate,
)
from iterroot.criteria import RULE_ORDER, Rule, check_rule, scan
from iterroot.mfnio import parse, serialize
from iterroot.paths import path_matrix


@st.composite
def multifunctions(draw, min_size=1, max_size=5):
    size = draw(st.integers(min_size, max_size))
    ground = GroundSet(tuple(f"p{i}" for i in range(size)))
    masks = draw(st.tuples(*[st.integers(0, (1 << size) - 1)] * size))
    return Multifunction(ground, masks)


@given(multifunctions())
def test_serialization_round_trip(F):
    assert equals(parse(serialize(F)), F)


@st.composite
def single_maps(draw, max_size=6):
    size = draw(st.integers(1, max_size))
    ground = GroundSet(tuple(f"p{i}" for i in range(size)))
    kind = draw(st.sampled_from(["constant", "permutation", "non-surjective"]))
    if kind == "constant":
        image = (draw(st.integers(0, size - 1)),) * size
    elif kind == "permutation":
        image = tuple(draw(st.permutations(range(size))))
    else:  # misses the last point, or is constant on a one-point ground
        image = tuple(draw(st.integers(0, max(size - 2, 0))) for _ in range(size))
    return SingleMap(ground, image)


@given(single_maps())
def test_invert_of_a_map_is_invert_of_its_embedding(f):
    inv = invert(f)
    assert equals(inv, invert(f.as_multifunction()))
    assert all(inv.images[y] >> x & 1 for x, y in enumerate(f.image))


@given(multifunctions())
def test_invert_is_involutive(F):
    assert equals(invert(invert(F)), F)


@settings(max_examples=50)
@given(multifunctions(max_size=4), st.data())
def test_compose_associative(F, data):
    size = F.ground.size
    G = data.draw(multifunctions(min_size=size, max_size=size))
    H = data.draw(multifunctions(min_size=size, max_size=size))
    assert equals(compose(F, compose(G, H)), compose(compose(F, G), H))


@settings(max_examples=50)
@given(multifunctions(max_size=4), st.integers(1, 3), st.integers(1, 3))
def test_path_matrix_composition_law(F, k, l):
    size = F.ground.size
    a = path_matrix(F, k).entries
    b = path_matrix(F, l).entries
    total = path_matrix(F, k + l).entries
    for x in range(size):
        for z in range(size):
            assert total[x][z] == sum(a[x][y] * b[y][z] for y in range(size))


@settings(max_examples=50)
@given(multifunctions(max_size=4), st.integers(0, 2), st.integers(0, 2))
def test_iterate_additive(F, m, n):
    assert equals(iterate(F, m + n), compose(iterate(F, m), iterate(F, n)))


@st.composite
def single_maps(draw, min_size=1, max_size=8):
    size = draw(st.integers(min_size, max_size))
    ground = GroundSet(tuple(f"p{i}" for i in range(size)))
    return SingleMap(ground, draw(st.tuples(*[st.integers(0, size - 1)] * size)))


@given(single_maps())
def test_single_map_serialization_round_trip(f):
    assert parse(serialize(f)) == f



@st.composite
def sparse_multifunctions(draw, max_size=7):
    # out-degrees of at most 2, so a point can gather enough 2-paths to fire
    size = draw(st.integers(1, max_size))
    ground = GroundSet(tuple(f"p{i}" for i in range(size)))
    images = draw(st.lists(st.frozensets(st.integers(0, size - 1), max_size=2),
                           min_size=size, max_size=size))
    return Multifunction.from_sets(ground, images)


@settings(max_examples=300)
@given(st.one_of(multifunctions(max_size=7), sparse_multifunctions()))
def test_scan_fires_only_at_the_unique_largest_in_degree(F):
    size = F.ground.size
    for M in (1, 2, 3):
        certs = scan(F, M)
        assert certs == [c for rule in RULE_ORDER
                         for c in check_rule(F, rule, M, range(size)) if c.fires]
        for cert in certs:
            inverse = cert.rule in (Rule.INVERSE_PATHS, Rule.INVERSE_POINTS)
            G = invert(F) if inverse else F
            indeg = [m.bit_count() for m in invert(G).images]
            assert all(indeg[x] < indeg[cert.x0] for x in range(size) if x != cert.x0)
