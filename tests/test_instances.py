import hashlib

import pytest

from iterroot.core import iterate, profile
from iterroot.instances import (
    InstanceSpec,
    build,
    cyclic_power,
    f1,
    f2,
    fig67,
    random_multifunction,
    random_permutation,
    random_single_map,
)


def test_f1_shape_and_degrees():
    F = f1(3)
    assert F.ground.size == 12
    prof = profile(F)
    assert prof.domain == frozenset(range(12))  # total
    assert prof.max_out_degree == 2
    hub = F.ground.index("x0")
    assert prof.in_degrees[hub] == 4
    assert all(prof.in_degrees[x] <= 1 for x in range(12) if x != hub)


def test_f1_depth_scales_the_chains():
    for depth in (3, 4, 6):
        F = f1(depth)
        assert F.ground.size == (depth + 1) + 4 + 2 * (depth - 1)
        assert profile(F).domain == frozenset(range(F.ground.size))
    with pytest.raises(ValueError):
        f1(2)


def test_f2_shape_and_degrees():
    F = f2(3)
    assert F.ground.size == 1 + 2 * 3 + 3 * 3
    prof = profile(F)
    assert prof.domain == frozenset(range(F.ground.size))
    assert prof.image == frozenset(range(F.ground.size))  # surjective
    assert prof.max_out_degree == 2
    hub = F.ground.index("x0")
    assert prof.in_degrees[hub] == 3


def test_f2_rejects_depth_below_two():
    with pytest.raises(ValueError):
        f2(1)


def test_fig67_is_a_fourth_root_pair():
    f, g = fig67()
    assert f.ground.size == 20
    assert iterate(g, 4) == f
    assert iterate(g, 2) != f


def test_named_builders_keep_their_labels_and_rows():
    # one SHA-256 over the labels and rows of f1 (depths 3-12), f2 (depths 2-12)
    # and both fig67 maps, recorded when each builder kept its own label dict
    parts = [("f1", d, f1(d).ground.labels, f1(d).rows) for d in range(3, 13)]
    parts += [("f2", d, f2(d).ground.labels, f2(d).rows) for d in range(2, 13)]
    for name, m in zip(("fig67-f", "fig67-g"), fig67()):
        parts.append((name, None, m.ground.labels, m.image))
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == "ea91d7428960c1bc24976603ea1d9b0f2d2f2c065949926cb7cfd9d89162cff1"


def test_cyclic_power_translation_and_multiplication():
    add = cyclic_power(6, 2, "add")
    assert add.image == (2, 3, 4, 5, 0, 1)
    mul = cyclic_power(6, 2, "mul")
    assert mul.image == (0, 2, 4, 0, 2, 4)
    with pytest.raises(ValueError):
        cyclic_power(0, 1)
    with pytest.raises(ValueError):
        cyclic_power(5, 1, "xor")


def test_random_generators_are_seed_deterministic():
    assert random_multifunction(5, seed=9) == random_multifunction(5, seed=9)
    assert random_single_map(5, seed=9) == random_single_map(5, seed=9)
    assert random_permutation(5, seed=9) == random_permutation(5, seed=9)
    assert random_multifunction(5, seed=9) != random_multifunction(5, seed=10)


def test_random_multifunction_honours_out_degree_and_density():
    for seed in range(20):
        F = random_multifunction(6, seed=seed, max_out_degree=2)
        assert profile(F).max_out_degree <= 2
    empty = random_multifunction(6, seed=0, density=0.0)
    assert all(m == 0 for m in empty.images)
    full = random_multifunction(6, seed=0, density=1.0)
    assert all(m == (1 << 6) - 1 for m in full.images)


def test_random_permutation_is_a_bijection():
    for seed in range(10):
        p = random_permutation(7, seed=seed)
        assert sorted(p.image) == list(range(7))


def test_build_dispatches_all_names():
    assert build(InstanceSpec("f1", depth=4)) == f1(4)
    assert build(InstanceSpec("f2")) == f2(3)
    assert build(InstanceSpec("f2", depth=4)) == f2(4)
    assert build(InstanceSpec("fig67-f")) == fig67()[0]
    assert build(InstanceSpec("fig67-g")) == fig67()[1]
    assert build(InstanceSpec("cyclic-power", modulus=5, exponent=2,
                              variant="mul")) == cyclic_power(5, 2, "mul")
    assert build(InstanceSpec("random-mf", size=4, seed=1)) == random_multifunction(4, seed=1)
    assert build(InstanceSpec("random-map", size=4, seed=1)) == random_single_map(4, seed=1)


def test_build_rejects_unknown_or_incomplete_specs():
    with pytest.raises(ValueError):
        build(InstanceSpec("mystery"))
    with pytest.raises(ValueError):
        build(InstanceSpec("cyclic-power", modulus=5))
    with pytest.raises(ValueError):
        build(InstanceSpec("random-mf", size=4))


@pytest.mark.parametrize("spec, unused", [
    (InstanceSpec("f1", depth=3, density=7.0, max_out_degree=-4, seed=1),
     "max_out_degree, density, seed"),
    (InstanceSpec("fig67-f", size=3), "size"),
    (InstanceSpec("cyclic-power", modulus=5, exponent=2, seed=1), "seed"),
    (InstanceSpec("random-map", size=4, seed=1, density=0.5), "density"),
])
def test_build_rejects_fields_the_instance_does_not_take(spec, unused):
    with pytest.raises(ValueError, match=f"^instance {spec.name} does not take {unused}$"):
        build(spec)


@pytest.mark.parametrize("kwargs", [{"density": float("nan")}, {"density": 2.0},
                                    {"density": -1.0}, {"max_out_degree": -1}])
def test_random_multifunction_rejects_out_of_range_parameters(kwargs):
    with pytest.raises(ValueError, match="density|max_out_degree"):
        random_multifunction(5, seed=7, **kwargs)
