import collections
import functools
import gc
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import iterroot
from iterroot.core import (
    GroundSet,
    Multifunction,
    SingleMap,
    bits,
    identity_map,
    identity_multifunction,
    iterate,
    profile,
    union_of,
)
from iterroot.instances import (
    cyclic_power,
    f1,
    f2,
    fig67,
    random_multifunction,
    random_permutation,
    random_single_map,
)
from iterroot.mfnio import serialize
from iterroot.pullback import pullback_of
from iterroot.search import (
    DEFAULT_BUDGET,
    RootConstraint,
    UNCONSTRAINED,
    find_multi_root,
    find_single_root,
    max_in_degree,
    max_out_degree,
)
import census


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
    assert iterate(result.witness, 4) == f
    # the canonical witness need not be the hand-built g, but both are roots
    assert iterate(g, 4) == f


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
    assert iterate(g, 2) == f


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
    return iterate(G, 2) == F


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


_FOUR_CYCLE = SingleMap(GroundSet(tuple("abcd")), (1, 2, 3, 0))


@pytest.mark.parametrize("run, outcome", [
    (lambda: find_single_root(fig67()[0], 4, budget=50, max_points=20), "budget"),
    (lambda: find_single_root(fig67()[0], 4, max_points=20), "witness"),
    # the periodic part of x -> 2x mod 8 is the fixed point 0, so its search runs
    # where a cycle type would refuse the four-cycle at once
    (lambda: find_single_root(cyclic_power(8, 2, "mul"), 2), "exhausted"),
    (lambda: find_single_root(cyclic_power(5, 2), 2), "witness"),
    (lambda: find_multi_root(random_multifunction(5, seed=123), 3, budget=50), "budget"),
    (lambda: find_multi_root(identity_multifunction(GroundSet(tuple("abc"))), 2), "witness"),
    (lambda: find_multi_root(_FOUR_CYCLE.as_multifunction(), 2,
                             max_out_degree(1, require_total_domain=True)), "exhausted"),
], ids=["single-budget", "single-witness", "single-exhausted", "single-permutation-witness",
        "multi-budget", "multi-witness", "multi-exhausted"])
def test_a_search_leaves_no_cyclic_garbage(run, outcome):
    # a search's lists must be freed when it returns: left in a reference
    # cycle, they pile up until a full collection, and peak memory then
    # depends on how many searches ran since the last one
    gc.collect()
    gc.disable()
    try:
        assert run().outcome == outcome
        assert gc.collect() == 0
    finally:
        gc.enable()


def _run_cli(*argv, ceiling=512 * 2**20):
    """``python -m iterroot.cli *argv`` under an address-space ceiling (512 MiB by
    default), so a request that allocates without bound fails with MemoryError
    instead of filling the machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    env = dict(os.environ, PYTHONPATH=str(Path(iterroot.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "iterroot.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)


def test_a_search_takes_memory_by_the_ground_not_the_budget(tmp_path):
    # 2**33 candidate images exist, and a depth enumerates only those it reads, so
    # a budget of 100,000 nodes takes no more memory than a budget of one
    F = random_multifunction(33, 3, density=0.2)
    tracemalloc.start()
    try:
        result = find_multi_root(F, 2, budget=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.outcome, result.nodes_explored) == ("budget", 100_000)
    assert peak < 4 * 2**20
    path = tmp_path / "random33.mfn"
    path.write_text(serialize(F), encoding="utf-8")
    proc = _run_cli("search", str(path), "--order", "2", "--budget", "100000", "--json")
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["nodes_explored"] == "100000"
    # a ground is refused by its size only when the caller asks for it
    with pytest.raises(ValueError, match="ground of 6 points exceeds max_points=5"):
        find_multi_root(random_multifunction(6, 0), 2, max_points=5)


def test_each_depth_of_the_identity_root_reads_up_to_its_own_point():
    # depth i of the identity's square root reads the empty image and the
    # singletons up to {i}: i + 2 nodes, 230 in all for 20 points
    ground = GroundSet(tuple(f"p{i}" for i in range(20)))
    result = find_multi_root(identity_multifunction(ground), 2)
    assert (result.outcome, result.nodes_explored) == ("witness", 230)
    assert result.witness == identity_multifunction(ground)


def test_a_ground_deeper_than_the_recursion_limit_is_refused(tmp_path):
    made = _run_cli("instance", "cyclic-power", "--modulus", "1200", "--exponent", "0")
    assert made.returncode == 0, made.stderr
    path = tmp_path / "identity1200.mfn"
    path.write_text(made.stdout, encoding="utf-8")
    proc = _run_cli("search", str(path), "--order", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: ground of 1200 points is deeper than the search can recurse\n"
    # the same ground as a multifunction, with a budget of a million nodes: each
    # depth enumerates only the masks between its bounds as it reads them, so the
    # search reaches the recursion limit at once and in little memory
    path = tmp_path / "identity1200-multi.mfn"
    path.write_text(made.stdout.replace("kind single\n", ""), encoding="utf-8")
    start = time.perf_counter()
    proc = _run_cli("search", str(path), "--order", "2", "--budget", "1000000",
                    ceiling=128 * 2**20)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == "error: ground of 1200 points is deeper than the search can recurse\n"
    assert elapsed < 2.0
    # the refused search leaves no cycle behind, as a finished one does
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(ValueError, match="deeper than the search can recurse"):
            find_single_root(cyclic_power(1200, 0), 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_request_out_of_memory_exits_2_with_one_line(tmp_path):
    # exit 1 would read as "exhausted", a verdict the search never reached.  The
    # 40,000-cycle as a multifunction needs one 40,000-bit preimage mask per point
    made = _run_cli("instance", "cyclic-power", "--modulus", "40000", "--exponent", "1")
    assert made.returncode == 0, made.stderr
    path = tmp_path / "cycle40000-multi.mfn"
    path.write_text(made.stdout.replace("kind single\n", ""), encoding="utf-8")
    proc = _run_cli("search", str(path), "--order", "2", ceiling=128 * 2**20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_a_default_budget_search_of_33_points_fits_in_64_mib(tmp_path):
    # the search holds the candidates of the depths it is in, not the 5,000,001
    # its budget could reach
    path = tmp_path / "random33.mfn"
    path.write_text(serialize(random_multifunction(33, 3, density=0.2)), encoding="utf-8")
    proc = _run_cli("search", str(path), "--order", "2", "--json", ceiling=64 * 2**20)
    assert (proc.returncode, proc.stderr) == (3, "")
    assert json.loads(proc.stdout) == {"nodes_explored": "5000000", "order": 2,
                                       "outcome": "budget", "witness": None}


_EXHAUSTED_AT_10_7 = {"order": 10_000_000, "outcome": "exhausted", "witness": None}


@pytest.mark.parametrize("instance, extra, code, verdict", [
    # x -> 2x mod 8 has one periodic point, the fixed point 0, so its cycle type
    # settles nothing and the single-map search walks; the 13-cycle x -> x + 2 mod
    # 13 passes its cycle-type test, and the arc test at 0 takes 8, the least value
    # a root can take there, which fixes the root x -> x + 8 in 13 * 7 nodes; the
    # 5-cycle x -> x + 2 mod 5 goes to the multi-map search
    (("--modulus", "8", "--exponent", "2", "--variant", "mul"), (), 1,
     {**_EXHAUSTED_AT_10_7, "nodes_explored": "280"}),
    (("--modulus", "13", "--exponent", "2"), (), 0,
     {"order": 10_000_000, "outcome": "witness", "nodes_explored": "91",
      "witness": "points 0 1 2 3 4 5 6 7 8 9 10 11 12\nkind single\n"
                 + "".join(f"{x} -> {(x + 8) % 13}\n" for x in range(13))}),
    (("--modulus", "5", "--exponent", "2"), ("--max-out", "1"), 1,
     {**_EXHAUSTED_AT_10_7, "nodes_explored": "228"}),
], ids=["single", "single-permutation", "multi-max-out-1"])
def test_a_large_order_costs_what_a_small_one_does(tmp_path, instance, extra, code, verdict):
    # the walks stop at their first repeat, so an order of ten million explores
    # the nodes of orders 40-1000 at about their cost
    made = _run_cli("instance", "cyclic-power", *instance)
    assert made.returncode == 0, made.stderr
    path = tmp_path / "target.mfn"
    path.write_text(made.stdout, encoding="utf-8")
    start = time.perf_counter()
    proc = _run_cli("search", str(path), "--order", "10000000", *extra, "--json")
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (code, "")
    assert json.loads(proc.stdout) == verdict
    assert elapsed < 5.0


def test_parameter_validation():
    F = random_multifunction(3, seed=0)
    f = random_single_map(3, 0)
    # a target or constraint of the wrong type is refused at entry, in one line
    for run, message in [
        (lambda: find_multi_root(F, 2, None), "must be a RootConstraint"),
        (lambda: find_multi_root(F, 2, "max-out"), "must be a RootConstraint"),
        (lambda: find_multi_root(f, 2), "requires a multifunction"),
        (lambda: find_single_root(F, 2), "requires a single map"),
    ]:
        with pytest.raises(TypeError, match=message):
            run()
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
        assert iterate(result.witness, n) == ident


def test_single_and_multi_search_agree_on_total_maps():
    # a total map's roots are the multifunction roots of out-degree at most one with
    # a total domain, tried in the same order, so the multi-map engine checks the
    # single-map engine's outcome, node count and witness; a small budget on every
    # fourth request checks where both stop.  Only the single-map engine prunes by
    # the cycle type of f's periodic points, and that pruning is commutation alone
    # when the one periodic point is a fixed point; with more of them it may explore
    # fewer nodes, and the multi-map engine checks its outcome and witness where it
    # decides
    rng = random.Random(20261019)
    for trial in range(400):
        size, n = rng.randint(3, 8), rng.randint(2, 4)
        f = (random_single_map, random_permutation)[trial % 2](size, rng.randrange(2**31))
        if trial % 3 == 0:  # a planted root makes witnesses common
            f = iterate(f, n)
        budget = 40 if trial % 4 == 3 else 20_000
        single = find_single_root(f, n, budget=budget)
        multi = find_multi_root(f.as_multifunction(), n,
                                max_out_degree(1, require_total_domain=True), budget=budget)
        if len(_periodic_part(f)[0]) == 1:
            assert single.nodes_explored == multi.nodes_explored, (f.image, n)
        else:
            assert single.nodes_explored <= multi.nodes_explored, (f.image, n)
            if multi.outcome == "budget":
                continue
        assert single.outcome == multi.outcome, (f.image, n)
        if single.found:
            assert single.witness.as_multifunction() == multi.witness, (f.image, n)


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
    monkeypatch.setattr(search, "iterate", lambda g, n: SingleMap(g.ground, (1, 2, 0)))
    with pytest.raises(RuntimeError, match="not an order-2 root"):
        find_single_root(identity_map(ground), 2)


# Reference: the full-rescan consistency checks the incremental ones replaced.
# At every node they re-check every decided point, so a searcher built on
# them must explore exactly the same nodes as the real searchers.

def _reference_consistent(imgs, decided, fimgs, n):
    dmask = (1 << decided) - 1
    for x in range(decided):
        cur = 1 << x
        complete = True
        for _ in range(n):
            if cur & ~dmask:
                complete = False
            nxt = 0
            for y in bits(cur & dmask):
                nxt |= imgs[y]
            cur = nxt
        if complete:
            if cur != fimgs[x]:
                return False
        elif cur & ~fimgs[x]:
            return False
        fg = 0
        for y in bits(imgs[x]):
            fg |= fimgs[y]
        fx = fimgs[x]
        gf = 0
        for y in bits(fx & dmask):
            gf |= imgs[y]
        if fx & ~dmask:
            if gf & ~fg:
                return False
        elif gf != fg:
            return False
    return True


def _reference_map_consistent(g, i, fv, n):
    for x in range(i + 1):
        fx = fv[x]
        if fx <= i and fv[g[x]] != g[fx]:
            return False
        cur = x
        complete = True
        for _ in range(n):
            if cur > i:
                complete = False
                break
            cur = g[cur]
        if complete and cur != fx:
            return False
    return True


class _ReferenceBudgetExceeded(Exception):
    pass


def _reference_candidates(size, constraint):
    candidates = sorted(range(1 << size), key=lambda m: (m.bit_count(), m))
    if constraint.variant == "max-out":
        candidates = [m for m in candidates if m.bit_count() <= constraint.bound]
    if constraint.require_total_domain:
        candidates = [m for m in candidates if m]
    return candidates


def _reference_multi(F, n, constraint, budget=DEFAULT_BUDGET):
    """(outcome, nodes, witness images) of the full-rescan multi-map searcher."""
    size = F.ground.size
    candidates = _reference_candidates(size, constraint)
    in_bound = constraint.bound if constraint.variant == "max-in" else None
    imgs = [0] * size
    indeg = [0] * size
    nodes = 0

    def rec(i):
        nonlocal nodes
        if i == size:
            return True
        for m in candidates:
            nodes += 1
            if nodes > budget:
                raise _ReferenceBudgetExceeded
            if in_bound is not None:
                for y in bits(m):
                    indeg[y] += 1
                if any(indeg[y] > in_bound for y in bits(m)):
                    for y in bits(m):
                        indeg[y] -= 1
                    continue
            imgs[i] = m
            if _reference_consistent(imgs, i + 1, F.images, n) and rec(i + 1):
                return True
            if in_bound is not None:
                for y in bits(m):
                    indeg[y] -= 1
        return False

    try:
        found = rec(0)
    except _ReferenceBudgetExceeded:
        return "budget", budget, None
    return ("witness", nodes, tuple(imgs)) if found else ("exhausted", nodes, None)


def _cycle_length(fv, x):
    length, y = 1, fv[x]
    while y != x:
        length, y = length + 1, fv[y]
    return length


def _has_root_by_cycle_type(fv, n):
    """Whether the permutation ``fv`` has an n-th root: under g^n a g-cycle of
    length L splits into gcd(L, n) cycles of length L / gcd(L, n), so the
    l-cycles of fv must split into blocks of d of them, where d divides n and
    gcd(l, n / d) = 1; each count is tried against every sum of such d."""
    lengths = collections.Counter(_cycle_length(fv, x) for x in range(len(fv)))
    for length, points in lengths.items():
        blocks = [d for d in range(1, n + 1) if n % d == 0 and math.gcd(length, n // d) == 1]
        sums = {0}
        for total in range(1, points // length + 1):
            if any(total - d in sums for d in blocks):
                sums.add(total)
        if points // length not in sums:
            return False
    return True


def _periodic_part(f):
    """f's periodic points, the image of f^size, as {point: length of its f-cycle},
    and f on them as a permutation of 0..len - 1 (the points relabelled in order)."""
    points = sorted(set(iterate(f, f.ground.size).image))
    index = {x: k for k, x in enumerate(points)}
    return ({x: _cycle_length(f.image, x) for x in points},
            [index[f.image[x]] for x in points])


def _loop_sizes(length, n):
    """The numbers d of l-cycles of a root that can make l-cycles of its n-th
    power: a g-cycle of length d * l splits under g^n into gcd(d * l, n) cycles
    of length d * l / gcd(d * l, n), which is l iff d | n and gcd(l, n / d) = 1."""
    return frozenset(d for d in range(1, n + 1) if n % d == 0 and math.gcd(length, n // d) == 1)


@functools.lru_cache(maxsize=None)
def _groupable(lengths, sizes):
    """Whether the sorted tuple ``lengths`` splits into groups whose sums lie in
    ``sizes``: the group of the first length is tried with every subset of the rest."""
    if not lengths:
        return True
    first, rest = lengths[0], lengths[1:]
    for k in range(len(rest) + 1):
        for chosen in itertools.combinations(range(len(rest)), k):
            if first + sum(rest[j] for j in chosen) in sizes and _groupable(
                    tuple(x for j, x in enumerate(rest) if j not in chosen), sizes):
                return True
    return False


def _arcs_extend(cycles, where, g, i, n):
    """Whether g on the points 0..i can extend to a bijection of f's periodic
    points that commutes with f and whose n-th power is f there.  ``cycles``
    lists f's cycles, each from its least point b as [b, f(b), f^2(b), ...], and
    ``where`` maps each of their points to (cycle index, position).  Commutation
    makes g(f^k(b)) = f^k(g(b)), so a cycle whose b is decided maps onto the
    cycle of g(b), shifted by g(b)'s position t: an arc, which fixes g on the
    whole cycle.  The arcs form paths and loops.  A loop of d l-cycles whose
    shifts sum to S makes g^n = f on them iff d | n and S * (n / d) = 1 mod l,
    and the open paths of l-cycles can be closed into loops iff their lengths
    group into sums of such d."""
    arcs = {}
    for c, cycle in enumerate(cycles):
        if cycle[0] > i:
            continue
        if g[cycle[0]] not in where:
            return False
        target, t = where[g[cycle[0]]]
        image = cycles[target]
        if len(image) != len(cycle) or target in {a for a, _ in arcs.values()}:
            return False
        if any(g[x] != image[(t + k) % len(cycle)] for k, x in enumerate(cycle) if x <= i):
            return False
        arcs[c] = (target, t)
    entered = {a for a, _ in arcs.values()}
    seen, paths = set(), collections.defaultdict(list)
    for start in range(len(cycles)):
        if start in entered:
            continue
        count, c = 1, start
        seen.add(c)
        while c in arcs:
            c = arcs[c][0]
            seen.add(c)
            count += 1
        paths[len(cycles[start])].append(count)
    for start in range(len(cycles)):
        if start in seen:
            continue
        d, total, c = 0, 0, start
        while c not in seen:
            seen.add(c)
            c, t = arcs[c]
            d, total = d + 1, total + t
        length = len(cycles[start])
        if n % d or total * (n // d) % length != 1 % length:
            return False
    return all(_groupable(tuple(sorted(counts)), _loop_sizes(length, n))
               for length, counts in paths.items())


def _reference_single(f, n, budget=DEFAULT_BUDGET, visit=None, filtered=True):
    """(outcome, nodes, witness image) of the full-rescan single-map searcher;
    ``visit(g, i)`` is called at each depth i < size that the search reaches.
    ``filtered`` gives it the pruning the single-map engine has on f's periodic
    points: no search at all when their cycle type rules out a root, and at
    each node of a periodic point, the test that the decided part of g on them
    still extends to a root there (_arcs_extend)."""
    size = f.ground.size
    lengths = {}  # the periodic points' cycle lengths, when filtered
    cycles, where = [], {}
    if filtered:
        lengths, perm = _periodic_part(f)
        if not _has_root_by_cycle_type(perm, n):
            return "exhausted", 0, None
        for x in sorted(lengths):
            if x not in where:
                cycle = [x]
                while f.image[cycle[-1]] != x:
                    cycle.append(f.image[cycle[-1]])
                where.update((y, (len(cycles), k)) for k, y in enumerate(cycle))
                cycles.append(cycle)
    g = [0] * size
    nodes = 0

    def rec(i):
        nonlocal nodes
        if i == size:
            return True
        if visit is not None:
            visit(g, i)
        for v in range(size):
            nodes += 1
            if nodes > budget:
                raise _ReferenceBudgetExceeded
            g[i] = v
            if i in lengths and not _arcs_extend(cycles, where, g, i, n):
                continue
            if _reference_map_consistent(g, i, f.image, n) and rec(i + 1):
                return True
        return False

    try:
        found = rec(0)
    except _ReferenceBudgetExceeded:
        return "budget", budget, None
    return ("witness", nodes, tuple(g)) if found else ("exhausted", nodes, None)


def _check_single(f, n, budget):
    """find_single_root against both references: node for node against the
    filtered one, and against the unfiltered one in outcome and witness
    wherever that one decides, with no more nodes than it explores."""
    got = _summary(find_single_root(f, n, budget=budget), "single")
    assert got == _reference_single(f, n, budget), (f.image, n, budget)
    plain = _reference_single(f, n, budget, filtered=False)
    assert got[1] <= plain[1], (f.image, n, budget)
    if plain[0] != "budget":
        assert (got[0], got[2]) == (plain[0], plain[2]), (f.image, n, budget)


def _single_cases(fv, n, cases):
    """A ``visit`` for _reference_single that tallies, in ``cases``, the shapes
    the single-map engine's checks take at a depth where commutation allows
    some value: the levels of its reverse walk from i (the earlier points whose
    walk first meets i after k steps, for k < n) by their f-images, and the
    allowed values whose walk from i makes i + 1 steps through decided points
    before the lowest checked step, so that it jumps onto its cycle."""
    def visit(g, i):
        def commutes(v):
            h = g[:i] + [v]
            return all(fv[h[x]] == h[fv[x]] for x in range(i + 1) if fv[x] <= i)

        allowed = [v for v in range(len(fv)) if commutes(v)]
        if not allowed:
            return
        level, checked = {i}, 1
        for _ in range(1, n):
            level = {x for x in range(i) if g[x] in level}
            if not level:
                break
            checked += 1
            if len(level) == 1:
                cases["one point"] += 1
            elif len({fv[x] for x in level}) == 1:
                cases["one f-image"] += 1
            else:
                cases["several f-images"] += 1
        lowest = n + 1 - checked
        for v in allowed:
            walk, cur = [v], v
            while len(walk) <= i and cur <= i:
                cur = v if cur == i else g[cur]
                walk.append(cur)
            if i + 1 < lowest and all(x <= i for x in walk):
                cases["cycle jump"] += 1
    return visit


def _summary(result, kind):
    witness = None
    if result.found:
        witness = result.witness.image if kind == "single" else result.witness.images
    return result.outcome, result.nodes_explored, witness


def test_incremental_single_search_explores_the_reference_nodes():
    rng = random.Random(20261017)
    for trial in range(480):
        size = rng.randint(3, 8)
        n = rng.randint(2, 4)
        if trial % 3 == 0:  # a planted root makes witnesses common
            f = iterate(random_single_map(size, rng.randrange(2**31)), n)
        else:
            f = random_single_map(size, rng.randrange(2**31))
        _check_single(f, n, 20_000)


def test_single_search_matches_the_reference_at_every_budget():
    # the single-map search counts the values that commutation excludes in
    # bulk, so an off-by-one there shows only at the budget it would cross;
    # budget b stops a search at node b + 1, which it reports as b nodes, and
    # b = nodes + 1 lets the search finish.
    # Seven points would need 1,000-5,000 nodes, and a sweep over every
    # budget costs the square of that.  The maps must meet every shape a
    # check takes: reverse-walk levels of one point, of several points with
    # one f-image and with several, and a walk that jumps onto its cycle.
    rng = random.Random(20261019)
    cases = collections.Counter()
    for trial in range(40):
        size = rng.randint(3, 6)
        n = rng.randint(2, 4)
        make = (random_single_map, random_permutation, random_single_map)[trial % 3]
        f = make(size, rng.randrange(2**31))
        if trial % 3 == 2:  # a map with at least two fixed points
            image = list(f.image)
            for x in rng.sample(range(size), 2):
                image[x] = x
            f = SingleMap(f.ground, tuple(image))
        nodes = _reference_single(f, n, visit=_single_cases(f.image, n, cases))[1]
        for budget in range(1, nodes + 2):
            _check_single(f, n, budget)
    assert set(cases) == {"one point", "one f-image", "several f-images", "cycle jump"}, cases


def test_incremental_multi_search_explores_the_reference_nodes():
    rng = random.Random(20261018)
    classes = (UNCONSTRAINED, max_out_degree(2), max_in_degree(2),
               max_out_degree(2, require_total_domain=True))
    # the last 48 trials give 5-6 points budgets below their 32 or 64 candidates,
    # so a search can stop partway through a depth's enumeration of the masks
    # between its bounds; their planted roots are sparse, so that some are found
    # within the budget
    for trial in range(288):
        cut = trial >= 240
        size = rng.randint(5, 6) if cut else rng.randint(2, 5)
        n = rng.randint(2, 3)
        if cut:
            constraint = (UNCONSTRAINED, max_in_degree(2))[trial // 2 % 2]
        else:
            constraint = classes[trial % len(classes)]
        root = random_multifunction(size, rng.randrange(2**31), max_out_degree=2,
                                    density=0.2 if cut else 0.5)
        F = iterate(root, n) if trial % 2 else random_multifunction(size, rng.randrange(2**31))
        budget = (1, 7, 33, 63)[trial // 4 % 4] if cut else 4_000
        got = _summary(find_multi_root(F, n, constraint, budget=budget), "multi")
        assert got == _reference_multi(F, n, constraint, budget), (F.images, n, constraint)


def test_masks_between_two_bounds_are_the_sorted_and_filtered_list():
    # for every pair lower <= upper, the masks of each size between them, with
    # their index in the class and their F-image, are the reference list's
    # masks between them, each with its position
    from iterroot.search import _masks
    for size in range(1, 7):
        fimgs = random_multifunction(size, seed=size).images
        for total in (False, True):
            for constraint in (RootConstraint(require_total_domain=total),
                               max_out_degree(1, total), max_out_degree(2, total),
                               max_in_degree(1, total)):
                candidates = _reference_candidates(size, constraint)
                first = {}  # size -> the position of its first mask in the class
                for j, m in enumerate(candidates):
                    first.setdefault(m.bit_count(), j)
                for upper in range(1 << size):
                    lower = upper
                    while True:  # every subset of upper, the last one 0
                        got = [entry for k in first if k >= lower.bit_count()
                               for entry in _masks(upper, lower, k, first[k], 0, 0, fimgs)]
                        assert got == [(j, m, union_of(fimgs, m))
                                       for j, m in enumerate(candidates)
                                       if not m & ~upper and not lower & ~m]
                        if not lower:
                            break
                        lower = (lower - 1) & upper


@pytest.mark.parametrize("make, n, constraint, outcome, nodes", [
    (lambda: fig67()[0], 4, None, "witness", 115_818),
    (lambda: fig67()[0], 5, None, "exhausted", 5_400),
    (lambda: f1(3), 2, max_out_degree(2, require_total_domain=True), "exhausted", 6_864),
    (lambda: f1(4), 2, max_out_degree(2, require_total_domain=True), "exhausted", 18_840),
    (lambda: f2(2), 2, max_out_degree(2, require_total_domain=True), "exhausted", 17_358),
    # the search workload's two heaviest multi-map requests
    (lambda: f1(5), 2, max_out_degree(2, require_total_domain=True), "exhausted", 44_802),
    (lambda: f2(3), 2, max_out_degree(2, require_total_domain=True), "exhausted", 142_256),
    # bench-shaped permutations, which the search workload gives 30,000 nodes: a
    # 12-cycle has no square root by its cycle type, so it is refused with no
    # node explored, while the 13-cycle's square root is found at 91 of them, one
    # value per point up to the root's
    (lambda: cyclic_power(12, 3, "add"), 2, None, "exhausted", 0),
    (lambda: cyclic_power(13, 3, "add"), 2, None, "witness", 91),
    (lambda: cyclic_power(12, 5, "add"), 2, None, "exhausted", 0),
    # a permutation's search never backtracks, so a 901-cycle's square root
    # costs 901 * 902 / 2 nodes, one value per point up to the root's
    (lambda: cyclic_power(901, 1, "add"), 2, None, "witness", 406_351),
])
def test_node_counts_on_named_instances(make, n, constraint, outcome, nodes):
    target = make()
    size = target.ground.size
    if constraint is None:
        result = find_single_root(target, n, max_points=size)
    else:
        result = find_multi_root(target, n, constraint, max_points=size)
    assert (result.outcome, result.nodes_explored) == (outcome, nodes)


@pytest.mark.parametrize("modulus, variant, exponent, n, outcome, nodes, witness", [
    (13, "add", 3, 4, "witness", 91, (4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 1, 2, 3)),
    (14, "add", 7, 3, "witness", 105, (1, 2, 7, 4, 5, 10, 13, 8, 9, 0, 11, 12, 3, 6)),
    (15, "add", 2, 4, "witness", 120, (8, 9, 10, 11, 12, 13, 14, 0, 1, 2, 3, 4, 5, 6, 7)),
    (13, "mul", 2, 3, "exhausted", 0, None),
    (15, "mul", 2, 2, "exhausted", 0, None),
    (16, "add", 5, 3, "witness", 136, tuple((x + 7) % 16 for x in range(16))),
    (15, "add", 7, 4, "witness", 120, tuple((x + 13) % 15 for x in range(15))),
    (16, "add", 7, 3, "witness", 136, tuple((x + 13) % 16 for x in range(16))),
])
def test_bench_cyclic_requests_keep_their_nodes_and_witnesses(modulus, variant, exponent, n,
                                                             outcome, nodes, witness):
    # eight of the search workload's cyclic requests at its 30,000-node budget, so
    # a change in the single-map search's nodes fails here and not only in the
    # digest of a benchmark pass
    f = cyclic_power(modulus, exponent, variant)
    result = find_single_root(f, n, budget=30_000, max_points=modulus)
    assert _summary(result, "single") == (outcome, nodes, witness)


@pytest.mark.parametrize("run", [
    lambda: find_single_root(_FOUR_CYCLE, 2, budget=float("inf")),
    lambda: find_multi_root(_FOUR_CYCLE.as_multifunction(), 2, budget=float("inf")),
    lambda: find_single_root(_FOUR_CYCLE, 3.0),
], ids=["single-budget-inf", "multi-budget-inf", "single-order-float"])
def test_a_non_integer_order_or_budget_is_refused(run):
    # an infinite budget would lift the node bound, and a float order would
    # fail deep inside the engine
    with pytest.raises(ValueError, match="must be integers"):
        run()


def test_walks_cut_at_their_first_repeat_match_the_references():
    # orders up to three times the ground: the single-map walk from i jumps into
    # its cycle once it has made more steps than there are decided points, and the
    # multi-map set walk once the order exceeds the ground size
    rng = random.Random(20261021)
    classes = (UNCONSTRAINED, max_out_degree(2), max_in_degree(2),
               max_out_degree(1, require_total_domain=True))
    for trial in range(160):
        size = rng.randint(2, 6)
        n = rng.randint(2, 3 * size)
        make = (random_single_map, random_permutation)[trial % 2]
        f = make(size, rng.randrange(2**31))
        if trial % 3 == 0:  # a planted root makes witnesses common
            f = iterate(f, n)
        _check_single(f, n, 20_000)
        constraint = classes[trial % len(classes)]
        root = random_multifunction(size, rng.randrange(2**31), max_out_degree=2, density=0.3)
        F = iterate(root, n) if trial % 2 else random_multifunction(size, rng.randrange(2**31))
        budget = 2_000 if size > 4 else 20_000
        got = _summary(find_multi_root(F, n, constraint, budget=budget), "multi")
        assert got == _reference_multi(F, n, constraint, budget), (F.images, n, constraint)


def test_every_small_permutation_keeps_its_outcome_and_witness():
    # the cycle-type refusal and the arc test may cut only subtrees without a
    # root: on every permutation of up to 6 points at orders
    # 2-12 the search must decide as the unfiltered reference does, with its
    # witness and in no more nodes, and explore exactly the filtered one's nodes
    for size in range(1, 7):
        ground = GroundSet(tuple(f"p{i}" for i in range(size)))
        for image in itertools.permutations(range(size)):
            for n in range(2, 13):
                _check_single(SingleMap(ground, image), n, DEFAULT_BUDGET)


def test_every_permutation_of_up_to_7_points_is_settled_without_backtracking():
    # each least point of an f-cycle keeps the first value whose arc a root
    # extends, which fixes its cycle, so the search never leaves a depth without a
    # witness: on every permutation of up to 7 points at orders 2-12 it returns the
    # least root, found here by listing the powers of every permutation (a root of
    # a permutation is one), after counting the values up to the root's image at
    # each point, size * (size + 1) / 2 nodes in all; a permutation with no root is
    # refused by its cycle type with none
    for size in range(1, 8):
        ground = GroundSet(tuple(f"p{i}" for i in range(size)))
        least = {}  # (n, g^n) -> the least g, as permutations come in increasing order
        for g in itertools.permutations(range(size)):
            power = g
            for n in range(2, 13):
                power = tuple(g[x] for x in power)
                least.setdefault((n, power), g)
        for image in itertools.permutations(range(size)):
            f = SingleMap(ground, image)
            for n in range(2, 13):
                result = find_single_root(f, n)
                root = least.get((n, image))
                expected = (("exhausted", 0, None) if root is None
                            else ("witness", size * (size + 1) // 2, root))
                assert _summary(result, "single") == expected, (image, n)


def test_long_arc_paths_match_the_reference():
    # permutations of k equal l-cycles, whose roots join paths of up to k cycles
    # (the random maps above rarely join more than 4), under shuffled labels and
    # with 0-2 tail points, node for node against the reference; and one loop of
    # sixteen 32-cycles, whose 16th root x -> x + 1 is found without backtracking
    rng = random.Random(20261030)
    for length, count, n in [(2, 8, 8), (2, 8, 4), (1, 16, 16), (4, 4, 4), (3, 3, 3),
                             (5, 3, 3), (3, 6, 3)]:
        for tails in range(3):
            cycled = length * count
            size = cycled + tails
            label = rng.sample(range(size), size)
            image = [0] * size
            for x in range(cycled):
                image[label[x]] = label[x - x % length + (x + 1) % length]
            for x in range(cycled, size):
                image[label[x]] = label[rng.randrange(x)]
            f = SingleMap(GroundSet(tuple(f"p{x}" for x in range(size))), tuple(image))
            assert _summary(find_single_root(f, n), "single") == _reference_single(f, n), (
                f.image, n)
    result = find_single_root(cyclic_power(512, 16), 16)
    assert _summary(result, "single") == (
        "witness", 512 * 513 // 2, tuple((x + 1) % 512 for x in range(512)))


def test_a_constraint_refuses_a_field_it_would_ignore():
    # an unconstrained search reads no bound and a total domain is a yes or no, so
    # either would make two results of the same search compare unequal
    with pytest.raises(ValueError, match="no degree bound"):
        RootConstraint(UNCONSTRAINED.variant, 3)
    for total in ("yes", 1, None):
        with pytest.raises(ValueError, match="must be a bool"):
            RootConstraint(require_total_domain=total)
        with pytest.raises(ValueError, match="must be a bool"):
            max_out_degree(2, total)
    assert RootConstraint(UNCONSTRAINED.variant) == UNCONSTRAINED


def test_the_grouping_test_agrees_with_every_grouping():
    # the search groups the open paths of two or more l-cycles and pads each group
    # with one-cycle paths; against trying every grouping of every multiset of path
    # lengths whose total a_l(n) divides, for up to 9 l-cycles in all; the allowed
    # loop sizes and the paths are those of the l-cycles, so no size or path
    # exceeds their number
    from iterroot.search import _block, _packs
    checked = rejected = 0
    for length in range(1, 7):
        for n in range(2, 25):
            step = _block(length, n)
            for number in range(step, 10, step):
                sizes = _loop_sizes(length, n)
                top = max(d for d in sizes if d <= number)
                up = [min(d for d in sizes if d >= s) for s in range(top + 1)]
                for total in range(step, number + 1, step):
                    for parts in _partitions(total, top):
                        counts = [0] * (top + 1)
                        for part in parts:
                            counts[part] += 1
                        kept = list(counts)
                        fits = _packs(counts, up)
                        assert counts == kept
                        assert fits == _groupable(tuple(sorted(parts)), sizes), (
                            length, n, number, parts)
                        checked += 1
                        rejected += not fits
    assert checked > 10_000 and rejected > 1_000, (checked, rejected)


def _partitions(total, largest):
    """The multisets of positive parts, each at most ``largest``, that sum to ``total``."""
    if not total:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def test_every_small_map_keeps_its_outcome_witness_and_nodes():
    # every map of 1-5 points at orders 2-6, hashed result by result: any change
    # to an outcome or a witness changes the verdict digest, and any change to a
    # node count the node digest.  CI runs the maps of up to 6 points
    request = census.request("maps 5".split())
    assert census.run(request) == census.PINNED[request]


def test_every_small_multifunction_keeps_its_outcome_witness_and_nodes():
    # every multifunction on 3 points at orders 2-3, unconstrained, at out- or
    # in-degree 1 and at out-degree 2 on a total domain, hashed as the maps are.
    # CI runs every multifunction on 4 points at order 2
    request = census.request("multi 3 2 3 --class unconstrained --class max-out:1 "
                             "--class max-in:1 --class max-out:2:total".split())
    assert census.run(request) == census.PINNED[request]


def test_a_refusal_by_the_periodic_cycle_type_is_exact():
    # the search explores 0 nodes exactly when the cycle type of f on its periodic
    # points, by this file's own divisor loop, rules out a root, and the unfiltered
    # reference, which knows no cycle type, then exhausts: on every map of 1-4
    # points and on seeded maps of 5-7 points, at orders 2-6
    rng = random.Random(20261024)
    maps = [SingleMap(GroundSet(tuple(f"p{i}" for i in range(size))), image)
            for size in range(1, 5) for image in itertools.product(range(size), repeat=size)]
    maps += [random_single_map(rng.randint(5, 7), rng.randrange(2**31)) for _ in range(400)]
    refusals = 0
    for f in maps:
        perm = _periodic_part(f)[1]
        for n in range(2, 7):
            refused = find_single_root(f, n, budget=100_000).nodes_explored == 0
            assert refused != _has_root_by_cycle_type(perm, n), (f.image, n)
            if refused:
                refusals += 1
                assert _reference_single(f, n, filtered=False)[0] == "exhausted", (f.image, n)
    assert refusals


def test_a_refusal_by_the_cycle_type_is_linear_in_the_ground():
    # the cycle type is read before any mask is built, so refusing one
    # 500,000-cycle at order 2 is linear in the ground; a mask per cycle, walked
    # point by point, made it quadratic, 6.3 s
    f = cyclic_power(500_000, 7)
    start = time.perf_counter()
    result = find_single_root(f, 2)
    elapsed = time.perf_counter() - start
    assert (result.outcome, result.nodes_explored) == ("exhausted", 0)
    assert elapsed < 1.0


def test_the_cycle_type_test_names_the_first_failing_length():
    from iterroot.search import _failing_cycle_length
    # l-cycles come in blocks of d with d | n and gcd(l, n / d) = 1, checked here
    # by trying every sum of such blocks
    for length in range(1, 13):
        for count in range(7):
            for n in range(2, 61):
                fv = [(x + 1) % length + x // length * length for x in range(length * count)]
                assert (_failing_cycle_length({length: count}, n) is None
                        ) == _has_root_by_cycle_type(fv, n), (length, count, n)
    assert _failing_cycle_length({1: 3, 3: 1, 4: 1, 2: 3}, 2) == 4  # 2 fails too
    # a 5-cycle at order 10^7 would need 5^7 of them; a gcd loop, not n, sets the cost
    assert _failing_cycle_length({5: 1}, 10**7) == 5
    assert _failing_cycle_length({5: 5**7}, 10**7) is None
    assert _failing_cycle_length({2: 1, 3: 1}, 10**18 + 9) is None


def test_results_repeat_with_period_60_past_order_25():
    # on 6 points every walk is periodic from step (6 - 1)**2 + 1 = 26 on, with a
    # period dividing lcm(1..6) = 60: so are the powers of a planted root
    rng = random.Random(20261022)
    maps = [random_permutation(6, rng.randrange(2**31)),
            random_single_map(6, rng.randrange(2**31)),
            random_single_map(6, rng.randrange(2**31))]
    multis = [random_multifunction(6, rng.randrange(2**31), max_out_degree=2, density=0.3)
              for _ in range(2)]
    for n in range(26, 41):
        for root in maps:
            assert iterate(root, n) == iterate(root, n + 60)
            for f in (root, iterate(root, n)):
                assert (_summary(find_single_root(f, n), "single")
                        == _summary(find_single_root(f, n + 60), "single")), (f.image, n)
        for root in multis:
            F = iterate(root, n)
            assert F == iterate(root, n + 60)
            for constraint in (max_out_degree(1), max_in_degree(2)):
                assert (_summary(find_multi_root(F, n, constraint, budget=5_000), "multi")
                        == _summary(find_multi_root(F, n + 60, constraint, budget=5_000),
                                    "multi")), (F.images, n, constraint)
