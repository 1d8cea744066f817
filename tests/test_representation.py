"""A multifunction holds sorted index rows; the mask-based code it replaced is the oracle.

The references below are the bitmask implementations of ``invert``, the
certificate view and ``scan``/``check_rule``, ``is_pullback`` and
``count_paths`` that read ``images`` (one ``size``-bit int per point).  The
row-based code must agree with them on the chain families, on small seeded
multifunctions and on sparse seeded grounds of thousands of points.
"""
import random

from hypothesis import given, settings, strategies as st

from iterroot import criteria
from iterroot.core import (
    GroundSet, Multifunction, SingleMap, bits, invert, union_of,
)
from iterroot.criteria import BASE_HYPOTHESES, RULE_ORDER, Certificate, Conclusion, check_rule, scan
from iterroot.instances import f1, f2, random_multifunction, random_permutation, random_single_map
from iterroot.paths import count_paths
from iterroot.pullback import PullbackWitness, is_pullback

_INVERSE = (criteria.Rule.INVERSE_PATHS, criteria.Rule.INVERSE_POINTS)
_PATHS = (criteria.Rule.FORWARD_PATHS, criteria.Rule.INVERSE_PATHS)


def reference_invert(F):
    """The reversed graph as masks."""
    inv = [0] * F.ground.size
    if isinstance(F, SingleMap):
        for x, y in enumerate(F.image):
            inv[y] |= 1 << x
    else:
        for x, m in enumerate(F.images):
            for y in bits(m):
                inv[y] |= 1 << x
    return tuple(inv)


class ReferenceView:
    """One direction G of F on masks: ``preds`` are the inverse-image masks of G."""

    def __init__(self, F, inverse):
        inv = reference_invert(F)
        G, self.preds = (inv, F.images) if inverse else (F.images, inv)
        self.in_degrees = indeg = [p.bit_count() for p in self.preds]
        self.top = max(indeg)
        self.top_at = indeg.index(self.top)
        self.second = max(indeg[:self.top_at] + indeg[self.top_at + 1:], default=0)
        self.total, self.onto = all(G), all(self.preds)
        self.max_out_degree = max(m.bit_count() for m in G)

    def n_max_at(self, x0):
        return self.second if x0 == self.top_at else self.top


def reference_q(view, rule, x0):
    preds = view.preds
    if rule in _PATHS:
        return sum(view.in_degrees[y] for y in bits(preds[x0]))
    return union_of(preds, preds[x0]).bit_count()


def reference_certificate(view, rule, x0, M, N):
    n_max = view.n_max_at(x0)
    Q = reference_q(view, rule, x0)
    hyps = {
        "totality": view.total,
        "x0_not_fixed": not view.preds[x0] >> x0 & 1,
        "Q_exceeds_MN3": Q > M * N**3,
        "N_bound_holds": n_max <= N,
        "class_membership": view.max_out_degree <= M,
        "surjectivity_or_totality_extra": view.onto,
    }
    failed = tuple(name for name, held in hyps.items() if not held)
    if any(name in BASE_HYPOTHESES for name in failed):
        conclusion = Conclusion.NOT_APPLICABLE
    elif failed:
        conclusion = Conclusion.NO_ROOTS_IN_CLASS
    else:
        conclusion = Conclusion.NO_ROOTS_AT_ALL
    return Certificate(
        rule=rule, x0=x0, M=M, N=N, measured_Q=Q, measured_N_max=n_max,
        hypotheses=tuple(hyps.items()), conclusion=conclusion, failed_hypotheses=failed,
        root_class="max-in-degree" if rule in _INVERSE else "max-out-degree",
        citation=criteria._CITATIONS[rule],
    )


def reference_views(F):
    return {inverse: ReferenceView(F, inverse) for inverse in (False, True)}


def reference_check_rule(views, rule, M, points=None, N=None):
    view = views[rule in _INVERSE]
    return [reference_certificate(view, rule, x0, M,
                                  N if N is not None else max(1, view.n_max_at(x0)))
            for x0 in ([view.top_at] if points is None else points)]


def reference_scan(F, views, M):
    """The mask-based scan: in each direction whose G is total, one Q per rule at
    ``top_at``, the unique point that can fire, at its minimal N."""
    union = 0
    for m in F.images:
        union |= m
    live = {False: all(F.images), True: union == (1 << F.ground.size) - 1}
    found = []
    for rule in RULE_ORDER:
        inverse = rule in _INVERSE
        if live[inverse]:
            found += [cert for cert in reference_check_rule(views, rule, M) if cert.fires]
    return found


def reference_is_pullback(F):
    seen = 0
    disjoint = True
    for m in F.images:
        if seen & m:
            disjoint = False
        seen |= m
    failed = set()
    if not disjoint:
        failed.add("disjointness")
    if seen != (1 << F.ground.size) - 1:
        failed.add("surjectivity")
    if any(not m for m in F.images):
        failed.add("totality")
    if failed:
        return PullbackWitness(False, None, frozenset(failed))
    image = [0] * F.ground.size
    for y, m in enumerate(F.images):
        for x in bits(m):
            image[x] = y
    return PullbackWitness(True, SingleMap(F.ground, tuple(image)), frozenset())


def reference_count_paths(F, sources, targets, k):
    successors = [tuple(bits(m)) for m in F.images]
    row = [0] * F.ground.size
    for x in sources:
        row[x] += 1
    for _ in range(k):
        nxt = [0] * F.ground.size
        for x, c in enumerate(row):
            for y in successors[x]:
                nxt[y] += c
        row = nxt
    return sum(row[y] for y in targets)


def _ground(size):
    return GroundSet(tuple(f"p{i}" for i in range(size)))


def _sparse(size, seed):
    """A sparse multifunction built from rows: 0-3 random targets per point."""
    rng = random.Random(seed)
    return Multifunction.from_sets(_ground(size), [rng.sample(range(size), rng.randint(0, 3))
                                                   for _ in range(size)])


def _agrees(F, rng, points_checked):
    """Compare every row-based reader on F with its mask-based reference."""
    size = F.ground.size
    views = reference_views(F)
    assert invert(F).images == reference_invert(F)
    assert is_pullback(F) == reference_is_pullback(F)
    for M in (1, 2, 3):
        assert scan(F, M) == reference_scan(F, views, M)
    for rule in RULE_ORDER:
        for M in (1, 2):
            assert check_rule(F, rule, M) == reference_check_rule(views, rule, M)
            points = range(size) if size <= points_checked else rng.sample(range(size), 5)
            for N in (None, 2):
                assert check_rule(F, rule, M, points, N) == \
                    reference_check_rule(views, rule, M, points, N)
    for k in (1, 2, 4):
        sources = [rng.randrange(size) for _ in range(rng.randint(0, 4))]
        targets = [rng.randrange(size) for _ in range(rng.randint(0, 4))]
        assert count_paths(F, sources, targets, k) == \
            reference_count_paths(F, sources, targets, k)


def test_rows_agree_with_masks_on_the_chain_families():
    rng = random.Random(3)
    for d in range(3, 10):
        for F in (f1(d), f2(d)):
            _agrees(F, rng, points_checked=100)
            _agrees(invert(F), rng, points_checked=100)


def test_rows_agree_with_masks_on_small_seeded_multifunctions():
    rng = random.Random(13)
    fired = pullbacks = 0
    for seed in range(1500):
        size = rng.randint(1, 12)
        if seed % 10 == 9:  # pullbacks of maps, and of permutations, which are pullbacks
            make = random_permutation if seed % 20 == 9 else random_single_map
            F = invert(make(size, seed))
        else:
            F = random_multifunction(size, seed, max_out_degree=rng.choice((None, 1, 2, 3)),
                                     density=rng.choice((0.1, 0.2, 0.4, 0.7)))
        _agrees(F, rng, points_checked=12)
        fired += len(scan(F, 2))
        pullbacks += is_pullback(F).is_pullback
    assert fired > 0 and pullbacks > 0


def test_rows_agree_with_masks_on_sparse_seeded_grounds():
    rng = random.Random(29)
    for size in (1_000, 2_500, 5_000):
        f = random_single_map(size, size)
        for F in (_sparse(size, size), f.as_multifunction(), invert(f),
                  invert(random_permutation(size, size))):
            _agrees(F, rng, points_checked=0)


@st.composite
def _masks(draw):
    size = draw(st.integers(1, 40))
    sparse = st.sets(st.integers(0, size - 1), max_size=3).map(lambda s: sum(1 << y for y in s))
    masks = draw(st.lists(st.one_of(st.integers(0, (1 << size) - 1), sparse),
                          min_size=size, max_size=size))
    return _ground(size), tuple(masks)


@settings(max_examples=150)
@given(_masks(), st.randoms(use_true_random=False))
def test_masks_and_rows_round_trip(ground_masks, rnd):
    ground, masks = ground_masks
    rows = tuple(tuple(bits(m)) for m in masks)
    # from_sets takes any iterables: shuffled, with repeats
    sets = []
    for row in rows:
        items = list(row) + list(row[:1])
        rnd.shuffle(items)
        sets.append(items)
    by_masks = Multifunction(ground, masks)
    by_sets = Multifunction.from_sets(ground, sets)
    assert by_masks == by_sets and hash(by_masks) == hash(by_sets)
    assert by_masks.images == by_sets.images == masks
    assert by_masks.rows == by_sets.rows == rows
    assert Multifunction(ground, by_sets.images) == Multifunction.from_sets(ground, by_masks.rows)
    labels = ground.labels
    for picked_masks, picked_sets, row in zip(by_masks.select(labels),
                                              Multifunction.from_sets(ground, rows).select(labels),
                                              rows):
        assert list(picked_masks) == list(picked_sets) == [labels[y] for y in row]
