import random
import re

import pytest

from iterroot import core, criteria
from iterroot.core import (
    GroundSet, Multifunction, identity_multifunction, invert, iterate, profile,
)
from iterroot.criteria import (
    BASE_HYPOTHESES,
    EXTRA_HYPOTHESES,
    RULE_ORDER,
    Certificate,
    Conclusion,
    Rule,
    check_rule,
    minimal_N,
    scan,
)
from iterroot.instances import (
    f1, f2, random_multifunction, random_permutation, random_single_map,
)
from iterroot.paths import path_matrix


def test_f1_forward_paths_fires_in_class():
    F = f1(3)
    cert = check_rule(F, Rule.FORWARD_PATHS, 2, [F.ground.index("x0")], 1)[0]
    assert cert.conclusion is Conclusion.NO_ROOTS_IN_CLASS
    assert cert.measured_Q == 4
    assert cert.measured_N_max == 1


def test_f1_forward_points_not_applicable_at_the_bound():
    F = f1(3)
    cert = check_rule(F, Rule.FORWARD_POINTS, 2, [F.ground.index("x0")], 1)[0]
    assert cert.conclusion is Conclusion.NOT_APPLICABLE
    assert cert.measured_Q == 2  # equals M*N^3, and the comparison is strict
    assert "Q_exceeds_MN3" in cert.failed_hypotheses


def test_identity_never_applicable():
    F = identity_multifunction(f1(3).ground)
    for x0 in range(F.ground.size):
        cert = check_rule(F, Rule.FORWARD_PATHS, 2, [x0], 1)[0]
        assert cert.conclusion is Conclusion.NOT_APPLICABLE
        assert "x0_not_fixed" in cert.failed_hypotheses


def test_f2_fires_no_roots_at_all_under_both_forward_rules():
    F = f2(3)
    x0 = F.ground.index("x0")
    paths_cert = check_rule(F, Rule.FORWARD_PATHS, 2, [x0], 1)[0]
    points_cert = check_rule(F, Rule.FORWARD_POINTS, 2, [x0], 1)[0]
    assert paths_cert.conclusion is Conclusion.NO_ROOTS_AT_ALL
    assert paths_cert.measured_Q == 3
    assert points_cert.conclusion is Conclusion.NO_ROOTS_AT_ALL
    assert points_cert.measured_Q == 3


def test_inverse_paths_fires_on_inverted_f1():
    F = invert(f1(3))
    cert = check_rule(F, Rule.INVERSE_PATHS, 2, [F.ground.index("x0")], 1)[0]
    assert cert.conclusion is Conclusion.NO_ROOTS_IN_CLASS
    assert cert.measured_Q == 4
    assert cert.root_class == "max-in-degree"


def test_inverse_paths_not_applicable_on_f1_itself():
    F = f1(3)
    cert = check_rule(F, Rule.INVERSE_PATHS, 2, [F.ground.index("x0")], 1)[0]
    assert cert.conclusion is Conclusion.NOT_APPLICABLE
    assert cert.measured_Q == 1  # single chain out of the hub


def test_inverse_points_blocked_at_the_bound_on_inverted_f1():
    F = invert(f1(3))
    cert = check_rule(F, Rule.INVERSE_POINTS, 2, [F.ground.index("x0")], 1)[0]
    assert cert.conclusion is Conclusion.NOT_APPLICABLE
    assert cert.measured_Q == 2


def test_inverse_points_fires_on_wide_fan():
    # hub c feeding 5 points that fan out to 5 distinct points
    ground = GroundSet(tuple("cabdefghijk"))
    F = Multifunction.from_sets(
        ground, [range(1, 6), *([i + 5] for i in range(1, 6)), *([0] for _ in range(6, 11))])
    cert = check_rule(F, Rule.INVERSE_POINTS, 1, [0], 1)[0]
    assert cert.measured_Q == 5
    assert cert.hypothesis("Q_exceeds_MN3")


def test_singleton_self_loop_not_applicable():
    from iterroot.core import GroundSet, Multifunction
    F = Multifunction(GroundSet(("a",)), (1,))
    cert = check_rule(F, Rule.INVERSE_POINTS, 1, [0], 1)[0]
    assert cert.conclusion is Conclusion.NOT_APPLICABLE
    assert "x0_not_fixed" in cert.failed_hypotheses


def test_missing_domain_point_reports_totality():
    from iterroot.core import GroundSet, Multifunction
    F = Multifunction(GroundSet(("a", "b")), (2, 0))
    cert = check_rule(F, Rule.FORWARD_POINTS, 1, [0], 1)[0]
    assert cert.conclusion is Conclusion.NOT_APPLICABLE
    assert "totality" in cert.failed_hypotheses


def test_validation_errors():
    F = f1(3)
    with pytest.raises(ValueError):
        check_rule(F, Rule.FORWARD_PATHS, 1, [F.ground.size], 1)
    with pytest.raises(ValueError):
        check_rule(F, Rule.FORWARD_PATHS, 0, [0], 1)
    with pytest.raises(ValueError):
        check_rule(F, Rule.FORWARD_PATHS, 1, [0], 0)


_F1 = f1(3)
_FP = Rule.FORWARD_PATHS
_BOUNDS = "bounds M and N must be positive"
# each argument is read once, at entry, whatever else the call holds:
# (the call, the error it raises or the value it returns)
_ENTRY_CHECKS = {
    "point-above": (lambda: minimal_N(_F1, _FP, 99), ValueError("witness point 99 out of range")),
    "point-below": (lambda: minimal_N(_F1, _FP, -1), ValueError("witness point -1 out of range")),
    "float-point": (lambda: check_rule(_F1, _FP, 2, [1.5]),
                    TypeError("'float' object cannot be interpreted as an integer")),
    "str-point": (lambda: check_rule(_F1, _FP, 2, ["a"]),
                  TypeError("'str' object cannot be interpreted as an integer")),
    "M-no-points": (lambda: check_rule(_F1, _FP, 0, []), ValueError(_BOUNDS)),
    "N-no-points": (lambda: check_rule(_F1, _FP, 1, [], 0), ValueError(_BOUNDS)),
    "unknown-rule": (lambda: minimal_N(_F1, "no-such-rule", 0),
                     ValueError("'no-such-rule' is not a valid Rule")),
    "rule-label": (lambda: check_rule(_F1, "forward-paths", 2)[0].rule, Rule.FORWARD_PATHS),
}


@pytest.mark.parametrize("call, expected", _ENTRY_CHECKS.values(), ids=_ENTRY_CHECKS)
def test_each_argument_is_checked_at_entry(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            call()
    else:
        assert call() is expected


def test_duality_forward_equals_inverse_on_inverted():
    for seed in range(60):
        F = random_multifunction(4, seed=seed)
        x0 = seed % 4
        M, N = 1 + seed % 2, 1 + seed % 3
        inv = invert(F)
        assert check_rule(F, Rule.INVERSE_PATHS, M, [x0], N)[0].conclusion == \
            check_rule(inv, Rule.FORWARD_PATHS, M, [x0], N)[0].conclusion
        assert check_rule(F, Rule.INVERSE_POINTS, M, [x0], N)[0].conclusion == \
            check_rule(inv, Rule.FORWARD_POINTS, M, [x0], N)[0].conclusion


def test_points_rule_firing_implies_paths_rule_firing():
    hits = 0
    for seed in range(400):
        F = random_multifunction(4, seed=seed, max_out_degree=2, density=0.4)
        for x0 in range(4):
            N = minimal_N(F, Rule.FORWARD_POINTS, x0)
            points_cert = check_rule(F, Rule.FORWARD_POINTS, 2, [x0], N)[0]
            if points_cert.fires:
                hits += 1
                assert check_rule(F, Rule.FORWARD_PATHS, 2, [x0], N)[0].fires
    assert hits > 0


def test_certificates_are_recomputable():
    F = f2(3)
    x0 = F.ground.index("x0")
    for rule in Rule:
        first = check_rule(F, rule, 2, [x0], 1)
        again = check_rule(F, rule, 2, [x0], 1)
        assert first == again


def test_scan_f1_finds_exactly_the_forward_paths_certificate():
    F = f1(3)
    certs = scan(F, 2)
    assert [(c.rule, c.x0) for c in certs] == [(Rule.FORWARD_PATHS, F.ground.index("x0"))]
    inv_certs = scan(invert(F), 2)
    assert (Rule.INVERSE_PATHS, F.ground.index("x0")) in [(c.rule, c.x0) for c in inv_certs]


def test_scan_identity_is_empty():
    F = identity_multifunction(f1(3).ground)
    assert scan(F, 1) == []
    assert scan(F, 3) == []


def test_scan_f2_finds_both_forward_certificates():
    F = f2(3)
    rules = {c.rule for c in scan(F, 2)}
    assert Rule.FORWARD_PATHS in rules
    assert Rule.FORWARD_POINTS in rules


def test_scan_orders_by_rule_then_witness():
    for seed in range(40):
        F = random_multifunction(5, seed=seed, max_out_degree=2, density=0.4)
        certs = scan(F, 2)
        keys = [(list(Rule).index(c.rule), c.x0) for c in certs]
        assert keys == sorted(keys)


_INVERSE = (Rule.INVERSE_PATHS, Rule.INVERSE_POINTS)


# Reference: the dense checkers the closed forms replaced.  Q is read off
# the full two-step path matrix or the second iterate of G, where G is F
# for the forward rules and its edge reversal for the inverse rules.

_DENSE_CITATIONS = {
    Rule.FORWARD_PATHS: "two-path concentration at a non-fixed point (path form)",
    Rule.FORWARD_POINTS: "two-step preimage concentration at a non-fixed point (point form)",
    Rule.INVERSE_PATHS: "two-path concentration on the reversed graph (path form)",
    Rule.INVERSE_POINTS: "two-step image concentration on the reversed graph (point form)",
}


def _dense_direction(F, inverse):
    G = invert(F) if inverse else F
    size = G.ground.size
    entries = path_matrix(G, 2)
    G2 = iterate(G, 2)
    q_paths = [sum(entries[x][x0] for x in range(size)) for x0 in range(size)]
    q_points = [sum(1 for x in range(size) if G2.images[x] >> x0 & 1) for x0 in range(size)]
    return profile(G), q_paths, q_points


def _dense_certificate(dense, rule, x0, M, N):
    inverse = rule in (Rule.INVERSE_PATHS, Rule.INVERSE_POINTS)
    prof, q_paths, q_points = dense[inverse]
    size = len(q_paths)
    Q = (q_paths if rule in (Rule.FORWARD_PATHS, Rule.INVERSE_PATHS) else q_points)[x0]
    n_max = max((prof.in_degrees[x] for x in range(size) if x != x0), default=0)
    base = {
        "totality": len(prof.domain) == size,
        "x0_not_fixed": x0 not in prof.fixed_membership,
        "Q_exceeds_MN3": Q > M * N**3,
        "N_bound_holds": n_max <= N,
    }
    extra = {
        "class_membership": prof.max_out_degree <= M,
        "surjectivity_or_totality_extra": len(prof.image) == size,
    }
    failed_base = tuple(name for name in BASE_HYPOTHESES if not base[name])
    failed_extra = tuple(name for name in EXTRA_HYPOTHESES if not extra[name])
    if failed_base:
        conclusion = Conclusion.NOT_APPLICABLE
    elif failed_extra:
        conclusion = Conclusion.NO_ROOTS_IN_CLASS
    else:
        conclusion = Conclusion.NO_ROOTS_AT_ALL
    return Certificate(
        rule=rule, x0=x0, M=M, N=N, measured_Q=Q, measured_N_max=n_max,
        hypotheses=tuple(base.items()) + tuple(extra.items()), conclusion=conclusion,
        failed_hypotheses=failed_base + failed_extra,
        root_class="max-in-degree" if inverse else "max-out-degree",
        citation=_DENSE_CITATIONS[rule],
    )


def _dense_minimal_N(F, rule, x0):
    prof = profile(F)
    counts = prof.in_degrees if rule in (Rule.FORWARD_PATHS, Rule.FORWARD_POINTS) \
        else prof.out_degrees
    return max(1, max((counts[x] for x in range(F.ground.size) if x != x0), default=1))


def _reference_instances():
    yield from (f1(d) for d in range(3, 7))
    yield from (invert(f1(d)) for d in range(3, 7))
    yield from (f2(d) for d in range(2, 5))
    yield from (invert(f2(d)) for d in range(2, 5))
    rng = random.Random(20221211)
    for seed in range(320):
        # partial domains, non-surjective images and self-loops all occur
        yield random_multifunction(rng.randint(1, 8), seed,
                                   max_out_degree=rng.choice((None, 1, 2, 3)),
                                   density=rng.choice((0.15, 0.3, 0.5, 0.7)))


def test_closed_form_certificates_equal_the_dense_reference():
    fired = dict.fromkeys(Rule, 0)
    partial = non_surjective = looped = 0
    # firing certificates of the one live direction: F total but not onto
    # (forward rules), F onto but partial (inverse rules)
    one_live = {False: 0, True: 0}
    for F in _reference_instances():
        size = F.ground.size
        dense = {inverse: _dense_direction(F, inverse) for inverse in (False, True)}
        prof = dense[False][0]
        partial += len(prof.domain) < size
        non_surjective += len(prof.image) < size
        looped += bool(prof.fixed_membership)
        live = {False: len(prof.domain) == size, True: len(prof.image) == size}
        for rule in RULE_ORDER:
            for x0 in range(size):
                N = _dense_minimal_N(F, rule, x0)
                assert minimal_N(F, rule, x0) == N
                for M in (1, 2):
                    for n in {1, N}:
                        assert check_rule(F, rule, M, [x0], n) == \
                            [_dense_certificate(dense, rule, x0, M, n)]
        for M in (1, 2, 3):
            expected = [cert for rule in RULE_ORDER for x0 in range(size)
                        if (cert := _dense_certificate(
                            dense, rule, x0, M, _dense_minimal_N(F, rule, x0))).fires]
            assert scan(F, M) == expected
            for cert in expected:
                fired[cert.rule] += 1
                inverse = cert.rule in _INVERSE
                one_live[inverse] += live[inverse] and not live[not inverse]
    assert all(count > 0 for count in fired.values()), fired
    assert min(partial, non_surjective, looped) > 0
    assert min(one_live.values()) > 0, one_live


# scan decides what fires before it builds: only the directions whose G is
# total are live, and a Certificate is built only where one fires.

def _from_edges(labels, edges):
    ground = GroundSet(tuple(labels))
    images = [0] * ground.size
    for x, y in edges:
        images[ground.index(x)] |= 1 << ground.index(y)
    return Multifunction(ground, tuple(images))


def _total_not_onto():
    # four 2-step chains b_i -> a_i -> x0, and x0 -> b1: every point has an
    # image, b2..b4 have no preimage; Q = 4 at x0 and N = 1 everywhere else
    edges = [(f"a{i}", "x0") for i in range(1, 5)] + [(f"b{i}", f"a{i}") for i in range(1, 5)]
    return _from_edges(["x0"] + [f"{c}{i}" for c in "ab" for i in range(1, 5)],
                       edges + [("x0", "b1")])


def _rule_by_rule(F, M):
    size = F.ground.size
    return [c for rule in RULE_ORDER for c in check_rule(F, rule, M, range(size)) if c.fires]


def _scan_instances():
    yield from (f1(d) for d in range(3, 7))
    yield from (invert(f1(d)) for d in range(3, 7))
    yield from (f2(d) for d in range(2, 5))
    yield from (invert(f2(d)) for d in range(2, 5))
    yield _total_not_onto()
    yield invert(_total_not_onto())
    rng = random.Random(5)
    for seed in range(200):
        yield random_multifunction(rng.randint(1, 14), seed,
                                   max_out_degree=rng.choice((None, 1, 2, 3)),
                                   density=rng.choice((0.1, 0.2, 0.4, 0.7)))


def _counting(monkeypatch, name, module=criteria):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or original(*a))
    return calls


def test_scan_builds_certificates_only_where_one_fires(monkeypatch):
    checks = _counting(monkeypatch, "_check")
    # core.invert is the one inversion of F
    inversions = _counting(monkeypatch, "invert", core)
    neither = fired = 0
    for F in _scan_instances():
        size = F.ground.size
        onto = len(profile(F).image) == size
        total = len(profile(F).domain) == size
        for M in (1, 2, 3):
            expected = _rule_by_rule(F, M)
            del checks[:], inversions[:]
            certs = scan(F, M)
            assert certs == expected
            assert len(checks) == len(certs)
            assert len(inversions) == 0
            neither += not (total or onto)
            fired += len(certs)
    assert neither > 0 and fired > 0


@pytest.mark.parametrize("M", [1, 2, 3])
def test_scan_fires_in_the_one_live_direction(M):
    forward = _total_not_onto()
    backward = invert(forward)
    for F, total, onto in ((forward, True, False), (backward, False, True)):
        prof = profile(F)
        assert (len(prof.domain) == F.ground.size, len(prof.image) == F.ground.size) == \
            (total, onto)
        certs = scan(F, M)
        assert certs == _rule_by_rule(F, M)
        x0 = F.ground.index("x0")
        live = (Rule.FORWARD_PATHS, Rule.FORWARD_POINTS) if total else _INVERSE
        assert [(c.rule, c.x0) for c in certs] == [(rule, x0) for rule in live]
        assert all(c.measured_Q == 4 and c.N == 1 for c in certs)


# Only the unique point of largest in-degree in G can fire, whatever M and N
# (the lemma in the criteria docstring).  check_rule over every point is the
# oracle, and the default points of check_rule are that one candidate.

def _lemma_instances():
    for d in range(3, 10):
        yield from (f1(d), invert(f1(d)), f2(d), invert(f2(d)))
    rng = random.Random(13)
    for seed in range(1500):
        yield random_multifunction(rng.randint(1, 12), seed,
                                   max_out_degree=rng.choice((None, 1, 2, 3)),
                                   density=rng.choice((0.1, 0.2, 0.4, 0.7)))


def test_only_the_unique_largest_in_degree_fires():
    fired = 0
    for F in _lemma_instances():
        size = F.ground.size
        for rule in RULE_ORDER:
            indeg = profile(invert(F) if rule in _INVERSE else F).in_degrees
            top = max(indeg)
            top_at = indeg.index(top)
            for M in (1, 2):
                for N in range(1, top + 3):
                    certs = check_rule(F, rule, M, range(size), N)
                    assert check_rule(F, rule, M, N=N) == [certs[top_at]]
                    for cert in certs:
                        if cert.fires:
                            fired += 1
                            assert cert.x0 == top_at and indeg.count(top) == 1, (rule, M, N)
    assert fired > 0


def test_scan_computes_one_q_per_rule_at_the_candidate(monkeypatch):
    qs = _counting(monkeypatch, "_q")
    computed = 0
    for F in _scan_instances():
        size = F.ground.size
        prof = profile(F)
        live = {False: len(prof.domain) == size, True: len(prof.image) == size}
        for M in (1, 2, 3):
            del qs[:]
            scan(F, M)
            rules = [rule for _, rule, _ in qs]
            assert len(set(rules)) == len(rules)
            assert all(live[rule in _INVERSE] for rule in rules)
            assert all(x0 == view.top_at for view, _, x0 in qs)
            computed += len(qs)
    assert computed > 0


# The rules read F through two degree lists and never invert it: with the
# inversion made to raise, scan and check_rule still equal the dense oracle.

def _no_inversion(monkeypatch):
    def inverted(*args):
        raise AssertionError("F was inverted")
    # the name in core and any binding criteria makes of it
    monkeypatch.setattr(core, "invert", inverted)
    monkeypatch.setattr(criteria, "invert", inverted, raising=False)


def _degree_view_instances():
    for d in range(3, 6):
        yield from (f1(d), invert(f1(d)), f2(d), invert(f2(d)))
    one = GroundSet(("a",))
    yield from (Multifunction.from_sets(one, [rows]) for rows in ((), (0,)))
    rng = random.Random(20)
    for seed in range(240):
        F = random_multifunction(rng.randint(1, 14), seed,
                                 max_out_degree=rng.choice((None, 1, 2, 3)),
                                 density=rng.choice((0.1, 0.2, 0.4, 0.7)))
        yield F
        rows = [list(row) for row in F.rows]
        indeg = profile(F).in_degrees
        top_at = indeg.index(max(indeg))
        if top_at not in rows[top_at]:  # the same ground with its top point fixed
            rows[top_at].append(top_at)
            yield Multifunction.from_sets(F.ground, rows)


def test_the_degree_view_never_inverts_and_equals_the_oracle(monkeypatch):
    cases = []
    seen = dict.fromkeys(("tie", "fixed top", "one point", "onto only", "total only"), 0)
    for F in _degree_view_instances():
        size = F.ground.size
        adjacency = path_matrix(F, 1)
        prof = profile(F)
        assert list(prof.in_degrees) == [sum(row[y] for row in adjacency) for y in range(size)]
        total, onto = len(prof.domain) == size, len(prof.image) == size
        top = max(prof.in_degrees)
        seen["tie"] += prof.in_degrees.count(top) > 1
        seen["fixed top"] += prof.in_degrees.index(top) in prof.fixed_membership
        seen["one point"] += size == 1
        seen["onto only"] += onto and not total
        seen["total only"] += total and not onto
        dense = {inverse: _dense_direction(F, inverse) for inverse in (False, True)}
        cases.append((F, dense))
    assert min(seen.values()) > 0, seen
    _no_inversion(monkeypatch)
    fired = 0
    for F, dense in cases:
        size = F.ground.size
        for M in (1, 2, 3, 4):
            expected = []
            for rule in RULE_ORDER:
                certs = [_dense_certificate(dense, rule, x0, M, _dense_minimal_N(F, rule, x0))
                         for x0 in range(size)]
                assert check_rule(F, rule, M, range(size)) == certs
                expected += [cert for cert in certs if cert.fires]
            assert scan(F, M) == expected == _rule_by_rule(F, M)
            fired += len(expected)
    assert fired > 0


@pytest.mark.parametrize("make", [random_single_map, random_permutation])
def test_scan_of_a_large_map_is_empty_without_inverting_it(monkeypatch, make):
    F = make(200_000, 7).as_multifunction()
    _no_inversion(monkeypatch)
    assert scan(F, 2) == []
