"""Independent answers that the benchmark checks the program's outputs against.

Nothing here calls the code path under test: certificate quantities are
recomputed from edge lists with closed forms, permutation roots are decided
by cycle type, and walk counts are propagated over edges.  Checks return
values to compare; none of them uses ``assert``.
"""
from __future__ import annotations

import json
from math import gcd
from pathlib import Path

VERDICT_TABLE = Path(__file__).with_name("verdicts.json")


def _succ(images: tuple[int, ...]) -> list[set[int]]:
    return [{y for y in range(len(images)) if m >> y & 1} for m in images]


def _reverse(succ: list[set[int]]) -> list[set[int]]:
    pred = [set() for _ in succ]
    for x, ys in enumerate(succ):
        for y in ys:
            pred[y].add(x)
    return pred


def certificates(images: tuple[int, ...], M: int) -> list[tuple]:
    """Every firing certificate at the minimal N, in scan order.

    Each entry is ``(rule, x0, N, Q, conclusion)``.  The forward rules read
    the graph of F; the inverse rules read the same formulas on the
    reversed edges.  Q for the path rules is the sum of in-degrees over the
    in-neighbours of x0 (the number of 2-walks into x0); for the point rules
    it is the size of the union of their in-neighbourhoods.
    """
    succ = _succ(images)
    found = []
    for direction, graph in (("forward", succ), ("inverse", _reverse(succ))):
        pred = _reverse(graph)
        size = len(graph)
        total = all(graph)
        onto = all(pred)
        small_class = max(len(ys) for ys in graph) <= M
        for kind in ("paths", "points"):
            for x0 in range(size):
                if kind == "paths":
                    Q = sum(len(pred[y]) for y in pred[x0])
                else:
                    Q = len(set().union(*(pred[y] for y in pred[x0])))
                n_max = max((len(pred[x]) for x in range(size) if x != x0), default=0)
                N = max(1, n_max)
                if not (total and x0 not in graph[x0] and Q > M * N ** 3 and n_max <= N):
                    continue
                conclusion = ("no-roots-at-all" if small_class and onto
                              else "no-roots-in-class")
                found.append((f"{direction}-{kind}", x0, N, Q, conclusion))
    return found


def certificate_tuple(cert) -> tuple:
    return (cert.rule.value, cert.x0, cert.N, cert.measured_Q, cert.conclusion.value)


def excluded_by_certificate(certs: list[tuple], M: int, variant: str, bound: int | None) -> bool:
    """Whether some firing certificate rules out every root in the searched class.

    Forward rules exclude roots of out-degree at most M, inverse rules roots
    of in-degree at most M; "no-roots-at-all" excludes every class.
    """
    for rule, _, _, _, conclusion in certs:
        if conclusion == "no-roots-at-all":
            return True
        if bound is None or bound > M:
            continue
        if variant == "max-out" and rule.startswith("forward"):
            return True
        if variant == "max-in" and rule.startswith("inverse"):
            return True
    return False


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for x in range(len(perm)):
        length = 0
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def is_permutation(image: tuple[int, ...]) -> bool:
    return sorted(image) == list(range(len(image)))


def permutation_has_root(perm: tuple[int, ...], n: int) -> bool:
    """Exact test by cycle type.

    An m-cycle of a root splits into gcd(m, n) cycles of length m/gcd(m, n)
    in its n-th power.  So the l-cycles of the permutation must be grouped
    into parts of size d with d | n and gcd(l*d, n) = d.
    """
    counts: dict[int, int] = {}
    for length in cycle_lengths(perm):
        counts[length] = counts.get(length, 0) + 1
    for length, count in counts.items():
        parts = [d for d in range(1, n + 1) if n % d == 0 and gcd(length * d, n) == d]
        reachable = [True] + [False] * count
        for total in range(1, count + 1):
            reachable[total] = any(d <= total and reachable[total - d] for d in parts)
        if not reachable[count]:
            return False
    return True


def walk_count(images: tuple[int, ...], sources: list[int], targets: list[int], k: int) -> int:
    """Number of k-step walks from the sources to the targets, by propagation."""
    succ = _succ(images)
    weights = [0] * len(images)
    for x in sources:
        weights[x] += 1
    for _ in range(k):
        nxt = [0] * len(images)
        for x, w in enumerate(weights):
            if w:
                for y in succ[x]:
                    nxt[y] += w
        weights = nxt
    return sum(weights[y] for y in targets)


def in_class(images: tuple[int, ...], variant: str, bound: int | None, total: bool) -> bool:
    """Membership of a multifunction in a root constraint class."""
    if total and not all(images):
        return False
    if variant == "max-out":
        return max(m.bit_count() for m in images) <= bound
    if variant == "max-in":
        indeg = [0] * len(images)
        for m in images:
            for y in range(len(images)):
                indeg[y] += m >> y & 1
        return max(indeg) <= bound
    return True


def table_verdict(key: str) -> str | None:
    """The committed verdict for a fixed instance: 'exists', 'none' or None."""
    table = json.loads(VERDICT_TABLE.read_text(encoding="utf-8"))
    entry = table["verdicts"].get(key)
    return entry["root"] if entry else None
