"""Finite nonexistence certificates for iterative roots.

Four rules, forward/inverse x path-count/point-count.  Each rule tests a
strict exact inequality Q > M*N^3 at a witness point together with side
hypotheses; when the base hypotheses hold the multifunction has no roots
of any order n >= 2 inside a degree-bounded class, and with two extra
hypotheses no roots at all.  The inverse rules are, by construction,
the forward rules applied to the edge-reversed graph.

A direction G (F for the forward rules, its reversal for the inverse ones) is
read off two degree lists of F, its out-degrees and its in-degrees, counted in
one pass over the edges; the reversal swaps them.  They give every side
hypothesis (x is fixed in G exactly when x is in F's row at x).  Q needs G's
predecessors ``preds[x0]`` at the witness alone: F's row at x0 for the reversal,
else the sources whose row holds x0.  The path rules count 2-paths into x0, Q =
sum of indeg(y) over y in preds[x0]; the point rules count 2-step preimages, Q =
|union of preds[y] over y in preds[x0]|, for G = F the number of rows that meet
preds[x0].  No rule inverts F.

Only the unique point of largest in-degree in G can fire, whatever M and N.  If
x0 is not fixed, no y in preds[x0] is x0, so Q_points <= Q_paths = sum of
indeg(y) <= indeg(x0)*n_max(x0), where n_max(x0) is the largest in-degree of G
away from x0, and N_bound_holds needs N >= n_max(x0).  Away from the unique
argmax indeg(x0) <= n_max(x0), so Q <= N^2 <= M*N^3 (Q = 0 when n_max(x0) = 0).
At the argmax itself Q <= top*second, so ``scan`` computes no Q in a view where
that product is at most M*N^3.  Totality of G is a base hypothesis, so ``scan``
costs the two degree lists, O(size + edges), and per rule of a live direction (G
total) at most one Q at ``top_at`` (one pass over the rows for G = F) and one
``Certificate``.  ``check_rule`` answers for any rule, points and N.  Dense
matrices (``paths.path_matrix``) and ``iterate`` are oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress, count, repeat
from operator import contains, index
from typing import Iterable

from .core import Multifunction, _count, _in_degrees


class Rule(str, Enum):
    FORWARD_PATHS = "forward-paths"
    FORWARD_POINTS = "forward-points"
    INVERSE_PATHS = "inverse-paths"
    INVERSE_POINTS = "inverse-points"


class Conclusion(str, Enum):
    NO_ROOTS_IN_CLASS = "no-roots-in-class"
    NO_ROOTS_AT_ALL = "no-roots-at-all"
    NOT_APPLICABLE = "not-applicable"


BASE_HYPOTHESES = ("totality", "x0_not_fixed", "Q_exceeds_MN3", "N_bound_holds")
EXTRA_HYPOTHESES = ("class_membership", "surjectivity_or_totality_extra")

_CITATIONS = {
    Rule.FORWARD_PATHS: "two-path concentration at a non-fixed point (path form)",
    Rule.FORWARD_POINTS: "two-step preimage concentration at a non-fixed point (point form)",
    Rule.INVERSE_PATHS: "two-path concentration on the reversed graph (path form)",
    Rule.INVERSE_POINTS: "two-step image concentration on the reversed graph (point form)",
}

_INVERSE_RULES = frozenset({Rule.INVERSE_PATHS, Rule.INVERSE_POINTS})
_PATH_RULES = frozenset({Rule.FORWARD_PATHS, Rule.INVERSE_PATHS})


class _View:
    """One direction G of F, as the rules read it: G is F, or its reversal when
    ``inverse``, through F's ``rows`` and G's ``in_degrees`` and ``out_degrees``: F's
    ``degrees`` (out, in), counted here unless given, whose roles the reversal swaps.
    ``top`` is the largest in-degree of G, first at ``top_at``, and ``second`` the
    largest one away from ``top_at`` (0 on a one-point ground)."""

    __slots__ = ("rows", "inverse", "in_degrees", "out_degrees", "top", "top_at", "second")

    def __init__(self, rows: tuple[tuple[int, ...], ...], inverse: bool,
                 degrees: tuple[list[int], list[int]] | None = None) -> None:
        out, ind = degrees or (list(map(len, rows)), _in_degrees(rows))
        indeg, self.out_degrees = (out, ind) if inverse else (ind, out)
        self.rows, self.inverse, self.in_degrees = rows, inverse, indeg
        self.top = top = max(indeg)
        self.top_at = at = indeg.index(top)
        rest = indeg.copy()
        rest[at] = 0  # in-degrees are >= 0, so this is the largest away from top_at
        self.second = max(rest)

    def n_max_at(self, x0: int) -> int:
        return self.second if x0 == self.top_at else self.top


@dataclass(frozen=True)
class Certificate:
    """A checked instance of one nonexistence rule.

    ``measured_Q`` is the 2-path count or 2-preimage size at the witness
    point; ``measured_N_max`` is the largest per-point 1-count away from it.
    The conclusion excludes every order n >= 2 at once.  ``root_class``
    names the degree bound (out-degrees for forward rules, in-degrees for
    inverse rules) under which the in-class conclusion holds.
    """

    rule: Rule
    x0: int
    M: int
    N: int
    measured_Q: int
    measured_N_max: int
    hypotheses: tuple[tuple[str, bool], ...]
    conclusion: Conclusion
    failed_hypotheses: tuple[str, ...]
    root_class: str
    citation: str

    def hypothesis(self, name: str) -> bool:
        return dict(self.hypotheses)[name]

    @property
    def fires(self) -> bool:
        return self.conclusion is not Conclusion.NOT_APPLICABLE


def _q(view: _View, rule: Rule, x0: int) -> int:
    """Q at x0 in closed form: 2-paths into x0, or 2-step preimages of x0."""
    rows = view.rows
    preds = rows[x0] if view.inverse else compress(count(), map(contains, rows, repeat(x0)))
    if rule in _PATH_RULES:
        return sum(map(view.in_degrees.__getitem__, preds))
    if view.inverse:
        return len(set().union(*map(rows.__getitem__, preds)))
    return len(rows) - sum(map(set(preds).isdisjoint, rows))  # the rows meeting preds


def _check(view: _View, rule: Rule, x0: int, M: int, N: int, Q: int) -> Certificate:
    n_max = view.n_max_at(x0)
    hyps = {
        "totality": all(view.out_degrees),
        "x0_not_fixed": x0 not in view.rows[x0],
        "Q_exceeds_MN3": Q > M * N**3,
        "N_bound_holds": n_max <= N,
        "class_membership": max(view.out_degrees) <= M,
        "surjectivity_or_totality_extra": all(view.in_degrees),
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
        root_class="max-in-degree" if rule in _INVERSE_RULES else "max-out-degree",
        citation=_CITATIONS[rule],
    )


def _point(F: Multifunction, x0: int) -> int:
    """``x0`` as an index of F's ground: TypeError for a non-integer, ValueError outside."""
    x0 = index(x0)
    if not 0 <= x0 < F.ground.size:
        raise ValueError(f"witness point {x0} out of range")
    return x0


def check_rule(F: Multifunction, rule: Rule | str, M: int, points: Iterable[int] | None = None,
               N: int | None = None) -> list[Certificate]:
    """Certificates of one rule at each witness point, all from one view of F: by
    default at the one point that can fire (``top_at``), and at each one's minimal N."""
    rule = Rule(rule)
    M = _count(M, 1, "bounds M and N must be positive")
    N = N if N is None else _count(N, 1, "bounds M and N must be positive")
    view = _View(F.rows, rule in _INVERSE_RULES)
    certs = []
    for x0 in [view.top_at] if points is None else [_point(F, x0) for x0 in points]:
        bound = N if N is not None else max(1, view.n_max_at(x0))
        certs.append(_check(view, rule, x0, M, bound, _q(view, rule, x0)))
    return certs


def check_forward_paths(F: Multifunction, x0: int, M: int, N: int) -> Certificate:
    """Two-path count into x0 versus in-degree bound N elsewhere."""
    return check_rule(F, Rule.FORWARD_PATHS, M, [x0], N)[0]


def check_forward_points(F: Multifunction, x0: int, M: int, N: int) -> Certificate:
    """Two-step preimage size at x0 versus in-degree bound N elsewhere."""
    return check_rule(F, Rule.FORWARD_POINTS, M, [x0], N)[0]


def check_inverse_paths(F: Multifunction, x0: int, M: int, N: int) -> Certificate:
    """The forward path rule applied to the edge-reversed graph of F."""
    return check_rule(F, Rule.INVERSE_PATHS, M, [x0], N)[0]


def check_inverse_points(F: Multifunction, x0: int, M: int, N: int) -> Certificate:
    """The forward point rule applied to the edge-reversed graph of F."""
    return check_rule(F, Rule.INVERSE_POINTS, M, [x0], N)[0]


RULE_ORDER = tuple(Rule)


def minimal_N(F: Multifunction, rule: Rule | str, x0: int) -> int:
    """Smallest admissible N: the largest relevant per-point 1-count away from x0."""
    x0 = _point(F, x0)
    return max(1, _View(F.rows, Rule(rule) in _INVERSE_RULES).n_max_at(x0))


def scan(F: Multifunction, M: int) -> list[Certificate]:
    """All firing certificates for the class bound M, in rule order, at each rule's
    one candidate witness ``top_at`` and its minimal N."""
    M = _count(M, 1, "class bound M must be positive")
    rows = F.rows
    degrees = out, ind = list(map(len, rows)), _in_degrees(rows)
    found = []
    for inverse, rules in ((False, RULE_ORDER[:2]), (True, RULE_ORDER[2:])):
        if not all(ind if inverse else out):
            continue  # G is not total: F is not total (G = F) or not onto (the reversal)
        view = _View(rows, inverse, degrees)
        x0, N = view.top_at, max(1, view.second)  # the candidate, at its minimal N
        # unfixed x0 has Q <= top * second (the lemma), which settles most views without Q
        if view.top * view.second <= M * N**3 or x0 in rows[x0]:
            continue
        for rule in rules:
            if (Q := _q(view, rule, x0)) <= M * N**3:
                continue
            cert = _check(view, rule, x0, M, N, Q)
            if not cert.fires:
                raise RuntimeError(f"{rule.value} at {x0} holds every base hypothesis, unfired")
            found.append(cert)
    return found
