"""Workload ``search``: ``find_single_root`` and ``find_multi_root`` in-process.

Almost all time is in the searchers' consistency checks, at rates from
about 1e5 to 2e6 nodes per second depending on the order and the ground
size.  No certificate code runs in the timed calls.  Every call has an
explicit node budget and passes the ground size as its cap, and the caps
below are checked before a search starts: ``find_multi_root`` builds all
``2**size`` candidate images up front.

Every verdict is checked against an answer the search did not produce:
a planted root, the cycle type of a permutation, a firing certificate, a
fixed-point exclusion, or ``verdicts.json``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from iterroot import core, fixedpoint, instances, search

import oracles
from harness import Verdict

SINGLE_CAP = 20
MULTI_CAP = 18
M = 2

# The seeded instances get a small budget, so each of them costs less than
# any of the fixed cyclic instances below.  The fixed ones then hold the
# median and the 90th percentile, which therefore do not move with the seed.
RANDOM_BUDGET = 2_000

# (modulus, variant, exponent, order) of every cyclic_power permutation on
# 12-16 points (translations by 1-7, the first three coprime multipliers,
# orders 2-4) whose search needed at least 10,000 nodes when the benchmark
# was written.  Most of them hit their 30,000-node budget.
CYCLIC = (
    (12, "add", 3, 2), (12, "add", 3, 4), (12, "add", 4, 3), (12, "add", 5, 2),
    (12, "add", 5, 3), (12, "add", 5, 4), (12, "add", 6, 4), (12, "add", 7, 2),
    (12, "add", 7, 3), (12, "add", 7, 4), (12, "mul", 7, 2), (12, "mul", 7, 3),
    (12, "mul", 7, 4), (12, "mul", 11, 2), (12, "mul", 11, 4), (13, "add", 3, 2),
    (13, "add", 3, 4), (13, "add", 4, 3), (13, "add", 5, 2), (13, "add", 5, 3),
    (13, "add", 5, 4), (13, "add", 6, 2), (13, "add", 6, 3), (13, "add", 6, 4),
    (13, "add", 7, 2), (13, "add", 7, 3), (13, "add", 7, 4), (13, "mul", 2, 3),
    (13, "mul", 2, 4), (13, "mul", 3, 3), (13, "mul", 4, 3), (13, "mul", 4, 4),
    (14, "add", 3, 2), (14, "add", 3, 4), (14, "add", 4, 3), (14, "add", 5, 2),
    (14, "add", 5, 3), (14, "add", 5, 4), (14, "add", 6, 3), (14, "add", 6, 4),
    (14, "add", 7, 2), (14, "add", 7, 3), (14, "add", 7, 4), (14, "mul", 3, 3),
    (14, "mul", 3, 4), (14, "mul", 5, 3), (14, "mul", 5, 4), (14, "mul", 9, 3),
    (15, "add", 2, 3), (15, "add", 2, 4), (15, "add", 4, 3), (15, "add", 5, 3),
    (15, "add", 6, 4), (15, "add", 7, 2), (15, "add", 7, 3), (15, "add", 7, 4),
    (15, "mul", 2, 2), (15, "mul", 2, 4), (15, "mul", 4, 4), (15, "mul", 7, 2),
    (15, "mul", 7, 4), (16, "add", 2, 4), (16, "add", 3, 2), (16, "add", 3, 4),
    (16, "add", 5, 2), (16, "add", 5, 3), (16, "add", 5, 4), (16, "add", 6, 3),
    (16, "add", 6, 4), (16, "add", 7, 2), (16, "add", 7, 3), (16, "add", 7, 4),
    (16, "mul", 3, 2), (16, "mul", 3, 3), (16, "mul", 3, 4), (16, "mul", 5, 3),
    (16, "mul", 5, 4), (16, "mul", 7, 2), (16, "mul", 7, 4),
)


@dataclass
class SearchOp:
    label: str
    make: Callable[[], object]
    target: object
    order: int
    budget: int
    constraint: search.RootConstraint | None = None  # None: single-map search
    planted: object = None  # a known root, when the instance was built from one
    truth: str = "unknown"  # "exists" | "none" | "unknown"

    def key(self) -> tuple:
        return (self.label, self.target, self.order, self.budget, self.constraint)

    @property
    def size(self) -> int:
        return self.target.ground.size


def _op(label, make, order, budget, constraint=None, planted=None) -> SearchOp:
    return SearchOp(label, make, make(), order, budget, constraint, planted)


class Search:
    name = "search"
    rss_of_children = False

    def build(self, seed: int, workdir) -> list[SearchOp]:
        rng = random.Random(seed)
        _, g = instances.fig67()
        ops = [
            _op("fig67 order 2", lambda: instances.fig67()[0], 2, 200_000,
                planted=core.iterate_map(g, 2)),
            _op("fig67 order 3", lambda: instances.fig67()[0], 3, 100_000),
            _op("fig67 order 4", lambda: instances.fig67()[0], 4, 200_000, planted=g),
            _op("fig67 order 5", lambda: instances.fig67()[0], 5, 200_000),
        ]
        for q, variant, e, n in CYCLIC:
            ops.append(_op(f"cyclic {variant} {e} mod {q} order {n}",
                           lambda q=q, e=e, v=variant: instances.cyclic_power(q, e, v),
                           n, 30_000))
        box = search.max_out_degree(2, require_total_domain=True)
        for name, build, depths in (("f1", instances.f1, (3, 4, 5)), ("f2", instances.f2, (2, 3))):
            for d in depths:
                ops.append(_op(f"{name}({d}) order 2 max-out 2 total",
                               lambda b=build, d=d: b(d), 2, 300_000, box))
        # hits its budget on purpose: settling it takes 8.7 million nodes
        ops.append(_op("f1(3) order 2 max-in 2", lambda: instances.f1(3), 2, 100_000,
                       search.max_in_degree(2)))
        for size in range(12, 17):
            for n in (2, 3):
                for _ in range(2):
                    s = rng.randrange(2**31)
                    ops.append(_op(f"permutation {size} #{s} order {n}",
                                   lambda size=size, s=s: instances.random_permutation(size, s),
                                   n, RANDOM_BUDGET))
        for size in range(8, 13):
            for n in (2, 3):
                for _ in range(2):
                    s = rng.randrange(2**31)
                    root = instances.random_single_map(size, s)
                    ops.append(_op(f"planted map {size} #{s} order {n}",
                                   lambda r=root, n=n: core.iterate_map(r, n), n,
                                   RANDOM_BUDGET, planted=root))
        classes = (("unconstrained", search.UNCONSTRAINED),
                   ("max-out 2", search.max_out_degree(2)),
                   ("max-in 2", search.max_in_degree(2)))
        for size in (4, 5, 6):
            for cname, constraint in classes:
                for _ in range(2):
                    s = rng.randrange(2**31)
                    root = instances.random_multifunction(size, s, max_out_degree=2, density=0.5)
                    if constraint.variant == "max-in":
                        root = core.invert(root)
                    ops.append(_op(f"planted multifunction {size} #{s} order 2 {cname}",
                                   lambda r=root: core.iterate(r, 2), 2, RANDOM_BUDGET,
                                   constraint, planted=root))
        for op in ops:
            cap = SINGLE_CAP if op.constraint is None else MULTI_CAP
            if op.size > cap:
                raise ValueError(f"{op.label}: {op.size} points exceed the cap {cap}")
        return ops

    def warm_up(self, ops: list[SearchOp]) -> None:
        self.run(ops[0])

    def expect(self, ops: list[SearchOp]) -> None:
        for op in ops:
            op.truth = self._truth(op)

    @staticmethod
    def _truth(op: SearchOp) -> str:
        n = op.order
        if op.planted is not None and _verified(op, op.planted):
            return "exists"
        if op.constraint is None:
            if oracles.is_permutation(op.target.image):
                return "exists" if oracles.permutation_has_root(op.target.image, n) else "none"
            for exclusion in (fixedpoint.rice_exclusion(op.target),
                              fixedpoint.non_isolated_exclusion(op.target)):
                if exclusion is not None and exclusion.excludes(n):
                    return "none"
        else:
            certs = oracles.certificates(op.target.images, M)
            if oracles.excluded_by_certificate(certs, M, op.constraint.variant,
                                               op.constraint.bound):
                return "none"
        return oracles.table_verdict(op.label) or "unknown"

    def run(self, op: SearchOp) -> search.SearchResult:
        if op.constraint is None:
            return search.find_single_root(op.target, op.order, budget=op.budget,
                                           max_points=op.size)
        return search.find_multi_root(op.target, op.order, op.constraint, budget=op.budget,
                                      max_points=op.size)

    def run_traced(self, op: SearchOp, tracer) -> search.SearchResult:
        with tracer.span("search.single" if op.constraint is None else "search.multi") as span:
            result = self.run(op)
            span.count = result.nodes_explored
        return result

    def check(self, op: SearchOp, result: search.SearchResult) -> Verdict:
        kind = "single" if op.constraint is None else "multi"
        counters = {f"search.{kind}.nodes": result.nodes_explored, "search.verdicts": 1,
                    "search.decided": int(result.outcome != "budget")}
        if result.outcome == "witness":
            ok = op.truth != "none" and _verified(op, result.witness)
            witness = (result.witness.image if kind == "single" else result.witness.images)
            digest = f"witness {result.nodes_explored} {witness}"
        elif result.outcome == "exhausted":
            ok = op.truth == "none"
            digest = f"exhausted {result.nodes_explored}"
        else:
            ok = result.outcome == "budget"
            digest = f"{result.outcome} {result.nodes_explored}"
        return Verdict(ok=ok, decided=result.outcome != "budget", digest=digest,
                       counters=counters,
                       error="" if ok else f"{result.outcome}, independent answer {op.truth}")

    def probe(self, op: SearchOp, result: search.SearchResult, tracer) -> None:
        with tracer.span("instances.build"):
            op.make()
        if result.outcome == "witness":
            with tracer.span("search.verify"):
                _verified(op, result.witness)


def _verified(op: SearchOp, root) -> bool:
    """Whether ``root`` is an n-th root of the target inside the searched class."""
    if op.constraint is None:
        return core.iterate_map(root, op.order) == op.target
    c = op.constraint
    return (core.equals(core.iterate(root, op.order), op.target)
            and oracles.in_class(root.images, c.variant, c.bound, c.require_total_domain))
