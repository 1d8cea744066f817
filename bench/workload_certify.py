"""Workload ``certify``: ``criteria.scan(F, M=2)`` in-process over a seeded mix.

Chain-family instances fire certificates; sparse random multifunctions are
silent.  Every checker call rebuilds a dense two-step path matrix, so the
time goes to ``criteria``, ``paths`` and ``core.profile``, and it grows with
the fourth power of the ground size whatever the edges are.  No search
runs here: this is the no-change workload for search optimisations.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from iterroot import core, criteria, instances, paths

import oracles
from harness import Verdict

M = 2
F1_DEPTHS = range(3, 13)
# f2 grows by five points per level; depth 6 (31 points) keeps it inside
# the size range of the random instances
F2_DEPTHS = range(3, 7)
# A scan's cost depends on the ground size, not on the edges, so every
# seed orders the mix alike.  Eleven instances cost more than any 20-point
# ground; with 180 instances, the fifteen 20-point grounds take ranks
# 155-169 and hold the 90th percentile (rank 162), and the forty 13-point
# grounds take ranks 70-109 and hold the median (rank 90).  Small grounds
# keep a pass near 7 s, so a run has several passes to take each
# instance's median time from.
RANDOM_SIZES = (40,) + (20,) * 15 + (12,) * 68 + (13,) * 40 + (14,) * 42


@dataclass
class CertifyOp:
    label: str
    make: Callable[[], core.Multifunction]
    F: core.Multifunction
    expected: list | None = None

    def key(self) -> tuple:
        return (self.label, self.F)


def _random_op(size: int, seed: int) -> CertifyOp:
    def make():
        return instances.random_multifunction(size, seed, max_out_degree=3, density=0.2)
    return CertifyOp(f"random {size} points #{seed}", make, make())


class Certify:
    name = "certify"
    rss_of_children = False

    def build(self, seed: int, workdir) -> list[CertifyOp]:
        rng = random.Random(seed)
        ops = [CertifyOp(f"f1({d})", lambda d=d: instances.f1(d), instances.f1(d))
               for d in F1_DEPTHS]
        ops += [CertifyOp(f"f2({d})", lambda d=d: instances.f2(d), instances.f2(d))
                for d in F2_DEPTHS]
        ops += [_random_op(size, rng.randrange(2**31)) for size in RANDOM_SIZES]
        return ops

    def warm_up(self, ops: list[CertifyOp]) -> None:
        criteria.scan(ops[0].F, M)

    def expect(self, ops: list[CertifyOp]) -> None:
        for op in ops:
            op.expected = oracles.certificates(op.F.images, M)

    def run(self, op: CertifyOp):
        return criteria.scan(op.F, M)

    def run_traced(self, op: CertifyOp, tracer):
        """``scan`` spelled out as the public calls it makes, in its order."""
        checkers = {
            criteria.Rule.FORWARD_PATHS: criteria.check_forward_paths,
            criteria.Rule.FORWARD_POINTS: criteria.check_forward_points,
            criteria.Rule.INVERSE_PATHS: criteria.check_inverse_paths,
            criteria.Rule.INVERSE_POINTS: criteria.check_inverse_points,
        }
        found = []
        with tracer.span("criteria.scan"):
            for rule, checker in checkers.items():
                name = f"criteria.{rule.value}"
                for x0 in range(op.F.ground.size):
                    with tracer.span("criteria.minimal_N"):
                        N = criteria.minimal_N(op.F, rule, x0)
                    with tracer.span(name):
                        cert = checker(op.F, x0, M, N)
                    if cert.fires:
                        found.append(cert)
        return found

    def check(self, op: CertifyOp, certs) -> Verdict:
        got = [oracles.certificate_tuple(c) for c in certs]
        ok = got == op.expected
        return Verdict(ok=ok, digest=repr(got),
                       counters={"criteria.certificates_fired": len(certs)},
                       error="" if ok else f"scan gave {got}, oracle {op.expected}")

    def probe(self, op: CertifyOp, result, tracer) -> None:
        """One span per unit cost that every checker call repeats."""
        with tracer.span("instances.build"):
            op.make()
        with tracer.span("paths.path_matrix_k2"):
            paths.path_matrix(op.F, 2)
        with tracer.span("core.profile"):
            core.profile(op.F)
        with tracer.span("core.invert"):
            core.invert(op.F)
        with tracer.span("core.iterate_k2"):
            core.iterate(op.F, 2)
