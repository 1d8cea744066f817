"""Workload ``cli``: fresh ``python -m iterroot.cli`` processes, one at a time.

Small requests are bound by interpreter start-up and ``import iterroot.cli``
(numpy is most of the import).  Large requests read or write .mfn files of
20,000-point maps and of the 8th iterate of a 1,000-point multifunction
(about 4 MB), so they exercise ``mfnio`` and ``core`` on large sparse
grounds.  Output is checked against the exit code and against the library
result serialized in-process, or against an oracle of the benchmark.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from iterroot import cli, core, criteria, fixedpoint, instances, mfnio, paths, poly, pullback, search

import oracles
from harness import NullTracer, Verdict, child_env

M = 2
LARGE_MAP = 20_000
LARGE_MULTI = 1_000
POLYS = (("0,0,1", 3), ("1,0,0,1", 2), ("0,0,0,0,0,1", 2), ("0.5,1,0,0,1", 3))
# with the 14 large requests a pass makes 100, so p90 has ten samples above it
SMALL_REQUESTS = 86
REQUEST_TIMEOUT_S = 120


@dataclass
class CliOp:
    """One request: ``kind`` selects the command, ``argv`` is passed verbatim."""

    label: str
    kind: str
    argv: list[str]
    inputs: tuple[Path, ...] = ()
    mfn_output: bool = False
    expected_exit: int = 0
    expected: object = None  # stdout digest, or data for the oracle check
    bytes_in: int = 0
    params: dict = field(default_factory=dict)

    def key(self) -> tuple:
        return (self.label, tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in self.inputs))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write(path: Path, value) -> Path:
    path.write_text(mfnio.serialize(value), encoding="utf-8")
    return path


class Cli:
    name = "cli"
    rss_of_children = True

    def __init__(self) -> None:
        self.root = Path(__file__).resolve().parent.parent

    def build(self, seed: int, workdir: Path) -> list[CliOp]:
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        f1s = {d: _write(workdir / f"f1_{d}.mfn", instances.f1(d)) for d in (3, 4)}
        r80 = _write(workdir / "r80.mfn", instances.random_multifunction(
            80, rng.randrange(2**31), max_out_degree=3, density=0.2))
        maps, perms, pullbacks, multis, map_seeds = {}, {}, {}, {}, {}
        for tag in ("a", "b"):
            maps[tag] = _write(workdir / f"map_{tag}.mfn",
                               instances.random_single_map(LARGE_MAP, rng.randrange(2**31)))
            # only a surjective map has a pullback that is recognised as one
            perms[tag] = instances.random_permutation(LARGE_MAP, rng.randrange(2**31))
            pullbacks[tag] = _write(workdir / f"pullback_{tag}.mfn",
                                    pullback.pullback_of(perms[tag]))
            multis[tag] = _write(workdir / f"multi_{tag}.mfn", instances.random_multifunction(
                LARGE_MULTI, rng.randrange(2**31), max_out_degree=4, density=0.004))
            map_seeds[tag] = rng.randrange(2**31)
        path_sets = [(sorted(rng.sample(range(80), 4)), sorted(rng.sample(range(80), 4)))
                     for _ in range(8)]

        def op(label, kind, argv, inputs=(), **kw):
            return CliOp(label, kind, argv, tuple(inputs),
                         bytes_in=sum(p.stat().st_size for p in inputs), **kw)

        small = []
        for i in range(8):
            # start-up dominates these; solar and paths cost about twice as much
            if i % 2:
                sources, targets = path_sets[i]
                small.append(op(f"paths r80 {sources}->{targets} length 64", "paths",
                                ["paths", str(r80), "--from",
                                 ",".join(f"p{x}" for x in sources), "--to",
                                 ",".join(f"p{x}" for x in targets), "--length", "64"],
                                [r80], params={"from": sources, "to": targets, "length": 64}))
            else:
                small.append(op("solar 200", "solar", ["solar", "--count", "200"]))
            for d, path in f1s.items():
                small.append(op(f"check f1({d})", "check",
                                ["check", str(path), "--M", str(M), "--json"], [path]))
                small.append(op(f"search f1({d})", "search",
                                ["search", str(path), "--order", "2", "--max-out", "2",
                                 "--total", "--json"], [path], expected_exit=1))
            for coeffs, n in POLYS:
                small.append(op(f"poly {coeffs} order {n}", "poly",
                                ["poly", "--coeffs", coeffs, "--order", str(n), "--json"],
                                params={"coeffs": coeffs, "order": n}))
            for name, d in (("f1", 3), ("f1", 4), ("f2", 3)):
                small.append(op(f"instance {name} depth {d}", "instance",
                                ["instance", name, "--depth", str(d)], mfn_output=True,
                                params={"spec": instances.InstanceSpec(name, depth=d)}))
        small = small[:SMALL_REQUESTS]
        large = []
        for tag in ("a", "b"):
            m, pb, mf = maps[tag], pullbacks[tag], multis[tag]
            large.append(op(f"iterate map {tag} order 3", "iterate",
                            ["iterate", str(m), "--order", "3"], [m], mfn_output=True,
                            params={"order": 3}))
            large.append(op(f"invert map {tag}", "invert", ["invert", str(m)], [m],
                            mfn_output=True))
            large.append(op(f"pullback map {tag}", "pullback", ["pullback", str(m)], [m],
                            mfn_output=True))
            large.append(op(f"pullback of pullback {tag}", "pullback", ["pullback", str(pb)],
                            [pb], mfn_output=True, params={"witness": perms[tag]}))
            large.append(op(f"fixedpoints map {tag}", "fixedpoints", ["fixedpoints", str(m)], [m]))
            large.append(op(f"iterate multi {tag} order 8", "iterate",
                            ["iterate", str(mf), "--order", "8"], [mf], mfn_output=True,
                            params={"order": 8}))
            spec = instances.InstanceSpec("random-map", size=LARGE_MAP, seed=map_seeds[tag])
            large.append(op(f"instance random-map {tag}", "instance",
                            ["instance", "random-map", "--size", str(LARGE_MAP),
                             "--seed", str(map_seeds[tag])], mfn_output=True,
                            params={"spec": spec}))
        # spread the large requests evenly through the pass
        ops, step = [], len(small) // len(large)
        for i, request in enumerate(large):
            ops += small[i * step:(i + 1) * step] + [request]
        return ops + small[len(large) * step:]

    def warm_up(self, ops: list[CliOp]) -> None:
        self.run(next(op for op in ops if op.kind == "instance"))

    def expect(self, ops: list[CliOp]) -> None:
        for op in ops:
            if "witness" in op.params:
                # the witness map of a pullback is the map it was pulled back from
                op.expected = _sha(mfnio.serialize(op.params["witness"]))
            elif op.mfn_output:
                op.expected = _sha(library_calls(op, NullTracer()))
            elif op.kind in ("check", "search"):
                F = mfnio.parse(op.inputs[0].read_text(encoding="utf-8"))
                op.expected = (F.ground.labels, oracles.certificates(F.images, M))
                if op.kind == "check":
                    op.expected_exit = 0 if op.expected[1] else 1
            elif op.kind == "poly":
                advice = poly.advise(_polynomial(op.params["coeffs"]), op.params["order"])
                op.expected = (advice.excludes_order(op.params["order"]),
                               sorted(f.rule for f in advice.findings))
            elif op.kind == "solar":
                op.expected = " ".join(str(d) for d in poly.first_solar(200)) + "\n"
            elif op.kind == "paths":
                F = mfnio.parse(op.inputs[0].read_text(encoding="utf-8"))
                count = oracles.walk_count(F.images, op.params["from"], op.params["to"],
                                           op.params["length"])
                op.expected = f"{count}\n"
            elif op.kind == "fixedpoints":
                f = mfnio.parse(op.inputs[0].read_text(encoding="utf-8"))
                fixed = [x for x, y in enumerate(f.image) if x == y]
                tails = {x for x, y in enumerate(f.image) if x != y and f.image[y] == y}
                labels = " ".join(f.ground.labels[x] for x in fixed) or "(none)"
                op.expected = (f"fixed points: {labels}", f"total tail size: {len(tails)}")

    def run(self, op: CliOp) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "iterroot.cli", *op.argv],
                              cwd=op.inputs[0].parent if op.inputs else None,
                              env=child_env(self.root), capture_output=True,
                              timeout=REQUEST_TIMEOUT_S)

    def run_traced(self, op: CliOp, tracer) -> subprocess.CompletedProcess:
        return self.run(op)

    def check(self, op: CliOp, proc: subprocess.CompletedProcess) -> Verdict:
        out = proc.stdout.decode("utf-8")
        counters = {"mfnio.bytes_in": op.bytes_in,
                    "mfnio.bytes_out": len(proc.stdout) if op.mfn_output else 0}
        ok = proc.returncode == op.expected_exit and not proc.stderr and _stdout_ok(op, out)
        if ok and op.kind == "search":
            payload = json.loads(out)
            counters.update({"search.multi.nodes": int(payload["nodes_explored"]),
                             "search.verdicts": 1,
                             "search.decided": int(payload["outcome"] != "budget")})
        return Verdict(ok=ok, digest=f"{proc.returncode} {_sha(out)[:16]}", counters=counters,
                       error="" if ok else
                       f"exit {proc.returncode}, stderr {proc.stderr[-200:]!r}, "
                       f"stdout {out[:200]!r}")

    def probe(self, op: CliOp, result, tracer) -> None:
        """The same request in-process through ``cli.main``, then as library calls."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            with tracer.span("cli.main"):
                cli.main(op.argv)
        library_calls(op, tracer)


def _polynomial(coeffs: str) -> poly.ComplexPolynomial:
    return poly.ComplexPolynomial(tuple(complex(c) for c in coeffs.split(",")))


def _stdout_ok(op: CliOp, out: str) -> bool:
    if op.mfn_output:
        return _sha(out) == op.expected
    if op.kind in ("check", "search"):
        labels, certs = op.expected
        payload = json.loads(out)
        if op.kind == "check":
            got = [(c["rule"], labels.index(c["x0"]), c["N"], int(c["measured_Q"]),
                    c["conclusion"]) for c in payload["certificates"]]
            return got == certs
        # every search request is on a chain instance that a certificate excludes
        return (payload["outcome"] == "exhausted" and payload["witness"] is None
                and oracles.excluded_by_certificate(certs, M, "max-out", 2))
    if op.kind == "poly":
        payload = json.loads(out)
        return (payload["excludes_order"], sorted(f["rule"] for f in payload["findings"])) \
            == op.expected
    if op.kind == "fixedpoints":
        lines = out.splitlines()
        return lines[0] == op.expected[0] and op.expected[1] in lines
    return out == op.expected


def library_calls(op: CliOp, tracer) -> str | None:
    """The public library calls a request makes, each in its own span.

    Returns the serialized output for requests that print an .mfn text.
    """
    value = None
    if op.inputs:
        text = op.inputs[0].read_text(encoding="utf-8")
        with tracer.span("mfnio.parse"):
            value = mfnio.parse(text)
    if isinstance(value, core.SingleMap) and op.kind in ("check", "search", "invert", "paths"):
        value = value.as_multifunction()
    out = None
    if op.kind == "iterate":
        if isinstance(value, core.SingleMap):
            with tracer.span("core.iterate_map"):
                out = core.iterate_map(value, op.params["order"])
        else:
            with tracer.span("core.iterate"):
                out = core.iterate(value, op.params["order"])
    elif op.kind == "invert":
        with tracer.span("core.invert"):
            out = core.invert(value)
    elif op.kind == "pullback" and isinstance(value, core.SingleMap):
        with tracer.span("pullback.pullback_of"):
            out = pullback.pullback_of(value)
    elif op.kind == "pullback":
        with tracer.span("pullback.is_pullback"):
            out = pullback.is_pullback(value).witness_map
    elif op.kind == "fixedpoints":
        with tracer.span("fixedpoint.profile"):
            fixedpoint.fixed_point_profile(value)
        with tracer.span("fixedpoint.exclusions"):
            fixedpoint.rice_exclusion(value)
            fixedpoint.non_isolated_exclusion(value)
    elif op.kind == "paths":
        with tracer.span("paths.count_paths"):
            paths.count_paths(value, op.params["from"], op.params["to"], op.params["length"])
    elif op.kind == "check":
        with tracer.span("criteria.scan"):
            criteria.scan(value, M)
    elif op.kind == "search":
        with tracer.span("search.multi") as span:
            span.count = search.find_multi_root(value, 2, search.max_out_degree(2, True),
                                                max_points=value.ground.size).nodes_explored
    elif op.kind == "poly":
        with tracer.span("poly.advise"):
            poly.advise(_polynomial(op.params["coeffs"]), op.params["order"])
    elif op.kind == "solar":
        with tracer.span("poly.first_solar"):
            poly.first_solar(200)
    elif op.kind == "instance":
        with tracer.span("instances.build"):
            out = instances.build(op.params["spec"])
    if out is None:
        return None
    with tracer.span("mfnio.serialize"):
        return mfnio.serialize(out)
