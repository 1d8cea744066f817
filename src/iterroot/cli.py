"""Command-line surface: certificates, root search, graph utilities,
polynomial advice, and instance emission.

Every command is pure input to output; all randomness is seed-parameterized.
Each loads its input, makes one library call and renders the result; the
library function that consumes a malformed value raises ValueError, which
``main`` prints as one ``error:`` line, as it does a MemoryError.  Exit codes:
``check`` 0 when a certificate fires / 1 when none; ``search`` 0 witness /
1 exhausted / 3 budget exceeded; 2 on input errors and out of memory everywhere.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# each command imports the modules it calls, so a process loads only those
from . import mfnio
from .core import Multifunction, SingleMap, invert, iterate

if TYPE_CHECKING:
    from .criteria import Certificate

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _load(path: str) -> Multifunction | SingleMap:
    try:
        with open(path, encoding="utf-8") as handle:
            return mfnio.parse(handle.read())
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    except mfnio.ParseError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_multifunction(path: str) -> Multifunction:
    value = _load(path)
    return value.as_multifunction() if isinstance(value, SingleMap) else value


def _labels(ground, indices) -> list[str]:
    return [ground.labels[i] for i in sorted(indices)]


def _certificate_json(ground, cert: Certificate) -> dict:
    return {
        "rule": cert.rule.value,
        "citation": cert.citation,
        "x0": ground.labels[cert.x0],
        "M": cert.M,
        "N": cert.N,
        "measured_Q": str(cert.measured_Q),
        "measured_N_max": str(cert.measured_N_max),
        "hypotheses": dict(cert.hypotheses),
        "conclusion": cert.conclusion.value,
        "failed_hypotheses": list(cert.failed_hypotheses),
        "root_class": cert.root_class,
    }


def _print_certificate(ground, cert: Certificate) -> None:
    print(f"rule {cert.rule.value}  x0={ground.labels[cert.x0]}  M={cert.M}  N={cert.N}")
    print(f"  Q={cert.measured_Q}  N_max={cert.measured_N_max}  "
          f"bound M*N^3={cert.M * cert.N ** 3}")
    print(f"  conclusion: {cert.conclusion.value} ({cert.root_class} class)")
    if cert.failed_hypotheses:
        print(f"  failed hypotheses: {', '.join(cert.failed_hypotheses)}")


def cmd_check(args) -> int:
    from . import criteria
    F = _load_multifunction(args.file)
    ground = F.ground
    if args.rule == "scan":
        if args.x0 is not None or args.N is not None:
            raise ValueError("--x0 and --N need a single --rule; scan picks its own")
        certs = criteria.scan(F, args.M)
    else:
        points = None if args.x0 is None else [ground.index(args.x0)]
        certs = [cert for cert in criteria.check_rule(F, args.rule, args.M, points, args.N)
                 if cert.fires or args.x0 is not None]
    if args.json:
        print(json.dumps({"certificates": [_certificate_json(ground, c) for c in certs]},
                         indent=2, sort_keys=True))
    else:
        if not certs:
            print("no certificate fires")
        for cert in certs:
            _print_certificate(ground, cert)
    return EXIT_OK if any(c.fires for c in certs) else EXIT_NEGATIVE


def cmd_search(args) -> int:
    from . import search
    value = _load(args.file)
    if args.max_out is not None and args.max_in is not None:
        raise ValueError("--max-out and --max-in are mutually exclusive")
    budget = search.DEFAULT_BUDGET if args.budget is None else args.budget
    if isinstance(value, SingleMap) and args.max_out is None and args.max_in is None:
        result = search.find_single_root(value, args.order, budget=budget)
    else:
        F = value.as_multifunction() if isinstance(value, SingleMap) else value
        if args.max_out is not None:
            constraint = search.max_out_degree(args.max_out, args.total)
        elif args.max_in is not None:
            constraint = search.max_in_degree(args.max_in, args.total)
        else:
            constraint = search.RootConstraint(require_total_domain=args.total)
        result = search.find_multi_root(F, args.order, constraint, budget=budget)
    payload = {
        "order": result.order,
        "outcome": result.outcome,
        "nodes_explored": str(result.nodes_explored),
        "witness": mfnio.serialize(result.witness) if result.found else None,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif result.found:
        sys.stdout.write(mfnio.serialize(result.witness))
    else:
        print(result.outcome)
    if result.found:
        return EXIT_OK
    return EXIT_BUDGET if result.outcome == "budget" else EXIT_NEGATIVE


def cmd_iterate(args) -> int:
    sys.stdout.write(mfnio.serialize(iterate(_load(args.file), args.order)))
    return EXIT_OK


def cmd_invert(args) -> int:
    sys.stdout.write(mfnio.serialize(invert(_load(args.file))))
    return EXIT_OK


def cmd_pullback(args) -> int:
    from . import pullback
    value = _load(args.file)
    if isinstance(value, SingleMap):
        sys.stdout.write(mfnio.serialize(pullback.pullback_of(value)))
        return EXIT_OK
    witness = pullback.is_pullback(value)
    if witness.is_pullback:
        sys.stdout.write(mfnio.serialize(witness.witness_map))
        return EXIT_OK
    print("not a pullback multifunction; failed conditions: "
          + ", ".join(sorted(witness.failed_conditions)))
    return EXIT_NEGATIVE


def cmd_paths(args) -> int:
    from .paths import count_paths
    F = _load_multifunction(args.file)
    sources = [F.ground.index(lab) for lab in getattr(args, "from").split(",") if lab]
    targets = [F.ground.index(lab) for lab in args.to.split(",") if lab]
    print(count_paths(F, sources, targets, args.length))
    return EXIT_OK


def cmd_fixedpoints(args) -> int:
    from . import fixedpoint
    value = _load(args.file)
    if not isinstance(value, SingleMap):
        raise ValueError("fixedpoints requires a 'kind single' input")
    ground = value.ground
    prof = fixedpoint.fixed_point_profile(value)
    print("fixed points: " + (" ".join(_labels(ground, prof.fixed_points)) or "(none)"))
    for x in prof.fixed_points:
        tail = prof.tails[x]
        kind = "non-isolated" if tail else "isolated"
        tail_str = " ".join(_labels(ground, tail)) or "-"
        print(f"  {ground.labels[x]}: {kind}, tail: {tail_str}")
    print(f"total tail size: {prof.total_tail_size}")
    for name, exclusion in (("tail-mass", prof.rice_exclusion()),
                            ("non-isolated-count", prof.non_isolated_exclusion())):
        print(f"{name} exclusion: {exclusion.describe() if exclusion else 'not applicable'}")
    return EXIT_OK


def _parse_complex(token: str) -> complex:
    token = token.strip()  # a trailing i is the imaginary unit; "inf" stays as it is
    try:
        return complex(token[:-1] + "j" if token.endswith("i") else token)
    except ValueError as exc:
        raise ValueError(f"bad complex coefficient {token!r}") from exc


def cmd_poly(args) -> int:
    from . import poly
    coeffs = tuple(_parse_complex(tok) for tok in args.coeffs.split(","))
    polynomial = poly.ComplexPolynomial(coeffs)
    advice = poly.advise(polynomial, args.order)
    findings, lines = [], []
    for f in advice.findings:
        if isinstance(f.excluded, frozenset):
            excluded = {"orders": sorted(f.excluded)}
            desc = "orders " + ", ".join(map(str, excluded["orders"]))
        else:
            excluded = {"lower_bound": f.excluded.lower_bound,
                        "forbidden_divisor_max": f.excluded.forbidden_divisor_max}
            desc = f.excluded.describe()
        findings.append({"rule": f.rule, "citation": f.citation, "excluded": excluded})
        lines.append(f"{f.rule}: excludes {desc} [{f.citation}]")
    if args.json:
        print(json.dumps({"degree": polynomial.degree, "order": args.order,
                          "excludes_order": advice.excludes_order(args.order),
                          "findings": findings}, indent=2, sort_keys=True))
    else:
        print("\n".join(lines or ["no finding; nothing is asserted"]))
        print(f"order {args.order} excluded: {advice.excludes_order(args.order)}")
    return EXIT_OK


def cmd_solar(args) -> int:
    from . import poly
    print(" ".join(str(d) for d in poly.first_solar(args.count)))
    return EXIT_OK


def cmd_instance(args) -> int:
    from . import instances
    spec = instances.InstanceSpec(
        name=args.name, depth=args.depth, modulus=args.modulus, exponent=args.exponent,
        variant=args.variant, size=args.size, max_out_degree=args.max_out,
        density=args.density, seed=args.seed)
    sys.stdout.write(mfnio.serialize(instances.build(spec)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iterroot")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run nonexistence certificates")
    p.add_argument("file")
    p.add_argument("--x0")
    p.add_argument("--M", type=int, default=1)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--rule", default="scan",
                   choices=["forward-paths", "forward-points", "inverse-paths",
                            "inverse-points", "scan"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="exhaustive root search")
    p.add_argument("file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--max-out", type=int, default=None)
    p.add_argument("--max-in", type=int, default=None)
    p.add_argument("--total", action="store_true")
    p.add_argument("--budget", type=int, default=None)  # cmd_search applies the default
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("iterate", help="print an iterate")
    p.add_argument("file")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("invert", help="reverse all edges")
    p.add_argument("file")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("pullback", help="pullback of a map, or witness map of a pullback")
    p.add_argument("file")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("paths", help="count fixed-length paths between point sets")
    p.add_argument("file")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("fixedpoints", help="fixed-point profile and order exclusions")
    p.add_argument("file")
    p.set_defaults(func=cmd_fixedpoints)

    p = sub.add_parser("poly", help="polynomial root-order advice")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated complex coefficients, low degree first, 're+imi'")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("solar", help="degrees passing the modular power criterion")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_solar)

    p = sub.add_parser("instance", help="emit a named instance in .mfn format")
    p.add_argument("name")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--exponent", type=int, default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--max-out", type=int, default=None)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_instance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
