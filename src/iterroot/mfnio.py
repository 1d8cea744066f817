"""The .mfn text format for multifunctions and single maps.

Grammar, one item per line, ``#`` starting a comment:

    points <label>+        declaration, first non-comment line
    kind single            optional, marks a single-valued map
    <label> -> <label>*    image of one source; empty right side = empty image

Sources without a line have empty images.  The canonical form preserves
declaration order, orders targets by declaration, omits empty-image lines,
uses LF endings and no trailing spaces.
"""
from __future__ import annotations

from .core import GroundSet, Multifunction, SingleMap, bits, mask_of


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.line = line


def parse(text: str) -> Multifunction | SingleMap:
    ground: GroundSet | None = None
    kind_single = False
    kind_line = 0
    targets: list[list[int]] = []
    seen_sources: set[int] = set()
    index: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if ground is None:
            if tokens[0] != "points":
                raise ParseError("expected a 'points' declaration", lineno)
            labels = tokens[1:]
            if not labels:
                raise ParseError("at least one point label required", lineno)
            for lab in labels:
                if lab in index:
                    raise ParseError(f"duplicate label {lab}", lineno)
                index[lab] = len(index)
            ground = GroundSet(tuple(labels))
            targets = [[]] * ground.size
            continue
        if tokens == ["kind", "single"]:
            kind_single = True
            kind_line = lineno
            continue
        if len(tokens) < 2 or tokens[1] != "->":
            raise ParseError("expected '<label> -> <label>*'", lineno)
        src = tokens[0]
        if src not in index:
            raise ParseError(f"undeclared label {src}", lineno)
        s = index[src]
        if s in seen_sources:
            raise ParseError(f"duplicate source line for {src}", lineno)
        seen_sources.add(s)
        t = []
        for lab in tokens[2:]:
            if lab not in index:
                raise ParseError(f"undeclared label {lab}", lineno)
            t.append(index[lab])
        if kind_single and len(set(t)) != 1:
            raise ParseError(f"single map needs exactly one target for {src}", lineno)
        targets[s] = t

    if ground is None:
        raise ParseError("expected a 'points' declaration", 1)
    if not kind_single:
        return Multifunction(ground, tuple(mask_of(t) for t in targets))
    for x, t in enumerate(targets):
        if not t:
            raise ParseError(f"single map missing image for {ground.labels[x]}", kind_line)
        if len(set(t)) > 1:
            raise ParseError(
                f"single map needs exactly one target for {ground.labels[x]}", kind_line)
    return SingleMap(ground, tuple(t[0] for t in targets))


def serialize(value: Multifunction | SingleMap) -> str:
    labels = value.ground.labels
    lines = ["points " + " ".join(labels)]
    if isinstance(value, SingleMap):
        lines.append("kind single")
        lines += [f"{labels[x]} -> {labels[y]}" for x, y in enumerate(value.image)]
    else:
        for x, m in enumerate(value.images):
            if m:
                lines.append(f"{labels[x]} -> " + " ".join(labels[y] for y in bits(m)))
    return "\n".join(lines) + "\n"
