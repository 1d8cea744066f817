"""The .mfn text format for multifunctions and single maps.

Grammar, one item per line, ``#`` starting a comment:

    points <label>+        declaration, first non-comment line
    kind single            optional, marks a single-valued map
    <label> -> <label>*    image of one source; empty right side = empty image

A label is a nonempty run of characters other than whitespace and ``#``;
``serialize`` refuses a ground set with any other label.  Sources without a
line have empty images.  The canonical form preserves declaration order,
orders targets by declaration, omits empty-image lines, uses LF endings and
no trailing spaces.

``parse`` collects each source's targets as indices and builds the value from
these index lists (the rows of a multifunction, one index per point of a map),
never from size-bit masks.  ``serialize`` reads a multifunction in the form it
holds (``Multifunction.select``), so both cost O(size + edges).
"""
from __future__ import annotations

import re

from .core import GroundSet, Multifunction, SingleMap


_UNWRITABLE = re.compile(r"[\s#]")  # parse splits a line at whitespace and cuts it at '#'


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.line = line


def parse(text: str) -> Multifunction | SingleMap:
    ground: GroundSet | None = None
    kind_line = 0  # the line of ``kind single``, 0 for a multifunction
    targets: list[list[int] | None] = []  # None until the source's line
    index: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
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
            targets = [None] * ground.size
            continue
        if tokens == ["kind", "single"]:
            kind_line = lineno
            continue
        if len(tokens) < 2 or tokens[1] != "->":
            raise ParseError("expected '<label> -> <label>*'", lineno)
        src = tokens[0]
        try:
            s = index[src]
            if targets[s] is not None:
                raise ParseError(f"duplicate source line for {src}", lineno)
            t = [index[lab] for lab in tokens[2:]]
        except KeyError as exc:
            raise ParseError(f"undeclared label {exc.args[0]}", lineno) from None
        if kind_line and len(set(t)) != 1:
            raise ParseError(f"single map needs exactly one target for {src}", lineno)
        targets[s] = t

    if ground is None:
        raise ParseError("expected a 'points' declaration", 1)
    if not kind_line:
        return Multifunction.from_sets(ground, [t or () for t in targets])
    for x, t in enumerate(targets):
        if not t:
            raise ParseError(f"single map missing image for {ground.labels[x]}", kind_line)
        if len(set(t)) > 1:
            raise ParseError(
                f"single map needs exactly one target for {ground.labels[x]}", kind_line)
    return SingleMap(ground, tuple(t[0] for t in targets))


def serialize(value: Multifunction | SingleMap) -> str:
    labels = value.ground.labels
    try:
        writable = all(labels) and not _UNWRITABLE.search("".join(labels))
    except TypeError:  # a label that is no string
        writable = False
    if not writable:
        bad = next(lab for lab in labels
                   if not isinstance(lab, str) or not lab or _UNWRITABLE.search(lab))
        raise ValueError(f"label {bad!r} cannot be written to .mfn: "
                         "labels must be nonempty, with no whitespace or '#'")
    lines = ["points " + " ".join(labels)]
    if isinstance(value, SingleMap):
        lines.append("kind single")
        lines += [f"{labels[x]} -> {labels[y]}" for x, y in enumerate(value.image)]
    else:
        lines += [f"{labels[x]} -> " + " ".join(targets)
                  for x, targets in enumerate(map(list, value.select(labels))) if targets]
    return "\n".join(lines) + "\n"
