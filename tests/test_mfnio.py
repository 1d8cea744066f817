import random

import pytest
from hypothesis import given, settings, strategies as st

from iterroot.core import GroundSet, Multifunction, SingleMap, as_single_map, bits
from iterroot.instances import f1, f2, fig67, random_multifunction, random_single_map
from iterroot.mfnio import ParseError, parse, serialize

FIG67_G_MFN = """\
points x1 x2 x3 x4 y1.1 y2.1 y3.1 y4.1 y1.2 y2.2 y3.2 y4.2 \
z1.1 z2.1 z3.1 z4.1 z1.2 z2.2 z3.2 z4.2
kind single
x1 -> x2
x2 -> x3
x3 -> x4
x4 -> x1
y1.1 -> y2.1
y2.1 -> y3.1
y3.1 -> y4.1
y4.1 -> x1
y1.2 -> y2.2
y2.2 -> y3.2
y3.2 -> y4.2
y4.2 -> x1
z1.1 -> z2.1
z2.1 -> z3.1
z3.1 -> z4.1
z4.1 -> y1.1
z1.2 -> z2.2
z2.2 -> z3.2
z3.2 -> z4.2
z4.2 -> y1.2
"""


def test_parse_minimal_multifunction():
    F = parse("points a b c\na -> b c\nb -> a\n")
    assert isinstance(F, Multifunction)
    assert F.rows[0] == (1, 2)
    assert F.rows[1] == (0,)
    assert F.rows[2] == ()  # missing line means empty image


def test_parse_single_map():
    f = parse("points a b\nkind single\na -> b\nb -> a\n")
    assert isinstance(f, SingleMap)
    assert f.image == (1, 0)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\npoints a b  # two points\n\na -> a b # both\n"
    F = parse(text)
    assert F.rows[0] == (0, 1)


def test_golden_fig67_g_round_trip():
    g = parse(FIG67_G_MFN)
    assert g == fig67()[1]
    assert serialize(g) == FIG67_G_MFN


def test_serialize_omits_empty_images_and_is_canonical():
    F = parse("points a b c\nb -> c a\n")
    out = serialize(F)
    assert out == "points a b c\nb -> a c\n"  # targets in declaration order
    assert parse(out) == F


def test_round_trip_random_multifunctions():
    for seed in range(25):
        F = random_multifunction(6, seed=seed)
        assert parse(serialize(F)) == F


def test_round_trip_named_instances():
    for F in (f1(3), f2(3)):
        assert parse(serialize(F)) == F
    f, g = fig67()
    assert parse(serialize(f)) == f
    assert parse(serialize(g)) == g


def test_serialized_form_is_stable_under_reparse():
    F = random_multifunction(5, seed=3)
    once = serialize(F)
    assert serialize(parse(once)) == once


def error_line(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value


def test_missing_points_declaration():
    err = error_line("a -> b\n")
    assert "points" in str(err)
    assert err.line == 1


def test_empty_input_rejected():
    assert error_line("").line == 1
    assert error_line("# only a comment\n").line == 1


def test_duplicate_label_rejected():
    err = error_line("points a a\n")
    assert "duplicate label" in str(err)


def test_undeclared_labels_rejected():
    assert "undeclared" in str(error_line("points a b\nc -> a\n"))
    assert "undeclared" in str(error_line("points a b\na -> c\n"))


def test_duplicate_source_rejected():
    err = error_line("points a b\na -> b\na -> a\n")
    assert "duplicate source" in str(err)
    assert err.line == 3


def test_malformed_arrow_rejected():
    assert "->" in str(error_line("points a b\na b\n"))


def test_single_map_with_missing_image_rejected():
    err = error_line("points a b\nkind single\na -> b\n")
    assert "missing image for b" in str(err)


def test_single_map_with_set_value_rejected():
    err = error_line("points a b\nkind single\na -> a b\nb -> a\n")
    assert "exactly one target" in str(err)
    assert err.line == 3


def test_error_messages_carry_line_numbers():
    err = error_line("points a b\n\n# comment\nq -> a\n")
    assert err.line == 4
    assert str(err).endswith("at line 4")


def reference_parse(text):
    """``parse`` before index lists: one bitmask per source, for maps too."""
    ground = None
    kind_single = False
    kind_line = 0
    images = []
    seen_sources = set()
    index = {}
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
            images = [0] * ground.size
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
        m = 0
        for lab in tokens[2:]:
            if lab not in index:
                raise ParseError(f"undeclared label {lab}", lineno)
            m |= 1 << index[lab]
        if kind_single and m.bit_count() != 1:
            raise ParseError(f"single map needs exactly one target for {src}", lineno)
        images[s] = m
    if ground is None:
        raise ParseError("expected a 'points' declaration", 1)
    F = Multifunction(ground, tuple(images))
    if kind_single:
        for x, m in enumerate(images):
            if m == 0:
                raise ParseError(
                    f"single map missing image for {ground.labels[x]}", kind_line)
            if m.bit_count() > 1:
                raise ParseError(
                    f"single map needs exactly one target for {ground.labels[x]}", kind_line)
        return as_single_map(F)
    return F


def parse_outcome(parser, text):
    """The parsed value, or the message and line of the ParseError raised."""
    try:
        value = parser(text)
    except ParseError as err:
        return ("error", str(err), err.line)
    return (type(value).__name__, value)


def _mutate(rng, text):
    """One edit that a hand-written .mfn file could contain."""
    lines = text.splitlines()
    labels = next((line.split()[1:] for line in lines if line.startswith("points")), ["p0"])
    arrows = [i for i, line in enumerate(lines) if "->" in line]
    i = rng.choice(arrows) if arrows else len(lines) - 1
    edit = rng.randrange(9)
    if edit == 0:  # kind single anywhere after the declaration, maybe twice
        lines.insert(rng.randint(1, len(lines)), "kind single")
    elif edit == 1:  # a repeated target
        lines[i] += " " + lines[i].split()[-1]
    elif edit == 2:  # a missing image
        del lines[i]
    elif edit == 3:  # a set value
        lines[i] += " " + rng.choice(labels)
    elif edit == 4:  # an empty image
        lines[i] = lines[i].split("->")[0] + "->"
    elif edit == 5:  # an undeclared target or source
        lines[i] = lines[i].replace(rng.choice(labels), "q", 1)
    elif edit == 6:  # a duplicate source line
        lines.insert(rng.randint(1, len(lines)), lines[i])
    elif edit == 7:  # a malformed line
        lines[i] = lines[i].replace("->", "=>")
    else:  # comments and blank lines shift the line numbers
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "# note", "   ")))
    return "\n".join(lines) + "\n"


def test_parse_equals_the_bitmask_reference_on_valid_and_mutated_texts():
    rng = random.Random(11)
    kinds = set()
    for case in range(400):
        size = rng.randint(1, 7)
        value = (random_single_map(size, seed=case) if case % 2
                 else random_multifunction(size, seed=case, density=rng.random()))
        text = serialize(value)
        for _ in range(rng.randint(0, 3)):
            text = _mutate(rng, text)
        outcome = parse_outcome(parse, text)
        assert outcome == parse_outcome(reference_parse, text), text
        kinds.add(outcome[0] if outcome[0] != "error" else outcome[1].split(" at ")[0][:18])
    # valid maps and multifunctions, and every kind of error above, were seen
    assert {"SingleMap", "Multifunction", "single map missing", "single map needs e",
            "duplicate source l", "undeclared label q", "expected '<label> "} <= kinds


# a header, then whole lines of the format and lines assembled from its
# tokens: together they reach every branch of the parser
_HEADERS = ("points a b", "points a b c", "points a a", "# note", "")
_LINES = ("kind single", "a -> b", "a -> b b", "b -> a", "b -> a b", "c -> c", "c ->",
          "b -> d", "d -> a", "a b", "points a", "# note", "")
_TOKENS = ("points", "kind", "single", "->", "a", "b", "c", "#", "a#b", "")
_line = st.one_of(st.sampled_from(_LINES),
                  st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join))
mfn_like_texts = st.builds(lambda head, body: "\n".join([head, *body]),
                           st.sampled_from(_HEADERS), st.lists(_line, max_size=8))


@settings(max_examples=300)
@given(st.one_of(st.text(), mfn_like_texts))
def test_parse_raises_only_parse_error_and_agrees_with_the_reference(text):
    outcome = parse_outcome(parse, text)
    assert outcome == parse_outcome(reference_parse, text)
    assert outcome[0] in ("error", "Multifunction", "SingleMap")



def reference_serialize(value):
    """The serializer that walks every row one set bit at a time."""
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


def _labelled(size):
    return GroundSet(tuple(f"p{i}" for i in range(size)))


def _multifunction(images):
    size = max(len(images), max(m.bit_length() for m in images))
    return Multifunction(_labelled(size), tuple(images) + (0,) * (size - len(images)))


def _agrees_with_reference(value):
    text = serialize(value)
    assert text == reference_serialize(value)
    assert parse(text) == value


def _row(rng, length, count):
    """A row of bit length ``length`` with ``count`` set bits."""
    low = rng.sample(range(length - 1), count - 1)
    return sum(1 << y for y in low) | 1 << (length - 1)


def test_serialize_equals_the_reference_on_edge_rows():
    rng = random.Random(5)
    n = 2_100
    cases = [
        [0] * n,  # no edges at all
        [(1 << n) - 1] * 3,  # full rows
        [1 << rng.randrange(n) for _ in range(n)],  # one target per row
        [0, 1 << (n - 1), 1 | 1 << (n - 1), 1 << (n - 2) | 1 << 7],  # far high bits
        [_row(rng, n, 30) for _ in range(40)],  # sparse rows
    ]
    for length in (128, 640, 2_048, 2_049):
        # popcount * 64 against bit length: one bit below, at and above the threshold
        k = -(-length // 64)
        rows = [_row(rng, length, count) for count in (k - 1, k, k + 1)]
        assert [m.bit_count() * 64 >= m.bit_length() for m in rows] == [False, True, True]
        cases.append(rows)
    for images in cases:
        _agrees_with_reference(_multifunction(images))


def test_serialize_equals_the_reference_on_seeded_values():
    rng = random.Random(17)
    for case in range(60):
        size = rng.randint(1, 300)
        if case % 3 == 0:
            _agrees_with_reference(random_single_map(size, seed=case))
        else:
            _agrees_with_reference(random_multifunction(size, seed=case,
                                                        density=rng.random() ** 3))


@settings(max_examples=200)
@given(st.integers(1, 400).flatmap(
    lambda size: st.lists(st.one_of(st.integers(0, (1 << size) - 1),
                                    st.sets(st.integers(0, size - 1), max_size=4).map(
                                        lambda s: sum(1 << y for y in s))),
                          min_size=1, max_size=6).map(lambda rows: (size, rows))))
def test_serialize_equals_the_reference_on_any_rows(size_rows):
    size, rows = size_rows  # dense rows of random bits and sparse ones, repeated
    rows = (rows * size)[:size]
    _agrees_with_reference(Multifunction(_labelled(size), tuple(rows)))


@settings(max_examples=100)
@given(st.integers(1, 200).flatmap(
    lambda size: st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
def test_serialize_equals_the_reference_on_single_maps(image):
    _agrees_with_reference(SingleMap(_labelled(len(image)), tuple(image)))
