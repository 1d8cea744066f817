"""Golden output of the CLI: text and JSON must stay byte-identical.

The expected ``check`` strings were produced by the dense-matrix checkers
that the closed-form certificates replaced, and the expected ``poly``
strings by the CLI that still formatted each order window itself.  The expected outputs of the
graph commands (``paths``, ``iterate``, ``invert``, ``pullback``,
``fixedpoints``) were produced by the dense path matrix, the left-composed
iterate and the bitmask .mfn reader and writer that preceded the edge-wise
kernels; long outputs are pinned by their SHA-256 digest.
"""
import hashlib

import pytest

from iterroot.cli import main
from iterroot.instances import (
    f1,
    f2,
    random_multifunction,
    random_permutation,
    random_single_map,
)
from iterroot.mfnio import serialize
from iterroot.pullback import pullback_of

F1_4_JSON = """\
{
  "certificates": [
    {
      "M": 1,
      "N": 1,
      "citation": "two-path concentration at a non-fixed point (path form)",
      "conclusion": "no-roots-in-class",
      "failed_hypotheses": [
        "class_membership",
        "surjectivity_or_totality_extra"
      ],
      "hypotheses": {
        "N_bound_holds": true,
        "Q_exceeds_MN3": true,
        "class_membership": false,
        "surjectivity_or_totality_extra": false,
        "totality": true,
        "x0_not_fixed": true
      },
      "measured_N_max": "1",
      "measured_Q": "4",
      "root_class": "max-out-degree",
      "rule": "forward-paths",
      "x0": "x0"
    },
    {
      "M": 1,
      "N": 1,
      "citation": "two-step preimage concentration at a non-fixed point (point form)",
      "conclusion": "no-roots-in-class",
      "failed_hypotheses": [
        "class_membership",
        "surjectivity_or_totality_extra"
      ],
      "hypotheses": {
        "N_bound_holds": true,
        "Q_exceeds_MN3": true,
        "class_membership": false,
        "surjectivity_or_totality_extra": false,
        "totality": true,
        "x0_not_fixed": true
      },
      "measured_N_max": "1",
      "measured_Q": "2",
      "root_class": "max-out-degree",
      "rule": "forward-points",
      "x0": "x0"
    }
  ]
}
"""

F1_4_INVERSE_POINTS = """\
no certificate fires
"""

F1_4_TEXT = """\
rule forward-paths  x0=x0  M=1  N=1
  Q=4  N_max=1  bound M*N^3=1
  conclusion: no-roots-in-class (max-out-degree class)
  failed hypotheses: class_membership, surjectivity_or_totality_extra
rule forward-points  x0=x0  M=1  N=1
  Q=2  N_max=1  bound M*N^3=1
  conclusion: no-roots-in-class (max-out-degree class)
  failed hypotheses: class_membership, surjectivity_or_totality_extra
"""

F1_4_INVERSE_POINTS_AT_X0_JSON = """\
{
  "certificates": [
    {
      "M": 2,
      "N": 2,
      "citation": "two-step image concentration on the reversed graph (point form)",
      "conclusion": "not-applicable",
      "failed_hypotheses": [
        "totality",
        "Q_exceeds_MN3",
        "class_membership"
      ],
      "hypotheses": {
        "N_bound_holds": true,
        "Q_exceeds_MN3": false,
        "class_membership": false,
        "surjectivity_or_totality_extra": true,
        "totality": false,
        "x0_not_fixed": true
      },
      "measured_N_max": "2",
      "measured_Q": "1",
      "root_class": "max-in-degree",
      "rule": "inverse-points",
      "x0": "x0"
    }
  ]
}
"""

F2_3_JSON = """\
{
  "certificates": [
    {
      "M": 1,
      "N": 1,
      "citation": "two-path concentration at a non-fixed point (path form)",
      "conclusion": "no-roots-in-class",
      "failed_hypotheses": [
        "class_membership"
      ],
      "hypotheses": {
        "N_bound_holds": true,
        "Q_exceeds_MN3": true,
        "class_membership": false,
        "surjectivity_or_totality_extra": true,
        "totality": true,
        "x0_not_fixed": true
      },
      "measured_N_max": "1",
      "measured_Q": "3",
      "root_class": "max-out-degree",
      "rule": "forward-paths",
      "x0": "x0"
    },
    {
      "M": 1,
      "N": 1,
      "citation": "two-step preimage concentration at a non-fixed point (point form)",
      "conclusion": "no-roots-in-class",
      "failed_hypotheses": [
        "class_membership"
      ],
      "hypotheses": {
        "N_bound_holds": true,
        "Q_exceeds_MN3": true,
        "class_membership": false,
        "surjectivity_or_totality_extra": true,
        "totality": true,
        "x0_not_fixed": true
      },
      "measured_N_max": "1",
      "measured_Q": "3",
      "root_class": "max-out-degree",
      "rule": "forward-points",
      "x0": "x0"
    }
  ]
}
"""

F2_3_INVERSE_POINTS = """\
no certificate fires
"""

F2_3_TEXT = """\
rule forward-paths  x0=x0  M=1  N=1
  Q=3  N_max=1  bound M*N^3=1
  conclusion: no-roots-in-class (max-out-degree class)
  failed hypotheses: class_membership
rule forward-points  x0=x0  M=1  N=1
  Q=3  N_max=1  bound M*N^3=1
  conclusion: no-roots-in-class (max-out-degree class)
  failed hypotheses: class_membership
"""

F2_3_INVERSE_POINTS_AT_X0_JSON = """\
{
  "certificates": [
    {
      "M": 2,
      "N": 2,
      "citation": "two-step image concentration on the reversed graph (point form)",
      "conclusion": "not-applicable",
      "failed_hypotheses": [
        "Q_exceeds_MN3",
        "class_membership"
      ],
      "hypotheses": {
        "N_bound_holds": true,
        "Q_exceeds_MN3": false,
        "class_membership": false,
        "surjectivity_or_totality_extra": true,
        "totality": true,
        "x0_not_fixed": true
      },
      "measured_N_max": "2",
      "measured_Q": "2",
      "root_class": "max-in-degree",
      "rule": "inverse-points",
      "x0": "x0"
    }
  ]
}
"""


@pytest.mark.parametrize("make, depth, args, code, expected", [
    (f1, 4, ('--json',), 0, F1_4_JSON),
    (f1, 4, ('--rule', 'inverse-points'), 1, F1_4_INVERSE_POINTS),
    (f1, 4, (), 0, F1_4_TEXT),
    (f1, 4, ('--rule', 'inverse-points', '--x0', 'x0', '--M', '2', '--json'), 1,
     F1_4_INVERSE_POINTS_AT_X0_JSON),
    (f2, 3, ('--json',), 0, F2_3_JSON),
    (f2, 3, ('--rule', 'inverse-points'), 1, F2_3_INVERSE_POINTS),
    (f2, 3, (), 0, F2_3_TEXT),
    (f2, 3, ('--rule', 'inverse-points', '--x0', 'x0', '--M', '2', '--json'), 1,
     F2_3_INVERSE_POINTS_AT_X0_JSON),
])
def test_check_output_is_byte_identical(tmp_path, capsys, make, depth, args, code, expected):
    path = tmp_path / "instance.mfn"
    path.write_text(serialize(make(depth)), encoding="utf-8")
    assert main(["check", str(path), *args]) == code
    assert capsys.readouterr().out == expected


# map300 has three fixed points, two of them non-isolated, so both
# fixed-point exclusions apply; pullback300 is the pullback of a permutation
GRAPH_FILES = {
    "map300": (random_single_map(300, seed=10),
               "9a9b5ed01770b138c378e3606331802eaceff9c1cf9105768029686906b22997"),
    "multi80": (random_multifunction(80, seed=4, max_out_degree=3, density=0.2),
                "ceb1037bf0e26c2ce354414ed7aec77bab258fc038f3e2996ad121e9d12f02cd"),
    "pullback300": (pullback_of(random_permutation(300, seed=2)),
                    "ff3a51381823d7086616572cc02d7ca1df4a271c4b8006422817e880c106ed87"),
}

MAP300_FIXEDPOINTS = """\
fixed points: p89 p90 p228
  p89: non-isolated, tail: p27 p299
  p90: isolated, tail: -
  p228: non-isolated, tail: p78 p150
total tail size: 4
tail-mass exclusion: all orders n > 4
non-isolated-count exclusion: orders n > 2 with no divisor in [2, 2]
"""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GRAPH_FILES))
def test_graph_input_files_are_byte_identical(name):
    value, digest = GRAPH_FILES[name]
    assert _sha(serialize(value)) == digest


@pytest.mark.parametrize("name, args, code, expected", [
    ("multi80", ("paths", "--from", "p3,p3,p17,p40", "--to", "p5,p60,p60", "--length", "64"),
     0, "36945895261256594307683159311\n"),
    ("multi80", ("paths", "--from", "p0", "--to", "p79", "--length", "1"), 0, "0\n"),
    ("map300", ("paths", "--from", "p1,p2,p1,p3", "--to", "p59,p95,p95,p7", "--length", "64"),
     0, "4\n"),
    ("map300", ("iterate", "--order", "3"), 0,
     "c840a429e34004b15bd15437591809e412155daf4d4b8000cc7c18f4a2152df7"),
    ("map300", ("iterate", "--order", "0"), 0,
     "769d5ca6a8736f0d83271c48ae3d72c425d349e3c54e5f24fc8f35d620f98f06"),
    ("multi80", ("iterate", "--order", "3"), 0,
     "92428e506e2406cd2d84cca367be5d1055aa45b9d3b8f52f405870b2481a93e4"),
    ("map300", ("invert",), 0,
     "3c75c67d476aeb78b01bb43e32a8e13bb77c4521d3055fc1248ac40683f34f0e"),
    ("multi80", ("invert",), 0,
     "47f296f6b8463f801853d7e5d8ab5c412ded8bea4a07bd7db4cf92866dfa740d"),
    ("map300", ("pullback",), 0,
     "3c75c67d476aeb78b01bb43e32a8e13bb77c4521d3055fc1248ac40683f34f0e"),
    ("pullback300", ("pullback",), 0,
     "4f6431472db26b8998494c3be4a517acce247c144655a0a44be1ba5639c17193"),
    ("multi80", ("pullback",), 1,
     "not a pullback multifunction; failed conditions: disjointness, surjectivity\n"),
    ("map300", ("fixedpoints",), 0, MAP300_FIXEDPOINTS),
    ("multi80", ("fixedpoints",), 2, ""),
])
def test_graph_command_output_is_byte_identical(tmp_path, capsys, name, args, code, expected):
    path = tmp_path / f"{name}.mfn"
    path.write_text(serialize(GRAPH_FILES[name][0]), encoding="utf-8")
    assert main([args[0], str(path), *args[1:]]) == code
    out = capsys.readouterr().out
    assert out == expected or _sha(out) == expected


def test_invert_of_a_map_prints_its_pullback(tmp_path, capsys):
    # one inversion serves both commands: the reversed graph of a map is its pullback
    path = tmp_path / "map300.mfn"
    path.write_text(serialize(GRAPH_FILES["map300"][0]), encoding="utf-8")
    outputs = []
    for command in ("invert", "pullback"):
        assert main([command, str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert _sha(outputs[0]) == "3c75c67d476aeb78b01bb43e32a8e13bb77c4521d3055fc1248ac40683f34f0e"


# z^3 fires Solar, RiceDegree (an order window), PrimeOrder and ShiftedMonomialPrime
POLY_Z3_ORDER_7 = """\
Solar: excludes all orders n > 1 [Solarz 1976; list in Riesel 1964]
RiceDegree: excludes all orders n > 6 [Rice, Schweizer & Sklar 1980, Thm. 4]
PrimeOrder: excludes orders 7 [Choczewski & Kuczma 1992, Thm. 1]
ShiftedMonomialPrime: excludes orders 3 [non-isolated fixed-point divisibility rule]
order 7 excluded: True
"""

POLY_Z3_ORDER_7_JSON = """\
{
  "degree": 3,
  "excludes_order": true,
  "findings": [
    {
      "citation": "Solarz 1976; list in Riesel 1964",
      "excluded": {
        "forbidden_divisor_max": null,
        "lower_bound": 1
      },
      "rule": "Solar"
    },
    {
      "citation": "Rice, Schweizer & Sklar 1980, Thm. 4",
      "excluded": {
        "forbidden_divisor_max": null,
        "lower_bound": 6
      },
      "rule": "RiceDegree"
    },
    {
      "citation": "Choczewski & Kuczma 1992, Thm. 1",
      "excluded": {
        "orders": [
          7
        ]
      },
      "rule": "PrimeOrder"
    },
    {
      "citation": "non-isolated fixed-point divisibility rule",
      "excluded": {
        "orders": [
          3
        ]
      },
      "rule": "ShiftedMonomialPrime"
    }
  ],
  "order": 7
}
"""


@pytest.mark.parametrize("args, expected", [
    ((), POLY_Z3_ORDER_7),
    (("--json",), POLY_Z3_ORDER_7_JSON),
])
def test_poly_output_is_byte_identical(capsys, args, expected):
    assert main(["poly", "--coeffs", "0,0,0,1", "--order", "7", *args]) == 0
    assert capsys.readouterr().out == expected
