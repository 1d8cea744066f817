"""Golden output of ``iterroot check``: text and JSON must stay byte-identical.

The expected strings were produced by the dense-matrix checkers that the
closed-form certificates replaced.
"""
import pytest

from iterroot.cli import main
from iterroot.instances import f1, f2
from iterroot.mfnio import serialize

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
