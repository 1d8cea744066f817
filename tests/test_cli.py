import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from iterroot.cli import main
from iterroot.core import invert
from iterroot.instances import f1, f2, fig67
from iterroot.mfnio import parse, serialize


@pytest.fixture
def write(tmp_path):
    def _write(name, value):
        path = tmp_path / name
        path.write_text(serialize(value), encoding="utf-8")
        return str(path)
    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_scan_fires_on_f1(write, capsys):
    path = write("f1.mfn", f1(3))
    code, out, _ = run(capsys, "check", path, "--M", "2")
    assert code == 0
    assert "forward-paths" in out
    assert "x0=x0" in out


def test_check_scan_json_output(write, capsys):
    path = write("f2.mfn", f2(3))
    code, out, _ = run(capsys, "check", path, "--M", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    rules = {c["rule"] for c in payload["certificates"]}
    assert {"forward-paths", "forward-points"} <= rules
    assert all(c["conclusion"] == "no-roots-at-all" for c in payload["certificates"])


def test_check_single_rule_with_explicit_point(write, capsys):
    path = write("f1.mfn", f1(3))
    code, out, _ = run(capsys, "check", path, "--rule", "forward-points",
                       "--x0", "x0", "--M", "2", "--N", "1")
    assert code == 1  # reported but does not fire
    assert "not-applicable" in out


def test_check_no_certificate_exit_code(write, capsys):
    from iterroot.core import identity_multifunction
    path = write("id.mfn", identity_multifunction(f1(3).ground))
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "no certificate fires" in out


def test_check_unknown_point_is_input_error(write, capsys):
    path = write("f1.mfn", f1(3))
    code, _, err = run(capsys, "check", path, "--rule", "forward-paths", "--x0", "nope")
    assert code == 2
    assert "error" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check", "/does/not/exist.mfn")
    assert code == 2
    assert "error" in err


def test_parse_error_reports_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.mfn"
    path.write_text("points a\nq -> a\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "bad.mfn" in err and "line 2" in err


def test_search_witness_round_trips(write, capsys):
    f, _ = fig67()
    path = write("f.mfn", f)
    code, out, _ = run(capsys, "search", path, "--order", "4")
    assert code == 0
    from iterroot.core import iterate
    witness = parse(out)
    assert iterate(witness, 4) == f


def test_search_exhausted_exit_code(write, capsys):
    path = write("f1.mfn", f1(3))
    code, out, _ = run(capsys, "search", path, "--order", "2", "--max-out", "2", "--total")
    assert code == 1
    assert out.strip() == "exhausted"


def test_search_budget_exit_code(write, capsys):
    from iterroot.instances import random_multifunction
    path = write("r.mfn", random_multifunction(5, seed=123))
    code, out, _ = run(capsys, "search", path, "--order", "3", "--budget", "50")
    assert code == 3
    assert out.strip() == "budget"


@pytest.mark.parametrize("value", [f1(3), fig67()[0]], ids=["multi", "single"])
def test_search_budget_of_one_reports_one_node(write, capsys, value):
    # the search stops on the node past its budget, before exploring it
    path = write("target.mfn", value)
    code, out, _ = run(capsys, "search", path, "--order", "2", "--budget", "1", "--json")
    assert code == 3
    assert json.loads(out) == {"nodes_explored": "1", "order": 2, "outcome": "budget",
                               "witness": None}


def test_search_conflicting_constraints_rejected(write, capsys):
    path = write("f1.mfn", f1(3))
    code, _, err = run(capsys, "search", path, "--order", "2",
                       "--max-out", "1", "--max-in", "1")
    assert code == 2
    assert "mutually exclusive" in err


@pytest.mark.parametrize("single, flags, message", [
    (False, ("--max-out", "0"), "positive bound"),
    (False, ("--max-in", "0"), "positive bound"),
    (True, ("--max-out", "0"), "positive bound"),
    (True, ("--max-in", "0"), "positive bound"),
    (True, ("--max-in", "0", "--max-out", "2"), "mutually exclusive"),
])
def test_search_zero_degree_bound_rejected(write, capsys, single, flags, message):
    # 0 is a bound, not the absence of one, and a degree-bounded class needs a positive one
    path = write("f.mfn", fig67()[0] if single else f1(3))
    code, out, err = run(capsys, "search", path, "--order", "2", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_iterate_matches_library(write, capsys):
    F = f2(3)
    path = write("f2.mfn", F)
    code, out, _ = run(capsys, "iterate", path, "--order", "2")
    assert code == 0
    from iterroot.core import iterate
    assert parse(out) == iterate(F, 2)


def test_invert_round_trip(write, capsys):
    F = f1(3)
    path = write("f1.mfn", F)
    code, out, _ = run(capsys, "invert", path)
    assert code == 0
    from iterroot.core import invert
    assert parse(out) == invert(F)


def test_pullback_of_map_then_witness_recovers_map(write, capsys, tmp_path):
    from iterroot.instances import random_permutation
    f = random_permutation(5, seed=2)
    path = write("perm.mfn", f)
    code, out, _ = run(capsys, "pullback", path)
    assert code == 0
    back = tmp_path / "back.mfn"
    back.write_text(out, encoding="utf-8")
    code, out2, _ = run(capsys, "pullback", str(back))
    assert code == 0
    assert parse(out2) == f


def test_pullback_failure_lists_conditions(write, capsys):
    code, out, _ = run(capsys, "pullback", write("f1.mfn", f1(3)))
    assert code == 1
    assert "not a pullback" in out


def test_paths_counts_two_step_routes_into_hub(write, capsys):
    F = f1(3)
    labels = ",".join(F.ground.labels)
    path = write("f1.mfn", F)
    code, out, _ = run(capsys, "paths", path, "--from", labels, "--to", "x0",
                       "--length", "2")
    assert code == 0
    assert out.strip() == "4"


def test_paths_prints_a_count_of_any_length(write, capsys):
    # 2**15000 has 4,516 digits, past the 4,300 that CPython writes by default
    path = write("k2.mfn", parse("points a b\na -> a b\nb -> a b\n"))
    code, out, err = run(capsys, "paths", path, "--from", "a", "--to", "a,b", "--length", "15000")
    assert (code, err) == (0, "")
    assert out == f"{2**15000}\n"


def test_check_prints_a_bound_of_any_length(write, capsys):
    # N has 2,000 digits, so M*N^3 has 6,000
    N = 10**2000 - 1
    path = write("f1.mfn", f1(3))
    code, out, err = run(capsys, "check", path, "--rule", "forward-paths", "--x0", "x0",
                         "--N", str(N))
    assert (code, err) == (1, "")
    assert out == (f"rule forward-paths  x0=x0  M=1  N={N}\n"
                   f"  Q=4  N_max=1  bound M*N^3={N**3}\n"
                   "  conclusion: not-applicable (max-out-degree class)\n"
                   "  failed hypotheses: Q_exceeds_MN3, class_membership, "
                   "surjectivity_or_totality_extra\n")


def test_fixedpoints_reports_profile_and_exclusions(write, capsys):
    f, _ = fig67()
    code, out, _ = run(capsys, "fixedpoints", write("f.mfn", f))
    assert code == 0
    assert "fixed points: x1 x2 x3 x4" in out
    assert "total tail size: 8" in out
    assert "tail-mass exclusion: all orders n > 8" in out
    assert "non-isolated-count exclusion: orders n > 2 with no divisor in [2, 4]" in out


def test_fixedpoints_builds_one_profile(write, capsys, monkeypatch):
    from iterroot import fixedpoint

    built = []
    profile = fixedpoint.fixed_point_profile

    def counted(f):
        built.append(f)
        return profile(f)

    monkeypatch.setattr(fixedpoint, "fixed_point_profile", counted)
    f, _ = fig67()
    code, out, _ = run(capsys, "fixedpoints", write("f.mfn", f))
    assert code == 0 and "tail-mass exclusion: all orders n > 8" in out
    assert len(built) == 1


def test_fixedpoints_rejects_multifunctions(write, capsys):
    code, _, err = run(capsys, "fixedpoints", write("f1.mfn", f1(3)))
    assert code == 2
    assert "kind single" in err


def test_poly_json_quadratic(capsys):
    code, out, _ = run(capsys, "poly", "--coeffs", "1,2,1", "--order", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert payload["excludes_order"] is True
    assert "Quadratic" in {f["rule"] for f in payload["findings"]}


def test_poly_accepts_i_notation(capsys):
    code, out, _ = run(capsys, "poly", "--coeffs", "1+2i,0,1", "--order", "2")
    assert code == 0
    assert "order 2 excluded" in out


def test_poly_bad_coefficient_is_input_error(capsys):
    code, _, err = run(capsys, "poly", "--coeffs", "one,two", "--order", "2")
    assert code == 2
    assert "bad complex coefficient" in err


def test_solar_prints_known_prefix(capsys):
    code, out, _ = run(capsys, "solar", "--count", "5")
    assert code == 0
    assert out.split() == ["2", "3", "6", "11", "14"]


def test_instance_emits_canonical_mfn(capsys):
    code, out, _ = run(capsys, "instance", "f1", "--depth", "3")
    assert code == 0
    assert parse(out) == f1(3)


def test_instance_random_is_seed_deterministic(capsys):
    code, first, _ = run(capsys, "instance", "random-mf", "--size", "5", "--seed", "7")
    assert code == 0
    code, second, _ = run(capsys, "instance", "random-mf", "--size", "5", "--seed", "7")
    assert code == 0
    assert first == second


def test_instance_unknown_name_is_input_error(capsys):
    code, _, err = run(capsys, "instance", "mystery")
    assert code == 2
    assert "unknown instance" in err


@pytest.mark.parametrize("density, max_out", [("nan", "2"), ("2", "2"), ("-1", "2"),
                                              ("0.5", "-1")])
def test_instance_random_mf_rejects_out_of_range_parameters(capsys, density, max_out):
    code, out, err = run(capsys, "instance", "random-mf", "--size", "5", "--seed", "7",
                         "--density", density, "--max-out", max_out)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "density" in err or "max_out_degree" in err


# each malformed value is rejected by the library function that consumes it;
# {f1} is a multifunction file, {map} a single map, {bad} fails to parse,
# {binary} is not UTF-8
@pytest.mark.parametrize("argv, fragment", [
    (("check", "{f1}", "--M", "0"), "M must be positive"),
    (("check", "{f1}", "--rule", "forward-paths", "--M", "0"), "M and N must be positive"),
    (("search", "{f1}", "--order", "2", "--budget", "0"), "budget must be positive"),
    (("search", "{map}", "--order", "4", "--budget", "0"), "budget must be positive"),
    (("search", "{f1}", "--order", "1"), "order must be at least 2"),
    (("search", "{map}", "--order", "1"), "order must be at least 2"),
    (("iterate", "{f1}", "--order", "-1"), "must be nonnegative"),
    (("iterate", "{map}", "--order", "-1"), "must be nonnegative"),
    (("paths", "{f1}", "--from", "x0", "--to", "x1", "--length", "0"), "length at least 1"),
    (("solar", "--count", "0"), "count must be positive"),
    (("check", "{f1}", "--rule", "forward-paths", "--x0", "nope"), "unknown label 'nope'"),
    (("check", "{f1}", "--rule", "forward-paths", "--x0", "x0,x1"), "unknown label 'x0,x1'"),
    (("paths", "{f1}", "--from", "x0,nope", "--to", "x1", "--length", "2"),
     "unknown label 'nope'"),
    (("paths", "{f1}", "--from", "x0", "--to", "nope", "--length", "2"),
     "unknown label 'nope'"),
    (("check", "/does/not/exist.mfn"), "No such file"),
    (("check", "{bad}"), "bad.mfn: undeclared label q at line 2"),
    (("check", "{f1}", "--x0", "nope", "--N", "0", "--M", "2"), "need a single --rule"),
    (("check", "{f1}", "--N", "2"), "need a single --rule"),
    (("check", "{f1}", "--x0", "x1", "--json"), "need a single --rule"),
    (("instance", "f1", "--depth", "3", "--density", "7", "--max-out", "-4", "--seed", "1"),
     "instance f1 does not take max_out_degree, density, seed"),
    (("check", "{binary}"), "binary.mfn: 'utf-8' codec can't decode byte 0xff"),
])
def test_malformed_input_exits_2_with_one_line(write, tmp_path, capsys, argv, fragment):
    bad = tmp_path / "bad.mfn"
    bad.write_text("points a\nq -> a\n", encoding="utf-8")
    binary = tmp_path / "binary.mfn"
    binary.write_bytes(b"\xffpoints a\n")
    files = {"f1": write("f1.mfn", f1(3)), "map": write("map.mfn", fig67()[0]), "bad": str(bad),
             "binary": str(binary)}
    code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    message = err[len("error: "):].strip()
    assert fragment in message and message[0] not in "\"'", err


@pytest.mark.parametrize("extra", [(), ("--N", "2"), ("--x0", "x1")])
def test_check_one_rule_builds_one_view(write, capsys, monkeypatch, extra):
    # one view per command, not one per witness point, which made the
    # command quadratic in the ground size
    from iterroot import criteria
    from iterroot.cli import _certificate_json
    F = f1(12)
    path = write("f1.mfn", F)
    rule = criteria.Rule.INVERSE_PATHS if "--N" in extra else criteria.Rule.FORWARD_PATHS
    points = [F.ground.index("x1")] if "--x0" in extra else range(F.ground.size)
    expected = []
    for x0 in points:
        N = 2 if "--N" in extra else criteria.minimal_N(F, rule, x0)
        [cert] = criteria.check_rule(F, rule, 1, [x0], N)
        if cert.fires or "--x0" in extra:
            expected.append(_certificate_json(F.ground, cert))
    built = []
    view = criteria._View
    monkeypatch.setattr(criteria, "_View",
                        lambda *a, **kw: built.append(a) or view(*a, **kw))
    code, out, _ = run(capsys, "check", path, "--rule", rule.value, "--json", *extra)
    assert len(built) == 1
    assert json.loads(out) == {"certificates": expected}
    assert code == (0 if any(c["conclusion"] != "not-applicable" for c in expected) else 1)


@pytest.mark.parametrize("rule", ["forward-paths", "inverse-points"])
@pytest.mark.parametrize("extra", [(), ("--N", "2")])
def test_check_one_rule_builds_one_certificate(write, capsys, monkeypatch, rule, extra):
    # only the unique largest in-degree of G can fire, for every N, so check
    # without --x0 builds the certificate of that one point
    from iterroot import criteria
    F = f1(12) if rule == "forward-paths" else invert(f1(12))
    witnesses = []
    check = criteria._check
    monkeypatch.setattr(criteria, "_check", lambda *a: witnesses.append(a[2]) or check(*a))
    run(capsys, "check", write("f1.mfn", F), "--rule", rule, *extra)
    assert witnesses == [F.ground.index("x0")]


@pytest.mark.parametrize("coeffs", ["nan,0,1", "0,1,2,1e309", "inf,0,1", "1,-infi,1"])
def test_poly_non_finite_coefficient_is_input_error(capsys, coeffs):
    code, out, err = run(capsys, "poly", "--coeffs", coeffs, "--order", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_poly_root_finder_overflow_keeps_exact_findings(capsys, json_flag):
    # a numeric root finder overflows on 1e-320 z^3 + 2 z^2 + z; the exact rules
    # read no roots: the double fixed point 0 backs CubicSpecial, and PrimeOrder
    # excludes 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "poly", "--coeffs", "0,1,2,1e-320", "--order", "5",
                             *json_flag)
    assert (code, err) == (0, "")
    if json_flag:
        payload = json.loads(out)
        assert payload["excludes_order"] is True
        assert [f["rule"] for f in payload["findings"]] == ["CubicSpecial", "PrimeOrder"]
        assert payload["findings"][1]["excluded"] == {"orders": [5]}
    else:
        assert out == ("CubicSpecial: excludes all orders n > 1 [Choczewski & Kuczma 1992, Thm. 6]\n"
                       "PrimeOrder: excludes orders 5 [Choczewski & Kuczma 1992, Thm. 1]\n"
                       "order 5 excluded: True\n")


@pytest.mark.parametrize("coeffs, fires", [
    # z + (z - 1)(z - 1 - 2**-30)(z + 5): three distinct fixed points, exact in floats
    ("5.000000004656613,-8.00000000372529,2.9999999990686774,1.0", False),
    ("-1,4,-3,1", True),  # z + (z - 1)^3: one triple fixed point
    ("-8,13,-6,1", True),  # z + (z - 2)^3
])
def test_poly_cubic_special_counts_fixed_points_exactly(capsys, coeffs, fires):
    code, out, err = run(capsys, "poly", f"--coeffs={coeffs}", "--order", "2")
    finding = ("CubicSpecial: excludes all orders n > 1 [Choczewski & Kuczma 1992, Thm. 6]"
               if fires else "no finding; nothing is asserted")
    assert (code, out, err) == (0, f"{finding}\norder 2 excluded: {fires}\n", "")
    code, out, err = run(capsys, "poly", f"--coeffs={coeffs}", "--order", "2", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["excludes_order"] is fires
    assert payload["findings"] == ([{
        "citation": "Choczewski & Kuczma 1992, Thm. 6", "rule": "CubicSpecial",
        "excluded": {"lower_bound": 1, "forbidden_divisor_max": None}}] if fires else [])


def test_poly_overflowing_cubic_asserts_nothing(capsys):
    # h o p o h^-1 for this cubic has coefficients beyond the float range, but
    # the exact test decides it: z + 1e300 z^2 (z + 2e-300) is no conjugate of
    # z^3 - z^2 + z, so CubicSpecial fires; z + (z - 10^5)^3 is no shifted
    # monomial, so ShiftedMonomialPrime does not fire at its order 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "poly", "--coeffs", "0,1,2,1e300", "--order", "2")
        assert (code, err) == (0, "")
        assert out == ("CubicSpecial: excludes all orders n > 1 [Choczewski & Kuczma 1992, Thm. 6]\n"
                       "order 2 excluded: True\n")
        code, out, err = run(capsys, "poly", "--coeffs=-1e15,30000000001,-300000,1",
                             "--order", "3")
    assert (code, err) == (0, "")
    assert "ShiftedMonomialPrime" not in out and out.startswith("CubicSpecial")


def _run_quietly(argv):
    """main(argv) with every warning an error; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


# finite extremes (|1.3e308+1.3e308i| is beyond the float range), non-finite
# values (nan, inf, and 1e309, which overflows to inf), complex values in the
# CLI's i notation, junk and empty tokens
_COEFF_TOKENS = ("0", "1", "-1", "2", "0.5", "2+3i", "-1i", "1e300", "-1e300", "1e-320",
                 "1.3e308+1.3e308i", "-1.3e308i", "nan", "inf", "-inf", "1e309", "infi",
                 "i", "x", "1+", "", " ")
_NON_FINITE = {"nan", "inf", "-inf", "1e309", "infi"}


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_COEFF_TOKENS), min_size=1, max_size=6),
       st.integers(-1, 30))
def test_poly_fuzz_exits_cleanly(tokens, order):
    # --coeffs=... so that a leading minus sign is not read as an option
    code, out, err = _run_quietly(["poly", f"--coeffs={','.join(tokens)}",
                                   "--order", str(order)])
    _assert_clean_exit(code, err)
    assert code != 1
    if _NON_FINITE & set(tokens):
        assert code == 2
    if code == 0:
        assert out.endswith(f"order {order} excluded: True\n") or \
            out.endswith(f"order {order} excluded: False\n")


_LABELS = ("a", "b", "c", "d", "e")
_mfn_line = st.one_of(
    st.builds(lambda source, targets: " ".join([source, "->", *targets]),
              st.sampled_from(_LABELS + ("q",)), st.lists(st.sampled_from(_LABELS), max_size=5)),
    st.sampled_from(("kind single", "points a", "# note", "a b", "->", "")))
# arbitrary text, and texts on the ground a..e that often parse and fire
_mfn_texts = st.one_of(
    st.text(),
    st.builds(lambda body: "\n".join(["points a b c d e", *body]), st.lists(_mfn_line, max_size=10)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mfn_texts, st.sampled_from(["scan", "forward-paths", "forward-points",
                                    "inverse-paths", "inverse-points"]),
       st.integers(0, 3), st.sampled_from([(), ("--x0", "a"), ("--x0", "q"), ("--N", "0"),
                                           ("--N", "2"), ("--json",)]))
def test_check_fuzz_exits_cleanly(tmp_path, text, rule, M, extra):
    path = tmp_path / "fuzz.mfn"
    path.write_text(text, encoding="utf-8")
    code, _, err = _run_quietly(["check", str(path), "--rule", rule, "--M", str(M), *extra])
    _assert_clean_exit(code, err)
