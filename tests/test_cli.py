"""Command-line interface: exit codes, frozen outputs, determinism, and the
document round trips (units and class groups)."""

import json

import pytest

from fracgalois import cli
from fracgalois.cli import RunConfig


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, (argv, err)
    return json.loads(out)


# ---------------------------------------------------------------------------
# exit codes

def test_verify_all_green_exits_zero(capsys):
    code, out, _ = run(capsys, ["verify", "-p", "5",
                                "--suite", "STICK_IDENT,RZERO,INDF,STARK_RAT"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "4/4 checks passed"
    assert all(line.endswith("PASS") for line in lines[:-1])


def test_verify_failing_check_exits_one(capsys):
    code, out, _ = run(capsys, ["verify", "-p", "5", "--suite", "QNAT"])
    assert code == 1
    assert "QNAT: FAIL" in out
    assert "0/1 checks passed" in out


def test_verify_error_exits_two(capsys):
    code, out, _ = run(capsys, ["verify", "-p", "67", "--suite", "JREL"])
    assert code == 2
    assert "JREL: ERROR" in out


def test_unreachable_tolerance_exits_two(capsys):
    code, _, err = run(capsys, ["verify", "-f", "12", "--suite", "STICK_IDENT",
                                "--bits", "64", "--tol-exp", "-40"])
    assert code == 2
    assert err.startswith("error:")


def test_clcont_requires_class_group_input(capsys):
    code, _, err = run(capsys, ["verify", "-p", "7", "--suite", "CLCONT"])
    assert code == 2
    assert "--in" in err and "class-group" in err


def test_unknown_suite_entry_exits_two(capsys):
    code, _, err = run(capsys, ["verify", "-p", "5", "--suite", "BOGUS"])
    assert code == 2
    assert "unknown check" in err


def test_conductor_prime_conflict_exits_two(capsys):
    code, _, err = run(capsys, ["compute", "theta", "-f", "12", "-p", "5"])
    assert code == 2
    assert "contradicts" in err


def test_missing_field_selector_exits_two(capsys):
    code, _, err = run(capsys, ["compute", "theta"])
    assert code == 2
    assert "--conductor" in err


def test_theta_on_relative_subfield_exits_two(capsys):
    code, _, err = run(capsys, ["compute", "theta", "-p", "7",
                                "--subfield", "relative"])
    assert code == 2
    assert "half_theta" in err


def test_missing_input_file_exits_two(capsys):
    code, _, err = run(capsys, ["ingest", "--in", "/nonexistent/x.json"])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# frozen compute outputs

def test_compute_theta_frozen(capsys):
    doc = run_json(capsys, ["compute", "theta", "-f", "3"])
    assert doc["exact"]["theta"] == {"1": "1/6", "2": "-1/6"}
    assert doc["numeric"]["theta"]["1"].startswith("0.1666666666666666")
    assert doc["config"]["conductor"] == 3
    assert doc["numeric"]["context"]["bits"] == 192


def test_compute_rvec_frozen(capsys):
    doc = run_json(capsys, ["compute", "rvec", "-f", "5"])
    assert doc["exact"]["vanishing_orders"] == {
        "chi[0]": 1, "chi[1]": 0, "chi[2]": 1, "chi[3]": 0}


def test_compute_rvec_with_places(capsys):
    doc = run_json(capsys, ["compute", "rvec", "-f", "3", "--places", "3,7"])
    assert doc["exact"]["vanishing_orders"] == {"chi[0]": 2, "chi[1]": 1}


def test_compute_half_theta_frozen(capsys):
    doc = run_json(capsys, ["compute", "half_theta", "-p", "7"])
    assert doc["exact"]["half_theta"] == {"1": "5/14", "2": "-1/14", "4": "3/14"}


def test_compute_jideal_plus_frozen(capsys):
    doc = run_json(capsys, ["compute", "jideal", "-p", "5",
                            "--subfield", "plus"])
    assert doc["exact"]["ideal"] == {
        "den": 2, "cols": [[2, 0], [1, 1]], "labels": ["1", "2"]}
    assert doc["exact"]["route"] == "theorem_j"
    assert doc["exact"]["details"]["quotient_order"] == 2


def test_compute_jideal_full_route(capsys):
    doc = run_json(capsys, ["compute", "jideal", "-p", "5"])
    assert doc["exact"]["route"] == "full_cyclotomic"
    assert doc["exact"]["ideal"]["den"] == 20


def test_compute_lvalues(capsys):
    doc = run_json(capsys, ["compute", "lvalues", "-f", "3"])
    nums = doc["numeric"]["l_values_at_0"]
    assert nums["chi[1]"].startswith("(0.3333333333333333")
    assert nums["chi[0]"] == "(0.0 + 0.0j)"


def test_compute_annihilator(capsys):
    doc = run_json(capsys, ["compute", "annihilator", "-p", "7",
                            "--subfield", "plus"])
    assert doc["exact"]["quotient_order"] == 4
    assert doc["exact"]["quotient_structure"] == [2, 2]


def test_custom_subfield(capsys):
    # index-2 subgroup {1, 4, 2} of (Z/7)^x: the same field as a relative
    # instance, but presented absolutely
    doc = run_json(capsys, ["compute", "rvec", "-f", "7",
                            "--subfield", "custom:1,2,4"])
    orders = doc["exact"]["vanishing_orders"]
    assert len(orders) == 2
    assert orders["chi[0]"] == 1


# ---------------------------------------------------------------------------
# determinism

def test_reports_identical_outside_meta(capsys):
    d1 = run_json(capsys, ["compute", "jideal", "-p", "7", "--subfield", "plus"])
    d2 = run_json(capsys, ["compute", "jideal", "-p", "7", "--subfield", "plus"])
    d1.pop("meta")
    d2.pop("meta")
    assert d1 == d2


# numeric unit coordinates lost precision on these fields and exited 2, or
# reported a false STARKC failure
@pytest.mark.parametrize("level", [["-p", "31"], ["-p", "7", "-n", "2"]])
def test_relative_jideal_on_large_fields(capsys, level):
    doc = run_json(capsys, ["compute", "jideal", *level, "--subfield", "relative"])
    assert doc["exact"]["route"] == "theorem_j"


@pytest.mark.parametrize("p", ["31", "43"])
def test_relative_starkc_on_large_fields(capsys, p):
    code, out, _ = run(capsys, ["verify", "--suite", "STARKC", "-p", p,
                                "--subfield", "relative"])
    assert code == 0
    assert "STARKC: PASS" in out


def test_verify_report_to_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "-p", "5", "--suite", "STARK_RAT",
                                "--out", str(out_path)])
    assert code == 0
    assert "STARK_RAT: PASS" in out
    assert f"report written to {out_path}" in out
    doc = json.loads(out_path.read_text())
    assert doc["exact"]["checks"][0]["status"] == "pass"
    assert doc["config"]["suite"] == ["STARK_RAT"]


# ---------------------------------------------------------------------------
# document round trips

def test_export_ingest_export_byte_identical(capsys, tmp_path):
    u1 = tmp_path / "u1.json"
    u2 = tmp_path / "u2.json"
    code, _, _ = run(capsys, ["export", "-p", "7", "--subfield", "plus",
                              "--out", str(u1)])
    assert code == 0

    doc = run_json(capsys, ["ingest", "--in", str(u1)])
    assert doc["exact"]["accepted"] is True
    assert doc["exact"]["kind"] == "sunits"
    assert doc["exact"]["free_rank"] == doc["exact"]["expected_rank"] == 3

    code, _, _ = run(capsys, ["export", "--in", str(u1), "--out", str(u2)])
    assert code == 0
    assert u1.read_bytes() == u2.read_bytes()


def test_ingest_rejects_conductor_that_is_not_an_odd_prime_power(capsys, tmp_path):
    path = tmp_path / "u.json"
    run(capsys, ["export", "-p", "7", "--subfield", "plus", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["field"]["f"] = 15
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["ingest", "--in", str(path)])
    assert code == 2
    assert err.startswith("error:") and "15 is not an odd prime power" in err
    assert "Traceback" not in err


def test_provider_file_matches_builtin(capsys, tmp_path):
    path = tmp_path / "u.json"
    run(capsys, ["export", "-p", "7", "--subfield", "plus", "--out", str(path)])
    via_file = run_json(capsys, ["compute", "annihilator", "-p", "7",
                                 "--subfield", "plus", "--provider", "file",
                                 "--in", str(path)])
    builtin = run_json(capsys, ["compute", "annihilator", "-p", "7",
                                "--subfield", "plus"])
    assert via_file["exact"] == builtin["exact"]


def test_provider_file_rejects_wrong_field(capsys, tmp_path):
    path = tmp_path / "u.json"
    run(capsys, ["export", "-p", "7", "--subfield", "plus", "--out", str(path)])
    code, _, err = run(capsys, ["compute", "annihilator", "-p", "5",
                                "--subfield", "plus", "--provider", "file",
                                "--in", str(path)])
    assert code == 2
    assert "unit file" in err


def test_ingest_classgroup_and_clcont(capsys, tmp_path):
    path = tmp_path / "cl.json"
    path.write_text(json.dumps({
        "kind": "classgroup", "format": 1,
        "field": {"f": 23, "kernel": [1]},
        "invariant_factors": [3], "generators": [5],
        "action": [[[-1]]], "provenance": "external table"}))
    doc = run_json(capsys, ["ingest", "--in", str(path)])
    assert doc["exact"] == {"kind": "classgroup", "order": 3,
                            "structure": [3], "provenance": "external table",
                            "accepted": True}
    code, out, _ = run(capsys, ["verify", "-p", "23", "--subfield", "full",
                                "--suite", "CLCONT", "--in", str(path)])
    assert code == 0
    assert "CLCONT: PASS" in out


def test_cg_fit_with_trivial_plus_class_group(capsys, tmp_path):
    path = tmp_path / "cl_plus.json"
    path.write_text(json.dumps({
        "kind": "classgroup", "format": 1,
        "field": {"f": 23, "kernel": [1, 22]},
        "invariant_factors": [], "action": [[]],
        "provenance": "trivial group"}))
    code, out, _ = run(capsys, ["verify", "-p", "23", "--suite", "CG_FIT",
                                "--in", str(path)])
    assert code == 0
    assert "CG_FIT: PASS" in out


def test_ingest_rejects_invalid_classgroup(capsys, tmp_path):
    path = tmp_path / "cl.json"
    path.write_text(json.dumps({
        "kind": "classgroup", "format": 1,
        "field": {"f": 23, "kernel": [1]},
        "invariant_factors": [7], "action": [[[3]]],
        "provenance": "wrong order"}))
    code, _, err = run(capsys, ["ingest", "--in", str(path)])
    assert code == 2
    assert "order" in err


def test_ingest_rejects_unknown_kind(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"kind": "mystery"}))
    code, _, err = run(capsys, ["ingest", "--in", str(path)])
    assert code == 2
    assert "mystery" in err


# ---------------------------------------------------------------------------
# configuration plumbing

def test_tolerance_conversion_decimal_to_binary():
    assert RunConfig(command="verify", tol_exp=-30).context().tol_exp == -100
    assert RunConfig(command="verify", tol_exp=-1).context().tol_exp == -4
    with pytest.raises(ValueError):
        RunConfig(command="verify", tol_exp=0).context()
    with pytest.raises(ValueError):
        RunConfig(command="verify", bits=64, tol_exp=-40).context()


def test_prime_level_inference():
    cfg = RunConfig(command="compute", conductor=49)
    from fracgalois.cli import _prime_level
    assert _prime_level(cfg) == (7, 2)
    with pytest.raises(ValueError, match="prime power"):
        _prime_level(RunConfig(command="compute", conductor=12))
