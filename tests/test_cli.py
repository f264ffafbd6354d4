"""Command-line interface: exit codes, frozen outputs, determinism, and the
document round trips (units and class groups)."""

import contextlib
import copy
import io
import json
import operator
import os
import subprocess
import sys
import time
import types
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fracgalois
from fracgalois import cli
from fracgalois.cli import RunConfig
from fracgalois.cyclo import PrecisionContext
from fracgalois.jideal import CHECK_IDS


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


@pytest.mark.parametrize("argv, prime, conductor", [(["-f", "15", "--places", "3"], 5, 15),
                                                     (["-p", "7", "--places", "2"], 7, 7)])
def test_theta_refuses_an_s_that_omits_a_prime_of_the_conductor(capsys, argv, prime, conductor):
    # the partial zetas sum only residues prime to the conductor, so such an
    # S was silently widened to every prime dividing it
    code, out, err = run(capsys, ["compute", "theta", *argv])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == (f"error: theta needs every prime dividing the conductor {conductor} "
                   f"in S, and S omits {prime}\n")
    full_s = run_json(capsys, ["compute", "theta", "-f", "15", "--places", "3,5"])
    assert full_s["exact"] == run_json(capsys, ["compute", "theta", "-f", "15"])["exact"]


@pytest.mark.parametrize("subfield", ["plus", "full", "custom:1,6"])
def test_half_theta_refuses_a_subfield_other_than_relative(capsys, subfield):
    # half_theta is always the relative field's: an explicit other subfield
    # was silently ignored
    code, out, err = run(capsys, ["compute", "half_theta", "-p", "7", "--subfield", subfield])
    assert code == 2 and out == ""
    assert err.startswith("error: half_theta lives on the relative field")
    assert repr(subfield) in err and "Traceback" not in err
    explicit = run_json(capsys, ["compute", "half_theta", "-p", "7", "--subfield", "relative"])
    assert explicit["exact"] == run_json(capsys, ["compute", "half_theta", "-p", "7"])["exact"]


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


# the report writer: json.dumps(doc, indent=2, sort_keys=True), byte for byte;
# explicit failures, not asserts, since CI runs these tests under python -O too
JSON_SCALARS = (st.none() | st.booleans()
                | st.integers() | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
                | st.floats() | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324])
                | st.text() | st.text(st.characters(max_codepoint=0x20)))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=5)
                   | st.lists(st.sampled_from(["", "a", "\u00e9", "\n"]), max_size=4)
                   | st.lists(st.integers(), max_size=4)),
    max_leaves=40)


def _writer_matches(doc):
    want = json.dumps(doc, indent=2, sort_keys=True)
    got = cli._json(doc)
    if got != want:
        pytest.fail(f"writer gave {got!r}, json.dumps {want!r} for {doc!r}")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(JSON_DOCS)
def test_writer_equals_json_dumps_on_generated_documents(doc):
    _writer_matches(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, None, True, False, -0.0, 1e300, float("nan"), float("-inf"),
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ({},)},
    [1, True, None, "x", 2.5], [True, False], [None, None], [0.1, -0.0],
    {"\u00e9\u4e2d\U0001f600": "\x00\x1f\x7f\u2028\"\\", "": -(10 ** 40)},
    {"b": 1, "a": 2, "B": 3, "_": 4, "10": 5, "9": 6}])
def test_writer_equals_json_dumps_on_edge_documents(doc):
    _writer_matches(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {None: 1}, {"a": 1, 2: 3}, {"a": {(1,): 2}},
                                 [Fraction(1, 2)], {"a": {1, 2}}, {"a": b"x"}])
def test_writer_refuses_what_is_not_a_json_report(doc):
    try:
        cli._json(doc)
    except TypeError:
        return
    pytest.fail(f"the writer accepted {doc!r}")


# numeric unit coordinates lost precision on these fields and exited 2, or
# reported a false STARKC failure; at (11, 2) the SNF of the raw 56 x 57
# relation matrix never finished
@pytest.mark.parametrize("level", [["-p", "31"], ["-p", "7", "-n", "2"],
                                   ["-p", "11", "-n", "2"]])
def test_relative_jideal_on_large_fields(capsys, level):
    start = time.monotonic()
    doc = run_json(capsys, ["compute", "jideal", *level, "--subfield", "relative"])
    elapsed = time.monotonic() - start
    assert doc["exact"]["route"] == "theorem_j"
    assert elapsed < 10.0, elapsed


@pytest.mark.parametrize("p", ["31", "43"])
def test_relative_starkc_on_large_fields(capsys, p):
    code, out, _ = run(capsys, ["verify", "--suite", "STARKC", "-p", p,
                                "--subfield", "relative"])
    assert code == 0
    assert "STARKC: PASS" in out


# log Gamma evaluated again for every character of H made this take 11 s
def test_relative_starkc_at_level_two_of_eleven(capsys):
    start = time.monotonic()
    code, out, _ = run(capsys, ["verify", "--suite", "STARKC", "-p", "11",
                                "-n", "2", "--subfield", "relative"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert "STARKC: PASS" in out
    assert elapsed < 6.0, elapsed


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


# --in on jideal and annihilator is the unit document: the exported
# builtin units give the builtin run's exact section byte for byte
def test_provider_file_matches_builtin(capsys, tmp_path):
    for selector in (["-p", "7", "--subfield", "plus"], ["-p", "7", "--subfield", "relative"],
                     ["-p", "7"]):
        path = tmp_path / "u.json"
        run(capsys, ["export", *selector, "--out", str(path)])
        for obj in ("annihilator", "jideal"):
            via_file = run_json(capsys, ["compute", obj, *selector, "--in", str(path)])
            builtin = run_json(capsys, ["compute", obj, *selector])
            assert json.dumps(via_file["exact"]) == json.dumps(builtin["exact"])
            assert via_file["config"]["input_path"] == str(path)


def test_provider_file_rejects_wrong_field(capsys, tmp_path):
    path = tmp_path / "u.json"
    run(capsys, ["export", "-p", "7", "--subfield", "plus", "--out", str(path)])
    for obj in ("annihilator", "jideal"):
        code, out, err = run(capsys, ["compute", obj, "-p", "5",
                                      "--subfield", "plus", "--in", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: unit file is for FieldModel(f=7")


# ---------------------------------------------------------------------------
# one field decision: the selectors give one (model, S), and the route
# follows the model

def test_jideal_refuses_places_the_builtin_units_do_not_cover(capsys):
    for obj in ("jideal", "annihilator"):
        code, out, err = run(capsys, ["compute", obj, "-p", "7", "--places", "2"])
        assert code == 2 and out == ""
        assert err == "error: builtin unit provider needs S = {infinity, 7}\n"


@pytest.mark.parametrize("custom, selector", [("custom:1", "full"),
                                              ("custom:1,6", "plus")])
def test_custom_selector_of_a_named_field_gives_its_ideal(capsys, custom, selector):
    named = run_json(capsys, ["compute", "jideal", "-p", "7", "--subfield", selector])
    doc = run_json(capsys, ["compute", "jideal", "-f", "7", "--subfield", custom])
    assert doc["exact"] == named["exact"]


@pytest.mark.parametrize("argv, route", [
    (["-p", "7"], "j_full_cyclotomic"),
    (["-f", "7", "--subfield", "custom:1"], "j_full_cyclotomic"),
    (["-p", "7", "--subfield", "plus"], "j_via_theorem"),
    (["-p", "7", "--subfield", "relative"], "j_via_theorem")])
def test_jideal_calls_the_route_bound_on_the_module(capsys, monkeypatch, argv, route):
    calls, real = [], getattr(fracgalois.jideal, route)

    def spy(model, pset, ctx, units=None):
        calls.append(model)
        return real(model, pset, ctx, units)

    monkeypatch.setattr(fracgalois.jideal, route, spy)
    run_json(capsys, ["compute", "jideal", *argv])
    assert len(calls) == 1


def _spy_on_the_full_route(monkeypatch):
    calls, real = [], fracgalois.jideal.j_full_cyclotomic

    def spy(model, pset, ctx, units=None):
        calls.append(model)
        return real(model, pset, ctx, units)

    monkeypatch.setattr(fracgalois.jideal, "j_full_cyclotomic", spy)
    return calls


def test_one_verify_run_builds_the_full_fields_j_once(capsys, monkeypatch):
    """RZERO and BCH both read J(Q(zeta_19)); the run builds it once, and a
    second run, or a compute run, builds its own."""
    calls = _spy_on_the_full_route(monkeypatch)
    argv = ["verify", "--suite", "STICK_IDENT,RZERO,STARK_RAT,BCH", "-p", "19"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.endswith("4/4 checks passed\n")
    assert len(calls) == 1
    assert run(capsys, argv)[0] == 0 and len(calls) == 2
    run_json(capsys, ["compute", "jideal", "-p", "19"])
    run_json(capsys, ["compute", "jideal", "-p", "19"])
    assert len(calls) == 4


def test_run_checks_shares_j_only_while_it_runs(monkeypatch):
    """Two RZERO runs in one call build J once; the sharing ends with the
    call, also when a check raises out of it."""
    calls = _spy_on_the_full_route(monkeypatch)
    jideal, ctx = fracgalois.jideal, cli.RunConfig("verify").context()
    rzero = ("RZERO", {"p": 7, "subfield": "full"})
    reports = jideal.run_checks([rzero, rzero], ctx)
    assert [r.status for r in reports] == ["pass", "pass"] and len(calls) == 1
    with pytest.raises(KeyError):
        jideal.run_checks([rzero, ("RZERO", {})], ctx)
    assert len(calls) == 2 and jideal._SHARED == []
    jideal.j_ideal(*fracgalois.fields.select_field(7), ctx)
    jideal.j_ideal(*fracgalois.fields.select_field(7), ctx)
    assert len(calls) == 4


@pytest.mark.parametrize("argv, named", [
    (["--suite", "RZERO", "-p", "7", "--places", "2,3"], "--places"),
    (["--suite", "INDF", "-p", "7", "--in", "nothere.json"], "--in")])
def test_verify_refuses_the_options_its_checks_fix(capsys, argv, named):
    code, out, err = run(capsys, ["verify", *argv])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: verify") and f" takes no {named}" in err


CLASSGROUP_23 = str(Path(fracgalois.__file__).parent / "data" / "cl_q_zeta23.json")


@pytest.mark.parametrize("argv, line", [
    (["--suite", "CLCONT", "-p", "23", "--subfield", "relative", "--in", CLASSGROUP_23],
     "CLCONT: ERROR -- CLCONT runs on the plus or full subfield, not 'relative'"),
    (["--suite", "RZERO", "-p", "7", "--subfield", "custom:1,6"],
     "RZERO: ERROR -- RZERO runs on the full, plus or relative subfield, "
     "not 'custom:1,6'"),
    (["--suite", "STARKC", "-p", "7", "--subfield", "custom:1"],
     "STARKC: ERROR -- STARKC runs on the plus or relative subfield, not 'custom:1'"),
    # an explicit full is no default: it ran on the plus field
    (["--suite", "STARKC", "-p", "7", "--subfield", "full"],
     "STARKC: ERROR -- STARKC runs on the plus or relative subfield, not 'full'")])
def test_verify_passes_the_subfield_to_the_checks_that_read_it(capsys, argv, line):
    code, out, _ = run(capsys, ["verify", *argv])
    assert code == 2
    assert out.splitlines()[0] == line


def test_starkc_reads_the_default_full_as_plus(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, ["verify", "--suite", "STARKC,RZERO", "-p", "7",
                              "--out", str(out_path)])
    assert code == 0
    checks = json.loads(out_path.read_text())["exact"]["checks"]
    assert [c["context"]["subfield"] for c in checks] == ["plus", "full"]


# a child limited to 1 GiB of address space: each of these conductors,
# S-primes or class-group invariant factors would be enumerated or factored
# by trial division far past the bound, so a refusal must come before either
BOUNDED_CHILD = ("import resource, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                 "from fracgalois.cli import main; sys.exit(main(sys.argv[1:]))")
BIG_PRIME = 1000000000000000003


@pytest.mark.parametrize("argv, doc, named", [
    (["compute", "theta", "-f", "1000000007"], None, "conductor 1000000007 "),
    (["compute", "jideal", "-p", "7", "-n", "1000000000000"], None,
     "conductor 7^1000000000000 "),
    (["compute", "rvec", "-f", "7", "--places", f"3,{BIG_PRIME}"], None,
     f"S-prime {BIG_PRIME} "),
    (["verify", "--suite", "RZERO", "-f", str(BIG_PRIME)], None,
     f"conductor {BIG_PRIME} "),
    (["ingest"], {"kind": "sunits", "format": 1, "field": {"relative": {"p": 7, "n": 25}},
                  "s_primes": [7], "torsion": {"order": 2, "word": [["m1", 1]]},
                  "free": []}, "conductor 7^25 "),
    (["ingest"], {"kind": "sunits", "format": 1, "field": {"f": 7 ** 25, "kernel": [1]},
                  "s_primes": [7], "torsion": {"order": 2, "word": [["m1", 1]]},
                  "free": []}, f"conductor {7 ** 25} "),
    (["ingest"], {"kind": "sunits", "format": 1, "field": {"f": 7, "kernel": [1]},
                  "s_primes": [7, BIG_PRIME], "torsion": {"order": 2, "word": [["m1", 1]]},
                  "free": []}, f"S-prime {BIG_PRIME} "),
    (["ingest"], {"kind": "classgroup", "format": 1,
                  "field": {"f": 1000000007, "kernel": [1]}, "invariant_factors": [],
                  "action": [[]]}, "conductor 1000000007 "),
    (["verify", "--suite", "CG_FIT", "-p", "7"],
     {"kind": "classgroup", "format": 1, "field": {"f": 7, "kernel": [1, 6]},
      "invariant_factors": [10 ** 16 + 61], "action": [[[1]]]},
     f"invariant factor {10 ** 16 + 61} ")])
def test_conductors_and_primes_above_the_bound_exit_two(tmp_path, argv, doc, named):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--in", str(path)]
    src = str(Path(fracgalois.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", BOUNDED_CHILD, *argv],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    kind = named.rsplit(" ", 2)[0]
    assert proc.stderr == (f"error: {named}exceeds {fracgalois.fields.MAX_CONDUCTOR}, "
                           f"the largest {kind} this program takes\n")


INVARIANT_CHILD = """if True:
    import sys
    from fracgalois import cli, gring
    gring.euler_phi = lambda n: 0  # the dlog table's unit count now disagrees
    sys.exit(cli.main(sys.argv[1:]))
    """


@pytest.mark.parametrize("argv", [["compute", "lvalues", "-f", "7"],
                                  ["verify", "--suite", "STARKC", "-f", "7"]])
def test_a_broken_invariant_exits_two_under_python_O(argv):
    # an invariant is an ArithmeticError, not an assert: python -O keeps it,
    # and main and run_check report it like a data error, with no traceback
    src = str(Path(fracgalois.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", INVARIANT_CHILD, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    message = "generators of (Z/7)^x reach 6 of 0 units"
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    if argv[0] == "compute":
        assert (proc.stdout, proc.stderr) == ("", f"error: {message}\n")
    else:
        assert proc.stdout.splitlines() == [f"STARKC: ERROR -- {message}",
                                            "0/1 checks passed"], proc.stdout


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


def test_cg_fit_rejects_the_shipped_full_field_class_group(capsys):
    # the shipped document is Cl(Q(zeta_23)); CG_FIT compares against Cl(K+)
    path = Path(fracgalois.__file__).parent / "data" / "cl_q_zeta23.json"
    code, out, _ = run(capsys, ["verify", "-f", "23",
                                "--suite", "CG_FIT", "--in", str(path)])
    assert code == 2
    assert "CG_FIT: ERROR -- class-group data is for a different field" in out


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


@pytest.mark.parametrize("action", [5, [5]])
def test_ingest_rejects_malformed_action(capsys, tmp_path, action):
    path = tmp_path / "cl.json"
    path.write_text(json.dumps({
        "kind": "classgroup", "format": 1,
        "field": {"f": 23, "kernel": [1]},
        "invariant_factors": [3], "action": action}))
    code, _, err = run(capsys, ["ingest", "--in", str(path)])
    assert code == 2
    assert "action matri" in err and "Traceback" not in err


def test_ingest_rejects_top_level_list(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps([{"kind": "sunits"}]))
    code, _, err = run(capsys, ["ingest", "--in", str(path)])
    assert code == 2
    assert "not a JSON object" in err


@pytest.mark.parametrize("key,value,named", [
    ("field", 5, '"field"'),
    ("field", {"relative": 7}, '"relative"'),
    ("torsion", 5, '"torsion"'),
    # a float is not an integer, though it truncates to the exported one
    (("torsion", "order"), 2.9, '"order" must be an integer, not 2.9'),
    (("field", "f"), 7.4, '"f" must be an integer, not 7.4'),
    ("s_primes", [7.9], '"s_primes" must be an integer, not 7.9'),
    (("free", 0, 1, 2), -1.2, "malformed S-unit word [['z', 3], ['om', 1, -1.2], "
                              "['om', 2, 1]]: \"om\" must be an integer, not -1.2"),
    (("free", 0, 2, 2), 1.7, "malformed S-unit word [['z', 3], ['om', 1, -1], "
                             "['om', 2, 1.7]]: \"om\" must be an integer, not 1.7"),
    (("free", 0, 0, 1), "x", "malformed S-unit word [['z', 'x'], ['om', 1, -1], "
                             "['om', 2, 1]]: \"z\" must be an integer, not 'x'"),
])
def test_ingest_rejects_mistyped_unit_document(capsys, tmp_path, key, value,
                                               named):
    path = tmp_path / "u.json"
    run(capsys, ["export", "-p", "7", "--subfield", "plus", "--out", str(path)])
    doc = json.loads(path.read_text())
    keys = key if isinstance(key, tuple) else (key,)
    reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = value
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["ingest", "--in", str(path)])
    assert code == 2
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [("field", 5),
                                       ("invariant_factors", 3)])
def test_ingest_rejects_mistyped_classgroup(capsys, tmp_path, key, value):
    doc = {"kind": "classgroup", "format": 1,
           "field": {"f": 23, "kernel": [1]},
           "invariant_factors": [3], "action": [[[-1]]]}
    doc[key] = value
    path = tmp_path / "cl.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["ingest", "--in", str(path)])
    assert code == 2
    assert err.startswith("error:") and f'"{key}"' in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def shipped_documents(tmp_path_factory):
    """The shipped class group and the unit documents that `export` writes
    for Q(zeta_7)^+ and the relative field of conductor 7, by name."""
    where = tmp_path_factory.mktemp("documents")
    docs = {"classgroup": json.loads(
        (Path(fracgalois.__file__).parent / "data" / "cl_q_zeta23.json").read_text())}
    for sub in ("plus", "relative"):
        path = where / f"{sub}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["export", "-p", "7", "--subfield", sub, "--out", str(path)]) == 0
        docs[sub] = json.loads(path.read_text())
    return where, docs


def _ingest_mutated(where, doc, path, value):
    """Exit code and stderr of `ingest` on doc with doc[path] = value."""
    doc = copy.deepcopy(doc)
    reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    target = where / "mutated.json"
    target.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["ingest", "--in", str(target)])
    return code, err.getvalue()


@pytest.mark.parametrize("name, path, value", [
    ("plus", ("field", "kernel"), ["1", "6"]),
    ("plus", ("s_primes",), ["7"]),
    ("relative", ("field", "relative", "p"), "7"),
    ("classgroup", ("generators",), ["5"]),
])
def test_ingest_reads_integer_strings(shipped_documents, name, path, value):
    where, docs = shipped_documents
    assert _ingest_mutated(where, docs[name], path, value) == (0, "")


@pytest.mark.parametrize("name, path, value, named", [
    ("plus", ("field", "kernel"), 5, '"kernel"'),
    ("plus", ("field", "kernel"), [None], '"kernel"'),
    ("plus", ("s_primes",), 7, '"s_primes"'),
    ("plus", ("free",), 5, '"free"'),
    ("plus", ("free", 0), 5, "malformed S-unit word"),
    ("plus", ("assumptions",), 5, '"assumptions"'),
    ("relative", ("field", "relative", "p"), [7], '"p"'),
    ("relative", ("field", "relative", "n"), 0, "level n >= 1"),
    ("classgroup", ("generators",), 5, '"generators"'),
    ("classgroup", ("invariant_factors",), [[3]], '"invariant_factors"'),
    ("classgroup", ("field", "f"), [23], '"f"'),
    ("classgroup", ("format",), None, '"format"'),
])
def test_ingest_names_a_mistyped_field(shipped_documents, name, path, value, named):
    where, docs = shipped_documents
    code, err = _ingest_mutated(where, docs[name], path, value)
    assert code == 2
    assert err.startswith("error:") and named in err and "Traceback" not in err


MISSING_KEYS = [("plus", ("field", "f")), ("plus", ("field", "kernel")),
                ("plus", ("s_primes",)), ("plus", ("torsion", "word")),
                ("plus", ("torsion", "order")), ("plus", ("free",)),
                ("relative", ("field", "relative", "p")),
                ("relative", ("field", "relative", "n")),
                ("classgroup", ("field", "f")), ("classgroup", ("action",))]


@pytest.mark.parametrize("name, path", MISSING_KEYS,
                         ids=[f"{name}-{'.'.join(path)}" for name, path in MISSING_KEYS])
def test_ingest_names_a_missing_key(shipped_documents, name, path):
    where, docs = shipped_documents
    doc = copy.deepcopy(docs[name])
    del reduce(operator.getitem, path[:-1], doc)[path[-1]]
    target = where / "missing.json"
    target.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["ingest", "--in", str(target)])
    err = err.getvalue()
    assert code == 2 and out.getvalue() == ""
    assert err.startswith("error:") and f'"{path[-1]}"' in err and "Traceback" not in err


def _value_paths(x, prefix=()):
    """The key paths to every value below the top of a JSON document."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _value_paths(v, prefix + (k,))


# small values only: a level or conductor in the thousands makes a field
# too large to build while the test waits
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | st.sampled_from(["3", "x", "", "om", "m1", "z"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["f", "p", "n", "word"]), inner, max_size=2),
    max_leaves=4)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ingest_of_a_mutated_document_exits_zero_or_two(shipped_documents, data):
    # a bad document is a data error (exit 2), never an exception
    where, docs = shipped_documents
    doc = docs[data.draw(st.sampled_from(sorted(docs)))]
    path = data.draw(st.sampled_from(list(_value_paths(doc))))
    code, err = _ingest_mutated(where, doc, path, data.draw(_JSON_VALUES))
    assert code in (0, 2) and "Traceback" not in err


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


# ---------------------------------------------------------------------------
# command-line parsing

BAD_ARGV = [
    (["bogus", "-p", "7"], "'bogus'"),                        # unknown command
    ([], "unknown command"),
    (["compute", "-p", "7"], "OBJECT"),                      # missing OBJECT
    (["compute", "nothing", "-p", "7"], "'nothing'"),        # unknown OBJECT
    (["compute", "jideal", "-p", "7", "--bogus", "1"], "'--bogus'"),
    (["compute", "jideal", "--cond", "7"], "'--cond'"),      # no abbreviations
    (["compute", "jideal", "-p"], "-p needs a value"),
    (["compute", "jideal", "-p", "7", "--bits", "x"], "--bits: invalid value 'x'"),
    (["compute", "rvec", "-f", "21", "--places", "3,x"], "--places"),
    (["compute", "jideal", "-p", "7", "--subfield", "web"], "'web'"),
    (["compute", "jideal", "-p", "7", "--suite", "RZERO"], "--suite"),
    (["verify", "-p", "7"], "--suite"),
    (["compute", "jideal", "extra", "-p", "7"], "'extra'"),  # stray positional
    (["ingest", "units.json"], "'units.json'"),
    (["compute", "theta", "-p", "9"], "--prime 9 is not a prime"),
    (["compute", "jideal", "-p", "7", "--provider", "file"], "unknown option '--provider'"),
    (["verify", "--suite", ",", "-p", "7"], "verify needs --suite"),
    (["verify", "--suite", "RZERO,BOGUS", "-p", "7", "--seed", "1"], "unknown check 'BOGUS'"),
    (["compute", "jideal", "-f", "21", "--subfield", "custom:x"],
     "subfield 'custom:x' needs integers separated by commas"),
    (["compute", "jideal", "-f", "21", "--subfield", "custom:1,,4"],
     "subfield 'custom:1,,4' needs integers separated by commas"),
    (["verify", "--suite", "RZERO", "-p", "7", "-n", "-1"], "level -1 of the conductor"),
    (["compute", "theta", "-p", "7", "-n", "0"], "level 0 of the conductor"),
]


@pytest.mark.parametrize("argv, named", BAD_ARGV)
def test_usage_errors_exit_two_through_the_error_path(capsys, argv, named):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_option_forms_agree():
    spaced = cli.parse_args(["compute", "lvalues", "--conductor", "25", "--bits", "768",
                             "--tol-exp", "-150", "--places", "5"])
    joined = cli.parse_args(["compute", "lvalues", "--conductor=25", "--bits=768",
                             "--tol-exp=-150", "--places=5"])
    short = cli.parse_args(["compute", "lvalues", "-f", "25", "--bits", "768",
                            "--tol-exp", "-150", "--places", "5"])
    assert spaced.as_dict() == joined.as_dict() == short.as_dict()
    assert (spaced.conductor, spaced.tol_exp, spaced.places) == (25, -150, (5,))
    # a repeated option keeps the last value
    assert cli.parse_args(["compute", "theta", "-f", "5", "--conductor", "7"]).conductor == 7


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["compute", "jideal", "-h"]])
def test_help_names_every_option_and_check(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    for flags, *_ in cli.OPTIONS:
        assert all(flag in out for flag in flags)
    assert all(check in out for check in CHECK_IDS)
    assert all(command in out for command in cli.COMMANDS)


# the options each compute OBJECT or command reads, written out by hand in
# the order of cli.READERS: -h and the README table must say the same, and
# every other option exits 2. "export --in" is export from a unit document
READS = {
    **dict.fromkeys(["theta", "half_theta", "lvalues", "rvec"],
                    "-f -p -n --subfield --places --bits --tol-exp --out"),
    **dict.fromkeys(["jideal", "annihilator"],
                    "-f -p -n --subfield --places --bits --tol-exp --in --out"),
    "verify": "-f -p -n --subfield --bits --tol-exp --in --out --seed --suite",
    "export": "-f -p -n --subfield --places --bits --tol-exp --in --out",
    "ingest": "--bits --tol-exp --in --out",
    "export --in": "--bits --tol-exp --in --out",
}
# a base command line per reader; verify's suite is a check that reads the
# option given: RZERO reads --subfield, and SUITES names the others
BASE = {**{obj: ["compute", obj] for obj in cli.COMPUTE_OBJECTS},
        "verify": ["verify", "--suite", "RZERO"],
        "export": ["export", "--out", "units.json"], "ingest": ["ingest"],
        "export --in": ["export", "--out", "units.json", "--in", "u.json"]}
# each option as given; --level comes first so that it is the flag refused
GIVEN = {"-f": ["-f", "7"], "-p": ["-p", "7"], "-n": ["-n", "1", "-p", "7"],
         "--subfield": ["--subfield", "relative"], "--places": ["--places", "7"],
         "--bits": ["--bits", "256"], "--tol-exp": ["--tol-exp", "-40"],
         "--in": ["--in", "doc.json"], "--out": ["--out", "report.json"],
         "--seed": ["--seed", "3"], "--suite": ["--suite", "RZERO"]}
SUITES = {"--seed": "INDF", "--in": "CLCONT"}


def test_the_readers_are_those_of_the_option_table():
    assert tuple(READS) == cli.READERS
    assert sorted(GIVEN) == sorted(flags[-1] for flags, *_ in cli.OPTIONS)


@pytest.mark.parametrize("reader, flag", [(reader, flags[-1]) for reader in READS
                                          for flags, *_ in cli.OPTIONS])
def test_each_run_refuses_the_options_it_does_not_read(capsys, reader, flag):
    argv = BASE[reader] + GIVEN[flag]
    if reader == "verify" and flag in SUITES:
        argv = ["verify", "--suite", SUITES[flag], *GIVEN[flag]]
    if flag in READS[reader].split():
        assert isinstance(cli.parse_args(argv), RunConfig)
        return
    code, out, err = run(capsys, argv)
    named = f"compute {reader}" if reader in cli.COMPUTE_OBJECTS else reader
    assert (code, out, err) == (2, "", f"error: {named} takes no {flag}\n")


def test_help_and_readme_list_what_each_command_reads(capsys):
    _, help_text, _ = run(capsys, ["-h"])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    groups = {}
    for reader, flags in READS.items():
        groups.setdefault(flags, []).append(reader)
    for flags, readers in groups.items():
        assert f"  {'|'.join(readers)}: {flags}\n" in help_text
        cell = "\\|".join(readers)       # a table cell escapes its pipes
        assert f"| `{cell}` | `{flags}` |" in readme
    assert "--provider" not in readme


@pytest.mark.parametrize("argv, error", [
    # --seed, --in and --subfield only where every check of the suite reads
    # them; the error names the first check that does not
    (["--suite", "RZERO", "-p", "7", "--seed", "1"],
     "verify --suite RZERO takes no --seed: RZERO does not read it"),
    (["--suite", "RZERO,STARKC", "-p", "7", "--in", "x.json"],
     "verify --suite RZERO,STARKC takes no --in: RZERO does not read it"),
    (["--suite", "STARK_RAT", "-p", "7", "--subfield", "relative"],
     "verify --suite STARK_RAT takes no --subfield: STARK_RAT does not read it"),
    (["--suite", "CG_FIT", "-f", "23", "--subfield", "plus"],
     "verify --suite CG_FIT takes no --subfield: CG_FIT does not read it"),
    (["--suite", "INDF", "-p", "7", "--seed", "1"], None),
    (["--suite", "CG_FIT", "-p", "7", "--in", "x.json"], None),
    (["--suite", "RZERO,STARKC,CLCONT", "-p", "7", "--subfield", "plus"], None),
    # a field selector is accepted by every suite, ACNF's included
    *[(["--suite", check, "-f", "7", "-p", "7", "-n", "1"], None) for check in CHECK_IDS],
    # STARK_RAT ran on the plus field while STARKC read the subfield
    (["--suite", "STARK_RAT,STARKC", "-p", "7", "--subfield", "relative"],
     "verify --suite STARK_RAT,STARKC takes no --subfield: STARK_RAT does not read it"),
    (["--suite", "STARKC,INDF", "-p", "7", "--seed", "1"],
     "verify --suite STARKC,INDF takes no --seed: STARKC does not read it"),
    (["--suite", "CG_FIT,INDF", "-p", "7", "--in", "x.json"],
     "verify --suite CG_FIT,INDF takes no --in: INDF does not read it")])
def test_verify_reads_an_option_only_for_a_check_that_does(capsys, argv, error):
    if error is None:
        assert cli.parse_args(["verify", *argv]).suite
        return
    code, out, err = run(capsys, ["verify", *argv])
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("selector, error", [
    (["-f", "1000"], "conductor 1000 is not an odd prime power"),
    (["-p", "1000"], "--prime 1000 is not a prime"),
    (["-p", "5", "-n", "0"], "level 0 of the conductor 5^0 is below 1"),
    (["-f", "7", "-p", "5"], "--conductor 7 contradicts --prime 5 --level 1")])
def test_acnf_checks_a_field_selector_it_does_not_read(capsys, selector, error):
    """ACNF runs on Q and Q(sqrt 5) whatever the selector, but a selector
    that names no field exits 2 as it would for any other check."""
    code, out, err = run(capsys, ["verify", "--suite", "ACNF", *selector])
    assert (code, out) == (2, "") and err.startswith(f"error: {error}")


def test_acnf_with_a_valid_field_selector_reports_what_it_reports_without(capsys, tmp_path):
    exact = []
    for selector in ([], ["-p", "5"], ["-f", "25"]):
        out = tmp_path / f"acnf{len(exact)}.json"
        code, _, err = run(capsys, ["verify", "--suite", "ACNF", *selector, "--out", str(out)])
        assert (code, err) == (0, "")
        exact.append(json.loads(out.read_text())["exact"])
    assert exact[0] == exact[1] == exact[2]


@pytest.mark.parametrize("argv, error", [
    (["compute", "jideal", "-f", "25", "-n", "3"], "-n needs --prime/-p"),
    (["compute", "lvalues", "--level=2", "--conductor", "49"], "--level needs --prime/-p"),
    (["export", "-p", "7", "--in", "u.json", "--out", "v.json"], "export --in takes no -p"),
    (["export", "--in", "u.json", "--out", "v.json", "--subfield", "plus"],
     "export --in takes no --subfield")])
def test_level_without_prime_and_export_from_a_document_with_a_field_exit_two(capsys, argv, error):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith(f"error: {error}")


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--suite", "RZERO", "-p", "7", "--seed", "1"], "--seed"),
    (["compute", "lvalues", "-f", "25", "--in", "x.json"], "--in"),
    (["compute", "jideal", "-p", "7", "--provider", "file"], "'--provider'")])
def test_an_unread_option_exits_two_under_python_O(argv, flag):
    src = str(Path(fracgalois.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-m", "fracgalois.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and flag in proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


CONFIG_DEFAULTS = {"command": None, "object": None, "suite": [], "conductor": None,
                   "prime": None, "level": 1, "subfield": None, "places": None,
                   "bits": 192, "tol_exp": -30,
                   "input_path": None, "output_path": None, "seed": 0}


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--suite", "STICK_IDENT,RZERO,INDF,STARK_RAT", "-p", "5"],
     {"command": "verify", "suite": ["STICK_IDENT", "RZERO", "INDF", "STARK_RAT"],
      "prime": 5}),
    (["compute", "jideal", "-p", "11", "-n", "2", "--subfield", "relative"],
     {"command": "compute", "object": "jideal", "prime": 11, "level": 2,
      "subfield": "relative"}),
    (["compute", "rvec", "-f", "21", "--subfield", "custom:1,4,16", "--places", "3,7",
      "--bits", "256", "--tol-exp", "-40"],
     {"command": "compute", "object": "rvec", "conductor": 21,
      "subfield": "custom:1,4,16", "places": [3, 7], "bits": 256, "tol_exp": -40}),
    (["compute", "annihilator", "-f", "25", "--subfield", "plus", "--in", "units.json"],
     {"command": "compute", "object": "annihilator", "conductor": 25,
      "subfield": "plus", "input_path": "units.json"}),
    (["ingest", "--in", "units.json"], {"command": "ingest", "input_path": "units.json"}),
    (["export", "--out", "units.json", "-p", "7", "--subfield", "plus"],
     {"command": "export", "output_path": "units.json", "prime": 7, "subfield": "plus"}),
])
def test_config_of_the_readme_forms(argv, expected):
    assert cli.parse_args(argv).as_dict() == {**CONFIG_DEFAULTS, **expected}


FLAGS = [flag for flags, *_ in cli.OPTIONS for flag in flags]
TOKENS = st.one_of(
    st.sampled_from(FLAGS + list(cli.COMMANDS) + list(cli.COMPUTE_OBJECTS)
                    + ["7", "-150", "3,7", "x", "builtin", "file", "web", "STARKC",
                       "", "-", "--", "=", "--cond"]),
    st.builds("{}={}".format, st.sampled_from(FLAGS), st.text(max_size=4)),
    st.text(max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(TOKENS, max_size=8))
def test_parsing_returns_a_config_or_a_value_error(argv):
    try:
        cfg = cli.parse_args(argv)
    except ValueError:
        return
    assert isinstance(cfg, RunConfig)
    assert cfg.as_dict().keys() == CONFIG_DEFAULTS.keys()
    assert cfg.command in cli.COMMANDS
    assert (cfg.object in cli.COMPUTE_OBJECTS) == (cfg.command == "compute")


def test_generated_at_is_an_iso_utc_timestamp(capsys):
    stamp = run_json(capsys, ["compute", "theta", "-f", "5"])["meta"]["generated_at"]
    assert stamp.endswith("+00:00")
    when = datetime.fromisoformat(stamp)
    assert abs(datetime.now(timezone.utc) - when) < timedelta(minutes=5)


def test_startup_imports_nothing_the_mathematics_does_not_need():
    code = """if True:
        import contextlib, io, sys
        import fracgalois.cli
        banned = ("argparse", "gettext", "locale", "dataclasses", "inspect", "datetime")
        print(sorted(m for m in banned if m in sys.modules))
        with contextlib.redirect_stdout(io.StringIO()):
            assert fracgalois.cli.main(["compute", "jideal", "-p", "7"]) == 0
        print(sorted(m for m in ("gettext", "locale") if m in sys.modules))
        """
    src = str(Path(fracgalois.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_the_benchmark_tracer_binds_every_target():
    # perfbench/spans.py patches functions of fracgalois by name, and the
    # benchmark worker reads bernoulli_number's cache counters: a target
    # deleted or renamed here breaks every traced benchmark round. The file
    # is read and executed, not imported, so nothing is written beside it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)

    def binding(modname, qual):
        home = sys.modules[f"fracgalois.{modname}"]
        *owner, attr = qual.split(".")
        return vars(getattr(home, owner[0]) if owner else home)[attr]

    before = {(m, q): binding(m, q) for m, q, _ in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert [key for key in before if binding(*key) is before[key]] == []
        fracgalois.cyclo.log_gamma(Fraction(1, 3), PrecisionContext(bits=64, tol_exp=-40))
        assert tracer.stats["cyclo.log_gamma"].calls == 1
        assert tracer.stats["cyclo._log_gamma_guarded"].calls == 1
    finally:
        tracer.uninstall()
    assert all(binding(*key) is fn for key, fn in before.items())
    assert spans.combine([tracer.counters()])["cyclo.log_gamma.calls"] == 1
    info = fracgalois.cyclo.bernoulli_number.cache_info()
    assert info.hits >= 0 and info.misses >= 0
