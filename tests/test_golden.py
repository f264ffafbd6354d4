"""The golden corpus of `exact` sections: for each CLI command of COMMANDS,
its exit code and the sha256 of its report's `exact` section as compact
sorted JSON, recorded in tests/golden/exact.json.

The commands cover every field of the builtin provider (the plus and full
fields of each conductor in `units.KNOWN_HPLUS_ONE`, and the relative
levels), every check each field admits, and the commands that earlier
tests and CI pinned one by one. Run this module as a script to rewrite the
corpus:

    PYTHONPATH=src python3 tests/test_golden.py

A change that moves `exact` bytes rewrites the corpus; the diff names every
moved command, and CHANGES.md gives the reason for each.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from fracgalois import cli
from fracgalois.fields import odd_prime_power
from fracgalois.gring import euler_phi
from fracgalois.units import KNOWN_HPLUS_ONE

CORPUS = Path(__file__).with_name("golden") / "exact.json"
DATA = Path(cli.__file__).parent / "data"    # the shipped documents, {data} in a command

CONDUCTORS = sorted(KNOWN_HPLUS_ONE)
# Q(zeta_{p^n}) / Q(sqrt(-p)) for p = 3 mod 4, except Q(zeta_3), which is k
RELATIVE = [f for f in CONDUCTORS if odd_prime_power(f)[0] % 4 == 3 and f != 3]


def _level(f):
    p, n = odd_prime_power(f)
    return f"-p {p}" + (f" -n {n}" if n > 1 else "")


# the commands that earlier tests and CI pinned, where the lists above give
# no command of the same spelling
PINNED = [
    "compute lvalues -f 63 --places 2,3",
    "compute rvec -f 63 --places 2,3,5,7",
    "compute rvec -f 21 --subfield custom:1,4,16 --places 3,7",
    "verify --suite RZERO -p 13 --subfield full",
    "verify --suite INDF -p 61",
    "verify --suite STARKC -f 25 --subfield plus",
    *[f"verify --suite STARKC {field} --bits 768 --tol-exp -150"
      for field in ("-f 121 --subfield plus", "-f 125 --subfield plus",
                    "-f 169 --subfield plus", "-p 23 --subfield relative")],
    "verify --suite ACNF -p 5 --bits 768 --tol-exp -150",
    "export -f 25 --subfield plus | ingest",
    "export -p 7 -n 2 --subfield relative | ingest",
]

COMMANDS = [
    *[f"compute {obj} -f {f}{sub}" for f in CONDUCTORS for sub in (" --subfield plus", "")
      for obj in ("jideal", "annihilator", "theta", "lvalues", "rvec")],
    *[f"compute {obj} {_level(f)}{sub}" for f in RELATIVE
      for obj, sub in (("jideal", " --subfield relative"),
                       ("annihilator", " --subfield relative"), ("half_theta", ""))],
    *[f"verify --suite {check} -f {f}" for f in CONDUCTORS
      for check in ("STICK_IDENT", "RZERO", "STARK_RAT", "QNAT", "STARKC", "INDF")],
    *[f"verify --suite {check} {_level(f)}{sub}" for f in RELATIVE
      for check, sub in (("JREL", ""), ("BCH", ""), ("STARKC", " --subfield relative"),
                         ("RZERO", " --subfield relative"))],
    "verify --suite CLCONT -p 23 --subfield full --in {data}/cl_q_zeta23.json",
    "verify --suite ACNF",
    *PINNED,
]


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def entry(command, where):
    """{exit, sha256} of one command, run in-process with its report written
    to a file in `where`. "A | B" runs A --out F, then B --in F."""
    report = Path(where) / "report.json"
    report.unlink(missing_ok=True)
    argv = command.replace("{data}", str(DATA)).split()
    if "|" in argv:
        cut, document = argv.index("|"), str(Path(where) / "document.json")
        _main(argv[:cut] + ["--out", document])
        argv = argv[cut + 1:] + ["--in", document]
    code = _main(argv + ["--out", str(report)])
    exact = json.loads(report.read_text())["exact"] if report.exists() else None
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


GOLDEN = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}

# whole reports, not only `exact`: the sha256 of a report's bytes (stdout for
# compute, the --out file for verify, run in an empty directory) without its
# `meta` block, which holds the time stamp
REPORT_PINS = {
    "compute lvalues -f 121":
        "bbb18884cb3d69d8c6ca4329872a23bbce442a137fa911584be58657a065622c",
    "compute lvalues -f 121 --subfield plus":
        "865173746f61f5d5bdb51b8171a2457ac327b29697998d4574ccf0dadc0b4df8",
    "compute lvalues -f 125":
        "a2f0041f4fdc9c60c59db1252729adbee5240130fc056fdd44ee0cc48491dbef",
    "compute lvalues -f 125 --subfield plus":
        "39ad681a9c010631b51286e24b54cd00081514d571c4ca61b0b9f7d21e70ddf0",
    "compute lvalues -f 169":
        "e70a5f4a89a4a7c5462593e6f9e0dc4ec606e8f3edbb04222038d4a8655762b9",
    "compute lvalues -f 169 --subfield plus":
        "c722510acf708c0e1a41e0db88747f376cb71b40ef77803e07e8963e789aca94",
    "verify --suite STICK_IDENT,RZERO,STARK_RAT,BCH -p 7 --out report.json":
        "a74f37c565d522baf2d095345312f4e2886cc4db4aed799872b428e4afc45ab4",
    "verify --suite STICK_IDENT,RZERO,STARK_RAT,BCH -p 11 --out report.json":
        "b66b720133d693935abe8c52811ee2a8f10b2602152b1723efb2dec53a2859bc",
    "verify --suite STICK_IDENT,RZERO,STARK_RAT,BCH -p 19 --out report.json":
        "15304aaf8315c144946771417d486a80e562ef901229ba022d87d9e555f6947d",
}
META = re.compile(r'\n  "meta": \{\n    "generated_at": "[^"\n]*",\n    "tool": "fracgalois"\n  \},')


def report_sha256(command, where):
    """The sha256 of the report of `command` run in `where`, `meta` cut out."""
    argv, out = command.split(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = Path(argv[-1]).read_text() if "--out" in argv else out.getvalue()
    finally:
        os.chdir(cwd)
    body, cuts = META.subn("", text)
    if code != 0 or cuts != 1:
        pytest.fail(f"{command}: exit {code}, {cuts} meta blocks")
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.fixture(scope="module")
def where(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


# explicit failures, not asserts: the same test runs under python -O
@pytest.mark.parametrize("command", COMMANDS)
def test_exact(command, where):
    got = entry(command, where)
    if got != GOLDEN.get(command):
        pytest.fail(f"{command}: {got}; the corpus has {GOLDEN.get(command)}")
    # the report writer writes what json.dumps(indent=2, sort_keys=True) does
    report = Path(where) / "report.json"
    text = report.read_text() if report.exists() else None
    if text is not None and text != json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n":
        pytest.fail(f"{command}: the report is not json.dumps(doc, indent=2, sort_keys=True)")


@pytest.mark.parametrize("command", REPORT_PINS)
def test_whole_report(command, tmp_path):
    got = report_sha256(command, tmp_path)
    if got != REPORT_PINS[command]:
        pytest.fail(f"{command}: report sha256 {got}, pinned {REPORT_PINS[command]}")


def test_the_corpus_holds_each_command_once():
    if list(GOLDEN) != COMMANDS:
        pytest.fail("tests/golden/exact.json is not the corpus of COMMANDS: "
                    "run this module as a script")


def test_qnat_and_jrel_fail_exactly_where_the_unit_index_exceeds_one():
    # |U+/E+| = 2^(phi(f)/2 - 1): every conductor but 3, and every relative level
    index_above_one = [f for f in CONDUCTORS if euler_phi(f) // 2 - 1 > 0]
    expected = ({f"verify --suite QNAT -f {f}" for f in index_above_one}
                | {f"verify --suite JREL {_level(f)}" for f in RELATIVE if f in index_above_one})
    failed = {command for command, got in GOLDEN.items() if got["exit"] == 1}
    if failed != expected:
        pytest.fail(f"exit 1: {sorted(failed ^ expected)} differ from the rule")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as where:
        corpus = {command: entry(command, where) for command in COMMANDS}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("{\n" + ",\n".join(f"  {json.dumps(command)}: {json.dumps(got)}"
                                         for command, got in corpus.items()) + "\n}\n")
    print(f"{len(corpus)} commands written to {CORPUS}")
