"""Self-tests of the benchmark: the tracer sees every call, and the failure
rule catches each kind of wrong result.

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import sys
import time
from fractions import Fraction
from math import comb

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import judge  # noqa: E402
import ops as workloads  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)

import fracgalois  # noqa: E402
from fracgalois import cli, units  # noqa: E402
from fracgalois.fields import place_set, plus_field  # noqa: E402
from fracgalois.gring import (FiniteGModule, IdealLattice,  # noqa: E402
                              abelian_group)

with open(os.path.join(HERE, "data", "golden.json")) as fh:
    GOLDEN = json.load(fh)["ops"]

CHEAP_COMPUTE = "compute jideal -p 7 --subfield relative"
CHEAP_SUITE = "verify --suite STICK_IDENT,RZERO,STARK_RAT,BCH -p 7"


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def run(op_id, tmp_path):
    op = next(op for op in workloads.golden_ops() if op["id"] == op_id)
    _, outcome = worker.run_op(op, worker.prepare(op), str(tmp_path))
    return op, outcome


# -- tracing ----------------------------------------------------------------

def test_det_qg_calls_equal_the_minor_count(tracer):
    op = workloads.seeded_op(__import__("random").Random(5), 4, 1)
    g, _, k, relations, action = worker.prepare(op)
    mod = FiniteGModule(g, k, relations, [action])
    mod.fitting_ideal()
    ncols = len(mod.relations) + k * len(g.invariant_factors)
    counters = tracer.counters()
    assert counters["gring.det_qg.calls"] == comb(ncols, k)
    assert counters["gring.FiniteGModule.fitting_ideal.calls"] == 1


def test_unit_coordinates_calls_follow_the_module_size(tracer):
    f = 13
    model = plus_field(f)
    pset = place_set(model, (f,))
    ctx = cli.RunConfig(command="compute").context()
    tracer.enabled = False
    u = units.sunit_group(model, pset, ctx)
    e = units.stark_module(model, pset, ctx)
    tracer.enabled = True
    # through the CLI, which reaches quotient_module via jideal's binding
    assert cli.main(["compute", "jideal", "-f", str(f),
                     "--subfield", "plus"]) == 0
    gens = len(model.group.generator_elements())
    # E's torsion, E's free generators, then the image of U's torsion and
    # of each free generator under each group generator; U's torsion-order
    # relation needs no coordinates
    expected = 1 + len(e.free) + gens * (1 + len(u.free))
    counters = tracer.counters()
    assert counters["units.unit_coordinates.calls"] == expected
    assert counters["units.quotient_module.calls"] == 1
    # units binds log_norms from fields: those calls are seen too
    assert counters["fields.log_norms.calls"] > 0


def test_every_binding_is_patched_and_restored():
    orig_log_norms = fracgalois.fields.log_norms
    orig_qm = fracgalois.units.quotient_module
    t = spans.Tracer()
    t.install()
    try:
        assert fracgalois.units.log_norms is fracgalois.fields.log_norms
        assert fracgalois.units.log_norms is not orig_log_norms
        for mod in (fracgalois.cli, fracgalois.jideal, fracgalois):
            assert mod.quotient_module is fracgalois.units.quotient_module
        assert fracgalois.units.quotient_module is not orig_qm
    finally:
        t.uninstall()
    assert fracgalois.units.log_norms is orig_log_norms
    assert fracgalois.cli.quotient_module is orig_qm
    assert isinstance(IdealLattice.__dict__["from_generators"], classmethod)


def test_combine_sums_counts_and_keeps_maxima():
    a = {"intmat.max_cells": 5, "gring.det_qg.calls": 4,
         "gring.det_qg.nonzero": 1, "cyclo.bernoulli_number.hits": 3,
         "cyclo.bernoulli_number.misses": 1}
    b = dict(a, **{"intmat.max_cells": 9})
    out = spans.combine([a, b])
    assert out["intmat.max_cells"] == 9
    assert out["gring.det_qg.calls"] == 8
    assert out["gring.det_qg.nonzero_frac"] == 0.25
    assert out["cyclo.bernoulli_number.hit_frac"] == 0.75
    idle = spans.combine([dict(a, **{"gring.det_qg.calls": 0,
                                     "gring.det_qg.nonzero": 0})])
    assert idle["gring.det_qg.nonzero_frac"] == 0.0
    assert "gring.det_qg.nonzero" not in idle


# -- the failure rule ---------------------------------------------------------

def test_unchanged_ops_pass(tmp_path):
    for op_id in (CHEAP_COMPUTE, CHEAP_SUITE):
        op, outcome = run(op_id, tmp_path)
        assert judge.verdict(op, outcome, GOLDEN) == ("ok", "")


def test_changed_exact_result_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(IdealLattice, "scale", lambda self, alpha: self)
    op, outcome = run(CHEAP_COMPUTE, tmp_path)
    status, reason = judge.verdict(op, outcome, GOLDEN)
    assert status == "failed" and "golden digest" in reason


def test_raised_exception_fails(tmp_path, monkeypatch):
    def boom(self):
        raise RuntimeError("injected")
    monkeypatch.setattr(FiniteGModule, "annihilator", boom)
    op, outcome = run(CHEAP_COMPUTE, tmp_path)
    status, reason = judge.verdict(op, outcome, GOLDEN)
    assert status == "failed" and "RuntimeError: injected" in reason


def test_exit_2_fails(tmp_path, monkeypatch):
    def refuse(self):
        raise ValueError("injected refusal")
    monkeypatch.setattr(FiniteGModule, "annihilator", refuse)
    op, outcome = run(CHEAP_COMPUTE, tmp_path)
    assert outcome["rc"] == 2
    assert judge.verdict(op, outcome, GOLDEN)[0] == "failed"


def test_pass_to_fail_fails(tmp_path, monkeypatch):
    real = fracgalois.jideal.stickelberger_classical
    monkeypatch.setattr(fracgalois.jideal, "stickelberger_classical",
                        lambda f: real(f) * 2)
    op, outcome = run(CHEAP_SUITE, tmp_path)
    assert outcome["statuses"][0] == "fail"
    status, reason = judge.verdict(op, outcome, GOLDEN)
    assert status == "failed" and "now fails" in reason


def test_fail_to_pass_is_not_a_failure(tmp_path):
    op, outcome = run(CHEAP_SUITE, tmp_path)
    gold = GOLDEN[op["id"]]
    i = gold["statuses"].index("fail")  # STARK_RAT, the known false FAIL
    fixed = copy.deepcopy(outcome)
    fixed["statuses"][i] = "pass"
    assert judge.verdict(op, fixed, GOLDEN) == ("ok", "")


def test_lost_margin_fails():
    op_id = "verify --suite ACNF -p 5 --bits 768 --tol-exp -150"
    op = {"id": op_id, "kind": "cli"}
    gold = GOLDEN[op_id]
    # ACNF at Q has residual 0 (no margin); Q(sqrt 5) has a finite one
    assert any(m is not None and m > 0 for m in gold["margins"])
    outcome = {"rc": 0, "digest": gold["digest"],
               "statuses": list(gold["statuses"]),
               "margins": [m and m / 2 for m in gold["margins"]]}
    status, reason = judge.verdict(op, outcome, GOLDEN)
    assert status == "failed" and "margin" in reason
    outcome["margins"] = list(gold["margins"])
    assert judge.verdict(op, outcome, GOLDEN) == ("ok", "")


def test_known_defect_is_reported_not_failed():
    op = workloads.defect_ops("jideal", 0)[0]
    outcome = {"rc": 2, "error": "error: unit coordinate 28.9 is not "
                                 "integral; the word is outside the lattice"}
    assert judge.verdict(op, outcome, GOLDEN)[0] == "defect"
    outcome["error"] = "error: something else"
    assert judge.verdict(op, outcome, GOLDEN)[0] == "failed"
    assert judge.verdict(op, {"rc": 0, "digest": "x"}, GOLDEN)[0] == "ok"


def test_seeded_module_invariants_catch_a_wrong_annihilator(tmp_path,
                                                            monkeypatch):
    op = workloads.seeded_op(__import__("random").Random(1), 3, 2)
    _, outcome = worker.run_op(op, worker.prepare(op), str(tmp_path))
    assert judge.verdict(op, outcome, GOLDEN) == ("ok", "")
    monkeypatch.setattr(FiniteGModule, "annihilator",
                        lambda self: IdealLattice.unit_ideal(self.group))
    _, outcome = worker.run_op(op, worker.prepare(op), str(tmp_path))
    status, reason = judge.verdict(op, outcome, GOLDEN)
    assert status == "failed" and "ann = ideal" in reason


def test_a_worker_that_dies_counts_as_a_failed_op(monkeypatch):
    def timed_out(spec):
        raise RuntimeError("worker timed out after 120 s")
    monkeypatch.setattr(bench, "spawn_worker", timed_out)
    tally = {"attempted": 0, "failed": 0, "failures": []}
    rnd = bench.run_round([workloads.cli_op("compute", "jideal", "-p", 7)],
                          GOLDEN, tally)
    assert (tally["attempted"], tally["failed"]) == (1, 1)
    assert "timed out" in tally["failures"][0]
    assert rnd["results"][0]["verdict"] == "failed"


# -- the speed sampler ---------------------------------------------------------

def test_sampler_time_is_not_counted_as_the_programs():
    sampler = speed.Sampler()
    t0 = sampler.clock()
    sampler.start()
    try:
        t_end = time.perf_counter() + 3.5 * speed.PERIOD_S
        while time.perf_counter() < t_end:
            pass
    finally:
        sampler.stop()
    elapsed = sampler.clock() - t0
    assert len(sampler.samples) >= speed.READY_SAMPLES + 2
    # the loop ran 3.5 periods of perf_counter, the chunks included
    assert 0 < elapsed < 3.5 * speed.PERIOD_S
    assert sampler.ref_s() > 0


# -- inputs -------------------------------------------------------------------

def test_ops_come_from_the_seed_alone():
    for w in workloads.WORKLOADS:
        assert workloads.round_ops(w, 7) == workloads.round_ops(w, 7)
    assert workloads.round_ops("modules", 7) != workloads.round_ops("modules", 8)


def test_every_fixed_op_has_a_golden_record():
    for seed in range(32):
        for w in ("jideal", "analytic"):
            for op in workloads.round_ops(w, seed):
                assert op["id"] in GOLDEN, op["id"]


def test_seeded_ideals_are_proper():
    g = abelian_group((5,))
    for seed in range(20):
        op = workloads.seeded_op(__import__("random").Random(seed), 5, 1)
        _, lats, *_ = worker.prepare(op)
        assert lats[0].covolume() >= Fraction(op["ideals"][0]["m0"])
        assert lats[0].group == g
