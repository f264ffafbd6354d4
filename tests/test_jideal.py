"""The fractional ideal J at s = 0: construction routes, twist independence,
the verification checks, and class-group data interchange."""

import itertools
import json
import time
from fractions import Fraction

import mpmath as mp
import pytest

from fracgalois.cyclo import PrecisionContext
from fracgalois.fields import (full_cyclotomic, make_field, place_set,
                               plus_field, relative_model, relative_place_set)
from fracgalois.gring import (GroupHom, GroupRingElement, IdealLattice,
                              characters)
from fracgalois.jideal import (CHECK_IDS, _default_pset, _mu_ell_annihilator,
                               _unit_quotient, i_f_and_regulator,
                               j_base_case, j_full_cyclotomic, j_via_theorem,
                               load_classgroup, run_check, shipped_classgroup,
                               torsion_order)
from fracgalois.lfun import (half_stickelberger, l_deriv_at_0,
                             partial_zeta_all, stickelberger)
from fracgalois.units import (lambda_unit, quotient_module, stark_module,
                              sunit_group)

CTX = PrecisionContext(bits=192, tol_exp=-100)


# ---------------------------------------------------------------------------
# constructions

def test_torsion_orders():
    assert torsion_order(full_cyclotomic(5)) == 10
    assert torsion_order(plus_field(5)) == 2
    assert torsion_order(relative_model(7)) == 14


def test_j_plus5_frozen_lattice():
    k = plus_field(5)
    res = j_via_theorem(k, place_set(k, (5,)), CTX)
    g = k.group
    s = g.element_of_residue(2)
    expected = IdealLattice.from_generators(
        g, [GroupRingElement.one(g),
            (GroupRingElement.one(g) + GroupRingElement.basis(g, s))
            * Fraction(1, 2)])
    assert res.ideal == expected
    assert res.ideal.to_jsonable() == {
        "den": 2, "cols": [[2, 0], [1, 1]], "labels": ["1", "2"]}
    assert res.details["quotient_order"] == 2


def test_j_annihilator_against_exhaustive_box():
    # scale J back to the integral annihilator and re-derive it by brute force
    k = plus_field(5)
    res = j_via_theorem(k, place_set(k, (5,)), CTX)
    ann = res.ideal.scale(torsion_order(k))
    g = k.group
    u = sunit_group(k, place_set(k, (5,)), CTX)
    e = stark_module(k, place_set(k, (5,)), CTX)
    m = quotient_module(u, e, CTX)
    hits = []
    for coeffs in itertools.product(range(-2, 3), repeat=g.order):
        x = GroupRingElement(g, [Fraction(c) for c in coeffs])
        if x.is_zero():
            continue
        mat = None
        for elem in g.elements:
            c = x.coeff(elem)
            if not c:
                continue
            a = m.action_of(elem)
            if mat is None:
                mat = [[int(c) * a[i][j] for j in range(m.k)] for i in range(m.k)]
            else:
                for i in range(m.k):
                    for j in range(m.k):
                        mat[i][j] += int(c) * a[i][j]
        kills = all(
            _in_relation_lattice(m, [mat[i][j] for i in range(m.k)])
            for j in range(m.k))
        if kills:
            hits.append(x)
    assert IdealLattice.from_generators(g, hits, close_under_group=False) == ann


def _in_relation_lattice(mod, col):
    from fracgalois import intmat
    rel = [list(c) for c in mod.relations]
    return intmat.span_contains(rel, col)


def test_j_full5_contains_theta_and_has_frozen_denominator():
    res = j_full_cyclotomic(5, 1, CTX)
    model = res.model
    theta = stickelberger(model, place_set(model, (5,)))
    assert res.ideal.contains_element(theta)
    assert res.ideal.den == 20
    assert res.details["quotient_order"] == 1


def test_theorem_route_rejects_full_field_naming_character():
    # odd characters have r = 0 on the full field, so the hypothesis fails
    k = full_cyclotomic(5)
    with pytest.raises(ValueError, match=r"r = 0"):
        j_via_theorem(k, place_set(k, (5,)), CTX)


def test_twist_independence_direct():
    k = plus_field(7)
    ps = place_set(k, (7,))
    base = j_via_theorem(k, ps, CTX)
    g = k.group
    tw = GroupRingElement.basis(g, g.element_of_residue(2)) * 3 \
        - GroupRingElement.one(g)
    _, _, j_tw = i_f_and_regulator(k, ps, tw, CTX)
    assert j_tw == base.ideal


def test_base_case_residuals():
    for which in ["Q", "Qsqrt5"]:
        res = j_base_case(which, CTX)
        assert res.numeric["residual"] < CTX.tol
    with pytest.raises(ValueError):
        j_base_case("Qsqrt7", CTX)


# ---------------------------------------------------------------------------
# roots-of-unity annihilator

def test_mu_ell_annihilator_by_exhaustion():
    k = full_cyclotomic(5)
    lat = _mu_ell_annihilator(k, 5)
    assert lat.covolume() == 5
    g = k.group
    hits = []
    for coeffs in itertools.product(range(-2, 3), repeat=g.order):
        total = sum(c * g.label(e) for c, e in zip(coeffs, g.elements))
        if total % 5 == 0 and any(coeffs):
            hits.append(GroupRingElement(g, [Fraction(c) for c in coeffs]))
    assert IdealLattice.from_generators(g, hits, close_under_group=False) == lat


def test_mu_ell_annihilator_trivial_when_no_ell_torsion():
    k = plus_field(7)
    assert _mu_ell_annihilator(k, 3) == IdealLattice.unit_ideal(k.group)


# ---------------------------------------------------------------------------
# the check registry

def test_check_ids_are_sorted_and_complete():
    assert list(CHECK_IDS) == sorted(CHECK_IDS)
    assert set(CHECK_IDS) == {"ACNF", "BCH", "CG_FIT", "CLCONT", "INDF",
                              "JREL", "QNAT", "RZERO", "STARKC", "STARK_RAT",
                              "STICK_IDENT"}


def test_unknown_check_raises():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("NOPE", {}, CTX)


def test_run_check_reports_errors_as_status():
    rep = run_check("JREL", {"p": 67}, CTX)
    assert rep.status == "error"
    assert "certificate" in rep.witnesses["message"]
    assert not rep.passed


def test_passing_checks():
    cases = [
        ("STICK_IDENT", {"f": 12}),
        ("RZERO", {"p": 5, "subfield": "full"}),
        ("RZERO", {"p": 7, "subfield": "plus"}),
        ("RZERO", {"p": 7, "subfield": "relative"}),
        ("INDF", {"p": 5, "seed": 1, "count": 3}),
        ("STARK_RAT", {"p": 5}),
        # non-real characters: chi must pair with the logs unconjugated
        ("STARK_RAT", {"p": 7}),
        ("STARK_RAT", {"p": 11}),
        ("STARK_RAT", {"p": 13}),
        ("STARK_RAT", {"p": 7, "n": 2}),
        ("QNAT", {"p": 3}),
        ("BCH", {"p": 7}),
        ("STARKC", {"p": 7, "subfield": "plus"}),
        ("STARKC", {"p": 7, "subfield": "relative"}),
        ("CLCONT", {"p": 7, "ell": 3}),
        ("CLCONT", {"p": 5, "ell": 5, "subfield": "full"}),
        ("CG_FIT", {"p": 7, "ell": 3}),
        ("ACNF", {"field": "Q"}),
        ("ACNF", {"field": "Qsqrt5"}),
    ]
    for cid, params in cases:
        rep = run_check(cid, params, CTX)
        assert rep.status == "pass", (cid, params, rep.witnesses)
        assert rep.check == cid
        assert rep.to_jsonable()["status"] == "pass"


def test_fitting_ideal_of_the_unit_quotient_is_its_annihilator():
    # U+/E+ is cyclic over Z[G] on these plus fields, so Fitt = ann; the
    # full induced presentation has C(2k + 1, k) minors, 6435 at f = 13
    elapsed = 0.0
    for f in (13, 25, 27, 49):
        model = plus_field(f)
        _, m = _unit_quotient(model, _default_pset(model), CTX)
        start = time.monotonic()
        fitt = m.fitting_ideal()
        elapsed += time.monotonic() - start
        assert fitt == m.annihilator(), f
    assert elapsed < 5.0, elapsed


def test_qnat_projection_strictly_larger_at_5():
    rep = run_check("QNAT", {"p": 5}, CTX)
    assert rep.status == "fail"
    assert rep.witnesses["witness_element"] == {"1": "1/2"}
    assert rep.witnesses["witness_side"] == "in projection, not in J_plus"


def test_jrel_both_equations_fail_two_adically():
    rep = run_check("JREL", {"p": 7}, CTX)
    assert rep.status == "fail"
    assert rep.witnesses["eq1"] is False
    assert rep.witnesses["eq2"] is False


def test_jrel_discrepancy_is_exactly_at_two():
    # the two sides of the annihilator comparison agree away from 2
    rel = relative_model(7)
    rel_ps = relative_place_set(rel)
    ann_rel = quotient_module(sunit_group(rel, rel_ps, CTX),
                              stark_module(rel, rel_ps, CTX), CTX).annihilator()

    kp = plus_field(7)
    ps = place_set(kp, (7,))
    ann_plus = quotient_module(sunit_group(kp, ps, CTX),
                               stark_module(kp, ps, CTX), CTX).annihilator()
    h = rel.group
    back = GroupHom(kp.group, h,
                    {e: next(x for x in h.elements
                             if kp.group.element_of_residue(h.label(x)) == e)
                     for e in kp.group.elements})
    rhs = ann_plus.project(back).scale(half_stickelberger(rel)
                                       * torsion_order(rel))
    assert ann_rel.covolume() == 196
    assert rhs.covolume() == 784
    # rhs is a sublattice, of index |U+/E+| = 4
    assert ann_rel.contains_lattice(rhs)
    plus_index = quotient_module(sunit_group(kp, ps, CTX),
                                 stark_module(kp, ps, CTX), CTX).order()
    assert rhs.covolume() / ann_rel.covolume() == plus_index == 4
    ok, _ = ann_rel.ell_contains(rhs, 3)
    assert ok
    for ell in [3, 5, 7, 11]:
        ok, _ = ann_rel.ell_equal(rhs, ell)
        assert ok, ell
    ok, wit = ann_rel.ell_equal(rhs, 2)
    assert not ok and wit["direction"] == "self into other"


def test_regulator_fold_of_the_full_field_is_minus_one_half():
    # with f0: x -> 1 - zeta and |.|^2 at the complex places, every even
    # character has L'_S(0, chi) / R(chi) = -1/2, where R(chi) =
    # (1/2) sum_sigma chi(sigma) log|sigma(1 - zeta)|^2, chi unconjugated as
    # in STARK_RAT; the plus field's eigenvalue is e = 2, so the full and
    # plus routes to J scale by the same 1/2
    for p, n in [(5, 1), (7, 1), (3, 2)]:
        f = p ** n
        model = full_cyclotomic(f)
        pset = place_set(model, (p,))
        g = model.group
        c = model.conjugation()
        zder = partial_zeta_all(model, pset, 1, CTX)
        lam = lambda_unit(f)
        evens = [chi for chi in characters(g) if chi.exp_at(c) == 0]
        assert len(evens) == g.order // 2
        with CTX.guard():
            for chi in evens:
                reg = mp.mpc(0)
                for s in g.elements:
                    val = mp.expjpi(mp.mpf(2 * chi.exp_at(s)) / g.exponent)
                    reg += val * 2 * lam.log_abs(g.label(s))
                ratio = l_deriv_at_0(model, pset, chi, CTX,
                                     _zcache=zder) / (reg / 2)
                assert abs(ratio + mp.mpf(1) / 2) < mp.mpf(10) ** -30, \
                    (f, chi.exps, mp.nstr(ratio, 20))


def test_clcont_flags_wrong_galois_action():
    # same abstract group Z/3 on Q(zeta_23), but with the trivial action:
    # the containment fails with a non-integral coordinate at 3
    k = full_cyclotomic(23)
    from fracgalois.gring import FiniteGModule
    wrong = FiniteGModule(k.group, 1, [(3,)], [((1,),)])
    rep = run_check("CLCONT", {"p": 23, "ell": 3, "subfield": "full",
                               "classgroup": wrong}, CTX)
    assert rep.status == "fail"
    assert rep.witnesses["witness"] is not None


def test_clcont_with_shipped_class_group():
    mod, provenance = shipped_classgroup()
    assert mod.order() == 3
    assert mod.group == full_cyclotomic(23).group
    assert provenance
    rep = run_check("CLCONT", {"p": 23, "ell": 3, "subfield": "full",
                               "classgroup": mod}, CTX)
    assert rep.status == "pass"


def test_clcont_rejects_mismatched_field():
    mod, _ = shipped_classgroup()
    rep = run_check("CLCONT", {"p": 7, "ell": 3, "subfield": "full",
                               "classgroup": mod}, CTX)
    assert rep.status == "error"
    assert "different field" in rep.witnesses["message"]


def test_clcont_rejects_even_ell():
    rep = run_check("CLCONT", {"p": 7, "ell": 2}, CTX)
    assert rep.status == "error"


# ---------------------------------------------------------------------------
# class-group file handling

def _write(tmp_path, doc):
    path = tmp_path / "cl.json"
    path.write_text(json.dumps(doc))
    return path


def _valid_doc():
    return {"kind": "classgroup", "format": 1,
            "field": {"f": 23, "kernel": [1]},
            "invariant_factors": [3], "generators": [5],
            "action": [[[-1]]], "provenance": "test"}


def test_load_classgroup_valid(tmp_path):
    mod, prov = load_classgroup(_write(tmp_path, _valid_doc()))
    assert mod.order() == 3 and prov == "test"


def test_load_classgroup_rejects_bad_kind_and_format(tmp_path):
    doc = _valid_doc()
    doc["kind"] = "sunits"
    with pytest.raises(ValueError, match="classgroup"):
        load_classgroup(_write(tmp_path, doc))
    doc = _valid_doc()
    doc["format"] = 2
    with pytest.raises(ValueError, match="format"):
        load_classgroup(_write(tmp_path, doc))


def test_load_classgroup_rejects_bad_invariants_and_shape(tmp_path):
    doc = _valid_doc()
    doc["invariant_factors"] = [0]
    with pytest.raises(ValueError, match="positive"):
        load_classgroup(_write(tmp_path, doc))
    doc = _valid_doc()
    doc["action"] = [[[1, 0]]]
    with pytest.raises(ValueError, match="k x k"):
        load_classgroup(_write(tmp_path, doc))
    doc = _valid_doc()
    doc["action"] = [[[-1]], [[1]]]
    with pytest.raises(ValueError, match="matrices"):
        load_classgroup(_write(tmp_path, doc))


def test_load_classgroup_rejects_generator_mismatch(tmp_path):
    doc = _valid_doc()
    doc["generators"] = [7]
    with pytest.raises(ValueError, match="do not match"):
        load_classgroup(_write(tmp_path, doc))


def test_load_classgroup_rejects_wrong_action_order(tmp_path):
    doc = _valid_doc()
    doc["invariant_factors"] = [7]
    doc["action"] = [[[3]]]          # 3 has order 6 mod 7; 6 does not divide 22
    with pytest.raises(ValueError, match="order"):
        load_classgroup(_write(tmp_path, doc))


def test_load_classgroup_rejects_action_that_breaks_relations(tmp_path):
    doc = _valid_doc()
    doc["invariant_factors"] = [2, 4]
    doc["action"] = [[[0, 1], [1, 0]]]   # the swap takes (2, 0) to (0, 2)
    with pytest.raises(ValueError, match="action does not preserve relations"):
        load_classgroup(_write(tmp_path, doc))


def test_load_classgroup_rejects_noncommuting_actions(tmp_path):
    doc = {"kind": "classgroup", "format": 1,
           "field": {"f": 16, "kernel": [1]},
           "invariant_factors": [5, 5],
           "action": [[[0, 1], [1, 0]], [[1, 0], [0, 2]]],
           "provenance": "test"}
    with pytest.raises(ValueError, match="commute"):
        load_classgroup(_write(tmp_path, doc))
