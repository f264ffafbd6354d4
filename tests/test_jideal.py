"""The fractional ideal J at s = 0: construction routes, twist independence,
the verification checks, and class-group data interchange."""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from fracgalois.cyclo import PrecisionContext, factorize
from fracgalois.fields import (full_cyclotomic, log_norms, make_field, place_set,
                               plus_field, relative_model, relative_place_set,
                               select_field)
from fracgalois.gring import (GroupHom, GroupRingElement, IdealLattice,
                              characters)
from fracgalois import jideal
from fracgalois.jideal import (CHECK_IDS, _field,
                               _mu_ell_annihilator, bch_projection,
                               _unit_quotient, i_f_and_regulator,
                               j_base_case, j_full_cyclotomic, j_via_theorem,
                               load_classgroup, run_check, rzero_idempotent,
                               shipped_classgroup, torsion_order)
from fracgalois.lfun import (half_stickelberger, l_deriv_at_0, stickelberger,
                             vanishing_order)
from fracgalois.units import (lambda_unit, quotient_module, stark_module,
                              sunit_group)
from gmodules import action_of
from oracles import (assemble, bch_projection_dense, char_value_numeric,
                     gmodule_span_equal, group_ring_inverse, mu_ell_annihilator_module,
                     z_span)

CTX = PrecisionContext(bits=192, tol_exp=-100)


# ---------------------------------------------------------------------------
# constructions

def test_char_value_numeric_reads_the_root_table_exactly():
    for model in (full_cyclotomic(25), relative_model(11)):
        g = model.group
        for bits in (192, 768):
            ctx = PrecisionContext(bits=bits, tol_exp=-(bits - 20))
            for chi in characters(g):
                for elem in g.elements:
                    with ctx.guard():
                        expect = mp.expjpi(mp.mpf(2 * chi.exp_at(elem)) / g.exponent)
                    assert char_value_numeric(chi, elem, ctx) == expect


@pytest.mark.parametrize("bits", [192, 768])
def test_regulator_equals_the_per_call_character_values(bits):
    # i_f_and_regulator reads chi(sigma) from one root table per call; each
    # A_chi is the mpf of the per-call reads, bit for bit
    ctx = PrecisionContext(bits=bits, tol_exp=-(bits - 20))
    model, pset = _field(5, 2, "plus")
    g = model.group
    twist = (GroupRingElement.one(g) * 3
             + GroupRingElement.basis(g, g.element_of_residue(2)))  # 3 + chi(s) != 0
    _, reg, _ = i_f_and_regulator(model, pset, twist, ctx)
    logs = log_norms(stark_module(model, pset, ctx).free[0], pset, ctx)
    for idx, chi in enumerate(characters(g)):
        with ctx.guard():
            num = mp.mpc(0)
            for sigma, lw in logs.items():
                num += char_value_numeric(chi, sigma, ctx) * -lw
            lstar = l_deriv_at_0(model, pset, chi, ctx)
            tv = mp.mpc(0)
            for sigma in g.elements:
                cf = twist.coeff(sigma)
                if cf:
                    tv += ctx.mpf(cf) * char_value_numeric(chi, sigma, ctx)
            expect = ctx.final(tv * num / lstar)
        assert reg[idx] == expect, (bits, idx)


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
            a = action_of(m, elem)
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
    assert z_span(g, hits) == ann


def _in_relation_lattice(mod, col):
    from fracgalois import intmat
    rel = [list(c) for c in mod.relations]
    return intmat.span_contains(rel, col)


def test_j_full5_contains_theta_and_has_frozen_denominator():
    res = j_full_cyclotomic(*_field(5, 1, "full"), CTX)
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
    assert z_span(g, hits) == lat


def test_mu_ell_annihilator_trivial_when_no_ell_torsion():
    k = plus_field(7)
    assert _mu_ell_annihilator(k, 3) == IdealLattice.unit_ideal(k.group)


@pytest.mark.parametrize("f", [7, 9, 11, 13, 21, 23, 25, 27, 49, 63, 121, 125, 169])
def test_mu_ell_annihilator_equals_the_cyclic_module_route(f):
    # the closed form (ell^v, sigma - a) against the annihilator of the
    # G-module Z/ell^v, for every odd prime ell | 2f
    model, _ = select_field(f, "full")
    for ell, _ in factorize(f):
        assert _mu_ell_annihilator(model, ell) == mu_ell_annihilator_module(model, ell), ell


# CLCONT on the full field multiplies J by ann(mu_ell): its reports pinned
# byte for byte (sha256 of the report as compact sorted JSON)
@pytest.mark.parametrize("p, n, digest", [
    (3, 2, "668b07997e7effa84aa799ee6c582a009b13d533875950887656a11e4c2efd99"),
    (5, 2, "df7ffb783516729eac1152c543551c1a262abdf74f51087cfdfde1037b05b5ee"),
    (7, 1, "83ac2cc500c31c63f3ad6ab4ea8672bb78041e7a56062b5b0d512c6628ffa5be"),
    (7, 2, "44d90d58add5ccf06309963e56d166c29e540b15978a344291cb466fd41fde6d")])
def test_clcont_on_the_full_field_golden(p, n, digest):
    report = run_check("CLCONT", {"p": p, "n": n, "ell": p, "subfield": "full"}, CTX)
    text = json.dumps(report.to_jsonable(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_unsupported_subfields_are_errors_naming_check_and_selector():
    # the CLI coerces subfields; run_check reports what it cannot run
    for cid, params in (("RZERO", {"p": 7, "subfield": "custom:1,6"}),
                        ("STARKC", {"p": 7, "subfield": "full"}),
                        ("CLCONT", {"p": 7, "ell": 3, "subfield": "relative"})):
        rep = run_check(cid, params, CTX)
        assert rep.status == "error"
        assert rep.witnesses["message"].startswith(f"{cid} runs on the ")
        assert repr(params["subfield"]) in rep.witnesses["message"]


def test_stark_rat_builds_no_lattice(monkeypatch):
    # chi(R) / L'_S(0, chi) = e reads numbers only: no U/E annihilator, no u^-1 L
    def refuse(*args, **kwargs):
        raise AssertionError("STARK_RAT built a lattice")

    monkeypatch.setattr(jideal.FiniteGModule, "annihilator", refuse)
    monkeypatch.setattr(jideal.IdealLattice, "divide", refuse)
    for p in (7, 13):
        rep = run_check("STARK_RAT", {"p": p}, CTX)
        assert rep.status == "pass", (p, rep.witnesses)


def test_indf_builds_the_unit_quotient_once(monkeypatch):
    calls = []
    build = jideal.quotient_module

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(jideal, "quotient_module", counted)
    assert run_check("INDF", {"p": 61, "seed": 0}, CTX).status == "pass"
    assert len(calls) == 1


def test_indf_divides_by_the_seeded_draws_and_skips_the_singular_ones(monkeypatch):
    """INDF tries each seeded draw in turn and checks the first INDF_TWISTS that
    the oracle's solve can invert; the others are refused by `divide`."""
    tried = []
    divide = jideal.IdealLattice.divide

    def recorded(self, u):
        tried.append(u)
        return divide(self, u)

    monkeypatch.setattr(jideal.IdealLattice, "divide", recorded)
    assert run_check("INDF", {"p": 13, "seed": 3}, CTX).status == "pass"
    g = _field(13, 1, "plus")[0].group
    rng, draws, invertible = random.Random(3), [], 0
    while invertible < 5:
        draws.append(GroupRingElement(g, [Fraction(rng.randint(-2, 2)) for _ in range(g.order)]))
        try:
            group_ring_inverse(draws[-1])
            invertible += 1
        except ZeroDivisionError:
            pass
    assert tried == draws and len(draws) > 5


def test_indf_catches_a_broken_division(monkeypatch):
    # with u^-1 L = L the check compares u J with J and must fail at once
    monkeypatch.setattr(jideal.IdealLattice, "divide", lambda self, u: self)
    rep = run_check("INDF", {"p": 7, "seed": 0}, CTX)
    assert rep.status == "fail"
    wit = rep.witnesses
    assert wit["twist_index"] == 0
    assert wit["expected"] == j_via_theorem(*_field(7, 1, "plus"), CTX).ideal.to_jsonable()
    assert wit["got"] != wit["expected"]


def test_run_check_reports_errors_as_status():
    rep = run_check("JREL", {"p": 67}, CTX)
    assert rep.status == "error"
    assert "certificate" in rep.witnesses["message"]
    assert not rep.passed


def test_rzero_idempotent_matches_the_character_sum():
    """prod_{v in S} (1 - e_{D_v}) (+ e_G when |S| = 1) is the sum of the
    e_chi with r_S(chi) = 0, assembled from characters, on full, plus and
    relative fields and on S with several primes or none."""
    cases = [(full_cyclotomic(25), (5,)), (plus_field(61), (61,)),
             (full_cyclotomic(12), (2, 3)), (full_cyclotomic(21), (3, 7)),
             (full_cyclotomic(15), (2, 3, 5)), (plus_field(13), ())]
    cases = [(m, place_set(m, primes)) for m, primes in cases]
    cases += [(m, relative_place_set(m)) for m in (relative_model(7, 2),
                                                   relative_model(11))]
    for model, pset in cases:
        g = model.group
        e0 = assemble(g, {chi: Fraction(int(vanishing_order(model, pset, chi) == 0))
                          for chi in characters(g)})
        assert rzero_idempotent(g, pset) == e0


@pytest.mark.parametrize("p, n, sub", [(5, 1, "full"), (7, 1, "plus"), (7, 1, "relative"),
                                       (13, 1, "full"), (19, 1, "full"), (3, 3, "full")])
def test_rzero_spans_equal_the_fraction_route(p, n, sub):
    """e0 J from integer products with J's HNF columns spans what the
    products e0 b over J's basis elements span."""
    model, pset = _field(p, n, sub)
    lat = jideal.j_ideal(model, pset, CTX).ideal
    theta = stickelberger(model, pset)
    e0 = rzero_idempotent(model.group, pset)
    assert gmodule_span_equal([e0 * b for b in lat.basis_elements()], [theta], model.group)
    assert run_check("RZERO", {"p": p, "n": n, "subfield": sub}, CTX).status == "pass"


@pytest.mark.parametrize("p", [7, 11, 19])
def test_rzero_with_two_theta_for_theta_fails(monkeypatch, p):
    """J stays the real one, and RZERO compares e0 J with Z[G] 2 theta, a
    proper sublattice of it. (On the plus and relative fields every L_S(0,
    chi) vanishes, theta = 0 and the mutation shows nothing.)"""
    model, pset = _field(p, 1, "full")
    res, theta = jideal.j_ideal(model, pset, CTX), stickelberger(model, pset)
    monkeypatch.setattr(jideal, "j_ideal", lambda model, pset, ctx: res)
    monkeypatch.setattr(jideal, "stickelberger", lambda model, pset: theta * 2)
    rep = run_check("RZERO", {"p": p, "subfield": "full"}, CTX)
    assert rep.status == "fail"
    assert rep.witnesses["theta_in_j"] is True
    assert rep.witnesses["e0_j_equals_ztheta"] is False
    assert rep.witnesses["theta"] == jideal._gre_jsonable(theta * 2)


def test_passing_checks():
    cases = [
        ("STICK_IDENT", {"f": 12}),
        ("RZERO", {"p": 5, "subfield": "full"}),
        ("RZERO", {"p": 7, "subfield": "plus"}),
        ("RZERO", {"p": 7, "subfield": "relative"}),
        ("INDF", {"p": 5, "seed": 1}),
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
        ("CLCONT", {"p": 7, "ell": 3, "subfield": "plus"}),
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


@pytest.mark.parametrize("p, n", [(7, 1), (11, 1), (19, 1), (23, 1), (31, 1),
                                  (43, 1), (47, 1), (59, 1), (3, 2), (7, 2),
                                  (11, 2)])
def test_relative_starkc_passes_on_every_relative_field(p, n):
    # the Stark residuals read the derivatives that the fold of the full
    # field's partial zetas gives
    rep = run_check("STARKC", {"p": p, "n": n, "subfield": "relative"}, CTX)
    assert rep.status == "pass", rep.witnesses


def test_fitting_ideal_of_the_unit_quotient_is_its_annihilator():
    # U+/E+ is cyclic over Z[G] on these plus fields, so Fitt = ann, and the
    # minors route, which never reads ann, gives the same ideal; the full
    # induced presentation has C(2k + 1, k) minors, 6435 at f = 13
    elapsed = 0.0
    for p, n in ((13, 1), (5, 2), (3, 3), (7, 2)):
        model, pset = _field(p, n, "plus")
        _, m = _unit_quotient(model, pset, CTX)
        fitt = m.fitting_ideal()
        assert fitt == m.annihilator(), model.f
        start = time.monotonic()
        assert m._fitting_minors() == fitt, model.f
        elapsed += time.monotonic() - start
    assert elapsed < 5.0, elapsed


@pytest.mark.parametrize("p", [17, 31, 43])
def test_fitting_ideal_of_a_cyclic_unit_quotient_off_its_first_vector(p, monkeypatch):
    # U+/E+ is cyclic, but e_1 = xi_2 does not generate it: the walk takes
    # two orbits, so Fitt comes from the minors and must still equal ann
    minors, calls = jideal.FiniteGModule._fitting_minors, []
    monkeypatch.setattr(jideal.FiniteGModule, "_fitting_minors",
                        lambda self: calls.append(self) or minors(self))
    model, pset = _field(p, 1, "plus")
    _, m = _unit_quotient(model, pset, CTX)
    assert len(m._generator_orbits) == 2
    assert m.fitting_ideal() == m.annihilator()
    assert calls == [m]


def test_fitting_ideal_of_the_unit_quotient_at_121_is_its_annihilator_at_once():
    # one orbit generates U+/E+ at f = 121, so Fitt is ann without minors;
    # the minors route takes about half a second there
    model, pset = _field(11, 2, "plus")
    _, m = _unit_quotient(model, pset, CTX)
    start = time.monotonic()
    fitt = m.fitting_ideal()
    elapsed = time.monotonic() - start
    assert fitt == m.annihilator()
    assert elapsed < 0.1, elapsed


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
        lam = lambda_unit(f)
        evens = [chi for chi in characters(g) if chi.exp_at(c) == 0]
        assert len(evens) == g.order // 2
        with CTX.guard():
            for chi in evens:
                reg = mp.mpc(0)
                for s in g.elements:
                    val = mp.expjpi(mp.mpf(2 * chi.exp_at(s)) / g.exponent)
                    reg += val * 2 * lam.log_abs(g.label(s))
                ratio = l_deriv_at_0(model, pset, chi, CTX) / (reg / 2)
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


def test_a_check_without_subfield_runs_where_the_cli_does():
    # the library and `verify` share one default subfield per check
    mod, _ = shipped_classgroup()
    rep = run_check("CLCONT", {"p": 23, "ell": 3, "classgroup": mod}, CTX)
    assert rep.status == "pass" and rep.context["subfield"] == "full"
    assert run_check("RZERO", {"p": 7}, CTX).context["subfield"] == "full"
    assert run_check("STARKC", {"p": 7}, CTX).context["subfield"] == "plus"


def test_clcont_rejects_mismatched_field():
    mod, _ = shipped_classgroup()
    rep = run_check("CLCONT", {"p": 7, "ell": 3, "subfield": "full",
                               "classgroup": mod}, CTX)
    assert rep.status == "error"
    assert "different field" in rep.witnesses["message"]


def test_clcont_rejects_even_ell():
    rep = run_check("CLCONT", {"p": 7, "ell": 2}, CTX)
    assert rep.status == "error"


@pytest.mark.parametrize("check", ["CLCONT", "CG_FIT"])
@pytest.mark.parametrize("ell", [9, 15])
def test_a_composite_ell_is_refused_by_name(check, ell):
    rep = run_check(check, {"p": 7, "ell": ell}, CTX)
    assert rep.status == "error"
    assert rep.witnesses["message"] == f"{check} needs an odd prime ell, not {ell}"


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


@pytest.mark.parametrize("p, n", [(7, 1), (11, 1), (3, 2), (7, 2)])
def test_bch_projection_matches_the_dense_products_over_g(p, n):
    # pi_H(beta0) pi_H(b) over H against pi_H(beta0 b) convolved over G
    rel = relative_model(p, n)
    full = j_full_cyclotomic(*_field(p, n, "full"), CTX)
    ours = bch_projection(rel, full)
    assert ours == bch_projection_dense(rel, full)
    assert ours == j_via_theorem(rel, relative_place_set(rel), CTX).ideal
