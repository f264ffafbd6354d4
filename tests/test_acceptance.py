"""End-to-end acceptance gate: ten criteria, one test and one printed
PASS/FAIL line each.

A6 and A7 compare J across K = Q(zeta_p), its real subfield K+ and the
relative field K/k, k = Q(sqrt(-p)).  The on-the-nose identities of the
checks QNAT and JREL are false for p >= 5 (the checks report FAIL, and
tests/test_jideal.py pins that).  What holds, and what A6 and A7 assert on
closed forms, is a containment of index |U+/E+| = 2^(|G+| - 1), with
E+ = Z[G+] eps the Stark module inside the S-units U+ of K+:

    pi(J(K)) = (1/2) Z[G+]   contains  J(K+) = Z[G+] + Z N/2,
    J(K/k) = Z[H] theta~     contains  2 theta~ J(K+),
    ann_rel = e theta~ Z[H]  contains  e theta~ ann(U+/E+),

where the plus-field lattices are carried to H along the restriction
isomorphism H -> G+; the two sides agree after localising at any odd prime.
"""

import random
import time
from fractions import Fraction
from math import prod

import mpmath as mp

from fracgalois import intmat
from fracgalois.cyclo import PrecisionContext, factorize
from fracgalois.fields import (full_cyclotomic, place_set, plus_field,
                               relative_model, relative_place_set)
from fracgalois.gring import (GroupRingElement, IdealLattice, abelian_group,
                              characters, hom_by_residues, norm_element)
from fracgalois.jideal import (j_base_case, j_full_cyclotomic, j_via_theorem,
                               run_check, shipped_classgroup, torsion_order)
from fracgalois.lfun import (half_stickelberger, l_value_at_0,
                             partial_zeta_all, vanishing_order)
from fracgalois.units import (quotient_module, stark_module, stark_residuals,
                              sunit_group)
from gmodules import (_oracle_annihilator, a8_draws, conjugated, draw_ideals,
                      module_from_ideals)
from oracles import mat_mul

CTX = PrecisionContext(bits=192, tol_exp=-100)      # tol 2^-100 < 1e-30


def _line(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------

def test_a1_stickelberger_identity():
    start = time.monotonic()
    bad = []
    for f in range(3, 61):
        rep = run_check("STICK_IDENT", {"f": f}, CTX)
        if rep.status != "pass":
            bad.append((f, rep.status))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 1.0
    _line("A1", ok, f"theta = N/2 - classical for f in 3..60 "
                    f"({elapsed:.2f}s)")
    assert not bad, bad
    assert elapsed < 1.0, elapsed


def test_a2_exact_numeric_bridge():
    start = time.monotonic()
    worst = mp.mpf(0)
    with CTX.guard():
        bound = mp.mpf(10) ** -30
        for f in range(3, 41):
            model = full_cyclotomic(f)
            pset = place_set(model, tuple(p for p, _ in factorize(f)))
            z0 = partial_zeta_all(model, pset, 0)
            for chi in characters(model.group):
                num = mp.mpc(0)
                for e, q in z0.items():
                    num += chi.value(e).embed(1) * CTX.mpf(q)
                exact = l_value_at_0(model, pset, chi).embed(1)
                worst = max(worst, abs(num - exact))
    elapsed = time.monotonic() - start
    ok = worst < bound and elapsed < 30.0
    _line("A2", ok, f"max |char-sum - exact L_S(0,chi)| = "
                    f"{mp.nstr(worst, 3)} over f <= 40 ({elapsed:.1f}s)")
    assert worst < bound, mp.nstr(worst, 10)
    assert elapsed < 30.0, elapsed


def test_a3_vanishing_order_table():
    start = time.monotonic()
    pairs = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2),
             (11, 1), (11, 2), (13, 1)]          # f = p^n <= 125
    bad = []
    for p, n in pairs:
        f = p ** n
        kf = full_cyclotomic(f)
        ps = place_set(kf, (p,))
        c = kf.conjugation()
        for chi in characters(kf.group):
            r = vanishing_order(kf, ps, chi)
            even = chi.value(c).is_rational() \
                and chi.value(c).as_fraction() == 1
            if r != (1 if even else 0):
                bad.append(("full", f, chi.exps, r))
        kp = plus_field(f)
        psp = place_set(kp, (p,))
        for chi in characters(kp.group):
            if vanishing_order(kp, psp, chi) != 1:
                bad.append(("plus", f, chi.exps))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 5.0
    _line("A3", ok, f"r = [chi even] on full, r = 1 on plus, "
                    f"f up to 121 ({elapsed:.2f}s)")
    assert not bad, bad
    assert elapsed < 5.0, elapsed


def test_a4_stark_equations():
    start = time.monotonic()
    bound = mp.mpf(10) ** -30
    worst_all = mp.mpf(0)
    for p in [5, 7, 11, 13]:
        k = plus_field(p)
        _, worst = stark_residuals(k, place_set(k, (p,)), CTX)
        worst_all = max(worst_all, worst)
    elapsed = time.monotonic() - start
    ok = worst_all < bound and elapsed < 30.0
    _line("A4", ok, f"max_sigma |log|eps^sigma| + 2 zeta_S'(0,sigma)| = "
                    f"{mp.nstr(worst_all, 3)} for p in 5..13 ({elapsed:.1f}s)")
    assert worst_all < bound, mp.nstr(worst_all, 10)
    assert elapsed < 30.0, elapsed


def test_a5_j_for_real_quintic_field():
    start = time.monotonic()
    k = plus_field(5)
    ps = place_set(k, (5,))
    res = j_via_theorem(k, ps, CTX)
    g = k.group
    s = g.element_of_residue(2)
    expected = IdealLattice.from_generators(
        g, [GroupRingElement.one(g),
            (GroupRingElement.one(g) + GroupRingElement.basis(g, s))
            * Fraction(1, 2)])
    lattice_ok = res.ideal == expected \
        and res.ideal.to_jsonable() == {"den": 2, "cols": [[2, 0], [1, 1]],
                                        "labels": ["1", "2"]}

    # independent oracle: exhaustive annihilator of U/E (order 2) over a
    # full set of residues mod its exponent
    m = quotient_module(sunit_group(k, ps, CTX), stark_module(k, ps, CTX), CTX)
    oracle = _oracle_annihilator(m)
    oracle_ok = oracle == res.ideal.scale(torsion_order(k)) == m.annihilator()

    indf = run_check("INDF", {"p": 5, "seed": 0, "count": 5}, CTX)
    srat = run_check("STARK_RAT", {"p": 5}, CTX)
    elapsed = time.monotonic() - start
    ok = (lattice_ok and oracle_ok and indf.status == "pass"
          and srat.status == "pass" and elapsed < 10.0)
    _line("A5", ok, f"J = <1, (1+sigma)/2>, oracle match, "
                    f"INDF={indf.status}, STARK_RAT={srat.status} "
                    f"({elapsed:.2f}s)")
    assert lattice_ok
    assert oracle_ok
    assert indf.status == "pass", indf.witnesses
    assert srat.status == "pass", srat.witnesses
    assert elapsed < 10.0, elapsed


# ---------------------------------------------------------------------------
# A6, A7: J across the full, plus and relative fields of conductor p.  With
# h+ = 1 the cyclotomic S-units are all the S-units (Washington, Lemma 8.1
# and Thm 8.2), so every lattice has a closed form; each comparison is a
# containment whose index is the order of U+/E+, the plus field's S-units
# over its Stark module E+ = Z[G+] eps.

ODD_ELLS = (3, 5, 7, 11)


def _plus_unit_index(p):
    """|U+/E+| for Q(zeta_p)+ and S = {infinity, p}."""
    k = plus_field(p)
    ps = place_set(k, (p,))
    return quotient_module(sunit_group(k, ps, CTX), stark_module(k, ps, CTX),
                           CTX).order()


def _index(big, small):
    """[big : small] when small <= big, else None."""
    if not big.contains_lattice(small):
        return None
    return small.covolume() / big.covolume()


def _agree_at_odd_ells(a, b):
    return all(a.ell_equal(b, ell)[0] for ell in ODD_ELLS)


def test_a6_full_cyclotomic_structure():
    start = time.monotonic()
    reports = {("QNAT", 3): run_check("QNAT", {"p": 3}, CTX)}
    bad, indices = [], {}
    for p in [3, 5, 7]:
        reports[("RZERO", p)] = run_check(
            "RZERO", {"p": p, "subfield": "full"}, CTX)
        kp = plus_field(p)
        g = kp.group
        one = GroupRingElement.one(g)
        half = one * Fraction(1, 2)
        full = full_cyclotomic(p)
        projected = j_full_cyclotomic(full, place_set(full, (p,)), CTX).ideal.project(
            hom_by_residues(full.group, g))
        j_plus = j_via_theorem(kp, place_set(kp, (p,)), CTX).ideal
        # pi(theta) = 0 and U = mu Z[G](1 - zeta) give pi(J(K)) = (1/2) Z[G+];
        # U+/E+ = I/2I gives ann(U+/E+) = 2 Z[G+] + Z N, hence
        # J(K+) = Z[G+] + Z N/2
        if projected != IdealLattice.from_generators(g, [half]):
            bad.append((p, "pi(J(K)) is not (1/2) Z[G+]"))
        if j_plus != IdealLattice.from_generators(
                g, [one, norm_element(g) * Fraction(1, 2)]):
            bad.append((p, "J(K+) is not Z[G+] + Z N/2"))
        indices[p] = _plus_unit_index(p)
        if indices[p] != 2 ** ((p - 3) // 2):
            bad.append((p, "|U+/E+| is not 2^((p-3)/2)", indices[p]))
        got = _index(projected, j_plus)
        if got != indices[p]:
            bad.append((p, "[pi(J(K)) : J(K+)] is not |U+/E+|", got))
        if not _agree_at_odd_ells(projected, j_plus):
            bad.append((p, "pi(J(K)) and J(K+) differ at an odd prime"))
        if p > 3 and (not projected.contains_element(half)
                      or j_plus.contains_element(half)):
            bad.append((p, "(1/2)*1 is not in pi(J(K)) minus J(K+)"))
    elapsed = time.monotonic() - start
    failures = {k: r.witnesses for k, r in reports.items()
                if r.status != "pass"}
    ok = not bad and not failures and elapsed < 60.0
    detail = ", ".join(f"{c}(p={p})={r.status}"
                       for (c, p), r in sorted(reports.items()))
    _line("A6", ok, f"J(K+) in pi(J(K)) with index |U+/E+| = "
                    f"{indices} (equal at odd ell), {detail} "
                    f"({elapsed:.1f}s)")
    assert not bad, bad
    assert not failures, failures
    assert elapsed < 60.0, elapsed


def _witness_lattice(group, doc):
    """The IdealLattice a check reported through `to_jsonable()`."""
    assert doc["labels"] == [str(group.label(e)) for e in group.elements]
    return IdealLattice(group, doc["den"], tuple(map(tuple, doc["cols"])))


def test_a7_relative_case():
    start = time.monotonic()
    ctx25 = PrecisionContext(bits=192, tol_exp=-84)     # tol 2^-84 < 1e-25
    reports = {}
    bad, indices = [], {}
    for p in [7, 11]:
        reports[("BCH", p)] = run_check("BCH", {"p": p}, CTX)
        reports[("STARKC", p)] = run_check(
            "STARKC", {"p": p, "subfield": "relative"}, ctx25)
        m = relative_model(p)
        _, worst = stark_residuals(m, relative_place_set(m), ctx25)
        assert worst < mp.mpf(10) ** -25, (p, mp.nstr(worst, 8))

        # -1 is not in H, so U/mu is Z[H]-free on 1 - zeta: ann_rel is
        # e theta~ Z[H] and J(K/k) is theta~ Z[H]; J(K+) and ann(U+/E+)
        # transported to H are Z[H] + Z N/2 and 2 Z[H] + Z N
        h = m.group
        tt = half_stickelberger(m)
        e = torsion_order(m)
        norm = norm_element(h)
        closed = {"j_rel": [tt],
                  "two_tt_j_plus": [tt * 2, tt * norm],
                  "ann_rel": [tt * e],
                  "e_tt_ann_plus": [tt * 2 * e, tt * e * norm]}
        wit = run_check("JREL", {"p": p}, CTX).witnesses
        assert set(closed) <= set(wit), (p, wit)
        lats = {name: _witness_lattice(h, wit[name]) for name in closed}
        for name, gens in closed.items():
            if lats[name] != IdealLattice.from_generators(h, gens):
                bad.append((p, f"{name} is not its closed form"))
        indices[p] = _plus_unit_index(p)
        for big, small in [("j_rel", "two_tt_j_plus"),
                           ("ann_rel", "e_tt_ann_plus")]:
            got = _index(lats[big], lats[small])
            if got != indices[p]:
                bad.append((p, f"[{big} : {small}] is not |U+/E+|", got))
            if not _agree_at_odd_ells(lats[big], lats[small]):
                bad.append((p, f"{big} and {small} differ at an odd prime"))
    elapsed = time.monotonic() - start
    failures = {k: r.witnesses for k, r in reports.items()
                if r.status != "pass"}
    ok = not bad and not failures and elapsed < 60.0
    detail = ", ".join(f"{c}(p={p})={r.status}"
                       for (c, p), r in sorted(reports.items()))
    _line("A7", ok, f"J(K/k) and ann_rel contain the transported plus-field "
                    f"lattices with index |U+/E+| = {indices} (equal at odd "
                    f"ell), {detail} ({elapsed:.1f}s)")
    assert not bad, bad
    assert not failures, failures
    assert elapsed < 60.0, elapsed


# ---------------------------------------------------------------------------
# A8: seeded random modules vs exhaustive annihilator search

def test_a8_annihilator_engine_vs_exhaustive_search():
    start = time.monotonic()
    checked = 0
    for g, lats in a8_draws(random.Random(82001)):
        mod = module_from_ideals(g, lats)
        assert mod.order() == prod(x.covolume() for x in lats)

        ann = mod.annihilator()
        oracle = _oracle_annihilator(mod)
        assert ann == oracle, (checked, g)

        fitt = mod.fitting_ideal()
        assert ann.contains_lattice(fitt), (checked, g)
        if len(lats) == 1:
            assert fitt == ann, (checked, g)
            assert ann == lats[0], (checked, g)
        else:
            assert ann == lats[0].intersect(lats[1]), (checked, g)
            assert fitt == lats[0].multiply(lats[1]), (checked, g)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 100 and elapsed < 60.0
    _line("A8", ok, f"100 seeded modules over Z[C_n] (n <= 6, |M| <= 200): "
                    f"engine == exhaustive search, Fitt <= ann, "
                    f"Fitt = ann on cyclic, Fitt = I I' on two summands "
                    f"({elapsed:.1f}s)")
    assert checked == 100
    assert elapsed < 60.0, elapsed


def test_annihilator_vs_exhaustive_search_beyond_cyclic_groups():
    """A8 covers cyclic groups with one action matrix; here G = C_2 x C_2 and
    C_2 x C_4 (one matrix per invariant-factor generator), and a presentation
    in a scrambled basis whose matrices agree only modulo the relations."""
    rng = random.Random(5005)
    for factors, m0 in (((2, 2), 4), ((2, 4), 2)):
        g = abelian_group(factors)
        for count in (1, 2):
            lats = draw_ideals(rng, g, m0, count)
            mod = module_from_ideals(g, lats)
            assert len(mod.action) == 2
            expected = lats[0] if count == 1 else lats[0].intersect(lats[1])
            assert mod.annihilator() == _oracle_annihilator(mod) == expected
    conj = conjugated(rng, mod)
    a, b = ([list(r) for r in m] for m in conj.action)
    assert mat_mul(a, b) != mat_mul(b, a)
    assert mat_mul(a, a) != intmat.identity_matrix(conj.k)
    assert conj.structure() == mod.structure()
    assert conj.annihilator() == _oracle_annihilator(conj) == expected


def _seeded_ideal(rng, g, m0):
    """(m0, alpha) in Z[C_n] with alpha = (x - 1) beta mod m0, as the
    benchmark draws its seeded modules: a proper ideal, of index >= m0."""
    n = g.order
    beta = [rng.randrange(m0) for _ in range(n)]
    alpha = [(beta[(i - 1) % n] - beta[i]) % m0 for i in range(n)]
    return IdealLattice.from_generators(
        g, [GroupRingElement.one(g) * m0, GroupRingElement(g, alpha)])


def test_fitting_ideal_on_shapes_beyond_the_full_minor_enumeration():
    """C_9 and C_8 on one ideal, C_5 and C_4 on two: their full induced
    presentations have 48620, 12870, 184756 and 12870 minors. The Fitting
    ideal is the ideal itself, or the product of the two."""
    start = time.monotonic()
    rng = random.Random(90210)
    for n, r in ((9, 1), (5, 2), (8, 1), (4, 2)):
        g = abelian_group((n,))
        lats = [_seeded_ideal(rng, g, rng.choice((2, 3, 5, 7)))
                for _ in range(r)]
        want = lats[0] if r == 1 else lats[0].multiply(lats[1])
        assert module_from_ideals(g, lats).fitting_ideal() == want, (n, r)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed


def test_a9_class_group_containment():
    start = time.monotonic()
    bad = []
    for p in [3, 5, 7, 11, 13]:
        rep = run_check("CLCONT", {"p": p, "ell": 3}, CTX)
        if rep.status != "pass":
            bad.append((p, rep.status, rep.witnesses))
    clmod, provenance = shipped_classgroup()
    rep23 = run_check("CLCONT", {"p": 23, "ell": 3, "subfield": "full",
                                 "classgroup": clmod}, CTX)
    elapsed = time.monotonic() - start
    ok = not bad and rep23.status == "pass" and elapsed < 10.0
    _line("A9", ok, f"trivial cases p <= 13 and the shipped order-3 class "
                    f"group of conductor 23 at ell = 3 ({elapsed:.1f}s)")
    assert not bad, bad
    assert rep23.status == "pass", rep23.witnesses
    assert provenance
    assert elapsed < 10.0, elapsed


def test_a10_analytic_class_number_formula():
    start = time.monotonic()
    ctx20 = PrecisionContext(bits=192, tol_exp=-67)     # tol 2^-67 < 1e-20
    bound = mp.mpf(10) ** -20
    worst = mp.mpf(0)
    for which in ["Q", "Qsqrt5"]:
        res = j_base_case(which, ctx20)
        worst = max(worst, res.numeric["residual"])
        rep = run_check("ACNF", {"field": which}, ctx20)
        assert rep.status == "pass", rep.witnesses
    elapsed = time.monotonic() - start
    ok = worst < bound and elapsed < 5.0
    _line("A10", ok, f"|zeta*_K(0)/R_K + h/w| = {mp.nstr(worst, 3)} for "
                     f"K = Q, Q(sqrt5) ({elapsed:.2f}s)")
    assert worst < bound, mp.nstr(worst, 10)
    assert elapsed < 5.0, elapsed
