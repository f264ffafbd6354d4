"""L-values at s = 0: exact Bernoulli route, partial-zeta route, derivative
bridges, and the Stickelberger elements they assemble into."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath as mp
import pytest

from fracgalois import fields, lfun
from fracgalois.cli import main

from fracgalois.cyclo import PrecisionContext, factorize
from fracgalois.fields import (full_cyclotomic, make_field, place_set,
                               plus_field, relative_model, relative_place_set)
from fracgalois.gring import GroupRingElement, characters, norm_element
from fracgalois.lfun import (character_conductor, half_stickelberger,
                             l_deriv_at_0, l_derivs_at_0, l_value_at_0,
                             l_values_at_0, partial_zeta_all, stickelberger,
                             stickelberger_classical, vanishing_order)
from fracgalois.units import KNOWN_HPLUS_ONE
from oracles import (_b1_sum, assemble, b1_fraction_loop, bernoulli_b1,
                     class_derivs_stirling,
                     l_deriv_primitive_with_b1,
                     l_value_at_0_per_character, partial_zeta_derivs_per_residue,
                     primitive_table, relative_fold_per_residue,
                     relative_l_deriv, relative_l_value_at_0,
                     relative_partial_zeta_deriv_by_characters,
                     stickelberger_via_characters)

CTX = PrecisionContext(bits=192, tol_exp=-100)


def _valid_moduli(limit):
    return [f for f in range(3, limit + 1)]


# ---------------------------------------------------------------------------
# Stickelberger elements

def test_theta_frozen_f3():
    k = full_cyclotomic(3)
    theta = stickelberger(k, place_set(k, (3,)))
    g = k.group
    assert theta.coeff(g.element_of_residue(1)) == Fraction(1, 6)
    assert theta.coeff(g.element_of_residue(2)) == Fraction(-1, 6)


def test_theta_frozen_f5():
    k = full_cyclotomic(5)
    theta = stickelberger(k, place_set(k, (5,)))
    g = k.group
    expect = {1: Fraction(3, 10), 3: Fraction(1, 10),
              2: Fraction(-1, 10), 4: Fraction(-3, 10)}
    for lbl, v in expect.items():
        assert theta.coeff(g.element_of_residue(lbl)) == v


def test_both_stickelberger_routes_agree():
    for f in _valid_moduli(30):
        k = full_cyclotomic(f)
        ps = place_set(k, tuple(p for p, _ in factorize(f)))
        assert stickelberger(k, ps) == stickelberger_via_characters(k, ps)


def test_half_n_minus_classical_identity_samples():
    for f in [3, 4, 5, 7, 8, 9, 12, 15, 16, 21]:
        k = full_cyclotomic(f)
        ps = place_set(k, tuple(p for p, _ in factorize(f)))
        theta = stickelberger(k, ps)
        half_n = norm_element(k.group) * Fraction(1, 2)
        assert theta == half_n - stickelberger_classical(f)


def test_half_stickelberger_frozen_values():
    m7 = relative_model(7)
    tt = half_stickelberger(m7)
    g = m7.group
    got = {g.label(e): tt.coeff(e) * 14 for e in g.elements}
    assert got == {1: 5, 2: -1, 4: 3}
    m11 = relative_model(11)
    tt11 = half_stickelberger(m11)
    g11 = m11.group
    got11 = {g11.label(e): tt11.coeff(e) * 22 for e in g11.elements}
    assert got11 == {1: 9, 4: 5, 3: 3, 9: 1, 5: -7}


# ---------------------------------------------------------------------------
# exact L-values

def test_b1_and_l_values_quadratic_characters():
    k3 = full_cyclotomic(3)
    chi3 = next(c for c in characters(k3.group) if not c.is_trivial())
    assert bernoulli_b1(k3, chi3) == Fraction(-1, 3)
    ps3 = place_set(k3, (3,))
    v3 = l_value_at_0(k3, ps3, chi3)
    assert v3.is_rational() and v3.as_fraction() == Fraction(1, 3)

    k4 = full_cyclotomic(4)
    chi4 = next(c for c in characters(k4.group) if not c.is_trivial())
    assert bernoulli_b1(k4, chi4) == Fraction(-1, 2)
    v4 = l_value_at_0(k4, place_set(k4, (2,)), chi4)
    assert v4.is_rational() and v4.as_fraction() == Fraction(1, 2)


@pytest.mark.parametrize("f", [5, 8, 12, 25, 121, 125, 169])
def test_b1_sum_matches_the_fraction_loop(f):
    model = full_cyclotomic(f)
    conductors = set()
    for chi in characters(model.group):
        f0, table, e = primitive_table(model, chi)
        conductors.add(f0)
        ours = _b1_sum(f0, table, e)
        oracle = b1_fraction_loop(f0, table, e)
        assert (ours.m, ours.c) == (oracle.m, oracle.c), (f0, table)
    assert 1 in conductors and f in conductors


@pytest.mark.parametrize("f", [5, 8, 12, 13, 25, 121])
def test_even_characters_skip_a_vanishing_b1(f):
    # B_{1,chi} = 0 for every even nontrivial chi
    model = full_cyclotomic(f)
    minus_one = model.group.element_of_residue(f - 1)
    evens = 0
    for chi in characters(model.group):
        if chi.is_trivial():
            continue
        if chi.exp_at(minus_one) == 0:
            evens += 1
            assert _b1_sum(*primitive_table(model, chi)).is_zero(), chi
    assert evens == len(characters(model.group)) // 2 - 1


# full and plus fields on their ramified primes, then place sets that drop a
# ramified prime, add an unramified one, or hold infinity alone, then every
# conductor of the builtin provider with the unramified 2 added
LVALUE_CASES = ([(f, sub, None) for f in (3, 25, 40, 63, 121, 125, 169)
                 for sub in ("full", "plus")]
                + [(15, "full", (3,)), (15, "full", (5, 7)), (63, "full", (2, 3)),
                   (13, "full", ())]
                + [(f, sub, (factorize(f)[0][0], 2)) for f in sorted(KNOWN_HPLUS_ONE)
                   for sub in ("full", "plus")])


@pytest.mark.parametrize("f, subfield, primes", LVALUE_CASES)
def test_l_values_batch_matches_the_per_character_oracle(f, subfield, primes):
    model = full_cyclotomic(f) if subfield == "full" else plus_field(f)
    pset = place_set(model, tuple(p for p, _ in factorize(f)) if primes is None
                     else primes)
    chars = characters(model.group)
    batch = l_values_at_0(model, pset, chars)
    assert len(batch) == len(chars)
    for chi, v in zip(chars, batch):
        oracle = l_value_at_0_per_character(model, pset, chi)
        assert (v.m, v.c) == (oracle.m, oracle.c), chi
    triv = next(c for c in chars if c.is_trivial())
    one = l_value_at_0(model, pset, triv)
    oracle = l_value_at_0_per_character(model, pset, triv)
    assert (one.m, one.c) == (oracle.m, oracle.c)


# every built-in plus and full field on its own S, then two non-cyclic groups:
# (Z/63)^x = C6 x C6 with S = {inf, 2, 3} and (Z/21)^x / <4> = C2 x C2
ORBIT_FIELDS = ([(f, sub, None) for f in sorted(KNOWN_HPLUS_ONE) for sub in ("plus", "full")]
                + [(63, "full", (2, 3)), (21, "custom:1,4,16", None)])


# explicit failures, not asserts: CI runs this test under python -O too
@pytest.mark.parametrize("f, subfield, places", ORBIT_FIELDS)
def test_l_values_by_galois_orbit_equal_the_per_character_oracle(f, subfield, places):
    model, pset = fields.select_field(f, subfield, places)
    if places is not None and len(model.group.invariant_factors) < 2:
        pytest.fail(f"{f} {subfield}: the group is cyclic")
    chars = characters(model.group)
    for chi, v in zip(chars, l_values_at_0(model, pset, chars), strict=True):
        oracle = l_value_at_0_per_character(model, pset, chi)
        if (v.m, v.c) != (oracle.m, oracle.c):
            pytest.fail(f"{f} {subfield} {chi}: {v!r}, the oracle gives {oracle.c}")


def test_l_values_take_one_conductor_per_galois_orbit(monkeypatch):
    """(Z/121)^x is cyclic of order 110: its characters fall into one orbit
    per divisor of 110, and only the orbit's first character is summed."""
    seen = []
    real = lfun.character_conductor
    monkeypatch.setattr(lfun, "character_conductor",
                        lambda model, chi: seen.append(chi) or real(model, chi))
    model = full_cyclotomic(121)
    chars = characters(model.group)
    l_values_at_0(model, place_set(model, (11,)), chars)
    assert len(seen) == 8 and len(chars) == 110
    assert [chi.order() for chi in seen] == [1, 110, 55, 22, 11, 10, 5, 2]


def test_l_value_euler_factor_vanishes_at_split_prime():
    # 7 = 1 mod 3: the extra Euler factor (1 - chi(7)) = 0 kills L_S
    k3 = full_cyclotomic(3)
    chi3 = next(c for c in characters(k3.group) if not c.is_trivial())
    ps = place_set(k3, (3, 7))
    v = l_value_at_0(k3, ps, chi3)
    assert v.is_zero()
    assert vanishing_order(k3, ps, chi3) == 1


def test_character_conductor_imprimitive():
    k9 = full_cyclotomic(9)
    for chi in characters(k9.group):
        f0 = character_conductor(k9, chi)
        if chi.is_trivial():
            assert f0 == 1
        else:
            assert f0 in (3, 9)
    assert sorted(character_conductor(k9, c) for c in characters(k9.group)) \
        == [1, 3, 9, 9, 9, 9]


def test_character_without_a_conductor_is_an_error_under_python_O():
    # an ArithmeticError, not an assert: python -O keeps the check
    code = """if True:
        from fracgalois.fields import full_cyclotomic
        from fracgalois.lfun import character_conductor
        class NeverTrivial:
            def is_trivial_on(self, elems):
                return False
            def __repr__(self):
                return "NeverTrivial"
        try:
            character_conductor(full_cyclotomic(5), NeverTrivial())
        except ArithmeticError as exc:
            print(exc)
        """
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.splitlines() == [
        "NeverTrivial is not trivial on the units 1 mod 5"], proc.stderr


def test_trivial_character_value_is_riemann_with_euler_factors():
    # L_S(0, triv) = zeta(0) * prod (1 - 1) = 0 once any finite prime is in S
    k5 = full_cyclotomic(5)
    triv = next(c for c in characters(k5.group) if c.is_trivial())
    v = l_value_at_0(k5, place_set(k5, (5,)), triv)
    assert v.is_zero()


# ---------------------------------------------------------------------------
# orders of vanishing

def test_vanishing_orders_full_field():
    for p in [5, 7, 13]:
        k = full_cyclotomic(p)
        ps = place_set(k, (p,))
        c = k.conjugation()
        for chi in characters(k.group):
            r = vanishing_order(k, ps, chi)
            even = chi.value(c).is_rational() and chi.value(c).as_fraction() == 1
            assert r == (1 if even else 0)


def test_vanishing_orders_plus_field_all_one():
    for p in [5, 7, 11]:
        k = plus_field(p)
        ps = place_set(k, (p,))
        for chi in characters(k.group):
            assert vanishing_order(k, ps, chi) == 1


def test_vanishing_orders_relative_all_one():
    m = relative_model(7)
    ps = relative_place_set(m)
    for chi in characters(m.group):
        assert vanishing_order(m, ps, chi) == 1


def test_vanishing_order_grows_with_split_primes():
    k3 = full_cyclotomic(3)
    triv = next(c for c in characters(k3.group) if c.is_trivial())
    assert vanishing_order(k3, place_set(k3, (3,)), triv) == 1
    assert vanishing_order(k3, place_set(k3, (3, 7)), triv) == 2


# ---------------------------------------------------------------------------
# numeric bridges

def test_exact_l_matches_character_sum_of_partial_zetas():
    for f in [5, 7, 12]:
        k = full_cyclotomic(f)
        ps = place_set(k, tuple(p for p, _ in factorize(f)))
        z0 = partial_zeta_all(k, ps, 0)
        with CTX.guard():
            for chi in characters(k.group):
                num = mp.mpc(0)
                for e, q in z0.items():
                    num += chi.value(e).embed(1) * CTX.mpf(q)
                exact = l_value_at_0(k, ps, chi).embed(1)
                assert abs(num - exact) < mp.mpf(2) ** -150


def test_l_derivative_of_even_quadratic_is_log_fundamental_unit():
    k = plus_field(5)
    chi = next(c for c in characters(k.group) if not c.is_trivial())
    with CTX.guard():
        val = l_deriv_at_0(k, place_set(k), chi, CTX)
        expect = mp.log((1 + mp.sqrt(5)) / 2)
        assert abs(val - expect) < mp.mpf(2) ** -150


def test_l_deriv_with_extra_split_prime_product_rule():
    # d/ds [ L(s, chi)(1 - chi(q) q^{-s}) ] at 0
    # = L'(0,chi)(1 - chi(q)) + L(0,chi) chi(q) log q
    k = full_cyclotomic(5)
    q = 11   # 11 = 1 mod 5: chi(11) = chi(1) = 1
    ps = place_set(k, (5, q))
    ps5 = place_set(k, (5,))
    with CTX.guard():
        for chi in characters(k.group):
            lhs = l_deriv_at_0(k, ps, chi, CTX)
            lp = l_deriv_at_0(k, ps5, chi, CTX)
            l0 = l_value_at_0(k, ps5, chi).embed(1)
            chi_q = chi.value(k.group.element_of_residue(q % 5)).embed(1)
            rhs = lp * (1 - chi_q) + l0 * chi_q * mp.log(q)
            assert abs(lhs - rhs) < mp.mpf(2) ** -140


def test_relative_values_all_vanish_at_0():
    # every character of the relative instance has r = 1, so every exact
    # L-value is 0 and the relative theta at s = 0 is the zero element
    for p in [7, 11]:
        m = relative_model(p)
        for chi in characters(m.group):
            assert relative_l_value_at_0(m, chi).is_zero()
        theta = stickelberger(m, relative_place_set(m))
        assert theta.is_zero()


def test_relative_theta_rejects_wrong_place_set():
    m = relative_model(7)
    k5 = full_cyclotomic(5)
    with pytest.raises(ValueError, match="infinity"):
        stickelberger(m, place_set(k5, (5,)))


@pytest.mark.parametrize("k", [0, 1])
def test_relative_partial_zetas_reject_a_wrong_place_set(k):
    m = relative_model(7)
    for pset in (place_set(full_cyclotomic(5), (5,)), place_set(full_cyclotomic(7), (3, 7))):
        with pytest.raises(ValueError, match="infinity"):
            partial_zeta_all(m, pset, k, CTX)


@pytest.mark.parametrize("bits", [192, 768])
@pytest.mark.parametrize("f", [5, 13, 25, 121])
def test_l_derivs_at_infinity_are_the_primitive_derivatives(f, bits):
    # S = {infinity}: every nontrivial chi of the plus field has p | f0, so
    # L_S'(0, chi) is the primitive L'(0, chi) of the Hurwitz route
    ctx = PrecisionContext(bits=bits, tol_exp=-(bits - 20))
    model = plus_field(f)
    chars = [chi for chi in characters(model.group) if not chi.is_trivial()]
    ours = l_derivs_at_0(model, place_set(model), chars, ctx)
    with ctx.guard():
        for chi, v in zip(chars, ours):
            ref = l_deriv_primitive_with_b1(model, chi, ctx)
            assert abs(v - ref) < mp.mpf(2) ** -(bits - 8) * max(1, abs(ref)), chi


@pytest.mark.parametrize("kind, f, primes", [("plus", 25, (5,)), ("full", 13, (13,)),
                                             ("plus", 13, (3, 13))])
def test_l_derivs_at_0_are_the_per_character_calls(kind, f, primes):
    model = plus_field(f) if kind == "plus" else full_cyclotomic(f)
    pset = place_set(model, primes)
    chars = characters(model.group)
    assert l_derivs_at_0(model, pset, chars, CTX) == [
        l_deriv_at_0(model, pset, chi, CTX) for chi in chars]
    m = relative_model(11)
    rel_chars = characters(m.group)
    assert l_derivs_at_0(m, relative_place_set(m), rel_chars, CTX) == [
        l_deriv_at_0(m, relative_place_set(m), chi, CTX) for chi in rel_chars]


def test_relative_derivative_routes_agree():
    m = relative_model(7)
    zder = partial_zeta_all(m, relative_place_set(m), 1, CTX)
    with CTX.guard():
        for chi in characters(m.group):
            assembled = mp.mpc(0)
            for e in m.group.elements:
                assembled += chi.value(e).embed(1) * zder[e]
            factored = relative_l_deriv(m, chi, CTX)
            assert abs(assembled - factored) < mp.mpf(2) ** -140


@pytest.mark.parametrize("bits", [192, 768])
def test_relative_partial_zeta_deriv_matches_the_expjpi_inversion(bits):
    # the fold against the per-(sigma, chi) expjpi(-2k/e) character sum
    ctx = PrecisionContext(bits=bits, tol_exp=-(bits - 20))
    m = relative_model(23)
    h = m.group
    e = h.exponent
    lvals = {chi: relative_l_deriv(m, chi, ctx) for chi in characters(h)}
    ours = partial_zeta_all(m, relative_place_set(m), 1, ctx)
    with ctx.guard():
        for sigma in h.elements:
            total = mp.mpc(0)
            for chi, lv in lvals.items():
                total += mp.expjpi(mp.mpf(-2 * chi.exp_at(sigma)) / e) * lv
            ref = mp.re(total / h.order)
            assert abs(ours[sigma] - ref) < mp.mpf(2) ** -(bits - 8), h.label(sigma)


# the relative fields of prime conductor p = 3 mod 4 up to 59 (the builtin
# provider's range) and (3, 2), (7, 2), (11, 2) at level two
RELATIVE_RANGE = [(7, 1), (11, 1), (19, 1), (23, 1), (31, 1), (43, 1), (47, 1),
                  (59, 1), (3, 2), (7, 2), (11, 2)]


@pytest.mark.parametrize("p, n", RELATIVE_RANGE)
def test_relative_theta_matches_the_character_route(p, n):
    # the fold of the full field's partial zetas against the inverse
    # character transform of the factored L_{k,S}(0, chi)
    m = relative_model(p, n)
    vals = {chi: relative_l_value_at_0(m, chi.conj()) for chi in characters(m.group)}
    assert stickelberger(m, relative_place_set(m)) == assemble(m.group, vals)


@pytest.mark.parametrize("p, n", RELATIVE_RANGE)
def test_relative_partial_zeta_deriv_matches_the_character_inversion(p, n):
    m = relative_model(p, n)
    ours = partial_zeta_all(m, relative_place_set(m), 1, CTX)
    ref = relative_partial_zeta_deriv_by_characters(m, CTX)
    with CTX.guard():
        for sigma in m.group.elements:
            assert abs(ours[sigma] - ref[sigma]) < mp.mpf(2) ** -(CTX.bits - 8)


# (field, finite primes of S): plus fields, where each class holds a and
# f - a; plus f = 13 with 3 in S (F = 39, four residues per class); full
# fields, where each class is a single residue
CLASS_CASES = [("plus", 13, (13,)), ("plus", 25, (5,)), ("plus", 61, (61,)),
               ("plus", 121, (11,)), ("plus", 169, (13,)), ("plus", 13, (3, 13)),
               ("full", 25, (5,)), ("full", 49, ())]


@pytest.mark.parametrize("bits", [192, 768])
@pytest.mark.parametrize("kind, f, primes", CLASS_CASES)
def test_partial_zeta_derivs_match_the_per_residue_loop(kind, f, primes, bits):
    # one logarithm of the class's shift products against one log Gamma
    # (one logarithm) per residue
    ctx = PrecisionContext(bits=bits, tol_exp=-(bits - 20))
    model = plus_field(f) if kind == "plus" else full_cyclotomic(f)
    pset = place_set(model, primes)
    ours = partial_zeta_all(model, pset, 1, ctx)
    ref = partial_zeta_derivs_per_residue(model, pset, ctx)
    assert list(ours) == list(ref) == list(model.group.elements)
    with ctx.guard():
        for sigma, v in ours.items():
            assert abs(v - ref[sigma]) < mp.mpf(2) ** -(bits - 8), model.group.label(sigma)


@pytest.mark.parametrize("bits", [192, 768])
@pytest.mark.parametrize("p, n", [(7, 1), (23, 1), (59, 1), (3, 2), (11, 2)])
def test_relative_fold_matches_the_per_residue_loop(p, n, bits):
    # the pi_H fibre {b, f - b} as one class against the fold of the full
    # field's per-residue derivatives
    ctx = PrecisionContext(bits=bits, tol_exp=-(bits - 20))
    m = relative_model(p, n)
    ours = partial_zeta_all(m, relative_place_set(m), 1, ctx)
    ref = relative_fold_per_residue(m, ctx)
    with ctx.guard():
        for sigma in m.group.elements:
            assert abs(ours[sigma] - ref[sigma]) < mp.mpf(2) ** -(bits - 8), m.group.label(sigma)


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = lfun.stirling_shifted

    def counted(a, F, prec):
        calls.append((a, F))
        return kernel(a, F, prec)

    monkeypatch.setattr(lfun, "stirling_shifted", counted)
    lfun._class_derivs.cache_clear()
    fields._log_2_sin.cache_clear()
    return calls


def test_indf_builds_the_derivative_sums_once_per_field(monkeypatch, tmp_path):
    # INDF compares lattices and reads no L-data: no kernel call, no
    # log-sine; STARK_RAT reads one set of L-data, one class sum per field
    # and one log-sine per pair {a, 61 - a}, which the regulator's
    # logarithms then read from the memo; no residue needs the kernel
    calls = _count_kernel_calls(monkeypatch)
    assert main(["verify", "--suite", "INDF", "-p", "61",
                 "--out", str(tmp_path / "indf.json")]) == 0
    assert calls == []
    assert lfun._class_derivs.cache_info().misses == 0
    assert fields._log_2_sin.cache_info().misses == 0
    assert main(["verify", "--suite", "STARK_RAT", "-p", "61",
                 "--out", str(tmp_path / "stark_rat.json")]) == 0
    assert calls == []
    assert lfun._class_derivs.cache_info().misses == 1
    assert fields._log_2_sin.cache_info().misses == 30


def _misses():
    return lfun._class_derivs.cache_info().misses, fields._log_2_sin.cache_info().misses


def test_partial_zeta_memo_does_no_new_work_and_hands_out_fresh_dicts(monkeypatch):
    # plus and relative fields: one class-sum miss per field, one log-sine
    # miss per pair and no kernel call; a second read does no new work; a
    # full field still takes the kernel once per residue
    calls = _count_kernel_calls(monkeypatch)
    model = plus_field(25)
    pset = place_set(model, (5,))
    first = partial_zeta_all(model, pset, 1, CTX)
    assert calls == [] and _misses() == (1, 10)
    first.clear()
    second = partial_zeta_all(model, pset, 1, CTX)
    assert _misses() == (1, 10) and len(second) == model.group.order
    second[model.group.identity] = mp.mpf(0)
    assert partial_zeta_all(model, pset, 1, CTX)[model.group.identity] != 0
    rel = relative_model(7)
    one = partial_zeta_all(rel, relative_place_set(rel), 1, CTX)
    assert calls == [] and _misses() == (2, 13)
    one.clear()
    assert partial_zeta_all(rel, relative_place_set(rel), 1, CTX) and _misses() == (2, 13)
    full = full_cyclotomic(25)
    partial_zeta_all(full, pset, 1, CTX)
    assert sorted(calls) == [(a, 25) for a in range(1, 25) if a % 5]
    assert _misses() == (3, 13)
    partial_zeta_all(full, pset, 1, CTX)
    assert len(calls) == 20 and _misses() == (3, 13)


@pytest.mark.parametrize("argv", [
    ["STARKC", "-f", "25", "--subfield", "plus"],
    ["STARKC", "-f", "121", "--subfield", "plus", "--bits", "768", "--tol-exp", "-150"],
    ["STARKC", "-p", "23", "--subfield", "relative", "--bits", "768", "--tol-exp", "-150"],
    ["STARK_RAT", "-f", "49"],
    ["ACNF", "-p", "5", "--bits", "768", "--tol-exp", "-150"]])
def test_stark_and_acnf_checks_take_no_stirling_kernel_call(monkeypatch, tmp_path, argv):
    # every class of a plus, relative or Q(sqrt 5) field is closed under
    # a -> F - a, so each of its derivatives is a sum of log-sines
    calls = _count_kernel_calls(monkeypatch)
    assert main(["verify", "--suite", *argv, "--out", str(tmp_path / "out.json")]) == 0
    assert calls == [] and lfun._class_derivs.cache_info().misses == 1


def _classes_by(F, f, key):
    """The residues a mod F prime to F, grouped by key(a mod f)."""
    classes = {}
    for a in range(1, F):
        if gcd(a, F) == 1:
            classes.setdefault(key(a % f), []).append(a)
    return tuple(map(tuple, classes.values()))


def _plus_and_relative_classes():
    """(f, key) for every plus conductor and relative level the builtin
    provider supports: key maps a residue to its sigma of the plus field, or
    to its pi_H fibre {b, f - b} of the relative field."""
    out = []
    for f in sorted(KNOWN_HPLUS_ONE):
        out.append((f, plus_field(f).group.element_of_residue))
    for p, n in RELATIVE_RANGE:
        m = relative_model(p, n)
        labels = {m.group.label(e) for e in m.group.elements}
        out.append((m.f, lambda r, f=m.f, labels=labels: r if r in labels else f - r))
    return out


@pytest.mark.parametrize("bits", [192, 768])
def test_class_derivs_match_the_stirling_oracle_bit_for_bit(bits):
    # the log-sine pairs against the Stirling kernel on every residue, with
    # S = {infinity, p} (F = f) and with the extra prime 2 (F = 2f, four
    # residues per class); a completely split q = +-1 mod f would make every
    # class sum exactly 0. Only at f = 3 is 2 = -1 split: there the class
    # sum log(2 sin(pi/6)) = 0 is exact on the log-sine route and rounding
    # noise on the Stirling route
    ctx = PrecisionContext(bits=bits, tol_exp=-(bits - 20))
    for f, key in _plus_and_relative_classes():
        for F in (f, 2 * f):
            classes = _classes_by(F, f, key)
            ours = lfun._class_derivs(F, classes, ctx)
            ref = class_derivs_stirling(F, classes, ctx)
            for a, x, y in zip(classes, ours, ref):
                if F == 6:
                    assert x == 0 and abs(y) < mp.mpf(2) ** -(bits + 16)
                else:
                    assert ctx.final(x) == ctx.final(y), (F, a[0])
