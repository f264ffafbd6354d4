"""Field models, place structure, and formal S-unit words."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath as mp
import pytest

from fracgalois import fields
from fracgalois.cyclo import PrecisionContext, factorize
from fracgalois.fields import (SUnit, full_cyclotomic, log_norms, make_field,
                               place_set, plus_field, relative_model,
                               relative_place_set, select_field)
from fracgalois.units import KNOWN_HPLUS_ONE, stark_module
from oracles import same_value, word_value

CTX = PrecisionContext(bits=192, tol_exp=-100)


# ---------------------------------------------------------------------------
# field models

def test_full_cyclotomic_model():
    k = full_cyclotomic(5)
    assert k.degree == 4
    assert not k.totally_real
    assert k.is_full_cyclotomic
    assert k.group.label(k.conjugation()) == 4


def test_plus_field_model():
    k = plus_field(7)
    assert k.degree == 3
    assert k.totally_real
    assert sorted(k.kernel) == [1, 6]
    assert k.group.label(k.conjugation()) == 1   # conjugation is trivial


def test_make_field_of_a_non_minimal_modulus():
    m = make_field(6, frozenset({1}))      # same field as Q(zeta_3)
    assert m.degree == 2
    m2 = make_field(5, frozenset({2, 1}))  # kernel generates everything: Q
    assert m2.degree == 1
    with pytest.raises(ValueError):
        make_field(2, frozenset({1}))


def test_relative_model_constraints():
    m = relative_model(7)
    assert m.f == 7
    assert m.group.order == 3
    assert sorted(m.group.label(e) for e in m.group.elements) == [1, 2, 4]
    with pytest.raises(ValueError):
        relative_model(5)       # 5 = 1 mod 4
    with pytest.raises(ValueError):
        relative_model(3, 1)    # degenerate: K = k


@pytest.mark.parametrize("f, subfield, places, build", [
    (25, "full", None, lambda: (full_cyclotomic(25), (5,))),
    (63, "full", (2, 3), lambda: (full_cyclotomic(63), (2, 3))),
    (61, "plus", None, lambda: (plus_field(61), (61,))),
    (21, "plus", None, lambda: (plus_field(21), (3, 7))),
    (7, "custom:1,2,4", None, lambda: (make_field(7, frozenset({1, 2, 4})), (7,))),
    (7, "custom:1", (7, 11), lambda: (full_cyclotomic(7), (7, 11))),
    (49, "relative", None, lambda: (relative_model(7, 2), None)),
    (23, "relative", None, lambda: (relative_model(23), None))])
def test_select_field_builds_the_model_and_places_of_the_selectors(f, subfield, places,
                                                                   build):
    model, pset = select_field(f, subfield, places)
    want, primes = build()
    want_pset = relative_place_set(want) if primes is None else place_set(want, primes)
    assert model == want and model.group.order == want.group.order
    assert pset.finite_primes() == want_pset.finite_primes()
    assert _places(pset) == _places(want_pset)


@pytest.mark.parametrize("subfield, places, message", [
    ("relative", (7,), "the relative construction fixes its own places"),
    ("half", None, "unknown subfield selector 'half'"),
    ("plus", (4,), "4 is not prime")])
def test_select_field_names_a_bad_selector(subfield, places, message):
    with pytest.raises(ValueError, match=message):
        select_field(49, subfield, places)


# ---------------------------------------------------------------------------
# places

def _places(pset):
    """(q, number of places above, decomposition group labels, complex?) per
    place of S, in order."""
    label = pset.group.label
    return [(pd.q, len(pd.cosets), sorted(map(label, pd.decomposition)), pd.complex_place)
            for pd in pset.places]


def test_place_set_full_field():
    ps = place_set(full_cyclotomic(5), (5,))
    # two complex places (decomposition {1, c}), 5 totally ramified
    assert _places(ps) == [(None, 2, [1, 4], True), (5, 1, [1, 2, 3, 4], False)]
    assert ps.places[0].archimedean and not ps.places[1].archimedean
    assert ps.x_rank() == 2


def test_place_set_plus_field():
    ps = place_set(plus_field(7), (7,))
    # three real places, permuted simply by G
    assert _places(ps) == [(None, 3, [1], False), (7, 1, [1, 2, 3], False)]
    assert ps.x_rank() == 3


def test_place_set_split_prime():
    # 11 = 1 mod 5 splits completely in Q(zeta_5): 4 places, trivial
    # decomposition group
    ps = place_set(full_cyclotomic(5), (5, 11))
    assert _places(ps)[2] == (11, 4, [1], False)
    assert ps.x_rank() == 2 + 1 + 4 - 1


def test_relative_place_set():
    ps = relative_place_set(relative_model(7))
    # H permutes the three complex places simply; p is totally ramified
    assert _places(ps) == [(None, 3, [1], True), (7, 1, [1, 2, 4], False)]
    assert ps.x_rank() == 3


# ---------------------------------------------------------------------------
# S-unit words

def test_sunit_word_round_trip_and_value():
    raw = [["om", 2, 1], ["z", 6], ["om", 1, -1]]
    u = SUnit.one_minus_zeta(7, 2) * SUnit.zeta(7, 3) ** 2 / SUnit.one_minus_zeta(7, 1)
    assert same_value(u, raw)
    assert SUnit.from_word(7, u.to_word()) == SUnit.from_word(7, raw) == u


def test_sunit_galois_composition():
    raw = [["om", 1, 1], ["m1", 1]]
    u = SUnit.from_word(7, raw)
    assert same_value(u.galois(2).galois(4), _conjugate(_conjugate(raw, 2), 4))
    assert same_value(u.galois(3), _conjugate(raw, 3))
    assert u.galois(2).galois(4) == u.galois(8 % 7) == u   # 8 = 1 mod 7


def test_sunit_value_identities():
    # (1 - zeta^{-1}) = -zeta^{-1} (1 - zeta), and == compares values
    f = 5
    lhs = SUnit.one_minus_zeta(f, f - 1)
    assert same_value(lhs, [["m1", 1], ["z", f - 1], ["om", 1, 1]])
    assert lhs == SUnit.minus_one(f) * SUnit.zeta(f, f - 1) * SUnit.one_minus_zeta(f, 1)


def test_sunit_fixed_by_kernel():
    f = 7
    eps = SUnit.one_minus_zeta(f, 1) * SUnit.one_minus_zeta(f, f - 1)
    assert eps.fixed_by(frozenset({1, f - 1}))
    lam = SUnit.one_minus_zeta(f, 1)
    assert not lam.fixed_by(frozenset({1, f - 1}))


def test_product_of_words_of_two_conductors_is_an_error_under_python_O():
    # words of conductors 7 and 9 have no product: a ValueError, not an
    # assert, so python -O keeps the check
    code = """if True:
        from fracgalois.fields import SUnit
        try:
            SUnit.zeta(7) * SUnit.zeta(9)
        except ValueError as exc:
            print(exc)
        """
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.splitlines() == ["product of words of conductors 7 and 9"], proc.stderr


def test_place_set_layout_and_relative_order_are_errors_under_python_O():
    # a place set whose first place is finite, and squares mod 7 that do
    # not make up half of (Z/7)^x: ValueErrors, not asserts, so python -O
    # keeps the checks
    code = """if True:
        from fracgalois import fields
        ps = fields.place_set(fields.plus_field(7), (7,))
        fields.relative_model.cache_clear()
        fields.subgroup_as_group = lambda f, residues: fields.galois_group(f, frozenset({1}))
        for op in (lambda: fields.PlaceSet(ps.group, ps.places[::-1]),
                   lambda: fields.relative_model(7)):
            try:
                op()
            except ValueError as exc:
                print(exc)
        """
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.splitlines() == [
        "a place set starts with an archimedean place whose first coset holds the identity",
        "the squares mod 7 have order 6, not phi(7)/2"], proc.stderr


def test_log_norms_rejects_zero_like_words():
    k = full_cyclotomic(5)
    ps = place_set(k, (5,))
    # (1 - zeta) * (1 - zeta^{-1}) * ... the zero element cannot be built from
    # unit words; instead check the error on an artificially cancelled word
    z = SUnit.zeta(5)
    with CTX.guard():
        ok = log_norms(z, ps, CTX)
        assert all(abs(v) < mp.mpf(2) ** -150 for v in ok.values())


@pytest.mark.parametrize("model, pset", [
    (plus_field(7), place_set(plus_field(7), (7,))),
    (plus_field(25), place_set(plus_field(25), (5,))),
    (relative_model(7), relative_place_set(relative_model(7))),
    (relative_model(11, 2), relative_place_set(relative_model(11, 2))),
    (full_cyclotomic(7), place_set(full_cyclotomic(7), (7,)))])
def test_log_norms_is_log_abs_per_sigma_in_coset_order(model, pset):
    # the Stark unit's log ||sigma(eps)||_{w0}, each sigma at its own label,
    # doubled at complex places; on the full field sigma and c sigma share a
    # coset and each has its value
    word = stark_module(model, pset, CTX).free[0]
    logs = log_norms(word, pset, CTX)
    arch, label = pset.places[0], pset.group.label
    assert list(logs) == [s for coset in arch.cosets for s in sorted(coset, key=label)]
    assert len(logs) == model.group.order
    for sigma, lw in logs.items():
        with CTX.guard():
            v = word.log_abs(label(sigma))
            v = 2 * v if arch.complex_place else v
        assert lw == CTX.final(v), label(sigma)


# ---------------------------------------------------------------------------
# normal forms and the logarithm helper

# Raw words are lists of document entries (see `oracles.word_value`): their
# products, powers and Galois images below never pass through the rewrite.

def _random_word(rng, f):
    """-1 and zeta to random powers, then one to three symbols 1 - zeta^a for
    any a != 0 mod f, repeats allowed."""
    word = [["m1", rng.randrange(2)], ["z", rng.randrange(f)]]
    for _ in range(rng.randint(1, 3)):
        word.append(["om", rng.randrange(1, f), rng.choice((-2, -1, 1, 2))])
    return word


def _power(word, k):
    return [[*item[:-1], item[-1] * k] for item in word]


def _conjugate(word, s):
    """sigma_s of a raw word: -1 stays, zeta^b goes to zeta^{bs} and
    1 - zeta^c to 1 - zeta^{cs}."""
    return [item if item[0] == "m1" else [item[0], item[1] * s, *item[2:]]
            for item in word]


def _relation(rng, f, p):
    """A word with value 1: a parity or a distribution relation, conjugated."""
    if rng.randrange(2):
        c = rng.randrange(1, f)   # (1 - zeta^{-c}) / (-zeta^{-c} (1 - zeta^c))
        rel = [["om", -c, 1], ["m1", -1], ["z", c], ["om", c, -1]]
    else:
        q = p ** rng.randrange(1, 3 if f > p * p else 2)
        b = rng.choice([b for b in range(1, f // q) if b % p])
        rel = [["om", b * q, 1]] + [["om", b + i * (f // q), -1] for i in range(q)]
    return _conjugate(rel, rng.choice([t for t in range(1, f) if t % p]))


def test_normal_form_frozen_values():
    assert (SUnit.minus_one(5).t, SUnit.minus_one(5).v) == (5, (0, 0))
    assert (SUnit.zeta(5).t, SUnit.zeta(5).v) == (6, (0, 0))
    # 1 - zeta^4 = -zeta^4 (1 - zeta) and -zeta^4 = (-zeta)^9
    w = SUnit.one_minus_zeta(5, 4)
    assert (w.t, w.v) == (9, (1, 0))
    # 1 - zeta^3 = (1 - zeta)(1 - zeta^4)(1 - zeta^7) in Q(zeta_9), basis 1, 2, 4
    w = SUnit.one_minus_zeta(9, 3)
    assert (w.t, w.v) == (7, (1, 1, 1))
    assert w.to_word() == [["m1", 1], ["z", 7], ["om", 1, 1], ["om", 2, 1], ["om", 4, 1]]


@pytest.mark.parametrize("f", [9, 25, 27, 49])
def test_normal_form_decides_equal_values(f):
    # the normal forms of raw words, equal exactly when their raw expansions are
    (p, _), = factorize(f)
    rng = random.Random(f)
    for _ in range(12):
        w = _random_word(rng, f)
        same = w + _power(_relation(rng, f, p), rng.choice((-1, 1, 2)))
        assert SUnit.from_word(f, same) == SUnit.from_word(f, w)
        shifted = w + [["z", rng.randrange(1, f)]]
        for u in (same, shifted, _random_word(rng, f)):
            assert same_value(SUnit.from_word(f, u), u)
            assert ((SUnit.from_word(f, u) == SUnit.from_word(f, w))
                    == (word_value(f, u) == word_value(f, w)))


@pytest.mark.parametrize("f", [8, 12, 15])
def test_normal_form_needs_odd_prime_power(f):
    with pytest.raises(ValueError, match="odd prime power"):
        SUnit.one_minus_zeta(f, 1)


def test_log_abs_matches_expansion_embedding():
    rng = random.Random(5)
    with mp.workprec(768):
        for f in (5, 9, 13, 25):
            for _ in range(4):
                w = _random_word(rng, f)
                t = rng.choice([t for t in range(1, f) if gcd(t, f) == 1])
                ref = mp.log(abs(word_value(f, w).embed(t)))
                assert abs(SUnit.from_word(f, w).log_abs(t) - ref) < mp.mpf(2) ** -740


def _log_abs_per_call(w, t):
    """The per-symbol log(2 sin) sum that log_abs's memo replaced, from the
    memo-free log-sine at min(c, f - c) for c = a t mod f over the symbols
    1 - zeta^a of the normal form."""
    total = mp.mpf(0)
    for a, e in zip(fields._symbols(w.f)[0], w.v):
        if e:
            c = (a * t) % w.f
            total += e * fields._log_2_sin.__wrapped__(min(c, w.f - c), w.f, mp.mp.prec)
    return total


def test_log_abs_reads_one_log_sine_per_precision():
    # a log-sine memoised at one precision is never read at another
    rng = random.Random(11)
    cases = []
    for f in (23, 121, 125):
        for _ in range(6):
            t = rng.choice([t for t in range(1, f) if gcd(t, f) == 1])
            cases.append((SUnit.from_word(f, _random_word(rng, f)), t))
    for order in ((768, 192), (192, 768)):
        fields._log_2_sin.cache_clear()
        for bits in order:
            with mp.workprec(bits):
                for w, t in cases:
                    assert w.log_abs(t) == _log_abs_per_call(w, t), (order, bits, w, t)


def test_log_sine_of_the_reduced_residue_matches_the_unreduced_one():
    # sin(pi (f - c) / f) = sin(pi c / f): log_abs reads c and f - c at
    # c' = min(c, f - c). The reduced and the unreduced residue each read the
    # root kernel of zeta_2f, and each is within 2^-(prec-4) of the truth;
    # log_abs of 1 - zeta^c, c prime to p, reads the reduced one
    for bits in (192, 768):
        tol = mp.mpf(2) ** -(bits - 4)
        for f in (23, 121, 125, 169):
            (p, _), = factorize(f)
            for c in range(1, f):
                with mp.workprec(bits + 32):
                    true = mp.log(2 * mp.sinpi(mp.mpf(min(c, f - c)) / f))
                with mp.workprec(bits):
                    reduced = +fields._log_2_sin(min(c, f - c), f, bits)
                    unreduced = +fields._log_2_sin.__wrapped__(c, f, bits)
                    assert abs(reduced - true) < tol, (bits, f, c)
                    assert abs(unreduced - true) < tol, (bits, f, c)
                    if c % p:
                        assert SUnit.one_minus_zeta(f, c).log_abs(1) == reduced, (bits, f, c)


@pytest.mark.parametrize("prec", [192, 768])
def test_log_sine_is_within_2_to_the_minus_prec_16(prec):
    # the log-sine as the memo holds it, at W > prec bits, before a sum
    # rounds it to prec: the docstring's f 2^-(prec+33) and log_scaled's
    # rounding, over the plus conductors and the moduli 2p of one extra prime
    moduli = KNOWN_HPLUS_ONE | {2 * p for p in range(3, 60) if factorize(p) == [(p, 1)]}
    for f in sorted(moduli):
        with mp.workprec(3 * prec):
            tol = mp.ldexp(1, -(prec + 16))
            for c in range(1, f // 2 + 1):
                true = mp.log(2 * mp.sin(mp.pi * c / f))
                assert abs(fields._log_2_sin(c, f, prec) - true) < tol, (f, c)
