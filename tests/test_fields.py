"""Field models, place structure, and formal S-unit words."""

import random
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest

from fracgalois.cyclo import PrecisionContext, factorize
from fracgalois.fields import (SUnit, finite_ord, full_cyclotomic, log_norms,
                               make_field, place_set, plus_field,
                               relative_model, relative_place_set)

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


def test_make_field_tracks_true_conductor():
    m = make_field(6, frozenset({1}))      # same field as Q(zeta_3)
    assert m.degree == 2 and m.conductor == 3
    m2 = make_field(5, frozenset({2, 1}))  # kernel generates everything: Q
    assert m2.degree == 1 and m2.conductor == 1
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


# ---------------------------------------------------------------------------
# places

def test_place_set_full_field():
    k = full_cyclotomic(5)
    ps = place_set(k, (5,))
    desc = ps.describe()
    arch = [d for d in desc if d["residue_size"] is None]
    fin = [d for d in desc if d["residue_size"] is not None]
    assert len(arch) == 1 and arch[0]["places_above"] == 2   # two complex places
    assert len(fin) == 1 and fin[0]["places_above"] == 1     # totally ramified
    assert ps.x_rank() == 2


def test_place_set_plus_field():
    k = plus_field(7)
    ps = place_set(k, (7,))
    desc = ps.describe()
    arch = [d for d in desc if d["residue_size"] is None]
    assert arch[0]["places_above"] == 3      # three real places
    assert ps.x_rank() == 3


def test_place_set_split_prime():
    # 11 = 1 mod 5 splits completely in Q(zeta_5)
    k = full_cyclotomic(5)
    ps = place_set(k, (5, 11))
    fin = [d for d in ps.describe() if d["residue_size"] is not None]
    above_11 = [d for d in fin if d["residue_size"] == 11]
    assert above_11 and above_11[0]["places_above"] == 4


def test_relative_place_set():
    m = relative_model(7)
    ps = relative_place_set(m)
    desc = ps.describe()
    arch = [d for d in desc if d["residue_size"] is None]
    fin = [d for d in desc if d["residue_size"] is not None]
    assert arch[0]["places_above"] == 3      # H permutes them simply
    assert fin[0]["places_above"] == 1       # totally ramified above p
    assert ps.x_rank() == 3


# ---------------------------------------------------------------------------
# S-unit words

def test_sunit_word_round_trip_and_value():
    u = SUnit.one_minus_zeta(7, 2) * SUnit.zeta(7, 3) ** 2 * SUnit.one_minus_zeta(7, 1).inv()
    w = u.to_word()
    v = SUnit.from_word(7, w)
    assert v.same_value(u)


def test_sunit_galois_composition():
    u = SUnit.one_minus_zeta(7, 1) * SUnit.minus_one(7)
    assert u.galois(2).galois(4).same_value(u.galois(8 % 7))
    assert u.galois(2).galois(4).same_value(u)   # 8 = 1 mod 7


def test_sunit_value_identities():
    # (1 - zeta^{-1}) = -zeta^{-1} (1 - zeta)
    f = 5
    lhs = SUnit.one_minus_zeta(f, f - 1)
    rhs = SUnit.minus_one(f) * SUnit.zeta(f, f - 1) * SUnit.one_minus_zeta(f, 1)
    assert lhs.same_value(rhs)


def test_sunit_fixed_by_kernel():
    f = 7
    eps = SUnit.one_minus_zeta(f, 1) * SUnit.one_minus_zeta(f, f - 1)
    assert eps.fixed_by(frozenset({1, f - 1}))
    lam = SUnit.one_minus_zeta(f, 1)
    assert not lam.fixed_by(frozenset({1, f - 1}))


def test_finite_ord_at_ramified_prime():
    k = full_cyclotomic(5)
    ps = place_set(k, (5,))
    lam = SUnit.one_minus_zeta(5, 1)
    idx = next(i for i in range(ps.size) if not ps.places[ps.flat[i][0]].archimedean)
    assert finite_ord(lam, ps, idx) == 1
    assert finite_ord(SUnit.zeta(5), ps, idx) == 0
    assert finite_ord(lam ** 3, ps, idx) == 3


def test_product_formula_for_s_units():
    cases = [
        (full_cyclotomic(5), (5,), SUnit.one_minus_zeta(5, 2)),
        (plus_field(7), (7,),
         SUnit.one_minus_zeta(7, 1) * SUnit.one_minus_zeta(7, 6)),
    ]
    for model, primes, word in cases:
        ps = place_set(model, primes)
        with CTX.guard():
            row = log_norms(word, ps, CTX)
            assert abs(mp.fsum(row)) < mp.mpf(2) ** -150


def test_log_norms_rejects_zero_like_words():
    k = full_cyclotomic(5)
    ps = place_set(k, (5,))
    # (1 - zeta) * (1 - zeta^{-1}) * ... the zero element cannot be built from
    # unit words; instead check the error on an artificially cancelled word
    z = SUnit.zeta(5)
    with CTX.guard():
        ok = log_norms(z, ps, CTX)
        assert all(abs(v) < mp.mpf(2) ** -150 for v in ok)


# ---------------------------------------------------------------------------
# normal forms and the logarithm helper

def _random_word(rng, f):
    e = {"m1": rng.randrange(2), "z": rng.randrange(f)}
    for _ in range(rng.randint(1, 3)):
        a = rng.randrange(1, f)
        e[("om", a)] = e.get(("om", a), 0) + rng.choice((-2, -1, 1, 2))
    return SUnit(f, e)


def _relation(rng, f, p):
    """A word with value 1: a parity or a distribution relation, conjugated."""
    if rng.randrange(2):
        c = rng.randrange(1, f)
        rel = SUnit.one_minus_zeta(f, -c) / (
            SUnit.minus_one(f) * SUnit.zeta(f, -c) * SUnit.one_minus_zeta(f, c))
    else:
        q = p ** rng.randrange(1, 3 if f > p * p else 2)
        b = rng.choice([b for b in range(1, f // q) if b % p])
        rel = SUnit.one_minus_zeta(f, b * q)
        for i in range(q):
            rel = rel / SUnit.one_minus_zeta(f, b + i * (f // q))
    return rel.galois(rng.choice([t for t in range(1, f) if t % p]))


def test_normal_form_frozen_values():
    assert SUnit.minus_one(5).normal_form() == (5, (0, 0))
    assert SUnit.zeta(5).normal_form() == (6, (0, 0))
    # 1 - zeta^4 = -zeta^4 (1 - zeta) and -zeta^4 = (-zeta)^9
    assert SUnit.one_minus_zeta(5, 4).normal_form() == (9, (1, 0))
    # 1 - zeta^3 = (1 - zeta)(1 - zeta^4)(1 - zeta^7) in Q(zeta_9), basis 1, 2, 4
    assert SUnit.one_minus_zeta(9, 3).normal_form() == (7, (1, 1, 1))


@pytest.mark.parametrize("f", [9, 25, 27, 49])
def test_normal_form_decides_equal_values(f):
    (p, _), = factorize(f)
    rng = random.Random(f)
    for _ in range(12):
        w = _random_word(rng, f)
        same = w * _relation(rng, f, p) ** rng.choice((-1, 1, 2))
        assert same.normal_form() == w.normal_form()
        shifted = w * SUnit.zeta(f, rng.randrange(1, f))
        for u in (same, shifted, _random_word(rng, f)):
            assert (u.normal_form() == w.normal_form()) == u.same_value(w)


@pytest.mark.parametrize("f", [8, 12, 15])
def test_normal_form_needs_odd_prime_power(f):
    with pytest.raises(ValueError, match="odd prime power"):
        SUnit.one_minus_zeta(f, 1).normal_form()


def test_log_abs_matches_expansion_embedding():
    rng = random.Random(5)
    with mp.workprec(768):
        for f in (5, 9, 13, 25):
            for _ in range(4):
                w = _random_word(rng, f)
                t = rng.choice([t for t in range(1, f) if gcd(t, f) == 1])
                ref = mp.log(abs(w.expansion().embed(t)))
                assert abs(w.log_abs(t) - ref) < mp.mpf(2) ** -740
