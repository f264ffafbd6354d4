"""Exact cyclotomic arithmetic and the guarded numeric kernel.

The numeric functions are compared against mpmath. The library's log Gamma
is mpmath's loggamma itself, so the Hurwitz zeta derivative is also checked
against mpmath's zeta(0, x, 1), an independent Euler-Maclaurin route; the
integer logarithm log_scaled is checked against mpmath's log.
"""

import random
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from fracgalois import cyclo
from fracgalois.cyclo import (CyclotomicNumber, PrecisionContext,
                              bernoulli_number, crt, cyclotomic_polynomial,
                              divisors, euler_phi, factorize,
                              hurwitz_zeta_at0, is_prime, log_gamma, mobius,
                              primitive_root)
from fracgalois.units import KNOWN_HPLUS_ONE
from oracles import FractionCyclotomic, bernoulli_fractions, embed_lcm_route

CTX = PrecisionContext(bits=192, tol_exp=-100)


# ---------------------------------------------------------------------------
# elementary number theory

def test_factorize_euler_phi_mobius_against_brute_force():
    for n in range(1, 180):
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
        assert euler_phi(n) == sum(1 for a in range(1, n + 1)
                                   if _gcd(a, n) == 1)
        sq = [p for p, e in fac if e >= 2]
        if sq:
            assert mobius(n) == 0
        else:
            assert mobius(n) == (-1) ** len(fac)
        assert divisors(n) == sorted(d for d in range(1, n + 1) if n % d == 0)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_primitive_root_has_full_order():
    for p in [3, 5, 7, 11, 13, 23, 47, 61]:
        g = primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1


def test_cyclotomic_polynomial_product_formula():
    for n in range(1, 31):
        prod = (1,)
        for d in divisors(n):
            prod = _poly_mul(prod, cyclotomic_polynomial(d))
        expect = [0] * (n + 1)
        expect[0] = -1
        expect[n] = 1
        assert list(prod) == expect
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


# ---------------------------------------------------------------------------
# cyclotomic numbers

def test_root_of_unity_relations():
    z = CyclotomicNumber.from_powers(5, [0, 1])
    acc = CyclotomicNumber.rational(1)
    for _ in range(5):
        acc = acc * z
    assert CyclotomicNumber.from_powers(5, [1] * 5).is_zero()  # 1 + z + ... + z^4 = 0
    assert acc == 1 and acc.m == 5                             # z^5 = 1


def test_norm_of_one_minus_zeta_is_p():
    for p in [3, 5, 7, 11]:
        one_minus_z = CyclotomicNumber.from_powers(p, [1, -1])
        prod = CyclotomicNumber.rational(1)
        for a in range(1, p):
            prod = prod * one_minus_z.galois(a)
        assert prod == p


_MODULI = (1, 2, 3, 4, 5, 6, 8, 9, 12, 15)


@st.composite
def _cyclotomic_pairs(draw):
    """(m, coefficients) with small Fractions, a third of them zero."""
    m = draw(st.sampled_from(_MODULI))
    q = st.fractions(min_value=-40, max_value=40, max_denominator=24)
    return m, draw(st.lists(st.one_of(q, st.just(Fraction(0))),
                            min_size=euler_phi(m), max_size=euler_phi(m)))


def _agree(ours, oracle):
    assert ours.d > 0 and gcd(ours.d, *ours.n) == 1, (ours.n, ours.d)
    assert (ours.m, FractionCyclotomic.of(ours).c) == (oracle.m, oracle.c)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_cyclotomic_pairs(), _cyclotomic_pairs(), st.integers(1, 60),
       st.fractions(min_value=-9, max_value=9, max_denominator=9))
def test_integer_numerators_agree_with_the_fraction_oracle(xp, yp, t, q):
    # reduced numerators over one denominator against one Fraction per
    # coefficient: products, Galois twists, lifts and equality
    x, y = CyclotomicNumber(*xp), CyclotomicNumber(*yp)
    fx, fy = FractionCyclotomic(*xp), FractionCyclotomic(*yp)
    _agree(x, fx)
    _agree(x * y, fx * fy)
    _agree(x * q, fx * q)
    _agree(x * 0, FractionCyclotomic.zero(x.m))
    if gcd(t, x.m) == 1:
        _agree(x.galois(t), fx.galois(t))
    big = x.m * (1 + t % 4)
    _agree(x.lift(big), fx.lift(big))
    assert (x == y) == (fx == fy)
    assert x == x.lift(big) == CyclotomicNumber(big, fx.lift(big).c)
    assert (x == 0) == x.is_zero() == fx.is_zero()


@pytest.mark.parametrize("bits", [192, 768])
def test_embed_equals_the_lcm_route_bit_for_bit(bits):
    rng = random.Random(bits)
    with mp.workprec(bits):
        for m in (1, 5, 12, 100, 169):
            for _ in range(5):
                x = CyclotomicNumber(m, [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                  rng.choice((1, 2, 6, 35, 999, 2 ** 70)))
                                         if rng.random() < 0.7 else 0
                                         for _ in range(euler_phi(m))])
                for a in (1, m - 1, 7):
                    assert x.embed(a) == embed_lcm_route(FractionCyclotomic.of(x), a), (m, a)


def test_galois_action_composes_and_inverse():
    rng = random.Random(11)
    x = CyclotomicNumber.from_powers(12, [rng.randint(-3, 3) for _ in range(4)])
    for a in [1, 5, 7, 11]:
        for b in [1, 5, 7, 11]:
            assert x.galois(a).galois(b) == x.galois(a * b % 12)


def test_embed_matches_exponential():
    with CTX.guard():
        for m, k in [(5, 1), (7, 3), (12, 5)]:
            z = CyclotomicNumber.from_powers(m, [0] * k + [1])
            expect = mp.e ** (2j * mp.pi * k / m)
            assert abs(z.embed(1) - expect) < mp.mpf(2) ** -150


def _embed_per_call(x, a):
    """The per-coefficient expjpi sum: every mpf quotient and root rounded
    on its own, the oracle for the fixed-point embedding."""
    total = mp.mpc(0)
    for i, q in enumerate(FractionCyclotomic.of(x).c):
        if q:
            e = (2 * ((a * i) % x.m)) % (2 * x.m)
            total += mp.mpf(q.numerator) / q.denominator * mp.expjpi(mp.mpf(e) / x.m)
    return total


def _embed_fresh(x, a):
    """x.embed(a) with the root-table memos emptied first."""
    cyclo._root_table.cache_clear()
    cyclo._root_kernel.cache_clear()
    cyclo._fixed_root_table.cache_clear()
    return x.embed(a)


def test_embed_reads_one_root_table_per_precision():
    # a table memoised at one precision is never read at another
    x = CyclotomicNumber.from_powers(169, [k - 40 if k % 5 == 0 else 0 for k in range(169)], 7)
    for order in ((768, 192), (192, 768)):
        cyclo._root_table.cache_clear()
        cyclo._fixed_root_table.cache_clear()
        got = {}
        for bits in order:
            with mp.workprec(bits):
                got[bits] = x.embed(3)
        for bits in order:
            with mp.workprec(bits):
                assert got[bits] == _embed_fresh(x, 3), (order, bits)


@pytest.mark.parametrize("bits", [192, 768])
@pytest.mark.parametrize("m", [5, 12, 100, 169])
def test_embed_is_within_8_bits_of_the_per_call_sum(m, bits):
    rng = random.Random(m * bits)
    x = CyclotomicNumber(m, [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999))
                             if rng.random() < 0.8 else 0 for _ in range(euler_phi(m))])
    scale = max(Fraction(1), sum(abs(c) for c in FractionCyclotomic.of(x).c))
    with mp.workprec(bits):
        bound = mp.ldexp(mp.mpf(scale.numerator) / scale.denominator, 8 - bits)
        for a in (1, m - 1, 7 if m % 7 else 5):
            assert abs(x.embed(a) - _embed_per_call(x, a)) <= bound, a


# the moduli the builtin provider's fields reach the root kernel with: 2f
# (the log-sines) and the group exponents of its fields (the embeddings),
# phi(f) for the cyclic (Z/f)^x of an odd prime power f and phi(f)/2 for a
# plus or relative field
PROVIDER_MODULI = {m for f in KNOWN_HPLUS_ONE for m in (2 * f, euler_phi(f), euler_phi(f) // 2)}


@pytest.mark.parametrize("prec", [192, 768])
@pytest.mark.parametrize("m", sorted({1, 2, 3, 4, 6, 12, 100, 121, 125} | PROVIDER_MODULI))
def test_fixed_root_table_matches_the_per_root_rounding(m, prec):
    # the kernel within its docstring's 2k units of 2^-W, and its k <= m/2,
    # rounded and conjugated, equal to round(2^prec zeta_m^k) from mpmath at
    # 3 prec; the binary-exact parts stay exact
    cyclo._root_kernel.cache_clear()
    cyclo._fixed_root_table.cache_clear()
    W, re_k, im_k = cyclo._root_kernel(m, prec)
    re_t, im_t = cyclo._fixed_root_table(m, prec)
    with mp.workprec(3 * prec):
        for k in range(m):
            z = mp.expjpi(mp.mpf(2 * k) / m)
            assert re_t[k] == int(mp.nint(mp.ldexp(z.real, prec))), k
            assert im_t[k] == int(mp.nint(mp.ldexp(z.imag, prec))), k
            if 2 * k <= m:
                assert abs(mp.mpc(re_k[k], im_k[k]) - z * mp.mpf(2) ** W) <= max(2 * k, 1), k
    one, half = 1 << prec, 1 << (prec - 1)
    exact = {1: [(0, one, 0)], 2: [(1, -one, 0)], 3: [(1, -half, None), (2, -half, None)],
             4: [(1, 0, one), (2, -one, 0), (3, 0, -one)],
             12: [(2, half, None), (3, 0, one), (8, -half, None), (9, 0, -one)]}
    for k, re, im in exact.get(m, []):
        assert re_t[k] == re and im in (None, im_t[k]), k


# log_scaled's docstring bound: under one unit of 2^-W
@pytest.mark.parametrize("W", [96, 224, 800, 1632])
def test_log_scaled_is_within_one_unit(W):
    rng = random.Random(W)
    big = rng.getrandbits(10_000) | 1 << 9_999
    cases = [(3, 7), (7, 3), (1, 2), (2, 1), (1 << 333, 1), (1, 1 << 1000), (3 << 50, 3),
             (big, 1), (big, 12345), (17, big), (1, rng.getrandbits(3000) | 1 << 2999),
             ((1 << 200) + 1, 1 << 200), ((1 << 200) - 1, 1 << 200)]
    cases += [(rng.randrange(1, 1 << 64), rng.randrange(1, 1 << 64)) for _ in range(30)]
    cases += [(rng.getrandbits(8_000) | 1, rng.randrange(1, 1 << 20)) for _ in range(5)]
    with mp.workprec(W + 64):
        for n, d in cases:
            exact = mp.ldexp(mp.log(n) - mp.log(d), W)
            assert abs(cyclo.log_scaled(n, d, W) - exact) < 1, (n.bit_length(), d.bit_length())
    for n in (1, 5, big):
        assert cyclo.log_scaled(n, n, W) == 0


def test_constructor_and_crt_errors_name_the_reason():
    with pytest.raises(ValueError, match=r"Q\(zeta_5\) needs 4 coefficients, got 3"):
        CyclotomicNumber(5, (1, 2, 3))
    with pytest.raises(ValueError, match="crt needs coprime moduli, got 4 and 6"):
        crt([(1, 4), (3, 6)])
    assert crt([(1, 4), (2, 9)]) == 29


def test_embed_is_a_ring_map():
    x = CyclotomicNumber.from_powers(7, [1, 2])          # 1 + 2 z
    y = CyclotomicNumber.from_powers(7, [-1, 0, 0, 1])   # z^3 - 1
    with CTX.guard():
        lhs = (x * y).embed(2)
        rhs = x.embed(2) * y.embed(2)
        assert abs(lhs - rhs) < mp.mpf(2) ** -150


# ---------------------------------------------------------------------------
# precision context

def test_precision_context_guard_restores_and_tolerance_gate():
    before = mp.mp.prec
    with CTX.guard():
        assert mp.mp.prec >= CTX.bits + 32
    assert mp.mp.prec == before
    assert CTX.tol == mp.mpf(2) ** -100
    with pytest.raises(ValueError):
        PrecisionContext(bits=64, tol_exp=-133)   # 1e-40 at 64 bits
    with pytest.raises(ValueError):
        PrecisionContext(bits=192, tol_exp=5)


def test_mpf_of_fraction_is_correctly_rounded():
    q = Fraction(1, 3)
    with CTX.guard():
        x = CTX.mpf(q)
        assert abs(x - mp.mpf(1) / 3) <= mp.mpf(2) ** -(CTX.bits + 20)


# ---------------------------------------------------------------------------
# Bernoulli numbers, log Gamma, Hurwitz zeta at 0

def test_bernoulli_numbers_frozen_table():
    expect = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
              4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
              10: Fraction(5, 66), 12: Fraction(-691, 2730)}
    for n, v in expect.items():
        assert bernoulli_number(n) == v
    for n in [3, 5, 7, 9, 11]:
        assert bernoulli_number(n) == 0
    with pytest.raises(ValueError):
        bernoulli_number(-2)


def test_bernoulli_numbers_match_the_fraction_recursion():
    # mpmath's bernfrac against sum_{j <= n} C(n+1, j) B_j = 0 in Fractions
    for n, v in enumerate(bernoulli_fractions(60)):
        assert bernoulli_number(n) == v, n


@pytest.mark.parametrize("bits", [64, 192, 320, 1600])
def test_log_gamma_matches_mpmath(bits):
    ctx = PrecisionContext(bits=bits, tol_exp=-(bits - 20))
    pts = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 7),
           Fraction(1, 23), Fraction(22, 23)]
    with ctx.guard():
        for x in pts:
            ours = log_gamma(x, ctx)
            theirs = mp.loggamma(mp.mpf(x.numerator) / x.denominator)
            assert abs(ours - theirs) < mp.mpf(2) ** -(bits - 6)


@pytest.mark.parametrize("f", [23, 121, 125])
def test_log_gamma_table_matches_mpmath_at_768_bits(f):
    # every b/f the L-derivatives of conductor f (or f0 = f) evaluate
    bits = 768
    ctx = PrecisionContext(bits=bits, tol_exp=-700)
    with mp.workprec(bits):
        for b in range(1, f + 1):
            ours = log_gamma(Fraction(b, f), ctx)
            theirs = mp.loggamma(mp.mpf(b) / f)
            assert abs(ours - theirs) < mp.mpf(2) ** -(bits - 6), b


def test_log_gamma_memo_is_keyed_on_precision():
    x = Fraction(7, 121)
    low = log_gamma(x, PrecisionContext(bits=192, tol_exp=-100))
    high = log_gamma(x, PrecisionContext(bits=768, tol_exp=-700))
    with mp.workprec(768):
        theirs = mp.loggamma(mp.mpf(7) / 121)
        assert abs(high - theirs) < mp.mpf(2) ** -762
        assert abs(low - theirs) > mp.mpf(2) ** -300  # a 192-bit value is not reused


def test_log_gamma_repeated_call_returns_the_identical_mpf():
    x = Fraction(5, 23)
    with CTX.guard():
        first = cyclo._log_gamma_guarded(x, mp.mp.prec)
        assert cyclo._log_gamma_guarded(Fraction(10, 46), mp.mp.prec) is first
    assert log_gamma(x, CTX) == log_gamma(Fraction(10, 46), CTX)


def test_hurwitz_zeta_at0_exact_value():
    assert hurwitz_zeta_at0(Fraction(2, 7), 0, CTX) == Fraction(1, 2) - Fraction(2, 7)
    assert hurwitz_zeta_at0(1, 0, CTX) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        hurwitz_zeta_at0(Fraction(8, 7), 0, CTX)


def test_hurwitz_zeta_derivative_matches_mpmath():
    # mpmath's zeta(s, a, 1) is d/ds zeta(s, a): an independent oracle
    with CTX.guard():
        for x in [Fraction(1, 5), Fraction(2, 5), Fraction(3, 7), Fraction(1)]:
            ours = hurwitz_zeta_at0(x, 1, CTX)
            theirs = mp.zeta(0, mp.mpf(x.numerator) / x.denominator, 1)
            assert abs(ours - theirs) < mp.mpf(2) ** -150


def test_hurwitz_zeta_derivative_reflection():
    # zeta'(0, x) + zeta'(0, 1-x) = -log(2 sin(pi x))
    with CTX.guard():
        for x in [Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)]:
            lhs = (hurwitz_zeta_at0(x, 1, CTX)
                   + hurwitz_zeta_at0(1 - x, 1, CTX))
            rhs = -mp.log(2 * mp.sin(mp.pi * mp.mpf(x.numerator) / x.denominator))
            assert abs(lhs - rhs) < mp.mpf(2) ** -150
