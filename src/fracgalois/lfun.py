"""Abelian L-function data at s = 0: exact values via generalized Bernoulli
numbers, S-truncated partial zetas and their derivatives (log-sine pairs, log
Gamma), character sums of them, and the Stickelberger-type elements.

Conventions: for a character chi of Gal(K/Q) = (Z/f)^x / H and a place set S
containing infinity, L_S(s, chi) carries Euler factors (1 - chi_0(p) p^{-s})
for the finite p in S prime to the conductor of chi. At s = 0 everything
rational is exact (Fractions / cyclotomic numbers); derivatives are mpf/mpc
under a PrecisionContext.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import mpmath as mp

from .cyclo import (GUARD_BITS, CyclotomicNumber, _log_gamma_guarded, _root_table, crt,
                    divisors, factorize, log_scaled)
from .fields import (FieldModel, PlaceSet, RelativeModel, _log_2_sin, make_field,
                     place_set)
from .gring import Character, GroupHom, GroupRingElement, _convolve


# ---------------------------------------------------------------------------
# characters of (Z/f)^x-quotients: conductor, lifts, Bernoulli

def character_conductor(model: FieldModel, chi: Character):
    """Smallest d | f such that chi factors through (Z/d)^x."""
    for d in divisors(model.f):
        if chi.is_trivial_on(_units_one_mod(model.group, model.f, d)):
            return d
    raise ArithmeticError(f"{chi} is not trivial on the units 1 mod {model.f}")


@lru_cache(maxsize=None)
def _units_one_mod(group, f, d):
    """The elements of `group` at the units a = 1 mod d of (Z/f)^x."""
    return tuple(group.element_of_residue(a) for a in range(1, f, d) if gcd(a, f) == 1)


@lru_cache(maxsize=None)
def _lifts(group, f, f0):
    """(b, the element at a lift of b to (Z/f)^x) for b mod f0 prime to f0."""
    lifts = []
    for b in range(1, f0):
        if gcd(b, f0) != 1:
            continue
        # lift b mod p^c || f0 into (Z/p^ee)^x by reusing its small
        # representative; primes away from f0 get 1, keeping it coprime to f
        a = crt([(b % gcd(f0, p ** ee) if f0 % p == 0 else 1, p ** ee)
                 for p, ee in factorize(f)])
        if gcd(a, f) != 1 or a % f0 != b:
            raise ArithmeticError(f"lift {a} of {b} mod {f0} is not a unit mod {f} "
                                  "in the class of b")
        lifts.append((b, group.element_of_residue(a % f)))
    return tuple(lifts)


def l_value_at_0(model: FieldModel, pset: PlaceSet, chi: Character):
    """Exact L_S(0, chi) = -B_{1,chi_0} * prod_{p in S, p coprime f0} (1 - chi_0(p))."""
    return l_values_at_0(model, pset, [chi])[0]


def l_values_at_0(model: FieldModel, pset: PlaceSet, chars):
    """[L_S(0, chi) for chi in chars], exact, one sum per Galois orbit:
    chi^u has chi's conductor, so L_S(0, chi^u) = sigma_u(L_S(0, chi)). The
    lifts b of a conductor f0 give their generator exponents and weights
    2b - f0 once; per orbit the weights land at k_b in w over Z/e, each Euler
    factor 1 - chi_0(q) maps w[k] to w[k] - w[k - k_q], and one reduction
    divides by -2 f0."""
    g, e = model.group, model.group.exponent
    by_conductor, orbit = {}, {}  # orbit: chi^u -> (L_S(0, chi), u)
    for chi in (chi for chi in chars if chi.exps not in orbit):  # lazily: one per orbit
        f0 = character_conductor(model, chi)
        if f0 not in by_conductor:
            lifts = _lifts(g, model.f, f0) if f0 > 1 else ((1, g.identity),)
            by_conductor[f0] = (  # f0 = 1: chi_0(q) = 1 at the one lift
                [2 * b - f0 for b, _ in lifts], list(zip(*(x for _, x in lifts))),
                [next(i for i, (b, _) in enumerate(lifts) if (b - q) % f0 == 0)
                 for q in pset.finite_primes() if f0 % q])
        wts, cols, euler = by_conductor[f0]
        ks = [0] * len(wts)
        for t, d, col in zip(chi.exps, g.invariant_factors, cols):
            ks = [k + t * e // d * x for k, x in zip(ks, col)]
        w = [0] * e
        for k, wt in zip(ks, wts):
            w[k % e] += wt
        for kq in (ks[i] % e for i in euler):
            w = [w[k] - w[k - kq] for k in range(e)]
        value = CyclotomicNumber.from_powers(e, w, -2 * f0)
        for u in (u for u in range(1, e + 1) if gcd(u, e) == 1):
            orbit.setdefault(tuple(u * t % d for t, d in zip(chi.exps, g.invariant_factors)),
                             (value, u))
    return [value.galois(u) for value, u in (orbit[chi.exps] for chi in chars)]


# ---------------------------------------------------------------------------
# partial zetas

def _lift_modulus(model: FieldModel, pset: PlaceSet):
    F = model.f
    for q in pset.finite_primes():
        if F % q:
            F *= q
    return F


def partial_zeta_all(model: FieldModel, pset: PlaceSet, k, ctx=None):
    """{sigma -> zeta_S(0, sigma)} (k = 0, exact) or its s-derivative
    (k = 1, mpf at ctx, memoized), summed over sigma's residues mod F; a
    relative model's, S = {infinity, p}, are folded out of the full field's."""
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if k and ctx is None:
        raise ValueError("derivative needs a PrecisionContext")
    if isinstance(model, RelativeModel):
        if pset.finite_primes() != [model.p]:
            raise ValueError(f"relative partial zetas need S = {{infinity, {model.p}}}")
        return _relative_fold(model, k, ctx)
    F = _lift_modulus(model, pset)
    classes = {e: [] for e in model.group.elements}
    for a in range(1, F):
        if gcd(a, F) == 1:
            classes[model.group.element_of_residue(a % model.f)].append(a)
    if k == 0:
        return {e: Fraction(len(c) * F - 2 * sum(c), 2 * F) for e, c in classes.items()}
    sums = _class_derivs(F, tuple(map(tuple, classes.values())), ctx)
    return {e: ctx.final(v) for e, v in zip(classes, sums)}


@lru_cache(maxsize=None)
def _class_derivs(F, classes, ctx):
    """(sum_{a in c} d/ds (F^-s zeta_H(s, a/F)) at s = 0 for c in classes) at
    ctx's guarded precision, memoized. By Lerch's and the reflection formula
    a pair a < F - a in one class sums to -log(2 sin(pi a / F)), read from
    the memo SUnit.log_abs reads. A residue without its partner (those of
    imaginary fields) adds log Gamma(a/F) - log(2 pi)/2 - log F (1/2 - a/F)."""
    out = []
    with ctx.guard():
        prec, W = mp.mp.prec, mp.mp.prec + GUARD_BITS
        for residues in classes:
            members = set(residues)
            pairs = [a for a in residues if 2 * a < F and F - a in members]
            lone = members.difference(pairs, (F - a for a in pairs))
            terms = [-_log_2_sin(a, F, prec) for a in pairs]
            if lone:
                terms += [_log_gamma_guarded(Fraction(a, F), prec) for a in lone]
                terms.append(-len(lone) * mp.log(2 * mp.pi) / 2 - sum(F - 2 * a for a in lone)
                             * mp.ldexp(log_scaled(F, 1, W), -W) / (2 * F))
            out.append(mp.fsum(terms))
    return tuple(out)


# ---------------------------------------------------------------------------
# Stickelberger-type elements

def stickelberger(model: FieldModel, pset: PlaceSet):
    """theta_S = sum_sigma zeta_S(0, sigma) sigma^{-1}, exact (zeta route).
    The partial zetas sum residues prime to the conductor, so S must hold
    every prime dividing it: ValueError names a prime that S omits."""
    g, zetas = model.group, partial_zeta_all(model, pset, 0)  # checks a relative S
    q = next((q for q, _ in factorize(model.f) if q not in pset.finite_primes()), None)
    if q is not None:
        raise ValueError(f"theta needs every prime dividing the conductor {model.f} "
                         f"in S, and S omits {q}")
    return GroupRingElement.from_dict(g, {g.inv(e): v for e, v in zetas.items()})


def stickelberger_classical(f):
    """sum_{a mod f} (a/f) sigma_a^{-1} on the full cyclotomic group."""
    g = make_field(f).group  # (Z/f)^x: one element per residue
    return GroupRingElement.from_dict(g, {g.inv(g.element_of_residue(a)): Fraction(a, f)
                                          for a in range(1, f) if gcd(a, f) == 1})


def half_stickelberger(model: RelativeModel):
    """theta~ = sum_{sigma in H} zeta_{S}(0, sigma) sigma^{-1} in Q[H],
    S = {infinity, p}; the partial zetas are those of the full field, whose
    class of sigma_b is the one residue b."""
    h = model.group
    return GroupRingElement.from_dict(
        h, {h.inv(e): Fraction(1, 2) - Fraction(h.label(e), model.f) for e in h.elements})


# ---------------------------------------------------------------------------
# orders of vanishing and leading terms

def vanishing_order(model: FieldModel, pset: PlaceSet, chi: Character):
    """r_S(chi) = #{v in S : chi trivial on D_v} - [chi trivial]."""
    r = sum(1 for pd in pset.places if chi.is_trivial_on(pd.decomposition))
    if chi.is_trivial():
        r -= 1
    return r


def character_sums(group, chars, values):
    """[sum_sigma chi(sigma) values[sigma] for chi in chars] as mpc, summed in
    the order of `values` at the working precision: call it under ctx.guard()."""
    roots = _root_table(group.exponent, mp.mp.prec)  # chi(sigma) = roots[exp]
    out = []
    for chi in chars:
        total = mp.mpc(0)
        for sigma, v in values.items():
            total += roots[chi.exp_at(sigma)] * v
        out.append(total)
    return out


def l_derivs_at_0(model: FieldModel, pset: PlaceSet, chars, ctx):
    """[L_S'(0, chi) = sum_sigma chi(sigma) zeta_S'(0, sigma) for chi in
    chars] as mpc, from one read of the partial-zeta derivatives."""
    zder = partial_zeta_all(model, pset, 1, ctx)
    with ctx.guard():
        sums = character_sums(model.group, chars, zder)
    return [ctx.final(x) for x in sums]


def l_deriv_at_0(model: FieldModel, pset: PlaceSet, chi: Character, ctx):
    """L_S'(0, chi), as mpc."""
    return l_derivs_at_0(model, pset, [chi], ctx)[0]


# ---------------------------------------------------------------------------
# relative setting: K = Q(zeta_{p^n}) over k = Q(sqrt(-p))

def _proj_g_to_h(g_group, h_group, f):
    """The projection G -> H along G = H x <c>: sigma_a -> sigma_{+-a in H}."""
    hres = {h_group.label(e) for e in h_group.elements}
    mapping = {}
    for e in g_group.elements:
        a = g_group.label(e)
        mapping[e] = h_group.element_of_residue(a if a in hres else (f - a) % f)
    hom = GroupHom(g_group, h_group, mapping)
    if not hom.surjective:
        raise ValueError(f"projection of (Z/{f})^x along -1 is not onto H")
    return hom


def _relative_fold(model: RelativeModel, k, ctx=None):
    """{sigma in H -> zeta_{k,S}(0, sigma)} (k = 0, exact) or its
    s-derivative (k = 1, mpf at ctx) for S = {infinity, p}, folded out of the
    full field's Z_S(s) = sum_sigma zeta_S(s, sigma) sigma:

        sum_sigma zeta_{k,S}(s, sigma) sigma = pi_H(Z_S(s) eps(Z_S(s))),

    with eps(x) the coefficientwise twist by the quadratic character of k
    (+1 on H, -1 off it) and pi_H the projection G -> H. For chi on H,
    chi o pi_H = chi_even and (chi o pi_H) eps = chi_odd, so the character
    values are L_{k,S}(s, chi) = L_S(s, chi_even) L(s, chi_odd). Every
    L_S(0, chi_even) vanishes, pi_H(Z_S(0)) = 0, and the derivative is
    pi_H(Z_S'(0)) pi_H(eps(Z_S(0))), summed fibre {b, f - b} by fibre."""
    f = model.f
    full, h = make_field(f), model.group
    pi_h = _proj_g_to_h(full.group, h, f)
    even = [Fraction(0)] * h.order  # pi_H(Z_S(0))
    odd = [Fraction(0)] * h.order   # pi_H(eps(Z_S(0)))
    for sigma, v in partial_zeta_all(full, place_set(full, (model.p,)), 0).items():
        i = h.index(pi_h(sigma))
        even[i] += v
        odd[i] += v if h.label(h.elements[i]) == full.group.label(sigma) else -v
    if k == 0:
        return dict(zip(h.elements, _convolve(h, even, odd)))
    if any(even):
        raise ArithmeticError("pi_H(Z_S(0)) is not 0: some L_S(0, chi_even) "
                              "does not vanish")
    d = lcm(1, *(x.denominator for x in odd))
    zd = _class_derivs(f, tuple((h.label(e), f - h.label(e)) for e in h.elements), ctx)
    with ctx.guard():
        out = _convolve(h, zd, [x.numerator * (d // x.denominator) for x in odd])
        return {e: ctx.final(mp.mpf(v) / d) for e, v in zip(h.elements, out)}
