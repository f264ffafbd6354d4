"""Group rings over finite abelian Galois groups: characters, idempotents,
integral lattices of fractional ideals, and finite modules with a G-action."""

import json
import os
import random
import subprocess
import sys
import time
from ast import literal_eval
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fracgalois.cyclo import CyclotomicNumber, factorize, is_prime
from fracgalois.gring import (Character, FinAbGroup, FiniteGModule, GroupHom,
                              GroupRingElement, IdealLattice, _perm_table,
                              abelian_group, characters, det_qg,
                              galois_group, hom_by_residues, norm_element,
                              subgroup_closure)
from fracgalois import intmat
from fracgalois.fields import select_field
from fracgalois.intmat import hnf_columns, span_contains
from fracgalois.lfun import _proj_g_to_h
from gmodules import (_oracle_annihilator, a8_draws, action_of, conjugated, draw_ideals,
                      module_from_ideals, validation_oracle)
from oracles import (assemble, fraction_contains_lattice, fraction_ell_contains,
                     gmodule_span_equal, group_ring_inverse, kernel_intersect,
                     kernel_lattice_annihilator, plain_hnf_ell_part, span_membership,
                     transport_character, z_span)


class CycGroupRingElement:
    """Group-ring element with cyclotomic coefficients (for idempotents)."""

    __slots__ = ("group", "c")
    __hash__ = None

    def __init__(self, group, coeffs):
        self.group = group
        self.c = tuple(coeffs)
        assert len(self.c) == group.order

    @classmethod
    def from_rational(cls, x):
        return cls(x.group, tuple(CyclotomicNumber.rational(v) for v in x.c))

    def __add__(self, other):
        assert self.group == other.group
        return CycGroupRingElement(self.group, tuple(a + b for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        g = self.group
        perms = _perm_table(g)
        out = [CyclotomicNumber.zero() for _ in range(g.order)]
        for i, x in enumerate(self.c):
            if not x.is_zero():
                pi = perms[i]
                for j, y in enumerate(other.c):
                    if not y.is_zero():
                        out[pi[j]] = out[pi[j]] + x * y
        return CycGroupRingElement(g, out)

    def __eq__(self, other):
        return (self.group == other.group
                and all((a - b).is_zero() for a, b in zip(self.c, other.c)))


def idempotent(chi):
    """e_chi = |G|^{-1} sum_sigma chi(sigma) sigma^{-1}."""
    g = chi.group
    n = Fraction(1, g.order)
    coeffs = []
    for e in g.elements:
        coeffs.append(chi.value(g.inv(e)) * n)
    return CycGroupRingElement(g, coeffs)


# ---------------------------------------------------------------------------
# groups and characters

def test_galois_group_f5_is_cyclic_generated_by_2():
    g = galois_group(5)
    assert g.order == 4
    assert g.invariant_factors == (4,)
    gen = g.generator_elements()[0]
    assert g.label(gen) == 2
    # 2 generates: 2, 4, 3, 1
    x = gen
    labels = [g.label(x)]
    for _ in range(3):
        x = g.mul(x, gen)
        labels.append(g.label(x))
    assert labels == [2, 4, 3, 1]


def test_subgroup_closure_matches_closing_under_all_pairs():
    rng = random.Random(1213)
    for f in (8, 15, 125, 169):
        units = [a for a in range(1, f) if gcd(a, f) == 1]
        for size in (1, 2, 3, 7):
            elems = rng.sample(units, min(size, len(units)))
            cur = frozenset(elems)
            while (nxt := cur | {a * b % f for a in cur for b in cur}) != cur:
                cur = nxt
            assert subgroup_closure(elems, lambda a, b: a * b % f) == cur


def test_galois_group_f8_is_klein_four():
    g = galois_group(8)
    assert g.order == 4
    assert g.invariant_factors == (2, 2)
    assert g.exponent == 2


def test_quotient_group_by_kernel():
    g = galois_group(5, frozenset({1, 4}))   # plus field of Q(zeta_5)
    assert g.order == 2
    labels = sorted(g.label(e) for e in g.elements)
    assert labels == [1, 2]                  # 2 and 3 = 2^{-1} collapse


def test_character_orthogonality():
    for f in [5, 8, 12]:
        g = galois_group(f)
        chars = characters(g)
        assert len(chars) == g.order
        for chi in chars:
            for psi in chars:
                total = CyclotomicNumber.zero()
                for e in g.elements:
                    total = total + chi.value(e) * psi.conj().value(e)
                if chi.exps == psi.exps:
                    assert total.is_rational() and total.as_fraction() == g.order
                else:
                    assert total.is_zero()


def test_characters_multiplicative():
    g = galois_group(7)
    for chi in characters(g):
        for a in g.elements:
            for b in g.elements:
                lhs = chi.value(g.mul(a, b))
                rhs = chi.value(a) * chi.value(b)
                assert (lhs - rhs).is_zero()


def test_idempotents_are_orthogonal_and_sum_to_one():
    g = galois_group(5)
    chars = characters(g)
    idems = [idempotent(chi) for chi in chars]
    total = idems[0]
    for e in idems[1:]:
        total = total + e
    assert total == CycGroupRingElement.from_rational(GroupRingElement.one(g))
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            prod = ei * ej
            if i == j:
                assert prod == ei
            else:
                zero = CycGroupRingElement.from_rational(GroupRingElement.zero(g))
                assert prod == zero


def test_transport_character_through_isomorphism():
    g5 = galois_group(5, frozenset({1, 4}))
    h = abelian_group((2,))
    mapping = {}
    for e in g5.elements:
        mapping[e] = h.elements[0] if g5.label(e) == 1 else h.elements[1]
    iso = GroupHom(g5, h, mapping)
    for chi in characters(g5):
        moved = transport_character(chi, iso)   # chi o iso^{-1} on h
        for e in g5.elements:
            assert (moved.value(iso(e)) - chi.value(e)).is_zero()


# ---------------------------------------------------------------------------
# group-ring elements

def _kappa(x):
    """The involution sigma -> sigma^{-1} applied coefficientwise."""
    g = x.group
    return GroupRingElement.from_dict(g, {g.inv(e): x.coeff(e) for e in g.elements})


def test_group_ring_arithmetic_and_kappa():
    g = galois_group(5)
    x = GroupRingElement.from_dict(g, {g.element_of_residue(2): Fraction(3, 2),
                                       g.identity: Fraction(-1)})
    y = GroupRingElement.basis(g, g.element_of_residue(3))
    prod = x * y
    # (3/2 s2 - 1) s3 = 3/2 s6 - s3 = 3/2 s1 - s3
    assert prod.coeff(g.identity) == Fraction(3, 2)
    assert prod.coeff(g.element_of_residue(3)) == -1
    # kappa sends sigma to sigma^{-1}: 2^{-1} = 3 mod 5, and the product of
    # an abelian group ring commutes with it
    kx = _kappa(x)
    assert kx.coeff(g.element_of_residue(3)) == Fraction(3, 2)
    assert kx.coeff(g.identity) == -1
    assert _kappa(kx) == x
    assert _kappa(x * y) == _kappa(x) * _kappa(y)
    assert not x.is_integral()
    assert x.denominator() == 2
    assert (x * Fraction(2)).is_integral()


def test_norm_and_plus_idempotent():
    g = galois_group(5)
    x = GroupRingElement.from_dict(g, {g.element_of_residue(2): Fraction(3, 2),
                                       g.identity: Fraction(-1)})
    n = norm_element(g)
    assert n * n == n * 4
    assert n * x == n * Fraction(1, 2)      # the augmentation of x is 3/2 - 1
    c = g.element_of_residue(4)              # conjugation for f = 5
    e = (GroupRingElement.basis(g, g.identity, Fraction(1, 2))
         + GroupRingElement.basis(g, c, Fraction(1, 2)))
    assert e * e == e
    assert e * GroupRingElement.basis(g, c) == e
    assert e * n == n


def test_apply_character_is_a_ring_map():
    g = galois_group(7)
    rng = random.Random(3)
    for chi in characters(g):
        x = GroupRingElement(g, [Fraction(rng.randint(-4, 4)) for _ in g.elements])
        y = GroupRingElement(g, [Fraction(rng.randint(-4, 4)) for _ in g.elements])
        lhs = (x * y).apply_character(chi)
        rhs = x.apply_character(chi) * y.apply_character(chi)
        assert (lhs - rhs).is_zero()


def test_assemble_round_trip():
    g = galois_group(12)
    rng = random.Random(17)
    x = GroupRingElement(g, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                             for _ in g.elements])
    vals = {chi: x.apply_character(chi) for chi in characters(g)}
    assert assemble(g, vals) == x


def test_assemble_rejects_non_equivariant_data():
    g = galois_group(5)
    vals = {}
    for chi in characters(g):
        # 1 on the trivial character, 1/3 elsewhere: not Galois-equivariant
        vals[chi] = Fraction(1) if chi.is_trivial() else Fraction(1, 3)
    x = assemble(g, vals)
    # equivariant rational data would reproduce itself; check consistency
    for chi in characters(g):
        v = x.apply_character(chi)
        if chi.is_trivial():
            assert v.is_rational() and v.as_fraction() == 1
        else:
            assert v.is_rational() and v.as_fraction() == Fraction(1, 3)


def test_divide_by_a_unit_and_by_a_zero_divisor():
    g = galois_group(5)
    unit = IdealLattice.unit_ideal(g)
    u = GroupRingElement.basis(g, g.element_of_residue(2)) + GroupRingElement.one(g) * 2
    assert unit.divide(u) == unit.scale(group_ring_inverse(u))
    assert unit.divide(u).scale(u) == unit
    with pytest.raises(ZeroDivisionError, match=r"not invertible: chi=\(0,\) kills it"):
        unit.divide(norm_element(g) - GroupRingElement.one(g) * 4)  # trivial character kills it


def test_scale_and_divide_on_products_of_cyclics_and_their_witness():
    """On cyclic groups, products of cyclics and a Galois group of order 30,
    dividing Z[G] by an invertible x is scaling it by the oracle's x^-1, and
    scale and divide refuse a singular x naming a character that kills x."""
    from fracgalois.fields import plus_field
    rng = random.Random(14)
    groups = [abelian_group((n,)) for n in range(1, 13)]
    groups += [abelian_group(d) for d in ((2, 2), (2, 4), (2, 2, 2))]
    groups.append(plus_field(61).group)
    for g in groups:
        one = GroupRingElement.one(g)
        unit = IdealLattice.unit_ideal(g)
        for _ in range(3):
            x = GroupRingElement(g, [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                                     for _ in range(g.order)])
            try:
                y = group_ring_inverse(x)
            except ZeroDivisionError:
                continue
            assert x * y == one and y * x == one
            assert unit.divide(x) == unit.scale(y)
        if g.order == 1:
            continue
        # (1 + s) for s of order 2 is killed by the characters with chi(s) = -1,
        # (s - 1) by those trivial on s
        s = next((e for e in g.elements[1:] if g.mul(e, e) == g.identity), g.elements[1])
        sign = 1 if g.mul(s, s) == g.identity else -1
        x = GroupRingElement(g, [rng.randint(1, 9) for _ in range(g.order)]) * (
            GroupRingElement.basis(g, s) + one * sign)
        for op in (unit.scale, unit.divide):
            with pytest.raises(ZeroDivisionError, match="not invertible") as exc:
                op(x)
            exps = literal_eval(str(exc.value).split("chi=")[1].split(" kills")[0])
            assert x.apply_character(Character(g, exps)).is_zero()


def test_project_along_hom():
    g25 = galois_group(25)
    g5 = galois_group(5)
    pi = hom_by_residues(g25, g5)
    assert pi.surjective and not pi.injective
    x = GroupRingElement.basis(g25, g25.element_of_residue(7))
    assert x.project(pi) == GroupRingElement.basis(g5, g5.element_of_residue(2))


def _project_test_maps():
    """The maps the checks project lattices along, at p = 7, 11 and f = 9:
    full to plus by residues, G onto H of the relative field (BCH) and the
    isomorphism from the plus group back to H (JREL); and (2, 4) onto (4,)."""
    maps = []
    for f in (7, 11, 9):
        full, plus, rel = (select_field(f, sub)[0].group for sub in ("full", "plus", "relative"))
        iso = hom_by_residues(rel, plus)
        maps += [pytest.param(hom_by_residues(full, plus), id=f"{f}-full-plus"),
                 pytest.param(_proj_g_to_h(full, rel, f), id=f"{f}-full-relative"),
                 pytest.param(GroupHom(plus, rel, {iso(e): e for e in rel.elements}),
                              id=f"{f}-plus-relative")]
    c24, c4 = abelian_group((2, 4)), abelian_group((4,))
    hom = GroupHom(c24, c4, {e: ((2 * e[0] + e[1]) % 4,) for e in c24.elements})
    return maps + [pytest.param(hom, id="C2xC4-C4")]


@pytest.mark.parametrize("hom", _project_test_maps())
def test_lattice_project_equals_the_span_of_projected_basis_elements(hom):
    """IdealLattice.project, integer columns summed over the fibres, equals
    the Z[G']-span of the GroupRingElement.project images of the basis, and
    their Z-span too: the image of an ideal is one."""
    rng = random.Random(repr(hom.source) + repr(hom.target))
    g = hom.source
    checked = 0
    while checked < 3:
        gens = [GroupRingElement(g, [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4)))
                                     for _ in range(g.order)]) for _ in range(2)]
        try:
            lat = IdealLattice.from_generators(g, gens)
        except ValueError:                  # rank-deficient draw
            continue
        checked += 1
        images = [b.project(hom) for b in lat.basis_elements()]
        projected = lat.project(hom)
        assert projected == IdealLattice.from_generators(hom.target, images) == z_span(
            hom.target, images)


def test_group_hom_rejects_non_homomorphism():
    g = galois_group(5)
    h = abelian_group((2,))
    mapping = {e: (h.elements[1] if g.label(e) in (2, 4) else h.elements[0])
               for e in g.elements}
    with pytest.raises(ValueError, match=r"not a homomorphism at \(\d+,\), \(1,\)"):
        GroupHom(g, h, mapping)   # 2*2=4 would need 1+1=... inconsistent
    # a trivial source has no generator: its identity must still map to 1
    trivial = abelian_group(())
    with pytest.raises(ValueError, match=r"not a homomorphism at \(\), \(\)"):
        GroupHom(trivial, h, {trivial.identity: h.elements[1]})
    assert GroupHom(trivial, h, {trivial.identity: h.identity}).injective


# ---------------------------------------------------------------------------
# ideal lattices

def test_lattice_unit_ideal_and_membership():
    g = galois_group(5)
    unit = IdealLattice.unit_ideal(g)
    x = GroupRingElement.from_dict(g, {g.identity: Fraction(7),
                                       g.element_of_residue(3): Fraction(-2)})
    assert unit.contains_element(x)
    assert not unit.contains_element(x * Fraction(1, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([5, 7, 8, 9, 13]), st.integers(0, 2 ** 32))
def test_contains_element_agrees_with_span_contains(f, seed):
    """Membership through the lattice's coordinates equals membership of
    den * x in the integer span of its HNF columns, on members, near misses
    and elements with denominators. Between lattices with mixed denominators,
    contains_lattice and ell_contains at ell = 2, 3 (verdict and witness)
    equal the oracle's Fraction coordinates of each basis element."""
    rng = random.Random(seed)
    g = galois_group(f)

    def small(dens):
        return GroupRingElement(g, [Fraction(rng.randint(-4, 4), rng.choice(dens))
                                    for _ in range(g.order)])

    gens = [small([1, 2, 3]) for _ in range(rng.randint(1, 3))]
    try:
        lat = IdealLattice.from_generators(g, gens)
    except ValueError:                      # rank-deficient draw
        return
    member = GroupRingElement.zero(g)
    for b in lat.basis_elements():
        member = member + b * rng.randint(-2, 2)
    for x in (member, member + small([1]), member * Fraction(1, 2), small([1, 2, 4, 6])):
        w = [q * lat.den for q in x.c]
        expected = (all(q.denominator == 1 for q in w)
                    and span_contains([list(c) for c in lat.cols], [int(q) for q in w]))
        assert lat.contains_element(x) == expected
    others = [lat.scale(Fraction(rng.choice([1, 2, 3, 6]), rng.choice([1, 2, 3]))),
              lat.add(lat.scale(Fraction(1, rng.choice([2, 3]))))]
    try:
        others.append(IdealLattice.from_generators(g, [small([1, 2, 4, 6]) for _ in range(2)]))
    except ValueError:                      # rank-deficient draw
        pass
    for a, b in [(lat, o) for o in others] + [(o, lat) for o in others]:
        assert a.contains_lattice(b) == fraction_contains_lattice(a, b)
        for ell in (2, 3):
            assert a.ell_contains(b, ell) == fraction_ell_contains(a, b, ell)


def test_lattice_equality_is_span_equality():
    g = galois_group(5, frozenset({1, 4}))
    one = GroupRingElement.one(g)
    s = GroupRingElement.basis(g, g.element_of_residue(2))
    l1 = IdealLattice.from_generators(g, [one, (one + s) * Fraction(1, 2)])
    # s alone regenerates 1 under the group closure; same span, other list
    l2 = IdealLattice.from_generators(g, [s, (one + s) * Fraction(1, 2)])
    assert l1 == l2
    assert l1.to_jsonable() == {"den": 2, "cols": [[2, 0], [1, 1]],
                                "labels": ["1", "2"]}


def test_lattice_scale_and_covolume():
    g = galois_group(5)
    unit = IdealLattice.unit_ideal(g)
    assert unit.covolume() == 1
    doubled = unit.scale(Fraction(2))
    assert doubled.covolume() == 16          # 2^4
    u = GroupRingElement.basis(g, g.element_of_residue(2)) + GroupRingElement.one(g) * 2
    scaled = unit.scale(u)
    assert scaled.divide(u) == unit == scaled.scale(group_ring_inverse(u))


def test_lattice_scale_by_a_zero_divisor_names_the_character():
    g = galois_group(5)
    unit = IdealLattice.unit_ideal(g)
    killed = norm_element(g) - GroupRingElement.one(g) * 4   # trivial chi: 4 - 4
    with pytest.raises(ZeroDivisionError, match=r"not invertible: chi=.* kills it"):
        unit.scale(killed)


def test_lattice_algebra():
    g = galois_group(5, frozenset({1, 4}))
    one = GroupRingElement.one(g)
    s = GroupRingElement.basis(g, g.element_of_residue(2))
    a = IdealLattice.from_generators(g, [one * 2, one + s])
    b = IdealLattice.from_generators(g, [one * 3])
    assert a.add(b) == IdealLattice.unit_ideal(g)      # gcd(2+.., 3) = 1
    assert a.multiply(b) == a.scale(Fraction(3))
    inter = a.intersect(b)
    assert inter == a.scale(Fraction(3))               # b = 3 Z[G]
    assert a.contains_lattice(inter)
    assert b.contains_lattice(inter)


@pytest.mark.parametrize("few", [True, False])
@pytest.mark.parametrize("factors", [(4,), (6,), (2, 2), (2, 4)])
def test_lattice_ops_equal_spans_of_basis_products(factors, few):
    """scale, add, multiply and intersect, which work on integer columns,
    agree with the ideals spanned by the GroupRingElement products of the
    basis elements; the ideals have 1 or 2 (few) or |G| + 1 generators with
    mixed denominators."""
    rng = random.Random(repr((factors, few)))
    g = abelian_group(factors)
    one = GroupRingElement.one(g)

    def small():
        return GroupRingElement(g, [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 4]))
                                    for _ in range(g.order)])

    def lattice():
        while True:
            count = rng.randint(1, 2) if few else g.order + 1
            try:
                return IdealLattice.from_generators(g, [small() for _ in range(count)])
            except ValueError:              # rank-deficient draw
                pass

    def span(gens):
        return IdealLattice.from_generators(g, gens)

    for _ in range(4):
        a, b = lattice(), lattice()
        ab, bb = a.basis_elements(), b.basis_elements()
        q = Fraction(-rng.randint(1, 6), rng.randint(1, 6))
        # |4/3| > |chi(h)/1| for every character chi: u is invertible
        u = (one * Fraction(rng.randint(4, 7), rng.randint(1, 3))
             + GroupRingElement.basis(g, rng.choice(g.elements),
                                      Fraction(rng.choice([-1, 1]), rng.randint(1, 3))))
        assert a.scale(q) == span([x * q for x in ab])
        assert a.scale(u) == span([u * x for x in ab])
        assert a.add(b) == span(ab + bb)
        assert a.multiply(b) == span([x * y for x in ab for y in bb])
        # a cap b: inside both, with [a : a cap b] = [a + b : b]
        inter = a.intersect(b)
        assert inter == kernel_intersect(a, b)
        assert a.contains_lattice(inter) and b.contains_lattice(inter)
        assert inter.covolume() * a.add(b).covolume() == a.covolume() * b.covolume()


@pytest.mark.parametrize("factors", [(5,), (6,), (7,), (2, 4), (3, 3)])
def test_bounded_division_equals_scaling_by_the_inverse(factors, monkeypatch):
    """L.divide(u) = (u* L^*)^* takes two duals, each an `hnf_mod` modulo the
    first pivot of the lattice it dualizes (L, then u* L^*), whose entries
    stay below it, and gives the lattice that L.scale(u^-1) gives, u^-1 from
    the oracle's solve. The lattices are ideals spanned by random generators
    (not diagonal, some with denominators); u is integral as INDF's twists
    are, or rational."""
    rng = random.Random(repr(factors))
    g = abelian_group(factors)
    n = g.order
    handed = []
    hnf_mod = intmat.hnf_mod

    def capturing(cols, d, n):
        cols = [list(col) for col in cols]
        handed.append((cols, d, n))
        return hnf_mod(cols, d, n)

    def element(dens):
        return GroupRingElement(g, [Fraction(rng.randint(-2, 2), rng.choice(dens))
                                    for _ in range(n)])

    checked = diagonal = 0
    while checked < 8:
        try:
            lat = IdealLattice.from_generators(
                g, [element((1,) if checked % 2 else (1, 2, 3)) for _ in range(2)])
            u = element((1,) if checked < 6 else (1, 2))
            u_inv = group_ring_inverse(u)
        except (ValueError, ZeroDivisionError):   # rank-deficient or singular draw
            continue
        checked += 1
        diagonal += all(x == 0 for t, col in enumerate(lat.cols) for x in col[:t])
        handed.clear()
        monkeypatch.setattr(intmat, "hnf_mod", capturing)
        divided = lat.divide(u)
        monkeypatch.setattr(intmat, "hnf_mod", hnf_mod)
        assert divided == lat.scale(u_inv)
        u_star = GroupRingElement(g, [u.coeff(g.inv(x)) for x in g.elements])
        pivots = {lat.cols[0][0], lat.dual().scale(u_star).cols[0][0]}
        assert {d for _, d, _ in handed} == pivots
        assert all(rows == n and len(cols) == n for cols, _, rows in handed)
    assert diagonal < checked


def _dual_test_groups():
    from fracgalois.fields import plus_field
    return ([abelian_group((n,)) for n in (2, 3, 4, 5, 6, 8, 9, 12)]
            + [abelian_group(d) for d in ((2, 2), (2, 4), (3, 3), (2, 2, 2))]
            + [plus_field(61).group])


@pytest.mark.parametrize("g", _dual_test_groups(), ids=repr)
def test_dual_divide_and_intersect_equal_their_oracles(g):
    """On cyclic groups, products of cyclics and the order-30 Galois group of
    the plus field of conductor 61, for random ideals L and M (mixed
    denominators) and rational u: L^* pairs integrally with L and has the
    inverse covolume, L^** = L, u^-1 L is the scaling by the oracle's
    inverse, u (u^-1 L) = L, and L cap M is the kernel-lattice oracle's."""
    rng = random.Random(repr(g))
    n = g.order

    def element():
        return GroupRingElement(g, [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                                    for _ in range(n)])

    def ideal():
        while True:
            try:
                return IdealLattice.from_generators(g, [element() for _ in range(2)])
            except ValueError:   # rank-deficient draw
                pass

    checked = 0
    while checked < 3:
        lat, other, u = ideal(), ideal(), element()
        try:
            u_inv = group_ring_inverse(u)
        except ZeroDivisionError:
            continue
        checked += 1
        dual = lat.dual()
        assert dual.covolume() * lat.covolume() == 1
        assert all(sum(x * y for x, y in zip(a.c, b.c)).denominator == 1
                   for a in lat.basis_elements() for b in dual.basis_elements())
        assert dual.dual() == lat
        divided = lat.divide(u)
        assert divided == lat.scale(u_inv)
        assert divided.scale(u) == lat
        assert lat.intersect(other) == kernel_intersect(lat, other)


def test_lattice_from_generators_rejects_rank_deficiency():
    g = galois_group(5)
    theta_like = GroupRingElement.from_dict(
        g, {g.identity: Fraction(1), g.element_of_residue(4): Fraction(-1)})
    # (1 - c) spans only the minus part: not full rank in Q[G]
    with pytest.raises(ValueError):
        IdealLattice.from_generators(g, [theta_like])


def test_ell_contains_and_its_witness():
    g = galois_group(5, frozenset({1, 4}))
    one = GroupRingElement.one(g)
    s = GroupRingElement.basis(g, g.element_of_residue(2))
    ann = IdealLattice.from_generators(g, [one * 2, one + s])
    half = (one + s) * Fraction(1, 2)
    target = IdealLattice.from_generators(g, [one, half])
    # at ell = 3 the index-2 discrepancy is invisible
    ok, _ = ann.ell_contains(target.scale(Fraction(2)), 3)
    assert ok
    assert ann.ell_contains(IdealLattice.unit_ideal(g), 3) == (True, None)
    # at ell = 2 it is visible: 1 = (2 + 0 s) / 2 is not in ann 2-adically
    assert ann.ell_contains(IdealLattice.unit_ideal(g), 2) == (
        False, {"basis_index": 0, "coordinate": "1/2"})


def test_span_membership_and_gmodule_span_equal():
    g = galois_group(3)
    one = GroupRingElement.one(g)
    s = GroupRingElement.basis(g, g.element_of_residue(2))
    theta = (one - s) * Fraction(1, 6)
    # sigma * theta = -theta: the Z[G]-span has Z-rank 1
    assert gmodule_span_equal([theta], [theta * -1], g)
    assert gmodule_span_equal([theta], [s * theta], g)
    assert not gmodule_span_equal([theta], [theta * Fraction(1, 2)], g)
    assert span_membership([theta], theta * 7)
    assert not span_membership([theta], one)


# ---------------------------------------------------------------------------
# finite modules: structure, annihilator, Fitting

def brute_force_annihilator_box(mod, bound=3):
    """All x in a coefficient box annihilating every module generator."""
    g = mod.group
    n = g.order
    out = []

    def rec(prefix):
        if len(prefix) == n:
            x = GroupRingElement(g, [Fraction(c) for c in prefix])
            if all(_kills(mod, x, j) for j in range(mod.k)):
                out.append(x)
            return
        for c in range(-bound, bound + 1):
            rec(prefix + [c])
    rec([])
    return out


def _kills(mod, x, j):
    """x * e_j = 0 in the module, computed elementwise."""
    k = mod.k
    vec = [0] * k
    for e in mod.group.elements:
        c = x.coeff(e)
        if not c:
            continue
        mat = action_of(mod, e)
        for i in range(k):
            vec[i] += int(c) * mat[i][j]
    from fracgalois.intmat import span_contains
    rel = [list(col) for col in mod.relations]
    return span_contains(rel, vec)


def test_annihilator_matches_brute_force_on_small_module():
    g = abelian_group((2,))
    # M = Z/4 with the generator acting by -1
    mod = FiniteGModule(g, 1, [(4,)], [((-1,),)])
    ann = mod.annihilator()
    for x in brute_force_annihilator_box(mod, bound=4):
        assert ann.contains_element(x)
    # and conversely the basis annihilates
    for b in ann.basis_elements():
        assert all(_kills(mod, b, j) for j in range(mod.k))
    assert mod.order() == 4
    assert mod.structure() == (4,)


def test_cyclic_module_fitting_equals_annihilator_equals_ideal():
    g = galois_group(5, frozenset({1, 4}))
    one = GroupRingElement.one(g)
    s = GroupRingElement.basis(g, g.element_of_residue(2))
    ideal = IdealLattice.from_generators(g, [one * 2, one + s])
    # regular representation of M = Z[G]/ideal
    cols = ideal.cols
    shift = [[0, 1], [1, 0]]                 # action of s on (1, s) coordinates
    mod = FiniteGModule(g, 2, [tuple(c) for c in cols], [tuple(map(tuple, shift))])
    assert mod.annihilator() == ideal
    assert mod.fitting_ideal() == ideal
    assert mod.order() == ideal.covolume()


def test_swap_action_module_is_cyclic_in_disguise():
    g = abelian_group((2,))
    # M = Z/2 + Z/2 with swap action: s e1 = e2, so e1 generates over Z[G]
    mod = FiniteGModule(g, 2, [(2, 0), (0, 2)], [((0, 1), (1, 0))])
    ann = mod.annihilator()
    fitt = mod.fitting_ideal()
    one = GroupRingElement.one(g)
    assert ann == IdealLattice.from_generators(g, [one * 2])
    assert fitt == ann                       # cyclic: M = Z[G]/2Z[G]
    for b in ann.basis_elements():
        assert all(_kills(mod, b, j) for j in range(mod.k))


def test_fitting_strictly_contained_in_annihilator_noncyclic():
    g = abelian_group((2,))
    # M = Z/2 + Z/2 with the trivial action: genuinely needs two generators
    mod = FiniteGModule(g, 2, [(2, 0), (0, 2)], [((1, 0), (0, 1))])
    ann = mod.annihilator()
    fitt = mod.fitting_ideal()
    assert ann.contains_lattice(fitt)
    assert not fitt.contains_lattice(ann)    # strict for non-cyclic M
    one = GroupRingElement.one(g)
    s = GroupRingElement.basis(g, g.elements[1])
    assert ann.contains_element(one * 2)
    assert ann.contains_element(one - s)
    assert not ann.contains_element(one)
    # Fitt = (4, 2(s-1), (s-1)^2) = (4, 2 - 2s)
    assert fitt == IdealLattice.from_generators(g, [one * 4, (one - s) * 2])
    for b in ann.basis_elements():
        assert all(_kills(mod, b, j) for j in range(mod.k))


# the oracle runs where the full presentation has at most this many minors
ORACLE_MINORS = 1000


def _oracle_fitting_ideal(mod):
    """Fitt^0 from every k x k minor of the unshrunk induced presentation
    [relations | g I - A_g]: C(ncols, k) determinants over Q[G]."""
    g = mod.group
    k = mod.k
    one = GroupRingElement.one(g)
    cols = [[one * x for x in col] for col in mod.relations]
    for gi, mat in zip(g.generator_elements(), mod.action):
        s = GroupRingElement.basis(g, gi)
        for t in range(k):
            cols.append([(s if i == t else GroupRingElement.zero(g))
                         - one * mat[i][t] for i in range(k)])
    minors = [det_qg([[cols[j][i] for j in sel] for i in range(k)], g)
              for sel in combinations(range(len(cols)), k)]
    return z_span(g, [d for d in minors if not d.is_zero()])


def test_fitting_ideal_matches_closed_form_and_full_minor_enumeration():
    """Fitt(Z[G]/I + Z[G]/I') = I I' over cyclic and non-cyclic G, in the
    regular basis and in a random unimodular one; where the full
    presentation has at most ORACLE_MINORS minors, the unshrunk enumeration
    gives the same ideal."""
    rng = random.Random(7007)
    oracled = 0
    for factors, m0 in (((2,), 3), ((3,), 2), ((4,), 3), ((5,), 2), ((6,), 5),
                        ((2, 2), 3), ((2, 4), 2)):
        g = abelian_group(factors)
        for count in (1, 2):
            lats = draw_ideals(rng, g, m0, count)
            want = lats[0] if count == 1 else lats[0].multiply(lats[1])
            mod = module_from_ideals(g, lats)
            conj = conjugated(rng, mod)
            assert mod.fitting_ideal() == want, (factors, count)
            assert conj.fitting_ideal() == want, (factors, count)
            if count == 1:  # Fitt is ann on a cyclic module; so are the minors
                assert mod._fitting_minors() == conj._fitting_minors() == want, factors
            ncols = len(mod.relations) + mod.k * len(factors)
            if comb(ncols, mod.k) <= ORACLE_MINORS:
                assert _oracle_fitting_ideal(mod) == want, (factors, count)
                oracled += 1
    assert oracled == 8


def test_fitting_ideal_without_unit_entries_matches_full_minor_enumeration():
    # (Z/2)^2 with the trivial action of C_2 and of C_2 x C_2: every entry
    # of [2 I | (g - 1) I] is a non-unit, so nothing is eliminated
    for factors in ((2,), (2, 2)):
        g = abelian_group(factors)
        ident = ((1, 0), (0, 1))
        mod = FiniteGModule(g, 2, [(2, 0), (0, 2)], [ident] * len(factors))
        assert mod.fitting_ideal() == _oracle_fitting_ideal(mod)
    one = GroupRingElement.one(g)
    s = GroupRingElement.basis(g, g.elements[1])
    t = GroupRingElement.basis(g, g.elements[2])
    # (4, 2(s - 1), 2(t - 1), (s - 1)^2, (s - 1)(t - 1), (t - 1)^2)
    assert mod.fitting_ideal() == IdealLattice.from_generators(g, [
        one * 4, (s - one) * 2, (t - one) * 2, (s - one) * (t - one)])


def leibniz_det(rows, g):
    """det over Q[G] as the signed sum over permutations of products of
    entries: no elimination, no characters."""
    k = len(rows)
    total = GroupRingElement.zero(g)
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(k), 2))
        term = GroupRingElement.one(g) * (-1) ** inversions
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def test_det_qg_agrees_with_per_character_determinants():
    # the packed elimination in Z[x] must produce the element the Leibniz
    # expansion defines, so chi(det) = det(chi(entries)) for every chi
    rng = random.Random(411)

    def random_matrix(g, k):
        return [[GroupRingElement(
            g, [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                for _ in range(g.order)]) for _ in range(k)] for _ in range(k)]

    for g in (abelian_group((6,)), abelian_group((2, 4))):
        for k in (1, 2, 3):
            rows = random_matrix(g, k)
            assert det_qg(rows, g) == leibniz_det(rows, g)
    # 1 x 1 and 2 x 2 matrices over C_2 x C_4, and k = 4 over a product of
    # three factors and one of two non-trivial chains
    g = abelian_group((2, 4))
    for k in (1, 2):
        for _ in range(6):
            rows = random_matrix(g, k)
            assert det_qg(rows, g) == leibniz_det(rows, g)
    for g in (abelian_group((2, 2, 2)), abelian_group((3, 6))):
        rows = random_matrix(g, 4)
        assert det_qg(rows, g) == leibniz_det(rows, g)
    # multiplicativity and triangular product, on a cyclic group
    g = abelian_group((6,))
    a, b = random_matrix(g, 2), random_matrix(g, 2)
    ab = [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
          for i in range(2)]
    assert det_qg(ab, g) == det_qg(a, g) * det_qg(b, g)
    t = random_matrix(g, 3)
    t[1][0] = t[2][0] = t[2][1] = GroupRingElement.zero(g)
    assert det_qg(t, g) == t[0][0] * t[1][1] * t[2][2]


def test_det_qg_refuses_a_non_square_matrix():
    g = abelian_group((3,))
    one = GroupRingElement.one(g)
    with pytest.raises(ValueError, match="square matrix, got 2 rows of lengths \\[2, 1\\]"):
        det_qg([[one, one], [one]], g)


def test_ell_part_extracts_primary_component():
    g = abelian_group((2,))
    mod = FiniteGModule(g, 1, [(6,)], [((-1,),)])   # Z/6, action -1
    three = mod.ell_part(3)
    assert three.order() == 3
    two = mod.ell_part(2)
    assert two.order() == 2
    assert mod.ell_part(5).order() == 1


@pytest.mark.parametrize("seed", range(6))
def test_structure_of_a_diagonal_hnf_matches_smith_normal_form(seed):
    # entries share factors (2, 3, 5), so the gcd/lcm sweep has to split them
    rng = random.Random(seed)
    k = rng.randint(1, 9)
    diag = [rng.choice([1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 18, 30]) for _ in range(k)]
    rels = [tuple(d if i == j else 0 for i in range(k)) for j, d in enumerate(diag)]
    g = abelian_group((2,))
    mod = FiniteGModule(g, k, rels, [intmat.identity_matrix(k)])
    _, d, _ = intmat.smith_normal_form([list(r) for r in rels])
    assert mod.structure() == tuple(d[i][i] for i in range(k) if d[i][i] > 1)


def test_ell_part_minimizes_presentation():
    # generators killed by the ell-localization are dropped, so downstream
    # Fitting-ideal minors stay tractable even when the prime-to-ell part
    # was presented on many generators
    g = abelian_group((2,))
    mod = FiniteGModule(g, 2, [(6, 0), (0, 2)], [((1, 0), (0, 1))])
    three = mod.ell_part(3)
    assert three.k == 1
    assert three.structure() == (3,)
    one = GroupRingElement.one(g)
    s = GroupRingElement.basis(g, g.elements[1])
    assert three.fitting_ideal() == IdealLattice.from_generators(
        g, [one * 3, one - s])
    assert mod.ell_part(5).k == 0
    assert mod.ell_part(5).fitting_ideal() == IdealLattice.unit_ideal(g)


def test_module_validation_rejects_infinite_and_inconsistent():
    # one case per check of the constructor, matched on its message; each is
    # a ValueError, not an assert, so it still runs under python -O
    c2, c2c4 = abelian_group((2,)), abelian_group((2, 4))
    ident, swap = ((1, 0), (0, 1)), ((0, 1), (1, 0))
    cases = (
        ((c2, 1, [(5,)], []), "need 1 action matrices"),
        ((c2, 2, [(2, 0), (0, 2)], [((1, 0),)]), "action matrix is not 2 x 2"),
        ((c2, 2, [(2, 0)], [ident]), "not full rank: module is infinite"),
        # the swap takes the relation (2, 0) of Z/2 + Z/4 to (0, 2)
        ((c2, 2, [(2, 0), (0, 4)], [swap]), "action does not preserve relations"),
        # 2^2 = 4 != 1 mod 5
        ((c2, 1, [(5,)], [((2,),)]), "order does not divide group order"),
        ((c2c4, 2, [(5, 0), (0, 5)], [swap, ((1, 0), (0, 2))]),
         "action matrices do not commute mod relations"),
    )
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            FiniteGModule(*args)


def _constructor_message(args):
    try:
        FiniteGModule(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_module_validation_on_orbits_matches_dense_matrix_checks():
    """The constructor checks the action on the generator orbits; it must
    accept and reject exactly as the dense square-and-multiply and pairwise
    commutation checks do, with the same message. Each group gets a seeded
    module, its conjugate, the free (Z/p)[G]-module (which every matrix
    maps into its relations) and that module with generator 0 acting
    trivially, then copies with one action entry changed by +-1 or +-2."""
    rng = random.Random(2016)
    seen = set()
    for factors, trials in (((6,), 12), ((55,), 3), ((2, 4), 12), ((3, 3), 12)):
        g = abelian_group(factors)
        p = next(q for q in range(2, factors[0] + 1) if factors[0] % q == 0)
        seeded = module_from_ideals(g, draw_ideals(rng, g, 3, 1))
        free = module_from_ideals(
            g, [IdealLattice.from_generators(g, [GroupRingElement.one(g) * p])])
        ident = intmat.identity_matrix(free.k)
        mods = [(m.k, m.relations, [[list(r) for r in a] for a in m.action])
                for m in (seeded, conjugated(rng, seeded), free)]
        mods.append((free.k, free.relations, [ident] + mods[-1][2][1:]))
        for k, relations, action in mods:
            assert _constructor_message((g, k, relations, action)) is None
            for _ in range(trials):
                i, r, c = rng.randrange(len(action)), rng.randrange(k), rng.randrange(k)
                bad = [[row[:] for row in a] for a in action]
                bad[i][r][c] += rng.choice((-2, -1, 1, 2))
                message = _constructor_message((g, k, relations, bad))
                assert message == validation_oracle(g, k, relations, bad)
                seen.add(message)
    assert seen == {None, "action does not preserve relations",
                    "action generator order does not divide group order",
                    "action matrices do not commute mod relations"}


def test_validation_walks_the_orbits_that_annihilator_reads(monkeypatch):
    """After validate=True, annihilator() reduces no vector: it reads the
    generator orbits that the constructor walked."""
    rng = random.Random(55)
    for factors in ((6,), (2, 4)):
        g = abelian_group(factors)
        mod = conjugated(rng, module_from_ideals(g, draw_ideals(rng, g, 3, 2)))
        args = (g, mod.k, mod.relations, mod.action)
        calls = []
        reduce = FiniteGModule._reduce
        monkeypatch.setattr(FiniteGModule, "_reduce",
                            lambda self, v: calls.append(1) or reduce(self, v))
        checked = FiniteGModule(*args)
        walked = len(calls)
        ann = checked.annihilator()
        assert walked > 0 and len(calls) == walked
        unchecked = FiniteGModule(*args, validate=False)
        assert unchecked.annihilator() == ann and len(calls) > walked
        monkeypatch.undo()


def test_module_puts_its_relations_in_hnf_once(monkeypatch):
    """Validation, structure, order, annihilator and Fitting ideal all read
    one HNF of the relations, and agree with an unvalidated module."""
    from fracgalois import intmat
    rng = random.Random(8118)
    g = abelian_group((2, 2))
    mod = conjugated(rng, module_from_ideals(g, draw_ideals(rng, g, 3, 2)))
    relation_hnf = intmat.hnf_columns(mod.relations)
    hnf_columns = intmat.hnf_columns
    seen = []

    def counting(a):
        out = hnf_columns(a)
        seen.append(out == relation_hnf)
        return out

    monkeypatch.setattr(intmat, "hnf_columns", counting)
    built = FiniteGModule(g, mod.k, mod.relations, mod.action)
    got = (built.structure(), built.order(), built.annihilator(),
           built.fitting_ideal())
    monkeypatch.undo()
    assert sum(seen) == 1 and len(seen) > 1
    fresh = FiniteGModule(g, mod.k, mod.relations, mod.action, validate=False)
    assert got == (fresh.structure(), fresh.order(), fresh.annihilator(),
                   fresh.fitting_ideal())


def test_annihilator_of_a_trivial_action_is_augmentation_plus_two():
    # (Z/2)^k with G acting trivially is the worst case of the generator
    # walk: it needs r = k orbits, each a fixed point
    for factors, k in (((55,), 56), ((2, 4), 5)):
        g = abelian_group(factors)
        ident = [[int(i == j) for j in range(k)] for i in range(k)]
        mod = FiniteGModule(g, k, [[2 * x for x in col] for col in ident],
                            [ident] * len(factors))
        one = GroupRingElement.one(g)
        expected = IdealLattice.from_generators(
            g, [one * 2] + [GroupRingElement.basis(g, x) - one for x in g.elements[1:]])
        assert mod.annihilator() == expected
        assert len(mod._generator_orbits) == k


def test_annihilator_from_two_generators_matches_exhaustive_search():
    # F_2[C_2 x C_4] is local, so a sum of two cyclic modules of exponent 2
    # needs two Z[G]-generators, also in a scrambled basis
    rng = random.Random(4242)
    g = abelian_group((2, 4))
    mod = module_from_ideals(g, draw_ideals(rng, g, 2, 2))
    for m in (mod, conjugated(rng, mod)):
        assert len(m._generator_orbits) >= 2
        assert m.annihilator() == _oracle_annihilator(m)


def _index_times_order(mod, lam):
    """[Z^n : Lambda] |M| for the HNF columns of a Lambda of mod."""
    return prod(col[t] for t, col in enumerate(lam)) * mod.order()


def test_each_generation_check_of_the_orbit_walk_agrees_with_a_plain_hnf():
    """On the A8 draws and the same modules in a scrambled basis: the first
    orbit's index test [Z^n : Lambda] |M| = e^n says what a plain HNF of the
    relations and that orbit says, and the walk stops at a check (after 1,
    2, 4, ... orbits and after its last) exactly when the plain HNF of the
    relations and the orbits so far is the identity."""
    rng = random.Random(3434)
    needs_more = 0
    for g, lats in a8_draws(random.Random(82001)):
        mod = module_from_ideals(g, lats)
        for m in (mod, conjugated(rng, mod)) if mod.k > 1 else (mod,):
            orbits, e = m._generator_orbits, m.structure()[-1]

            def spans(r):
                vecs = [u for orbit in orbits[:r] for u in orbit.values()]
                return hnf_columns(list(m.relations) + vecs)[0] == intmat.identity_matrix(m.k)

            lam = m._lambda(orbits[:1], e)
            assert (_index_times_order(m, lam) == e ** g.order) == spans(1)
            assert m._first_lambda == lam
            checks = {1 << i for i in range(len(orbits).bit_length())} | {len(orbits)}
            for r in sorted(checks):
                assert spans(r) == (r == len(orbits)), (r, len(orbits))
            needs_more += len(orbits) > 1
    assert needs_more >= 10


def test_a_module_with_two_generators_still_checks_the_span_of_its_orbits(monkeypatch):
    """F_2[C_2 x C_4] is local, so a sum of two of its cyclic quotients needs
    two generators: after the first orbit's index test fails, the HNF of the
    relations plus the orbits over k rows is taken after one and two orbits."""
    rng = random.Random(4242)
    g = abelian_group((2, 4))
    mod = module_from_ideals(g, draw_ideals(rng, g, 2, 2))
    rows, hnf_mod = [], intmat.hnf_mod

    def counting(cols, d, n):
        rows.append(n)
        return hnf_mod(cols, d, n)

    monkeypatch.setattr(intmat, "hnf_mod", counting)
    built = FiniteGModule(g, mod.k, mod.relations, mod.action)
    monkeypatch.undo()
    assert len(built._generator_orbits) == 2
    assert _index_times_order(built, built._first_lambda) > 2 ** g.order
    assert rows == [g.order, mod.k, mod.k] and mod.k != g.order
    assert built.annihilator() == _oracle_annihilator(built)


@pytest.mark.parametrize("k", [5, 7])
def test_orbits_of_two_generators_are_not_read_off_a_stacked_lambda(k):
    """M0 = F_2^5 over C_2^6 with g_i acting as 1 + y_i, the y_i a basis of
    Hom(<e_1, e_2>, <e_3, e_4, e_5>), needs the two generators e_1, e_2, and
    Z[G] / ann(M0) = F_2 + F_2 y_1 + ... + F_2 y_6 has order 2^7. The stacked
    Lambda of their orbits measures Z[G] (e_1, e_2) in M^2, of order 2^7: on
    M0 (k = 5) it fails the index test although the orbits generate, and on
    M = M0 + (Z/2)^2 with G acting trivially (k = 7, |M| = 2^7) it passes
    although M needs two more generators."""
    g = abelian_group((2,) * 6)
    ys = [(a, c) for a in (0, 1) for c in (2, 3, 4)]
    action = [[[int(i == j) + int((i, j) == (c, a)) for j in range(k)] for i in range(k)]
              for a, c in ys]
    mod = FiniteGModule(g, k, [[2 * (i == j) for i in range(k)] for j in range(k)], action)
    orbits = mod._generator_orbits
    starts = [next(i for i, x in enumerate(orbit[g.identity]) if x) for orbit in orbits]
    assert starts == [0, 1, 5, 6][:k - 3]
    ann = mod.annihilator()
    assert ann == kernel_lattice_annihilator(mod) and ann.covolume() == 2 ** 7
    stacked = _index_times_order(mod, mod._lambda(orbits[:2], 2))
    assert (stacked == 2 ** 64) == (k == 7)


def test_orbits_that_do_not_span_m_raise_an_arithmetic_error(monkeypatch):
    """The walk ends on an explicit error, also under python -O, when the
    e_j run out and the relations plus the orbits still miss part of Z^k:
    here an HNF over k rows that drops the orbits' columns."""
    rng = random.Random(4242)
    g = abelian_group((2, 4))
    mod = module_from_ideals(g, draw_ideals(rng, g, 2, 2))
    hnf_mod = intmat.hnf_mod
    monkeypatch.setattr(intmat, "hnf_mod", lambda cols, d, n: hnf_mod(
        list(cols)[:n] if n == mod.k else cols, d, n))
    with pytest.raises(ArithmeticError, match="orbits and the relations do not span Z"):
        FiniteGModule(g, mod.k, mod.relations, mod.action)


def test_captured_unit_quotient_at_121_is_cyclic():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "ue_121.json"
    doc = json.loads(path.read_text())
    g = galois_group(121, frozenset({1, 120}))
    mod = FiniteGModule(g, doc["k"], doc["relations"], doc["action"])
    assert list(mod.structure()) == doc["structure"]
    assert len(mod._generator_orbits) == 1


def test_structure_of_a_diagonal_hnf_matches_the_gcd_lcm_sweep():
    """Prime by prime, the invariant factors of Z/d_1 + ... + Z/d_k are
    those that the pairwise (gcd, lcm) sweep leaves, whatever the order."""
    rng = random.Random(2000)
    g = abelian_group((2,))
    for _ in range(300):
        k = rng.randint(1, 8)
        diag = [rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 25, 30, 36, 49, 64, 97, 360)) for _ in range(k)]
        d = list(diag)
        for i in range(k):
            for j in range(i + 1, k):
                d[i], d[j] = gcd(d[i], d[j]), d[i] * d[j] // gcd(d[i], d[j])
        mod = FiniteGModule(g, k, [[x * (i == j) for i in range(k)] for j, x in enumerate(diag)],
                            [intmat.identity_matrix(k)])
        assert mod.structure() == tuple(x for x in d if x > 1), diag


def _diagonal_module(diag):
    k = len(diag)
    return FiniteGModule(abelian_group((2,)), k,
                         [[x * (i == j) for i in range(k)] for j, x in enumerate(diag)],
                         [intmat.identity_matrix(k)])


def test_structure_of_a_diagonal_hnf_equals_the_smith_form():
    """The coprime base of the diagonal gives the Smith form's invariant
    factors, also with shared composite factors, repeated entries and
    primes near 10^14 that trial division cannot reach quickly."""
    rng = random.Random(3303)
    big = (100000000000031, 999999999989, 2 ** 61 - 1)
    pieces = (1, 2, 3, 4, 6, 9, 10, 12, 15, 25, 36, 49, 64, 97, 360, *big)
    for _ in range(300):
        diag = [rng.choice(pieces) * rng.choice(pieces) for _ in range(rng.randint(1, 7))]
        _, d, _ = intmat.smith_normal_form([[x * (i == j) for i in range(len(diag))]
                                            for j, x in enumerate(diag)])
        snf = tuple(abs(d[i][i]) for i in range(len(diag)) if abs(d[i][i]) > 1)
        assert _diagonal_module(diag).structure() == snf, diag


def test_structure_of_a_diagonal_hnf_with_a_large_prime_is_fast():
    """Trial division took about a second on a prime near 10^14."""
    p = 100000000000031
    start = time.perf_counter()
    mod = FiniteGModule(abelian_group((2,)), 2, [[p, 0], [0, 2]], [[[1, 0], [0, 1]]])
    assert mod.structure() == (2 * p,)
    assert time.perf_counter() - start < 0.05


def test_ell_part_is_built_on_its_own_hnf():
    rng = random.Random(3131)
    g = abelian_group((6,))
    mod = conjugated(rng, module_from_ideals(g, draw_ideals(rng, g, 6, 2)))
    parts = [mod.ell_part(ell) for ell in (2, 3)]
    for part in parts:
        assert part._hnf == hnf_columns(part.relations)
        FiniteGModule(g, part.k, part.relations, part.action)  # passes every check
    assert parts[0].order() * parts[1].order() == mod.order()


def assert_dual_route_matches_the_oracles(mod):
    """The annihilator equals the kernel lattice it replaced, and each
    ell-part the one built on a plain HNF."""
    assert mod.annihilator() == kernel_lattice_annihilator(mod)
    for ell, _ in factorize(mod.order()):
        part, plain = mod.ell_part(ell), plain_hnf_ell_part(mod, ell)
        assert (part.k, part.relations, part.action) == (plain.k, plain.relations, plain.action)


def test_annihilator_and_ell_parts_of_the_a8_modules_equal_the_oracles():
    """The dual of one modular HNF against the kernel lattice it replaced,
    and the ell-parts against a plain HNF, on the seeded modules of A8 and
    the same modules in a scrambled basis."""
    rng = random.Random(3232)
    for g, lats in a8_draws(random.Random(82001)):
        mod = module_from_ideals(g, lats)
        assert_dual_route_matches_the_oracles(mod)
        if mod.k > 1:   # a basis change needs two coordinates
            assert_dual_route_matches_the_oracles(conjugated(rng, mod))


@pytest.mark.parametrize("factors, m0s", [
    ((3,), (4, 2)), ((5,), (4, 2)), ((2, 2), (4, 2)), ((4,), (12,)), ((3,), (36,)),
    ((2,), (64, 4)), ((6,), (12, 4))])
def test_annihilator_and_ell_parts_with_a_composite_exponent_equal_the_oracles(factors, m0s):
    """Sums of Z[G]/I with I of index a power of 2 or 2^a 3^b, such as
    Z/4 + Z/2 pieces, so that the exponent e is composite and the pivots of
    the modular HNFs are proper divisors of e."""
    rng = random.Random(f"{factors}{m0s}")
    g = abelian_group(factors)
    checked = 0
    while checked < 3:
        mod = module_from_ideals(g, [draw_ideals(rng, g, m0, 1)[0] for m0 in m0s])
        if not is_prime(mod.structure()[-1]):
            assert_dual_route_matches_the_oracles(mod)
            assert_dual_route_matches_the_oracles(conjugated(rng, mod))
            checked += 1


def test_coefficients_become_fractions_whatever_their_type():
    g = abelian_group((3,))
    elems = [GroupRingElement(g, (1, 2, 3)),
             GroupRingElement(g, (Fraction(1), Fraction(2), Fraction(3))),
             GroupRingElement(g, (1, Fraction(4, 2), 3))]
    nums = [CyclotomicNumber(5, (1, -2, 0, 7)),
            CyclotomicNumber(5, tuple(map(Fraction, (1, -2, 0, 7)))),
            CyclotomicNumber(5, (Fraction(2, 2), -2, Fraction(0), 7))]
    for xs in (elems, nums):
        assert xs[0] == xs[1] == xs[2]
        assert all(type(c) is Fraction for x in xs for c in x.c)


def test_lattices_over_different_groups_are_an_error_under_python_O():
    # add, multiply, intersect and both containment tests (of a lattice, and
    # of an element of the other group) raise a ValueError, not an assert
    code = """if True:
        from fracgalois.gring import GroupRingElement, IdealLattice, abelian_group
        a = IdealLattice.unit_ideal(abelian_group((4,)))
        b = IdealLattice.unit_ideal(abelian_group((2, 2)))
        for op in (a.add, a.multiply, a.intersect, a.contains_lattice,
                   lambda b: a.contains_element(GroupRingElement.one(b.group))):
            try:
                op(b)
            except ValueError as exc:
                print(exc)
        """
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.splitlines() == [
        "lattices over FinAbGroup('abstract', (4,)) and FinAbGroup('abstract', (2, 2))"] * 5


def test_wrong_coefficient_count_is_an_error_under_python_O():
    # a ValueError, not an assert: python -O keeps the check; likewise for
    # a map of groups that is not a homomorphism
    code = """if True:
        from fracgalois.cyclo import CyclotomicNumber, factorize, is_prime
        from fracgalois.gring import GroupHom, GroupRingElement, abelian_group
        c2 = abelian_group((2,))
        for make in (lambda: GroupRingElement(abelian_group((3,)), (1, 2)),
                     lambda: CyclotomicNumber(5, (1, 2, 3)),
                     lambda: GroupHom(c2, c2, {(0,): (1,), (1,): (1,)})):
            try:
                make()
            except ValueError as exc:
                print(exc)
        """
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.splitlines() == [
        "Q[G] needs 3 coefficients, got 2", "Q(zeta_5) needs 4 coefficients, got 3",
        "not a homomorphism at (0,), (1,)"], proc.stderr


def test_group_ring_elements_over_different_groups_are_an_error_under_python_O():
    # +, -, *, project and from_generators raise a ValueError naming both
    # groups, not an assert: python -O keeps the check
    code = """if True:
        from fracgalois.gring import (GroupHom, GroupRingElement, IdealLattice,
                                      abelian_group)
        g, h = abelian_group((4,)), abelian_group((2, 2))
        x, y = GroupRingElement.one(g), GroupRingElement.one(h)
        to_g = GroupHom(g, g, {e: e for e in g.elements})
        for op in (lambda: x + y, lambda: x - y, lambda: x * y,
                   lambda: y.project(to_g),
                   lambda: IdealLattice.from_generators(g, [x, y])):
            try:
                op()
            except ValueError as exc:
                print(exc)
        """
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    g, h = "FinAbGroup('abstract', (4,))", "FinAbGroup('abstract', (2, 2))"
    assert proc.stdout.splitlines() == [
        f"adding elements of {g} and {h}",
        f"subtracting elements of {g} and {h}",
        f"multiplying elements of {g} and {h}",
        f"projecting from {h} along a map of {g}",
        f"lattice over {g} from generators of another group"], proc.stderr
