"""Seeded finite Z[G]-modules shared by the group-ring and acceptance tests:
direct sums of cyclic modules Z[G]/I with the regular action, the same
modules rewritten in a random unimodular basis, the seeded modules of
acceptance check A8, the matrices of group elements, and an annihilator
oracle by exhaustive search."""

import itertools
from fractions import Fraction
from math import lcm, prod

from fracgalois import intmat
from fracgalois.gring import FiniteGModule, GroupRingElement, IdealLattice, abelian_group
from oracles import mat_mul, z_span


def random_ideal(rng, g, m0):
    one = GroupRingElement.one(g)
    alpha = GroupRingElement(
        g, [Fraction(rng.randrange(m0)) for _ in range(g.order)])
    return IdealLattice.from_generators(g, [one * m0, alpha])


def module_from_ideals(g, lats):
    """Z[G]/I_1 + ... + Z[G]/I_r, each summand with the regular action: one
    permutation matrix per invariant-factor generator of G."""
    n = g.order
    k = n * len(lats)
    relations = []
    for b, lat in enumerate(lats):
        assert lat.den == 1
        for col in lat.cols:
            full = [0] * k
            full[b * n:(b + 1) * n] = list(col)
            relations.append(tuple(full))
    action = []
    for gen in g.generator_elements():
        mat = [[0] * k for _ in range(k)]
        for j in range(k):
            b, x = divmod(j, n)
            mat[b * n + g.index(g.mul(gen, g.elements[x]))][j] = 1
        action.append(mat)
    return FiniteGModule(g, k, relations, action)


def draw_ideals(rng, g, m0, count):
    """`count` random ideals, each of index at least 2."""
    while True:
        lats = [random_ideal(rng, g, m0) for _ in range(count)]
        if min(x.covolume() for x in lats) >= 2:
            return lats


def a8_draws(rng, count=100):
    """(g, lats) of the seeded modules of acceptance check A8, in draw
    order: the first 60 one ideal over C_n (n <= 6, m0^n <= 1200), then two
    ideals over C_n (n <= 3) of index >= 2 each, with 2 <= |M| <= 200."""
    checked = 0
    while checked < count:
        if checked < 60:
            n = rng.randint(1, 6)
            m0 = rng.choice([m for m in (2, 3, 4, 5, 7, 8, 9, 11, 13) if m ** n <= 1200])
            g = abelian_group((n,)) if n > 1 else abelian_group(())
            lats = [random_ideal(rng, g, m0)]
        else:
            n = rng.randint(1, 3)
            g = abelian_group((n,)) if n > 1 else abelian_group(())
            m0 = rng.choice([m for m in (2, 3, 4, 5, 7) if m ** n <= 1200])
            lats = [random_ideal(rng, g, m0), random_ideal(rng, g, m0)]
            if min(x.covolume() for x in lats) < 2:
                continue
        if 2 <= prod(x.covolume() for x in lats) <= 200:
            checked += 1
            yield g, lats


def conjugated(rng, mod):
    """The same module in the basis v -> u v of a random unimodular u, each
    action matrix moved by relation columns: the matrices commute and have
    their orders only modulo the relations."""
    k = mod.k
    u, u_inv = intmat.identity_matrix(k), intmat.identity_matrix(k)
    for _ in range(k):
        i, j = rng.sample(range(k), 2)
        q = rng.choice((-1, 1))
        for t in range(k):
            u[i][t] += q * u[j][t]          # u <- (1 + q e_ij) u
            u_inv[t][j] -= q * u_inv[t][i]  # u_inv <- u_inv (1 - q e_ij)
    rel = mat_mul(u, intmat.mat_transpose(mod.relations))
    action = []
    for mat in mod.action:
        shift = [[rng.randint(-1, 1) for _ in range(k)] for _ in rel[0]]
        moved = mat_mul(mat_mul(u, [list(r) for r in mat]), u_inv)
        action.append([[x + y for x, y in zip(r, s)]
                       for r, s in zip(moved, mat_mul(rel, shift))])
    return FiniteGModule(mod.group, k, intmat.mat_transpose(rel), action)


def action_of(mod, elem):
    """The k x k matrix of the group element `elem` on `mod`: the product of
    its generators' matrix powers."""
    mat = intmat.identity_matrix(mod.k)
    for a, x in zip(mod.action, elem):
        for _ in range(x):
            mat = mat_mul([list(r) for r in a], mat)
    return mat


def _oracle_annihilator(mod):
    """Exhaustive annihilator: sweep every group-ring element with
    coefficients mod the exponent of M, testing that it kills each
    generator (hence, additively, all of M)."""
    g = mod.group
    n = g.order
    k = mod.k
    rel = [[col[i] for col in mod.relations] for i in range(k)]
    u, d, _ = intmat.smith_normal_form(rel)
    diag = [d[i][i] for i in range(k)]
    exponent = 1
    for di in diag:
        exponent = lcm(exponent, abs(di))

    def in_relations(vec):
        for i in range(k):
            w = sum(u[i][t] * vec[t] for t in range(k))
            if w % diag[i]:
                return False
        return True

    mats = [action_of(mod, e) for e in g.elements]
    hits = [GroupRingElement.basis(g, e) * exponent for e in g.elements]
    for coeffs in itertools.product(range(exponent), repeat=n):
        if not any(coeffs):
            continue
        amat = [[sum(coeffs[t] * mats[t][i][j] for t in range(n))
                 for j in range(k)] for i in range(k)]
        if all(in_relations([amat[i][j] for i in range(k)]) for j in range(k)):
            hits.append(GroupRingElement(g, [Fraction(c) for c in coeffs]))
    return z_span(g, hits)


def validation_oracle(group, k, relations, action):
    """The message of the first check the action fails, or None, checked on
    dense k x k products modulo the relations: for each generator in turn,
    A_i H = 0 (H the relations' HNF) and A_i^{d_i} = 1 by square-and-multiply;
    then A_a A_b = A_b A_a for every pair."""
    mod = FiniteGModule(group, k, relations, action, validate=False)
    if len(mod._hnf[0]) != k:
        return "relation lattice is not full rank: module is infinite"

    def reduced(mat):
        return intmat.mat_transpose([mod._reduce(col) for col in zip(*mat)])

    mats = [[list(r) for r in mat] for mat in mod.action]
    h = intmat.mat_transpose(mod._hnf[0])
    one = reduced(intmat.identity_matrix(k))
    for d, mat in zip(group.invariant_factors, mats):
        if any(map(any, reduced(mat_mul(mat, h)))):
            return "action does not preserve relations"
        p, sq = one, mat
        while d:
            if d & 1:
                p = reduced(mat_mul(sq, p))
            d >>= 1
            if d:
                sq = reduced(mat_mul(sq, sq))
        if p != one:
            return "action generator order does not divide group order"
    for a, b in itertools.combinations(mats, 2):
        if reduced(mat_mul(a, b)) != reduced(mat_mul(b, a)):
            return "action matrices do not commute mod relations"
    return None
