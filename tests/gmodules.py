"""Seeded finite Z[G]-modules shared by the group-ring and acceptance tests:
direct sums of cyclic modules Z[G]/I with the regular action, and the same
modules rewritten in a random unimodular basis."""

from fractions import Fraction

from fracgalois import intmat
from fracgalois.gring import FiniteGModule, GroupRingElement, IdealLattice


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
    rel = intmat.mat_mul(u, intmat.mat_transpose(mod.relations))
    action = []
    for mat in mod.action:
        shift = [[rng.randint(-1, 1) for _ in range(k)] for _ in rel[0]]
        moved = intmat.mat_mul(intmat.mat_mul(u, [list(r) for r in mat]), u_inv)
        action.append([[x + y for x, y in zip(r, s)]
                       for r, s in zip(moved, intmat.mat_mul(rel, shift))])
    return FiniteGModule(mod.group, k, intmat.mat_transpose(rel), action)
