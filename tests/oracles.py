"""Helpers that only tests call: Q(zeta_m) on Fraction coefficients and its
embedding over the lcm of their denominators, a character moved through a group
isomorphism, membership in a rank-deficient Z-span of group-ring elements
and equality of two Z[G]-spans of them, the inverse character transform and the Stickelberger element assembled
from L-values character by character, a character's primitive table with
its B_{1,chi} and L_S(0, chi), the relative L-data of Q(zeta_{p^n}) /
Q(sqrt(-p)) one character of H at a time, equality of S-unit values, the
log of an S-unit at the place above a totally ramified p, the annihilator of
the roots of unity by a cyclic G-module, the annihilator of a finite G-module
by a kernel lattice and its ell-part by a plain HNF, unit coordinates by a dense
scaled inverse, the Bareiss solve behind it, the inverse in Q[G] by that solve,
the intersection of two lattices by a kernel lattice, the Z-span of
group-ring elements as a lattice, lattice membership and ell-membership by
Fraction coordinates of the basis elements, a dense column echelon
form with its HNF, kernel and back-substitution, a numeric character value read per call, the
primitive L-derivative by Hurwitz zeta, the partial-zeta derivatives of whole
classes by mpmath's loggamma alone, the partial-zeta derivatives and their
relative fold one residue at a time, BCH's projection of beta0 J by dense
products over G, and the product of two integer matrices."""

from fractions import Fraction
from math import gcd, lcm

import mpmath as mp

from fracgalois import intmat
from fracgalois.cyclo import (CyclotomicNumber, _fixed_root_table, _power_table,
                              _root_table, _sparse_rows, euler_phi, hurwitz_zeta_at0)
from fracgalois.fields import (FieldModel, SUnit, _symbols, make_field, place_set,
                               torsion_order)
from fracgalois.gring import (Character, FiniteGModule, GroupRingElement, IdealLattice,
                              _clear_denominators, _convolve, _orbit_vectors,
                              _perm_table, characters)
from fracgalois.lfun import (_lift_modulus, _lifts, _proj_g_to_h, character_conductor,
                             half_stickelberger, l_value_at_0, partial_zeta_all)
from fracgalois.units import CoordinateError


class FractionCyclotomic:
    """Q(zeta_m) on the power basis with one Fraction per coefficient: the
    representation CyclotomicNumber kept before its integer numerators."""

    def __init__(self, m, coeffs):
        self.m, self.c = m, tuple(Fraction(x) for x in coeffs)
        assert len(self.c) == euler_phi(m)

    @classmethod
    def root_of_unity(cls, m, k=1):
        return cls(m, _power_table(m)[k % m])

    def _mapped(self, big_m, t):
        rows, out = _sparse_rows(big_m), [Fraction(0)] * euler_phi(big_m)
        for i, x in enumerate(self.c):
            for j, y in rows[(i * t) % big_m]:
                out[j] += x * y
        return FractionCyclotomic(big_m, out)

    def lift(self, big_m):
        assert big_m % self.m == 0
        return self._mapped(big_m, big_m // self.m)

    def galois(self, t):
        assert gcd(t, self.m) == 1
        return self._mapped(self.m, t % self.m)

    def _common(self, other):
        if not isinstance(other, FractionCyclotomic):
            other = FractionCyclotomic(1, (other,))
        m = lcm(self.m, other.m)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._common(other)
        return FractionCyclotomic(a.m, (x + y for x, y in zip(a.c, b.c)))

    def __neg__(self):
        return FractionCyclotomic(self.m, (-x for x in self.c))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self._common(other)
        phi, rows = len(a.c), _sparse_rows(a.m)
        out = [Fraction(0)] * phi
        for i, x in enumerate(a.c):
            for j, y in enumerate(b.c):
                if x and y:
                    for k, z in rows[i + j]:
                        out[k] += x * y * z
        return FractionCyclotomic(a.m, out)

    def __eq__(self, other):
        a, b = self._common(other)
        return a.c == b.c


def embed_lcm_route(x, a=1):
    """x.embed(a) from Fraction coefficients: numerators scaled to the lcm d
    of their denominators, dotted with _fixed_root_table, one division by
    d 2^prec."""
    prec, m = mp.mp.prec, x.m
    re_t, im_t = _fixed_root_table(m, prec)
    d = lcm(*(q.denominator for q in x.c))
    nk = [(q.numerator * (d // q.denominator), a * i % m) for i, q in enumerate(x.c) if q]
    return mp.mpc(*(mp.fdiv(sum(n * t[k] for n, k in nk), d << prec) for t in (re_t, im_t)))


def transport_character(chi, iso):
    """chi o iso^{-1} for a bijective GroupHom iso: chi.group -> target."""
    if not (iso.injective and iso.surjective) or iso.source != chi.group:
        raise ValueError("need an isomorphism from chi's group")
    inverse = {iso(e): e for e in iso.source.elements}
    tgt = iso.target
    e_src, e_tgt = chi.group.exponent, tgt.exponent
    assert e_src == e_tgt
    exps = []
    for gen, d in zip(tgt.generator_elements(), tgt.invariant_factors):
        e = chi.exp_at(inverse[gen])
        t, r = divmod(e * d, e_tgt)
        assert r == 0
        exps.append(t)
    out = Character(tgt, exps)
    for e in tgt.elements:  # the transport must match pointwise
        assert out.exp_at(e) == chi.exp_at(inverse[e])
    return out


def span_membership(gens, x):
    """Is x in the Z-span of the group-ring elements `gens`? (No full-rank
    assumption; used for rank-deficient spans like Z[G] * theta.)"""
    _, vecs = _clear_denominators(list(gens) + [x])
    return intmat.span_contains(vecs[:-1], vecs[-1])


def gmodule_span_equal(gens_a, gens_b, group):
    """Equality of Z[G]-spans (possibly rank-deficient) of two generator
    lists, where the Z-span of gens_a must already be G-stable (as e J is,
    for a lattice J and central e): only gens_b is closed under G. RZERO's
    test of e0 J = Z[G] theta before it convolved J's columns in integers."""
    _, vecs = _clear_denominators(list(gens_a) + list(gens_b))
    return intmat.span_equal(vecs[:len(gens_a)],
                             _orbit_vectors(group, vecs[len(gens_a):]))


def _times_root(v, k):
    """The CyclotomicNumber v times zeta_m^k, through the power table."""
    rows = _sparse_rows(v.m)
    out = [Fraction(0)] * len(v.c)
    for i, x in enumerate(v.c):
        if x:
            for j, y in rows[(i + k) % v.m]:
                out[j] += x * y
    return CyclotomicNumber(v.m, out)


def assemble(group, values):
    """Inverse character transform: the unique x in Q[G] with chi(x) =
    values[chi] (CyclotomicNumbers or rationals) for every character chi;
    ValueError if the data is not Galois-equivariant (x would be irrational)."""
    vals = {}
    for chi in characters(group):
        v = values[chi]
        vals[chi] = v if isinstance(v, CyclotomicNumber) else CyclotomicNumber.rational(v)
    m = lcm(group.exponent, *(v.m for v in vals.values()))
    step = m // group.exponent
    lifted = {chi: v.lift(m) for chi, v in vals.items()}
    coeffs = []
    for elem in group.elements:
        inv = group.inv(elem)
        acc = CyclotomicNumber.zero(m)
        for chi, v in lifted.items():
            acc = acc + _times_root(v, step * chi.exp_at(inv))
        try:
            coeffs.append(acc.as_fraction() / group.order)
        except ValueError:
            raise ValueError("character data is not Galois-equivariant") from None
    return GroupRingElement(group, coeffs)


def stickelberger_via_characters(model, pset):
    """theta_S assembled from exact L-values (slow cross-check route)."""
    vals = {}
    for chi in characters(model.group):
        vals[chi] = l_value_at_0(model, pset, chi.conj())
    return assemble(model.group, vals)


def primitive_table(model, chi):
    """(f0, {b mod f0 -> exponent}, E): values of the primitive chi_0.

    chi_0(b) = zeta_E ** table[b] for b coprime to the conductor f0; the
    exponent comes from chi at any lift of b that is prime to f.
    """
    f0 = character_conductor(model, chi)
    lifts = _lifts(model.group, model.f, f0) if f0 > 1 else ((1, model.group.identity),)
    return f0, {b: chi.exp_at(x) for b, x in lifts}, model.group.exponent


def _b1_sum(f0, table, e):
    """B_{1,chi_0} = (1/2f0) sum_k w_k zeta_e^k, w_k = sum_{table[b] = k} (2b - f0),
    from the primitive_table (f0, table, e); integer weights (f0 = 1: 1/2)."""
    weights = [0] * e
    for b, k in table.items():
        weights[k] += 2 * b - f0
    return CyclotomicNumber.from_powers(e, weights, 2 * f0)


def b1_fraction_loop(f0, table, e):
    """B_{1,chi_0} as a FractionCyclotomic, one Fraction b/f0 - 1/2 (1/2 at
    f0 = 1) per residue b times the power-table row of zeta_e^table[b]."""
    rows, out = _sparse_rows(e), [Fraction(0)] * euler_phi(e)
    for b, k in table.items():
        w = Fraction(b, f0) - Fraction(1, 2) if f0 > 1 else Fraction(1, 2)
        for j, x in rows[k]:
            out[j] += w * x
    return FractionCyclotomic(e, out)


def bernoulli_b1(model, chi):
    """B_{1,chi} = sum_b chi(b) (b/f0 - 1/2), exact in Q(zeta_E), for a
    primitive chi (conductor = f); otherwise this errors."""
    f0, table, e = primitive_table(model, chi)
    if f0 != model.f:
        raise ValueError(f"character has conductor {f0} < modulus {model.f}; "
                         "pass the primitive model")
    return _b1_sum(f0, table, e)


def l_value_at_0_per_character(model, pset, chi):
    """`lfun.l_values_at_0` for one character from its own primitive table:
    -B_{1,chi_0} times each Euler factor 1 - chi_0(q) through
    FractionCyclotomic products."""
    f0, table, e = primitive_table(model, chi)
    val = -b1_fraction_loop(f0, table, e)
    for q in pset.finite_primes():
        if f0 % q == 0:
            continue  # ramified: the Euler factor is already absent
        val = val * (1 - FractionCyclotomic.root_of_unity(e, table[q % f0] if f0 > 1 else 0))
    return val


def extend_character(model, chi, odd):
    """Extend chi on H to the full group G with chi(c) = -1 (odd) or +1."""
    g_full = make_field(model.f).group
    h = model.group
    f = model.f
    e_g = g_full.exponent
    step = e_g // h.exponent

    def value_exp(residue):
        # split sigma_a = h * c^j with h in H
        try:
            helem, j = h.element_of_residue(residue), 0
        except ValueError:
            helem, j = h.element_of_residue((residue * (f - 1)) % f), 1
        exp = chi.exp_at(helem) * step
        if odd and j:
            exp += e_g // 2
        return exp % e_g

    exps = []
    for gen, d in zip(g_full.generator_elements(), g_full.invariant_factors):
        t, r = divmod(value_exp(g_full.label(gen)) * d, e_g)
        assert r == 0, "extension is not a character"
        exps.append(t)
    out = Character(g_full, exps)
    for elem in g_full.elements:
        assert out.exp_at(elem) == value_exp(g_full.label(elem))
    return out


def relative_l_value_at_0(model, chi):
    """Exact L_{k,S}(0, chi) for S = {v_inf, frak_p}, via the induced pair:
    L_{k,S}(s, chi) = L_S(s, chi_even) L(s, chi_odd) over Q, with the single
    Euler factor at p carried by the even factor (the odd one is ramified)."""
    k_full = make_field(model.f)
    even = l_value_at_0(k_full, place_set(k_full, (model.p,)),
                        extend_character(model, chi, odd=False))
    odd = l_value_at_0(k_full, place_set(k_full, ()),
                       extend_character(model, chi, odd=True))
    return even * odd


def relative_l_deriv(model, chi, ctx):
    """L'_{k,S}(0, chi) for S = {v_inf, frak_p}, via the same factorization:
    L_S(0, chi_even) = 0, so it is L_S'(0, chi_even) L(0, chi_odd)."""
    k_full = make_field(model.f)
    # odd factor: nonvanishing exact value (conductor is p-power: no Euler factor)
    l_odd = l_value_at_0(k_full, place_set(k_full, ()),
                         extend_character(model, chi, odd=True))
    with ctx.guard():
        if chi.is_trivial():
            # even factor is zeta(s)(1 - p^{-s}): derivative at 0 is -log(p)/2
            lead_even = -mp.log(model.p) / 2
        else:
            # chi_even is ramified only at p, which S removes; L(0)=0, use L'
            lead_even = l_deriv_primitive_with_b1(
                k_full, extend_character(model, chi, odd=False), ctx)
        total = lead_even * l_odd.embed(1)
    return ctx.final(total)


def relative_partial_zeta_deriv_by_characters(model, ctx):
    """{sigma in H -> zeta'_{k,S}(0, sigma)} by inverting the character sum
    of the `relative_l_deriv` values."""
    h = model.group
    lvals = {chi: relative_l_deriv(model, chi, ctx) for chi in characters(h)}
    e = h.exponent
    out = {}
    with ctx.guard():
        roots = _root_table(e, mp.mp.prec)
        for sigma in h.elements:
            total = mp.mpc(0)
            for chi, lv in lvals.items():
                total += roots[-chi.exp_at(sigma) % e] * lv
            total /= h.order
            assert abs(mp.im(total)) < mp.mpf(2) ** (-ctx.bits // 2)
            out[sigma] = mp.re(total)
    return {s: ctx.final(v) for s, v in out.items()}


def word_value(f, word):
    """The exact value of a raw word, a list of entries ["m1", a], ["z", b]
    and ["om", c, e] for (-1)^a, zeta_f^b and (1 - zeta_f^c)^e as unit
    documents hold them, expanded entry by entry: no parity or distribution
    relation is applied, so it checks the rewrite inside `SUnit`."""
    val = CyclotomicNumber.root_of_unity(f, 0)
    for item in word:
        if item[0] == "m1":
            val = val * (-1) ** (item[1] % 2)
        elif item[0] == "z":
            val = val * CyclotomicNumber.root_of_unity(f, item[1])
        elif item[2] > 0:
            val = val * (1 - CyclotomicNumber.root_of_unity(f, item[1])) ** item[2]
        else:
            # 1 / (1 - x) = -(1/q) sum_{j<q} j x^j for x^q = 1 != x
            q = f // gcd(item[1], f)
            inverse = sum((CyclotomicNumber.root_of_unity(f, item[1] * j) * Fraction(-j, q)
                           for j in range(1, q)), CyclotomicNumber.zero(f))
            val = val * inverse ** -item[2]
    return val


def same_value(u, w):
    """Has the S-unit u the value of w, an S-unit or a raw word of `word_value`
    over the same conductor (equal exact expansions)?"""
    return u.expansion() == (w.expansion() if isinstance(w, SUnit) else word_value(u.f, w))


def finite_logs(word, model, pset):
    """[log ||word||_w] over the finite places w of S = {infinity, p}, f = p^n,
    at the current mpmath precision: p is totally ramified in K, so w is one
    place with Nw = p and log ||word||_w = -ord_w(word) log p. A root of unity
    has ord_w 0, and 1 - zeta^a, zeta^a of order m > 1, has ord_w [K : Q] /
    phi(m); K is Q(zeta_f) itself for the relative model."""
    f = model.f
    (p,) = pset.finite_primes()
    assert f % p == 0 and len(pset.places[1].cosets) == 1
    degree = model.degree if isinstance(model, FieldModel) else euler_phi(f)
    ord_w = sum(Fraction(e * degree, euler_phi(f // gcd(c, f)))
                for c, e in zip(_symbols(f)[0], word.v))
    assert ord_w.denominator == 1, "the word is not in K"
    return [-int(ord_w) * mp.log(p)]


def mu_ell_annihilator_module(model, ell):
    """ann_{Z[G]} of the ell-part of mu_K, as the annihilator of the cyclic
    G-module Z/ell^v on which each group generator acts by its label."""
    g = model.group
    e, lv = torsion_order(model), 1
    while e % ell == 0:
        e //= ell
        lv *= ell
    if lv == 1:
        return IdealLattice.unit_ideal(g)
    mats = [((g.label(gen) % lv,),) for gen in g.generator_elements()]
    return FiniteGModule(g, 1, [(lv,)], mats).annihilator()


def kernel_lattice_annihilator(mod):
    """`FiniteGModule.annihilator` by the kernel lattice it replaced, on the
    orbits that `mod` keeps, once a plain HNF shows that they generate M:
    with e the exponent and B = e H^-1 for the plain HNF H of the relations,
    the entry vectors (B A_x m mod e)_x have an HNF basis w_1, ..., w_r,
    and ann(M) is the alpha-part of the kernel of
    (alpha, z) -> (w_s . alpha - e z_s)_s."""
    g, k = mod.group, mod.k
    structure = mod.structure()
    if not structure:
        return IdealLattice.unit_ideal(g)
    e = structure[-1]
    orbits = mod._generator_orbits
    spanned, _ = intmat.hnf_columns(
        list(mod.relations) + [u for orbit in orbits for u in orbit.values()])
    assert spanned == intmat.identity_matrix(k), "the orbits do not generate M"
    h_cols, pivot_rows = intmat.hnf_columns(mod.relations)
    b = intmat.mat_transpose([
        dense_solve_upper_triangular(h_cols, pivot_rows, [e * (i == j) for i in range(k)])
        for j in range(k)])

    def image(u):   # B u mod e
        return [sum(x * y for x, y in zip(row, u)) % e for row in b]

    entries = {v for orbit in orbits for v in zip(*(image(orbit[x]) for x in g.elements))}
    w, _ = intmat.hnf_columns([v for v in entries if any(v)])
    minus_e = [[-e if s == t else 0 for s in range(len(w))] for t in range(len(w))]
    return IdealLattice._from_columns(
        g, 1, [col[:g.order] for col in intmat.kernel_basis([*zip(*w), *minus_e])])


def plain_hnf_ell_part(mod, ell):
    """`FiniteGModule.ell_part` with the relations plus ell^v Z^k brought to
    a plain HNF, the columns ell^v e_j among its generators."""
    order, extra = mod.order(), 1
    while order % (extra * ell) == 0:
        extra *= ell
    h_cols, pivot_rows = intmat.hnf_columns(
        list(mod.relations) + [[extra * (i == j) for i in range(mod.k)] for j in range(mod.k)])
    dead = {r for col, r in zip(h_cols, pivot_rows)
            if col[r] == 1 and sum(map(abs, col)) == 1}
    keep = [i for i in range(mod.k) if i not in dead]
    rels = [[col[i] for i in keep] for col, r in zip(h_cols, pivot_rows) if r not in dead]
    return FiniteGModule(mod.group, len(keep), rels, [
        [[m[i][j] for j in keep] for i in keep] for m in mod.action], validate=False)


def dense_coordinate_solver(lattice):
    """`units.unit_coordinates` on the lattice as a function of the word, by
    the scaled inverse of the free-generator matrix B on r rows where it has
    full rank (Bareiss), with the same CoordinateError messages: the solve
    that the echelon form with its transform replaced."""
    cols = [w.v for w in lattice.free]
    nsym = len(lattice.torsion.v)   # also when there are no cols
    b = [[col[i] for col in cols] for i in range(nsym)]
    _, rows = intmat.hnf_columns(cols)
    if len(rows) != len(cols):
        raise ValueError("free generators are multiplicatively dependent "
                         f"(rank {len(rows)} < {len(cols)})")
    d, inv = solve_fraction_free([b[i] for i in rows], intmat.identity_matrix(len(rows)))
    others = [(brow, i) for i, brow in enumerate(b) if i not in rows]
    free_t = [w.t for w in lattice.free]
    tors_t = lattice.torsion.t

    def solve(word):
        t, v = word.t, word.v
        y = [0] * len(rows)
        for col, i in zip(inv, rows):
            if v[i]:
                y = [a + v[i] * c for a, c in zip(y, col)]
        if any(sum(c * x for c, x in zip(brow, y)) != d * v[i] for brow, i in others):
            raise CoordinateError("the word is outside the rational span of the "
                                  "free generators: no power of it is in the lattice")
        for x in y:
            if x % d:
                raise CoordinateError(
                    f"unit coordinate {Fraction(x, d)} is not integral: a power of the word "
                    "is in the lattice, the word itself is not")
        xs = [x // d for x in y]
        two_f = 2 * word.f
        rest = (t - sum(x * s for x, s in zip(xs, free_t))) % two_f
        g = gcd(tors_t, two_f)
        if rest % g:
            raise CoordinateError(f"residual root of unity (-zeta)^{rest} is not a "
                                  "power of the lattice's torsion generator")
        order = two_f // g
        return (rest // g) * pow(tors_t // g, -1, order) % order, xs

    return solve


def solve_fraction_free(a, b_cols):
    """(det, x_cols) with a x = det b and det the determinant of the square
    integer matrix a, for the right-hand-side columns b_cols: fraction-free
    Gauss-Jordan elimination (Bareiss), every entry a minor of [a | b].
    A singular a gives (0, None)."""
    n = len(a)
    m = [list(row) + [col[i] for col in b_cols] for i, row in enumerate(a)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        mk = m[k]
        pk = mk[k]
        for i in range(n):
            if i != k:
                mi, c = m[i], m[i][k]
                m[i] = ([(x * pk - c * y) // prev for x, y in zip(mi, mk)] if c
                        else [x * pk // prev for x in mi])
        prev = pk
    # the rows are now (prev e_i | r_i), and P a r = prev P b for the row swaps P
    return sign * prev, [[sign * row[n + j] for row in m] for j in range(len(b_cols))]


def group_ring_inverse(x):
    """x^-1 in Q[G] by one integer solve: with d x integral and column j of
    M the coefficients of (d x) g_j, M y = det e_1 gives x^-1 = d y / det.
    A singular x raises ZeroDivisionError."""
    g = x.group
    d, (a,) = _clear_denominators([x])
    m = [[0] * g.order for _ in range(g.order)]
    for i, pi in enumerate(_perm_table(g)):
        for j, t in enumerate(pi):
            m[t][j] = a[i]  # (d x) g_j has coefficient a_i at elements[i] g_j
    # e_1 is the identity, elements[0]
    det, y = solve_fraction_free(m, [[1] + [0] * (g.order - 1)])
    if det == 0:
        raise ZeroDivisionError("singular group-ring element")
    return GroupRingElement(g, [Fraction(d * c, det) for c in y[0]])


def kernel_intersect(a, b):
    """`IdealLattice.intersect` by a kernel lattice: the vectors A y with
    A y = B z, A and B the basis columns of a and b over one denominator."""
    n = a.group.order
    d = lcm(a.den, b.den)
    a_cols = [[x * (d // a.den) for x in col] for col in a.cols]
    minus_b = [[-x * (d // b.den) for x in col] for col in b.cols]
    vecs = [[sum(a_cols[j][i] * y[j] for j in range(n)) for i in range(n)]
            for y in intmat.kernel_basis(a_cols + minus_b)]
    return IdealLattice._from_columns(a.group, d, vecs)


def z_span(group, gens):
    """The Z-span of the group-ring elements `gens`, not closed under G: that
    it equals an ideal says more than that their Z[G]-span does."""
    return IdealLattice._from_columns(group, *_clear_denominators(gens))


def fraction_coordinates(lat, x):
    """y with x = sum_t y_t lat.cols[t] / lat.den, by a back-substitution of
    the Fractions lat.den x.c (ints where integral)."""
    steps = intmat.echelon_steps(lat.cols, range(len(lat.cols)))
    return intmat.solve_upper_triangular(steps, [q * lat.den for q in x.c])


def fraction_contains_lattice(lat, other):
    """`IdealLattice.contains_lattice` through the Fraction coordinates of
    each basis element of other."""
    return all(all(v.denominator == 1 for v in fraction_coordinates(lat, b))
               for b in other.basis_elements())


def fraction_ell_contains(lat, other, ell):
    """`IdealLattice.ell_contains` through the Fraction coordinates of each
    basis element of other: the first coordinate whose denominator ell
    divides, with the index of its basis element."""
    for idx, b in enumerate(other.basis_elements()):
        bad = next((v for v in fraction_coordinates(lat, b) if v.denominator % ell == 0), None)
        if bad is not None:
            return False, {"basis_index": idx, "coordinate": str(bad)}
    return True, None


def dense_column_echelon(a_cols):
    """`intmat.column_echelon` by a scan of every active column at each row
    and dense row operations: the same pivot choice, tie order and output."""
    cols = [list(col) for col in a_cols]
    n = len(cols[0]) if cols else 0
    active = list(range(len(cols)))
    parked = []  # (pivot_row, col_index)
    for i in range(n - 1, -1, -1):
        live = [j for j in active if cols[j][i] != 0]
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][i]))
            j0 = live[0]
            piv = cols[j0][i]
            for j in live[1:]:
                q = cols[j][i] // piv
                if q:
                    cj, c0 = cols[j], cols[j0]
                    for r in range(i + 1):  # rows > i are already zero
                        cj[r] -= q * c0[r]
            live = [j for j in live if cols[j][i] != 0]
        if live:
            j0 = live[0]
            if cols[j0][i] < 0:
                cols[j0] = [-x for x in cols[j0]]
            parked.append((i, j0))
            active.remove(j0)
    parked.sort()
    return [cols[j] for _, j in parked], [p for p, _ in parked]


def dense_hnf_columns(a_cols):
    """`intmat.hnf_columns` on top of `dense_column_echelon`, with dense
    row operations."""
    cols, pivot_rows = dense_column_echelon(a_cols)
    r = len(cols)
    for t in range(r - 1, -1, -1):
        p = pivot_rows[t]
        piv = cols[t][p]
        for j in range(t + 1, r):
            q = cols[j][p] // piv
            if q:
                cj, ct = cols[j], cols[t]
                for rr in range(p + 1):
                    cj[rr] -= q * ct[rr]
    return cols, pivot_rows


def dense_solve_upper_triangular(cols, pivot_rows, v):
    """`intmat.solve_upper_triangular` on the echelon columns themselves,
    walking every entry of a column up to its pivot: y with H y = v, ints
    where integral and Fractions otherwise, or None outside the rational span."""
    w = list(v)
    y = [0] * len(cols)
    for t in range(len(cols) - 1, -1, -1):
        p, col = pivot_rows[t], cols[t]
        if w[p]:
            q, rem = divmod(w[p], col[p])
            if rem:
                q = Fraction(w[p], col[p])
            y[t] = q
            for rr, x in zip(range(p + 1), col):
                if x:
                    w[rr] -= q * x
    if any(w):
        return None
    return y


def dense_kernel_basis(a_cols):
    """`intmat.kernel_basis` on top of `dense_hnf_columns`."""
    m = len(a_cols)
    cols, pivot_rows = dense_hnf_columns(
        [[1 if i == j else 0 for i in range(m)] + list(col) for j, col in enumerate(a_cols)])
    return [col[:m] for col, p in zip(cols, pivot_rows) if p < m]


def char_value_numeric(chi, elem, ctx):
    """chi(elem) as a complex number, one guarded table read per call."""
    with ctx.guard():
        return _root_table(chi.group.exponent, mp.mp.prec)[chi.exp_at(elem)]


def l_deriv_primitive_with_b1(model, chi, ctx):
    """Untruncated L'(0, chi) for nontrivial chi, via the conductor-f0 sum
    L'(0, chi) = log(f0) B_{1,chi_0} + sum_b chi_0(b) zeta_H'(0, b/f0), one
    Hurwitz derivative per residue; B_{1,chi_0} = 0 for an even chi."""
    f0, table, e = primitive_table(model, chi)
    b1 = _b1_sum(f0, table, e)
    with ctx.guard():
        roots = _root_table(e, mp.mp.prec)
        total = mp.log(f0) * b1.embed(1)
        for b, k in table.items():
            total += roots[k] * hurwitz_zeta_at0(Fraction(b, f0), 1, ctx)
    return ctx.final(total)


def partial_zeta_derivs_per_residue(model, pset, ctx):
    """`lfun.partial_zeta_all(k=1)` with one Hurwitz derivative (one log Gamma)
    per residue a of the lifted modulus F: d/ds (F^-s zeta_H(s, a/F)) = -log F (1/2 - a/F) + zeta_H'(0, a/F)."""
    g = model.group
    F = _lift_modulus(model, pset)
    with ctx.guard():
        logf = mp.log(F)
        acc = {e: mp.mpf(0) for e in g.elements}
        for a in range(1, F):
            if gcd(a, F) != 1:
                continue
            x = Fraction(a, F)
            acc[g.element_of_residue(a % model.f)] += (
                -logf * ctx.mpf(Fraction(1, 2) - x) + hurwitz_zeta_at0(x, 1, ctx))
    return {e: ctx.final(v) for e, v in acc.items()}


def class_derivs_loggamma(F, classes, ctx):
    """`lfun._class_derivs` with every residue through mpmath's loggamma, a
    and F - a alike: per class the sum of log Gamma(a/F) - log(2 pi)/2 -
    log F (1/2 - a/F) at ctx's guarded precision. It shares no formula with
    the log-sine route of the pairs."""
    out = []
    with ctx.guard():
        half_log_2pi, log_f = mp.log(2 * mp.pi) / 2, mp.log(F)
        for residues in classes:
            out.append(mp.fsum(mp.loggamma(mp.mpf(a) / F) - half_log_2pi
                               - log_f * mp.mpf(F - 2 * a) / (2 * F) for a in residues))
    return tuple(out)


def relative_fold_per_residue(model, ctx):
    """The relative `lfun.partial_zeta_all(k=1)` as pi_H of the full field's
    per-residue derivatives (each rounded to ctx.bits) times
    pi_H(eps(Z_S(0)))."""
    full = make_field(model.f)
    pset = place_set(full, (model.p,))
    h = model.group
    pi_h = _proj_g_to_h(full.group, h, model.f)
    odd = [Fraction(0)] * h.order
    for sigma, v in partial_zeta_all(full, pset, 0).items():
        i = h.index(pi_h(sigma))
        odd[i] += v if h.label(h.elements[i]) == full.group.label(sigma) else -v
    zder = partial_zeta_derivs_per_residue(full, pset, ctx)
    d = lcm(1, *(x.denominator for x in odd))
    with ctx.guard():
        zd = [mp.mpf(0)] * h.order
        for sigma, v in zder.items():
            zd[h.index(pi_h(sigma))] += v
        out = _convolve(h, zd, [x.numerator * (d // x.denominator) for x in odd])
        return {e: ctx.final(mp.mpf(v) / d) for e, v in zip(h.elements, out)}


def inject_gre(x, target_group):
    """Map an element of Q[H] into Q[G] along matching residue labels."""
    out = GroupRingElement.zero(target_group)
    src = x.group
    for elem in src.elements:
        c = x.coeff(elem)
        if c:
            t = target_group.element_of_residue(src.label(elem))
            out = out + GroupRingElement.basis(target_group, t) * c
    return out


def bch_projection_dense(rel, full_res):
    """`jideal.bch_projection` as pi_H(beta0 b) over the basis b of J, each
    product a dense convolution over G, with beta0 = theta~ (1 + c)."""
    g = full_res.model.group
    c = full_res.model.conjugation()
    beta0 = inject_gre(half_stickelberger(rel), g) * (
        GroupRingElement.one(g) + GroupRingElement.basis(g, c))
    pi_h = _proj_g_to_h(g, rel.group, rel.f)
    return z_span(rel.group,
                  [(beta0 * b).project(pi_h) for b in full_res.ideal.basis_elements()])


def mat_mul(a, b):
    """The product a b, skipping the zero entries of both factors."""
    n, k = len(a), len(b)
    if k and len(a[0]) != k:
        raise ValueError(f"mat_mul: a has {len(a[0])} columns but b has {k} rows")
    m = len(b[0]) if k else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = [[0] * m for _ in range(n)]
    for ai, oi in zip(a, out):
        for x, bt in zip(ai, b_rows):
            if x:
                for j, y in bt:
                    oi[j] += x * y
    return out
