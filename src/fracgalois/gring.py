"""Finite abelian groups, their characters, rational group rings, full-rank
ideal lattices in Q[G] with canonical HNF bases, and finite G-modules with
annihilator / Fitting ideal computations.

Groups are kept in invariant-factor coordinates: an element is a tuple
(x_1, ..., x_r) with 0 <= x_i < d_i and d_1 | d_2 | ... Groups coming from
(Z/f)^x carry residue labels so Galois elements print as sigma_a.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, gcd, lcm, prod

from .cyclo import (CyclotomicNumber, crt, euler_phi, factorize, poly_divexact,
                    poly_mul, poly_sub, poly_trim, primitive_root, _power_table)
from . import intmat


# ---------------------------------------------------------------------------
# groups

def _unit_generators(f):
    """Generators (residue, order) of (Z/f)^x via CRT of prime-power parts."""
    gens = []
    for p, e in factorize(f):
        q = p ** e
        rest = f // q
        local = []
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                local = [(3, 2)]
            else:
                local = [(q - 1, 2), (3, 2 ** (e - 2))]
        else:
            g = primitive_root(q)
            local = [(g, (p - 1) * p ** (e - 1))]
        for g, order in local:
            if rest == 1:
                gens.append((g % f, order))
            else:
                gens.append((crt([(g, q), (1, rest)]), order))
    return gens


@lru_cache(maxsize=None)
def _dlog_table(f):
    """residue -> exponent tuple on the generators of (Z/f)^x."""
    gens = _unit_generators(f)
    orders = tuple(o for _, o in gens)
    table = {}
    for exps in product(*[range(o) for o in orders]):
        r = 1
        for (g, _), e in zip(gens, exps):
            r = (r * pow(g, e, f)) % f
        table.setdefault(r, exps)
    assert len(table) == euler_phi(f)
    return orders, table


class FinAbGroup:
    """Finite abelian group in invariant-factor coordinates."""

    def __init__(self, key, invariant_factors, elements, labels, coords_of_residue, f):
        self._key = key
        self.invariant_factors = tuple(invariant_factors)
        self.elements = tuple(elements)          # sorted coordinate tuples
        self._labels = dict(labels)              # coords -> label
        self._coords_of_residue = coords_of_residue  # residue -> coords (or None)
        self.f = f                               # ambient modulus (or None)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.order = len(self.elements)
        self.exponent = self.invariant_factors[-1] if self.invariant_factors else 1

    # -- basic ops on coordinate tuples
    @property
    def identity(self):
        return (0,) * len(self.invariant_factors)

    def mul(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariant_factors))

    def inv(self, a):
        return tuple((-x) % d for x, d in zip(a, self.invariant_factors))

    def pow(self, a, n):
        return tuple((x * n) % d for x, d in zip(a, self.invariant_factors))

    def index(self, a):
        return self._index[a]

    def label(self, a):
        return self._labels.get(a, a)

    def element_of_residue(self, a):
        if self._coords_of_residue is None:
            raise ValueError("group has no residue structure")
        if self.f is None or gcd(a, self.f) != 1:
            raise ValueError(f"residue {a} not invertible mod {self.f}")
        key = a % self.f
        if key not in self._coords_of_residue:
            raise ValueError(f"residue {a} is not a member of {self._key}")
        return self._coords_of_residue[key]

    def generator_elements(self):
        r = len(self.invariant_factors)
        return [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"FinAbGroup{self._key}"

    def __iter__(self):
        return iter(self.elements)


def _group_from_lattices(f, s_residues, t_residues, key):
    """The quotient L_S / L_T of dlog lattices inside (Z/f)^x coordinates.

    L_X = Z-span of dlog(x) for x in X together with the generator-order
    lattice. Members are the residues whose dlog lies in L_S; two members
    collide iff they differ by L_T.
    """
    orders, dlog = _dlog_table(f)
    r = len(orders)
    if r == 0:  # (Z/2)^x or degenerate: trivial group
        return FinAbGroup(key, (), [()], {(): 1 % f}, {1 % f: ()}, f)

    def lattice_basis(residues):
        cols = [[orders[i] if j == i else 0 for i in range(r)] for j in range(r)]
        for a in sorted(residues):
            if gcd(a, f) != 1:
                raise ValueError(f"residue {a} not a unit mod {f}")
            cols.append(list(dlog[a % f]))
        h_cols, pivot_rows = intmat.hnf_columns(intmat.mat_transpose(cols))
        assert pivot_rows == list(range(r))
        return h_cols

    bs_cols = lattice_basis(s_residues)
    piv = list(range(r))

    # X = B_S^{-1} B_T must be integral (L_T inside L_S)
    x_cols = []
    for col in lattice_basis(t_residues):
        y = intmat.solve_upper_triangular(bs_cols, piv, col)
        assert y is not None and all(v.denominator == 1 for v in y), "T-lattice not inside S-lattice"
        x_cols.append(y)
    x = intmat.mat_transpose(x_cols)

    u, d, _ = intmat.smith_normal_form(x)
    keep = [i for i in range(r) if abs(d[i][i]) != 1]
    inv_factors = tuple(abs(d[i][i]) for i in keep)
    assert all(inv_factors[i] and inv_factors[i + 1] % inv_factors[i] == 0
               for i in range(len(inv_factors) - 1))

    def coords_of(a):
        y = intmat.solve_upper_triangular(bs_cols, piv, dlog[a])
        if y is None or any(v.denominator != 1 for v in y):
            return None
        uy = [sum(u[i][j] * int(y[j]) for j in range(r)) for i in range(r)]
        return tuple(uy[i] % d for i, d in zip(keep, inv_factors))

    coords_map = {}
    labels = {}
    for a in sorted(dlog.keys()):
        c = coords_of(a)
        if c is None:
            continue
        coords_map[a] = c
        if c not in labels:
            labels[c] = a
    elements = sorted(labels.keys())
    expected = 1
    for dd in inv_factors:
        expected *= dd
    assert len(elements) == expected, (len(elements), inv_factors)
    return FinAbGroup(key, inv_factors, elements, labels, coords_map, f)


@lru_cache(maxsize=None)
def galois_group(f, kernel_residues=frozenset({1})):
    """Gal(Q(zeta_f)^H / Q) = (Z/f)^x / <kernel_residues> with residue labels."""
    if f < 2:
        raise ValueError("conductor must be at least 2")
    kern = frozenset(a % f for a in kernel_residues) | {1 % f}
    all_units = frozenset(a for a in range(f) if gcd(a, f) == 1)
    closed = subgroup_closure(kern, lambda a, b: a * b % f)
    key = ("units-quotient", f, closed)
    return _group_from_lattices(f, all_units, closed, key)


@lru_cache(maxsize=None)
def subgroup_as_group(f, residues):
    """A subgroup H of (Z/f)^x as a standalone group (residue labels kept)."""
    closed = subgroup_closure({a % f for a in residues} | {1}, lambda a, b: a * b % f)
    key = ("units-subgroup", f, closed)
    return _group_from_lattices(f, closed, frozenset({1}), key)


def subgroup_closure(elems, mul):
    """The subgroup of a finite group generated by the non-empty `elems`,
    as a frozenset; `mul` is the group law."""
    cur = frozenset(elems)
    while True:
        nxt = cur | {mul(a, b) for a in cur for b in cur}
        if nxt == cur:
            return cur
        cur = nxt


@lru_cache(maxsize=None)
def abelian_group(invariant_factors):
    """Abstract group with the given invariant factors (d_1 | d_2 | ...)."""
    invariant_factors = tuple(d for d in invariant_factors if d > 1)
    for a, b in zip(invariant_factors, invariant_factors[1:]):
        if b % a:
            raise ValueError("invariant factors must form a divisibility chain")
    key = ("abstract", invariant_factors)
    if not invariant_factors:
        return FinAbGroup(key, (), [()], {(): 0}, None, None)
    elements = sorted(product(*[range(d) for d in invariant_factors]))
    labels = {e: e for e in elements}
    return FinAbGroup(key, invariant_factors, elements, labels, None, None)


class GroupHom:
    """Homomorphism between groups, tabulated on elements and verified."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self._map = dict(mapping)
        for a in source.elements:
            for b in source.elements:
                if self._map[source.mul(a, b)] != target.mul(self._map[a], self._map[b]):
                    raise ValueError(f"not a homomorphism at {a}, {b}")
        self.surjective = set(self._map.values()) == set(target.elements)
        self.injective = len(set(self._map.values())) == source.order

    def __call__(self, a):
        return self._map[a]


def hom_by_residues(source, target):
    """The map taking sigma_a in source to sigma_a in target (same modulus
    family); both groups must carry residue labels with target modulus
    dividing the source's."""
    if source.f is None or target.f is None or source.f % target.f:
        raise ValueError("incompatible residue structures")
    mapping = {}
    for e in source.elements:
        a = source.label(e)
        mapping[e] = target.element_of_residue(a % target.f)
    return GroupHom(source, target, mapping)


# ---------------------------------------------------------------------------
# characters

class Character:
    """Character of a FinAbGroup, stored as exponents on the SNF generators.

    chi(g_i) = zeta_E ** (t_i * E / d_i) with E the group exponent, so
    exp_at is pure integer arithmetic; values materialize on demand.
    """

    __slots__ = ("group", "exps")

    def __init__(self, group, exps):
        self.group = group
        self.exps = tuple(t % d for t, d in zip(exps, group.invariant_factors))

    def exp_at(self, a):
        e = self.group.exponent
        total = 0
        for t, x, d in zip(self.exps, a, self.group.invariant_factors):
            total += t * x * (e // d)
        return total % e

    def value(self, a):
        return CyclotomicNumber.root_of_unity(self.group.exponent, self.exp_at(a))

    def is_trivial(self):
        return all(t == 0 for t in self.exps)

    def is_trivial_on(self, elems):
        return all(self.exp_at(a) == 0 for a in elems)

    def conj(self):
        return Character(self.group, tuple(-t for t in self.exps))

    def power(self, s):
        return Character(self.group, tuple(t * s for t in self.exps))

    def order(self):
        return lcm(1, *(d // gcd(d, t) for t, d in zip(self.exps, self.group.invariant_factors)))

    def __eq__(self, other):
        return (isinstance(other, Character) and self.group == other.group
                and self.exps == other.exps)

    def __hash__(self):
        return hash((self.group._key, self.exps))

    def __repr__(self):
        return f"Character{self.exps}"


def characters(group):
    """All characters, in lexicographic exponent order (deterministic)."""
    return [Character(group, exps)
            for exps in product(*[range(d) for d in group.invariant_factors])]


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
    for e in tgt.elements:  # paranoia: the transport must match pointwise
        assert out.exp_at(e) == chi.exp_at(inverse[e])
    return out


# ---------------------------------------------------------------------------
# rational group ring

class GroupRingElement:
    """Element of Q[G], dense Fraction coefficients over group.elements."""

    __slots__ = ("group", "c")
    __hash__ = None

    def __init__(self, group, coeffs):
        self.group = group
        c = tuple(Fraction(x) for x in coeffs)
        assert len(c) == group.order
        self.c = c

    @classmethod
    def zero(cls, group):
        return cls(group, (0,) * group.order)

    @classmethod
    def one(cls, group):
        return cls.basis(group, group.identity)

    @classmethod
    def basis(cls, group, elem, coeff=1):
        c = [Fraction(0)] * group.order
        c[group.index(elem)] = Fraction(coeff)
        return cls(group, c)

    @classmethod
    def from_dict(cls, group, d):
        c = [Fraction(0)] * group.order
        for e, x in d.items():
            c[group.index(e)] += Fraction(x)
        return cls(group, c)

    def coeff(self, elem):
        return self.c[self.group.index(elem)]

    def is_zero(self):
        return all(x == 0 for x in self.c)

    def is_integral(self):
        return all(x.denominator == 1 for x in self.c)

    def denominator(self):
        return lcm(1, *(x.denominator for x in self.c))

    def __add__(self, other):
        assert self.group == other.group
        return GroupRingElement(self.group, tuple(x + y for x, y in zip(self.c, other.c)))

    def __sub__(self, other):
        assert self.group == other.group
        return GroupRingElement(self.group, tuple(x - y for x, y in zip(self.c, other.c)))

    def __neg__(self):
        return GroupRingElement(self.group, tuple(-x for x in self.c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupRingElement(self.group, tuple(x * other for x in self.c))
        assert self.group == other.group
        g = self.group
        out = [Fraction(0)] * g.order
        perms = _perm_table(g)
        for i, x in enumerate(self.c):
            if x:
                pi = perms[i]
                for j, y in enumerate(other.c):
                    if y:
                        out[pi[j]] += x * y
        return GroupRingElement(self.group, out)

    __rmul__ = __mul__

    def times_elem(self, elem):
        """Fast multiplication by a single group element (a permutation)."""
        g = self.group
        pi = _perm_table(g)[g.index(elem)]
        out = [Fraction(0)] * g.order
        for j, y in enumerate(self.c):
            if y:
                out[pi[j]] = y
        return GroupRingElement(g, out)

    def kappa(self):
        """The involution sigma -> sigma^{-1} applied coefficientwise."""
        g = self.group
        out = [Fraction(0)] * g.order
        for e, x in zip(g.elements, self.c):
            if x:
                out[g.index(g.inv(e))] = x
        return GroupRingElement(g, out)

    def apply_character(self, chi):
        """chi extended Q-linearly; lands in Q(zeta_E)."""
        g = self.group
        e = g.exponent
        acc = [Fraction(0)] * e  # exponent bucket
        for elem, x in zip(g.elements, self.c):
            if x:
                acc[chi.exp_at(elem)] += x
        phi = euler_phi(e)
        tab = _power_table(e)
        out = [Fraction(0)] * phi
        for k, x in enumerate(acc):
            if x:
                row = tab[k]
                for j in range(phi):
                    if row[j]:
                        out[j] += x * row[j]
        return CyclotomicNumber(e, out)

    def project(self, hom):
        """Push forward along a GroupHom (sum coefficients over fibers)."""
        assert hom.source == self.group
        out = [Fraction(0)] * hom.target.order
        for e, x in zip(self.group.elements, self.c):
            if x:
                out[hom.target.index(hom(e))] += x
        return GroupRingElement(hom.target, out)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group == other.group and self.c == other.c

    def __repr__(self):
        g = self.group
        terms = []
        for e, x in zip(g.elements, self.c):
            if x:
                terms.append(f"{x}*[{g.label(e)}]")
        return "GR(" + (" + ".join(terms) if terms else "0") + ")"


_PERM_CACHE = {}


def _perm_table(group):
    """perm[i][j] = index of elements[i] * elements[j]."""
    tab = _PERM_CACHE.get(group._key)
    if tab is None:
        tab = [[group.index(group.mul(a, b)) for b in group.elements]
               for a in group.elements]
        _PERM_CACHE[group._key] = tab
    return tab


def norm_element(group):
    """Sum of all group elements."""
    return GroupRingElement(group, (1,) * group.order)


def plus_idempotent(group, conj_elem):
    """(1 + c)/2 for an order-<=2 element c."""
    assert group.mul(conj_elem, conj_elem) == group.identity
    e = GroupRingElement.zero(group)
    e = e + GroupRingElement.basis(group, group.identity, Fraction(1, 2))
    e = e + GroupRingElement.basis(group, conj_elem, Fraction(1, 2))
    return e


def assemble(group, values):
    """Inverse character transform: the unique x in Q[G] with chi(x) as given.

    `values` maps each character to a CyclotomicNumber (or rational). If the
    data is not Galois-equivariant the result is irrational; the error then
    names a witness pair (chi, s) with values[chi^s] != values[chi]^sigma_s.
    """
    chars = characters(group)
    vals = {}
    for chi in chars:
        v = values[chi] if not callable(values) else values(chi)
        if not isinstance(v, CyclotomicNumber):
            v = CyclotomicNumber.rational(v)
        vals[chi] = v
    e = group.exponent
    m_all = e
    for v in vals.values():
        m_all = lcm(m_all, v.m)
    lifted = {chi: v.lift(m_all) for chi, v in vals.items()}
    step = m_all // e
    n_inv = Fraction(1, group.order)
    coeffs = []
    for elem in group.elements:
        inv = group.inv(elem)
        acc = CyclotomicNumber.zero(m_all)
        for chi, v in lifted.items():
            acc = acc + v.mul_root(step * chi.exp_at(inv))
        try:
            coeffs.append(acc.as_fraction() * n_inv)
        except ValueError:
            witness = _equivariance_witness(group, vals, m_all)
            raise ValueError(
                "character data is not Galois-equivariant; witness "
                f"chi={witness[0].exps}, s={witness[1]}") from None
    return GroupRingElement(group, coeffs)


def _equivariance_witness(group, vals, m_all):
    for chi in characters(group):
        for s in range(2, m_all):
            if gcd(s, m_all) != 1:
                continue
            lhs = vals[chi.power(s)]
            rhs = vals[chi].galois(s)
            if not (lhs == rhs):
                return chi, s
    raise AssertionError("assemble failed but data looks equivariant")


def det_qg(rows, group):
    """Determinant of a square matrix over Q[G].

    1 x 1 and 2 x 2 matrices are expanded directly. Larger ones over cyclic
    groups go through fraction-free elimination in Z[x] folded mod x^n - 1;
    over products of cyclics, through per-character determinants.
    """
    k = len(rows)
    for r in rows:
        assert len(r) == k
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if len(group.invariant_factors) <= 1:
        return _det_cyclic(rows, group, k)
    vals = {}
    for chi in characters(group):
        mat = [[entry.apply_character(chi) for entry in row] for row in rows]
        vals[chi] = _cyc_det(mat)
    return assemble(group, vals)


def _det_poly(m, k):
    """Bareiss determinant of a k x k matrix over Z[x] (coefficient lists)."""
    sign = 1
    prev = [1]
    for r in range(k - 1):
        piv = next((i for i in range(r, k) if m[i][r]), None)
        if piv is None:
            return []
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, k):
            for j in range(r + 1, k):
                num = poly_sub(poly_mul(m[r][r], m[i][j]),
                               poly_mul(m[i][r], m[r][j]))
                m[i][j] = poly_divexact(num, prev)
            m[i][r] = []
        prev = m[r][r]
    d = m[k - 1][k - 1]
    return [x * -1 for x in d] if sign < 0 else d


def _det_cyclic(rows, group, k):
    """det over Q[C_n]: clear denominators, eliminate in Z[x], fold mod x^n - 1."""
    n = group.order
    den = 1
    for row in rows:
        for e in row:
            for x in e.c:
                den = lcm(den, x.denominator)
    m = [[poly_trim([int(x * den) for x in e.c]) for e in row] for row in rows]
    d = _det_poly(m, k)
    folded = [0] * n
    for i, x in enumerate(d):
        if x:
            folded[i % n] += x
    unscale = Fraction(1, den ** k)
    return GroupRingElement(group, [x * unscale for x in folded])


def _cyc_det(mat):
    n = len(mat)
    det = CyclotomicNumber.rational(1)
    sign = 1
    m = [row[:] for row in mat]
    for kcol in range(n):
        piv = None
        for i in range(kcol, n):
            if not m[i][kcol].is_zero():
                piv = i
                break
        if piv is None:
            return CyclotomicNumber.rational(0)
        if piv != kcol:
            m[kcol], m[piv] = m[piv], m[kcol]
            sign = -sign
        pval = m[kcol][kcol]
        det = det * pval
        pinv = pval.inverse()
        for i in range(kcol + 1, n):
            if not m[i][kcol].is_zero():
                factor = m[i][kcol] * pinv
                for j in range(kcol, n):
                    m[i][j] = m[i][j] - factor * m[kcol][j]
    return det * sign if sign < 0 else det


def gre_inverse(x):
    """Inverse of x in Q[G]; error names a character vanishing on x."""
    vals = {}
    for chi in characters(x.group):
        v = x.apply_character(chi)
        if v.is_zero():
            raise ZeroDivisionError(f"not invertible: chi={chi.exps} kills it")
        vals[chi] = v.inverse()
    return assemble(x.group, vals)


# ---------------------------------------------------------------------------
# ideal lattices in Q[G]

class IdealLattice:
    """Full-rank Z[G]-stable lattice in Q[G], canonical column-HNF basis.

    Stored as integer columns over a minimal positive denominator; two equal
    lattices are bitwise-equal. Columns are indexed against group.elements.
    """

    __slots__ = ("group", "den", "cols")

    def __init__(self, group, den, cols):
        self.group = group
        self.den = den
        self.cols = cols  # tuple of tuples, canonical

    @classmethod
    def from_generators(cls, group, gens, *, close_under_group=True):
        n = group.order
        assert all(x.group == group for x in gens)
        if close_under_group:
            vecs = _orbit_vectors(group, gens)
        else:
            vecs = [list(x.c) for x in gens]
        if not vecs:
            raise ValueError("no generators")
        den = lcm(1, *(c.denominator for v in vecs for c in v))
        # den // x.denominator is exact: no Fraction products
        mat = [[x.numerator * (den // x.denominator) for x in row] for row in zip(*vecs)]
        h_cols, pivot_rows = intmat.hnf_columns(mat)
        if len(h_cols) != n:
            raise ValueError(
                f"generators span rank {len(h_cols)} < {n}; not a full lattice "
                "(use span helpers for degenerate spans)")
        g = intmat.content([den] + [x for col in h_cols for x in col])
        if g > 1:
            den //= g
            h_cols = [tuple(x // g for x in col) for col in h_cols]
        return cls(group, den, tuple(tuple(col) for col in h_cols))

    @classmethod
    def unit_ideal(cls, group):
        """Z[G] itself."""
        n = group.order
        cols = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
        return cls(group, 1, cols)

    def basis_elements(self):
        return [GroupRingElement(self.group,
                                 [Fraction(x, self.den) for x in col])
                for col in self.cols]

    def _coordinates(self, x):
        """y with x = sum_t y_t * cols[t] / den; rational, since full rank."""
        assert x.group == self.group
        return intmat.solve_upper_triangular(
            self.cols, range(len(self.cols)), [q * self.den for q in x.c])

    def contains_element(self, x):
        return all(v.denominator == 1 for v in self._coordinates(x))

    def contains_lattice(self, other):
        assert other.group == self.group
        return all(self.contains_element(b) for b in other.basis_elements())

    def __eq__(self, other):
        if not isinstance(other, IdealLattice):
            return NotImplemented
        return (self.group == other.group and self.den == other.den
                and self.cols == other.cols)

    __hash__ = None

    def scale(self, alpha):
        """alpha * L for alpha in Q[G] invertible (or a nonzero rational)."""
        if isinstance(alpha, (int, Fraction)):
            alpha = Fraction(alpha)
            if alpha == 0:
                raise ZeroDivisionError("scaling by zero")
            gens = [b * alpha for b in self.basis_elements()]
            return IdealLattice.from_generators(self.group, gens, close_under_group=False)
        gre_inverse(alpha)  # raises with a witness if not invertible
        gens = [alpha * b for b in self.basis_elements()]
        return IdealLattice.from_generators(self.group, gens, close_under_group=False)

    def add(self, other):
        assert other.group == self.group
        return IdealLattice.from_generators(
            self.group, self.basis_elements() + other.basis_elements(),
            close_under_group=False)

    def multiply(self, other):
        assert other.group == self.group
        gens = [a * b for a in self.basis_elements() for b in other.basis_elements()]
        return IdealLattice.from_generators(self.group, gens, close_under_group=False)

    def intersect(self, other):
        assert other.group == self.group
        n = self.group.order
        d = lcm(self.den, other.den)
        a_cols = [[x * (d // self.den) for x in col] for col in self.cols]
        b_cols = [[x * (d // other.den) for x in col] for col in other.cols]
        stacked = [[a_cols[j][i] for j in range(n)] + [-b_cols[j][i] for j in range(n)]
                   for i in range(n)]
        kernel = intmat.kernel_basis(stacked)
        vecs = []
        for kc in kernel:
            y = kc[:n]
            vec = [sum(a_cols[j][i] * y[j] for j in range(n)) for i in range(n)]
            vecs.append([Fraction(x, d) for x in vec])
        gens = [GroupRingElement(self.group, v) for v in vecs]
        return IdealLattice.from_generators(self.group, gens, close_under_group=False)

    def project(self, hom):
        gens = [b.project(hom) for b in self.basis_elements()]
        return IdealLattice.from_generators(hom.target, gens, close_under_group=False)

    def covolume(self):
        """Index-style volume [Z[G] : L] as a positive rational."""
        num = 1
        for t in range(len(self.cols)):
            num *= self.cols[t][t]
        return Fraction(num, self.den ** len(self.cols))

    def ell_solve(self, x, ell):
        """Solve for x over self's basis; require denominators prime to ell.

        Returns the coordinate vector or the offending (index, coordinate).
        """
        y = self._coordinates(x)
        for i, v in enumerate(y):
            if v.denominator % ell == 0:
                return None, (i, v)
        return y, None

    def ell_contains(self, other, ell):
        """Z_(ell)-containment other <= self; returns (bool, witness)."""
        for idx, b in enumerate(other.basis_elements()):
            _, bad = self.ell_solve(b, ell)
            if bad is not None:
                return False, {"basis_index": idx, "coordinate": str(bad[1])}
        return True, None

    def ell_equal(self, other, ell):
        ok1, w1 = self.ell_contains(other, ell)
        if not ok1:
            return False, {"direction": "other into self", **w1}
        ok2, w2 = other.ell_contains(self, ell)
        if not ok2:
            return False, {"direction": "self into other", **w2}
        return True, None

    def to_jsonable(self):
        return {"den": self.den, "cols": [list(c) for c in self.cols],
                "labels": [str(self.group.label(e)) for e in self.group.elements]}

    def __repr__(self):
        return f"IdealLattice(den={self.den}, diag={[self.cols[t][t] for t in range(len(self.cols))]})"


def _orbit_vectors(group, gens):
    """Coefficient vectors of sigma * x for every x in gens and sigma in group."""
    vecs = []
    for x in gens:
        for pi in _perm_table(group):
            v = [Fraction(0)] * group.order
            for j, y in enumerate(x.c):
                if y:
                    v[pi[j]] = y
            vecs.append(v)
    return vecs


def _step_back(elem):
    """(i, prev) with elem = prev times generator i, i the last nonzero
    coordinate of elem: a walk of G in sorted order meets prev first."""
    last = max(i for i, x in enumerate(elem) if x)
    return last, elem[:last] + (elem[last] - 1,) + elem[last + 1:]


def span_membership(gens, x):
    """Is x in the Z-span of the group-ring elements `gens`? (No full-rank
    assumption; used for rank-deficient spans like Z[G] * theta.)"""
    if not gens:
        return x.is_zero()
    den = lcm(x.denominator(), *(g.denominator() for g in gens))
    cols = [[int(c * den) for c in g.c] for g in gens]
    v = [int(c * den) for c in x.c]
    return intmat.span_contains(cols, v)


def gmodule_span_equal(gens_a, gens_b, group):
    """Equality of Z[G]-spans (possibly rank-deficient) of two generator lists."""
    va, vb = _orbit_vectors(group, gens_a), _orbit_vectors(group, gens_b)
    den = lcm(1, *(c.denominator for v in va + vb for c in v))
    ca = [[int(c * den) for c in v] for v in va]
    cb = [[int(c * den) for c in v] for v in vb]
    return intmat.span_equal(ca, cb, group.order)


# ---------------------------------------------------------------------------
# finite G-modules

class FiniteGModule:
    """Finite abelian group with G-action, presented by generators/relations.

    `relations`: integer columns in Z^k whose span has full rank k (finite).
    `action`: one k x k integer matrix per invariant-factor generator of G,
    acting on generator coordinates; matrices must commute and respect orders
    modulo the relation lattice. The relation HNF and the structure are
    computed once, on first use; every method works modulo that HNF.
    """

    def __init__(self, group, k, relations, action, *, validate=True):
        self.group = group
        self.k = k
        self.relations = tuple(tuple(col) for col in relations)
        self.action = tuple(tuple(tuple(row) for row in mat) for mat in action)
        if len(self.action) != len(group.invariant_factors):
            raise ValueError(
                f"need {len(group.invariant_factors)} action matrices (one per "
                f"group generator), got {len(self.action)}")
        if any(len(mat) != k or any(len(r) != k for r in mat) for mat in self.action):
            raise ValueError(f"action matrix is not {k} x {k}")
        if validate:
            self._validate()
        self._action_cache = {(0,) * len(self.action): intmat.identity_matrix(k)}

    # -- construction helpers
    @classmethod
    def trivial(cls, group):
        return cls(group, 0, [], [() for _ in group.invariant_factors])

    def _rel_matrix(self):
        return [[col[i] for col in self.relations] for i in range(self.k)]

    @cached_property
    def _hnf(self):
        """(h_cols, pivot_rows): the HNF of the relations."""
        return intmat.hnf_columns(self._rel_matrix())

    def _reduce(self, v):
        """v reduced bottom up, entry p to a centered residue of the p-th HNF
        pivot: a unique representative of v modulo the relations."""
        v = list(v)
        for p, col in reversed(list(enumerate(self._hnf[0]))):
            q = (v[p] + col[p] // 2) // col[p]
            if q:
                for i in range(p + 1):
                    v[i] -= q * col[i]
        return v

    def _mod_relations(self, mat):
        """The k x k matrix `mat` with every column reduced by `_reduce`."""
        return intmat.mat_transpose([self._reduce(col) for col in zip(*mat)])

    def _validate(self):
        k = self.k
        if k == 0:
            return
        if len(self._hnf[0]) != k:
            raise ValueError("relation lattice is not full rank: module is infinite")
        h = intmat.mat_transpose(self._hnf[0])
        one = self._mod_relations(intmat.identity_matrix(k))
        mats = self.action
        for d, mat in zip(self.group.invariant_factors, mats):
            # the action stabilizes the relation lattice: A H = 0 mod relations
            if any(map(any, self._mod_relations(intmat.mat_mul(mat, h)))):
                raise ValueError("action does not preserve relations")
            # correct order: A^d = 1 mod relations, by square-and-multiply
            p, sq = one, mat
            while d:
                if d & 1:
                    p = self._mod_relations(intmat.mat_mul(sq, p))
                d >>= 1
                if d:
                    sq = self._mod_relations(intmat.mat_mul(sq, sq))
            if p != one:
                raise ValueError("action generator order does not divide group order")
        # pairwise commuting mod relations
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                if (self._mod_relations(intmat.mat_mul(mats[a], mats[b]))
                        != self._mod_relations(intmat.mat_mul(mats[b], mats[a]))):
                    raise ValueError("action matrices do not commute mod relations")

    def order(self):
        return prod(col[t] for t, col in enumerate(self._hnf[0]))

    def structure(self):
        """Invariant factors of the underlying abelian group."""
        return self._structure

    @cached_property
    def _structure(self):
        if self.k == 0:
            return ()
        # the SNF of the HNF: an SNF of the raw relations can blow its entries up
        _, d, _ = intmat.smith_normal_form(intmat.mat_transpose(self._hnf[0]))
        return tuple(abs(d[i][i]) for i in range(self.k) if abs(d[i][i]) > 1)

    def action_of(self, elem):
        """The k x k matrix of `elem` (product of generator powers): one step
        along its last nonzero generator from the cached previous element."""
        if elem not in self._action_cache:
            last, prev = _step_back(elem)
            self._action_cache[elem] = intmat.mat_mul(
                self.action[last], self.action_of(prev))
        return self._action_cache[elem]

    def annihilator(self):
        """ann_{Z[G]}(M) as a full-rank IdealLattice (den = 1 sublattice).

        With e the exponent of M and H the HNF of the relations, B = e H^-1 is
        integral and alpha kills M iff B (sum_x alpha_x A_x) = 0 mod e. Read as
        vectors indexed by x, the k^2 entries of B A_x have an HNF basis W of
        at most n = |G| vectors, and ann(M) is the alpha-part of the kernel of
        [W | -e I]. B A_x mod e is walked along G: B kills the relations mod
        e and the A's commute modulo them, so B A_x = (B A_prev) A_last.
        Only the span of the entry vectors mod e matters, so zero and repeated
        ones are dropped before the HNF.
        """
        g = self.group
        structure = self.structure()
        if not structure:
            return IdealLattice.unit_ideal(g)
        e = structure[-1]
        k = self.k
        h_cols, pivot_rows = self._hnf
        b = intmat.mat_transpose([
            intmat.solve_upper_triangular(
                h_cols, pivot_rows, [e if i == j else 0 for i in range(k)])
            for j in range(k)])
        walk = {g.identity: [[x % e for x in row] for row in b]}
        for elem in g.elements[1:]:  # sorted: the step back is walked first
            last, prev = _step_back(elem)
            walk[elem] = [[x % e for x in row]
                          for row in intmat.mat_mul(walk[prev], self.action[last])]
        entries = zip(*([x for row in walk[elem] for x in row] for elem in g.elements))
        w, _ = intmat.hnf_columns(intmat.mat_transpose([v for v in set(entries) if any(v)]))
        system = [col + [-e if t == s else 0 for t in range(len(w))]
                  for s, col in enumerate(w)]
        gens = [GroupRingElement(g, col[:g.order])
                for col in intmat.kernel_basis(system)]
        return IdealLattice.from_generators(g, gens, close_under_group=False)

    def fitting_ideal(self, *, minor_budget=20000):
        """Fitt^0_{Z[G]}(M) from the induced Z[G]-presentation, shrunk first.

        The presentation [H | g I - A_g], H the HNF of the relations and A_g
        reduced modulo H to centered residues, has entries in Z[G], kept as
        integer vectors over group.elements (the identity first). A unit
        entry +-h lets column operations clear its row; deleting that row and
        the pivot column scales every k x k minor by the unit, so the ideal
        is unchanged (Fitting ideals do not depend on the presentation). The
        minors of what is left generate the ideal only as a Z[G]-module.
        """
        g = self.group
        n = g.order
        perm = _perm_table(g)
        cols = [[[x] + [0] * (n - 1) for x in col] for col in self._hnf[0]]
        for gi, mat in zip(g.generator_elements(), self.action):
            for t in range(self.k):
                a = self._reduce([mat[s][t] for s in range(self.k)])
                cols.append([[-x] + [0] * (n - 1) for x in a])
                cols[-1][t][g.index(gi)] += 1
        k = self.k
        while k:
            # the unit entry whose row and column touch the fewest others
            row_nz = [sum(1 for c in cols if any(c[s])) for s in range(k)]
            pivots = [((row_nz[s] - 1) * (sum(map(any, c)) - 1), s, j)
                      for j, c in enumerate(cols) for s in range(k)
                      if sum(map(abs, c[s])) == 1]
            if not pivots:
                break
            _, s, j = min(pivots)
            piv = cols.pop(j)
            h = next(i for i, x in enumerate(piv[s]) if x)
            to_inv = perm[g.index(g.inv(g.elements[h]))]
            for c in cols:
                # c -= c[s] (+-h)^-1 piv clears c[s]
                q = [(to_inv[t], piv[s][h] * x) for t, x in enumerate(c[s]) if x]
                for r in range(k):
                    for a, x in q:
                        for b, y in enumerate(piv[r]):
                            if y:
                                c[r][perm[a][b]] -= x * y
                del c[s]
            cols = [c for c in cols if any(map(any, c))]
            k -= 1
        if k == 0:
            return IdealLattice.unit_ideal(g)
        # a Z-basis of the columns' span keeps the Z-span of the minors
        flat, _ = intmat.hnf_columns([[c[s][x] for c in cols]
                                      for s in range(k) for x in range(n)])
        cols = [[GroupRingElement(g, col[s * n:(s + 1) * n]) for s in range(k)]
                for col in flat]
        if comb(len(cols), k) > minor_budget:
            raise ValueError(
                f"Fitting ideal needs {comb(len(cols), k)} minors (> {minor_budget}); "
                "module too large for the exact route")
        minors = [det_qg([[cols[j][s] for j in sel] for s in range(k)], g)
                  for sel in combinations(range(len(cols)), k)]
        return IdealLattice.from_generators(
            g, [d for d in minors if not d.is_zero()])

    def ell_part(self, ell):
        """The ell-primary component, as a module on the same generators."""
        if self.k == 0:
            return self
        order = self.order()
        v = 0
        while order % ell == 0:
            order //= ell
            v += 1
        extra = ell ** v
        new_rels = [list(col) for col in self._hnf[0]]
        for i in range(self.k):
            col = [0] * self.k
            col[i] = extra
            new_rels.append(col)
        mat = [[new_rels[j][i] for j in range(len(new_rels))] for i in range(self.k)]
        h_cols, pivot_rows = intmat.hnf_columns(mat)
        # generators killed outright (unit-vector relation columns) can be
        # dropped, keeping later Fitting-ideal minors tractable
        dead = {r for col, r in zip(h_cols, pivot_rows)
                if col[r] == 1 and sum(map(abs, col)) == 1}
        if dead:
            keep = [i for i in range(self.k) if i not in dead]
            rels = []
            for col in h_cols:
                sub = tuple(col[i] for i in keep)
                if any(sub):
                    rels.append(sub)
            action = [tuple(tuple(m[i][j] for j in keep) for i in keep)
                      for m in self.action]
            return FiniteGModule(self.group, len(keep), rels, action)
        return FiniteGModule(self.group, self.k, [tuple(c) for c in h_cols], self.action)

    def __repr__(self):
        return f"FiniteGModule(k={self.k}, structure={self.structure()})"
