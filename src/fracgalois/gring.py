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
from itertools import combinations, compress, product
from math import comb, gcd, lcm, prod

from .cyclo import (CyclotomicNumber, crt, euler_phi, factorize, poly_divexact,
                    poly_mul, poly_sub, poly_trim, primitive_root, _sparse_rows)
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
    if len(table) != euler_phi(f):
        raise ArithmeticError(f"generators of (Z/{f})^x reach {len(table)} of {euler_phi(f)} units")
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
        h_cols, pivot_rows = intmat.hnf_columns(cols)
        if pivot_rows != list(range(r)):
            raise ArithmeticError(f"dlog lattice mod {f} has pivot rows {pivot_rows}")
        return h_cols

    steps = intmat.echelon_steps(lattice_basis(s_residues), range(r))

    # X = B_S^{-1} B_T must be integral (L_T inside L_S)
    x_cols = []
    for col in lattice_basis(t_residues):
        y = intmat.solve_upper_triangular(steps, col)
        if y is None or any(v.denominator != 1 for v in y):
            raise ArithmeticError(f"the T-lattice mod {f} is not inside the S-lattice")
        x_cols.append(y)
    x = intmat.mat_transpose(x_cols)

    u, d, _ = intmat.smith_normal_form(x)
    keep = [i for i in range(r) if abs(d[i][i]) != 1]
    inv_factors = tuple(abs(d[i][i]) for i in keep)
    if not all(lo and hi % lo == 0 for lo, hi in zip(inv_factors, inv_factors[1:])):
        raise ArithmeticError(f"invariant factors {inv_factors} do not divide in turn")

    def coords_of(a):
        y = intmat.solve_upper_triangular(steps, dlog[a])
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
    expected = prod(inv_factors)
    if len(elements) != expected:
        raise ArithmeticError(f"quotient mod {f} has {len(elements)} elements, not {expected}")
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
    as a frozenset; `mul` is the group law. The set is closed under the r
    elements not yet reached when met: O(|H| r) products, not O(|H|^2)."""
    closed, gens = set(), []
    for s in elems:
        if s not in closed:
            gens.append(s)
            todo = [s, *closed]  # the old elements still need the new generator
            closed.add(s)
            for a in todo:  # todo grows while it is read
                new = {mul(a, t) for t in gens} - closed
                closed |= new
                todo += new
    return frozenset(closed)


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
        # phi(a g) = phi(a) phi(g) for every a and generator g gives every
        # product by induction, and phi(1) = 1 by cancellation; a trivial
        # group checks g = 1 instead
        gens = source.generator_elements() or [source.identity]
        for a in source.elements:
            for g in gens:
                if self._map[source.mul(a, g)] != target.mul(self._map[a], self._map[g]):
                    raise ValueError(f"not a homomorphism at {a}, {g}")
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
    exp_at is pure integer arithmetic.
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

    def is_trivial(self):
        return all(t == 0 for t in self.exps)

    def is_trivial_on(self, elems):
        return all(self.exp_at(a) == 0 for a in elems)

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


# ---------------------------------------------------------------------------
# rational group ring

class GroupRingElement:
    """Element of Q[G], dense Fraction coefficients over group.elements."""

    __slots__ = ("group", "c")
    __hash__ = None

    def __init__(self, group, coeffs):
        self.group = group
        c = tuple(x if type(x) is Fraction else Fraction(x) for x in coeffs)
        if len(c) != group.order:
            raise ValueError(f"Q[G] needs {group.order} coefficients, got {len(c)}")
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
        if self.group != other.group:
            raise ValueError(f"adding elements of {self.group!r} and {other.group!r}")
        return GroupRingElement(self.group, tuple(x + y for x, y in zip(self.c, other.c)))

    def __sub__(self, other):
        if self.group != other.group:
            raise ValueError(f"subtracting elements of {self.group!r} and {other.group!r}")
        return GroupRingElement(self.group, tuple(x - y for x, y in zip(self.c, other.c)))

    def __neg__(self):
        return GroupRingElement(self.group, tuple(-x for x in self.c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupRingElement(self.group, tuple(x * other for x in self.c))
        if self.group != other.group:
            raise ValueError(f"multiplying elements of {self.group!r} and {other.group!r}")
        return GroupRingElement(self.group, _convolve(self.group, self.c, other.c))

    __rmul__ = __mul__

    def apply_character(self, chi):
        """chi extended Q-linearly; lands in Q(zeta_E)."""
        g = self.group
        e = g.exponent
        acc = [Fraction(0)] * e  # exponent bucket
        for elem, x in zip(g.elements, self.c):
            if x:
                acc[chi.exp_at(elem)] += x
        rows = _sparse_rows(e)
        out = [Fraction(0)] * euler_phi(e)
        for k, x in enumerate(acc):
            if x:
                for j, y in rows[k]:
                    out[j] += x * y
        return CyclotomicNumber(e, out)

    def project(self, hom):
        """Push forward along a GroupHom (sum coefficients over fibers)."""
        if hom.source != self.group:
            raise ValueError(f"projecting from {self.group!r} along a map of {hom.source!r}")
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


def _convolve(group, a, b):
    """Coefficients of a * b in the group ring, for coefficient sequences
    a and b over group.elements (integers or Fractions)."""
    out = [0] * group.order
    perms = _perm_table(group)
    for i, x in enumerate(a):
        if x:
            pi = perms[i]
            for j, y in enumerate(b):
                if y:
                    out[pi[j]] += x * y
    return out


def _clear_denominators(elems):
    """(d, vecs): the lcm d of the denominators of the group-ring elements
    `elems` and the integer coefficient vectors of d * x."""
    ratios = [[c.as_integer_ratio() for c in x.c] for x in elems]
    d = lcm(1, *(q for v in ratios for _, q in v))
    return d, [[a * (d // q) for a, q in v] for v in ratios]


def norm_element(group):
    """Sum of all group elements."""
    return GroupRingElement(group, (1,) * group.order)


def det_qg(rows, group):
    """Determinant of a square matrix over Q[G], G = C_{d_1} x ... x C_{d_r}.

    The entries, cleared of denominators, are packed into Z[x] by the ring
    map t_i -> x^{w_i} (Kronecker substitution), eliminated there by
    `_det_poly`, and folded back mod t_i^{d_i} - 1 (see `_kronecker`).
    """
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError(f"det_qg needs a square matrix, got {k} rows of "
                         f"lengths {[len(r) for r in rows]}")
    packed, fold = _kronecker(group, k)
    den, vecs = _clear_denominators([e for row in rows for e in row])
    polys = []
    for vec in vecs:
        p = [0] * (packed[-1] + 1)  # the last element packs to the top degree
        for e, x in zip(packed, vec):
            p[e] = x
        polys.append(poly_trim(p))
    folded = [0] * group.order
    for e, x in enumerate(_det_poly([polys[i * k:(i + 1) * k] for i in range(k)], k)):
        if x:
            folded[fold[e]] += x
    return GroupRingElement(group, [Fraction(x, den ** k) for x in folded])


@lru_cache(maxsize=None)
def _kronecker(group, k):
    """(packed, fold) for k x k determinants over group: the exponent of x
    each element packs to, and the element index each exponent of the packed
    determinant folds back to. With w_1 = 1 and w_{i+1} = w_i (k (d_i - 1) + 1),
    the packing is injective on polynomials of degree <= k (d_i - 1) in each
    t_i, a bound the determinant keeps; exponent e is read back by its digits
    (e // w_i) % (k (d_i - 1) + 1), each reduced mod d_i."""
    dims = group.invariant_factors
    bases = [k * (d - 1) + 1 for d in dims]
    weights = [prod(bases[:i]) for i in range(len(dims))]
    packed = [sum(w * x for w, x in zip(weights, elem)) for elem in group.elements]
    fold = [group.index(tuple(e // w % b % d for w, b, d in zip(weights, bases, dims)))
            for e in range(prod(bases))]
    return packed, fold


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


def _not_invertible(x):
    """The error for a singular x in Q[G], naming a character that kills it."""
    chi = next(chi for chi in characters(x.group) if x.apply_character(chi).is_zero())
    return ZeroDivisionError(f"not invertible: chi={chi.exps} kills it")


# ---------------------------------------------------------------------------
# ideal lattices in Q[G]

class IdealLattice:
    """Full-rank Z[G]-stable lattice in Q[G], canonical column-HNF basis.

    Stored as integer columns over a minimal positive denominator; two equal
    lattices are bitwise-equal. Columns are indexed against group.elements.
    Every operation works on them; Fractions are only the generators whose
    Z[G]-span `from_generators` takes, and what `basis_elements` returns.
    """

    __slots__ = ("group", "den", "cols", "_steps")

    def __init__(self, group, den, cols):
        self.group = group
        self.den = den
        self.cols = cols  # tuple of tuples, canonical
        self._steps = None  # the echelon steps of cols, on first `_first_outside`

    @classmethod
    def from_generators(cls, group, gens):
        if any(x.group != group for x in gens):
            raise ValueError(f"lattice over {group!r} from generators of another group")
        den, vecs = _clear_denominators(gens)
        return cls._from_columns(group, den, _orbit_vectors(group, vecs))

    @classmethod
    def _from_columns(cls, group, den, vecs):
        """The lattice spanned by the integer vectors `vecs` over `den`, in
        canonical form (`_from_hnf`) from the column HNF. The content c of
        `vecs` leaves first: the HNF of c V is c times that of V, entry for
        entry."""
        n = group.order
        c = intmat.content(x for col in vecs for x in col)
        h_cols, _ = intmat.hnf_columns([[x // c for x in col] for col in vecs] if c > 1 else vecs)
        if len(h_cols) != n:
            raise ValueError(
                f"generators span rank {len(h_cols)} < {n}; not a full lattice "
                "(use span helpers for degenerate spans)")
        return cls._from_hnf(group, den, [[x * c for x in col] for col in h_cols])

    @classmethod
    def _from_hnf(cls, group, den, h_cols):
        """The lattice with the HNF basis `h_cols` over `den`, in canonical
        form: a positive multiple of an HNF is one, so only the content
        shared with den leaves."""
        c = gcd(den, intmat.content(x for col in h_cols for x in col))
        return cls(group, den // c, tuple(tuple(x // c for x in col) for col in h_cols))

    @classmethod
    def unit_ideal(cls, group):
        """Z[G] itself."""
        return cls._from_columns(group, 1, intmat.identity_matrix(group.order))

    def basis_elements(self):
        return [GroupRingElement(self.group,
                                 [Fraction(x, self.den) for x in col])
                for col in self.cols]

    def _first_outside(self, den, cols, ell=None):
        """(t, y) for the first integer column cols[t] with a coordinate y of
        cols[t] / den over self's basis that is not integral (given ell: whose
        denominator ell divides), y the first such; None if there is none."""
        if self._steps is None:
            self._steps = intmat.echelon_steps(self.cols, range(len(self.cols)))
        for t, col in enumerate(cols):
            for v in intmat.solve_upper_triangular(self._steps, [x * self.den for x in col]):
                if v % den:  # v / den is not an integer
                    y = Fraction(v, den)
                    if ell is None or y.denominator % ell == 0:
                        return t, y
        return None

    def contains_element(self, x):
        self._same_group(x)
        return self._first_outside(*_clear_denominators([x])) is None

    def contains_lattice(self, other):
        self._same_group(other)
        return self._first_outside(other.den, other.cols) is None

    def __eq__(self, other):
        if not isinstance(other, IdealLattice):
            return NotImplemented
        return (self.group == other.group and self.den == other.den
                and self.cols == other.cols)

    __hash__ = None

    def scale(self, alpha):
        """alpha * L for alpha in Q[G] invertible (or a nonzero rational)."""
        g = self.group
        if isinstance(alpha, (int, Fraction)):
            if alpha == 0:
                raise ZeroDivisionError("scaling by zero")
            a = abs(alpha.numerator)
            return IdealLattice._from_hnf(g, self.den * alpha.denominator,
                                          [[a * x for x in col] for col in self.cols])
        d, (a,) = _clear_denominators([alpha])
        cols = [_convolve(g, col, a) for col in self.cols]  # the sparser factor outermost
        try:
            return IdealLattice._from_columns(g, self.den * d, cols)
        except ValueError:  # alpha L has lower rank
            raise _not_invertible(alpha) from None

    def dual(self):
        """L^* = {y : y . x in Z for all x in L}, for the dot product of
        coefficient vectors; (g y) . x = y . (g^-1 x), so it is Z[G]-stable
        as L is. The ideal den L contains h Z[G], h 1 its first basis column."""
        d = self.cols[0][0]
        return IdealLattice._from_hnf(
            self.group, d, [[self.den * x for x in col] for col in intmat.hnf_dual(self.cols, d)])

    def divide(self, u):
        """u^-1 L for u in Q[G] invertible, as (u* L^*)^* with u* = sum u_g g^-1:
        multiplication by u* is adjoint to that by u, so (u^-1 L)^* = u* L^*."""
        g = self.group
        u_star = GroupRingElement(g, [u.coeff(g.inv(x)) for x in g.elements])
        try:
            return self.dual().scale(u_star).dual()
        except ZeroDivisionError:  # chi kills u* iff its conjugate kills u
            raise _not_invertible(u) from None

    def _same_group(self, other):
        if other.group != self.group:
            raise ValueError(f"lattices over {self.group!r} and {other.group!r}")

    def add(self, other):
        self._same_group(other)
        d = lcm(self.den, other.den)
        return IdealLattice._from_columns(self.group, d, [
            [x * (d // lat.den) for x in col] for lat in (self, other) for col in lat.cols])

    def multiply(self, other):
        self._same_group(other)
        g = self.group
        return IdealLattice._from_columns(
            g, self.den * other.den,
            [_convolve(g, a, b) for a in self.cols for b in other.cols])

    def intersect(self, other):
        """L cap L' = (L^* + L'^*)^*."""
        return self.dual().add(other.dual()).dual()

    def project(self, hom):
        """The image under the ring map of a surjective GroupHom, an ideal:
        each integer column summed over the fibres."""
        if hom.source != self.group:
            raise ValueError(f"projecting from {self.group!r} along a map of {hom.source!r}")
        fibres = [[] for _ in hom.target.elements]
        for i, e in enumerate(self.group.elements):
            fibres[hom.target.index(hom(e))].append(i)
        cols = [[sum(col[i] for i in fibre) for fibre in fibres] for col in self.cols]
        return IdealLattice._from_columns(hom.target, self.den, cols)

    def covolume(self):
        """Index-style volume [Z[G] : L] as a positive rational."""
        return Fraction(prod(c[t] for t, c in enumerate(self.cols)), self.den ** len(self.cols))

    def ell_contains(self, other, ell):
        """Z_(ell)-containment other <= self; returns (bool, witness)."""
        self._same_group(other)
        bad = self._first_outside(other.den, other.cols, ell)
        return bad is None, bad and {"basis_index": bad[0], "coordinate": str(bad[1])}

    def ell_equal(self, other, ell):
        for big, small, direction in ((self, other, "other into self"),
                                      (other, self, "self into other")):
            ok, wit = big.ell_contains(small, ell)
            if not ok:
                return False, {"direction": direction, **wit}
        return True, None

    def to_jsonable(self):
        return {"den": self.den, "cols": [list(c) for c in self.cols],
                "labels": [str(self.group.label(e)) for e in self.group.elements]}

    def __repr__(self):
        return f"IdealLattice(den={self.den}, diag={[self.cols[t][t] for t in range(len(self.cols))]})"


def _orbit_vectors(group, vecs):
    """sigma * v for every coefficient vector v in vecs and sigma in group:
    row i of the product table permutes v into elements[i]^-1 * v."""
    return [[v[j] for j in pi] for v in vecs for pi in _perm_table(group)]


def _sparse_mul(cols, u, e):
    """B u for B square, as the nonzero (row, entry) of each column, and u as
    (row, entry) pairs: mod e as sorted nonzero pairs if e > 0, else dense."""
    v = [0] * len(cols)
    for s, y in u:
        for r, x in cols[s]:
            v[r] += x * y
    return tuple((r, v[r] % e) for r in compress(range(len(v)), v) if v[r] % e) if e else v


def _dense(u, k):
    """The k entries of the vector with nonzero (row, entry) pairs u."""
    return list(map(dict(u).get, range(k), [0] * k))


def _step_back(elem):
    """(i, prev) with elem = prev times generator i, i the last nonzero
    coordinate of elem: a walk of G in sorted order meets prev first."""
    last = max(i for i, x in enumerate(elem) if x)
    return last, elem[:last] + (elem[last] - 1,) + elem[last + 1:]


# ---------------------------------------------------------------------------
# finite G-modules

# the most k x k minors `fitting_ideal` takes after shrinking its presentation
MINOR_BUDGET = 20000


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

    # -- construction helpers
    @classmethod
    def trivial(cls, group):
        return cls(group, 0, [], [() for _ in group.invariant_factors])

    @cached_property
    def _hnf(self):
        """(h_cols, pivot_rows): the HNF of the relations."""
        return intmat.hnf_columns(self.relations)

    @cached_property
    def _reducers(self):
        """The `intmat.echelon_steps` of the relation HNF, bottom up."""
        return intmat.echelon_steps(*self._hnf)

    def _reduce(self, v):
        """v reduced bottom up, entry p to a centered residue of the p-th HNF
        pivot: a unique representative of v modulo the relations."""
        v = list(v)
        for p, piv, col in self._reducers:
            q = (v[p] + piv // 2) // piv
            if q:
                for i, x in col:
                    v[i] -= q * x
        return v

    def _phi(self, j):
        """phi(e_j) for phi(u) = e H^-1 u mod e, H the relation HNF and e the exponent
        of M: e Z^k lies in the relations L, so phi embeds M = Z^k / L in (Z/e)^k."""
        e = self.structure()[-1]
        y = intmat.solve_upper_triangular(self._reducers, [e * (i == j) for i in range(self.k)])
        return tuple((r, x % e) for r, x in enumerate(y) if x % e)

    @cached_property
    def _phi_action(self):
        """B_i = H^-1 A_i H mod e for each A_i, as the nonzero (row, entry) of
        each column, or None where B_i is not integral, that is where A_i L is
        not inside L: one back-substitution of A_i h per HNF column h. Then
        phi(A_i u) = B_i phi(u) mod e."""
        e, out, k, steps = self.structure()[-1], [], self.k, self._reducers
        for mat in self.action:
            a = [[(j, c[j]) for j in compress(range(k), c)] for c in zip(*mat)]
            ys = [intmat.solve_upper_triangular(steps, _sparse_mul(a, h, 0))
                  for *_, h in steps[::-1]]
            b = [[(r, y[r] % e) for r in compress(range(k), y) if y[r] % e] for y in ys]
            out.append(None if any(type(x) is Fraction for col in b for _, x in col) else b)
        return out

    def _validate(self):
        """The relations have full rank and each B_i of `_phi_action` is integral.
        The generator orbits, kept for `annihilator()`, generate phi(M), so
        A_i^{d_i} = 1 and A_a A_b = A_b A_a on M iff B_i orbit[x] = orbit[x + e_i
        mod d_i] for all x and i, the walk's own steps aside (one check per orbit
        is left for cyclic G). A failure is named by checking each A_i alone:
        relations, then B_i^{d_i} phi(e_j) = phi(e_j)."""
        k = self.k
        if len(self._hnf[0]) != k:
            raise ValueError("relation lattice is not full rank: module is infinite")
        if not self.structure():
            return
        g, e, bs = self.group, self.structure()[-1], self._phi_action
        gens = list(enumerate(g.invariant_factors))
        steps = [(x, i, y) for x in g.elements for i, d in gens
                 for y in [x[:i] + ((x[i] + 1) % d,) + x[i + 1:]]
                 if y == g.identity or _step_back(y) != (i, x)]
        if None not in bs and all(
                _sparse_mul(bs[i], orbit[x], e) == orbit[y]
                for orbit in self._generator_orbits for x, i, y in steps):
            return
        for i, d in gens:
            if bs[i] is None:
                raise ValueError("action does not preserve relations")
            for j in range(k):
                u = v = self._phi(j)
                for _ in range(d):
                    v = _sparse_mul(bs[i], v, e)
                if v != u:
                    raise ValueError("action generator order does not divide group order")
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
        cols = self._hnf[0]
        if not any(any(col[:j]) for j, col in enumerate(cols)):
            diag = [col[j] for j, col in enumerate(cols)]
            base, todo = [], list({x for x in diag if x > 1})
            while todo:  # a coprime base of the diagonal, by gcds
                a = todo.pop()
                b = next((b for b in base if gcd(a, b) > 1), None)
                if b is None:
                    base.append(a)
                else:
                    base.remove(b)
                    todo += [x for x in (a // gcd(a, b), b // gcd(a, b), gcd(a, b)) if x > 1]
            # x is the product of its b-parts gcd(x, b^n) over the base; the i-th
            # largest invariant factor takes the i-th largest b-part of each b
            n = max(diag).bit_length()
            parts = [sorted((gcd(x, b ** n) for x in diag), reverse=True) for b in base]
            return tuple(x for x in map(prod, zip(*parts)) if x > 1)[::-1]
        # the SNF of the HNF: an SNF of the raw relations can blow its entries up
        _, d, _ = intmat.smith_normal_form(intmat.mat_transpose(cols))
        return tuple(abs(d[i][i]) for i in range(self.k) if abs(d[i][i]) > 1)

    @cached_property
    def _generator_orbits(self):
        """phi-orbits {x: phi(A_x m)} of Z[G]-generators m of M, vectors as sorted
        nonzero (row, entry) pairs, walked by sparse steps B_last (B_prev phi(m))
        mod e and taken greedily among e_1, ..., e_k: e_j is skipped when phi(e_j)
        lies in S = span(phi-orbits) + e Z^k. m alone generates M iff [Z[G] : ann(m)]
        = |Z[G] m| is |M|, ann(m) its `_kernel`, kept as `_first_kernel`; else S is
        put in HNF after 1, 2, 4, ... new m until [Z^k : S] |M| = e^k: S = phi(M)."""
        g, k, structure = self.group, self.k, self.structure()
        if not structure:
            return []
        e, bs = structure[-1], self._phi_action
        walk = [(elem, *_step_back(elem)) for elem in g.elements[1:]]  # steps back first
        orbits, fresh, s_cols = [], [], []  # S = span(s_cols) + e Z^k
        steps = [(j, e, [(j, e)]) for j in reversed(range(k))]  # the echelon steps of e I

        def spans(cols):
            return prod(col[t] for t, col in enumerate(cols)) * self.order() == e ** k

        for j in range(k):
            orbit = {g.identity: (u := self._phi(j))}
            if all(type(x) is int for x in intmat.solve_upper_triangular(steps, _dense(u, k))):
                continue
            for elem, last, prev in walk:
                orbit[elem] = _sparse_mul(bs[last], orbit[prev], e)
            orbits.append(orbit)
            if len(orbits) == 1:
                self._first_kernel = ker = self._kernel(orbits)
                if prod(col[t] for t, col in enumerate(ker)) == self.order():
                    return orbits
            fresh.extend(_dense(u, k) for u in set(orbit.values()))
            if len(orbits) & (len(orbits) - 1) == 0:  # 1, 2, 4, ... generators
                s_cols, fresh = intmat.hnf_mod(s_cols + fresh, e, k), []
                if spans(s_cols):
                    return orbits
                steps = intmat.echelon_steps(s_cols, range(k))
        if not (fresh and spans(intmat.hnf_mod(s_cols + fresh, e, k))):
            raise ArithmeticError("the generator orbits and the relations do not span Z^k")
        return orbits

    def _kernel(self, orbits):
        """The HNF of ann(m_1, ..., m_r) = {alpha in Z^n : sum_x alpha_x phi(A_x m_i) = 0
        mod e for all i}, n = |G|, from one column per x, the orbits' vectors stacked; its
        index is |Z[G] (m_1, ..., m_r)| in M^r. No orbit (M = 0, e = 1) gives Z[G]."""
        k, e = self.k, (self.structure() or (1,))[-1]
        return intmat.hnf_kernel_mod([[(i * k + r, y) for i, orbit in enumerate(orbits)
                                       for r, y in orbit[x]] for x in self.group.elements], e)

    def annihilator(self):
        """ann_{Z[G]}(M) as a full-rank IdealLattice (den = 1 sublattice).

        For the Z[G]-generators m of `_generator_orbits` and phi as in `_phi`,
        alpha kills M iff phi(sum_x alpha_x A_x m) = 0 mod e for each m: ann(M)
        is the `_kernel` of the stacked orbits, the first orbit's own kernel
        when it generates M. Computed once, on first use.
        """
        return self._annihilator

    @cached_property
    def _annihilator(self):
        orbits = self._generator_orbits
        ker = self._first_kernel if len(orbits) == 1 else self._kernel(orbits)
        return IdealLattice(self.group, 1, tuple(map(tuple, ker)))

    def fitting_ideal(self):
        """Fitt^0_{Z[G]}(M). If one orbit generates M (`_generator_orbits`' index
        test [Z[G] : ann(m)] = |M|), Z[G]^r -> Z[G] -> M = Z[G]/ann(M) by r
        generators of ann(M) has them as its 1 x 1 minors: Fitt = ann (Northcott,
        Finite Free Resolutions, ch. 3). Otherwise `_fitting_minors`."""
        if len(self._generator_orbits) == 1:
            return self.annihilator()
        return self._fitting_minors()

    def _fitting_minors(self):
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
        flat, _ = intmat.hnf_columns([[x for entry in c for x in entry] for c in cols])
        cols = [[GroupRingElement(g, col[s * n:(s + 1) * n]) for s in range(k)]
                for col in flat]
        if comb(len(cols), k) > MINOR_BUDGET:
            raise ValueError(
                f"Fitting ideal needs {comb(len(cols), k)} minors (> {MINOR_BUDGET}); "
                "module too large for the exact route")
        minors = [det_qg([[cols[j][s] for j in sel] for s in range(k)], g)
                  for sel in combinations(range(len(cols)), k)]
        return IdealLattice.from_generators(
            g, [d for d in minors if not d.is_zero()])

    def ell_part(self, ell):
        """The ell-primary component, as a module on the same generators."""
        order, extra = self.order(), 1
        while order % (extra * ell) == 0:
            extra *= ell
        h_cols, pivot_rows = intmat.hnf_mod(self._hnf[0], extra, self.k), range(self.k)
        # generators killed outright (unit-vector relation columns) are
        # dropped, keeping later Fitting-ideal minors tractable; every other
        # HNF column is 0 on their rows, so the rest is the part's HNF
        dead = {r for col, r in zip(h_cols, pivot_rows)
                if col[r] == 1 and sum(map(abs, col)) == 1}
        keep = [i for i in range(self.k) if i not in dead]
        rels = [[col[i] for i in keep] for col, r in zip(h_cols, pivot_rows) if r not in dead]
        # no checks: the action preserves L + ell^v Z^k (it preserves L and Z^k),
        # what holds modulo L holds modulo it, and dead generators are 0 in it
        part = FiniteGModule(self.group, len(keep), rels, [
            [[m[i][j] for j in keep] for i in keep] for m in self.action], validate=False)
        part._hnf = rels, list(range(len(keep)))
        return part

    def __repr__(self):
        return f"FiniteGModule(k={self.k}, structure={self.structure()})"
