"""Abelian number fields inside cyclotomic fields: Galois groups with residue
labels, sets of places with their decomposition groups and cosets, S-units
as exact normal forms in -zeta and independent (1 - zeta^c) symbols, and
`log_norms`, the one map from a word to its logarithms at the archimedean
places.

A field is the fixed field of a subgroup H of (Z/f)^x acting on Q(zeta_f);
everything downstream (places, unit logs, L-functions) is driven by (f, H).
The relative setting K = Q(zeta_{p^n}) over k = Q(sqrt(-p)), p = 3 mod 4,
keeps the subgroup H of squares as the acting group Gal(K/k).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import add

import mpmath as mp

from .cyclo import (GUARD_BITS, CyclotomicNumber, _root_kernel, crt,
                    euler_phi, factorize, is_prime, log_scaled)
from .gring import galois_group, subgroup_as_group, subgroup_closure


# ---------------------------------------------------------------------------
# field models

# the largest conductor, S-prime or class-group invariant factor a run
# takes: make_field enumerates (Z/f)^x and is_prime and factorize divide by
# trial, so each is refused above it first (make_field(50021) takes 0.6 s
# with CPython 3.11 on a 2-CPU VM)
MAX_CONDUCTOR = 10 ** 5


def bounded(value, name, level=1):
    """value^level, or ValueError naming it when that exceeds MAX_CONDUCTOR
    or the level is below 1; a large level is refused before the power is
    computed."""
    if level < 1:
        raise ValueError(f"level {level} of the {name} {value}^{level} is below 1")
    if (abs(value) > 1 and level > MAX_CONDUCTOR.bit_length()
            or value ** level > MAX_CONDUCTOR):
        shown = value if level == 1 else f"{value}^{level}"
        raise ValueError(f"{name} {shown} exceeds {MAX_CONDUCTOR}, the largest "
                         f"{name} this program takes")
    return value ** level


class FieldModel:
    """Subfield of Q(zeta_f) cut out by a kernel subgroup of (Z/f)^x; equal
    and hashed on (f, kernel)."""

    __slots__ = ("f", "kernel", "group")

    def __init__(self, f, kernel, group):
        self.f, self.kernel, self.group = f, kernel, group

    def __eq__(self, other):
        return (type(other) is FieldModel
                and (self.f, self.kernel) == (other.f, other.kernel))

    def __hash__(self):
        return hash((self.f, self.kernel))

    @property
    def degree(self):
        return self.group.order

    @property
    def totally_real(self):
        return (self.f - 1) % self.f in self.kernel

    @property
    def is_full_cyclotomic(self):
        return len(self.kernel) == 1

    def conjugation(self):
        """Complex conjugation as a group element (identity if real)."""
        return self.group.element_of_residue(self.f - 1)

    def __repr__(self):
        return f"FieldModel(f={self.f}, degree={self.degree})"


@lru_cache(maxsize=None)
def make_field(f, kernel_residues=frozenset({1})):
    # f = 2 mod 4 is allowed and gives the same field as f/2 (the group
    # is isomorphic); the Stickelberger checks use such moduli directly.
    if bounded(f, "conductor") < 3:
        raise ValueError("conductor modulus must be >= 3")
    g = galois_group(f, frozenset(kernel_residues))
    kern = frozenset(a for a in range(f) if gcd(a, f) == 1
                     and g.element_of_residue(a) == g.identity)
    return FieldModel(f, kern, g)


def full_cyclotomic(f):
    return make_field(f)


def plus_field(f):
    """Maximal totally real subfield Q(zeta_f)^+."""
    return make_field(f, frozenset({1, f - 1}))


class RelativeModel:
    """K = Q(zeta_{p^n}) over k = Q(sqrt(-p)) for p = 3 mod 4; the acting
    group is H = Gal(K/k) = squares in (Z/p^n)^x.  Equal and hashed on (p, n)."""

    __slots__ = ("p", "n", "group")

    def __init__(self, p, n, group):
        self.p, self.n, self.group = p, n, group

    def __eq__(self, other):
        return type(other) is RelativeModel and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    @property
    def f(self):
        return self.p ** self.n

    def __repr__(self):
        return f"RelativeModel(p={self.p}, n={self.n})"


@lru_cache(maxsize=None)
def relative_model(p, n=1):
    if n < 1 or p % 4 != 3 or not is_prime(bounded(p, "prime")):
        raise ValueError("relative construction needs a prime p = 3 mod 4 and a level n >= 1")
    if p == 3 and n == 1:
        raise ValueError("p = 3, n = 1 is degenerate (H trivial and k = Q(zeta_3))")
    f = bounded(p, "conductor", n)
    squares = frozenset((a * a) % f for a in range(1, f) if a % p)
    h = subgroup_as_group(f, squares)
    if h.order != euler_phi(f) // 2:
        raise ValueError(f"the squares mod {f} have order {h.order}, not phi({f})/2")
    return RelativeModel(p, n, h)


def torsion_order(model):
    """e = number of roots of unity: 2 for a real field, else 2 * conductor."""
    if isinstance(model, RelativeModel):
        return 2 * model.f
    return 2 if model.totally_real else 2 * model.f


# ---------------------------------------------------------------------------
# places

class PlaceData:
    """A place v of S: `q` the rational prime below (finite places),
    `decomposition` its decomposition group and `cosets` the places above v
    in order, as cosets of that group."""

    __slots__ = ("archimedean", "q", "decomposition", "cosets", "complex_place")

    def __init__(self, archimedean, q, decomposition, cosets, complex_place):
        self.archimedean, self.q, self.decomposition = archimedean, q, decomposition
        self.cosets, self.complex_place = cosets, complex_place


class PlaceSet:
    """The places of K above a base set S, as a G-set: one PlaceData per
    place of S. The first is archimedean and its first coset, which holds
    the identity, is the distinguished place w0.
    """

    def __init__(self, group, places):
        self.group = group
        self.places = tuple(places)
        if not (self.places and self.places[0].archimedean
                and group.identity in self.places[0].cosets[0]):
            raise ValueError("a place set starts with an archimedean place whose "
                             "first coset holds the identity")

    def x_rank(self):
        """|S_K| - 1, the rank of the S-units."""
        return sum(len(pd.cosets) for pd in self.places) - 1

    def finite_primes(self):
        return [pd.q for pd in self.places if not pd.archimedean]


def _cosets_of(group, subgroup):
    seen = set()
    cosets = []
    for e in group.elements:
        if e in seen:
            continue
        cs = frozenset(group.mul(e, h) for h in subgroup)
        seen |= cs
        cosets.append(cs)
    cosets.sort(key=lambda cs: min(group.label(x) for x in cs))
    return tuple(cosets)


def place_set(model: FieldModel, finite_primes=()):
    """S = {infinity} + the given rational primes, as places of the field."""
    g = model.group
    f = model.f
    places = []
    c = model.conjugation()
    d_inf = subgroup_closure([c], g.mul)
    places.append(PlaceData(True, None, d_inf, _cosets_of(g, d_inf),
                            complex_place=(c != g.identity)))
    for q in sorted(set(finite_primes)):
        if not is_prime(bounded(q, "S-prime")):
            raise ValueError(f"{q} is not prime")
        a = 0
        rest = f
        while rest % q == 0:
            rest //= q
            a += 1
        inertia = frozenset(g.element_of_residue(x) for x in range(1, f)
                            if gcd(x, f) == 1 and (rest == 1 or x % rest == 1))
        if rest == 1:
            frob = g.identity
        else:
            lift = crt([(q % rest, rest), (1, q ** a)]) if a else q % f
            frob = g.element_of_residue(lift)
        dec = subgroup_closure(inertia | {frob}, g.mul)
        places.append(PlaceData(False, q, dec, _cosets_of(g, dec), complex_place=False))
    return PlaceSet(g, places)


def relative_place_set(model: RelativeModel):
    """S = {v_inf, frak_p} of k = Q(sqrt(-p)), as places of K with H-action."""
    h = model.group
    trivial = frozenset({h.identity})
    arch = PlaceData(True, None, trivial, _cosets_of(h, trivial), complex_place=True)
    full = frozenset(h.elements)
    fin = PlaceData(False, model.p, full, _cosets_of(h, full), complex_place=False)
    return PlaceSet(h, [arch, fin])


def select_field(f, subfield="full", places=None):
    """(model, S) of a run on conductor f: the subfield of Q(zeta_f) that
    `subfield` names (full, plus, custom:<residues of its kernel>) with S =
    {infinity} + `places` (default: the primes dividing f), or the relative
    model of f = p^n with its own S = {infinity, p} ("relative")."""
    if subfield == "relative":
        if places is not None:
            raise ValueError("the relative construction fixes its own places")
        model = relative_model(*odd_prime_power(f))
        return model, relative_place_set(model)
    if subfield == "full":
        model = full_cyclotomic(f)
    elif subfield == "plus":
        model = plus_field(f)
    elif subfield.startswith("custom:"):
        try:
            residues = frozenset(int(a) for a in subfield[7:].split(","))
        except ValueError:
            raise ValueError(f"subfield {subfield!r} needs integers separated by commas") from None
        model = make_field(f, residues)
    else:
        raise ValueError(f"unknown subfield selector {subfield!r}; "
                         "use full, plus, relative or custom:<residues>")
    if places is None:
        places = [q for q, _ in factorize(f)]
    return model, place_set(model, places)


# ---------------------------------------------------------------------------
# S-unit words

def odd_prime_power(f):
    """(p, n) with f = p^n, p odd; ValueError naming the reason otherwise."""
    fact = factorize(bounded(f, "conductor")) if f > 1 else []
    if len(fact) != 1 or fact[0][0] == 2:
        raise ValueError(f"conductor {f} is not an odd prime power; exact S-unit "
                         "words need f = p^n with p odd")
    return fact[0]


def json_int(value, name):
    """The document field `name`, an int or an integer string; ValueError
    naming it for a float, a bool or anything else."""
    try:
        if type(value) in (int, str):
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"\"{name}\" must be an integer, not {value!r}")


@lru_cache(maxsize=None)
def _symbols(f):
    """(cs, rewrite), built once per f = p^n, p odd: cs the residues
    1 <= c < f/2 prime to p in increasing order, and for 0 < a < f
    rewrite[a] = (t, js) with 1 - zeta^a = (-zeta)^t prod_{j in js} (1 - zeta^{cs[j]}).

    The symbols 1 - zeta^c, c in cs, are multiplicatively independent modulo
    <-zeta>; the only relations are distribution and parity (Washington,
    Introduction to Cyclotomic Fields, Ch. 8; Kubert 1979), applied in this
    order: 1 - zeta^{b p^j} = prod_{i < p^j} (1 - zeta^{b + i p^{n-j}}), then
    1 - zeta^c = -zeta^c (1 - zeta^{-c}) for c > f/2, with -1 = (-zeta)^f
    and zeta = (-zeta)^{f+1}.
    """
    p, _ = odd_prime_power(f)
    cs = tuple(c for c in range(1, (f + 1) // 2) if c % p)
    pos = {c: j for j, c in enumerate(cs)}
    rewrite = [None]
    for a in range(1, f):
        b, q, t, js = a, 1, 0, []
        while b % p == 0:
            b //= p
            q *= p
        for i in range(q):                # distribution
            c = b + i * (f // q)
            if 2 * c > f:                 # parity, -zeta^c = (-zeta)^(f+(f+1)c)
                t += f + (f + 1) * c
                c = f - c
            js.append(pos[c])
        rewrite.append((t % (2 * f), tuple(js)))
    return cs, tuple(rewrite)


def _rewritten(f, t, terms):
    """The SUnit (-zeta)^t prod (1 - zeta^a)^e over the pairs (a, e) of
    `terms`, 0 < a < f, each symbol through the rewrite of `_symbols`."""
    cs, rewrite = _symbols(f)
    v = [0] * len(cs)
    for a, e in terms:
        dt, js = rewrite[a]
        t += e * dt
        for j in js:
            v[j] += e
    return SUnit(f, t, v)


@lru_cache(maxsize=None)
def _log_2_sin(c, f, prec):
    """log(2 sin(pi c / f)) for precision prec, 0 < c < f, one evaluation per
    (c, f, prec); log_abs and lfun._class_derivs pass c <= f/2, so a Stark check
    reads each value once. 2 sin = 2 Im zeta_2f^c = n/d from the root kernel
    (not 2 - 2 cos, which cancels for small c) is off by under f 2^-(prec+33)
    relatively; its log_scaled, GUARD_BITS beyond prec and beyond the zero
    bits leading a log near 0, is returned exactly, for the sum to round."""
    W0, _, im = _root_kernel(2 * f, prec)
    n, d = im[c], 1 << (W0 - 1)
    W = prec + GUARD_BITS + max(0, d.bit_length() - abs(n - d).bit_length())
    return mp.ldexp(log_scaled(n, d, W), -W)


class SUnit:
    """An S-unit of Q(zeta_f), f = p^n with p odd, as its normal form
    (-zeta)^t * prod_j (1 - zeta^{c_j})^{v[j]}: t mod 2f and the exponent
    vector v on the symbols c_j of `_symbols`, exact.

    Equal values have equal normal forms, so `==` compares values. Products
    and powers add and scale (t, v); Galois images and words send each
    1 - zeta^a through the rewrite of `_symbols`. `log_abs()` gives
    archimedean logarithms symbol by symbol; `expansion()` is the exact
    cyclotomic value.
    """

    __slots__ = ("f", "t", "v", "_exp")

    def __init__(self, f, t, v):
        self.f, self.t, self.v, self._exp = f, t % (2 * f), tuple(v), None

    # -- constructors
    @classmethod
    def one(cls, f):
        return _rewritten(f, 0, ())

    @classmethod
    def minus_one(cls, f):
        return _rewritten(f, f, ())

    @classmethod
    def zeta(cls, f, k=1):
        return _rewritten(f, (f + 1) * k, ())

    @classmethod
    def one_minus_zeta(cls, f, a):
        return cls.from_word(f, [["om", a, 1]])

    # -- group ops
    def __mul__(self, other):
        if self.f != other.f:
            raise ValueError(f"product of words of conductors {self.f} and {other.f}")
        return SUnit(self.f, self.t + other.t, map(add, self.v, other.v))

    def __pow__(self, n):
        return SUnit(self.f, self.t * n, [x * n for x in self.v])

    def __truediv__(self, other):
        return self * other ** -1

    def __eq__(self, other):
        return (isinstance(other, SUnit)
                and (self.f, self.t, self.v) == (other.f, other.t, other.v))

    def galois(self, s):
        """sigma_s: -zeta goes to -zeta^s = (-zeta)^{f + (f+1) s} and each
        symbol 1 - zeta^c to the rewrite of 1 - zeta^{c s}."""
        f = self.f
        s %= f
        if gcd(s, f) != 1:
            raise ValueError(f"{s} not invertible mod {f}")
        return _rewritten(f, self.t * (f + (f + 1) * s),
                          [(c * s % f, e) for c, e in zip(_symbols(f)[0], self.v) if e])

    # -- value
    def log_abs(self, s=1):
        """log|sigma_s(w)| at zeta = exp(2 pi i / f), at the current mpmath
        precision: sum_c v_c log|2 sin(pi c s / f)| over the symbols
        1 - zeta^c, since roots of unity have absolute value 1; c s and
        -c s share one memo entry."""
        f, total = self.f, mp.mpf(0)
        for c, e in zip(_symbols(f)[0], self.v):
            if e:
                c = c * s % f
                total += e * _log_2_sin(min(c, f - c), f, mp.mp.prec)
        return total

    def expansion(self):
        """The exact value: (-zeta)^t times each (1 - x^c)^(+-1) as one cyclic
        product in Z[x]/(x^f - 1), with 1/(1 - x^c) = -(1/f) sum_{j<f} j x^(cj)
        (c prime to f), reduced mod Phi_f once at the end."""
        if self._exp is None:
            f, d = self.f, 1
            w = [0] * f
            w[self.t % f] = (-1) ** self.t
            for c, e in zip(_symbols(f)[0], self.v):
                for _ in range(abs(e)):
                    if e > 0:
                        w = [x - w[(k - c) % f] for k, x in enumerate(w)]
                    else:
                        w = [-sum(j * w[(k - c * j) % f] for j in range(1, f)) for k in range(f)]
                        d *= f
            self._exp = CyclotomicNumber.from_powers(f, w, d)
        return self._exp

    def fixed_by(self, residues):
        return all(self.galois(s) == self for s in residues)

    # -- serialization
    def to_word(self):
        """[["m1", 1]] if t is odd, ["z", t mod f] if nonzero, then
        ["om", c, v_c] for each symbol with v_c != 0."""
        out = [["m1", 1]] if self.t % 2 else []
        if self.t % self.f:
            out.append(["z", self.t % self.f])
        return out + [["om", c, e] for c, e in zip(_symbols(self.f)[0], self.v) if e]

    @classmethod
    def from_word(cls, f, word):
        """The unit of a word of `to_word`'s entries, in any order and
        repeated, each read by `json_int` (["om", a, e] for any a != 0 mod f);
        ValueError naming the word if it is malformed."""
        t, terms = 0, []
        try:
            for item in word:
                if item[0] == "m1":
                    t += f * json_int(item[1], "m1")
                elif item[0] == "z":
                    t += (f + 1) * json_int(item[1], "z")
                elif item[0] == "om":
                    a = json_int(item[1], "om") % f
                    if a == 0:
                        raise ValueError(f"1 - zeta^{item[1]} vanishes mod {f}")
                    terms.append((a, json_int(item[2], "om")))
                else:
                    raise ValueError(f"unknown word symbol {item[0]!r}")
        except (TypeError, IndexError, KeyError):
            raise ValueError(f"malformed S-unit word {word!r}") from None
        except ValueError as exc:
            raise ValueError(f"malformed S-unit word {word!r}: {exc}") from None
        return _rewritten(f, t, terms)

    def __repr__(self):
        return f"SUnit(f={self.f}, {self.to_word()})"


# ---------------------------------------------------------------------------
# logarithmic embedding

def log_norms(word: SUnit, pset: PlaceSet, ctx):
    """{sigma: log ||sigma(word)||_{w0}} at ctx precision, in the order of
    the archimedean cosets: log|.| at a real w0, log|.|^2 at a complex one,
    from `SUnit.log_abs` at sigma's label. Where the decomposition group at
    infinity is {1, c}, sigma and c sigma share one coset and one value.
    """
    arch, label = pset.places[0], pset.group.label
    with ctx.guard():
        out = {}
        for coset in arch.cosets:
            for sigma in sorted(coset, key=label):
                v = word.log_abs(label(sigma))
                out[sigma] = 2 * v if arch.complex_place else v
    return {sigma: ctx.final(v) for sigma, v in out.items()}
