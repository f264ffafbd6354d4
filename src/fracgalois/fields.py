"""Abelian number fields inside cyclotomic fields: Galois groups with residue
labels, sets of places with decomposition data, and S-units represented as
exact words in roots of unity and (1 - zeta^a) symbols.

A field is the fixed field of a subgroup H of (Z/f)^x acting on Q(zeta_f);
everything downstream (places, unit logs, L-functions) is driven by (f, H).
The relative setting K = Q(zeta_{p^n}) over k = Q(sqrt(-p)), p = 3 mod 4,
keeps the subgroup H of squares as the acting group Gal(K/k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import mpmath as mp

from .cyclo import (CyclotomicNumber, crt, divisors, euler_phi, factorize,
                    is_prime)
from .gring import FinAbGroup, galois_group, subgroup_as_group


# ---------------------------------------------------------------------------
# field models

@dataclass(frozen=True)
class FieldModel:
    """Subfield of Q(zeta_f) cut out by a kernel subgroup of (Z/f)^x."""

    f: int
    kernel: frozenset
    group: FinAbGroup = field(compare=False)
    conductor: int = field(compare=False)

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
    # f = 2 mod 4 is allowed and describes the same field as f/2 (the group
    # is isomorphic); the Stickelberger checks use such moduli directly.
    if f < 3:
        raise ValueError("conductor modulus must be >= 3")
    g = galois_group(f, frozenset(kernel_residues))
    kern = frozenset(a for a in range(f) if gcd(a, f) == 1
                     and g.element_of_residue(a) == g.identity)
    cond = f
    for d in divisors(f):
        if d == f:
            break
        # kernel must absorb everything that is 1 mod d
        if all((a % f) in kern for a in range(1, f, d) if gcd(a, f) == 1):
            cond = d
            break
    return FieldModel(f, kern, g, cond)


def full_cyclotomic(f):
    return make_field(f)


def plus_field(f):
    """Maximal totally real subfield Q(zeta_f)^+."""
    return make_field(f, frozenset({1, f - 1}))


@dataclass(frozen=True)
class RelativeModel:
    """K = Q(zeta_{p^n}) over k = Q(sqrt(-p)) for p = 3 mod 4; the acting
    group is H = Gal(K/k) = squares in (Z/p^n)^x."""

    p: int
    n: int
    group: FinAbGroup = field(compare=False)

    @property
    def f(self):
        return self.p ** self.n

    @property
    def torsion_order(self):
        return 2 * self.p ** self.n

    def __repr__(self):
        return f"RelativeModel(p={self.p}, n={self.n})"


@lru_cache(maxsize=None)
def relative_model(p, n=1):
    if not is_prime(p) or p % 4 != 3:
        raise ValueError("relative construction needs a prime p = 3 mod 4")
    if p == 3 and n == 1:
        raise ValueError("p = 3, n = 1 is degenerate (H trivial and k = Q(zeta_3))")
    f = p ** n
    squares = frozenset((a * a) % f for a in range(1, f) if a % p)
    h = subgroup_as_group(f, squares)
    assert h.order == euler_phi(f) // 2
    return RelativeModel(p, n, h)


# ---------------------------------------------------------------------------
# places

@dataclass(frozen=True)
class PlaceData:
    label: str
    archimedean: bool
    q: int | None                      # rational prime below (finite places)
    decomposition: frozenset           # subgroup of the acting group
    inertia: frozenset | None
    cosets: tuple                      # cosets = places above, ordered
    nw: int | None                     # residue field size
    pi_over_w: int | None              # e(pi / w): full-cyclotomic ord -> w-ord
    complex_place: bool


class PlaceSet:
    """A finite G-set of places of K above a base set S, with norms.

    flat[i] = (place_index, coset_index); the distinguished archimedean
    place (the coset of the identity) is flat index 0.
    """

    def __init__(self, group, places, f):
        self.group = group
        self.places = tuple(places)
        self.f = f
        self.flat = []
        for pi, pd in enumerate(self.places):
            for ci in range(len(pd.cosets)):
                self.flat.append((pi, ci))
        assert self.flat[0] == (0, 0) and self.places[0].archimedean
        assert group.identity in self.places[0].cosets[0]

    @property
    def size(self):
        return len(self.flat)

    def x_rank(self):
        return len(self.flat) - 1

    def finite_primes(self):
        return [pd.q for pd in self.places if not pd.archimedean]

    def coset_rep_label(self, i):
        """Smallest residue label of a group element in the i-th place's coset."""
        pi, ci = self.flat[i]
        return min(self.group.label(e) for e in self.places[pi].cosets[ci])

    def describe(self):
        return [{"label": pd.label, "places_above": len(pd.cosets),
                 "ramification": (len(pd.inertia) if pd.inertia else None),
                 "residue_size": pd.nw} for pd in self.places]


def _subgroup_closure(group, elems):
    cur = frozenset(elems) | {group.identity}
    while True:
        nxt = frozenset(group.mul(a, b) for a in cur for b in cur)
        if nxt == cur:
            return cur
        cur = nxt


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
    d_inf = _subgroup_closure(g, [c])
    places.append(PlaceData("inf", True, None, d_inf, None, _cosets_of(g, d_inf),
                            None, None, complex_place=(c != g.identity)))
    for q in sorted(set(finite_primes)):
        if not is_prime(q):
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
        dec = _subgroup_closure(g, list(inertia) + [frob])
        e_w = len(inertia)
        f_w = len(dec) // e_w
        # folding factor from the full-cyclotomic valuation (prime powers only)
        pi_over_w = None
        if a > 0 and rest == 1:
            pi_over_w = euler_phi(f) // e_w
        elif a == 0:
            pi_over_w = 0  # unramified in the cyclotomic tower: ord is 0 on our words
        places.append(PlaceData(f"q={q}", False, q, dec, inertia, _cosets_of(g, dec),
                                q ** f_w, pi_over_w, complex_place=False))
    return PlaceSet(g, places, f)


def relative_place_set(model: RelativeModel):
    """S = {v_inf, frak_p} of k = Q(sqrt(-p)), as places of K with H-action."""
    h = model.group
    trivial = frozenset({h.identity})
    arch = PlaceData("inf", True, None, trivial, None, _cosets_of(h, trivial),
                     None, None, complex_place=True)
    full = frozenset(h.elements)
    fin = PlaceData("frak_p", False, model.p, full, full, _cosets_of(h, full),
                    model.p, 1, complex_place=False)
    return PlaceSet(h, [arch, fin], model.f)


# ---------------------------------------------------------------------------
# S-unit words

def odd_prime_power(f):
    """(p, n) with f = p^n, p odd; ValueError naming the reason otherwise."""
    fact = factorize(f) if f > 1 else []
    if len(fact) != 1 or fact[0][0] == 2:
        raise ValueError(f"conductor {f} is not an odd prime power; exact S-unit "
                         "words need f = p^n with p odd")
    return fact[0]


@lru_cache(maxsize=None)
def _symbol_positions(f, p):
    """{c: i} for the residues 1 <= c < f/2 prime to p, in increasing order."""
    return {c: i for i, c in enumerate(c for c in range(1, (f + 1) // 2) if c % p)}


class SUnit:
    """Formal word (-1)^a * zeta_f^b * prod (1 - zeta_f^{a_i})^{e_i}, exact.

    Words multiply/divide symbolically and Galois acts on symbols.
    `normal_form()` decides equality of values and gives exponent vectors;
    `log_abs()` gives archimedean logarithms symbol by symbol; `expansion()`
    is the exact cyclotomic value, kept as an independent oracle.
    """

    __slots__ = ("f", "e", "_exp", "_nf")

    def __init__(self, f, exps=None):
        self.f = f
        e = {}
        for k, v in (exps or {}).items():
            if k == "m1":
                v %= 2
            elif k == "z":
                v %= f
            if v:
                e[k] = v
        self.e = e
        self._exp = None
        self._nf = None

    # -- constructors
    @classmethod
    def one(cls, f):
        return cls(f)

    @classmethod
    def minus_one(cls, f):
        return cls(f, {"m1": 1})

    @classmethod
    def zeta(cls, f, k=1):
        return cls(f, {"z": k})

    @classmethod
    def one_minus_zeta(cls, f, a):
        a %= f
        if a == 0:
            raise ValueError("1 - zeta^0 vanishes")
        return cls(f, {("om", a): 1})

    # -- group ops
    def __mul__(self, other):
        assert self.f == other.f
        e = dict(self.e)
        for k, v in other.e.items():
            e[k] = e.get(k, 0) + v
        return SUnit(self.f, e)

    def __pow__(self, n):
        return SUnit(self.f, {k: v * n for k, v in self.e.items()})

    def inv(self):
        return self ** -1

    def __truediv__(self, other):
        return self * other.inv()

    def __eq__(self, other):
        """Word-level equality (sufficient, not necessary, for equal values)."""
        return isinstance(other, SUnit) and self.f == other.f and self.e == other.e

    __hash__ = None

    def galois(self, t):
        t %= self.f
        if gcd(t, self.f) != 1:
            raise ValueError(f"{t} not invertible mod {self.f}")
        e = {}
        for k, v in self.e.items():
            if k == "m1":
                e["m1"] = e.get("m1", 0) + v
            elif k == "z":
                e["z"] = e.get("z", 0) + v * t
            else:
                kk = ("om", (k[1] * t) % self.f)
                e[kk] = e.get(kk, 0) + v
        return SUnit(self.f, e)

    # -- value
    def normal_form(self):
        """(t, v): the value is (-zeta)^t * prod_i (1 - zeta^{c_i})^{v[i]},
        t mod 2f, c_i the residues 1 <= c < f/2 prime to p in increasing order.

        For odd f = p^n these symbols are multiplicatively independent modulo
        <-zeta>; the only relations are parity and distribution (Washington,
        Introduction to Cyclotomic Fields, Ch. 8; Kubert 1979), so equal
        values give equal normal forms.  The rewriting uses -1 = (-zeta)^f,
        zeta = (-zeta)^{f+1}, 1 - zeta^{-c} = -zeta^{-c} (1 - zeta^c) and
        1 - zeta^{b p^j} = prod_{i < p^j} (1 - zeta^{b + i p^{n-j}}).
        """
        if self._nf is None:
            f = self.f
            p, _ = odd_prime_power(f)
            pos = _symbol_positions(f, p)
            t = 0
            v = [0] * len(pos)
            for k, e in self.e.items():
                if k == "m1":
                    t += f * e
                elif k == "z":
                    t += (f + 1) * e
                else:
                    b, q = k[1], 1
                    while b % p == 0:
                        b //= p
                        q *= p
                    for i in range(q):            # distribution
                        c = b + i * (f // q)
                        if 2 * c > f:             # parity, -zeta^c = (-zeta)^(f+(f+1)c)
                            t += e * (f + (f + 1) * c)
                            c = f - c
                        v[pos[c]] += e
            self._nf = (t % (2 * f), tuple(v))
        return self._nf

    def log_abs(self, t=1):
        """log|sigma_t(w)| at zeta = exp(2 pi i / f), at the current mpmath
        precision: sum_a e_a log|2 sin(pi a t / f)| over the symbols
        1 - zeta^a, since roots of unity have absolute value 1."""
        total = mp.mpf(0)
        for k, e in self.e.items():
            if isinstance(k, tuple):
                x = mp.mpf((k[1] * t) % self.f) / self.f
                total += e * mp.log(2 * mp.sinpi(x))
        return total

    def expansion(self):
        if self._exp is None:
            val = CyclotomicNumber.rational(1)
            for k, v in sorted(self.e.items(), key=str):
                if k == "m1":
                    base = CyclotomicNumber.rational(-1)
                elif k == "z":
                    base = CyclotomicNumber.root_of_unity(self.f, 1)
                else:
                    base = 1 - CyclotomicNumber.root_of_unity(self.f, k[1])
                val = val * (base ** v)
            self._exp = val.lift(self.f) if self.f > 2 else val
        return self._exp

    def same_value(self, other):
        return self.expansion() == other.expansion()

    def fixed_by(self, residues):
        nf = self.normal_form()
        return all(self.galois(t).normal_form() == nf for t in residues)

    # -- valuations
    def ord_pi(self):
        """Valuation at the prime above p of Q(zeta_{p^n}): every normal-form
        symbol 1 - zeta^c, c prime to p, has valuation 1."""
        return sum(self.normal_form()[1])

    # -- serialization
    def to_word(self):
        out = []
        if self.e.get("m1"):
            out.append(["m1", self.e["m1"]])
        if self.e.get("z"):
            out.append(["z", self.e["z"]])
        for k in sorted(k for k in self.e if isinstance(k, tuple)):
            out.append(["om", k[1], self.e[k]])
        return out

    @classmethod
    def from_word(cls, f, word):
        e = {}
        for item in word:
            if item[0] == "m1":
                e["m1"] = e.get("m1", 0) + int(item[1])
            elif item[0] == "z":
                e["z"] = e.get("z", 0) + int(item[1])
            elif item[0] == "om":
                a = int(item[1]) % f
                if a == 0:
                    raise ValueError(f"bad 1-zeta exponent {item[1]} mod {f}: vanishes")
                k = ("om", a)
                e[k] = e.get(k, 0) + int(item[2])
            else:
                raise ValueError(f"unknown word symbol {item[0]!r}")
        return cls(f, e)

    def __repr__(self):
        return f"SUnit(f={self.f}, {self.to_word()})"


# ---------------------------------------------------------------------------
# logarithmic embedding

def log_norms(word: SUnit, pset: PlaceSet, ctx):
    """[log ||u||_w for w in pset.flat] at ctx precision.

    Archimedean places use |.| (real) or |.|^2 (complex) of the word under
    the place's embedding (`SUnit.log_abs`); finite places use Nw^{-ord_w}.
    The product formula (row sum 0 for S-units) holds exactly.
    """
    out = []
    with ctx.guard():
        for i, (pi, _) in enumerate(pset.flat):
            pd = pset.places[pi]
            if pd.archimedean:
                v = word.log_abs(pset.coset_rep_label(i))
                out.append(2 * v if pd.complex_place else v)
            else:
                out.append(-finite_ord(word, pset, i) * mp.log(pd.nw))
    return [ctx.final(v) for v in out]


def finite_ord(word: SUnit, pset: PlaceSet, i):
    """Exact ord_w at the i-th flat place (must be finite)."""
    pi, _ = pset.flat[i]
    pd = pset.places[pi]
    if pd.archimedean:
        raise ValueError("archimedean place has no finite ord")
    if pd.pi_over_w == 0:
        return 0
    q, r = divmod(word.ord_pi(), pd.pi_over_w)
    assert r == 0
    return q
