"""S-unit lattices for prime-power cyclotomic fields, their Stark-unit
submodules, and the finite quotient U/E as a Galois module.

Providers are exact generator lists (words); completeness of the built-in
provider is exactly the class-number-one input recorded in `assumptions`.
Coordinates of one unit against a generator list are exact: every word is
put in the normal form of `SUnit.normal_form` (a power of -zeta times an
exponent vector on independent symbols 1 - zeta^c), so coordinates solve
one integer linear system and the rank check is an exact rank.  Floating
point enters only through the Stark residuals, which are transcendental.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .fields import (PlaceSet, RelativeModel, SUnit, log_norms, make_field,
                     odd_prime_power, place_set, relative_model,
                     relative_place_set)
from .gring import FiniteGModule
from .intmat import hnf_columns
from .lfun import half_stickelberger

# prime powers with totally-real cyclotomic class number one (small range;
# each use is recorded as an explicit assumption in reports)
KNOWN_HPLUS_ONE = {3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41,
                   43, 47, 49, 53, 59, 61, 81, 121, 125, 169}


@dataclass
class UnitLattice:
    """Torsion generator + free generators of a finite-index S-unit group."""

    model: object                # FieldModel or RelativeModel
    pset: PlaceSet
    torsion_order: int
    torsion: SUnit
    free: tuple
    provider: str
    assumptions: tuple

    @property
    def group(self):
        return self.model.group

    @property
    def rank(self):
        return len(self.free)


# ---------------------------------------------------------------------------
# word constructors

def lambda_unit(f):
    return SUnit.one_minus_zeta(f, 1)


def stark_unit(f):
    """epsilon = (1 - zeta)(1 - zeta^{-1}), totally positive, in K^+."""
    return SUnit.one_minus_zeta(f, 1) * SUnit.one_minus_zeta(f, f - 1)


def cyclotomic_unit(f, a):
    """xi_a = zeta^{(1-a)/2} (1 - zeta^a) / (1 - zeta), a unit of K^+ for
    1 < a < f/2 prime to f; satisfies sigma_a(eps)/eps = xi_a^2."""
    if f % 2 == 0 or not 1 < a < f or gcd(a, f) != 1:
        raise ValueError("need odd f and 1 < a < f prime to f")
    inv2 = (f + 1) // 2
    return (SUnit.zeta(f, ((1 - a) * inv2) % f)
            * SUnit.one_minus_zeta(f, a) / SUnit.one_minus_zeta(f, 1))


# ---------------------------------------------------------------------------
# built-in providers (complete under h^+ = 1)

def _check_pset(model, pset, p):
    if pset.finite_primes() != [p]:
        raise ValueError(f"builtin unit provider needs S = {{infinity, {p}}}")


def sunit_group(model, pset, ctx, provider="builtin_hplus1"):
    """The full S-unit lattice U of the model (built-in or ingested)."""
    if provider != "builtin_hplus1":
        raise ValueError(f"unknown provider {provider!r}")
    if isinstance(model, RelativeModel):
        p, f = model.p, model.f
        _check_pset(model, pset, p)
        _require_hplus_one(f)
        torsion = SUnit.minus_one(f) * SUnit.zeta(f)
        free = tuple(lambda_unit(f).galois(model.group.label(h))
                     for h in model.group.elements)
        assumptions = (f"h+(Q(zeta_{f})) = 1",)
        u = UnitLattice(model, pset, 2 * f, torsion, free, provider, assumptions)
    else:
        p, _ = odd_prime_power(model.f)
        f = model.f
        _check_pset(model, pset, p)
        _require_hplus_one(f)
        xs = [a for a in range(2, (f + 1) // 2) if a % p]
        if model.totally_real and model.kernel == frozenset({1, f - 1}):
            torsion = SUnit.minus_one(f)
            free = tuple(cyclotomic_unit(f, a) for a in xs) + (stark_unit(f),)
            u = UnitLattice(model, pset, 2, torsion, free, provider,
                            (f"h+(Q(zeta_{f})) = 1",))
        elif model.is_full_cyclotomic:
            torsion = SUnit.minus_one(f) * SUnit.zeta(f)
            free = tuple(cyclotomic_unit(f, a) for a in xs) + (lambda_unit(f),)
            u = UnitLattice(model, pset, 2 * f, torsion, free, provider,
                            (f"h+(Q(zeta_{f})) = 1",))
        else:
            raise ValueError("builtin provider covers the full cyclotomic field "
                             "and its maximal real subfield only")
    _verify_rank(u)
    return u


def _require_hplus_one(f):
    if f not in KNOWN_HPLUS_ONE:
        raise ValueError(f"no class-number-one certificate for conductor {f}; "
                         "ingest an explicit unit basis instead")


def stark_module(model, pset, ctx):
    """The Stark submodule E of U: the Galois orbit of the distinguished unit
    over the same torsion (epsilon, lambda, or eta = lambda^{e theta~})."""
    if isinstance(model, RelativeModel):
        p, f = model.p, model.f
        _check_pset(model, pset, p)
        h = model.group
        beta = half_stickelberger(model) * (2 * f)  # e * theta~, integral
        assert beta.is_integral()
        eta = SUnit.one(f)
        for elem in h.elements:
            c = beta.coeff(elem)
            if c:
                eta = eta * lambda_unit(f).galois(h.label(elem)) ** int(c)
        torsion = SUnit.minus_one(f) * SUnit.zeta(f)
        free = tuple(eta.galois(h.label(e)) for e in h.elements)
        return UnitLattice(model, pset, 2 * f, torsion, free, "stark", ())
    p, _ = odd_prime_power(model.f)
    f = model.f
    _check_pset(model, pset, p)
    g = model.group
    if model.totally_real and model.kernel == frozenset({1, f - 1}):
        eps = stark_unit(f)
        free = tuple(eps.galois(g.label(e)) for e in g.elements)
        return UnitLattice(model, pset, 2, SUnit.minus_one(f), free, "stark", ())
    if model.is_full_cyclotomic:
        lam = lambda_unit(f)
        free = tuple(lam.galois(g.label(e)) for e in g.elements)
        return UnitLattice(model, pset, 2 * f,
                           SUnit.minus_one(f) * SUnit.zeta(f), free, "stark", ())
    raise ValueError("Stark module supported for full cyclotomic / maximal real / relative")


def _free_matrix(lattice):
    """B, whose column j is the normal-form vector of the j-th free
    generator, and r rows on which B has full rank r; ValueError if the
    free generators are multiplicatively dependent."""
    cols = [w.normal_form()[1] for w in lattice.free]
    nsym = len(lattice.torsion.normal_form()[1])   # also when there are no cols
    b = [[col[i] for col in cols] for i in range(nsym)]
    _, rows = hnf_columns(b)
    if len(rows) != len(cols):
        raise ValueError("free generators are multiplicatively dependent "
                         f"(rank {len(rows)} < {len(cols)})")
    return b, rows


def _verify_rank(lattice):
    need = lattice.pset.x_rank()
    if len(lattice.free) < need:
        raise ValueError(f"provider gives rank {len(lattice.free)} < {need}")
    _free_matrix(lattice)


# ---------------------------------------------------------------------------
# coordinates and the quotient module

class CoordinateError(ValueError):
    pass


def _scaled_inverse(a):
    """(d, r) with a r = d I for a nonsingular square integer matrix a, by
    fraction-free Gauss-Jordan elimination (Bareiss); d = +-det(a)."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        mk = m[k]
        for i in range(n):
            if i != k:
                mi, c = m[i], m[i][k]
                m[i] = [(x * mk[k] - c * y) // prev for x, y in zip(mi, mk)]
        prev = mk[k]
    return prev, [row[n:] for row in m]


def _coordinate_solver(lattice):
    """Everything a word's solve needs, computed once per lattice: B, the
    rows where it has full rank, the scaled inverse of B on those rows, the
    free generators' torsion exponents and the lattice's torsion exponent."""
    b, rows = _free_matrix(lattice)
    d, inv = _scaled_inverse([b[i] for i in rows])
    free_t = [w.normal_form()[0] for w in lattice.free]
    return b, rows, d, inv, free_t, lattice.torsion.normal_form()[0]


def unit_coordinates(lattice: UnitLattice, word: SUnit, ctx, *, _cache=None):
    """(t, xs): word = torsion^t * prod free_i^{x_i}, exactly.

    xs solve B xs = v for the word's normal-form vector v, with B factored
    once per lattice (pass the same `_cache` dict for every word); t solves
    the remaining power of -zeta modulo 2f.  CoordinateError names why a
    word is outside the lattice.
    """
    cache = _cache if _cache is not None else {}
    if "solver" not in cache:
        cache["solver"] = _coordinate_solver(lattice)
    b, rows, d, inv, free_t, tors_t = cache["solver"]
    t, v = word.normal_form()
    y = [sum(c * v[i] for c, i in zip(row, rows)) for row in inv]
    if any(sum(c * x for c, x in zip(brow, y)) != d * vi
           for brow, vi in zip(b, v)):
        raise CoordinateError("the word is outside the rational span of the "
                              "free generators: no power of it is in the lattice")
    for x in y:
        if x % d:
            raise CoordinateError(
                f"unit coordinate {x}/{d} is not integral: a power of the word "
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


def quotient_module(u: UnitLattice, e: UnitLattice, ctx):
    """U/E as a FiniteGModule on generators (torsion, free_1, ..., free_r)."""
    assert u.group == e.group
    g = u.group
    k = 1 + len(u.free)
    cache = {}
    relations = []
    col = [0] * k
    col[0] = u.torsion_order
    relations.append(tuple(col))

    def coord_col(word):
        t, xs = unit_coordinates(u, word, ctx, _cache=cache)
        return tuple([t] + xs)

    relations.append(coord_col(e.torsion))
    for w in e.free:
        relations.append(coord_col(w))

    action = []
    for gen in g.generator_elements():
        t_res = g.label(gen)
        cols = [coord_col(u.torsion.galois(t_res))]
        for w in u.free:
            cols.append(coord_col(w.galois(t_res)))
        # column j = image of generator j
        action.append(tuple(tuple(cols[j][i] for j in range(k)) for i in range(k)))
    return FiniteGModule(g, k, relations, action)


# ---------------------------------------------------------------------------
# Stark residuals

def conjugate_logs(unit, pset, ctx):
    """{sigma: log ||sigma(unit)||_{w0}} at ctx precision, read off the
    unit's log embedding: with a trivial decomposition group at infinity
    (plus and relative fields) there is one archimedean place per sigma."""
    logs = log_norms(unit, pset, ctx)
    return {sigma: lw for (sigma,), lw in zip(pset.places[0].cosets, logs)}


def stark_residuals(model, pset, ctx):
    """max_sigma | log||sigma(eps)||_{w0} + e zeta'_S(0, sigma) | as mpf.

    Plus fields use the real absolute value at the distinguished place and
    e = 2; the relative case uses the square of the complex modulus and
    e = 2 p^n, with eta in place of eps.
    """
    from .lfun import partial_zeta_all, relative_partial_zeta_deriv
    if isinstance(model, RelativeModel):
        ew = 2 * model.f
        unit = stark_module(model, pset, ctx).free[0]
        # free[0] is eta at the identity conjugate
        zder = relative_partial_zeta_deriv(model, ctx)
    else:
        ew = 2
        unit = stark_unit(model.f)
        zder = partial_zeta_all(model, pset, 1, ctx)
    g = model.group
    logs = conjugate_logs(unit, pset, ctx)
    with ctx.guard():
        out = {sigma: abs(lw + ew * zder[sigma]) for sigma, lw in logs.items()}
        worst = max(out.values())
    return {g.label(s): ctx.final(v) for s, v in out.items()}, ctx.final(worst)


# ---------------------------------------------------------------------------
# unit file interchange

def export_units(lattice: UnitLattice, path):
    if isinstance(lattice.model, RelativeModel):
        fielddesc = {"relative": {"p": lattice.model.p, "n": lattice.model.n}}
    else:
        fielddesc = {"f": lattice.model.f, "kernel": sorted(lattice.model.kernel)}
    doc = {
        "kind": "sunits",
        "format": 1,
        "field": fielddesc,
        "s_primes": lattice.pset.finite_primes(),
        "torsion": {"order": lattice.torsion_order, "word": lattice.torsion.to_word()},
        "free": [w.to_word() for w in lattice.free],
        "provider": lattice.provider,
        "assumptions": list(lattice.assumptions),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_units(path, ctx):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "sunits":
        raise ValueError("not a unit file")
    fd = doc["field"]
    if "relative" in fd:
        model = relative_model(fd["relative"]["p"], fd["relative"]["n"])
        pset = relative_place_set(model)
        f = model.f
    else:
        f = int(fd["f"])
        odd_prime_power(f)
        model = make_field(f, frozenset(fd["kernel"]))
        pset = place_set(model, tuple(doc["s_primes"]))
    torsion = SUnit.from_word(f, doc["torsion"]["word"])
    order = int(doc["torsion"]["order"])
    t, v = torsion.normal_form()
    if any(v):
        raise ValueError("torsion word is not a root of unity")
    if order < 1 or order * t % (2 * f):
        raise ValueError("torsion word does not have the declared order")
    if order != 2 * f // gcd(t, 2 * f):
        raise ValueError("declared torsion order is not minimal")
    free = tuple(SUnit.from_word(f, w) for w in doc["free"])
    if not isinstance(model, RelativeModel):
        for w in free:
            if not w.fixed_by(model.kernel):
                raise ValueError("free generator is not fixed by the field's kernel")
    lattice = UnitLattice(model, pset, order, torsion, free,
                          str(doc.get("provider", "ingested")),
                          tuple(doc.get("assumptions", ())))
    _verify_rank(lattice)
    return lattice
