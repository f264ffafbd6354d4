"""S-unit lattices for prime-power cyclotomic fields, their Stark-unit
submodules, and the finite quotient U/E as a Galois module.

Providers are exact generator lists (words); completeness of the built-in
provider is exactly the class-number-one input recorded in `assumptions`.
Coordinates of one unit against a generator list are exact: an `SUnit` is
its normal form (t, v), a power of -zeta times an exponent vector on
independent symbols 1 - zeta^c.  One column echelon form of the
generators' vectors with its unimodular transform is both the exact rank
check and the coordinate solver, by integer back-substitution.
Floating point enters only through the Stark residuals, which are
transcendental.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, prod

from .fields import (RelativeModel, SUnit, json_int, log_norms, make_field,
                     odd_prime_power, place_set, relative_model,
                     relative_place_set, torsion_order)
from .gring import FiniteGModule
from .intmat import column_echelon
from .lfun import half_stickelberger, partial_zeta_all

# prime powers with totally-real cyclotomic class number one (small range;
# each use is recorded as an explicit assumption in reports)
KNOWN_HPLUS_ONE = {3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41,
                   43, 47, 49, 53, 59, 61, 81, 121, 125, 169}


class UnitLattice:
    """Torsion generator + free generators of a finite-index S-unit group;
    `unit_coordinates` keeps its coordinate solver in `solver` once built."""

    __slots__ = ("model", "pset", "torsion_order", "torsion", "free",
                 "provider", "assumptions", "solver")

    def __init__(self, model, pset, torsion_order, torsion, free, provider,
                 assumptions):
        self.model = model               # FieldModel or RelativeModel
        self.pset, self.torsion_order, self.torsion = pset, torsion_order, torsion
        self.free, self.provider, self.assumptions = free, provider, assumptions
        self.solver = None

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

def _builtin_words(model, pset):
    """(torsion, distinguished unit) of the built-in tables: -1 and epsilon
    on the plus field, -zeta and lambda on the full field, -zeta and eta =
    lambda^{e theta~} on the relative field, each with S = {infinity, p};
    the unit as a function, so `sunit_group`, which reads no eta, builds none."""
    f = model.f
    relative = isinstance(model, RelativeModel)
    p = model.p if relative else odd_prime_power(f)[0]
    if pset.finite_primes() != [p]:
        raise ValueError(f"builtin unit provider needs S = {{infinity, {p}}}")
    if relative:
        return SUnit.minus_one(f) * SUnit.zeta(f), lambda: _relative_stark_unit(model)
    if model.kernel == frozenset({1, f - 1}):
        return SUnit.minus_one(f), lambda: stark_unit(f)
    if model.is_full_cyclotomic:
        return SUnit.minus_one(f) * SUnit.zeta(f), lambda: lambda_unit(f)
    raise ValueError("builtin units cover the full cyclotomic field, its "
                     "maximal real subfield and the relative field only")


def _relative_stark_unit(model):
    """eta = prod_sigma sigma(lambda)^{c_sigma} for e theta~ = sum c_sigma sigma."""
    g, beta = model.group, half_stickelberger(model) * torsion_order(model)
    if not beta.is_integral():
        raise ArithmeticError("e * theta~ is not integral")
    return prod((lambda_unit(model.f).galois(g.label(e)) ** int(beta.coeff(e))
                 for e in g.elements if beta.coeff(e)), start=SUnit.one(model.f))


def sunit_group(model, pset, ctx):
    """The full S-unit lattice U of the model from the built-in tables."""
    torsion, make_unit = _builtin_words(model, pset)
    f = model.f
    _require_hplus_one(f)
    if isinstance(model, RelativeModel):
        free = tuple(lambda_unit(f).galois(model.group.label(h))
                     for h in model.group.elements)
    else:
        free = tuple(cyclotomic_unit(f, a) for a in range(2, (f + 1) // 2)
                     if gcd(a, f) == 1) + (make_unit(),)
    u = UnitLattice(model, pset, torsion_order(model), torsion, free, "builtin_hplus1",
                    (f"h+(Q(zeta_{f})) = 1",))
    _verify_rank(u)
    return u


def _require_hplus_one(f):
    if f not in KNOWN_HPLUS_ONE:
        raise ValueError(f"no class-number-one certificate for conductor {f}; "
                         "ingest an explicit unit basis instead")


def stark_module(model, pset, ctx):
    """The Stark submodule E of U: the Galois orbit of the distinguished unit
    over the same torsion (epsilon, lambda, or eta = lambda^{e theta~})."""
    torsion, make_unit = _builtin_words(model, pset)
    unit, g = make_unit(), model.group
    free = tuple(unit.galois(g.label(e)) for e in g.elements)
    return UnitLattice(model, pset, torsion_order(model), torsion, free, "stark", ())


def _verify_rank(lattice):
    need = lattice.pset.x_rank()
    if len(lattice.free) < need:
        raise ValueError(f"provider gives rank {len(lattice.free)} < {need}")
    lattice.solver = _coordinate_solver(lattice)   # also the independence check


# ---------------------------------------------------------------------------
# coordinates and the quotient module

class CoordinateError(ValueError):
    pass


def _coordinate_solver(lattice):
    """Everything a word's solve needs, computed once per lattice: the column
    echelon form of the columns (e_j ; b_j), b_j the normal-form vector of
    free generator j, is r columns (U_k ; H_k) with U unimodular and H = B U
    (Cohen, GTM 138, 2.4.3), each kept with its pivot row and nonzero
    entries; then the free generators' and the lattice's torsion exponents.
    A pivot among the top r rows is a relation: ValueError."""
    r = len(lattice.free)
    cols, rows = column_echelon([[int(i == j) for i in range(r)] + list(w.v)
                                 for j, w in enumerate(lattice.free)])
    rank = sum(p >= r for p in rows)
    if rank < r:
        raise ValueError("free generators are multiplicatively dependent "
                         f"(rank {rank} < {r})")
    steps = [(p, col, [(i, x) for i, x in enumerate(col) if x])
             for p, col in zip(rows, cols)]
    return r, steps, [w.t for w in lattice.free], lattice.torsion.t


def unit_coordinates(lattice: UnitLattice, word: SUnit, ctx):
    """(t, xs): word = torsion^t * prod free_i^{x_i}, exactly.

    xs = U z solve B xs = v for the word's normal-form vector v, where z
    solves H z = v by back-substitution in integers (Fractions only for a
    word outside the lattice) against `lattice.solver`, built on the first
    solve if need be; t solves the remaining power of -zeta modulo 2f.
    CoordinateError names why a word is outside the lattice.
    """
    if lattice.solver is None:
        lattice.solver = _coordinate_solver(lattice)
    r, steps, free_t, tors_t = lattice.solver
    t, v = word.t, word.v
    # subtracting z_k (U_k ; H_k) from (0 ; v) leaves (-U z ; v - H z)
    w = [0] * r + list(v)
    for p, col, nonzero in reversed(steps):
        if w[p]:
            q, rem = divmod(w[p], col[p])
            if rem:
                q = Fraction(w[p], col[p])
            for i, x in nonzero:
                w[i] -= q * x
    if any(w[r:]):
        raise CoordinateError("the word is outside the rational span of the "
                              "free generators: no power of it is in the lattice")
    xs = [-x for x in w[:r]]
    for x in xs:
        if x.denominator != 1:
            raise CoordinateError(
                f"unit coordinate {x} is not integral: a power of the word "
                "is in the lattice, the word itself is not")
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
    if u.group != e.group:
        raise ValueError(f"quotient of units over {u.group} by units over {e.group}")
    g = u.group
    k = 1 + len(u.free)
    relations = []
    col = [0] * k
    col[0] = u.torsion_order
    relations.append(tuple(col))

    def coord_col(word):
        t, xs = unit_coordinates(u, word, ctx)
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

def stark_residuals(model, pset, ctx):
    """max_sigma | log||sigma(eps)||_{w0} + e zeta'_S(0, sigma) | as mpf.

    Plus fields use the real absolute value at the distinguished place and
    e = 2; the relative case uses the square of the complex modulus and
    e = 2 p^n, with eta in place of eps. Either unit is the Stark module's
    free[0], its conjugate at the identity.
    """
    ew = torsion_order(model)
    zder = partial_zeta_all(model, pset, 1, ctx)
    g = model.group
    logs = log_norms(stark_module(model, pset, ctx).free[0], pset, ctx)
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


def json_object(doc, key):
    """doc[key] of a loaded document, which must be a JSON object."""
    value = doc.get(key)
    if not isinstance(value, dict):
        raise ValueError(f"\"{key}\" must be a JSON object")
    return value


def json_list(value, name):
    """The document field `name`, which must be a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"\"{name}\" must be a list, not {value!r}")
    return value


def json_ints(value, name):
    """The document field `name`, a list of integers."""
    return [json_int(x, name) for x in json_list(value, name)]


def load_units(path, ctx):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "sunits":
        raise ValueError("not a unit file")
    fd = json_object(doc, "field")
    if "relative" in fd:
        rel = json_object(fd, "relative")
        model = relative_model(json_int(rel["p"], "p"), json_int(rel["n"], "n"))
        pset = relative_place_set(model)
        f = model.f
    else:
        f = json_int(fd["f"], "f")
        odd_prime_power(f)
        model = make_field(f, frozenset(json_ints(fd["kernel"], "kernel")))
        pset = place_set(model, json_ints(doc["s_primes"], "s_primes"))
    tors = json_object(doc, "torsion")
    torsion = SUnit.from_word(f, tors["word"])
    order = json_int(tors["order"], "order")
    t = torsion.t
    if any(torsion.v):
        raise ValueError("torsion word is not a root of unity")
    if order < 1 or order * t % (2 * f):
        raise ValueError("torsion word does not have the declared order")
    if order != 2 * f // gcd(t, 2 * f):
        raise ValueError("declared torsion order is not minimal")
    free = tuple(SUnit.from_word(f, w) for w in json_list(doc["free"], "free"))
    if not isinstance(model, RelativeModel):
        for w in free:
            if not w.fixed_by(model.kernel):
                raise ValueError("free generator is not fixed by the field's kernel")
    lattice = UnitLattice(model, pset, order, torsion, free,
                          str(doc.get("provider", "ingested")),
                          tuple(json_list(doc.get("assumptions", []), "assumptions")))
    _verify_rank(lattice)
    return lattice
