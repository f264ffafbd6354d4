"""The fractional ideal J of a (K, S) pair inside Q[G], by three routes:

* theorem route  -- J = (1/e) ann(U/E) when every L-function vanishes to
  order exactly 1 at s = 0 (plus fields, and the relative CM case);
* full-cyclotomic route -- J generated by {alpha e+/2 + theta} with alpha
  running over ann(U / <1 - zeta>);
* base case (no Galois action) -- the rational generator zeta*_K(0)/R_K.

run_check exposes the named structural identities with exact witnesses.
"""

import json
import random
from fractions import Fraction

import mpmath as mp

from .cyclo import is_prime
from .fields import (FieldModel, bounded, json_int, log_norms, make_field, place_set,
                     plus_field, select_field, torsion_order)
from .gring import (FiniteGModule, GroupHom, GroupRingElement, IdealLattice,
                    _clear_denominators, _convolve, _orbit_vectors, _perm_table,
                    characters, hom_by_residues, norm_element)
from .intmat import span_equal
from .lfun import (_proj_g_to_h, character_sums, half_stickelberger, l_deriv_at_0,
                   l_derivs_at_0, stickelberger, stickelberger_classical,
                   vanishing_order)
from .units import (json_ints, json_object, quotient_module,
                    stark_module, stark_residuals, sunit_group)


class JResult:
    """The ideal J of one route (None for the base cases), with its numeric
    values, exact details and assumptions."""

    __slots__ = ("route", "model", "ideal", "numeric", "details", "assumptions")

    def __init__(self, route, model, ideal, numeric, details, assumptions=()):
        self.route, self.model, self.ideal = route, model, ideal
        self.numeric, self.details, self.assumptions = numeric, details, assumptions


class CheckReport:
    __slots__ = ("check", "status", "witnesses", "context")

    def __init__(self, check, status, witnesses, context):
        self.check, self.status = check, status      # pass / fail / error
        self.witnesses, self.context = witnesses, context

    @property
    def passed(self):
        return self.status == "pass"

    def to_jsonable(self):
        return {"check": self.check, "status": self.status,
                "witnesses": self.witnesses, "context": self.context}


def _chi_name(chi):
    return f"character with exponents {chi.exps}"


def _require_rank_one(model, pset):
    for chi in characters(model.group):
        r = vanishing_order(model, pset, chi)
        if r != 1:
            raise ValueError(
                f"theorem route needs r(chi) = 1 for every character; "
                f"{_chi_name(chi)} has r = {r}")


def _level(params):
    """(p, n) of a check on the fields of conductor p^n."""
    return int(params["p"]), int(params.get("n", 1))


# the subfields a check runs on, and the one it runs on without --subfield;
# the CLI passes --subfield only to these
SUBFIELDS = {"RZERO": ("full", "plus", "relative"), "STARKC": ("plus", "relative"),
             "CLCONT": ("plus", "full")}
DEFAULT_SUBFIELD = {"RZERO": "full", "STARKC": "plus", "CLCONT": "full"}

# the verify options (RunConfig fields) that only some checks read; the CLI
# passes each only to these, and refuses one that no check of the suite reads
CHECK_OPTIONS = {"subfield": tuple(SUBFIELDS), "seed": ("INDF",),
                 "input_path": ("CLCONT", "CG_FIT")}


def _subfield(check, params):
    """The check's subfield selector, one of SUBFIELDS[check]."""
    sub, subfields = params.get("subfield", DEFAULT_SUBFIELD[check]), SUBFIELDS[check]
    if sub not in subfields:
        raise ValueError(f"{check} runs on the {', '.join(subfields[:-1])} or "
                         f"{subfields[-1]} subfield, not {sub!r}")
    return sub


def _field(p, n, sub):
    """(model, S) of conductor p^n: Q(zeta_{p^n}) ("full") or its plus field
    with S = {inf, p}, or the relative model with its own S ("relative")."""
    return select_field(bounded(p, "conductor", n), sub)


# ---------------------------------------------------------------------------
# routes

def _unit_quotient(model, pset, ctx, units=None):
    """(U, U/E): the S-units (`units`, else the builtin ones) and their
    quotient by the Stark module E."""
    u = units if units is not None else sunit_group(model, pset, ctx)
    return u, quotient_module(u, stark_module(model, pset, ctx), ctx)


def _j_result(route, model, ideal, u, m):
    return JResult(route, model, ideal, {},
                   details={"quotient_order": m.order(),
                            "quotient_structure": list(m.structure()),
                            "e": torsion_order(model)},
                   assumptions=u.assumptions)


def j_via_theorem(model, pset, ctx, units=None):
    """J = (1/e) ann_{Z[G]}(U/E) under the all-orders-one hypothesis."""
    _require_rank_one(model, pset)
    u, m = _unit_quotient(model, pset, ctx, units)
    ideal = m.annihilator().scale(Fraction(1, torsion_order(model)))
    return _j_result("theorem_j", model, ideal, u, m)


def j_full_cyclotomic(model, pset, ctx, units=None):
    """J for Q(zeta_{p^n})/Q with S = {infinity, p}: the Z[G]-span of
    { alpha e+/2 + theta : alpha in ann(U/E) }, E = Z[G](1 - zeta). The
    alpha e+/2 over a Z-basis of the ideal ann(U/E) already span a
    Z[G]-module, so only theta is closed under G."""
    u, m = _unit_quotient(model, pset, ctx, units)
    ann = m.annihilator()
    g = model.group
    # integer columns over 4 d d_ann (theta = t / d, ann = cols / d_ann):
    # theta's orbit, and e+/2 = (1 + c)/4 times each basis column of ann
    d, (t,) = _clear_denominators([stickelberger(model, pset)])
    cperm = _perm_table(g)[g.index(model.conjugation())]
    vecs = _orbit_vectors(g, [[4 * ann.den * x for x in t]])
    vecs += [[d * (x + col[j]) for x, j in zip(col, cperm)] for col in ann.cols]
    ideal = IdealLattice._from_columns(g, 4 * d * ann.den, vecs)
    return _j_result("full_cyclotomic", model, ideal, u, m)


def j_ideal(model, pset, ctx, units=None):
    """J of (model, S): the full-cyclotomic route on a full cyclotomic
    field, the theorem route on any other. Both routes are looked up at
    call time, so a rebinding of either module name takes effect."""
    full = isinstance(model, FieldModel) and model.is_full_cyclotomic
    memo = _SHARED[-1] if _SHARED and units is None else {}
    key = (model, tuple(pset.finite_primes()), ctx)
    if key not in memo:
        memo[key] = (j_full_cyclotomic if full else j_via_theorem)(model, pset, ctx, units)
    return memo[key]


def j_base_case(which, ctx):
    """J_{K/K, S_inf} = Z * zeta*_K(0)/R_K, compared with -h/#mu(K)."""
    with ctx.guard():
        zeta0 = ctx.mpf(Fraction(-1, 2))     # zeta(0), exactly
        if which == "Q":
            gen = zeta0
            reg = mp.mpf(1)
            h, w = 1, 2
        elif which == "Qsqrt5":
            model = plus_field(5)
            chi = next(c for c in characters(model.group) if not c.is_trivial())
            # S = {infinity} and conductor 5: the primitive L'(0, chi)
            lder = l_deriv_at_0(model, place_set(model), chi, ctx)
            gen = zeta0 * lder
            reg = mp.log((1 + mp.sqrt(5)) / 2)   # fundamental unit (1+sqrt5)/2
            h, w = 1, 2
        else:
            raise ValueError(f"base case supports 'Q' and 'Qsqrt5', not {which!r}")
        val = gen / reg
        target = -Fraction(h, w)
        resid = abs(val - ctx.mpf(target))
    return JResult("base_case", which, None,
                   numeric={"generator": ctx.final(val),
                            "residual": ctx.final(resid)},
                   details={"h": h, "mu_order": w,
                            "target": str(target)})


# ---------------------------------------------------------------------------
# I^f and the Stark regulator under twists of the trivialization

def _regulator_values(model, pset, ctx):
    """[(chi, chi(R), L'_S(0, chi))] over the characters, at the working
    precision of ctx.guard(), for R = -sum_sigma log||eps||_{sigma w0} sigma
    and chi(x) = sum_sigma x_sigma chi(sigma) (chi unconjugated)."""
    logs = log_norms(stark_module(model, pset, ctx).free[0], pset, ctx)
    chars = characters(model.group)
    lders = l_derivs_at_0(model, pset, chars, ctx)
    with ctx.guard():
        rs = character_sums(model.group, chars, {sigma: -lw for sigma, lw in logs.items()})
        return list(zip(chars, rs, lders))


def i_f_and_regulator(model, pset, twist, ctx):
    """Exact I^f = det(u)^{-1} ann(U/E) for f = u o f0, plus the numeric
    Stark regulator values A_chi = chi(u) chi(R) / L'_S(0, chi) (see
    `_regulator_values`; chi(u) likewise unconjugated).  Their exact fold
    returns J = (1/e) u I^f, independent of the twist.
    Returns (I^f lattice, {chi index: A_chi}, J)."""
    _require_rank_one(model, pset)
    _, m = _unit_quotient(model, pset, ctx)
    i_f = m.annihilator().divide(twist)  # raises unless u is invertible
    g = model.group
    chars, rs, lstars = zip(*_regulator_values(model, pset, ctx))
    with ctx.guard():
        tvs = character_sums(g, chars, {s: ctx.mpf(twist.coeff(s)) for s in g.elements})
        reg = {idx: ctx.final(tv * r / lstar)
               for idx, (tv, r, lstar) in enumerate(zip(tvs, rs, lstars))}
    return i_f, reg, i_f.scale(twist * Fraction(1, torsion_order(model)))


# ---------------------------------------------------------------------------
# the check registry

def _ctx_stamp(ctx, **params):
    d = ctx.as_dict()
    d.update(params)
    return d


def _gre_jsonable(x):
    return {str(x.group.label(e)): str(x.coeff(e))
            for e in x.group.elements if x.coeff(e)}


def check_stick_ident(params, ctx):
    f = int(params["f"])
    model, pset = select_field(f)
    theta = stickelberger(model, pset)
    half_n = norm_element(model.group) * Fraction(1, 2)
    classical = stickelberger_classical(f)
    ok = theta == half_n - classical
    wit = {}
    if not ok:
        wit = {"theta": _gre_jsonable(theta),
               "half_n_minus_classical": _gre_jsonable(half_n - classical)}
    return CheckReport("STICK_IDENT", "pass" if ok else "fail", wit,
                       _ctx_stamp(ctx, f=f))


def rzero_idempotent(group, pset):
    """e0, the sum of the e_chi with r_S(chi) = 0, without characters:
    e_D = (1/|D|) sum_{d in D} d is the sum of the e_chi with chi trivial on
    D, and chi != 1 has r_S(chi) = 0 iff it is nontrivial on every D_v, so
    e0 = prod_{v in S} (1 - e_{D_v}), plus e_G when |S| = 1."""
    e0 = one = GroupRingElement.one(group)
    for pd in pset.places:
        d = pd.decomposition
        e0 = e0 * (one - GroupRingElement.from_dict(group, dict.fromkeys(d, Fraction(1, len(d)))))
    if len(pset.places) == 1:
        e0 = e0 + norm_element(group) * Fraction(1, group.order)
    return e0


def check_rzero(params, ctx):
    p, n = _level(params)
    sub = _subfield("RZERO", params)
    model, pset = _field(p, n, sub)
    lat, g = j_ideal(model, pset, ctx).ideal, model.group
    theta, e0 = stickelberger(model, pset), rzero_idempotent(g, pset)
    theta_in = lat.contains_element(theta)
    # over d J.den: e0 J (G-stable) by integer products with J's columns; theta's orbit
    _, (e0_n, theta_n) = _clear_denominators([e0, theta])
    spans_ok = span_equal([_convolve(g, e0_n, col) for col in lat.cols],
                          _orbit_vectors(g, [[lat.den * x for x in theta_n]]))
    ok = theta_in and spans_ok
    wit = {}
    if not ok:
        wit = {"theta_in_j": theta_in, "e0_j_equals_ztheta": spans_ok,
               "theta": _gre_jsonable(theta), "e0": _gre_jsonable(e0)}
    return CheckReport("RZERO", "pass" if ok else "fail", wit,
                       _ctx_stamp(ctx, p=p, n=n, subfield=sub))


INDF_TWISTS = 5  # the invertible twists INDF checks


def check_indf(params, ctx):
    """J = (1/e) u u^-1 ann(U/E) for random invertible twists u, exactly."""
    p, n = _level(params)
    seed = int(params.get("seed", 0))
    model, pset = _field(p, n, "plus")
    base = j_ideal(model, pset, ctx).ideal
    e = torsion_order(model)
    ann = base.scale(e)  # on the theorem route ann(U/E) = e J exactly
    g = model.group
    rng = random.Random(seed)
    checked = 0
    while checked < INDF_TWISTS:
        tw = GroupRingElement(g, [Fraction(rng.randint(-2, 2)) for _ in range(g.order)])
        try:
            j_tw = ann.divide(tw).scale(tw * Fraction(1, e))
        except ZeroDivisionError:  # a singular draw
            continue
        if j_tw != base:
            return CheckReport(
                "INDF", "fail",
                {"twist_index": checked, "twist": _gre_jsonable(tw),
                 "expected": base.to_jsonable(), "got": j_tw.to_jsonable()},
                _ctx_stamp(ctx, p=p, n=n, seed=seed))
        checked += 1
    return CheckReport("INDF", "pass", {"twists": INDF_TWISTS},
                       _ctx_stamp(ctx, p=p, n=n, seed=seed))


def check_stark_rat(params, ctx):
    """chi(R) / L'_S(0, chi) = e for every character: f0 itself, u = 1."""
    p, n = _level(params)
    model, pset = _field(p, n, "plus")
    _require_rank_one(model, pset)
    e = torsion_order(model)
    vals = _regulator_values(model, pset, ctx)
    with ctx.guard():
        reg = {idx: ctx.final(r / lstar) for idx, (_, r, lstar) in enumerate(vals)}
        worst = max(abs(v - e) for v in reg.values())
    worst = ctx.final(worst)
    ok = worst < ctx.tol
    return CheckReport("STARK_RAT", "pass" if ok else "fail",
                       {"e": e, "max_residual": mp.nstr(worst, 12),
                        "per_character": {str(k): mp.nstr(v, 12)
                                          for k, v in reg.items()}},
                       _ctx_stamp(ctx, p=p, n=n))


def check_qnat(params, ctx):
    p, n = _level(params)
    full_res, plus_res = (j_ideal(*_field(p, n, sub), ctx) for sub in ("full", "plus"))
    pi = hom_by_residues(full_res.model.group, plus_res.model.group)
    projected = full_res.ideal.project(pi)
    ok = projected == plus_res.ideal
    wit = {"projected": projected.to_jsonable(),
           "j_plus": plus_res.ideal.to_jsonable()}
    if not ok:
        for lat, other, side in (
                (projected, plus_res.ideal, "in projection, not in J_plus"),
                (plus_res.ideal, projected, "in J_plus, not in projection")):
            bad = other._first_outside(lat.den, lat.cols)
            if bad is not None:
                b = GroupRingElement(lat.group, [Fraction(x, lat.den) for x in lat.cols[bad[0]]])
                wit.update(witness_element=_gre_jsonable(b), witness_side=side)
                break
    return CheckReport("QNAT", "pass" if ok else "fail", wit,
                       _ctx_stamp(ctx, p=p, n=n))


def check_jrel(params, ctx):
    p, n = _level(params)
    rel_res, plus_res = (j_ideal(*_field(p, n, sub), ctx) for sub in ("relative", "plus"))
    rel, model_plus = rel_res.model, plus_res.model
    h = rel.group
    iso = hom_by_residues(h, model_plus.group)  # restriction H -> G+
    if not (iso.injective and iso.surjective):
        raise ValueError(f"restriction of H to the plus group mod {h.f} is not bijective")
    back = GroupHom(model_plus.group, h,
                    {iso(e): e for e in h.elements})
    two_tt_j_plus = plus_res.ideal.project(back).scale(half_stickelberger(rel) * 2)
    # on the theorem route ann(U/E) = e J on both sides, and e+ = 2 on the
    # real field, so the annihilator identity is the first one times e
    eq1 = eq2 = rel_res.ideal == two_tt_j_plus
    wit = {"eq1": eq1, "eq2": eq2}
    if not eq1:
        e = torsion_order(rel)
        wit.update({"j_rel": rel_res.ideal.to_jsonable(),
                    "two_tt_j_plus": two_tt_j_plus.to_jsonable(),
                    "ann_rel": rel_res.ideal.scale(e).to_jsonable(),
                    "e_tt_ann_plus": two_tt_j_plus.scale(e).to_jsonable()})
    return CheckReport("JREL", "pass" if eq1 else "fail", wit,
                       _ctx_stamp(ctx, p=p, n=n))


def bch_projection(rel, full_res):
    """pi_H(beta0 J) for the full route's J of Q(zeta_f), beta0 = theta~ (1 + c)
    with theta~ carried into Q[G]: pi_H is a ring map that fixes H and sends c
    to 1, so this is 2 theta~ pi_H(J), a product over H per basis column."""
    pi_h = _proj_g_to_h(full_res.model.group, rel.group, rel.f)
    return full_res.ideal.project(pi_h).scale(half_stickelberger(rel) * 2)


def check_bch(params, ctx):
    p, n = _level(params)
    rel_res = j_ideal(*_field(p, n, "relative"), ctx)
    rhs = bch_projection(rel_res.model, j_ideal(*_field(p, n, "full"), ctx))
    ok = rhs == rel_res.ideal
    wit = {}
    if not ok:
        wit = {"j_rel": rel_res.ideal.to_jsonable(),
               "projected": rhs.to_jsonable()}
    return CheckReport("BCH", "pass" if ok else "fail", wit,
                       _ctx_stamp(ctx, p=p, n=n))


def check_starkc(params, ctx):
    p, n = _level(params)
    sub = _subfield("STARKC", params)
    residuals, worst = stark_residuals(*_field(p, n, sub), ctx)
    ok = worst < ctx.tol
    return CheckReport("STARKC", "pass" if ok else "fail",
                       {"max_residual": mp.nstr(worst, 12),
                        "per_sigma": {str(k): mp.nstr(v, 12)
                                      for k, v in residuals.items()}},
                       _ctx_stamp(ctx, p=p, n=n, subfield=sub))


def _mu_ell_annihilator(model, ell):
    """ann_{Z[G]}(ell-part of mu_K) as an IdealLattice (unit ideal if trivial).

    sigma acts on the ell-part mu_{ell^v} as its label a, so the annihilator
    is the kernel of Z[G] -> Z/ell^v, sigma -> a: the ideal generated by
    ell^v and sigma - a over the group's generators."""
    g = model.group
    e, lv = torsion_order(model), 1
    while e % ell == 0:
        e //= ell
        lv *= ell
    one = GroupRingElement.one(g)
    return IdealLattice.from_generators(
        g, [one * lv] + [GroupRingElement.basis(g, gen) - one * (g.label(gen) % lv)
                         for gen in g.generator_elements()])


def check_clcont(params, ctx):
    p, n = _level(params)
    ell = int(params["ell"])
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"CLCONT needs an odd prime ell, not {ell}")
    clmod = params.get("classgroup")
    sub = _subfield("CLCONT", params)
    res = j_ideal(*_field(p, n, sub), ctx)
    model = res.model
    lhs = res.ideal
    if sub == "full":
        lhs = _mu_ell_annihilator(model, ell).multiply(lhs)
    assumptions = list(res.assumptions)
    if clmod is None:
        ann_cl = IdealLattice.unit_ideal(model.group)
        assumptions.append(f"Cl taken trivial for {model.f} ({sub})")
    else:
        if clmod.group != model.group:
            raise ValueError("class-group data is for a different field")
        ann_cl = clmod.annihilator()
    ok, wit = ann_cl.ell_contains(lhs, ell)
    return CheckReport("CLCONT", "pass" if ok else "fail",
                       {"witness": wit, "assumptions": assumptions},
                       _ctx_stamp(ctx, p=p, n=n, ell=ell, subfield=sub))


def check_cg_fit(params, ctx):
    p, n = _level(params)
    ell = int(params["ell"])
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"CG_FIT needs an odd prime ell, not {ell}")
    clmod = params.get("classgroup")
    model, pset = _field(p, n, "plus")
    _, m = _unit_quotient(model, pset, ctx)
    fitt_u = m.ell_part(ell).fitting_ideal()
    if clmod is None:
        cl_ell = FiniteGModule.trivial(model.group)
        assumption = f"Cl(K+) taken trivial for {model.f}"
    else:
        if clmod.group != model.group:
            raise ValueError("class-group data is for a different field")
        cl_ell = clmod.ell_part(ell)
        assumption = "ingested class-group data"
    fitt_cl = cl_ell.fitting_ideal()
    ok, wit = fitt_u.ell_equal(fitt_cl, ell)
    return CheckReport("CG_FIT", "pass" if ok else "fail",
                       {"witness": wit, "assumptions": [assumption]},
                       _ctx_stamp(ctx, p=p, n=n, ell=ell))


def check_acnf(params, ctx):
    which = params.get("field", "Q")
    res = j_base_case(which, ctx)
    resid = res.numeric["residual"]
    ok = resid < ctx.tol
    return CheckReport("ACNF", "pass" if ok else "fail",
                       {"generator": mp.nstr(res.numeric["generator"], 25),
                        "residual": mp.nstr(resid, 12),
                        "target": res.details["target"]},
                       _ctx_stamp(ctx, field=which))


# ---------------------------------------------------------------------------
# class-group data interchange

def load_classgroup(path):
    """Read a class-group document; return (FiniteGModule, provenance).

    Expected shape::

        {"kind": "classgroup", "format": 1,
         "field": {"f": F, "kernel": [residues]},
         "invariant_factors": [d1, d2, ...],
         "generators": [residue labels],          # optional cross-check
         "action": [M1, ..., Mr],                # one k x k matrix per
         "provenance": "..."}                    # group generator

    Validation (finite orders, commuting matrices, relation stability) is
    delegated to the module constructor; offending matrices raise ValueError.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "classgroup":
        raise ValueError("not a class-group file (kind != 'classgroup')")
    if json_int(doc.get("format", 0), "format") != 1:
        raise ValueError("unsupported class-group file format")
    fd = json_object(doc, "field")
    model = make_field(json_int(fd.get("f"), "f"),
                       frozenset(json_ints(fd.get("kernel", [1]), "kernel")))
    g = model.group
    factors = json_ints(doc.get("invariant_factors"), "invariant_factors")
    if any(d < 1 for d in factors):
        raise ValueError("invariant factors must be positive integers")
    for d in factors:
        bounded(d, "invariant factor")
    k = len(factors)
    relations = [tuple(factors[i] if j == i else 0 for j in range(k))
                 for i in range(k)]
    gens = g.generator_elements()
    action = doc.get("action")
    if not isinstance(action, list) or len(action) != len(gens):
        raise ValueError(f"\"action\" must list {len(gens)} action matrices "
                         "(one per group generator)")
    mats = []
    for mat in action:
        if (not isinstance(mat, list) or len(mat) != k
                or any(not isinstance(row, list) or len(row) != k for row in mat)):
            raise ValueError("action matrix is not k x k")
        mats.append(tuple(tuple(json_ints(row, "action")) for row in mat))
    declared = doc.get("generators")
    if declared is not None:
        labels = [g.label(e) for e in gens]
        if json_ints(declared, "generators") != labels:
            raise ValueError(f"declared generators {declared} do not match "
                             f"the group's generator labels {labels}")
    mod = FiniteGModule(g, k, relations, mats)
    return mod, str(doc.get("provenance", ""))


def shipped_classgroup(name="cl_q_zeta23"):
    """A class-group document bundled with the package, by stem name."""
    from importlib import resources
    ref = resources.files(__package__).joinpath("data", f"{name}.json")
    with resources.as_file(ref) as path:
        return load_classgroup(path)


_CHECKS = {
    "STICK_IDENT": check_stick_ident,
    "RZERO": check_rzero,
    "INDF": check_indf,
    "STARK_RAT": check_stark_rat,
    "QNAT": check_qnat,
    "JREL": check_jrel,
    "BCH": check_bch,
    "STARKC": check_starkc,
    "CLCONT": check_clcont,
    "CG_FIT": check_cg_fit,
    "ACNF": check_acnf,
}

CHECK_IDS = tuple(sorted(_CHECKS))
_SHARED = []  # the J memo of the run_checks call in progress, read by j_ideal


def run_checks(runs, ctx):
    """[run_check(check_id, params, ctx) for (check_id, params) in runs]: on
    the builtin units, j_ideal builds the J of each (model, S, ctx) once."""
    _SHARED.append({})
    try:
        return [run_check(check_id, params, ctx) for check_id, params in runs]
    finally:
        _SHARED.pop()


def run_check(check_id, params, ctx):
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    try:
        return _CHECKS[check_id](params, ctx)
    except (ValueError, ArithmeticError) as exc:
        return CheckReport(check_id, "error", {"message": str(exc)},
                           _ctx_stamp(ctx, **{k: v for k, v in params.items()
                                              if isinstance(v, (int, str))}))
