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

from .cyclo import _root_table, factorize
from .fields import (RelativeModel, make_field, place_set, plus_field,
                     full_cyclotomic, relative_model, relative_place_set,
                     torsion_order)
from .gring import (FiniteGModule, GroupHom, GroupRingElement, IdealLattice,
                    _clear_denominators, _orbit_vectors, _perm_table,
                    characters, gmodule_span_equal, gre_inverse,
                    hom_by_residues, norm_element)
from .lfun import (_proj_g_to_h, half_stickelberger, l_deriv_at_0,
                   l_deriv_primitive, partial_zeta_all, stickelberger,
                   stickelberger_classical, vanishing_order)
from .units import (conjugate_logs, json_object, quotient_module,
                    stark_module, stark_residuals, stark_unit, sunit_group)


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


def _default_pset(model):
    if isinstance(model, RelativeModel):
        return relative_place_set(model)
    (p, _), = factorize(model.f)
    return place_set(model, (p,))


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


def j_full_cyclotomic(p, n, ctx, units=None):
    """J for Q(zeta_{p^n})/Q with S = {infinity, p}: the Z[G]-span of
    { alpha e+/2 + theta : alpha in ann(U/E) }, E = Z[G](1 - zeta). The
    alpha e+/2 over a Z-basis of the ideal ann(U/E) already span a
    Z[G]-module, so only theta is closed under G."""
    model = full_cyclotomic(p ** n)
    pset = place_set(model, (p,))
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


def j_base_case(which, ctx):
    """J_{K/K, S_inf} = Z * zeta*_K(0)/R_K, compared with -h/#mu(K)."""
    with ctx.guard():
        if which == "Q":
            gen = mp.zeta(0)
            reg = mp.mpf(1)
            h, w = 1, 2
        elif which == "Qsqrt5":
            model = plus_field(5)
            chi = next(c for c in characters(model.group) if not c.is_trivial())
            lder = l_deriv_primitive(model, chi, ctx)
            gen = mp.zeta(0) * lder
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

def _log_eps_element(model, pset, ctx):
    """-sum_sigma log||eps||_{sigma w0} sigma as a numeric coefficient dict;
    the Q[G]-eigenvalue element of lambda o f0^{-1} on the rank-1 lattice X."""
    logs = conjugate_logs(stark_unit(model.f), pset, ctx)
    with ctx.guard():
        return {sigma: -lw for sigma, lw in logs.items()}


def i_f_and_regulator(model, pset, twist, ctx, units=None, twist_inv=None):
    """Exact I^f = det(u)^{-1} ann(U/E) for f = u o f0, plus the numeric
    Stark regulator values A_chi = chi(u) chi(R) / L'_S(0, chi), where
    R = -sum_sigma log||eps||_{sigma w0} sigma and chi(x) =
    sum_sigma x_sigma chi(sigma) is the eigenvalue of x on the chi-part
    (chi unconjugated, for R and the twist alike).  Their exact fold returns
    J independent of the twist (inverted here unless twist_inv is given).
    Returns (I^f lattice, {chi index: A_chi}, J)."""
    _require_rank_one(model, pset)
    g = model.group
    if twist_inv is None:
        twist_inv = gre_inverse(twist)  # raises on a non-invertible twist
    _, m = _unit_quotient(model, pset, ctx, units)
    i_f = m.annihilator().divide(twist, twist_inv)
    e = torsion_order(model)

    logs = _log_eps_element(model, pset, ctx)
    zcache = partial_zeta_all(model, pset, 1, ctx)
    reg = {}
    with ctx.guard():
        roots = _root_table(g.exponent, mp.mp.prec)  # chi(sigma) = roots[exp]
        for idx, chi in enumerate(characters(g)):
            num = mp.mpc(0)
            for sigma, lv in logs.items():
                num += roots[chi.exp_at(sigma)] * lv
            lstar = l_deriv_at_0(model, pset, chi, ctx, _zcache=zcache)
            tv = mp.mpc(0)
            for sigma in g.elements:
                cf = twist.coeff(sigma)
                if cf:
                    tv += ctx.mpf(cf) * roots[chi.exp_at(sigma)]
            reg[idx] = ctx.final(tv * num / lstar)
    j = i_f.scale(twist).scale(Fraction(1, e))
    return i_f, reg, j


# ---------------------------------------------------------------------------
# subgroup embeddings used by the relative checks

def _iso_h_to_plus(h_group, plus_group):
    """Restriction H -> G+ (residue mod f, folded by +-1); bijective here."""
    mapping = {e: plus_group.element_of_residue(h_group.label(e))
               for e in h_group.elements}
    iso = GroupHom(h_group, plus_group, mapping)
    if not (iso.injective and iso.surjective):
        raise ValueError(f"restriction of H to the plus group mod {h_group.f} "
                         "is not bijective")
    return iso


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
    model = full_cyclotomic(f)
    primes = tuple(p for p, _ in factorize(f))
    pset = place_set(model, primes)
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


def _j_for(params, ctx):
    """Dispatch a J computation from check parameters (p, n, subfield)."""
    p = int(params["p"])
    n = int(params.get("n", 1))
    sub = params.get("subfield", "plus")
    if sub == "plus":
        model = plus_field(p ** n)
        pset = _default_pset(model)
        return j_via_theorem(model, pset, ctx), model, pset
    if sub == "full":
        res = j_full_cyclotomic(p, n, ctx)
        return res, res.model, place_set(res.model, (p,))
    if sub == "relative":
        model = relative_model(p, n)
        pset = relative_place_set(model)
        return j_via_theorem(model, pset, ctx), model, pset
    raise ValueError(f"unknown subfield selector {sub!r}")


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
    res, model, pset = _j_for(params, ctx)
    g = model.group
    theta = stickelberger(model, pset)
    e0 = rzero_idempotent(g, pset)
    theta_in = res.ideal.contains_element(theta)
    lhs = [e0 * b for b in res.ideal.basis_elements()]
    spans_ok = gmodule_span_equal(lhs, [theta], g)
    ok = theta_in and spans_ok
    wit = {}
    if not ok:
        wit = {"theta_in_j": theta_in, "e0_j_equals_ztheta": spans_ok,
               "theta": _gre_jsonable(theta), "e0": _gre_jsonable(e0)}
    return CheckReport("RZERO", "pass" if ok else "fail", wit,
                       _ctx_stamp(ctx, **params))


def check_indf(params, ctx):
    p = int(params["p"])
    n = int(params.get("n", 1))
    seed = int(params.get("seed", 0))
    count = int(params.get("count", 5))
    model = plus_field(p ** n)
    pset = _default_pset(model)
    base = j_via_theorem(model, pset, ctx)
    g = model.group
    rng = random.Random(seed)
    u = sunit_group(model, pset, ctx)
    twists = []
    while len(twists) < count:
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(g.order)]
        cand = GroupRingElement(g, coeffs)
        try:
            twists.append((cand, gre_inverse(cand)))
        except (ValueError, ZeroDivisionError):
            continue
    for i, (tw, tw_inv) in enumerate(twists):
        _, _, j_tw = i_f_and_regulator(model, pset, tw, ctx, units=u, twist_inv=tw_inv)
        if j_tw != base.ideal:
            return CheckReport(
                "INDF", "fail",
                {"twist_index": i, "twist": _gre_jsonable(tw),
                 "expected": base.ideal.to_jsonable(),
                 "got": j_tw.to_jsonable()},
                _ctx_stamp(ctx, p=p, n=n, seed=seed))
    return CheckReport("INDF", "pass", {"twists": count},
                       _ctx_stamp(ctx, p=p, n=n, seed=seed))


def check_stark_rat(params, ctx):
    p = int(params["p"])
    n = int(params.get("n", 1))
    model = plus_field(p ** n)
    pset = _default_pset(model)
    one = GroupRingElement.one(model.group)
    _, reg, _ = i_f_and_regulator(model, pset, one, ctx)
    e = torsion_order(model)
    with ctx.guard():
        worst = max(abs(v - e) for v in reg.values())
    worst = ctx.final(worst)
    ok = worst < ctx.tol
    return CheckReport("STARK_RAT", "pass" if ok else "fail",
                       {"e": e, "max_residual": mp.nstr(worst, 12),
                        "per_character": {str(k): mp.nstr(v, 12)
                                          for k, v in reg.items()}},
                       _ctx_stamp(ctx, p=p, n=n))


def check_qnat(params, ctx):
    p = int(params["p"])
    n = int(params.get("n", 1))
    full_res = j_full_cyclotomic(p, n, ctx)
    model_plus = plus_field(p ** n)
    plus_res = j_via_theorem(model_plus, _default_pset(model_plus), ctx)
    pi = hom_by_residues(full_res.model.group, model_plus.group)
    projected = full_res.ideal.project(pi)
    ok = projected == plus_res.ideal
    wit = {"projected": projected.to_jsonable(),
           "j_plus": plus_res.ideal.to_jsonable()}
    if not ok:
        for b in projected.basis_elements():
            if not plus_res.ideal.contains_element(b):
                wit["witness_element"] = _gre_jsonable(b)
                wit["witness_side"] = "in projection, not in J_plus"
                break
        else:
            for b in plus_res.ideal.basis_elements():
                if not projected.contains_element(b):
                    wit["witness_element"] = _gre_jsonable(b)
                    wit["witness_side"] = "in J_plus, not in projection"
                    break
    return CheckReport("QNAT", "pass" if ok else "fail", wit,
                       _ctx_stamp(ctx, p=p, n=n))


def check_jrel(params, ctx):
    p = int(params["p"])
    n = int(params.get("n", 1))
    rel = relative_model(p, n)
    rel_res = j_via_theorem(rel, relative_place_set(rel), ctx)
    h = rel.group

    model_plus = plus_field(p ** n)
    plus_res = j_via_theorem(model_plus, _default_pset(model_plus), ctx)
    # on the theorem route ann(U/E) = e J exactly
    ann_plus = plus_res.ideal.scale(torsion_order(model_plus))

    iso = _iso_h_to_plus(h, model_plus.group)
    back = GroupHom(model_plus.group, h,
                    {iso(e): e for e in h.elements})
    tt = half_stickelberger(rel)
    e = torsion_order(rel)

    j_plus_in_h = plus_res.ideal.project(back)
    eq1 = rel_res.ideal == j_plus_in_h.scale(tt * 2)

    ann_rel = rel_res.ideal.scale(e)
    ann_plus_in_h = ann_plus.project(back)
    eq2 = ann_rel == ann_plus_in_h.scale(tt * e)

    ok = eq1 and eq2
    wit = {"eq1": eq1, "eq2": eq2}
    if not ok:
        wit.update({"j_rel": rel_res.ideal.to_jsonable(),
                    "two_tt_j_plus": j_plus_in_h.scale(tt * 2).to_jsonable(),
                    "ann_rel": ann_rel.to_jsonable(),
                    "e_tt_ann_plus": ann_plus_in_h.scale(tt * e).to_jsonable()})
    return CheckReport("JREL", "pass" if ok else "fail", wit,
                       _ctx_stamp(ctx, p=p, n=n))


def bch_projection(rel, full_res):
    """pi_H(beta0 J) for the full route's J of Q(zeta_f), beta0 = theta~ (1 + c)
    with theta~ carried into Q[G]: pi_H is a ring map that fixes H and sends c
    to 1, so this is 2 theta~ pi_H(J), a product over H per basis column."""
    pi_h = _proj_g_to_h(full_res.model.group, rel.group, rel.f)
    return full_res.ideal.project(pi_h).scale(half_stickelberger(rel) * 2)


def check_bch(params, ctx):
    p = int(params["p"])
    n = int(params.get("n", 1))
    rel = relative_model(p, n)
    rel_res = j_via_theorem(rel, relative_place_set(rel), ctx)
    rhs = bch_projection(rel, j_full_cyclotomic(p, n, ctx))
    ok = rhs == rel_res.ideal
    wit = {}
    if not ok:
        wit = {"j_rel": rel_res.ideal.to_jsonable(),
               "projected": rhs.to_jsonable()}
    return CheckReport("BCH", "pass" if ok else "fail", wit,
                       _ctx_stamp(ctx, p=p, n=n))


def check_starkc(params, ctx):
    p = int(params["p"])
    n = int(params.get("n", 1))
    sub = params.get("subfield", "plus")
    if sub == "relative":
        model = relative_model(p, n)
        pset = relative_place_set(model)
    elif sub == "plus":
        model = plus_field(p ** n)
        pset = _default_pset(model)
    else:
        raise ValueError("STARKC runs on the plus or relative instance")
    residuals, worst = stark_residuals(model, pset, ctx)
    ok = worst < ctx.tol
    return CheckReport("STARKC", "pass" if ok else "fail",
                       {"max_residual": mp.nstr(worst, 12),
                        "per_sigma": {str(k): mp.nstr(v, 12)
                                      for k, v in residuals.items()}},
                       _ctx_stamp(ctx, p=p, n=n, subfield=sub))


def _mu_ell_annihilator(model, ell):
    """ann_{Z[G]}(ell-part of mu_K) as an IdealLattice (unit ideal if trivial)."""
    g = model.group
    e = torsion_order(model)
    v = 0
    while e % ell == 0:
        e //= ell
        v += 1
    if v == 0:
        return IdealLattice.unit_ideal(g)
    lv = ell ** v
    mats = []
    for gen in g.generator_elements():
        a = g.label(gen)
        mats.append(((a % lv,),))
    mod = FiniteGModule(g, 1, [(lv,)], mats)
    return mod.annihilator()


def check_clcont(params, ctx):
    p = int(params["p"])
    n = int(params.get("n", 1))
    ell = int(params["ell"])
    sub = params.get("subfield", "plus")
    clmod = params.get("classgroup")
    if ell == 2 or ell < 2:
        raise ValueError("CLCONT needs an odd prime ell")
    assumptions = []
    if sub == "plus":
        model = plus_field(p ** n)
        res = j_via_theorem(model, _default_pset(model), ctx)
        lhs = res.ideal
        assumptions.extend(res.assumptions)
    elif sub == "full":
        res = j_full_cyclotomic(p, n, ctx)
        model = res.model
        lhs = _mu_ell_annihilator(model, ell).multiply(res.ideal)
        assumptions.extend(res.assumptions)
    else:
        raise ValueError("CLCONT runs on plus or full subfields")
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
    p = int(params["p"])
    n = int(params.get("n", 1))
    ell = int(params["ell"])
    clmod = params.get("classgroup")
    if ell == 2 or ell < 2:
        raise ValueError("CG_FIT needs an odd prime ell")
    model = plus_field(p ** n)
    pset = _default_pset(model)
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
    if int(doc.get("format", 0)) != 1:
        raise ValueError("unsupported class-group file format")
    fd = json_object(doc, "field")
    model = make_field(int(fd["f"]),
                       frozenset(int(a) for a in fd.get("kernel", [1])))
    g = model.group
    factors = doc.get("invariant_factors")
    if not isinstance(factors, list):
        raise ValueError("\"invariant_factors\" must be a list of positive integers")
    factors = [int(d) for d in factors]
    if any(d < 1 for d in factors):
        raise ValueError("invariant factors must be positive integers")
    k = len(factors)
    relations = [tuple(factors[i] if j == i else 0 for j in range(k))
                 for i in range(k)]
    gens = g.generator_elements()
    action = doc["action"]
    if not isinstance(action, list) or len(action) != len(gens):
        raise ValueError(f"\"action\" must list {len(gens)} action matrices "
                         "(one per group generator)")
    mats = []
    for mat in action:
        if (not isinstance(mat, list) or len(mat) != k
                or any(not isinstance(row, list) or len(row) != k for row in mat)):
            raise ValueError("action matrix is not k x k")
        mats.append(tuple(tuple(int(x) for x in row) for row in mat))
    declared = doc.get("generators")
    if declared is not None:
        labels = [g.label(e) for e in gens]
        if [int(x) for x in declared] != labels:
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


def run_check(check_id, params, ctx):
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    try:
        return _CHECKS[check_id](params, ctx)
    except (ValueError, ZeroDivisionError) as exc:
        return CheckReport(check_id, "error", {"message": str(exc)},
                           _ctx_stamp(ctx, **{k: v for k, v in params.items()
                                              if isinstance(v, (int, str))}))
