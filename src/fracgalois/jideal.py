"""The fractional ideal J of a (K, S) pair inside Q[G], by three routes:

* theorem route  -- J = (1/e) ann(U/E) when every L-function vanishes to
  order exactly 1 at s = 0 (plus fields, and the relative CM case);
* full-cyclotomic route -- J generated by {alpha e+/2 + theta} with alpha
  running over ann(U / <1 - zeta>);
* base case (no Galois action) -- the rational generator zeta*_K(0)/R_K.

run_check exposes the named structural identities with exact witnesses.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .cyclo import PrecisionContext, factorize
from .fields import (FieldModel, PlaceSet, RelativeModel, make_field,
                     place_set, plus_field, full_cyclotomic, relative_model,
                     relative_place_set)
from .gring import (Character, FiniteGModule, GroupHom, GroupRingElement,
                    IdealLattice, assemble, characters, gmodule_span_equal,
                    gre_inverse, hom_by_residues, norm_element)
from .lfun import (half_stickelberger, l_deriv_at_0, partial_zeta_all,
                   l_deriv_primitive, stickelberger, stickelberger_classical,
                   vanishing_order)
from .units import (UnitLattice, conjugate_logs, quotient_module,
                    stark_module, stark_residuals, stark_unit, sunit_group)


@dataclass
class JResult:
    route: str
    model: object
    ideal: IdealLattice | None
    numeric: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    assumptions: tuple = ()


@dataclass
class CheckReport:
    check: str
    status: str              # pass / fail / error
    witnesses: dict
    context: dict

    @property
    def passed(self):
        return self.status == "pass"

    def to_jsonable(self):
        return {"check": self.check, "status": self.status,
                "witnesses": self.witnesses, "context": self.context}


def torsion_order(model):
    """e = number of roots of unity: 2 for a real field, else 2 * conductor."""
    if isinstance(model, RelativeModel):
        return 2 * model.f
    return 2 if model.totally_real else 2 * model.f


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

def j_via_theorem(model, pset, ctx, provider="builtin_hplus1", units=None):
    """J = (1/e) ann_{Z[G]}(U/E) under the all-orders-one hypothesis."""
    _require_rank_one(model, pset)
    u = units if units is not None else sunit_group(model, pset, ctx, provider)
    e_mod = stark_module(model, pset, ctx)
    m = quotient_module(u, e_mod, ctx)
    ann = m.annihilator()
    e = torsion_order(model)
    ideal = ann.scale(Fraction(1, e))
    return JResult("theorem_j", model, ideal,
                   details={"quotient_order": m.order(),
                            "quotient_structure": list(m.structure()),
                            "e": e},
                   assumptions=u.assumptions)


def j_full_cyclotomic(p, n, ctx, provider="builtin_hplus1", units=None):
    """J for Q(zeta_{p^n})/Q with S = {infinity, p}: the Z[G]-span of
    { alpha e+/2 + theta : alpha in ann(U/E) }, E = Z[G](1 - zeta)."""
    model = full_cyclotomic(p ** n)
    pset = place_set(model, (p,))
    u = units if units is not None else sunit_group(model, pset, ctx, provider)
    e_mod = stark_module(model, pset, ctx)
    m = quotient_module(u, e_mod, ctx)
    ann = m.annihilator()
    g = model.group
    c = model.conjugation()
    eplus = (GroupRingElement.one(g) + GroupRingElement.basis(g, c)) * Fraction(1, 2)
    theta = stickelberger(model, pset)
    gens = [theta]
    for a in ann.basis_elements():
        gens.append(a * eplus * Fraction(1, 2))
    ideal = IdealLattice.from_generators(g, gens)
    return JResult("full_cyclotomic", model, ideal,
                   details={"quotient_order": m.order(),
                            "quotient_structure": list(m.structure()),
                            "e": torsion_order(model)},
                   assumptions=u.assumptions)


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


def _char_value_numeric(chi, elem, ctx):
    """chi(elem) as a complex number."""
    with ctx.guard():
        return mp.expjpi(mp.mpf(2 * chi.exp_at(elem)) / chi.group.exponent)


def i_f_and_regulator(model, pset, twist, ctx, provider="builtin_hplus1",
                      units=None):
    """Exact I^f = det(u)^{-1} ann(U/E) for f = u o f0, plus the numeric
    Stark regulator values A_chi = chi(u) chi(R) / L'_S(0, chi), where
    R = -sum_sigma log||eps||_{sigma w0} sigma and chi(x) =
    sum_sigma x_sigma chi(sigma) is the eigenvalue of x on the chi-part
    (chi unconjugated, for R and the twist alike).  Their exact fold returns
    J independent of the twist.  Returns (I^f lattice, {chi index: A_chi}, J)."""
    _require_rank_one(model, pset)
    g = model.group
    u_inv = gre_inverse(twist)  # raises on a non-invertible twist
    uu = units if units is not None else sunit_group(model, pset, ctx, provider)
    e_mod = stark_module(model, pset, ctx)
    ann = quotient_module(uu, e_mod, ctx).annihilator()
    i_f = ann.scale(u_inv)
    e = torsion_order(model)

    logs = _log_eps_element(model, pset, ctx)
    zcache = partial_zeta_all(model, pset, 1, ctx)
    reg = {}
    with ctx.guard():
        for idx, chi in enumerate(characters(g)):
            num = mp.mpc(0)
            for sigma, lv in logs.items():
                num += _char_value_numeric(chi, sigma, ctx) * lv
            lstar = l_deriv_at_0(model, pset, chi, ctx, _zcache=zcache)
            tv = mp.mpc(0)
            for sigma in g.elements:
                cf = twist.coeff(sigma)
                if cf:
                    tv += ctx.mpf(cf) * _char_value_numeric(chi, sigma, ctx)
            reg[idx] = ctx.final(tv * num / lstar)
    j = i_f.scale(twist).scale(Fraction(1, e))
    return i_f, reg, j


# ---------------------------------------------------------------------------
# subgroup embeddings used by the relative checks

def _inject_gre(x, target_group):
    """Map an element of Q[H] into Q[G] along matching residue labels."""
    out = GroupRingElement.zero(target_group)
    src = x.group
    for elem in src.elements:
        c = x.coeff(elem)
        if c:
            t = target_group.element_of_residue(src.label(elem))
            out = out + GroupRingElement.basis(target_group, t) * c
    return out


def _iso_h_to_plus(h_group, plus_group):
    """Restriction H -> G+ (residue mod f, folded by +-1); bijective here."""
    mapping = {e: plus_group.element_of_residue(h_group.label(e))
               for e in h_group.elements}
    iso = GroupHom(h_group, plus_group, mapping)
    assert iso.injective and iso.surjective
    return iso


def _proj_g_to_h(g_group, h_group, f):
    """The projection G -> H along G = H x <c>: sigma_a -> sigma_{+-a in H}."""
    hres = {h_group.label(e) for e in h_group.elements}
    mapping = {}
    for e in g_group.elements:
        a = g_group.label(e)
        mapping[e] = h_group.element_of_residue(a if a in hres else (f - a) % f)
    hom = GroupHom(g_group, h_group, mapping)
    assert hom.surjective
    return hom


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


def check_rzero(params, ctx):
    res, model, pset = _j_for(params, ctx)
    g = model.group
    theta = stickelberger(model, pset)
    rmap = {chi: vanishing_order(model, pset, chi) for chi in characters(g)}
    e0 = assemble(g, {chi: Fraction(1 if r == 0 else 0) for chi, r in rmap.items()})
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
            gre_inverse(cand)
        except (ValueError, ZeroDivisionError):
            continue
        twists.append(cand)
    for i, tw in enumerate(twists):
        _, _, j_tw = i_f_and_regulator(model, pset, tw, ctx, units=u)
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
    rel_pset = relative_place_set(rel)
    rel_res = j_via_theorem(rel, rel_pset, ctx)
    h = rel.group

    model_plus = plus_field(p ** n)
    plus_pset = _default_pset(model_plus)
    plus_u = sunit_group(model_plus, plus_pset, ctx)
    plus_e = stark_module(model_plus, plus_pset, ctx)
    ann_plus = quotient_module(plus_u, plus_e, ctx).annihilator()
    plus_res = j_via_theorem(model_plus, plus_pset, ctx, units=plus_u)

    iso = _iso_h_to_plus(h, model_plus.group)
    back = GroupHom(model_plus.group, h,
                    {iso(e): e for e in h.elements})
    tt = half_stickelberger(rel)
    e = torsion_order(rel)

    j_plus_in_h = plus_res.ideal.project(back)
    eq1 = rel_res.ideal == j_plus_in_h.scale(tt * 2)

    rel_u = sunit_group(rel, rel_pset, ctx)
    rel_e = stark_module(rel, rel_pset, ctx)
    ann_rel = quotient_module(rel_u, rel_e, ctx).annihilator()
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


def check_bch(params, ctx):
    p = int(params["p"])
    n = int(params.get("n", 1))
    rel = relative_model(p, n)
    rel_res = j_via_theorem(rel, relative_place_set(rel), ctx)
    h = rel.group

    full_res = j_full_cyclotomic(p, n, ctx)
    g = full_res.model.group
    c = full_res.model.conjugation()
    beta0 = _inject_gre(half_stickelberger(rel), g) * (
        GroupRingElement.one(g) + GroupRingElement.basis(g, c))
    pi_h = _proj_g_to_h(g, h, rel.f)
    gens = [(beta0 * b).project(pi_h) for b in full_res.ideal.basis_elements()]
    rhs = IdealLattice.from_generators(h, gens, close_under_group=False)
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
    u = sunit_group(model, pset, ctx)
    e_mod = stark_module(model, pset, ctx)
    m_ell = quotient_module(u, e_mod, ctx).ell_part(ell)
    fitt_u = m_ell.fitting_ideal()
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
    if doc.get("kind") != "classgroup":
        raise ValueError("not a class-group file (kind != 'classgroup')")
    if int(doc.get("format", 0)) != 1:
        raise ValueError("unsupported class-group file format")
    fd = doc["field"]
    model = make_field(int(fd["f"]),
                       frozenset(int(a) for a in fd.get("kernel", [1])))
    g = model.group
    factors = [int(d) for d in doc["invariant_factors"]]
    if any(d < 1 for d in factors):
        raise ValueError("invariant factors must be positive integers")
    k = len(factors)
    relations = [tuple(factors[i] if j == i else 0 for j in range(k))
                 for i in range(k)]
    gens = g.generator_elements()
    action = doc["action"]
    if len(action) != len(gens):
        raise ValueError(f"need {len(gens)} action matrices "
                         f"(one per group generator), got {len(action)}")
    mats = []
    for mat in action:
        if len(mat) != k or any(len(row) != k for row in mat):
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
