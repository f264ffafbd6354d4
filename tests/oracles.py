"""Helpers that only tests call: a character moved through a group
isomorphism, membership in a rank-deficient Z-span of group-ring elements,
and the Stickelberger element assembled from L-values character by
character."""

from fracgalois import intmat
from fracgalois.gring import Character, _clear_denominators, assemble, characters
from fracgalois.lfun import l_value_at_0


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


def stickelberger_via_characters(model, pset):
    """theta_S assembled from exact L-values (slow cross-check route)."""
    vals = {}
    for chi in characters(model.group):
        vals[chi] = l_value_at_0(model, pset, chi.conj())
    return assemble(model.group, vals)
