"""Helpers that only tests call: a character moved through a group
isomorphism, membership in a rank-deficient Z-span of group-ring elements,
the Stickelberger element assembled from L-values character by character,
a dense column echelon form with its HNF and kernel, a numeric character
value read per call, log Gamma with a floored Horner multiplier, and the
primitive L-derivative that always embeds B_{1,chi}."""

from fractions import Fraction
from math import ceil, prod

import mpmath as mp

from fracgalois import intmat
from fracgalois.cyclo import (_half_log_2pi, _root_table, _stirling_coeffs,
                              hurwitz_zeta_at0)
from fracgalois.gring import Character, _clear_denominators, assemble, characters
from fracgalois.lfun import _b1_sum, l_value_at_0, primitive_table


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


def dense_column_echelon(a_cols):
    """`intmat.column_echelon` by a scan of every active column at each row
    and dense row operations: the same pivot choice, tie order and output."""
    cols = [list(col) for col in a_cols]
    n = len(cols[0]) if cols else 0
    active = list(range(len(cols)))
    parked = []  # (pivot_row, col_index)
    for i in range(n - 1, -1, -1):
        live = [j for j in active if cols[j][i] != 0]
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][i]))
            j0 = live[0]
            piv = cols[j0][i]
            for j in live[1:]:
                q = cols[j][i] // piv
                if q:
                    cj, c0 = cols[j], cols[j0]
                    for r in range(i + 1):  # rows > i are already zero
                        cj[r] -= q * c0[r]
            live = [j for j in live if cols[j][i] != 0]
        if live:
            j0 = live[0]
            if cols[j0][i] < 0:
                cols[j0] = [-x for x in cols[j0]]
            parked.append((i, j0))
            active.remove(j0)
    parked.sort()
    return [cols[j] for _, j in parked], [p for p, _ in parked]


def dense_hnf_columns(a_cols):
    """`intmat.hnf_columns` on top of `dense_column_echelon`, with dense
    row operations."""
    cols, pivot_rows = dense_column_echelon(a_cols)
    r = len(cols)
    for t in range(r - 1, -1, -1):
        p = pivot_rows[t]
        piv = cols[t][p]
        for j in range(t + 1, r):
            q = cols[j][p] // piv
            if q:
                cj, ct = cols[j], cols[t]
                for rr in range(p + 1):
                    cj[rr] -= q * ct[rr]
    return cols, pivot_rows


def dense_kernel_basis(a_cols):
    """`intmat.kernel_basis` on top of `dense_hnf_columns`."""
    m = len(a_cols)
    cols, pivot_rows = dense_hnf_columns(
        [[1 if i == j else 0 for i in range(m)] + list(col) for j, col in enumerate(a_cols)])
    return [col[:m] for col, p in zip(cols, pivot_rows) if p < m]


def char_value_numeric(chi, elem, ctx):
    """chi(elem) as a complex number, one guarded table read per call."""
    with ctx.guard():
        return _root_table(chi.group.exponent, mp.mp.prec)[chi.exp_at(elem)]


def log_gamma_floored_w(x, prec):
    """`cyclo._log_gamma_guarded` with the Stirling tail summed by Horner in
    the W-bit multiplier w = floor(F^2 2^W / A^2), off by at most 2J + 1
    units of 2^-W."""
    W, z0, coeffs = _stirling_coeffs(prec)
    with mp.workprec(prec):
        n_shift = max(0, ceil(z0 - x))
        a, F = x.numerator, x.denominator
        A = a + n_shift * F
        z = mp.mpf(a) / F + n_shift
        val = (z - mp.mpf(1) / 2) * mp.log(z) - z + _half_log_2pi(prec)
        w, acc = (F * F << W) // (A * A), 0
        for c in reversed(coeffs):
            acc = c + (acc * w >> W)
        val += mp.ldexp(acc * F // A, -W)
        shift = prod(range(a, A, F))
        return val - mp.log(mp.mpf(shift) / F ** n_shift)


def l_deriv_primitive_with_b1(model, chi, ctx):
    """`lfun.l_deriv_primitive` that embeds log(f0) B_{1,chi_0} also for an
    even chi, where B_{1,chi_0} = 0."""
    f0, table, e = primitive_table(model, chi)
    b1 = _b1_sum(f0, table, e)
    with ctx.guard():
        roots = _root_table(e, mp.mp.prec)
        total = mp.log(f0) * b1.embed(1)
        for b, k in table.items():
            total += roots[k] * hurwitz_zeta_at0(Fraction(b, f0), 1, ctx)
    return ctx.final(total)
