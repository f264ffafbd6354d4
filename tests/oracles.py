"""Helpers that only tests call: a character moved through a group
isomorphism, membership in a rank-deficient Z-span of group-ring elements,
the Stickelberger element assembled from L-values character by character,
and a dense column echelon form with its HNF and kernel."""

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
