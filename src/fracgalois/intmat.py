"""Exact integer / rational matrix routines.

Everything here is over Z or Q (``fractions.Fraction``), no floats. A
lattice is given by a list of generator columns (lists or tuples of equal
length): `column_echelon`, `hnf_columns`, `hnf_mod`, `hnf_dual`,
`kernel_basis`, `span_contains` and `span_equal` take that list, never a
matrix. Matrix algebra (`mat_transpose`, `smith_normal_form`) works on
row-major lists of lists. The column Hermite normal form is the
canonicalizer for lattices: upper triangular, positive pivots, entries to
the right of a pivot reduced into [0, pivot). `hnf_dual` takes duals for
the dot product; the one other solve is a triangular back-substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def column_echelon(a_cols, d=0, n=None):
    """Bring a copy of the integer columns ``a_cols`` to echelon form.

    Returns (pivot_cols, pivot_rows) where pivot_cols are the nonzero echelon
    columns ordered by increasing pivot row and pivot_rows the corresponding
    rows. Works bottom-up: a column waits in the bucket of its last nonzero
    row, so row i reduces only bucket i (in index order, walking the nonzero
    entries of the pivot) and moves a column it zeroes at row i to the bucket
    of its next nonzero row, dropping it if there is none.

    A modulus d > 0 echelons span(a_cols) + d Z^n instead (n rows; a_cols
    may be empty), every column reduced mod d when it is filed. Row i then
    also holds d e_i: with c the column its Euclid leaves, a = c_i and
    g = gcd(a, d), the pivot is p = u c mod d with u a = g mod d, and
    c - (a/g) p and (d/g) p, zero at row i mod d, are filed again; an empty
    row takes d e_i. Every row gets a pivot, and it divides d. This is
    Cohen's Alg. 2.4.8 without its step R <- R/g, which needs d to be the
    determinant."""
    cols = [list(col) for col in a_cols]
    n = len(cols[0]) if cols else n or 0
    buckets = [[] for _ in range(n)]

    def file(j, top):  # at the last nonzero row of column j above row `top`
        cj = cols[j]
        if d:
            cols[j] = cj = [x % d for x in cj]
        for r in range(top - 1, -1, -1):
            if cj[r]:
                buckets[r].append(j)
                return

    for j in range(len(cols)):
        file(j, n)
    pivot_cols, pivot_rows = [], []
    for i in range(n - 1, -1, -1):
        live = sorted(buckets[i])
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][i]))
            c0 = cols[live[0]]
            piv = c0[i]
            nonzero = [(r, x) for r, x in zip(range(i + 1), c0) if x]
            kept = live[:1]
            for j in live[1:]:
                cj = cols[j]
                q = cj[i] // piv
                for r, x in nonzero:
                    cj[r] -= q * x
                if cj[i]:
                    kept.append(j)
                else:
                    file(j, i)
            live = kept
        if d and live:
            c0 = [x % d for x in cols[live[0]]]
            a = c0[i]
            g = gcd(a, d)
            p = c0
            if a > g:
                p = [pow(a // g, -1, d // g) * x % d for x in c0]
                cols.append([x - a // g * y for x, y in zip(c0, p)])
                file(len(cols) - 1, i)
            if g > 1:
                cols.append([d // g * y for y in p])
                file(len(cols) - 1, i)
        elif d:
            p = [d if r == i else 0 for r in range(n)]
        elif live:
            c0 = cols[live[0]]
            p = [-x for x in c0] if c0[i] < 0 else c0
        else:
            continue
        pivot_cols.append(p)
        pivot_rows.append(i)
    return pivot_cols[::-1], pivot_rows[::-1]


def hnf_columns(a_cols):
    """Canonical column HNF of the integer span of the columns ``a_cols``.

    Returns (cols, pivot_rows): echelon columns by increasing pivot row with
    positive pivots and, for each pivot, the entries of that row in all later
    columns reduced into [0, pivot). This is a unique representative of the
    span, so equal spans give bitwise-equal output.
    """
    return _reduce_right_of_pivots(*column_echelon(a_cols))


def hnf_mod(cols, d, n):
    """The n columns of the canonical column HNF of span(cols) + d Z^n, for
    d > 0: `hnf_columns(cols + d I)[0]`, from an elimination whose entries
    stay below d (`column_echelon` with the modulus d)."""
    return _reduce_right_of_pivots(*column_echelon(cols, d, n))[0]


def hnf_dual(cols, d):
    """The n columns of the canonical column HNF of d L^*, for the HNF basis
    `cols` of a full-rank lattice L in Z^n that contains d Z^n, and L^* = {y :
    y . x in Z for all x in L} its dual: the rows of d H^-1, H the matrix of
    `cols`, are integral since d Z^n lies in L, and d L^* contains d Z^n, so
    `hnf_mod` makes them canonical."""
    n = range(len(cols))
    rows = zip(*(solve_upper_triangular(cols, n, [d * (i == j) for i in n]) for j in n))
    return hnf_mod(rows, d, len(cols))


def _reduce_right_of_pivots(cols, pivot_rows):
    for t in range(len(cols) - 1, -1, -1):  # descending pivot rows keep earlier work intact
        p, ct = pivot_rows[t], cols[t]
        piv = ct[p]
        todo = [cj for cj in cols[t + 1:] if not 0 <= cj[p] < piv]
        if todo:
            nonzero = [(r, x) for r, x in zip(range(p + 1), ct) if x]
            for cj in todo:
                q = cj[p] // piv
                for r, x in nonzero:
                    cj[r] -= q * x
    return cols, pivot_rows


def kernel_basis(a_cols):
    """Integer basis of {x : sum_j x_j a_cols[j] = 0}, as columns in
    canonical HNF.

    The columns (e_j, a_cols[j]) span a lattice whose echelon columns with a
    pivot among the first m = len(a_cols) rows vanish below them: their top
    m entries are the kernel's HNF basis.
    """
    m = len(a_cols)
    cols, pivot_rows = hnf_columns([[1 if i == j else 0 for i in range(m)] + list(col)
                                    for j, col in enumerate(a_cols)])
    return [col[:m] for col, p in zip(cols, pivot_rows) if p < m]


def span_contains(a_cols, v):
    """Is integer vector v in the Z-span of the integer columns a_cols?"""
    y = solve_upper_triangular(*hnf_columns(a_cols), v)
    return y is not None and all(x.denominator == 1 for x in y)


def span_equal(a_cols, b_cols):
    """Do two lists of integer columns span the same lattice?"""
    return hnf_columns(a_cols) == hnf_columns(b_cols)


def smith_normal_form(a):
    """U, D, V with U a V = D diagonal, d_i | d_{i+1}, U and V unimodular."""
    n = len(a)
    m = len(a[0]) if a else 0
    d = [row[:] for row in a]
    u = identity_matrix(n)
    v = identity_matrix(m)

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(m):
            d[i][t] -= q * d[j][t]
        for t in range(n):
            u[i][t] -= q * u[j][t]

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(n):
            d[t][i] -= q * d[t][j]
        for t in range(m):
            v[t][i] -= q * v[t][j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for t in range(n):
            d[t][i], d[t][j] = d[t][j], d[t][i]
        for t in range(m):
            v[t][i], v[t][j] = v[t][j], v[t][i]

    t = 0
    while t < min(n, m):
        # locate a minimal nonzero entry in the trailing block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t]:  # nonzero remainder becomes the new, smaller pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # divisibility fix: pivot must divide the whole trailing block
        fixed = True
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if d[i][j] % d[t][t]:
                    row_op(t, i, -1)  # add row i to row t, then redo elimination
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if d[t][t] < 0:
            for j in range(m):
                d[t][j] = -d[t][j]
            for j in range(n):
                u[t][j] = -u[t][j]
        t += 1
    return u, d, v


def solve_upper_triangular(cols, pivot_rows, v):
    """Solve H y = v for the columns H of any column echelon form (as from
    `hnf_columns`: square or not, pivot rows may skip rows); v may be
    rational.  Returns y, whose entries are ints where integral and
    Fractions otherwise, or None when v is outside the rational span."""
    w = list(v)
    y = [0] * len(cols)
    for t in range(len(cols) - 1, -1, -1):
        p, col = pivot_rows[t], cols[t]
        if w[p]:
            q, rem = divmod(w[p], col[p])
            if rem:
                q = Fraction(w[p], col[p])
            y[t] = q
            for rr, x in zip(range(p + 1), col):
                if x:
                    w[rr] -= q * x
    if any(w):
        return None
    return y


def content(values):
    """gcd of an iterable of integers (0 for empty/all-zero)."""
    g = 0
    for x in values:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g
