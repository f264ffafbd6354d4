"""Exact integer linear algebra: canonical forms, kernels, determinants."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from fracgalois.intmat import (_reduce_right_of_pivots, column_echelon, content,
                               echelon_steps, hnf_columns, hnf_kernel_mod, hnf_mod,
                               identity_matrix, kernel_basis, mat_transpose,
                               hnf_dual, smith_normal_form,
                               solve_upper_triangular, span_contains,
                               span_equal)
from fracgalois.gring import (FiniteGModule, GroupRingElement, IdealLattice,
                              abelian_group)
from oracles import (dense_column_echelon, dense_hnf_columns, dense_kernel_basis,
                     dense_solve_upper_triangular, mat_mul, solve_fraction_free)


def random_unimodular(rng, n):
    """Product of random elementary shears and swaps: det = +/-1."""
    m = identity_matrix(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        for t in range(n):
            m[t][i] += q * m[t][j]
    rng.shuffle(m)
    return m


def naive_det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * naive_det(minor)
    return total


def test_hnf_is_canonical_under_unimodular_remixes():
    rng = random.Random(20240901)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = [[rng.randint(-6, 6) for _ in range(n + 1)] for _ in range(n)]
        base = hnf_columns(mat_transpose(a))
        # remix the generating columns by a unimodular matrix: same span
        for _ in range(4):
            v = random_unimodular(rng, n + 1)
            remixed = mat_mul(a, v)
            assert hnf_columns(mat_transpose(remixed)) == base


def test_hnf_shape_pivots_positive_and_reduced():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        cols, pivots = hnf_columns(mat_transpose(a))
        assert pivots == sorted(pivots)
        for t, p in enumerate(pivots):
            piv = cols[t][p]
            assert piv > 0
            for j in range(t + 1, len(cols)):
                assert 0 <= cols[j][p] < piv
            for j in range(t):
                assert cols[j][p] == 0  # echelon: earlier columns vanish below


def test_smith_normal_form_certificate():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        a = [[rng.randint(-7, 7) for _ in range(m)] for _ in range(n)]
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(naive_det(u)) == 1
        assert abs(naive_det(v)) == 1
        diag = [d[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0


def _sheared_c2xc4_presentation(seed):
    """Relations of Z[G]/I + Z[G]/I' over G = C_2 x C_4 (k = 16), before and
    after 48 random row shears with multipliers +-1, +-2."""
    g = abelian_group((2, 4))
    rng = random.Random(seed)
    one = GroupRingElement.one(g)
    lats = []
    while len(lats) < 2:
        alpha = GroupRingElement(g, [Fraction(rng.randrange(2)) for _ in range(8)])
        lat = IdealLattice.from_generators(g, [one * 2, alpha])
        if lat.covolume() >= 2:
            lats.append(lat)
    rel = [[0] * 16 for _ in range(16)]
    for b, lat in enumerate(lats):
        for j, col in enumerate(lat.cols):
            for i, x in enumerate(col):
                rel[8 * b + i][8 * b + j] = x
    sheared = [row[:] for row in rel]
    for _ in range(48):
        i, j = rng.sample(range(16), 2)
        q = rng.choice((-2, -1, 1, 2))
        sheared[i] = [x + q * y for x, y in zip(sheared[i], sheared[j])]
    return g, rel, sheared


def test_smith_form_of_a_sheared_presentation_via_its_hnf():
    """The SNF run on these raw sheared relations does not finish in 20 s (its
    entries explode); run on their HNF columns it takes milliseconds. The
    module's structure() takes that route."""
    g, rel, sheared = _sheared_c2xc4_presentation(2)
    start = time.monotonic()
    h_cols, _ = hnf_columns(mat_transpose(sheared))
    _, d, _ = smith_normal_form(mat_transpose(h_cols))
    identity = identity_matrix(16)
    mod = FiniteGModule(g, 16, mat_transpose(sheared), [identity, identity],
                        validate=False)
    structure = mod.structure()
    elapsed = time.monotonic() - start
    _, d0, _ = smith_normal_form(rel)
    assert [d[i][i] for i in range(16)] == [d0[i][i] for i in range(16)]
    assert structure == (2, 2, 2, 2) and mod.order() == 16
    assert elapsed < 1.0, elapsed


def _check_kernel_basis(rng, a, m):
    n = len(a)
    ker = kernel_basis(mat_transpose(a))
    for col in ker:
        assert all(sum(a[i][j] * col[j] for j in range(m)) == 0
                   for i in range(n))
    # rank-nullity against SNF rank
    _, d, _ = smith_normal_form(a)
    rank = sum(1 for i in range(min(n, m)) if d[i][i] != 0)
    assert len(ker) == m - rank
    # every random kernel vector lies in the computed span
    for _ in range(3):
        combo = [0] * m
        if ker:
            for col in ker:
                c = rng.randint(-3, 3)
                combo = [x + c * y for x, y in zip(combo, col)]
        assert span_contains(ker, combo) if ker else combo == [0] * m
    # the basis is its own canonical form
    if ker:
        assert hnf_columns(ker)[0] == ker
    return ker


def test_kernel_basis_spans_the_kernel():
    rng = random.Random(321)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        a = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        _check_kernel_basis(rng, a, m)
    zero = [[0] * 4 for _ in range(3)]
    assert _check_kernel_basis(rng, zero, 4) == identity_matrix(4)
    zero_rows = [[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 6]]
    assert len(_check_kernel_basis(rng, zero_rows, 3)) == 2
    full_column_rank = [[1, 2], [3, 4], [5, 6]]
    assert _check_kernel_basis(rng, full_column_rank, 2) == []


def _check_fraction_free(a, b_cols):
    det, x_cols = solve_fraction_free(a, b_cols)
    assert det == naive_det(a)
    if det == 0:
        assert x_cols is None
    else:
        assert mat_mul(a, mat_transpose(x_cols)) == [[det * x for x in row]
                                                    for row in mat_transpose(b_cols)]
    return det


def test_det_int_matches_cofactor_expansion():
    """The determinant that solve_fraction_free returns is the exact one,
    sign included, and a x = det b for random right-hand sides."""
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        _check_fraction_free(a, b)


def test_solve_fraction_free_matches_cofactor_expansion():
    """Singular systems and row swaps: (0, None) for a singular a, and the
    sign of the determinant follows the parity of the swaps."""
    rng = random.Random(7)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(n)]
             for _ in range(n)]
        singular += _check_fraction_free(a, identity_matrix(n)) == 0
    assert singular
    assert _check_fraction_free([[0, 1], [1, 0]], [[1, 0]]) == -1
    assert _check_fraction_free([[0, 0, 2], [0, 3, 0], [5, 0, 0]], identity_matrix(3)) == -30
    assert _check_fraction_free([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                                identity_matrix(4)) == 1
    perm = [[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)]  # a 4-cycle
    assert _check_fraction_free(perm, [[1, 2, 3, 4]]) == -1
    assert solve_fraction_free([[1, 2], [2, 4]], [[1, 0]]) == (0, None)
    assert solve_fraction_free([], [[]]) == (1, [[]])


def cramer_coordinates(base, v):
    """The rational c with sum_j c_j base[j] = v, or None if there is none,
    for linearly independent integer columns `base`: Cramer's rule on the
    first nonsingular square choice of rows, then checked on every row."""
    m = len(base)
    for rows in combinations(range(len(v)), m):
        a = [[col[i] for col in base] for i in rows]
        d = naive_det(a)
        if d:
            break
    c = [Fraction(naive_det([row[:j] + [v[i]] + row[j + 1:]
                           for row, i in zip(a, rows)]), d) for j in range(m)]
    if any(sum(cj * col[i] for cj, col in zip(c, base)) != x
           for i, x in enumerate(v)):
        return None
    return c


@st.composite
def rank_deficient_spans(draw):
    """(cols, base): integer columns in Z^n spanning the same lattice as the
    m < n independent columns `base`.  Rows that are integer combinations of
    the others (zero rows included) are inserted anywhere, so the pivot rows
    of the HNF skip rows; extra columns are combinations of `base`."""
    m = draw(st.integers(1, 3))
    square = draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                           min_size=m, max_size=m))
    assume(naive_det(square) != 0)
    rows = [list(r) for r in square]
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                               max_size=len(rows)))
        new = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(m)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    base = mat_transpose(rows)
    cols = list(base)
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        cols.append([sum(c * col[i] for c, col in zip(coeffs, base))
                     for i in range(len(rows))])
    return draw(st.permutations(cols)), base


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rank_deficient_spans(), st.data())
def test_span_contains_matches_cramer_oracle(span, data):
    cols, base = span
    n, m = len(base[0]), len(base)
    h, pivots = hnf_columns(cols)
    assert len(pivots) == m < n
    vec = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    c = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    member = [sum(cj * col[i] for cj, col in zip(c, base)) for i in range(n)]
    shift = data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    candidates = [member, [x + s for x, s in zip(member, shift)], data.draw(vec)]
    if all(x % 2 == 0 for x in member):
        candidates.append([x // 2 for x in member])
    for v in candidates:
        coords = cramer_coordinates(base, v)
        assert span_contains(cols, v) == (
            coords is not None and all(x.denominator == 1 for x in coords))
        y = solve_upper_triangular(echelon_steps(h, pivots), v)
        assert (y is None) == (coords is None)
    # rational right-hand sides in the rational span are solved exactly
    third = [Fraction(x, 3) for x in member]
    y = solve_upper_triangular(echelon_steps(h, pivots), third)
    assert [sum(yt * col[i] for yt, col in zip(y, h)) for i in range(n)] == third


def test_sparse_solve_equals_the_dense_back_substitution():
    """`solve_upper_triangular` over the `echelon_steps` of the echelon
    forms of `column_echelon` and `hnf_columns` equals the dense
    back-substitution, None and the int/Fraction split included: square,
    wide and rank-deficient integer matrices (rows with no pivot), against
    integer and rational vectors in the span and vectors outside it."""
    rng = random.Random(39)
    seen = set()
    for _ in range(120):
        n = rng.randint(1, 6)
        shape = rng.choice(("square", "wide", "deficient"))
        m = {"square": n, "wide": n + rng.randint(1, 2 * n), "deficient": rng.randint(1, 6)}
        cols = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m[shape])]
        if shape == "deficient":  # combinations of r < n columns
            base = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
            cols = [[sum(c * b[i] for c, b in zip(col, base)) for i in range(n)]
                    for col in cols]
        for h, pivots in (column_echelon(cols), hnf_columns(cols)):
            steps = echelon_steps(h, pivots)
            coeffs = [rng.randint(-4, 4) for _ in h]
            member = [sum(c * col[i] for c, col in zip(coeffs, h)) for i in range(n)]
            vs = [member, [Fraction(x, rng.randint(2, 5)) for x in member],
                  [rng.randint(-9, 9) for _ in range(n)]]
            vs += [[x + (i == r) for i, x in enumerate(member)]
                   for r in range(n) if r not in pivots]
            for v in vs:
                y = solve_upper_triangular(steps, v)
                want = dense_solve_upper_triangular(h, pivots, v)
                assert y == want and (y is None or list(map(type, y)) == list(map(type, want)))
                seen.add((shape, "none" if y is None else
                          "fraction" if any(isinstance(x, Fraction) for x in y) else "int"))
    assert seen == {(shape, kind) for shape in ("square", "wide", "deficient")
                    for kind in ("none", "fraction", "int")}


def _kernel_inputs(rng):
    """(kind, columns) of seeded shapes: dense, sparse 0/+-1, rank-deficient,
    with duplicate columns, and wide (many more columns than rows)."""
    for _ in range(12):
        n, m = rng.randint(1, 7), rng.randint(1, 8)
        yield "dense", [[rng.randint(-40, 40) for _ in range(n)] for _ in range(m)]
        yield "sparse", [[rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(n)]
                         for _ in range(m)]
        r = rng.randint(1, max(1, n - 1))
        base = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
        yield "rank-deficient", [
            [sum(c * col[i] for c, col in zip(coeffs, base)) for i in range(n)]
            for coeffs in ([rng.randint(-3, 3) for _ in range(r)] for _ in range(m))]
        cols = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        cols += [list(rng.choice(cols)) for _ in range(rng.randint(1, m))]
        rng.shuffle(cols)
        yield "duplicate", cols
        yield "wide", [[rng.choice((0, rng.randint(-20, 20))) for _ in range(n)]
                       for _ in range(8 * n + rng.randint(0, 10))]


def test_sparse_kernel_matches_the_dense_oracle_bit_for_bit():
    """The lead-bucketed, sparse echelon form picks the same pivots in the
    same order as the dense scan, so its echelon columns (not only the
    canonical HNF) and the kernel equal the oracle's exactly; scaling the
    input scales the HNF entry for entry."""
    rng = random.Random(1987)
    kinds = set()
    for kind, cols in _kernel_inputs(rng):
        kinds.add(kind)
        assert column_echelon(cols) == dense_column_echelon(cols), kind
        h, pivots = hnf_columns(cols)
        assert (h, pivots) == dense_hnf_columns(cols), kind
        # IdealLattice's constructor divides the content out before the HNF
        assert hnf_columns([[6 * x for x in col] for col in cols]) == (
            [[6 * x for x in col] for col in h], pivots)
        assert kernel_basis(cols) == dense_kernel_basis(cols), kind
        assert kernel_basis(mat_transpose(cols)) == dense_kernel_basis(mat_transpose(cols))
    assert kinds == {"dense", "sparse", "rank-deficient", "duplicate", "wide"}


def test_column_api_takes_tuples_and_leaves_its_argument_alone():
    """The lattice routines take a list of columns, tuples included (as in
    `FiniteGModule.relations` and `IdealLattice.cols`), work on a copy, and
    keep the number of columns even when the columns are empty."""
    cols = [[4, 2, 0], [6, 3, 1], [2, 1, 1]]
    frozen = [tuple(col) for col in cols]
    before = [col[:] for col in cols]
    h = hnf_columns(cols)
    assert h == ([[4, 2, 0], [2, 1, 1]], [1, 2])
    assert hnf_columns(frozen) == h and cols == before
    assert kernel_basis(cols) == kernel_basis(frozen) == [[1, -1, 1]]
    assert cols == before
    assert span_contains(cols, [6, 3, 1]) and span_contains(frozen, [10, 5, 1])
    assert not span_contains(cols, [2, 1, 0]) and cols == before
    assert span_equal(cols, h[0]) and span_equal(frozen, h[0]) and cols == before
    # a map from Z^m to Z^0 kills everything
    assert kernel_basis([[] for _ in range(3)]) == identity_matrix(3)
    assert kernel_basis([()] * 2) == identity_matrix(2)
    assert span_equal([], []) and span_equal([], [(0, 0)])
    assert span_contains([], [0, 0]) and not span_contains([], [0, 1])


def test_hnf_mod_is_the_hnf_with_d_times_the_identity():
    """hnf_mod(cols, d, n) is the HNF of span(cols) + d Z^n, entry for entry,
    for composite, prime and prime-power d, d = 1, no columns, zero columns,
    negative entries (also columns with no positive entry, which the
    elimination reads mod d) and entries of any size against d; it leaves
    its argument alone."""
    rng = random.Random(32)
    seen = set()
    for _ in range(900):
        d = rng.choice((1, 2, 3, 4, 8, 9, 12, 27, 30, 36, 64, 97, 125, 210))
        n = rng.randint(0, 6)
        kind = rng.choice(("none", "zero", "small", "wide", "multiples", "negative"))
        cols = []
        if kind == "zero":
            cols = [[0] * n for _ in range(rng.randint(1, 3))]
        elif kind != "none":
            bound = 3 * d if kind in ("wide", "negative") else 3
            cols = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(n)]
                    for _ in range(rng.randint(1, 2 * n + 2))]
            if kind == "multiples":   # multiples of d, and a column shifted by one
                cols = [[d * x for x in col] for col in cols] + [
                    [x + d * y for x, y in zip(cols[0], cols[-1])]]
            if kind == "negative":
                cols = [[-abs(x) for x in col] for col in cols]
        seen.add((kind, d))
        before = [col[:] for col in cols]
        want = hnf_columns(cols + [[d * (i == j) for i in range(n)] for j in range(n)])[0]
        assert hnf_mod(cols, d, n) == want, (cols, d, n)
        assert hnf_mod([tuple(col) for col in cols], d, n) == want and cols == before
    assert {(kind, d) for kind in ("none", "zero", "small", "wide", "multiples", "negative")
            for d in (1, 4, 8, 9, 12, 27, 30, 36, 64, 125, 210)} <= seen
    assert hnf_mod([], 6, 2) == [[6, 0], [0, 6]] and hnf_mod([[9, -3]], 1, 2) == identity_matrix(2)


def test_hnf_kernel_mod_is_the_kernel_of_the_augmented_matrix_plus_d_times_the_identity():
    """hnf_kernel_mod(cols, d), for m columns as nonzero (row, entry) pairs,
    is the HNF of the top m entries of `kernel_basis` of the dense columns
    and -d e_r over the rows r they use, plus d Z^m, entry for entry: for
    composite, prime and prime-power d, d = 1, no columns, empty columns,
    rows far apart and out of order, negative entries and entries of any
    size against d. It leaves its argument alone."""
    rng = random.Random(46)
    seen = set()
    for _ in range(500):
        d = rng.choice((1, 2, 3, 4, 8, 9, 12, 27, 30, 36, 64, 97, 125, 210))
        m = rng.randint(0, 6)
        rows = rng.sample(range(40), rng.randint(0, 5))
        kind = rng.choice(("empty", "small", "wide", "negative", "multiples"))
        bound = 3 if kind == "small" else 3 * d
        cols = []
        for _ in range(m):
            col = [(r, rng.choice((0, rng.randint(-bound, bound)))) for r in rows]
            if kind == "negative":
                col = [(r, -abs(x)) for r, x in col]
            if kind == "multiples":
                col = [(r, d * x) for r, x in col]
            cols.append([(r, x) for r, x in col if x] if kind != "empty" else [])
        seen.add((kind, d))
        before = [col[:] for col in cols]
        used = sorted({r for col in cols for r, _ in col})
        dense = [[dict(col).get(r, 0) for r in used] for col in cols]
        ker = kernel_basis(dense + [[-d * (r == t) for r in used] for t in used])
        want = hnf_columns([col[:m] for col in ker] +
                           [[d * (i == j) for i in range(m)] for j in range(m)])[0]
        assert hnf_kernel_mod(cols, d) == want, (cols, d)
        assert cols == before
    assert {(kind, d) for kind in ("empty", "small", "wide", "negative", "multiples")
            for d in (1, 4, 12, 27, 97, 210)} <= seen
    assert hnf_kernel_mod([], 6) == [] and hnf_kernel_mod([[], []], 6) == identity_matrix(2)
    # x_0 + x_1 = 0 mod 4 on Z^2: (4, 0) and (3, 1)
    assert hnf_kernel_mod([[(9, 1)], [(9, 5)]], 4) == [[4, 0], [3, 1]]


def test_modular_reduction_right_of_pivots_equals_the_full_scan():
    """At a pivot equal to the modulus d, `_reduce_right_of_pivots` reads only
    the columns that an earlier reduction changed, since `column_echelon(...,
    d)` leaves every other entry in [0, d). On modular echelon forms over
    prime, prime-power and composite d, and on the top rows of the kernel's
    augmented columns, its output is that of the full scan, bit for bit."""
    rng = random.Random(4646)
    seen = set()
    for _ in range(600):
        d = rng.choice((2, 3, 97, 4, 8, 27, 125, 6, 12, 210))
        n = rng.randint(1, 7)
        cols = [[rng.choice((0, 0, rng.randint(-2 * d, 2 * d))) for _ in range(n)]
                for _ in range(rng.randint(0, n + 2))]
        m = rng.randint(1, n)
        cols_top, _ = column_echelon([[int(i == j) for i in range(m)] + col
                                      for j, col in enumerate(cols[:m])], d)
        for pivot_cols, pivot_rows in (column_echelon(cols, d, n),
                                       ([col[:m] for col in cols_top[:m]], list(range(m)))):
            full = _reduce_right_of_pivots([col[:] for col in pivot_cols], pivot_rows)
            fast = _reduce_right_of_pivots([col[:] for col in pivot_cols], pivot_rows, d)
            assert fast == full
            pivots = {col[p] for col, p in zip(pivot_cols, pivot_rows)}
            seen.add(("prime" if d in (2, 3, 97) else "prime power" if d in (4, 8, 27, 125)
                      else "composite", d in pivots, bool(pivots - {d}), full[0] != pivot_cols))
    assert {(kind, True, True, True) for kind in ("prime", "prime power", "composite")} <= seen


def test_hnf_dual_is_the_hnf_of_d_times_the_dual():
    """hnf_dual(H, d) for the HNF H of a lattice L that contains d Z^n is the
    HNF of d L^*: its columns y have y . x = 0 mod d for every column x of H,
    its index in Z^n is d^n / [Z^n : L], and taken again it gives H back."""
    rng = random.Random(37)
    for _ in range(200):
        d = rng.choice((1, 2, 6, 12, 25, 97))
        n = rng.randint(1, 6)
        h = hnf_mod([[rng.randint(-9, 9) for _ in range(n)]
                     for _ in range(rng.randint(0, n + 1))], d, n)
        dual = hnf_dual(h, d)
        assert dual == hnf_columns(dual)[0] and len(dual) == n
        assert all(sum(x * y for x, y in zip(a, b)) % d == 0 for a in h for b in dual)
        index = 1
        for t in range(n):
            index *= h[t][t] * dual[t][t]
        assert index == d ** n
        assert hnf_dual(dual, d) == h
    assert hnf_dual([[4, 0], [2, 2]], 4) == [[2, 0], [1, 1]]


def test_dual_back_substitution_from_row_j_equals_the_dense_solve():
    """A right-hand side v that is zero below row r needs only the steps of
    the pivot rows up to r: their back-substitution on v[:r + 1], padded with
    zeros, equals the dense back-substitution (None and the int/Fraction
    split included) on square and non-square echelon forms with integer and
    rational v. `hnf_dual` starts d e_j at row j this way, so it equals
    `hnf_mod` of the rows of d H^-1 by the dense solve."""
    rng = random.Random(44)
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 6)
        cols = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)]
                for _ in range(n + rng.randint(0, n))]
        if rng.random() < 0.5:  # combinations of fewer than n columns
            base = cols[:rng.randint(0, n - 1)]
            cols = [[sum(rng.randint(-2, 2) * b[i] for b in base) for i in range(n)]
                    for _ in cols]
        for h, pivots in (column_echelon(cols), hnf_columns(cols)):
            steps = echelon_steps(h, pivots)
            coeffs = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in h]
            r = rng.randrange(n)
            kept = [t for t, p in enumerate(pivots) if p <= r]
            member = [sum(coeffs[t] * h[t][i] for t in kept) for i in range(n)]
            for v in (member, [x + (i == r) for i, x in enumerate(member)]):
                want = dense_solve_upper_triangular(h, pivots, v)
                y = solve_upper_triangular(steps[len(h) - len(kept):], v[:r + 1])
                y = None if y is None else y + [0] * (len(h) - len(kept))
                assert y == want and (y is None or list(map(type, y)) == list(map(type, want)))
                seen.add((len(h) == n, "none" if y is None else
                          "fraction" if any(isinstance(x, Fraction) for x in y) else "int"))
        d = rng.choice((2, 4, 6, 9, 12, 97))
        h = hnf_mod(cols, d, n)
        rows = zip(*(dense_solve_upper_triangular(h, range(n), [d * (i == j) for i in range(n)])
                     for j in range(n)))
        assert hnf_dual(h, d) == hnf_mod(rows, d, n)
    # a square echelon form spans Q^n: only a non-square one meets None
    assert seen == {(True, "fraction"), (True, "int"),
                    (False, "none"), (False, "fraction"), (False, "int")}


def test_span_predicates_and_content():
    assert span_equal([[2, 0], [1, 1]], [[1, 1], [0, 2]])
    assert not span_equal([[2, 0], [0, 2]], [[1, 0], [0, 1]])
    assert span_contains([[2, 0], [0, 3]], [4, 9])
    assert not span_contains([[2, 0], [0, 3]], [1, 0])
    assert content([6, -9]) == 3
    assert content([0, 0]) == 0
    assert content([5, 7]) == 1


def test_transpose_involution():
    a = [[1, 2, 3], [4, 5, 6]]
    assert mat_transpose(mat_transpose(a)) == a


def test_mat_mul_skips_zeros_and_rejects_mismatched_shapes():
    rng = random.Random(2024)
    for _ in range(20):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        a = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(m)] for _ in range(k)]
        assert mat_mul(a, b) == [[sum(a[i][t] * b[t][j] for t in range(k))
                                  for j in range(m)] for i in range(n)]
    # a ValueError, not an assert, so it still fires under python -O
    with pytest.raises(ValueError, match="a has 2 columns but b has 3 rows"):
        mat_mul([[1, 2]], [[1], [2], [3]])
