"""S-units, cyclotomic/Stark units, coordinates, quotient modules, and the
unit-file interchange format."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from fracgalois.cyclo import PrecisionContext, factorize
from fracgalois.fields import (SUnit, full_cyclotomic, place_set, plus_field,
                               relative_model, relative_place_set)
from fracgalois import intmat
from fracgalois.gring import FiniteGModule, GroupRingElement, IdealLattice
from fracgalois.intmat import identity_matrix, mat_transpose
from fracgalois.units import (KNOWN_HPLUS_ONE, CoordinateError, UnitLattice,
                              cyclotomic_unit, export_units, lambda_unit,
                              load_units, quotient_module, stark_module,
                              stark_residuals, stark_unit, sunit_group,
                              unit_coordinates)
from oracles import (dense_coordinate_solver, finite_logs, mat_mul, same_value,
                     solve_fraction_free)
from test_gring import assert_kernel_route_matches_the_oracles
from test_intmat import naive_det

CTX = PrecisionContext(bits=192, tol_exp=-100)


# ---------------------------------------------------------------------------
# word identities

def test_cyclotomic_unit_square_identity():
    # xi_a^2 = sigma_a(eps)/eps with eps = (1-zeta)(1-zeta^{-1})
    for f, a in [(5, 2), (7, 2), (7, 3), (11, 2), (13, 5)]:
        xi = cyclotomic_unit(f, a)
        eps = stark_unit(f)
        assert same_value(xi * xi, eps.galois(a) / eps)


def test_cyclotomic_unit_is_real():
    for f, a in [(5, 2), (7, 3)]:
        xi = cyclotomic_unit(f, a)
        assert xi.fixed_by({1, f - 1})


def test_cyclotomic_unit_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cyclotomic_unit(12, 5)     # even modulus
    with pytest.raises(ValueError):
        cyclotomic_unit(9, 3)      # not coprime
    with pytest.raises(ValueError):
        cyclotomic_unit(7, 1)      # trivial index


def test_stark_unit_value_is_positive_real():
    with CTX.guard():
        for f in [5, 7, 11]:
            v = stark_unit(f).expansion().embed(1)
            assert abs(mp.im(v)) < mp.mpf(2) ** -150
            assert mp.re(v) > 0


# ---------------------------------------------------------------------------
# built-in provider

def test_builtin_provider_requires_certified_conductor():
    k = full_cyclotomic(67)
    with pytest.raises(ValueError, match="certificate"):
        sunit_group(k, place_set(k, (67,)), CTX)
    assert 67 not in KNOWN_HPLUS_ONE


def test_builtin_provider_rejects_composite_modulus():
    k = full_cyclotomic(15)
    with pytest.raises(ValueError):
        sunit_group(k, place_set(k, (3, 5)), CTX)


def test_sunit_rank_matches_dirichlet():
    for make, arg in [(plus_field, 7), (full_cyclotomic, 5)]:
        k = make(arg)
        ps = place_set(k, (arg,))
        u = sunit_group(k, ps, CTX)
        assert u.rank == ps.x_rank()


# ---------------------------------------------------------------------------
# coordinates

def test_unit_coordinates_round_trip():
    k = plus_field(7)
    ps = place_set(k, (7,))
    u = sunit_group(k, ps, CTX)
    word = u.torsion
    exps = [2, -1, 3]
    for w, x in zip(u.free, exps):
        word = word * w ** x
    t, xs = unit_coordinates(u, word, CTX)
    assert t == 1 and xs == exps


def test_unit_coordinates_detect_outside_word():
    # xi_2 generates U+/E+ at p=5, so it has no coordinates in E+
    k = plus_field(5)
    ps = place_set(k, (5,))
    e = stark_module(k, ps, CTX)
    with pytest.raises(CoordinateError, match="not integral"):
        unit_coordinates(e, cyclotomic_unit(5, 2), CTX)
    # ... but its square does lie in E+
    t, xs = unit_coordinates(e, cyclotomic_unit(5, 2) ** 2, CTX)
    word = e.torsion ** t
    for w, x in zip(e.free, xs):
        word = word * w ** x
    assert same_value(word, cyclotomic_unit(5, 2) ** 2)


def test_coordinate_errors_name_the_cause():
    k = plus_field(7)
    ps = place_set(k, (7,))
    u = sunit_group(k, ps, CTX)
    part = UnitLattice(k, ps, u.torsion_order, u.torsion, u.free[:1], "test", ())
    with pytest.raises(CoordinateError, match="rational span"):
        unit_coordinates(part, u.free[1], CTX)
    # zeta is a unit of Q(zeta_7), but the plus field's torsion is only +-1
    with pytest.raises(CoordinateError, match="root of unity"):
        unit_coordinates(u, SUnit.zeta(7), CTX)


def test_scaled_inverse_against_determinant():
    """The scaled inverse of the dense coordinate solve in the oracles:
    a r = d I with d = det(a), on sparse matrices like the rows of a
    free-generator matrix."""
    rng = random.Random(7)
    done = 0
    while done < 30:
        n = rng.randint(1, 6)
        a = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(n)]
             for _ in range(n)]
        det = naive_det(a)
        if det == 0:
            continue
        d, r_cols = solve_fraction_free(a, identity_matrix(n))
        assert d == det
        assert mat_mul(a, mat_transpose(r_cols)) == [
            [d * (i == j) for j in range(n)] for i in range(n)]
        done += 1


# ---------------------------------------------------------------------------
# the numeric least-squares solve that exact coordinates replaced, kept as an
# independent oracle: logs from the expanded cyclotomic value, rounded
# coordinates, and the torsion exponent matched on expanded values

def _expansion_logs(word, lattice):
    """The log embedding of word at every place of the lattice's S: the
    archimedean places from the embedded expansion, one per coset."""
    val, pset = word.expansion(), lattice.pset
    arch = pset.places[0]
    out = []
    for coset in arch.cosets:
        v = mp.log(abs(val.embed(min(pset.group.label(e) for e in coset))))
        out.append(2 * v if arch.complex_place else v)
    return out + finite_logs(word, lattice.model, pset)


def _numeric_coordinates(lattice, word, ctx):
    with ctx.guard():
        rows = [_expansion_logs(w, lattice) for w in lattice.free]
        b = _expansion_logs(word, lattice)
        a = mp.matrix([[row[i] for row in rows] for i in range(len(b))])
        sol = mp.lu_solve(a.T * a, a.T * mp.matrix(b))
        xs = [int(mp.nint(v)) for v in sol]
        assert all(abs(v - x) < mp.mpf(2) ** -16 for v, x in zip(sol, xs))
    rest = word
    for w, x in zip(lattice.free, xs):
        rest = rest / w ** x
    power = SUnit.one(word.f)
    for t in range(lattice.torsion_order):
        if same_value(power, rest):
            return t, xs
        power = power * lattice.torsion
    raise AssertionError("residual word is not a torsion power")


def _quotient_words(u, e):
    """The words quotient_module solves for: E's generators and the images
    of U's generators under the group generators."""
    words = [e.torsion, *e.free]
    for gen in u.group.generator_elements():
        t = u.group.label(gen)
        words += [w.galois(t) for w in (u.torsion, *u.free)]
    return words


@pytest.mark.parametrize("make, f", [
    (make, f) for make in (plus_field, full_cyclotomic)
    for f in (5, 7, 9, 11, 13, 25)] + [
    (relative_model, 7), (relative_model, 11)])
def test_exact_coordinates_match_numeric_oracle(make, f):
    model = make(f)
    if make is relative_model:
        ps = relative_place_set(model)
    else:
        ps = place_set(model, (factorize(f)[0][0],))
    u = sunit_group(model, ps, CTX)
    for word in _quotient_words(u, stark_module(model, ps, CTX)):
        assert unit_coordinates(u, word, CTX) == _numeric_coordinates(u, word, CTX)


# ---------------------------------------------------------------------------
# the echelon solve against the dense scaled inverse it replaced

# every field of the built-in provider: plus and full at each certified
# conductor, and the relative field at each certified p^n with p = 3 mod 4
BUILTIN_FIELDS = ([(kind, f) for f in sorted(KNOWN_HPLUS_ONE) for kind in ("plus", "full")]
                  + [("relative", f) for f in sorted(KNOWN_HPLUS_ONE)
                     if factorize(f)[0][0] % 4 == 3 and f != 3])


def _builtin_lattices(kind, f):
    """(U, E) of the built-in provider on the field `kind` of conductor f."""
    [(p, n)] = factorize(f)
    if kind == "relative":
        model = relative_model(p, n)
        ps = relative_place_set(model)
    else:
        model = (plus_field if kind == "plus" else full_cyclotomic)(f)
        ps = place_set(model, (p,))
    return sunit_group(model, ps, CTX), stark_module(model, ps, CTX)


@pytest.mark.parametrize("kind, f", BUILTIN_FIELDS)
def test_coordinates_equal_the_dense_solve(kind, f):
    """Every word quotient_module solves, and torsion times random products
    of the free generators, which must also come back as their exponents."""
    u, e = _builtin_lattices(kind, f)
    dense = dense_coordinate_solver(u)
    rng = random.Random(f)
    words = _quotient_words(u, e)
    for _ in range(3):
        t = rng.randrange(u.torsion_order)
        xs = [rng.randint(-3, 3) for _ in u.free]
        word = u.torsion ** t
        for w, x in zip(u.free, xs):
            word = word * w ** x
        assert unit_coordinates(u, word, CTX) == (t, xs)
        words.append(word)
    for word in words:
        assert unit_coordinates(u, word, CTX) == dense(word)


@pytest.mark.parametrize("kind, f", BUILTIN_FIELDS)
def test_unit_quotient_annihilator_and_ell_parts_equal_the_oracles(kind, f):
    """On U/E of every built-in field, the annihilator (one modular kernel)
    equals the kernel lattice it replaced, and each ell-part
    equals the one built on a plain HNF."""
    assert_kernel_route_matches_the_oracles(quotient_module(*_builtin_lattices(kind, f), CTX))


def test_unit_quotient_at_121_takes_one_modular_kernel_over_the_group(monkeypatch):
    """On the plus U/E at f = 121 (k = 56, |G| = 55, one generator), building
    the module and its annihilator take one `hnf_kernel_mod` of |G| columns
    and no `hnf_mod` or `hnf_dual`: the generation test reads the first
    orbit's kernel index instead of an HNF over k rows, and that kernel is
    the annihilator. No module of the program binds a matrix product."""
    mod = quotient_module(*_builtin_lattices("plus", 121), CTX)
    calls = []
    ours = [m for name, m in sys.modules.items() if name.split(".")[0] == "fracgalois"]
    for fn_name in ("hnf_mod", "hnf_dual", "hnf_kernel_mod"):
        fn = getattr(intmat, fn_name)

        def counting(cols, *args, _fn=fn, _name=fn_name):
            calls.append((_name, len(cols)))
            return _fn(cols, *args)

        for m in ours:
            for name, value in vars(m).items():
                if value is fn:
                    monkeypatch.setattr(m, name, counting)
    assert not [m for m in ours if hasattr(m, "mat_mul")]
    built = FiniteGModule(mod.group, mod.k, mod.relations, mod.action)
    ann = built.annihilator()
    monkeypatch.undo()
    assert (mod.k, mod.group.order, len(built._generator_orbits)) == (56, 55, 1)
    assert calls == [("hnf_kernel_mod", 55)]
    assert ann == mod.annihilator()


def _coordinate_error(solve, word):
    with pytest.raises(CoordinateError) as info:
        solve(word)
    return str(info.value)


@pytest.mark.parametrize("f", sorted(KNOWN_HPLUS_ONE))
def test_coordinate_errors_equal_the_dense_solve(f):
    """1 - zeta against the plus lattice (its epsilon coordinate is 1/2),
    zeta (not a power of -1), and a dropped free generator against the
    lattice without it, down to no free generator at all."""
    k = plus_field(f)
    ps = place_set(k, (factorize(f)[0][0],))
    u = sunit_group(k, ps, CTX)
    cases = [(u, lambda_unit(f)), (u, SUnit.zeta(f))]
    for i in {0, u.rank - 1}:
        rest = u.free[:i] + u.free[i + 1:]
        cases.append((UnitLattice(k, ps, u.torsion_order, u.torsion, rest, "test", ()),
                      u.free[i]))
    messages = []
    for lattice, word in cases:
        msg = _coordinate_error(lambda w: unit_coordinates(lattice, w, CTX), word)
        assert msg == _coordinate_error(dense_coordinate_solver(lattice), word)
        messages.append(msg.split(":")[0])
    assert messages[0] == "unit coordinate 1/2 is not integral"
    assert messages[1].startswith("residual root of unity")
    assert set(messages[2:]) == {"the word is outside the rational span of the "
                                 "free generators"}


@pytest.mark.parametrize("kind, f", [("plus", 43), ("full", 25), ("relative", 49)])
def test_a_lattice_and_its_solves_make_one_echelon(kind, f, monkeypatch):
    """Building U and E and solving every word of U/E: one column_echelon
    call (the rank check's, shared by every solve) and no other elimination
    of `intmat`, whose HNFs, dual and kernels all run through column_echelon."""
    calls = {}
    for name in ("column_echelon", "hnf_columns", "hnf_mod", "hnf_dual", "hnf_kernel_mod",
                 "kernel_basis"):
        fn = getattr(intmat, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("fracgalois") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    u, e = _builtin_lattices(kind, f)
    for word in _quotient_words(u, e):
        unit_coordinates(u, word, CTX)
    assert calls == {"column_echelon": 1}


def test_annihilator_path_makes_no_mpmath_call(monkeypatch):
    class NoMpmath:
        def __getattr__(self, name):
            raise AssertionError(f"mpmath used: mp.{name}")

    for name, mod in list(sys.modules.items()):
        if name.startswith("fracgalois") and hasattr(mod, "mp"):
            monkeypatch.setattr(mod, "mp", NoMpmath())
    k = plus_field(49)
    ps = place_set(k, (7,))
    q = quotient_module(sunit_group(k, ps, CTX), stark_module(k, ps, CTX), CTX)
    assert q.order() == 2 ** 20


# ---------------------------------------------------------------------------
# quotient modules (frozen structures)

def test_quotient_plus5_structure_and_ideals():
    k = plus_field(5)
    ps = place_set(k, (5,))
    q = quotient_module(sunit_group(k, ps, CTX), stark_module(k, ps, CTX), CTX)
    assert q.order() == 2
    assert q.structure() == (2,)
    g = k.group
    s = g.element_of_residue(2)
    lat = IdealLattice.from_generators(
        g, [GroupRingElement.one(g) * 2,
            GroupRingElement.one(g) + GroupRingElement.basis(g, s)])
    assert q.annihilator() == lat
    assert q.fitting_ideal() == lat


def test_quotient_plus7_is_two_by_two():
    k = plus_field(7)
    ps = place_set(k, (7,))
    q = quotient_module(sunit_group(k, ps, CTX), stark_module(k, ps, CTX), CTX)
    assert q.order() == 4
    assert q.structure() == (2, 2)


def test_quotient_full5_is_trivial():
    k = full_cyclotomic(5)
    ps = place_set(k, (5,))
    q = quotient_module(sunit_group(k, ps, CTX), stark_module(k, ps, CTX), CTX)
    assert q.order() == 1
    assert q.structure() == ()


def test_quotient_relative7_is_fourteen_squared():
    m = relative_model(7)
    ps = relative_place_set(m)
    q = quotient_module(sunit_group(m, ps, CTX), stark_module(m, ps, CTX), CTX)
    assert q.order() == 196
    assert q.structure() == (14, 14)


# ---------------------------------------------------------------------------
# Stark residuals

def test_stark_residuals_tiny_plus_fields():
    for p in [5, 7, 11]:
        k = plus_field(p)
        per_sigma, worst = stark_residuals(k, place_set(k, (p,)), CTX)
        assert len(per_sigma) == k.degree
        assert worst < mp.mpf(10) ** -50


def test_stark_residuals_tiny_relative():
    m = relative_model(7)
    _, worst = stark_residuals(m, relative_place_set(m), CTX)
    assert worst < mp.mpf(10) ** -50


# ---------------------------------------------------------------------------
# interchange format

def test_export_load_round_trip(tmp_path):
    k = plus_field(7)
    ps = place_set(k, (7,))
    u = sunit_group(k, ps, CTX)
    path = tmp_path / "u.json"
    export_units(u, path)
    v = load_units(path, CTX)
    assert v.torsion_order == u.torsion_order
    assert v.torsion == u.torsion
    assert v.free == u.free
    assert v.provider == u.provider
    assert v.model == u.model
    # exported bytes are deterministic
    path2 = tmp_path / "u2.json"
    export_units(u, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_export_load_round_trip_relative(tmp_path):
    m = relative_model(7)
    ps = relative_place_set(m)
    u = sunit_group(m, ps, CTX)
    path = tmp_path / "rel.json"
    export_units(u, path)
    v = load_units(path, CTX)
    assert v.model == u.model and v.free == u.free


def test_load_rejects_wrong_torsion_order(tmp_path):
    k = full_cyclotomic(5)
    u = sunit_group(k, place_set(k, (5,)), CTX)
    path = tmp_path / "u.json"
    export_units(u, path)
    doc = json.loads(path.read_text())
    doc["torsion"]["order"] = 7          # true order is 10
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="order"):
        load_units(path, CTX)
    doc["torsion"]["order"] = 20         # multiple of the true order: not minimal
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="minimal"):
        load_units(path, CTX)


def test_load_rejects_generator_outside_subfield(tmp_path):
    k = plus_field(5)
    u = sunit_group(k, place_set(k, (5,)), CTX)
    path = tmp_path / "u.json"
    export_units(u, path)
    doc = json.loads(path.read_text())
    doc["free"][0] = lambda_unit(5).to_word()   # 1 - zeta is not real
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="fixed"):
        load_units(path, CTX)


def test_load_rejects_dependent_generators(tmp_path):
    k = plus_field(5)
    u = sunit_group(k, place_set(k, (5,)), CTX)
    path = tmp_path / "u.json"
    export_units(u, path)
    doc = json.loads(path.read_text())
    doc["free"] = [doc["free"][0], doc["free"][0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="rank|dependent"):
        load_units(path, CTX)


def test_load_rejects_non_torsion_word(tmp_path):
    k = plus_field(5)
    u = sunit_group(k, place_set(k, (5,)), CTX)
    path = tmp_path / "u.json"
    export_units(u, path)
    doc = json.loads(path.read_text())
    doc["torsion"]["word"] = stark_unit(5).to_word()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not a root of unity"):
        load_units(path, CTX)


def test_load_rejects_wrong_kind(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"kind": "classgroup", "format": 1}))
    with pytest.raises(ValueError, match="unit"):
        load_units(path, CTX)


def test_unit_module_checks_are_errors_under_python_O():
    # named errors, not asserts: python -O keeps both checks
    code = """if True:
        from fracgalois import units
        from fracgalois.cyclo import PrecisionContext
        from fracgalois.fields import (place_set, plus_field, relative_model,
                                       relative_place_set)
        ctx = PrecisionContext()
        e5, e7 = (units.stark_module(plus_field(p), place_set(plus_field(p), (p,)), ctx)
                  for p in (5, 7))
        try:
            units.quotient_module(e5, e7, ctx)
        except ValueError as exc:
            print(exc)
        units.torsion_order = lambda model: 1  # theta~ alone is not integral
        model = relative_model(7, 1)
        try:
            units.stark_module(model, relative_place_set(model), ctx)
        except ArithmeticError as exc:
            print(exc)
        """
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    g5, g7 = plus_field(5).group, plus_field(7).group
    assert proc.stdout.splitlines() == [
        f"quotient of units over {g5} by units over {g7}",
        "e * theta~ is not integral"], proc.stderr
