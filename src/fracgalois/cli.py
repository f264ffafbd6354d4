"""Command-line front end: compute exact objects, run verification suites,
and exchange unit / class-group documents.

Subcommands::

    fracgalois compute {theta,half_theta,lvalues,rvec,jideal,annihilator} ...
    fracgalois verify --suite CHECK[,CHECK...] ...
    fracgalois ingest --in FILE ...
    fracgalois export --out FILE [--in FILE] ...

Exit codes: 0 success (all checks pass), 1 at least one check fails,
2 configuration or computation error.

Reports keep exact values (rationals, lattices) and numeric values (with
their precision context) in separate sections; the only nondeterministic
content (a timestamp) lives in the `meta` block, so identical configuration
and inputs reproduce the report byte for byte outside `meta`.
"""

import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii

import mpmath as mp

from .cyclo import PrecisionContext, factorize, is_prime
from .fields import RelativeModel, bounded, odd_prime_power, select_field
from .gring import characters
from .jideal import (CHECK_IDS, CHECK_OPTIONS, DEFAULT_SUBFIELD, _gre_jsonable,
                     j_ideal, load_classgroup, run_checks)
from .lfun import (half_stickelberger, l_values_at_0, stickelberger,
                   vanishing_order)
from .units import (export_units, load_units, quotient_module, stark_module,
                    sunit_group)

COMPUTE_OBJECTS = ("theta", "half_theta", "lvalues", "rvec", "jideal", "annihilator")

LOG2_10 = math.log2(10)


# RunConfig fields and their defaults; no --subfield is None: full, or a
# check's DEFAULT_SUBFIELD
_DEFAULTS = {"command": None, "object": None, "suite": (), "conductor": None,
             "prime": None, "level": 1, "subfield": None, "places": None, "bits": 192,
             "tol_exp": -30,       # decimal exponent: tolerance is 10**tol_exp
             "input_path": None, "output_path": None, "seed": 0}


class RunConfig:
    """Everything a run depends on; a report embeds it verbatim."""

    __slots__ = tuple(_DEFAULTS)

    def __init__(self, command, **fields):
        for name, value in {**_DEFAULTS, **fields, "command": command}.items():
            setattr(self, name, value)      # __slots__ refuses an unknown field

    def context(self):
        """Precision context at `bits` with tolerance 10**tol_exp (converted
        to the binary exponent; raises ValueError when unreachable)."""
        if self.tol_exp >= 0:
            raise ValueError("tolerance exponent must be negative")
        return PrecisionContext(bits=self.bits, tol_exp=math.floor(self.tol_exp * LOG2_10))

    def as_dict(self):
        d = {name: getattr(self, name) for name in self.__slots__}
        d["suite"] = list(self.suite)
        d["places"] = None if self.places is None else list(self.places)
        return d


# ---------------------------------------------------------------------------
# field resolution

def _conductor(cfg):
    if cfg.prime is not None:
        if not is_prime(bounded(cfg.prime, "prime")):
            raise ValueError(f"--prime {cfg.prime} is not a prime")
        f = bounded(cfg.prime, "conductor", cfg.level)
        if cfg.conductor is not None and cfg.conductor != f:
            raise ValueError(
                f"--conductor {cfg.conductor} contradicts "
                f"--prime {cfg.prime} --level {cfg.level}")
        return f
    if cfg.conductor is not None:
        return cfg.conductor
    raise ValueError("specify the field: --conductor/-f or --prime/-p")


def _prime_level(cfg):
    """(p, n) for checks that live on prime-power conductors."""
    return odd_prime_power(_conductor(cfg))


def resolve_field(cfg):
    """(model, place set) from the CLI selectors."""
    return select_field(_conductor(cfg), cfg.subfield or "full", cfg.places)


def _units_for(cfg, model, pset, ctx):
    """S-unit lattice: the unit document of --in, else the builtin tables."""
    if cfg.input_path is None:
        return sunit_group(model, pset, ctx)
    lattice = load_units(cfg.input_path, ctx)
    if lattice.model != model:
        raise ValueError(f"unit file is for {lattice.model!r}, not {model!r}")
    if lattice.pset.finite_primes() != pset.finite_primes():
        raise ValueError("unit file was built for different S-primes")
    return lattice


# ---------------------------------------------------------------------------
# compute

def _chi_key(chi):
    return "chi[" + ",".join(str(e) for e in chi.exps) + "]"


def _cyclo_jsonable(val):  # each n/d as str(Fraction(n, d)) does, in integers
    d, gs = val.d, [math.gcd(x, val.d) for x in val.n]
    coeffs = [str(x // g) if g == d else f"{x // g}/{d // g}" for x, g in zip(val.n, gs)]
    return {"zeta_order": val.m, "coeffs": coeffs}


def cmd_compute(cfg):
    ctx = cfg.context()
    exact = {}
    numeric = {}
    if cfg.object in ("theta", "half_theta"):
        if cfg.object == "half_theta":
            model, _ = select_field(_conductor(cfg), "relative", cfg.places)
            theta = half_stickelberger(model)
        else:
            model, pset = resolve_field(cfg)
            if isinstance(model, RelativeModel):
                raise ValueError("theta lives on absolute fields; "
                                 "use half_theta for the relative case")
            theta = stickelberger(model, pset)
        exact[cfg.object] = _gre_jsonable(theta)
        numeric[cfg.object] = {
            str(model.group.label(e)): mp.nstr(ctx.mpf(theta.coeff(e)), 17)
            for e in model.group.elements}
    elif cfg.object == "lvalues":
        model, pset = resolve_field(cfg)
        if isinstance(model, RelativeModel):
            raise ValueError("lvalues lives on absolute fields")
        chars = characters(model.group)
        vals = dict(zip(map(_chi_key, chars), l_values_at_0(model, pset, chars)))
        with ctx.guard():
            embs = {key: v.embed(1) for key, v in vals.items()}
        exact["l_values_at_0"] = {key: _cyclo_jsonable(v) for key, v in vals.items()}
        numeric["l_values_at_0"] = {key: mp.nstr(ctx.final(z), 17) for key, z in embs.items()}
    elif cfg.object == "rvec":
        model, pset = resolve_field(cfg)
        exact["vanishing_orders"] = {
            _chi_key(chi): vanishing_order(model, pset, chi)
            for chi in characters(model.group)}
    elif cfg.object == "jideal":
        model, pset = resolve_field(cfg)
        units = None if cfg.input_path is None else _units_for(cfg, model, pset, ctx)
        res = j_ideal(model, pset, ctx, units)
        exact["ideal"] = res.ideal.to_jsonable()
        exact["details"] = {k: (list(v) if isinstance(v, tuple) else v)
                            for k, v in res.details.items()}
        exact["route"] = res.route
        exact["assumptions"] = list(res.assumptions)
    elif cfg.object == "annihilator":
        model, pset = resolve_field(cfg)
        u = _units_for(cfg, model, pset, ctx)
        m = quotient_module(u, stark_module(model, pset, ctx), ctx)
        exact["annihilator"] = m.annihilator().to_jsonable()
        exact["quotient_order"] = m.order()
        exact["quotient_structure"] = list(m.structure())
        exact["assumptions"] = list(u.assumptions)
    else:
        raise ValueError(f"unknown compute object {cfg.object!r}")
    numeric["context"] = ctx.as_dict()
    return {"exact": exact, "numeric": numeric}


# ---------------------------------------------------------------------------
# verify

def _check_params(cfg, check_id):
    """Parameter dicts (one per run) for a check id under this config."""
    if check_id == "STICK_IDENT":
        return [{"f": _conductor(cfg)}]
    if check_id == "ACNF":  # its fields are fixed, but a field selector given is checked
        if cfg.prime is not None or cfg.conductor is not None:
            _prime_level(cfg)
        return [{"field": "Q"}, {"field": "Qsqrt5"}]
    p, n = _prime_level(cfg)
    params = {"p": p, "n": n}
    if check_id in CHECK_OPTIONS["subfield"]:
        params["subfield"] = cfg.subfield or DEFAULT_SUBFIELD[check_id]
    if check_id in CHECK_OPTIONS["seed"]:
        params["seed"] = cfg.seed
    if check_id not in CHECK_OPTIONS["input_path"]:
        return [params]
    if cfg.input_path is None:
        raise ValueError(f"{check_id} needs class-group data: pass --in <classgroup.json>")
    clmod, _ = load_classgroup(cfg.input_path)
    ells = sorted({q for q, _ in factorize(clmod.order()) if q % 2 == 1})
    return [{**params, "ell": ell, "classgroup": clmod} for ell in ells or [3]]


def cmd_verify(cfg):
    ctx = cfg.context()
    reports = run_checks([(check_id, params) for check_id in cfg.suite
                          for params in _check_params(cfg, check_id)], ctx)
    lines = [f"{r.check}: {r.status.upper()}"
             + (f" -- {r.witnesses.get('message', '')}" if r.status == "error" else "")
             for r in reports]
    n_pass = sum(1 for r in reports if r.status == "pass")
    lines.append(f"{n_pass}/{len(reports)} checks passed")
    statuses = {r.status for r in reports}
    code = 2 if "error" in statuses else 1 if "fail" in statuses else 0
    doc = {"exact": {"checks": [r.to_jsonable() for r in reports]},
           "numeric": {"context": ctx.as_dict()}}
    return doc, lines, code


# ---------------------------------------------------------------------------
# ingest / export

def cmd_ingest(cfg):
    if cfg.input_path is None:
        raise ValueError("ingest needs --in <file.json>")
    with open(cfg.input_path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("input document is not a JSON object")
    kind = doc.get("kind")
    ctx = cfg.context()
    if kind == "sunits":
        lattice = load_units(cfg.input_path, ctx)
        expected = lattice.pset.x_rank()
        if len(lattice.free) != expected:
            raise ValueError(f"unit file has rank {len(lattice.free)}, "
                             f"but #S_K - 1 = {expected}")
        exact = {"kind": "sunits",
                 "field": repr(lattice.model),
                 "torsion_order": lattice.torsion_order,
                 "free_rank": len(lattice.free),
                 "expected_rank": expected,
                 "provider": lattice.provider,
                 "assumptions": list(lattice.assumptions)}
    elif kind == "classgroup":
        clmod, provenance = load_classgroup(cfg.input_path)
        exact = {"kind": "classgroup",
                 "order": clmod.order(),
                 "structure": list(clmod.structure()),
                 "provenance": provenance}
    else:
        raise ValueError(f"unknown document kind {kind!r}")
    exact["accepted"] = True
    return {"exact": exact, "numeric": {"context": ctx.as_dict()}}


def cmd_export(cfg):
    if cfg.output_path is None:
        raise ValueError("export needs --out <file.json>")
    ctx = cfg.context()
    if cfg.input_path is not None:
        lattice = load_units(cfg.input_path, ctx)
    else:
        model, pset = resolve_field(cfg)
        lattice = sunit_group(model, pset, ctx)
    export_units(lattice, cfg.output_path)
    return {"exact": {"written": cfg.output_path,
                      "free_rank": len(lattice.free),
                      "torsion_order": lattice.torsion_order},
            "numeric": {"context": ctx.as_dict()}}


# ---------------------------------------------------------------------------
# plumbing

COMMANDS = {"compute": "compute one OBJECT and report it",
            "verify": "run named checks; exit 0 iff all pass",
            "ingest": "validate and accept a units/class-group document",
            "export": "write the S-unit document for a field"}

# the readers of an option: the compute OBJECTs and the other commands;
# "export --in" is export from a unit document, which fixes the field
_FIELD = (*COMPUTE_OBJECTS, "verify", "export")
READERS = (*_FIELD, "ingest", "export --in")

# flags, RunConfig field, converter, readers, help.  Every option takes
# exactly one value; a repeated option keeps the last.  A run exits 2 on an
# option its reader does not read, and verify on one that a check of its
# suite does not read (jideal.CHECK_OPTIONS).
OPTIONS = (
    (("--conductor", "-f"), "conductor", int, _FIELD, "conductor of the cyclotomic field"),
    (("--prime", "-p"), "prime", int, _FIELD, "prime p for prime-power conductors"),
    (("--level", "-n"), "level", int, _FIELD, "level n: conductor p**n (default 1); needs -p"),
    (("--subfield",), "subfield", str, _FIELD,
     "full | plus | relative | custom:<residues> (default full; STARKC: plus)"),
    (("--places",), "places", lambda text: tuple(int(q) for q in text.split(",")),
     (*COMPUTE_OBJECTS, "export"),
     "comma-separated finite S-primes (default: primes dividing the conductor)"),
    (("--bits",), "bits", int, READERS, "working precision in bits (default 192)"),
    (("--tol-exp",), "tol_exp", int, READERS, "numeric tolerance 10**TOL_EXP (default -30)"),
    (("--in",), "input_path", str,
     ("jideal", "annihilator", "verify", "export", "ingest", "export --in"),
     "input document (units or class-group JSON)"),
    (("--out",), "output_path", str, READERS, "where to write the report or the export"),
    (("--seed",), "seed", int, ("verify",), "seed for randomized checks (recorded in reports)"),
    (("--suite",), "suite",
     lambda text: tuple(s.strip().upper() for s in text.split(",") if s.strip()),
     ("verify",), "comma-separated check ids; required by verify"),
)


def usage():
    """The -h text, from COMMANDS, COMPUTE_OBJECTS, OPTIONS and CHECK_IDS."""
    lines = ["usage: fracgalois COMMAND [OBJECT] [OPTION VALUE ...]", "", "commands:"]
    lines += [f"  {name:9} {text}" for name, text in COMMANDS.items()]
    lines += ["", "objects of compute: " + ", ".join(COMPUTE_OBJECTS), "",
              "options, each as --name VALUE, --name=VALUE or -x VALUE:"]
    lines += [f"  {', '.join(flags):17} {text}" for flags, _, _, _, text in OPTIONS]
    groups = {}
    for reader in READERS:
        groups.setdefault(" ".join(row[0][-1] for row in OPTIONS if reader in row[3]),
                          []).append(reader)
    lines += ["", "options each compute OBJECT or command reads (any other exits 2):"]
    lines += [f"  {'|'.join(readers)}: {flags}" for flags, readers in groups.items()]
    flag = {row[1]: row[0][-1] for row in OPTIONS}
    lines += [f"  verify: {flag[name]} only with {', '.join(checks)}"
              for name, checks in CHECK_OPTIONS.items()]
    lines += ["", "checks: " + ", ".join(CHECK_IDS), "",
              "exit codes: 0 success, 1 a check failed, 2 usage or data error"]
    return "\n".join(lines)


def parse_args(argv):
    """The RunConfig of a command line; a usage error raises ValueError
    naming the offending token."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"unknown command {argv[0] if argv else ''!r}; "
                         f"choose from {', '.join(COMMANDS)}")
    by_flag = {flag: row for row in OPTIONS for flag in row[0]}
    command, positional, fields, given = argv[0], [], {}, {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positional.append(token)
            continue
        flag, eq, value = token.partition("=") if token[:2] == "--" else (token, "", "")
        if flag not in by_flag:
            raise ValueError(f"unknown option {flag!r}")
        if not eq:      # the next token is the value, even if it starts with -
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"option {flag} needs a value")
        _, name, convert, _, _ = by_flag[flag]
        try:
            fields[name] = convert(value)
        except ValueError:
            raise ValueError(f"option {flag}: invalid value {value!r}") from None
        given[name] = flag
    reader = "export --in" if command == "export" and "input_path" in fields else command
    if command == "compute":
        reader = fields["object"] = positional.pop(0) if positional else None
        if reader not in COMPUTE_OBJECTS:
            raise ValueError(f"compute needs one OBJECT of {', '.join(COMPUTE_OBJECTS)}; "
                             f"got {reader!r}")
    if positional:
        raise ValueError(f"unexpected argument {positional[0]!r}")
    suite = fields.get("suite", ())
    if command == "verify" and not suite:
        raise ValueError("verify needs --suite CHECK[,CHECK...]")
    unknown = [check for check in suite if check not in CHECK_IDS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}; known: {', '.join(CHECK_IDS)}")
    readers = {row[1]: row[3] for row in OPTIONS}
    for name, flag in given.items():    # each option the user gave, in order
        if reader not in readers[name]:
            raise ValueError(f"{'compute ' if command == 'compute' else ''}{reader} takes no {flag}")
        # the checks that do not read it; every check reads what CHECK_OPTIONS omits
        idle = [check for check in suite if check not in CHECK_OPTIONS.get(name, CHECK_IDS)]
        if command == "verify" and idle:
            raise ValueError(f"verify --suite {','.join(suite)} takes no {flag}: "
                             f"{idle[0]} does not read it")
    if "level" in given and "prime" not in given:
        raise ValueError(f"{given['level']} needs --prime/-p: the conductor is p**n")
    if reader == "half_theta" and fields.get("subfield", "relative") != "relative":
        raise ValueError(f"half_theta lives on the relative field; "
                         f"--subfield {fields['subfield']!r} is not relative")
    return RunConfig(command, **fields)


_SCALAR = {str: encode_basestring_ascii, int: int.__repr__}  # as json.dumps writes them


def _json(x, pad="\n"):
    """json.dumps(x, indent=2, sort_keys=True) byte for byte, for str keys: one
    join per container, over C-level encoders where its items are all str or all int."""
    if not x or type(x) not in (dict, list, tuple):  # a scalar or an empty container
        return _SCALAR.get(type(x), json.dumps)(x)
    inner = pad + "  "
    if type(x) is dict:
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    kinds = set(map(type, x))
    text = _SCALAR.get(kinds.pop()) if len(kinds) == 1 else None
    items = map(text, x) if text else [_json(v, inner) for v in x]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _emit(doc, cfg, stream):
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    stamp += f".{micros:06d}+00:00"
    doc = {"meta": {"generated_at": stamp, "tool": "fracgalois"}, "config": cfg.as_dict(), **doc}
    text = _json(doc)
    if cfg.output_path is not None and cfg.command != "export":
        with open(cfg.output_path, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {cfg.output_path}", file=stream)
    else:
        print(text, file=stream)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(usage())
        return 0
    try:
        cfg = parse_args(argv)
        if cfg.command != "verify":
            handlers = {"compute": cmd_compute, "ingest": cmd_ingest, "export": cmd_export}
            _emit(handlers[cfg.command](cfg), cfg, sys.stdout)
            return 0
        doc, lines, code = cmd_verify(cfg)
        print("\n".join(lines))
        if cfg.output_path is not None:
            _emit(doc, cfg, sys.stdout)
        return code
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
