"""One op in a fresh process: import fracgalois, run the op, print one
JSON line with the time from process start to ready, the op's time and
outcome, the host's speed while it ran (speed.py), and the process's peak
RSS.

Reads {"op": op or null, "trace": bool} from stdin; with a null op it only
sets up.  Only the program's own work is timed; checking outcomes and
building the seeded modules' ideals happen outside the timed region and
with tracing paused.  Run from the root of a checkout:
python3 perfbench/worker.py < spec.json
"""

import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402
import fracgalois  # noqa: E402
import fracgalois.cli  # noqa: E402

READY_AT = time.monotonic()

from fractions import Fraction  # noqa: E402

from speed import Sampler  # noqa: E402
from fracgalois.cyclo import factorize  # noqa: E402
from fracgalois.fields import plus_field  # noqa: E402
from fracgalois.gring import (FiniteGModule, GroupRingElement,  # noqa: E402
                              IdealLattice, abelian_group)

DATA = os.path.join(ROOT, "perfbench", "data")


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def margin_bits(check):
    """log2(tol / residual) of a passing STARKC or ACNF report, else None."""
    wit = check["witnesses"]
    resid = wit.get("max_residual", wit.get("residual"))
    if check["status"] != "pass" or resid is None:
        return None
    r = mpmath.mpf(resid)
    if r == 0:
        return None
    return float(check["context"]["tol_exp"] - mpmath.log(r, 2))


# -- op kinds: each returns (seconds, outcome) ------------------------------

def prepare(op):
    """Inputs an op needs that the program does not build for users."""
    if op["kind"] == "ue":
        with open(os.path.join(DATA, f"ue_{op['f']}.json")) as fh:
            return json.load(fh)
    if op["kind"] == "seeded":
        n = op["n"]
        g = abelian_group((n,))
        lats = [IdealLattice.from_generators(
            g, [GroupRingElement.one(g) * d["m0"],
                GroupRingElement(g, [Fraction(a) for a in d["alpha"]])])
            for d in op["ideals"]]
        k = n * len(lats)
        relations = []
        for b, lat in enumerate(lats):
            for col in lat.cols:
                full = [0] * k
                full[b * n:(b + 1) * n] = list(col)
                relations.append(full)
        # the generator of C_n permutes each block cyclically
        action = [[1 if i // n == j // n and i % n == (j + 1) % n else 0
                   for j in range(k)] for i in range(k)]
        return g, lats, k, relations, action
    return None


def run_cli(op, tmpdir, clock):
    argv = list(op["argv"])
    out_path = None
    if argv[0] == "verify":
        out_path = os.path.join(tmpdir, "report.json")
        argv += ["--out", out_path]
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    with redirect_stdout(out), redirect_stderr(err):
        rc = fracgalois.cli.main(argv)
    dt = clock() - t0
    outcome = {"rc": rc}
    if rc == 2:
        outcome["error"] = err.getvalue().strip()
        return dt, outcome
    if out_path is None:
        outcome["digest"] = digest(json.loads(out.getvalue())["exact"])
        return dt, outcome
    with open(out_path) as fh:
        checks = json.load(fh)["exact"]["checks"]
    outcome["digest"] = digest([[c["check"], c["context"]] for c in checks])
    outcome["statuses"] = [c["status"] for c in checks]
    outcome["margins"] = [margin_bits(c) for c in checks]
    return dt, outcome


def run_ue(doc, clock):
    g = plus_field(doc["f"]).group
    t0 = clock()
    mod = FiniteGModule(g, doc["k"], doc["relations"], doc["action"],
                        validate=True)
    ann = mod.annihilator()
    structure = mod.structure()
    dt = clock() - t0
    outcome = {"rc": 0, "digest": digest(ann.to_jsonable())}
    if list(structure) != doc["structure"]:
        outcome["invariant"] = "structure differs from the captured module"
    return dt, outcome


def run_seeded(prepared, tracer, clock):
    g, lats, k, relations, action = prepared
    t0 = clock()
    try:
        mod = FiniteGModule(g, k, relations, [action])
        ann = mod.annihilator()
        fitt = mod.fitting_ideal()
        order = mod.order()
        parts = [mod.ell_part(ell) for ell, _ in factorize(order)]
        structure = mod.structure()
    except ValueError as exc:
        return clock() - t0, {"rc": 2, "error": str(exc)}
    dt = clock() - t0
    if tracer is not None:
        tracer.enabled = False
    size = 1
    for lat in lats:
        size *= lat.covolume()
    if len(lats) == 1:
        expected = lats[0]
        cyclic_ok = fitt == ann
    else:
        expected = lats[0].intersect(lats[1])
        cyclic_ok = True
    part_orders = 1
    for part in parts:
        part_orders *= part.order()
    broken = [name for name, ok in (
        ("|M| = product of covolumes", order == size),
        ("ann = ideal (cyclic) or intersection of ideals", ann == expected),
        ("Fitt = ann on a cyclic module", cyclic_ok),
        ("Fitt inside ann", ann.contains_lattice(fitt)),
        ("|M| = product of the ell-parts", part_orders == order)) if not ok]
    if tracer is not None:
        tracer.enabled = True
    outcome = {"rc": 0, "digest": digest([ann.to_jsonable(),
                                          fitt.to_jsonable(),
                                          list(structure)])}
    if broken:
        outcome["invariant"] = "; ".join(broken)
    return dt, outcome


def run_op(op, prepared, tmpdir, tracer=None, clock=time.perf_counter):
    """(seconds, outcome) of one op, timed by `clock`; an unexpected
    exception is recorded in the outcome as `raised`, never propagated."""
    t0 = clock()
    try:
        if op["kind"] == "cli":
            return run_cli(op, tmpdir, clock)
        if op["kind"] == "ue":
            return run_ue(prepared, clock)
        if op["kind"] == "seeded":
            return run_seeded(prepared, tracer, clock)
        raise ValueError(f"unknown op kind {op['kind']!r}")
    except Exception:  # the op failed; report it, the run goes on
        if tracer is not None:
            tracer.enabled = True
        return clock() - t0, {
            "raised": traceback.format_exc(limit=3)}


def main():
    spec = json.load(sys.stdin)
    op = spec.get("op")
    out = {"ready_at": READY_AT}
    # chunks inside a traced op would count as the program's self time
    sampler = Sampler()
    sampler.start(periodic=op is not None and not spec.get("trace"))
    if op is not None:
        prepared = prepare(op)
        tracer = None
        if spec.get("trace"):
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=ROOT) as tmp:
            out["seconds"], out["outcome"] = run_op(op, prepared, tmp, tracer,
                                                    sampler.clock)
        if tracer is not None:
            tracer.uninstall()
            out["counters"] = tracer.counters()
            info = fracgalois.cyclo.bernoulli_number.cache_info()
            out["counters"]["cyclo.bernoulli_number.hits"] = info.hits
            out["counters"]["cyclo.bernoulli_number.misses"] = info.misses
    sampler.stop()
    out["ref_s"] = sampler.ref_s()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
