"""The benchmark's workloads: which ops one round runs, made from the seed.

An op is a JSON-ready dict with an `id` and a `kind`:

* `cli`      -- `fracgalois.cli.main(argv)`, stdout captured;
* `ue`       -- a captured U/E quotient module (see capture.py): build it,
                then `annihilator()` and `structure()`;
* `seeded`   -- an A8-style module over Z[C_n] built from one or two
                random ideals (m0, alpha): `annihilator`, `fitting_ideal`,
                `ell_part` for every prime dividing the order, `structure`.

Nothing here imports fracgalois: the program sees only the generated ops.

Why the seed picks from small sets: the built-in unit provider serves a
fixed list of conductors, and one field costs up to 15x another.  A seed that
picked freely among them would move a round's wall time by a third, which no
bound could absorb.  So the costly choices are between inputs whose total
cost matched (within 1 %) at the commit that defined the benchmark; the small
plus fields cost a few per cent of a round and are drawn freely.  README.md
lists the fields left out and why.
"""

import random

# -- jideal: `compute jideal`, the user's main job ---------------------------

# one plus field from each size bucket {13, 17, 19, 23, 25, 27}, {29, 31},
# {43, 49}; the mid and large picks are coupled so that every pair costs the
# same
SMALL_PLUS = (13, 17, 19, 23, 25, 27)
MID_LARGE_PLUS = ((29, 49), (31, 43))
RELATIVE_PRIMES = (7, 11, 19, 23)
FULL_PRIMES = (7, 11, 13)

# exit 2 today with "unit coordinate ... is not integral" (lost precision in
# the numeric unit coordinates); run only in the traced round, see README.md
JIDEAL_DEFECTS = ((31, 1), (43, 1), (7, 2))

# -- analytic: the lfun / cyclo numeric path --------------------------------

ANALYTIC_POOL = (121, 125)
SUITE = "STICK_IDENT,RZERO,STARK_RAT,BCH"
SUITE_PRIMES = (7, 11, 19)
HIGH = ("--bits", "768", "--tol-exp", "-150")

# -- modules: gring + intmat ------------------------------------------------

UE_CONDUCTORS = (61, 81, 121)
# (n, number of ideals) per seeded module; the Fitting ideal enumerates
# C(2 n r, n r) minors: 20 .. 3432.  The 12870-minor shapes (8, 1) and
# (4, 2) take 14-21 s each, which a run cannot afford next to f = 121.
SEEDED_SHAPES = ((3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (2, 2), (3, 2))
# over the 20000-minor budget (48620 and 184756 minors): refused today
SEEDED_DEFECT_SHAPES = ((9, 1), (5, 2))
SEED_PRIMES = (2, 3, 5, 7)

WORKLOADS = ("jideal", "analytic", "modules")


def cli_op(*argv):
    argv = [str(a) for a in argv]
    return {"id": " ".join(argv), "kind": "cli", "argv": argv}


def seeded_op(rng, n, r):
    """One module over Z[C_n] from r ideals (m0, alpha).  alpha is a
    multiple of (x - 1) mod m0, so each ideal is proper: |M| >= m0^r."""
    ideals = []
    for _ in range(r):
        m0 = rng.choice(SEED_PRIMES)
        beta = [rng.randrange(m0) for _ in range(n)]
        # alpha = (x - 1) * beta in Z[x]/(x^n - 1), reduced mod m0
        alpha = [(beta[(i - 1) % n] - beta[i]) % m0 for i in range(n)]
        ideals.append({"m0": m0, "alpha": alpha})
    tag = ";".join(f"{d['m0']}:{''.join(map(str, d['alpha']))}" for d in ideals)
    return {"id": f"seeded C{n} r={r} {tag}", "kind": "seeded", "n": n,
            "ideals": ideals}


def jideal_ops(plus_fields):
    ops = [cli_op("compute", "jideal", "-f", f, "--subfield", "plus")
           for f in plus_fields]
    ops += [cli_op("compute", "jideal", "-p", p, "--subfield", "relative")
            for p in RELATIVE_PRIMES]
    ops += [cli_op("compute", "jideal", "-p", p) for p in FULL_PRIMES]
    return ops


def analytic_ops(f):
    ops = [cli_op("verify", "--suite", "STARKC", "-f", f,
                  "--subfield", "plus", *HIGH),
           cli_op("verify", "--suite", "STARKC", "-p", 23,
                  "--subfield", "relative", *HIGH),
           # the known precision-loss false FAIL: keep it visible
           cli_op("verify", "--suite", "STARKC", "-p", 31,
                  "--subfield", "relative"),
           cli_op("verify", "--suite", "ACNF", "-p", 5, *HIGH)]
    ops += [cli_op("verify", "--suite", SUITE, "-p", p) for p in SUITE_PRIMES]
    ops.append(cli_op("compute", "lvalues", "-f", f))
    return ops


def ue_op(f):
    return {"id": f"ue f={f}", "kind": "ue", "f": f}


def round_ops(workload, seed):
    """The ops of one round, in run order, made from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "jideal":
        ops = jideal_ops((rng.choice(SMALL_PLUS),
                          *rng.choice(MID_LARGE_PLUS)))
    elif workload == "analytic":
        ops = analytic_ops(rng.choice(ANALYTIC_POOL))
    elif workload == "modules":
        ops = [ue_op(f) for f in UE_CONDUCTORS]
        ops += [seeded_op(rng, n, r) for n, r in SEEDED_SHAPES]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    return ops


def defect_ops(workload, seed):
    """Ops that fail today for known reasons.  They run only in the traced
    round, where per-layer counters show the defect; a fix that makes them
    pass would otherwise read as a slow-down of the timed round."""
    rng = random.Random(f"{workload}:defects:{seed}")
    if workload == "jideal":
        ops = [cli_op("compute", "jideal", "-p", p, "-n", n,
                      "--subfield", "relative") for p, n in JIDEAL_DEFECTS]
        reason = "is not integral"
    elif workload == "modules":
        ops = [seeded_op(rng, n, r) for n, r in SEEDED_DEFECT_SHAPES]
        reason = "minors (> 20000)"
    else:
        return []
    for op in ops:
        op["expect_error"] = reason
    return ops


def golden_ops():
    """Every fixed-input op any seed can draw.  Seeded modules are checked
    by their construction invariants instead of a golden digest."""
    ops = jideal_ops(sorted({*SMALL_PLUS, *sum(MID_LARGE_PLUS, ())}))
    for f in ANALYTIC_POOL:
        ops += analytic_ops(f)
    ops += [ue_op(f) for f in UE_CONDUCTORS]
    return list({op["id"]: op for op in ops}.values())
