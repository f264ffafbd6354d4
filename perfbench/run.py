"""fracgalois benchmark: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload {jideal,analytic,modules} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from src/.  A
round runs the seed's ops one after another, each in a fresh Python
process, as a CLI user pays start-up and cache warm-up on every
invocation.  With --trace 0 the run repeats rounds while another one fits
in --seconds and prints the end-to-end metrics; with --trace 1 it runs one
untraced and one traced round (the traced one also runs the known-defect
ops) and prints the per-layer metrics.  Every op is checked against the
golden record (judge.py).  The last stdout line is the result object; the
line before it records the environment and the ops that ran.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import judge  # noqa: E402
import ops as workloads  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 120
GOLDEN = os.path.join(HERE, "data", "golden.json")


def spawn_worker(spec):
    """Run one worker process and return its parsed result, with the time
    from spawn to fracgalois imported as `setup_s` and the factor `scale`
    that takes its times to the reference speed (speed.py).  Raises
    RuntimeError when the worker times out, crashes or prints no result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True, cwd=ROOT,
            env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise RuntimeError(f"worker timed out after {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready_at"] - t_spawn
    out["scale"] = speed.REF_S / out["ref_s"]
    return out


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def environment(**params):
    """What a result depends on besides the ops: versions, CPU count and
    the run's parameters."""
    import mpmath
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "source_digest": source_digest(),
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), **params}


def run_round(ops, golden, tally, trace=False):
    """Each op in its own fresh worker process, judged into tally.  An op's
    `seconds` are at the reference speed, its `raw_seconds` as measured."""
    rnd = {"results": [], "setups": [], "peak_rss_mb": 0.0, "counters": []}
    for op in ops:
        t0 = time.monotonic()
        try:
            out = spawn_worker({"op": op, "trace": trace})
        except RuntimeError as exc:  # the op failed; the run goes on
            out = {"seconds": time.monotonic() - t0,
                   "outcome": {"raised": str(exc)}, "setup_s": None,
                   "scale": 1.0, "peak_rss_mb": 0.0, "counters": {}}
        res = {"id": op["id"], "seconds": out["seconds"] * out["scale"],
               "raw_seconds": out["seconds"], "outcome": out["outcome"]}
        status, reason = judge.verdict(op, res["outcome"], golden)
        res["verdict"] = status
        tally["attempted"] += 1
        if status == "failed":
            tally["failed"] += 1
            tally["failures"].append(f"{op['id']}: {reason}")
        rnd["results"].append(res)
        if out["setup_s"] is not None:
            rnd["setups"].append(out["setup_s"] * out["scale"])
        rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"], out["peak_rss_mb"])
        if trace:
            rnd["counters"].append(out["counters"])
    return rnd


def measure(ops, seconds, golden, tally):
    """At least one round, then more while the next one, at the rounds'
    mean length, is due to end within `seconds`."""
    rounds = []
    t0 = time.monotonic()
    while not rounds or (time.monotonic() - t0) * (len(rounds) + 1) \
            / len(rounds) <= seconds:
        rounds.append(run_round(ops, golden, tally))
    return rounds


def end_to_end(rounds, setups):
    walls = [sum(r["seconds"] for r in rnd["results"]) for rnd in rounds]
    slowest = [max(r["seconds"] for r in rnd["results"]) for rnd in rounds]
    setups = setups + [s for rnd in rounds for s in rnd["setups"]]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "max_op_s": (statistics.median(slowest), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rnd["peak_rss_mb"] for rnd in rounds), "MB"),
    }


def per_layer(ops, plain, traced):
    layers = spans.combine(traced["counters"])
    n = len(ops)  # the traced round runs the defect ops after these
    # traced ops are not sampled (speed.py), so compare raw times
    layers["trace_overhead_s"] = (
        sum(r["raw_seconds"] for r in traced["results"][:n])
        - sum(r["raw_seconds"] for r in plain["results"]))
    statuses = [s for r in traced["results"]
                for s in r["outcome"].get("statuses", [])]
    margins = [m for r in traced["results"]
               for m in r["outcome"].get("margins", []) if m is not None]
    layers["jideal.run_check.fail"] = statuses.count("fail")
    # 0 when the workload runs no numeric check
    layers["jideal.run_check.margin_bits"] = min(margins) if margins else 0.0
    return {name: (value, unit_of(name)) for name, value in layers.items()}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "fracgalois")):
        print("error: no src/fracgalois in this checkout", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)["ops"]

    ops = workloads.round_ops(args.workload, args.seed)
    tally = {"attempted": 0, "failed": 0, "failures": []}
    setups = []
    for _ in range(SETUP_SAMPLES):
        out = spawn_worker({"op": None})
        setups.append(out["setup_s"] * out["scale"])
    record = {"environment": environment(**vars(args)),
              "ops": [op["id"] for op in ops]}
    if args.trace == 0:
        rounds = measure(ops, args.seconds, golden, tally)
        metrics = end_to_end(rounds, setups)
        last = rounds[-1]
        record["rounds"] = len(rounds)
    else:
        defects = workloads.defect_ops(args.workload, args.seed)
        plain = run_round(ops, golden, tally)
        last = run_round(ops + defects, golden, tally, trace=True)
        metrics = per_layer(ops, plain, last)
        record["defect_ops"] = [op["id"] for op in defects]
    record["verdicts"] = {r["id"]: {"verdict": r["verdict"],
                                    "seconds": round(r["seconds"], 4),
                                    "raw_seconds": round(r["raw_seconds"], 4),
                                    "statuses": r["outcome"].get("statuses")}
                          for r in last["results"]}
    record["failures"] = tally["failures"]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
