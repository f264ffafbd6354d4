"""The failure rule: when does an op count as failed?

An op fails when it raises, exits 2, or returns a check with status
`error`; when its `exact` result differs from the golden digest recorded at
the commit that defined the benchmark; when a check that passed in the
golden run now reports `fail`; or when a passing numeric check keeps less
than MARGIN_KEEP of its golden margin (a speed-up bought with precision).
A `fail` -> `pass` change is not a failure, so the known false FAILs
(STARK_RAT at p >= 7, relative STARKC at p = 31) can be fixed later.

Seeded modules have no golden digest; their construction invariants
(checked in the worker) decide.  An op that declares `expect_error` is a
known defect: failing with that message is expected, passing is a fix.
"""

MARGIN_KEEP = 0.9


def verdict(op, outcome, golden):
    """(status, reason): status is "ok", "defect" or "failed"."""
    if "raised" in outcome:
        return "failed", "raised " + outcome["raised"].strip().splitlines()[-1]
    expect = op.get("expect_error")
    if outcome["rc"] == 2:
        if expect is not None and expect in outcome["error"]:
            return "defect", outcome["error"]
        return "failed", "exit 2: " + outcome["error"]
    if "invariant" in outcome:
        return "failed", "invariant broken: " + outcome["invariant"]
    if op["kind"] == "seeded" or expect is not None:
        return "ok", ""
    gold = golden.get(op["id"])
    if gold is None:
        return "failed", "no golden record for this op"
    if outcome["digest"] != gold["digest"]:
        return "failed", "exact result differs from the golden digest"
    statuses = outcome.get("statuses", [])
    if len(statuses) != len(gold.get("statuses", [])):
        return "failed", "number of check reports differs from the golden run"
    for i, (was, now) in enumerate(zip(gold.get("statuses", []), statuses)):
        if now == "error":
            return "failed", f"check {i} reports error"
        if was == "pass" and now == "fail":
            return "failed", f"check {i} passed in the golden run, now fails"
        was_m, now_m = gold["margins"][i], outcome["margins"][i]
        if None not in (was_m, now_m) and now_m < MARGIN_KEEP * was_m:
            return "failed", (f"check {i} margin {now_m} bits is below "
                              f"{MARGIN_KEEP} x golden {was_m}")
    return "ok", ""
