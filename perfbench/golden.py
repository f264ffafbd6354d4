"""Record the golden outcome of every fixed-input op into data/golden.json:
the digest of its `exact` section, its check statuses and numeric margins.

    python3 perfbench/golden.py

Each op runs in its own fresh worker process.  Re-record only when a change
is meant to alter results, and say so where the change is described.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ops as workloads  # noqa: E402
from run import GOLDEN, environment, spawn_worker  # noqa: E402


def main():
    records = {}
    for op in workloads.golden_ops():
        res = spawn_worker({"op": op})
        out = res["outcome"]
        if "raised" in out or out["rc"] == 2 or "invariant" in out:
            raise SystemExit(f"{op['id']}: cannot be golden: {out}")
        records[op["id"]] = {"digest": out["digest"],
                             "statuses": out.get("statuses", []),
                             "margins": out.get("margins", []),
                             "seconds": round(res["seconds"], 3)}
        print(f"{res['seconds']:8.3f}s  {op['id']}  {out.get('statuses', '')}",
              flush=True)
    with open(GOLDEN, "w") as fh:
        json.dump({"environment": environment(), "ops": records}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
