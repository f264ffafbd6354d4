"""Capture the U/E quotient modules that `quotient_module` builds for plus
fields, so the `modules` workload times `annihilator` and `structure` on the
real matrices without paying for the unit coordinates again.

    python3 perfbench/capture.py 61 81 121

writes perfbench/data/ue_<f>.json per conductor.  f = 121 takes minutes;
capturing is never part of a timed run.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fracgalois.cli import RunConfig  # noqa: E402
from fracgalois.fields import place_set, plus_field  # noqa: E402
from fracgalois.units import quotient_module, stark_module, sunit_group  # noqa: E402


def capture(f):
    """The U/E module of Q(zeta_f)+ with S = {inf, p} at the CLI's default
    precision, as a JSON-ready dict."""
    ctx = RunConfig(command="compute").context()
    model = plus_field(f)
    p = min(q for q in range(2, f + 1) if f % q == 0)
    pset = place_set(model, (p,))
    mod = quotient_module(sunit_group(model, pset, ctx),
                          stark_module(model, pset, ctx), ctx)
    return {"f": f, "subfield": "plus", "k": mod.k,
            "relations": [list(c) for c in mod.relations],
            "action": [[list(r) for r in m] for m in mod.action],
            "order": mod.order(), "structure": list(mod.structure())}


def path_for(f):
    return os.path.join(DATA, f"ue_{f}.json")


def main(argv):
    for f in map(int, argv):
        doc = capture(f)
        with open(path_for(f), "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"f={f}: k={doc['k']} order={doc['order']} "
              f"structure={doc['structure']}")


if __name__ == "__main__":
    main(sys.argv[1:])
