"""Regenerate ``expected.json``: every workload's items and the canonical
output each item must produce.

    python3 qbench/make_expected.py

Run it from the repository root, and only on a commit whose outputs are
known to be right (the acceptance suite passes), because the benchmark
counts every later difference from these values as a failed item.
"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

A2_DEGREES = [(1, 0), (0, 1), (1, 1)]
# eigen-A2 keeps the blocks whose stabilising degree is at most this
# multiple of rho: 54 of the 114 blocks reachable from coordinates <= 2
EIGEN_MAX_K = 2
# saturate-A2 saturates every Bruhat pair at these degrees, to this bound
SATURATION_DEGREES = [(1, 0), (0, 1)]
SATURATION_BOUND = 3
CHARACTER_DEPTH = 4
# poset-A4 serialises the posets anchored at the first A4 element of each
# of these lengths in (length, word) order
ANCHOR_LENGTHS = [3, 5]


def eigen_inputs(model):
    datum, g = model.datum, model.group
    out = []
    for w in g.sorted_elements():
        etas = set()
        for lam in itertools.product(range(3), repeat=datum.rank):
            wl = w.act(lam)
            for blk in model.module(lam).block_order:
                etas.add(datum.sub(blk, wl))
        for eta in sorted(etas):
            lam, _ = model.sufficient_degree(w, eta)
            if lam[0] <= EIGEN_MAX_K:
                out.append({"w": workloads.word(w), "eta": list(eta)})
    return out


def bruhat_pairs(g):
    return [(y, z) for y in g.sorted_elements()
            for z in g.sorted_elements() if g.bruhat_leq(y, z)]


def item_inputs(name, ctx):
    if name == "eigen-A2":
        return [("eigen", inp) for inp in eigen_inputs(ctx["model"])]
    if name == "saturate-A2":
        g = ctx["model"].group
        pairs = [("saturate", {"y": workloads.word(y),
                               "z": workloads.word(z), "nu": list(nu),
                               "bound": SATURATION_BOUND})
                 for nu in SATURATION_DEGREES for y, z in bruhat_pairs(g)]
        grid = [("commutation", {"nu": list(nu), "lam": list(lam)})
                for nu in A2_DEGREES for lam in A2_DEGREES]
        return pairs + grid
    if name == "poset-A4":
        a3, a4 = ctx["groups"]["A3"], ctx["groups"]["A4"]
        anchors = [next(w for w in a4.sorted_elements() if w.length == n)
                   for n in ANCHOR_LENGTHS]
        return ([("poset", {"type": "A4"})]
                + [("strata", {"type": "A4", "anchor": workloads.word(a)})
                   for a in anchors]
                + [("centre", {"type": t}) for t in ("B3", "D4", "F4")]
                + [("character", {"type": "A3", "w": workloads.word(w),
                                  "depth": CHARACTER_DEPTH})
                   for w in a3.sorted_elements()])
    raise ValueError(name)


def main():
    doc = {}
    for name in ("eigen-A2", "saturate-A2", "poset-A4"):
        ctx = workloads.setup(name)
        items = []
        for kind, inp in item_inputs(name, ctx):
            expect = workloads.RUNNERS[kind](ctx, inp)
            items.append({"kind": kind, "input": inp, "expect": expect})
        doc[name] = items
        print("%s: %d items" % (name, len(items)), file=sys.stderr)
    # one item per line, so a changed expectation shows as a one-line diff
    with open(workloads.EXPECTED_PATH, "w") as fh:
        fh.write("{\n")
        for k, name in enumerate(doc):
            fh.write(' "%s": [\n' % name)
            fh.write(",\n".join("  " + json.dumps(item, sort_keys=True)
                                for item in doc[name]))
            fh.write("\n ]%s\n" % ("," if k < len(doc) - 1 else ""))
        fh.write("}\n")


if __name__ == "__main__":
    main()
