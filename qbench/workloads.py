"""The three benchmark workloads: set-up, item runners and output checks.

Each workload has a fixed list of items stored in ``expected.json`` next
to this file, together with the canonical output every item must produce.
A sweep builds the workload's groups and models (the set-up), then runs
every item in an order permuted by the seed and compares each canonical
output with the stored one.  Items reach the library only through the
public functions of its modules, looked up at call time, so the tracer's
wrappers see every call.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from qbruhat import cartan, centre, characters, coordring, strata, weyl

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

POSET_TYPES = ["A3", "A4", "B3", "D4", "F4"]


class Mismatch(Exception):
    """An item's output differs from its stored expected value."""


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def num(x):
    """An exact rational as a JSON value: int when integral, else 'a/b'."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else str(x)


def weight(mu):
    return [num(c) for c in mu]


def word(w):
    return weyl.format_word(w.word)


# -- set-up -------------------------------------------------------------


def setup(name):
    """Build the Cartan data, Weyl groups and coordinate models a
    workload uses; returns the context its items run against."""
    if name in ("eigen-A2", "saturate-A2"):
        cartan.build_cartan("A2")
        weyl.WeylGroup.build("A2")
        return {"model": coordring.CoordinateModel.get("A2")}
    if name == "poset-A4":
        groups = {}
        for label in POSET_TYPES:
            groups[label] = weyl.WeylGroup.build(cartan.build_cartan(label))
        return {"groups": groups}
    raise ValueError("unknown workload %r" % (name,))


# -- item runners -------------------------------------------------------


def eigen_block(ctx, inp):
    """Stabilising degree, twisted decomposition and split check of one
    (w, eta) block of A2."""
    model = ctx["model"]
    w = model.group.parse(inp["w"])
    eta = tuple(inp["eta"])
    lam, mult = model.sufficient_degree(w, eta)
    parts = model.twisted_decomposition(w, eta, lam=lam)
    if sum(sub.dim for _, sub in parts) != mult:
        raise Mismatch("subspace dims %s do not sum to the stable "
                       "multiplicity %d" % ([s.dim for _, s in parts], mult))
    detail = model.lowering_split_check(w, eta, lam=lam)
    return {
        "degree": weight(lam),
        "mult": mult,
        "labels": [[weight(mu), sub.dim] for mu, sub in parts],
        "block_dim": detail["block_dim"],
        "central_dim": detail["central_dim"],
    }


def saturate_pair(ctx, inp):
    """Stratum recovery (anchored at z) and the y-anchored saturation
    chain of one Bruhat pair of A2 at one degree."""
    model = ctx["model"]
    g = model.group
    y, z = g.parse(inp["y"]), g.parse(inp["z"])
    nu, bound = tuple(inp["nu"]), inp["bound"]
    wy, wz, by_z = model.stratum_of(y, z, nu, bound=bound)
    by_y = model.saturation(y, z, nu, bound, by="y")
    _, maximal, minimal = model.support_extremes(by_z.final)
    return {
        "dims_z": by_z.dims,
        "dims_y": by_y.dims,
        "stabilized": [by_z.stabilized, by_y.stabilized],
        "same_final": by_z.final == by_y.final,
        "max": [weight(mu) for mu in maximal],
        "min": [weight(mu) for mu in minimal],
        "pair": [word(wy), word(wz)],
    }


def commutation_cell(ctx, inp):
    """Every q-commutation congruence of A2 between degrees nu and lam."""
    model = ctx["model"]
    nu, lam = tuple(inp["nu"]), tuple(inp["lam"])
    lines = 0
    for mu in model.module(nu).block_order:
        for eta in model.module(lam).block_order:
            if model.check_commutation(nu, mu, lam, eta) is not True:
                raise Mismatch("check_commutation did not return True")
            lines += 1
    return {"lines": lines}


def pair_poset(ctx, inp):
    """The whole pair poset of a type: its comparable pairs, found by a
    cold Bruhat query for every (y, z)."""
    poset = strata.DiamondPoset(ctx["groups"][inp["type"]])
    pairs = [[word(y), word(z)] for y, z in poset.pairs]
    return {"pairs": len(pairs), "sha256": digest(pairs)}


def anchored_document(ctx, inp):
    """An anchored pair poset's JSON document, the bytes ``qbruhat strata
    build --type T --anchor W`` prints, and the histogram of its ranks."""
    g = ctx["groups"][inp["type"]]
    poset = strata.DiamondPoset(g, anchor=g.parse(inp["anchor"]))
    doc = poset.to_json() + "\n"
    ranks = {}
    for r in poset.rank_table():
        ranks[str(r)] = ranks.get(str(r), 0) + 1
    return {"pairs": len(poset),
            "sha256": hashlib.sha256(doc.encode()).hexdigest(),
            "ranks": ranks}


def centre_rows(ctx, inp):
    """The centre table of one type: word, dimension and generators."""
    rows = [[word(w), data.dim, data.generators()]
            for w, data in centre.centre_table(inp["type"])]
    return {"elements": len(rows), "sha256": digest(rows)}


def cone_character(ctx, inp):
    """Truncated cone character of one element."""
    g = ctx["groups"][inp["type"]]
    ch = characters.cell_translate_character(g, g.parse(inp["w"]),
                                             inp["depth"])
    terms = sorted([weight(mu), c] for mu, c in ch.terms.items())
    return {"terms": len(terms), "sha256": digest(terms)}


RUNNERS = {
    "eigen": eigen_block,
    "saturate": saturate_pair,
    "commutation": commutation_cell,
    "poset": pair_poset,
    "strata": anchored_document,
    "centre": centre_rows,
    "character": cone_character,
}


# -- item order ---------------------------------------------------------


def ordered_items(items, seed):
    """The seed's permutation of the stored items.  Items of each kind
    are shuffled among themselves and the kinds keep their stored order,
    so the commutation grid still runs after the saturation pairs."""
    rng = random.Random(seed)
    groups = {}
    for item in items:
        groups.setdefault(item["kind"], []).append(item)
    out = []
    for kind in dict.fromkeys(item["kind"] for item in items):
        block = list(groups[kind])
        rng.shuffle(block)
        out.extend(block)
    return out


def run_item(ctx, item):
    """Run one item; returns None on success, else a one-line reason."""
    try:
        got = RUNNERS[item["kind"]](ctx, item["input"])
    except Exception as err:
        return "%s %s raised %s: %s" % (item["kind"], json.dumps(
            item["input"]), type(err).__name__, err)
    if got != item["expect"]:
        return "%s %s gave %s, expected %s" % (
            item["kind"], json.dumps(item["input"]), json.dumps(got),
            json.dumps(item["expect"]))
    return None
