"""Diamond posets of Bruhat-comparable pairs."""

import hashlib
import json

import pytest

from qbruhat.cartan import build_cartan
from qbruhat.emit import json_document, strata_document
from qbruhat.strata import DiamondPoset, order_isomorphic
from qbruhat.weyl import WeylGroup, format_word
from oracles import (all_pairs_filter, dict_strata_json, inverse_product,
                     level_scan_covers)


def build_poset(label, anchor_text=None):
    group = WeylGroup.build(label)
    anchor = group.parse(anchor_text) if anchor_text else None
    return DiamondPoset(group, anchor=anchor)


def brute_pairs(group):
    out = []
    for y in group.elements:
        for z in group.elements:
            if group.bruhat_leq(y, z):
                out.append((y, z))
    return out


def test_pair_counts(a2_group, b2_group):
    assert len(DiamondPoset(a2_group)) == 19
    assert len(DiamondPoset(a2_group)) == len(brute_pairs(a2_group))
    assert len(DiamondPoset(b2_group)) == len(brute_pairs(b2_group))


def test_a1_has_three_pairs():
    poset = build_poset("A1")
    assert len(poset) == 3


def test_anchor_restriction(a2_group):
    w = a2_group.parse("s1 s2")
    poset = DiamondPoset(a2_group, anchor=w)
    for (y, z) in poset.pairs:
        assert a2_group.bruhat_leq(y, w)
        assert a2_group.bruhat_leq(w, z)
    assert len(poset) == 8


def test_geq_is_interval_reversal(a2_group):
    poset = DiamondPoset(a2_group)
    for i, (y1, z1) in enumerate(poset.pairs):
        for j, (y2, z2) in enumerate(poset.pairs):
            expect = (a2_group.bruhat_leq(y1, y2)
                      and a2_group.bruhat_leq(z2, z1))
            assert poset.geq(i, j) == expect


def geq_scan_closure(poset, i):
    """Indices of all pairs below pairs[i], by testing every pair."""
    return [j for j in range(len(poset)) if poset.geq(i, j)]


@pytest.mark.parametrize("label,anchor", [
    ("A2", None), ("B2", None), ("G2", None), ("A3", None),
    ("A3", "s2"), ("B3", "s1 s2"), ("A4", "s1 s2 s1"),
])
def test_closure_matches_geq_scan(label, anchor):
    group = WeylGroup.build(build_cartan(label))
    poset = DiamondPoset(group, anchor=group.parse(anchor) if anchor
                         else None)
    for i in range(len(poset)):
        assert poset.closure(i) == geq_scan_closure(poset, i)


@pytest.mark.parametrize("label,anchor", [
    ("A2", None), ("B2", None), ("G2", None), ("A3", None), ("A4", None),
    ("A2", "e"), ("A2", "s1"), ("A2", "s2 s1"), ("A2", "s1 s2 s1"),
    ("B2", "s2"), ("B2", "s1 s2 s1"), ("G2", "s1 s2"), ("A3", "s1 s3"),
    ("A4", "s1 s2 s1"), ("B3", "s1 s2"), ("F4", "s1"),
])
def test_pairs_match_all_pairs_filter(label, anchor):
    # a group of its own, so the oracle's Bruhat memo is dropped after
    group = WeylGroup(build_cartan(label))
    a = group.parse(anchor) if anchor else None
    assert DiamondPoset(group, anchor=a).pairs == all_pairs_filter(group, a)


def level_scan_hasse_edges(poset):
    """The product-cover rule on covers found by scanning length levels."""
    lower, upper = level_scan_covers(poset.group)
    pos = {(y.idx, z.idx): k for k, (y, z) in enumerate(poset.pairs)}
    edges = []
    for i, (y, z) in enumerate(poset.pairs):
        below = [(y.idx, u) for u in lower[z.idx]]
        below += [(v, z.idx) for v in upper[y.idx]]
        edges.extend((i, j) for j in sorted(pos[key] for key in below
                                            if key in pos))
    return edges


@pytest.mark.parametrize("label,anchor", [
    ("B3", None), ("D4", "s2"), ("F4", "s1"),
])
def test_hasse_edges_match_level_scan(label, anchor):
    group = WeylGroup.build(build_cartan(label))
    poset = DiamondPoset(group, anchor=group.parse(anchor) if anchor
                         else None)
    assert poset.hasse_edges() == level_scan_hasse_edges(poset)


def test_poset_build_makes_no_bruhat_query(monkeypatch):
    group = WeylGroup(build_cartan("A3"))

    def queried(*args):
        raise AssertionError("bruhat_leq called")

    monkeypatch.setattr(group, "bruhat_leq", queried)
    for anchor in (None, group.parse("s2 s1")):
        poset = DiamondPoset(group, anchor=anchor)
        assert poset.hasse_edges()


def test_closure_is_downward_set(a2_group):
    poset = DiamondPoset(a2_group)
    for i in range(len(poset)):
        closed = set(poset.closure(i))
        assert i in closed
        for j in range(len(poset)):
            assert (j in closed) == poset.geq(i, j)


def test_hasse_edges_are_covers(a2_group):
    poset = DiamondPoset(a2_group)
    edges = set(poset.hasse_edges())
    for i, j in edges:
        assert poset.geq(i, j) and i != j
        for k in range(len(poset)):
            if k in (i, j):
                continue
            # nothing strictly between a cover
            assert not (poset.geq(i, k) and poset.geq(k, j))
    # transitive closure of the edges recovers geq
    n = len(poset)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            for c in range(n):
                if reach[c][a] and not reach[c][b]:
                    reach[c][b] = True
                    changed = True
    for i in range(n):
        for j in range(n):
            assert reach[i][j] == poset.geq(i, j)


def closure_hasse_edges(poset):
    """Covers by brute force: j is covered by i when nothing else in the
    closure of i lies strictly above j.  O(n^3) in pairs; the reference
    for the product-cover rule."""
    n = len(poset)
    down = [set(poset.closure(i)) - {i} for i in range(n)]
    edges = []
    for i in range(n):
        for j in sorted(down[i]):
            if not any(j in down[k] for k in down[i]):
                edges.append((i, j))
    return edges


@pytest.mark.parametrize("label,anchor", [
    ("A2", None), ("B2", None), ("G2", None), ("A3", None),
    ("B3", "s1 s2"), ("A4", "s1 s2 s1"),
])
def test_hasse_edges_match_closure_oracle(label, anchor):
    group = WeylGroup.build(build_cartan(label))
    poset = DiamondPoset(group, anchor=group.parse(anchor) if anchor
                         else None)
    assert poset.hasse_edges() == closure_hasse_edges(poset)


def test_stratum_ranks_a2(a2_group):
    poset = DiamondPoset(a2_group)
    e = a2_group.identity
    w0 = a2_group.longest
    assert poset.stratum_rank(poset.index(e, e)) == 2
    assert poset.stratum_rank(poset.index(w0, w0)) == 2
    # y^-1 z = w0 is a reflection in this type, so one lattice line
    # survives on the widest interval
    assert poset.stratum_rank(poset.index(e, w0)) == 1
    s1 = a2_group.parse("s1")
    s12 = a2_group.parse("s1 s2")
    assert poset.stratum_rank(poset.index(s1, s12)) == 1
    assert poset.stratum_rank(poset.index(e, s12)) == 0


def test_stratum_ranks_b2(b2_group):
    poset = DiamondPoset(b2_group)
    e = b2_group.identity
    w0 = b2_group.longest
    # minus the identity acts freely on the lattice
    assert poset.stratum_rank(poset.index(e, w0)) == 0
    assert poset.stratum_rank(poset.index(e, e)) == 2


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_rank_table_against_formula(label, a2_group, b2_group):
    group = a2_group if label == "A2" else b2_group
    poset = DiamondPoset(group)
    table = poset.rank_table()
    assert len(table) == len(poset)
    for i, (y, z) in enumerate(poset.pairs):
        u = y.inverse() * z
        assert table[i] == group.rank - group.reflection_length(u)
        assert table[i] == group.fixed_space_rank(u)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3",
                                   "B4", "C3", "D4", "G2", "F4"])
def test_left_quotient_matches_inverse_product(label):
    """On every comparable pair, the one walk of y's word from z lands on
    y^-1 z as the inverse times z, and the rank table reads its fixed
    space."""
    group = WeylGroup.build(label)
    poset = DiamondPoset(group)
    oracle = [inverse_product(y, z) for y, z in poset.pairs]
    assert [group.left_quotient(y, z) for y, z in poset.pairs] == oracle
    assert poset.rank_table() == [group.fixed_space_rank(u) for u in oracle]


def test_json_document(a2_group):
    poset = DiamondPoset(a2_group)
    doc = json.loads(poset.to_json())
    assert doc["schema"] == "qbruhat/strata-v1"
    assert len(doc["pairs"]) == 19
    first = doc["pairs"][0]
    assert set(first) >= {"y", "z", "rank"}
    assert poset.to_json() == poset.to_json()


@pytest.mark.parametrize("label,anchor", [
    ("A1", None), ("A2", None), ("B2", None), ("G2", None), ("A3", None),
    ("B3", None), ("C3", None), ("A4", "s1 s2 s1"), ("D4", "s2"),
    ("F4", "s3 s2 s1"),
])
def test_to_json_matches_dict_oracle(label, anchor):
    poset = build_poset(label, anchor)
    assert poset.to_json() == dict_strata_json(poset)


def test_f4_document_pinned():
    """The F4 document anchored at s1 s2 s3, as the json.dumps writer
    gave it: 8 064 pairs, 2 768 431 bytes."""
    poset = build_poset("F4", "s1 s2 s3")
    text = poset.to_json()
    assert (len(poset), len(text)) == (8064, 2768431)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8c66fa97a474fa55c9d982501c266b18820223d3ebab461decb40e5fc975442c")


@pytest.mark.parametrize("anchor", [None, "s1", "caf\u00e9 \"q\"\\"],
                         ids=["null", "word", "escaped"])
@pytest.mark.parametrize("pairs,edges", [
    ([], []), ([(2, "e", "e")], []), ([], [(0, 1)]),
    ([(2, "e", "s1"), (1, "s1", "s1 s2")], [(0, 1), (10, 200)]),
    ([(0, "caf\u00e9", "\"q\"\\"), (1, "\"q\"\\", "caf\u00e9")], [(1, 0)]),
], ids=["empty", "no-edges", "no-pairs", "both", "escaped-words"])
def test_strata_document_matches_json_dumps(anchor, pairs, edges):
    """Empty lists, a null anchor and strings that need escaping come
    out as json.dumps writes them."""
    doc = {"schema": "qbruhat/strata-v1", "type": "\u00c96", "anchor": anchor,
           "pairs": [{"y": y, "z": z, "rank": r} for r, y, z in pairs],
           "edges": [[i, j] for i, j in edges]}
    # each word once under an int key, as DiamondPoset passes them
    keys = {}
    for _, y, z in pairs:
        keys.setdefault(y, len(keys))
        keys.setdefault(z, len(keys))
    texts = {k: text for text, k in keys.items()}
    assert strata_document(doc["schema"], doc["type"], anchor, texts,
                           ((r, keys[y], keys[z]) for r, y, z in pairs),
                           iter(edges)) == json_document(doc)


def test_dot_output(a2_group):
    text = DiamondPoset(a2_group).to_dot()
    assert text.startswith("digraph")
    assert text.rstrip().endswith("}")
    assert text.count("->") == len(DiamondPoset(a2_group).hasse_edges())


def test_csv_output(a2_group):
    lines = DiamondPoset(a2_group).to_csv().strip().splitlines()
    assert lines[0] == "y,z,rank"
    assert len(lines) == 20


def test_order_isomorphism_reflexive(a2_group, b2_group):
    pa = DiamondPoset(a2_group)
    pb = DiamondPoset(b2_group)
    assert order_isomorphic(pa, pa)
    assert order_isomorphic(pb, pb)
    assert not order_isomorphic(pa, pb)


def test_order_isomorphism_between_anchors(a2_group):
    # the two rank-two anchored posets of the hexagon are mirror images
    left = DiamondPoset(a2_group, anchor=a2_group.parse("s1 s2"))
    right = DiamondPoset(a2_group, anchor=a2_group.parse("s2 s1"))
    assert order_isomorphic(left, right)
    # a chain crossed with a diamond, whichever side carries which
    assert order_isomorphic(left, DiamondPoset(a2_group,
                                               anchor=a2_group.parse("s1")))
    smaller = DiamondPoset(a2_group, anchor=a2_group.identity)
    assert len(smaller) == 6
    assert not order_isomorphic(left, smaller)


def test_pairs_sorted_deterministically(a2_group):
    poset = DiamondPoset(a2_group)
    keys = [(y.length, y.word, z.length, z.word) for (y, z) in poset.pairs]
    assert keys == sorted(keys)
    names = [(format_word(y.word), format_word(z.word))
             for (y, z) in poset.pairs]
    assert names[0] == ("e", "e")
