"""Centre dimensions of the cell algebras and the bookkeeping behind
their generators."""

import itertools

import pytest

from qbruhat.cartan import build_cartan
from qbruhat.centre import (centrality_exponent, centre_of, centre_table,
                            distinguishing_scan, full_centre_rank)
from qbruhat.weyl import WeylElem, WeylGroup, format_word
from oracles import per_element_centre

A2_TABLE = {
    "e": (1, ["z[w1+w2]"]),
    "s1": (0, []),
    "s2": (0, []),
    "s1 s2": (0, []),
    "s2 s1": (0, []),
    "s1 s2 s1": (1, ["z[w1+w2]^-1"]),
}

B2_TABLE = {
    "e": (2, ["z[w1]", "z[w2]"]),
    "s1": (1, ["z[w2]"]),
    "s2": (1, ["z[w1]"]),
    "s1 s2": (0, []),
    "s2 s1": (0, []),
    "s1 s2 s1": (1, ["z[w1]^-1"]),
    "s2 s1 s2": (1, ["z[w2]^-1"]),
    "s1 s2 s1 s2": (2, ["z[w1]^-1", "z[w2]^-1"]),
}


def table_as_dict(label):
    return {format_word(w.word): (data.dim, data.generators())
            for w, data in centre_table(label)}


def test_a2_table_frozen():
    assert table_as_dict("A2") == A2_TABLE


def test_b2_table_frozen():
    assert table_as_dict("B2") == B2_TABLE


def test_a2_pairs_in_involution():
    # the A2 diagram involution pairs the two nodes, so each extreme
    # cell draws its whole centre from the combined weight
    group = WeylGroup.build("A2")
    data = centre_of(group, group.identity)
    assert data.minus_paired == [(0, 1)]
    assert data.minus_fixed == []
    assert data.generators() == ["z[w1+w2]"]


def test_full_centre_ranks():
    assert full_centre_rank("A1") == 1
    assert full_centre_rank("A2") == 1
    assert full_centre_rank("A3") == 2
    assert full_centre_rank("B2") == 2
    assert full_centre_rank("B3") == 3


def centre_by_action(group, w):
    """The four contributing lists, with each condition tested by acting
    on fundamental weights."""
    datum = group.datum
    theta = group.theta()
    w0 = group.longest
    fixed = [i for i in range(datum.rank) if theta[i] == i]
    paired = [(i, theta[i]) for i in range(datum.rank) if theta[i] > i]

    def fixes(i):
        return w.act(datum.fund(i)) == datum.fund(i)

    def as_w0(i):
        return w.act(datum.fund(i)) == w0.act(datum.fund(i))

    return ([i for i in fixed if fixes(i)],
            [(i, j) for i, j in paired if fixes(i) and fixes(j)],
            [i for i in fixed if as_w0(i)],
            [(i, j) for i, j in paired if as_w0(i) and as_w0(j)])


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "B3", "C3", "D4",
                                   "D5", "G2", "F4"])
def test_centre_of_against_action(label):
    group = WeylGroup.build(label)
    for w in group.elements:
        data = centre_of(group, w)
        got = (data.minus_fixed, data.minus_paired, data.plus_fixed,
               data.plus_paired)
        assert got == centre_by_action(group, w), format_word(w.word)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3",
                                   "B4", "C3", "D4", "G2", "F4"])
def test_centre_of_matches_per_element_oracle(label):
    """The orbit lists kept once per pair of support masks are those
    worked out for each element alone."""
    group = WeylGroup.build(label)
    for w in group.elements:
        data = centre_of(group, w)
        got = (data.minus_fixed, data.minus_paired, data.plus_fixed,
               data.plus_paired)
        assert got == per_element_centre(group, w), format_word(w.word)


def test_centre_of_does_not_act(monkeypatch):
    group = WeylGroup.build("D5")
    group.theta()

    def acted(*args):
        raise AssertionError("WeylElem.act called")

    monkeypatch.setattr(WeylElem, "act", acted)
    dims = [centre_of(group, w).dim for w in group.elements]
    assert dims.count(full_centre_rank("D5")) == 2


def test_a3_middle_dims_are_smaller():
    table = centre_table("A3")
    group = WeylGroup.build("A3")
    extremes = {group.identity.idx, group.longest.idx}
    for w, data in table:
        if w.idx in extremes:
            assert data.dim == 2
        else:
            assert data.dim < 2


def test_scan_passes_and_reports():
    report = distinguishing_scan()
    assert [r["type"] for r in report] == ["A1", "A2", "A3", "B2", "B3"]
    for r in report:
        assert r["max_middle_dim"] < r["extreme_dim"]
    orders = {r["type"]: r["order"] for r in report}
    assert orders == {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48}


@pytest.mark.parametrize("label", ["A1", "B2", "B3"])
def test_exponent_sum_vanishes_when_degree_is_negated(label):
    # in these types the longest element negates every weight, so the
    # paired rows commute past everything on the nose
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    grid = list(itertools.product(range(-1, 2), repeat=datum.rank))
    for nu in itertools.product(range(3), repeat=datum.rank):
        for lam in grid:
            for mu in grid:
                top, bottom, total = centrality_exponent(
                    datum, group, nu, lam, mu)
                assert total == 0


def test_exponent_rejects_unpaired_degree():
    datum = build_cartan("A2")
    group = WeylGroup.build(datum)
    with pytest.raises(ValueError):
        centrality_exponent(datum, group, (1, 0), (0, 0), (0, 0))


def test_a2_combined_degree_is_negated():
    # the combined weight of the paired nodes does admit the central
    # pairing even though single fundamental weights do not
    datum = build_cartan("A2")
    group = WeylGroup.build(datum)
    for lam in [(0, 0), (1, 0), (2, 1)]:
        for mu in [(0, 0), (0, 1), (1, 1)]:
            _, _, total = centrality_exponent(datum, group, (1, 1), lam, mu)
            assert total == 0
