"""Formal characters: Weyl, Demazure, and truncated cell cones."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest

from qbruhat.cartan import CartanDatum, _invert_rational, build_cartan
from qbruhat.characters import (FormalCharacter, cell_translate_character,
                                character_to_json, demazure_character,
                                demazure_step, weight_multiplicity,
                                weyl_character, weyl_dim)
from qbruhat.weyl import WeylElem, WeylGroup

import json


WEYL_DIMS = [
    ("A1", (1,), 2),
    ("A1", (3,), 4),
    ("A2", (1, 0), 3),
    ("A2", (1, 1), 8),
    ("A2", (2, 2), 27),
    ("A2", (3, 0), 10),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B2", (1, 1), 16),
    ("B2", (0, 2), 10),
    ("B2", (2, 0), 14),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("A3", (1, 0, 0), 4),
    ("A3", (0, 1, 0), 6),
    ("A3", (1, 0, 1), 15),
]


@pytest.mark.parametrize("label,lam,dim", WEYL_DIMS)
def test_weyl_dim_frozen(label, lam, dim):
    assert weyl_dim(build_cartan(label), lam) == dim


def test_weyl_dim_raises_on_a_fractional_product():
    """The divisibility check raises under ``python -O`` too, naming lam."""
    datum = CartanDatum("A1", "A", 1)
    rho = datum.rho()
    with mock.patch.object(datum, "inner", lambda mu, nu:
                           Fraction(2) if mu == rho else Fraction(3)):
        with pytest.raises(AssertionError,
                           match=r"^dimension product for \(1,\) is 3/2"):
            weyl_dim(datum, (1,))


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_character_mass_equals_dim(label):
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    for lam in itertools.product(range(3), repeat=2):
        ch = weyl_character(datum, group, lam)
        assert ch.mass() == weyl_dim(datum, lam)


def test_character_weyl_invariant():
    datum = build_cartan("B2")
    group = WeylGroup.build(datum)
    ch = weyl_character(datum, group, (1, 1))
    for w in group.elements:
        for mu, c in ch.terms.items():
            assert ch.coefficient(w.act(mu)) == c


def test_weight_multiplicities_adjoint():
    datum = build_cartan("A2")
    group = WeylGroup.build(datum)
    assert weight_multiplicity(datum, group, (1, 1), (0, 0)) == 2
    assert weight_multiplicity(datum, group, (1, 1), (2, -1)) == 1
    assert weight_multiplicity(datum, group, (1, 1), (3, 0)) == 0


def test_demazure_step_monomials():
    datum = build_cartan("A2")
    start = FormalCharacter.monomial(datum, (2, -1))  # pairing 2 with alpha1
    out = demazure_step(start, 0)
    assert out.coefficient((2, -1)) == 1
    assert out.coefficient((0, 0)) == 1
    assert out.coefficient((-2, 1)) == 1
    assert out.mass() == 3
    # pairing -1 kills the monomial
    gone = demazure_step(FormalCharacter.monomial(datum, (-1, 1)), 0)
    assert gone.mass() == 0


def test_demazure_step_idempotent():
    datum = build_cartan("B2")
    group = WeylGroup.build(datum)
    ch = demazure_character(datum, group.parse("s1 s2"), (1, 1))
    for i in range(2):
        once = demazure_step(ch, i)
        assert demazure_step(once, i) == once


def test_demazure_masses_adjoint():
    datum = build_cartan("A2")
    group = WeylGroup.build(datum)
    masses = [demazure_character(datum, w, (1, 1)).mass()
              for w in group.sorted_elements()]
    assert masses == [1, 2, 2, 5, 5, 8]


def test_demazure_extremes():
    datum = build_cartan("B2")
    group = WeylGroup.build(datum)
    lam = (1, 1)
    bottom = demazure_character(datum, group.identity, lam)
    assert bottom.terms == {lam: 1}
    top = demazure_character(datum, group.longest, lam)
    assert top == weyl_character(datum, group, lam)


def test_demazure_monotone_in_bruhat():
    datum = build_cartan("A2")
    group = WeylGroup.build(datum)
    lam = (2, 1)
    chars = {w.idx: demazure_character(datum, w, lam)
             for w in group.elements}
    for y in group.elements:
        for z in group.elements:
            if group.bruhat_leq(y, z):
                for mu, c in chars[y.idx].terms.items():
                    assert chars[z.idx].coefficient(mu) >= c


def test_cell_character_translates():
    datum = build_cartan("A2")
    group = WeylGroup.build(datum)
    w = group.parse("s1 s2")
    ch = cell_translate_character(group, w, 4)
    # the cone over w(negative roots) starts at zero
    assert ch.coefficient((0, 0)) == 1
    cone = [w.act(datum.root_to_fund(tuple(-c for c in rc)))
            for rc in datum.positive_roots]
    for mu in cone:
        assert ch.coefficient(mu) >= 1
    for mu in ch.terms:
        assert datum.depth(mu) <= 4


def depth_filtered_cone(group, w, depth):
    """The budgeted enumeration with each term's depth computed from the
    Fraction-valued inverse Cartan matrix: the reference for the integer
    root coordinates behind ``datum.depth``."""
    datum = group.datum
    roots = sorted(w.act(datum.neg(datum.root_to_fund(rc)))
                   for rc in datum.positive_roots)
    wrho = w.act(datum.rho())
    costs = [int(-datum.inner(wrho, gamma)) for gamma in roots]
    cap = depth * max(abs(int(datum.inner(wrho, datum.simple_root(i))))
                      for i in range(datum.rank))
    counts = {datum.zero(): 1}
    budget = {datum.zero(): 0}
    for gamma, cost in zip(roots, costs):
        new = dict(counts)
        cur = counts
        while cur:
            nxt = {}
            for mu, c in cur.items():
                if budget[mu] + cost <= cap:
                    mu2 = datum.add(mu, gamma)
                    budget[mu2] = budget[mu] + cost
                    nxt[mu2] = nxt.get(mu2, 0) + c
            for mu, c in nxt.items():
                new[mu] = new.get(mu, 0) + c
            cur = nxt
        counts = new
    inv = _invert_rational(datum.cartan)

    def fraction_depth(mu):
        return sum(abs(sum(x * m for x, m in zip(row, mu))) for row in inv)

    return {mu: c for mu, c in counts.items() if fraction_depth(mu) <= depth}


@pytest.mark.parametrize("label,depth", [("A2", 6), ("B2", 5), ("G2", 4),
                                         ("A3", 4), ("B3", 2), ("C3", 2)])
def test_cell_character_matches_depth_oracle(label, depth):
    group = WeylGroup.build(build_cartan(label))
    for w in group.elements:
        ch = cell_translate_character(group, w, depth)
        # same terms in the same insertion order
        assert list(ch.terms.items()) == list(
            depth_filtered_cone(group, w, depth).items())


def test_cell_character_walk_stays_in_root_coordinates(monkeypatch):
    datum = build_cartan("B3")
    group = WeylGroup.build(datum)
    expect = {w.idx: cell_translate_character(group, w, 3).terms
              for w in group.elements}

    def forbidden(*args):
        raise AssertionError("fundamental-coordinate helper called")

    for name in ("add", "depth", "inner"):
        monkeypatch.setattr(datum, name, forbidden)
    monkeypatch.setattr(WeylElem, "act", forbidden)
    for w in group.elements:
        assert cell_translate_character(group, w, 3).terms == expect[w.idx]


def test_character_json():
    datum = build_cartan("A2")
    group = WeylGroup.build(datum)
    ch = cell_translate_character(group, group.identity, 3)
    doc = json.loads(character_to_json(ch, "A2", "e", 3))
    assert doc["schema"] == "qbruhat/char-v1"
    assert doc["type"] == "A2"
    assert doc["w"] == "e"
    assert doc["depth"] == 3
    total = sum(entry["coeff"] for entry in doc["terms"])
    assert total == ch.mass()

