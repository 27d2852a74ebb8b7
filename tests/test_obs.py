"""The memo contract: one computation per canonical key, errors never
cached, instance tables that die with the instance, and no cache kept
any other way in the library."""

import gc
import re
import weakref
from pathlib import Path

import pytest

from qbruhat import (cartan, centre, characters, coordring, exactalg,
                     uqmodules, weyl)
from qbruhat.cartan import build_cartan
from qbruhat.characters import weyl_character
from qbruhat.coordring import CoordinateModel
from qbruhat.exactalg import parse_laurent
from qbruhat.obs import memo
from qbruhat.uqmodules import GradedPiece, ModuleScopeError, build_irrep
from qbruhat.weyl import WeylElem, WeylGroup

SRC = Path(__file__).resolve().parent.parent / "src" / "qbruhat"


def _group_case(call, owner, attr):
    group = WeylGroup(build_cartan("B3"))
    return (lambda: call(group),) * 2 + (owner, attr)


def _word_case():
    group = WeylGroup(build_cartan("B3"))
    return (lambda: group.longest.word,
            lambda: group.elements[group.longest.idx].word, WeylGroup,
            "_first_descent")


def _orbit_case():
    a, b = WeylGroup(build_cartan("B3")), WeylGroup(build_cartan("b3"))
    return (lambda: centre._orbit_lists(a, 1, 4),
            lambda: centre._orbit_lists(b, 1, 4), WeylGroup, "theta")


def _model_case(call_a, call_b, owner, attr):
    model = CoordinateModel("A2")
    g = model.group
    return (lambda: call_a(model, g), lambda: call_b(model, g), owner, attr)


def _cancel_case():
    def call():
        return exactalg._cancel_nonunits(parse_laurent("2 + 3*q + q^2"),
                                         parse_laurent("1 - q^2"))
    return call, call, exactalg, "_poly_gcd"


def _a2():
    return build_cartan("A2"), WeylGroup.build("A2")


# each case: (first call, an equal call spelled differently, owner and
# name of the work the first call does, which must not run again)
MEMOS = {
    "build_cartan": lambda: (
        lambda: build_cartan("c4"), lambda: build_cartan("C4"),
        cartan, "CartanDatum"),
    "WeylGroup.build": lambda: (
        lambda: WeylGroup.build("c4"),
        lambda: WeylGroup.build(build_cartan("C4")),
        WeylGroup, "__init__"),
    "_cancel_nonunits": _cancel_case,
    "word": _word_case,
    "fixed_space_rank": lambda: _group_case(
        lambda g: g.fixed_space_rank(g.longest), weyl, "_integer_rank"),
    "cover_lists": lambda: _group_case(
        lambda g: g.cover_lists(), WeylGroup, "_first_descent"),
    "sorted_cover_lists": lambda: _group_case(
        lambda g: g.sorted_cover_lists(), WeylGroup, "cover_lists"),
    "_orbit_lists": _orbit_case,
    "sorted_elements": lambda: _group_case(
        lambda g: g.sorted_elements(), WeylElem, "word"),
    "weyl_character": lambda: (
        lambda: weyl_character(*_a2(), [5, 4]),
        lambda: weyl_character(*_a2(), (5, 4)),
        characters, "demazure_character"),
    "build_irrep": lambda: (
        lambda: build_irrep(build_cartan("A2"), [3, 1]),
        lambda: build_irrep(build_cartan("a2"), (3, 1)),
        uqmodules, "_build_irrep_inner"),
    "CoordinateModel.get": lambda: (
        lambda: CoordinateModel.get("a1"), lambda: CoordinateModel.get("A1"),
        CoordinateModel, "__init__"),
    "pair_table": lambda: _model_case(
        lambda m, g: m.pair_table([1, 0], [0, 1]),
        lambda m, g: m.pair_table((1, 0), (0, 1)),
        CoordinateModel, "iota_vectors"),
    "closure": lambda: _model_case(
        lambda m, g: m.closure(g.gens[1], "-", [2, 1]),
        lambda m, g: m.closure(g.gens[1], "-", (2, 1)),
        coordring, "demazure_blocks"),
    # demazure_orth keeps no table: it fills and reads pair_piece's
    "demazure_orth": lambda: _model_case(
        lambda m, g: m.demazure_orth(g.gens[0], "+", [1, 1]),
        lambda m, g: m.pair_piece(g.identity, g.gens[0], (1, 1)),
        CoordinateModel, "closure"),
    "pair_piece": lambda: _model_case(
        lambda m, g: m.pair_piece(g.gens[0], g.longest, [1, 1]),
        lambda m, g: m.pair_piece(g.gens[0], g.longest, (1, 1)),
        CoordinateModel, "closure"),
    "left_ideal_piece": lambda: _model_case(
        lambda m, g: m.left_ideal_piece([1, 0], [-1, 1], "+", [0, 1]),
        lambda m, g: m.left_ideal_piece((1, 0), (-1, 1), "+", (0, 1)),
        GradedPiece, "from_rows"),
    "saturation": lambda: _model_case(
        lambda m, g: m.saturation(g.identity, g.gens[0], [1, 0], 1),
        lambda m, g: m.saturation(g.identity, g.gens[0], (1, 0), 1, by="z"),
        CoordinateModel, "pair_piece"),
    "twisted_decomposition": lambda: _model_case(
        lambda m, g: m.twisted_decomposition(g.gens[1], [0, 0], lam=[1, 1]),
        lambda m, g: m.twisted_decomposition(g.gens[1], (0, 0), (1, 1)),
        CoordinateModel, "twisted_conj_block"),
}


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_each_memo_computes_once_per_key(name, monkeypatch):
    """A second call, with lists where the first had tuples or another
    spelling of the type label, is answered without the work the first
    call did."""
    first_call, equal_call, owner, attr = MEMOS[name]()
    first = first_call()

    def again(*args, **kwargs):
        raise AssertionError("%s ran again for a memoised key" % attr)

    if isinstance(vars(owner).get(attr), property):
        again = property(again)
    monkeypatch.setattr(owner, attr, again)
    second = equal_call()
    if name in ("sorted_elements", "twisted_decomposition"):
        # these hand out a fresh list each call
        assert second == first and second is not first
    else:
        assert second is first


def test_a_raising_call_is_not_cached():
    calls = []

    @memo(lambda x: x)
    def flaky(x):
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return [x]

    with pytest.raises(ValueError):
        flaky(1)
    assert flaky(1) == [1]
    assert flaky(1) is flaky(1)
    assert calls == [1, 1]


def test_an_out_of_scope_module_is_tried_each_time(monkeypatch):
    calls = []
    real = uqmodules._build_irrep_inner

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(uqmodules, "_build_irrep_inner", counted)
    for _ in range(2):
        with pytest.raises(ModuleScopeError, match="exceeds the cap 400"):
            build_irrep(build_cartan("B2"), (9, 9))
    assert calls == [(9, 9), (9, 9)]


class _Box:
    def __init__(self):
        self.calls = 0

    @memo(lambda self, n: n)
    def square(self, n):
        self.calls += 1
        return n * n

    @memo()
    def ident(self):
        self.calls += 1
        return object()


def test_method_tables_live_on_the_instance():
    a, b = _Box(), _Box()
    assert a.square(3) == a.square(3) == b.square(3) == 9
    assert a.ident() is a.ident()
    assert a.ident() is not b.ident()
    assert (a.calls, b.calls) == (2, 2)
    gone = weakref.ref(a)
    del a
    gc.collect()
    assert gone() is None


def test_labels_are_canonical():
    assert build_cartan("a2") is build_cartan("A2")
    assert CoordinateModel.get("a2") is CoordinateModel.get("A2")
    assert WeylGroup.build("b2") is WeylGroup.build(build_cartan("B2"))
    assert WeylGroup.build("b2").datum is build_cartan("B2")
    assert CoordinateModel.get("a2").datum is build_cartan("A2")


def test_no_cache_outside_memo():
    """No module-level ``_CACHE`` table and no ``self._x = {}`` cache in
    the library, apart from the Bruhat path table."""
    caches, dicts = [], []
    for path in sorted(SRC.glob("*.py")):
        for num, line in enumerate(path.read_text().splitlines(), 1):
            where = "%s:%d" % (path.name, num)
            if "_CACHE" in line:
                caches.append(where)
            if re.search(r"self\._\w+\s*=\s*(\{\}|dict\(\))", line):
                dicts.append((where, line.strip()))
    assert caches == []
    assert [line for _, line in dicts] == ["self._bruhat = {}"]
    assert dicts[0][0].startswith("weyl.py:")
