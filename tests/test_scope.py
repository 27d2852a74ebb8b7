"""The supported scope: one table, read by every layer and by the command
line, which refuses an out-of-scope type before any group is built."""

import ast
import itertools
import pathlib
import sys
from types import SimpleNamespace

import pytest

import qbruhat
from qbruhat import coordring, uqmodules, weyl
from qbruhat.cartan import (SCOPE, ModuleScopeError, build_cartan,
                            check_scope, group_order)
from qbruhat.characters import cell_translate_character, check_depth
from qbruhat.cli import main
from qbruhat.coordring import CoordinateModel
from qbruhat.strata import DiamondPoset
from qbruhat.uqmodules import _SEED_TABLE, build_irrep
from qbruhat.weyl import WeylGroup

POSET_REFUSAL = ("the Weyl group of A6 has order 5040, over the cap 1920 "
                 "for a pair poset without an anchor")


class GroupBuilt(Exception):
    """Raised by a stubbed group, model or module build."""


@pytest.fixture()
def no_groups(monkeypatch):
    """Every group build raises GroupBuilt, memoised ones included."""
    def refuse(self, datum):
        raise GroupBuilt(datum.label)

    monkeypatch.setattr(WeylGroup, "__init__", refuse)
    monkeypatch.setattr(WeylGroup, "build", classmethod(
        lambda cls, datum_or_label: cls(weyl._as_datum(datum_or_label))))


def run_main(monkeypatch, args):
    monkeypatch.setattr(sys, "argv", ["qbruhat"] + args.split())
    with pytest.raises(SystemExit) as exc:
        main()
    return exc.value.code


@pytest.mark.parametrize("args", [
    "ideal stratum --type A8 --y e --z e --nu 1,0,0,0,0,0,0,0",
    "ideal demazure --type E6 --lambda 1,0,0,0,0,0 --y e --sign +",
    "strata build --type A6",
    "strata build --type E6",
    "weyl info --type A8 --w s9",
    "char sw --type A8 --w x1",
    "strata build --type A8 --anchor s0",
    "ideal demazure --type A2 --lambda 1,0 --y s3 --sign +",
    "ideal stratum --type A2 --y e --z s1_2 --nu 1,0",
])
def test_refusals_build_no_group(no_groups, monkeypatch, capsys, args):
    def refuse(cls, label):
        raise GroupBuilt(label)

    # the edge refuses before the model layer runs its own check
    monkeypatch.setattr(CoordinateModel, "get", classmethod(refuse))
    assert run_main(monkeypatch, args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


def test_unanchored_refusal_names_the_poset_cap(no_groups, monkeypatch,
                                                capsys):
    assert run_main(monkeypatch, "strata build --type A6") == 2
    assert capsys.readouterr().err.endswith(": %s\n" % POSET_REFUSAL)
    with pytest.raises(ValueError) as err:
        DiamondPoset(SimpleNamespace(datum=build_cartan("A6")))
    assert str(err.value) == POSET_REFUSAL


@pytest.mark.parametrize("args", [
    "strata build --type F4",
    "strata build --type D5",
    "strata build --type E6 --anchor s1",
])
def test_in_scope_posets_pass_the_edge(no_groups, monkeypatch, args):
    """The edge lets them through: the next step builds the group."""
    with pytest.raises(GroupBuilt):
        run_main(monkeypatch, args)


@pytest.mark.parametrize("label, whole", [
    ("F4", True), ("D5", True), ("A6", False), ("E6", False)])
def test_unanchored_poset_boundary(label, whole):
    datum = build_cartan(label)
    check_scope(datum, "group")
    assert (group_order(datum.family, datum.rank) <= SCOPE["poset"]) == whole
    if whole:
        check_scope(datum, "poset")
    else:
        with pytest.raises(ValueError, match="without an anchor"):
            check_scope(datum, "poset")


def test_module_layers_refuse_before_building_a_group(no_groups):
    for build in (lambda: CoordinateModel("A8"),
                  lambda: build_irrep(build_cartan("G2"), (0, 0))):
        with pytest.raises(ModuleScopeError):
            build()


def test_module_row_is_the_seed_types():
    assert set(SCOPE["modules"]) == {f"{f}{r}" for f, r in _SEED_TABLE}


def test_module_refusal_is_generated_from_the_row(monkeypatch):
    monkeypatch.setitem(SCOPE, "modules", ("A1", "A2", "B2", "G2"))
    check_scope(build_cartan("G2"), "modules")
    with pytest.raises(ModuleScopeError) as err:
        check_scope(build_cartan("A3"), "modules")
    assert str(err.value) == ("module arithmetic is limited to types "
                              "A1, A2, B2 and G2")


def test_module_dimension_cap_is_read_from_the_table(monkeypatch):
    datum = build_cartan("A2")
    monkeypatch.setitem(SCOPE, "module_dim", 7)
    with pytest.raises(ModuleScopeError,
                       match="dimension 8 exceeds the cap 7"):
        uqmodules._build_irrep_inner(datum, WeylGroup.build(datum), (1, 1))


@pytest.fixture()
def no_modules(monkeypatch):
    """Every module the coordinate model asks for raises GroupBuilt."""
    def refuse(datum, lam):
        raise GroupBuilt(lam)

    monkeypatch.setattr(coordring, "build_irrep", refuse)


@pytest.mark.parametrize("args, dim", [
    ("--type A2 --nu 6,6", 729),
    ("--type A2 --nu 2,2 --bound 5", 512),
    ("--type B2 --nu 2,2 --bound 3", 1296),
])
def test_stratum_refuses_its_largest_module_at_the_edge(
        no_modules, monkeypatch, capsys, args, dim):
    """A saturation reaches V(nu + bound.rho); over the cap, the edge
    refuses before any module is built."""
    assert run_main(monkeypatch, "ideal stratum --y e --z e " + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("out of scope: dimension %d exceeds the cap "
                            "400\n" % dim)


def test_stratum_within_the_dimension_cap_passes_the_edge(no_modules,
                                                          monkeypatch):
    # V(6,6) of A2 has dimension 343, within the cap
    with pytest.raises(GroupBuilt):
        run_main(monkeypatch, "ideal stratum --type A2 --y e --z e "
                              "--nu 4,4 --bound 2")


def test_caps_are_declared_only_in_the_table():
    """No package module but ``cartan`` spells a cap of the table as a
    number."""
    caps = {SCOPE[row]
            for row in ("group", "poset", "module_dim", "depth_ball")}
    package = pathlib.Path(qbruhat.__file__).parent
    spelled = {path.name for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant)
               and type(node.value) is int and node.value in caps}
    assert spelled == {"cartan.py"}


def _ball(rank, depth):
    """The lattice points of the depth ball, by enumeration."""
    return sum(1 for pt in itertools.product(range(-depth, depth + 1),
                                             repeat=rank)
               if sum(map(abs, pt)) <= depth)


def test_depth_ball_is_counted_exactly(monkeypatch):
    """The count ``check_depth`` compares with the cap is the number of
    lattice points of depth at most d: a cap one below the enumerated
    count refuses, a cap at it accepts."""
    for rank, depth in [(1, 0), (1, 5), (2, 6), (3, 4), (4, 3), (5, 2)]:
        size = _ball(rank, depth)
        monkeypatch.setitem(SCOPE, "depth_ball", size)
        check_depth(rank, depth)
        monkeypatch.setitem(SCOPE, "depth_ball", size - 1)
        with pytest.raises(ValueError, match="has %d points" % size):
            check_depth(rank, depth)


def test_every_rank_is_in_scope_at_the_default_depth():
    for rank in range(1, max(hi for _, hi in SCOPE["ranks"].values()) + 1):
        check_depth(rank, 6)


def test_a_deep_ball_is_refused_before_a_point_is_built(no_groups,
                                                         monkeypatch, capsys):
    """``char sw --type A8 --depth 10`` (1 256 465 points) exits 2 with
    one line and builds no group; the library refuses the same depth
    before it reads the group's element."""
    assert run_main(monkeypatch, "char sw --type A8 --depth 10") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "Error: Invalid value for --depth: the depth-10 ball of rank 8 has "
        "1256465 points, over the cap %d\n" % SCOPE["depth_ball"])
    group = SimpleNamespace(datum=build_cartan("A8"))
    with pytest.raises(ValueError, match="the depth-10 ball of rank 8"):
        cell_translate_character(group, None, 10)
