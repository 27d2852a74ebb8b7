"""Checks on the package source itself."""

import ast
import functools
import importlib
import pathlib

import qbruhat

TRACER = pathlib.Path(__file__).resolve().parents[1] / "qbench" / "tracer.py"


def test_no_bare_assert_statements():
    """``python -O`` drops assert statements, so every check in the
    package raises ``AssertionError`` itself."""
    found = []
    for path in sorted(pathlib.Path(qbruhat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    """Every name a package module imports is read in that module, or
    listed in its ``__all__``; ``from __future__`` imports are
    directives, not names."""
    found = []
    for path in sorted(pathlib.Path(qbruhat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"]):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []


def _dense_row(node):
    """Whether the node builds a row over a whole module: ``[ZERO] *
    <expr>.dim`` or ``dict(enumerate(...))``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return (isinstance(node.left, ast.List)
                and [getattr(e, "id", None) for e in node.left.elts]
                == ["ZERO"]
                and isinstance(node.right, ast.Attribute)
                and node.right.attr == "dim")
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "dict"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Call)
            and getattr(node.args[0].func, "id", None) == "enumerate")


def test_no_module_length_dense_rows():
    """Dual rows are sparse dicts from basis index to scalar: no package
    module builds a dense row of a module's length, ``[ZERO] * m.dim``,
    or turns one into a dict with ``dict(enumerate(row))``."""
    found = []
    for path in sorted(pathlib.Path(qbruhat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if _dense_row(node)]
    assert found == []
    # the check sees both spellings
    assert _dense_row(ast.parse("[ZERO] * self.module(lam).dim").body[0]
                      .value)
    assert _dense_row(ast.parse("dict(enumerate(row))").body[0].value)
    assert not _dense_row(ast.parse("[ZERO] * len(rng)").body[0].value)


def test_only_cartan_reads_the_cartan_matrix():
    """The Cartan matrix is read only inside ``cartan.py``: other
    modules reflect weights with ``CartanDatum.reflect`` or read roots
    through the datum's methods, so no package module other than
    ``cartan.py`` reads an attribute ``.cartan``."""
    found = []
    for path in sorted(pathlib.Path(qbruhat.__file__).parent.glob("*.py")):
        if path.name == "cartan.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "cartan"]
    assert found == []


def _foreign_private_calls(tree):
    """(line, name) of every call ``x._name(...)`` of an underscore name,
    dunders aside, that no function or class of the same module defines:
    a call into the private part of another module's objects."""
    own = {node.name for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef))}
    return [(node.lineno, node.func.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("_")
            and not node.func.attr.endswith("__")
            and node.func.attr not in own]


def test_no_private_calls_across_modules():
    """A package module calls an underscore method only where it defines
    it, such as ``weyl.py`` calling ``group._fill_words()``; other
    modules go through public methods, so the rank walk of ``strata.py``
    reaches ``WeylGroup._left_apply`` only through
    ``WeylGroup.left_quotient``."""
    found = []
    for path in sorted(pathlib.Path(qbruhat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, name)
                  for line, name in _foreign_private_calls(tree)]
    assert found == []
    # the check sees a foreign call, and passes an own one and a dunder
    assert _foreign_private_calls(ast.parse(
        "group._left_apply(y.word, z.idx)")) == [(1, "_left_apply")]
    assert _foreign_private_calls(ast.parse(
        "def _fill(self):\n    pass\nself.group._fill()\n"
        "super().__init__()")) == []


def test_every_traced_target_resolves():
    """Each (layer, name, attr) of the bench tracer's ``TARGETS`` names
    an attribute of ``qbruhat.<layer>``, so ``--trace 1`` can wrap it.
    The list is read from the tracer's source, not imported."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert targets
    missing = []
    for layer, name, attr in targets:
        obj = importlib.import_module("qbruhat." + layer)
        try:
            functools.reduce(getattr, attr.split("."), obj)
        except AttributeError:
            missing.append("%s.%s" % (layer, attr))
    assert missing == []


def _is_click_command(node):
    """A function decorated by ``<group>.command(...)`` or
    ``<group>.group(...)``: click calls it, no Python code does."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and \
                target.attr in ("command", "group"):
            return True
    return False


def _definitions(tree):
    """(qualified name, name) of every function and method, nested ones
    included, that is not a dunder or a click command."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")) \
                        and not _is_click_command(child):
                    out.append((prefix + name, name))
                visit(child, prefix + name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_every_src_function_has_a_caller():
    """Every function or method of the package is named, as a name or an
    attribute, somewhere in the package, the bench or the demos (the
    bench tracer's ``TARGETS`` strings count), or is listed in an
    ``__all__``.  A helper only tests call belongs in ``tests/``."""
    root = TRACER.parents[1]
    package = pathlib.Path(qbruhat.__file__).resolve().parent
    used, defined = set(), []
    for path in sorted(package.glob("*.py")) + \
            sorted((root / "qbench").glob("*.py")) + \
            sorted((root / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and \
                    [getattr(t, "id", None) for t in node.targets] in \
                    (["__all__"], ["TARGETS"]):
                for item in ast.literal_eval(node.value):
                    for text in ([item] if isinstance(item, str) else item):
                        used.update(text.split("."))
        if path.parent == package:
            defined += [("%s:%s" % (path.stem, qual), name)
                        for qual, name in _definitions(tree)]
    assert [label for label, name in defined if name not in used] == []


def test_every_export_has_a_caller():
    """Every name of ``qbruhat.__all__`` is read, as a name or an
    attribute, in a package module other than ``__init__``, in the
    demos or in the bench.  A name only tests read is not part of the
    package's surface; ``__all__`` alone does not keep it alive."""
    root = TRACER.parents[1]
    package = pathlib.Path(qbruhat.__file__).resolve().parent
    used = set()
    for path in [p for p in sorted(package.glob("*.py"))
                 if p.name != "__init__.py"] + \
            sorted((root / "demos").glob("*.py")) + \
            sorted((root / "qbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert qbruhat.__all__
    assert [name for name in qbruhat.__all__ if name not in used] == []
