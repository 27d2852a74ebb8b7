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
