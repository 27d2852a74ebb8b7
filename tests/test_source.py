"""Checks on the package source itself."""

import ast
import pathlib

import qbruhat


def test_no_bare_assert_statements():
    """``python -O`` drops assert statements, so every check in the
    package raises ``AssertionError`` itself."""
    found = []
    for path in sorted(pathlib.Path(qbruhat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
