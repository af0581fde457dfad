"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import k3evenset

SOURCES = sorted(Path(k3evenset.__file__).parent.glob("*.py"))


def test_package_source_has_no_assert():
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; the package raises explicit exceptions instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 5
    assert found == []
