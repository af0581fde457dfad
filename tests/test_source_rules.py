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


def test_no_package_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, dis, ast and tokenize (about 9 ms
    # of a cold CLI call on CPython 3.11), and each decorated class adds about
    # 1 ms of generated code; the records are typing.NamedTuple classes instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


# Public names kept although no package module reads them yet, each with its
# reason.
UNREFERENCED_ALLOWED = {
    # the discriminant quadratic form q(x) = x.x mod 2Z, which an exact
    # L_{2d} / M'_{2d} isometry certificate checks glue classes against
    "discriminant_form",
}


def _public_top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def _referenced_names(tree):
    """Names a module loads, or reads as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_public_name_is_referenced_by_the_package():
    # a public function, class or constant that only tests call is surface no
    # workload runs; `__init__` re-exports do not count as a use
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    modules = {stem: tree for stem, tree in trees.items() if stem != "__init__"}
    used = set().union(*(_referenced_names(tree) for tree in modules.values()))
    unreferenced = {
        name: f"{stem}.{name}:{line}"
        for stem, tree in modules.items()
        for name, line in _public_top_level_names(tree)
        if not name.startswith("_") and name not in used
    }
    assert len(modules) > 5
    assert [where for name, where in unreferenced.items() if name not in UNREFERENCED_ALLOWED] == []
    # an allowed name that gains a use leaves the list
    assert UNREFERENCED_ALLOWED <= unreferenced.keys()
