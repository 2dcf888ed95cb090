"""Every module of the package uses each name it imports."""

import ast
import pathlib

import pytest

import blowup

SOURCES = sorted(pathlib.Path(blowup.__file__).parent.glob("*.py"))


def _imported_names(tree):
    """{bound name: line} of every import but ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({a.asname or a.name: node.lineno for a in node.names})
        elif isinstance(node, ast.Import):
            # ``import a.b`` binds a
            names.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if path.name == "__init__.py":
        used |= set(blowup.__all__)  # re-exported
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree):
    """The module-level private functions and classes of ``tree`` and the
    private methods of its classes, dunders aside."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    members = [d for c in tree.body if isinstance(c, ast.ClassDef) for d in c.body]
    for node in tree.body + members:
        if isinstance(node, defs) and node.name.startswith("_") and not node.name.endswith("__"):
            yield node


def _mentions(node):
    """Every name and attribute read or written under ``node``, with
    repeats."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_private_definition_is_named_elsewhere():
    # a helper whose last caller went away is named only in its own body
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    everywhere = {}
    for tree in trees:
        for name in _mentions(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    dead = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in zip(SOURCES, trees)
        for node in _private_definitions(tree)
        if everywhere.get(node.name, 0) == sum(n == node.name for n in _mentions(node))
    ]
    assert not dead, f"private definitions nothing else names: {dead}"
