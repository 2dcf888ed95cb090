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
