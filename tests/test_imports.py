"""Every module of the package uses each name it imports."""

import ast
import dataclasses
import pathlib

import pytest

import blowup
from blowup.solver import SolverConfig
from blowup.whitney import WhitneyParams

SOURCES = sorted(pathlib.Path(blowup.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).parents[1]
CALLERS = [*SOURCES, *sorted(ROOT.glob("demos/*.py")), *sorted(ROOT.glob("perfbench/*.py"))]
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


# geometry's block helpers are shared on purpose: the Whitney point
# queries walk their points in the same blocks of _CHUNK rows, with the same
# fold over a short last axis, as the polygon queries, and refuse a
# non-finite coordinate with the same check (_finite) as the domain queries
SHARED_PRIVATE = {
    ("geometry", "_CHUNK"),
    ("geometry", "_by_rows"),
    ("geometry", "_finite"),
    ("geometry", "_fold"),
}


def test_no_module_imports_a_private_name_of_a_sibling():
    # a private name is its module's own business: a sibling that needs it
    # asks for a public method or function instead
    imported = [
        f"{path.name}:{node.lineno} {module}.{a.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("blowup."))
        for module in [(node.module or "").removeprefix("blowup.")]
        for a in node.names
        if a.name.startswith("_") and (module, a.name) not in SHARED_PRIVATE
    ]
    assert not imported, f"private names imported from a sibling: {imported}"


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def _private_definitions(tree):
    """The module-level private functions and classes of ``tree`` and the
    private methods of its classes, dunders aside."""
    members = [d for c in tree.body if isinstance(c, ast.ClassDef) for d in c.body]
    for node in tree.body + members:
        if isinstance(node, DEFS) and node.name.startswith("_") and not node.name.endswith("__"):
            yield node


def _private_test_helpers(tree):
    """The module-level private functions and classes of a test module but
    its autouse fixtures, which pytest calls without a name."""
    for node in tree.body:
        if isinstance(node, DEFS) and node.name.startswith("_"):
            autouse = any(
                k.arg == "autouse" and getattr(k.value, "value", None) is True
                for d in node.decorator_list
                if isinstance(d, ast.Call)
                for k in d.keywords
            )
            if not autouse:
                yield node


def _mentions(node):
    """Every name and attribute read or written under ``node``, with
    repeats."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _named_nowhere_else(paths, definitions):
    """The "file:line name" of each of ``definitions(tree)`` over the
    files ``paths`` that the files name only inside its own body."""
    trees = [ast.parse(path.read_text()) for path in paths]
    everywhere = {}
    for tree in trees:
        for name in _mentions(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in zip(paths, trees)
        for node in definitions(tree)
        if everywhere.get(node.name, 0) == sum(n == node.name for n in _mentions(node))
    ]


def test_every_private_definition_is_named_elsewhere():
    # a helper whose last caller went away is named only in its own body
    dead = _named_nowhere_else(SOURCES, _private_definitions)
    assert not dead, f"private definitions nothing else names: {dead}"


def test_every_private_test_helper_is_named_elsewhere():
    # a reference oracle whose subject went away, or a helper whose last
    # test did, is named only in its own body
    dead = _named_nowhere_else(TESTS, _private_test_helpers)
    assert not dead, f"private test helpers no test names: {dead}"


def _is_abstract(node):
    return any(
        getattr(d, "id", None) == "abstractmethod" or getattr(d, "attr", None) == "abstractmethod"
        for d in node.decorator_list
    )


def _unread_parameters(tree):
    """"line function(parameter)" of each parameter of a function or method
    of ``tree`` that its body never reads.  Abstract methods have no body to
    read them, and ``self`` is the instance, not a setting: an override
    takes it whether or not it reads it."""
    for node in ast.walk(tree):
        if not isinstance(node, FUNCS) or _is_abstract(node):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for p in params:
            if p.arg not in read and p.arg != "self":
                yield f"{node.lineno} {node.name}({p.arg})"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_parameter_is_read(path):
    # a parameter nothing reads is a setting that does nothing
    unread = list(_unread_parameters(ast.parse(path.read_text())))
    assert not unread, f"{path.name} has parameters it never reads: {unread}"


# the defaulted settings that no caller in src/, demos/ or perfbench/ sets,
# each with the reason it stays
KEPT_SETTINGS = {
    "build_singular_part(profile)": "a study of the smoothing profile swaps it, "
    "and corner-exact distances will extend what it builds",
    "laplacian_of_distance(method)": "the analytic and finite-difference paths "
    "are each other's test reference",
    "solve(initial_guess)": "nested iteration starts a fine solve from a "
    "coarse one's prolonged remainder",
    "verify_minimizer(seed)": "the library's perturbation check draws its "
    "shapes from it, and its tests vary it",
}


def _defaulted_settings():
    """{"callee(parameter)": (callee, parameter, positional index)} of each
    parameter with a default of a function or method of the package, the
    index not counting self or cls, and of each field of the two config
    classes.  ``__init__`` goes by its class's name, as its callers call
    it; a keyword-only parameter has no index."""
    out = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        owner = {id(f): c.name for c in classes for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, FUNCS):
                continue
            name = owner[id(node)] if node.name == "__init__" else node.name
            a = node.args
            pos = [p.arg for p in (*a.posonlyargs, *a.args) if p.arg not in ("self", "cls")]
            for i in range(len(pos) - len(a.defaults), len(pos)):
                out[f"{name}({pos[i]})"] = (name, pos[i], i)
            for p, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    out[f"{name}({p.arg})"] = (name, p.arg, None)
    for cls in (SolverConfig, WhitneyParams):
        for i, f in enumerate(dataclasses.fields(cls)):
            out[f"{cls.__name__}({f.name})"] = (cls.__name__, f.name, i)
    return out


def _set_by_callers():
    """(callee, keyword) and (callee, positional index) of every argument
    that a call in ``CALLERS`` passes; the CLI's ``_build(cls, **kwargs)``
    calls cls."""
    got = set()
    for path in CALLERS:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name, args = getattr(call.func, "id", getattr(call.func, "attr", None)), call.args
            if name == "_build":
                name, args = args[0].id, args[1:]
            got.update((name, k.arg) for k in call.keywords if k.arg is not None)
            got.update((name, i) for i in range(len(args)))
    return got


def test_every_default_is_set_by_some_caller():
    # a setting that only the tests change does not earn its keep: it
    # becomes a constant, or a value the code works out from its inputs
    got = _set_by_callers()
    unset = {
        key
        for key, (name, param, index) in _defaulted_settings().items()
        if (name, param) not in got and (name, index) not in got
    }
    assert unset == set(KEPT_SETTINGS), (
        f"set by no caller and not kept: {sorted(unset - set(KEPT_SETTINGS))}; "
        f"kept but now set: {sorted(set(KEPT_SETTINGS) - unset)}"
    )
