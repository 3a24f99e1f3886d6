"""Every module of the package uses each name it imports, and every
private top-level name it defines, and every name in its ``__all__``, is
read somewhere in the package.

The package namespace (``__init__.py``) re-exports names and is skipped.
Only the standard library's ``ast`` is used, so no linter is needed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "videstep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports {unused} without using them"


def private_definitions(tree):
    """Top-level private names a module defines: functions, classes and
    assigned names that start with one underscore (dunders excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def references(tree):
    """Names a module reads: bare names, attributes (``steppers._call``) and
    names imported from other modules of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def package_references():
    return {name for module in PACKAGE.glob("*.py")
            for name in references(ast.parse(module.read_text()))}


def public_names(tree):
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_has_a_caller(path):
    # a private helper that nothing in the package reads is dead code
    used = package_references()
    dead = [name for name in private_definitions(ast.parse(path.read_text()))
            if name not in used]
    assert dead == [], f"{path.name} defines {dead} and nothing in the package uses them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path):
    # a public name that only tests call is dead code with a promise attached
    used = package_references()
    dead = [name for name in public_names(ast.parse(path.read_text())) if name not in used]
    assert dead == [], f"{path.name} exports {dead} and nothing in the package uses them"
