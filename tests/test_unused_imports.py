"""Every name a package module imports at module level is used there or exported,
and every private name it defines at module level is read somewhere in the
package: a leftover import or helper after code moves between modules fails here."""

import ast
import functools
from pathlib import Path

import pytest

import hartogs

PACKAGE = sorted(Path(hartogs.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict:
    """The names bound by the module-level imports of ``tree``, each with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and
                any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_module_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used and name not in _exported(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def _private(tree: ast.Module) -> dict:
    """The private functions, classes and constants ``_x`` that ``tree`` defines
    at module level, each with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.update({name: node.lineno for name in targets
                      if name.startswith("_") and not name.startswith("__")})
    return names


@functools.cache
def _read() -> frozenset:
    """Every name the package reads: a loaded ``Name`` or ``Attribute``, or an import alias."""
    read = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return frozenset(read)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_private_name_is_read(path):
    unread = {name: line for name, line in _private(ast.parse(path.read_text())).items()
              if name not in _read()}
    assert not unread, f"{path.name}: private names read nowhere in the package {unread}"
