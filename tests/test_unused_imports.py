"""Every name a package module imports at module level is used there or exported:
a leftover import after code moves between modules fails here."""

import ast
from pathlib import Path

import pytest

import hartogs

MODULES = sorted(path for path in Path(hartogs.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


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
