"""Source hygiene of the package, read with ``ast``: every name a module
imports is used in it, and every private module-level function, class or
constant is referenced somewhere in the package. ``__init__``'s imports are
its public re-exports, so it is not checked."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ssknoma"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module):
    """The names the module's imports bind, at any depth, with their lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


def _loaded_names(tree: ast.Module) -> set:
    """Every bare name the module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _private_definitions(tree: ast.Module):
    """The module-level functions, classes and assigned constants whose
    names start with one underscore, with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _package_references(trees) -> set:
    """Every attribute read and every name imported from a module anywhere
    in the package: how one module reaches another's private names."""
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    return refs


def unused_imports(path: Path) -> list:
    tree = _tree(path)
    used = _loaded_names(tree)
    return [f"{path.name}:{line}: {name}" for name, line in _imported_names(tree)
            if name not in used]


def unreferenced_privates(path: Path, package=MODULES) -> list:
    tree = _tree(path)
    refs = _loaded_names(tree) | _package_references(_tree(p) for p in package if p != path)
    return [f"{path.name}:{line}: {name}" for name, line in _private_definitions(tree)
            if name not in refs]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    assert unreferenced_privates(path) == []


def test_the_checks_see_a_leftover_import_and_an_unused_helper(tmp_path):
    """A module that keeps ``from bisect import bisect_right`` after its
    last use, and a private helper and constant nothing calls or reads,
    fails both checks; the same module with them used passes."""
    source = ("from bisect import bisect_right\nimport numpy as np\n\n"
              "_LIMIT = 3\n\n\ndef _helper(x):\n    return np.abs(x)\n\n\n"
              "def public(x):\n    return x\n")
    path = tmp_path / "leftover.py"
    path.write_text(source)
    assert unused_imports(path) == ["leftover.py:1: bisect_right"]
    assert unreferenced_privates(path, [path]) == ["leftover.py:4: _LIMIT",
                                                   "leftover.py:7: _helper"]
    path.write_text(source.replace("return x\n",
                                   "return _helper(bisect_right([_LIMIT], x))\n"))
    assert unused_imports(path) == [] and unreferenced_privates(path, [path]) == []
