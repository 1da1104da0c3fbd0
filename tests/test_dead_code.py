"""Every top-level function and class of the library has a caller in the library.

A definition only the tests use is a test-only helper and belongs under
`tests/`; one nothing uses is dead.  A definition counts as used when library
code outside its own body names it (`ast.Name`) or imports it by name
(`from .module import name`).  Module hooks that Python calls by name are
allowed without a caller.
"""

import ast
from pathlib import Path

import hyperelliptic

ALLOWED = {"__getattr__"}


def _references(module: str, tree: ast.Module):
    """(module the name is looked up in, name, top-level definition it appears in)."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield module, node.id, owner
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    yield node.module, alias.name, None


def test_every_top_level_definition_is_referenced():
    package = Path(hyperelliptic.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(package.glob("*.py"))
    }
    used = set()
    for module, tree in trees.items():
        for target, name, owner in _references(module, tree):
            if not (target == module and name == owner):
                used.add((target, name))
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in ALLOWED
        and (module, node.name) not in used
    ]
    assert unused == []
