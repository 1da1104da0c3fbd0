"""Every top-level function, class and method of the library has a caller in the library.

A definition only the tests use is a test-only helper and belongs under
`tests/`; one nothing uses is dead.  A top-level definition counts as used
when library code outside its own body names it (`ast.Name`) or imports it by
name (`from .module import name`).  A method of a top-level class counts as
used when library code outside its own body names it as an attribute or as a
name; the owner of an attribute is not resolved, so any attribute of that
name counts.  Module hooks and dunder methods, which Python calls by name,
are allowed without a caller.
"""

import ast
from collections import Counter
from pathlib import Path

import hyperelliptic

ALLOWED = {"__getattr__"}


def _library_trees() -> dict[str, ast.Module]:
    package = Path(hyperelliptic.__file__).parent
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(package.glob("*.py"))
    }


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
    trees = _library_trees()
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


def _mentions(node: ast.AST) -> Counter:
    """How often each identifier appears as an attribute or as a name under node."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.Name))
    )


def test_every_method_is_referenced():
    trees = _library_trees()
    total = sum((_mentions(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{cls.name}.{method.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and total[method.name] == _mentions(method)[method.name]
    ]
    assert unused == []
