"""Every top-level function, class and method of the library has a caller in the library,
every parameter is read and every import is used.

A definition only the tests use is a test-only helper and belongs under
`tests/`; one nothing uses is dead.  A top-level definition counts as used
when library code outside its own body names it (`ast.Name`) or imports it by
name (`from .module import name`); every imported name must itself be
named (`ast.Name`) somewhere in its module, so an unused import cannot keep
a dead definition alive.  A method of a top-level class counts as
used when library code outside its own body names it as an attribute or as a
name; the owner of an attribute is not resolved, so any attribute of that
name counts.  Module hooks and dunder methods, which Python calls by name,
are allowed without a caller.  A parameter, other than `self` or `cls`,
counts as read when its function's body names it.  A field of a
`NamedTuple` or a name in a class's `__slots__` counts as read when library
code loads an attribute of that name; as for methods, the owner is not
resolved.
"""

import ast
from collections import Counter
from pathlib import Path

import hyperelliptic

ALLOWED = {"__getattr__"}
# record fields kept as data without a reader: where each catalog entry comes from, in catalog.json
UNREAD_FIELDS_ALLOWED = {"catalog.CatalogEntry.provenance"}


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


def test_every_imported_name_is_used():
    unused = []
    for module, tree in _library_trees().items():
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            else:
                continue
            unused += [f"{module}: {name}" for name in bound if name not in names]
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


def test_every_parameter_is_read():
    unread = []
    for module, tree in _library_trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [
                f"{module}.{fn.name}({p.arg})"
                for p in params
                if p.arg not in ("self", "cls") and p.arg not in read
            ]
    assert unread == []


def _record_fields(cls: ast.ClassDef):
    """The NamedTuple fields and the __slots__ names a class declares."""
    named_tuple = any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)
    for stmt in cls.body:
        if named_tuple and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id
        elif isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            yield from ast.literal_eval(stmt.value)


def test_every_record_field_is_read():
    trees = _library_trees()
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}.{cls.name}.{field}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for field in _record_fields(cls)
        if field not in loaded
    ]
    assert sorted(set(unread) - UNREAD_FIELDS_ALLOWED) == []
