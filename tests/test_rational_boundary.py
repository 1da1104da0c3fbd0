"""No library module imports `fractions`, names `Fraction`, reads a
`.numerator` or a `.denominator`, or lets a float in.

The parser reads a document's rationals straight into integers, one compiled
pattern per token kind, so every library function, from the parser's
vectors to the report's `exactlin.format_rational`, works on integers over a
held denominator.  The test walks each module's syntax tree and lists every
attribute read of either name, with its line, every function that names
`Fraction` or a module-level alias of it, and every module that imports
`fractions`: a new rational round trip, such as a lattice vector built as
`Fraction`s only to be scaled straight back to integers, shows up on one of
the lists.  The allow-lists of functions and modules are empty; an entry
added to one needs its reason beside it.

No module divides with `/`, writes a float or complex literal or calls
`float(`: a rational is an integer over a held denominator, so no answer
rests on floating point.
"""

import ast
from pathlib import Path

import hyperelliptic

FIELDS = {"numerator", "denominator"}


def _reads(source: str):
    """(line, attribute) for each `.numerator` or `.denominator` read in the source."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in FIELDS
    )


def _floats(source: str):
    """(line, what) for each true division, float or complex literal and `float` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float("))
    return sorted(found)


def _imports_fractions(source: str) -> bool:
    """Whether the source imports the `fractions` module or a name from it, anywhere."""
    return any(
        isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "fractions"
        for node in ast.walk(ast.parse(source))
    )


def _rational_functions(source: str):
    """Qualified names of the functions that name `Fraction` or a module-level alias of it."""
    tree = ast.parse(source)
    names = {"Fraction"} | {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Name)
        and node.value.id == "Fraction"
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def names_fraction(fn) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id in names
            or isinstance(n, ast.Attribute) and n.attr == "Fraction"
            for n in ast.walk(fn)
        )

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and names_fraction(node):
                yield prefix + node.name

    return sorted(walk(tree.body, ""))


# each library function that names `Fraction`, and why
RATIONAL_FUNCTIONS: list[str] = []
# the modules that import `fractions`: the owners of the functions above
FRACTION_MODULES: list[str] = []


def _library():
    return sorted(Path(hyperelliptic.__file__).parent.glob("*.py"))


def test_no_module_reads_numerators_or_denominators():
    found = [
        f"{path.stem}:{line}: .{attr}"
        for path in _library()
        for line, attr in _reads(path.read_text())
    ]
    assert found == []


def test_no_module_divides_or_writes_a_float():
    found = [
        f"{path.stem}:{line}: {what}"
        for path in _library()
        for line, what in _floats(path.read_text())
    ]
    assert found == []


def test_only_the_listed_functions_name_fraction():
    found = [
        f"{path.stem}.{name}"
        for path in _library()
        for name in _rational_functions(path.read_text())
    ]
    assert found == sorted(RATIONAL_FUNCTIONS)


def test_only_the_listed_modules_import_fractions():
    found = [path.stem for path in _library() if _imports_fractions(path.read_text())]
    assert found == FRACTION_MODULES


def test_the_walk_sees_reads():
    # the check is only as good as its walk: a read in any position is found
    source = "x = Fraction(a).denominator\nf(y.numerator // 2)\nz = [v.denominator for v in w]\n"
    assert _reads(source) == [(1, "denominator"), (2, "numerator"), (3, "denominator")]
    assert _reads("denominator = 1\nnumerator(x)\n") == []


def test_the_walk_sees_floats():
    # every position of a division, a float literal or a float call is found
    source = "x = a / b\ny /= 2\nz = f(0.5)\nw = [float(v) for v in u]\nc = 1j\n"
    assert _floats(source) == [(1, "/"), (2, "/"), (3, "0.5"), (4, "float("), (5, "1j")]
    # floor division, modulo, integer literals, `Fraction` and a `float` name read are not
    source = "q = a // b\nr %= 3\nt = Fraction(1, 2)\nkinds = (int, float)\n"
    assert _floats(source) == []


def test_the_walk_sees_fraction_names():
    # a name, an alias, an attribute or an annotation, in a function or a method
    source = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "F = Fraction\n"
        "def a(x):\n    return Fraction(x, 2)\n"
        "def b(x):\n    return F(x)\n"
        "def c(x):\n    return fractions.Fraction(x)\n"
        "def d(x) -> Fraction:\n    return x\n"
        "class K:\n    def m(self):\n        return [F(1) for _ in ()]\n"
        "    def n(self):\n        return 1\n"
        "def e(x):\n    return x // 2\n"
    )
    assert _rational_functions(source) == ["K.m", "a", "b", "c", "d"]
    # an alias is module-level only, and a name like `Fractional` is not `Fraction`
    source = "def f():\n    G = Fraction\ndef g(G):\n    return G(1)\ndef h():\n    Fractional()\n"
    assert _rational_functions(source) == ["f"]


def test_the_walk_sees_fractions_imports():
    # either import form, at module level or inside a function
    assert _imports_fractions("from fractions import Fraction\n")
    assert _imports_fractions("import fractions\n")
    assert _imports_fractions("import math, fractions as f\n")
    assert _imports_fractions("def f():\n    from fractions import Fraction\n")
    # a relative import, another module or a name that merely contains the word is not
    assert not _imports_fractions("from .fractions import x\nimport math\nfractions = 1\n")
