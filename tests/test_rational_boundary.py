"""Rationals become integers in one module, and no float enters the library.

Only `exactlin` reads `.numerator` or `.denominator`: every other library
module hands rational matrices to `exactlin` (its scaler
`over_common_denominator`, the Hermite solves and the singularity tests)
instead of taking them apart itself.  The test walks each module's syntax
tree and lists every attribute read of either name outside `exactlin`, with
its line.

No module divides with `/`, writes a float or complex literal or calls
`float(`: a rational is an integer over a held denominator or a `Fraction`,
so no answer rests on floating point, even where a true division of two
`Fraction`s would stay exact.
"""

import ast
from pathlib import Path

import hyperelliptic

OWNER = "exactlin"
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


def _library():
    return sorted(Path(hyperelliptic.__file__).parent.glob("*.py"))


def test_only_exactlin_reads_numerators_and_denominators():
    found = [
        f"{path.stem}:{line}: .{attr}"
        for path in _library()
        if path.stem != OWNER
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


def test_the_walk_sees_reads():
    # the check is only as good as its walk: a read in any position is found
    source = "x = Fraction(a).denominator\nf(y.numerator // 2)\nz = [v.denominator for v in w]\n"
    assert _reads(source) == [(1, "denominator"), (2, "numerator"), (3, "denominator")]
    assert _reads("denominator = 1\nnumerator(x)\n") == []
    assert OWNER in {p.stem for p in Path(hyperelliptic.__file__).parent.glob("*.py")}


def test_the_walk_sees_floats():
    # every position of a division, a float literal or a float call is found
    source = "x = a / b\ny /= 2\nz = f(0.5)\nw = [float(v) for v in u]\nc = 1j\n"
    assert _floats(source) == [(1, "/"), (2, "/"), (3, "0.5"), (4, "float("), (5, "1j")]
    # floor division, modulo, integer literals, `Fraction` and a `float` name read are not
    source = "q = a // b\nr %= 3\nt = Fraction(1, 2)\nkinds = (int, float)\n"
    assert _floats(source) == []
