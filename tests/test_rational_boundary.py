"""Rationals become integers in one module: only `exactlin` reads `.numerator` or `.denominator`.

Every other library module hands rational matrices to `exactlin` (its scaler
`over_common_denominator`, the products, the Hermite solves and the
singularity tests) instead of taking them apart itself.  The test walks each
module's syntax tree and lists every attribute read of either name outside
`exactlin`, with its line.
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


def test_only_exactlin_reads_numerators_and_denominators():
    package = Path(hyperelliptic.__file__).parent
    found = [
        f"{path.stem}:{line}: .{attr}"
        for path in sorted(package.glob("*.py"))
        if path.stem != OWNER
        for line, attr in _reads(path.read_text())
    ]
    assert found == []


def test_the_walk_sees_reads():
    # the check is only as good as its walk: a read in any position is found
    source = "x = Fraction(a).denominator\nf(y.numerator // 2)\nz = [v.denominator for v in w]\n"
    assert _reads(source) == [(1, "denominator"), (2, "numerator"), (3, "denominator")]
    assert _reads("denominator = 1\nnumerator(x)\n") == []
    assert OWNER in {p.stem for p in Path(hyperelliptic.__file__).parent.glob("*.py")}
