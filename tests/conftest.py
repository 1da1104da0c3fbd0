"""Shared independent oracles for the test suite.

These deliberately avoid the library's normal-form code paths: determinants
come from fraction-free Bareiss elimination, ranks from rational Gaussian
elimination, and memberships from brute-force enumeration, so they can catch
systematic bugs in the Hermite/Smith machinery.  `load_perfbench` imports a
benchmark module by path for the tests that use the stress generator or the
tracer's name table.  Only a skip imports pytest, so `output_digest.py`,
which imports this module, runs on an interpreter without it.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """Import perfbench/<name>.py by path; skip the test when it is absent."""
    path = PERFBENCH / f"{name}.py"
    if not path.exists():
        import pytest

        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bareiss_det(m) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _reduced_echelon(m):
    """(nonzero rows, pivot columns) of the reduced row echelon form over Q.

    Plain Gauss-Jordan elimination with Fractions.
    """
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        pivot = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    return a[: len(pivots)], pivots


def rational_rank(m) -> int:
    """Rank over Q by plain Gaussian elimination with Fractions."""
    return len(_reduced_echelon(m)[1])


def left_kernel(columns, n: int) -> list[list[int]]:
    """Integer rows y spanning {y in Q^n : y . c == 0 for every column c}.

    One row per non-pivot coordinate f of the reduced columns: y_f = 1 and
    y_p = -(entry f of the row with pivot p), scaled to integers.
    """
    reduced, pivots = _reduced_echelon(columns)
    rows = []
    for f in (j for j in range(n) if j not in pivots):
        y = [Fraction(int(j == f)) for j in range(n)]
        for row, p in zip(reduced, pivots):
            y[p] = -row[f]
        den = math.lcm(*(x.denominator for x in y))
        rows.append([int(x * den) for x in y])
    return rows


def minors_gcd(m, k: int) -> int:
    """gcd of all k x k minors of an integer matrix (0 if all vanish)."""
    rows = range(len(m))
    cols = range(len(m[0]) if m else 0)
    g = 0
    for rsel in itertools.combinations(rows, k):
        for csel in itertools.combinations(cols, k):
            minor = bareiss_det([[m[i][j] for j in csel] for i in rsel])
            g = math.gcd(g, minor)
    return g


def in_span(columns, v) -> bool:
    """True iff v lies in the Q-span of the given columns (independent rank test)."""
    if not columns:
        return all(x == 0 for x in v)
    mat = [list(row) for row in zip(*columns)]  # n x k
    aug = [row + [x] for row, x in zip(mat, v)]
    return rational_rank(mat) == rational_rank(aug)
