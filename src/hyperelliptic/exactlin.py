"""Exact integer/rational lattice linear algebra.

All arithmetic is arbitrary-precision (`int`, `fractions.Fraction`); no
floating point enters any computation, so every membership and solvability
answer is a certificate.  Matrices are tuples of row tuples; lattices store
their basis as integer columns over a common denominator, canonicalized by a
column-style Hermite form so that equal lattices compare equal.

Matrix products (`mat_mul`, `mat_vec`) run over one common denominator: each
operand is scaled to an integer matrix over the lcm of its entry
denominators, the inner products are taken in `int`, and each output entry
becomes one `Fraction`.  Products of all-`int` operands stay `int`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[int, ...], ...]


class LatticeError(ValueError):
    """Raised for structurally invalid lattice arguments (rank/ambient mismatch)."""


# ---------------------------------------------------------------------------
# small matrix/vector helpers (exact, shape-explicit where it matters)

def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def _over_common_denominator(rows):
    """(D, integer rows) with rows == integer rows / D; D is None when every entry is an int.

    D is the lcm of the entry denominators, so each integer entry is
    numerator * (D // denominator).
    """
    if all(type(x) is int for row in rows for x in row):
        return None, rows
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def mat_mul(a, b):
    da, a = _over_common_denominator(a)
    db, bt = _over_common_denominator(transpose(b))
    out = tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)
    if da is None and db is None:
        return out
    d = (da or 1) * (db or 1)
    return tuple(tuple(Fraction(x, d) for x in row) for row in out)


def mat_vec(a, v):
    da, a = _over_common_denominator(a)
    dv, (v,) = _over_common_denominator((v,))
    out = tuple(sum(map(mul, row, v)) for row in a)
    if da is None and dv is None:
        return out
    d = (da or 1) * (dv or 1)
    return tuple(Fraction(x, d) for x in out)


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def as_fractions(v) -> Vector:
    return tuple(Fraction(x) for x in v)


def vec_is_integral(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def vec_denominator(v) -> int:
    return lcm(*(Fraction(x).denominator for x in v)) if v else 1


def frac_mod1(x: Fraction) -> Fraction:
    """Canonical representative of x in [0, 1)."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def vec_mod1(v) -> Vector:
    return tuple(frac_mod1(x) for x in v)


def mat_det(m) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def mat_inv(m):
    """Exact inverse of a square rational matrix (LatticeError if singular)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise LatticeError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0.

    When a divides b, y == 0: pivot rows/columns stay fixed in the normal-form
    eliminations, which both keeps outputs canonical and guarantees progress.
    """
    if a != 0 and b % a == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


# ---------------------------------------------------------------------------
# normal forms

def hermite_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row-operation Hermite form: (h, u) with u @ m == h and u unimodular.

    Canonical tie-breaking: pivots are positive, entries above each pivot are
    reduced into [0, pivot), pivot columns strictly increase down the rows and
    zero rows sit at the bottom, so the output is deterministic.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(row) for row in m]
    u = [list(row) for row in identity(rows)]

    def rowop(i: int, j: int, a: int, b: int, c: int, d: int) -> None:
        # rows i, j <- (a*i + b*j, c*i + d*j); requires a*d - b*c == +-1
        h[i], h[j] = (
            [a * x + b * y for x, y in zip(h[i], h[j])],
            [c * x + d * y for x, y in zip(h[i], h[j])],
        )
        u[i], u[j] = (
            [a * x + b * y for x, y in zip(u[i], u[j])],
            [c * x + d * y for x, y in zip(u[i], u[j])],
        )

    r = 0
    for col in range(cols):
        for i in range(r + 1, rows):
            if h[i][col] == 0:
                continue
            a, b = h[r][col], h[i][col]
            g, x, y = _xgcd(a, b)
            rowop(r, i, x, y, -(b // g), a // g)
        if r < rows and h[r][col] != 0:
            if h[r][col] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            p = h[r][col]
            for i in range(r):
                q = h[i][col] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == rows:
                break
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def column_hermite(m: Matrix) -> tuple[Matrix, Matrix]:
    """Column-operation Hermite form: (h, v) with m @ v == h, v unimodular."""
    ht, ut = hermite_normal_form(transpose(m))
    return transpose(ht), transpose(ut)


def integer_solution(hermite: tuple[Matrix, Matrix], b) -> tuple[int, ...] | None:
    """An integer x with m @ x == b, or None if there is none.

    ``hermite`` is ``column_hermite(m)``, so one Hermite form serves many
    right-hand sides: m @ v == h with v unimodular, and the pivot rows of h's
    columns strictly increase, so h @ y == b is solved column by column and
    x = v @ y.
    """
    h, v = hermite
    target = list(b)
    y = [0] * len(v)
    for j, col in enumerate(transpose(h)):
        pivot = next((i for i, x in enumerate(col) if x), None)
        if pivot is None:
            break
        c = Fraction(target[pivot], col[pivot])
        if c.denominator != 1:
            return None
        y[j] = int(c)
        if y[j]:
            for i, x in enumerate(col):
                target[i] -= y[j] * x
    if any(target):
        return None
    return mat_vec(v, y)


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(u, s, v) with u @ m @ v == s diagonal, d_i | d_{i+1}, u, v unimodular."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = [list(row) for row in m]
    u = [list(row) for row in identity(rows)]
    v = [list(row) for row in identity(cols)]

    def rowop(i, j, a, b, c, d):
        s[i], s[j] = (
            [a * x + b * y for x, y in zip(s[i], s[j])],
            [c * x + d * y for x, y in zip(s[i], s[j])],
        )
        u[i], u[j] = (
            [a * x + b * y for x, y in zip(u[i], u[j])],
            [c * x + d * y for x, y in zip(u[i], u[j])],
        )

    def colop(i, j, a, b, c, d):
        for row in s:
            row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]
        for row in v:
            row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    def clear_position(t: int) -> None:
        # bring gcd of the trailing block into (t, t), zero its row and column;
        # the pivot is kept positive so each full pass strictly shrinks it
        while True:
            pivot = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                return
            pi, pj = pivot
            if pi != t:
                rowop(t, pi, 0, 1, -1, 0)
            if pj != t:
                colop(t, pj, 0, 1, -1, 0)
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
            for i in range(t + 1, rows):
                if s[i][t]:
                    a, b = s[t][t], s[i][t]
                    g, x, y = _xgcd(a, b)
                    rowop(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, cols):
                if s[t][j]:
                    a, b = s[t][t], s[t][j]
                    g, x, y = _xgcd(a, b)
                    colop(t, j, x, y, -(b // g), a // g)
            if all(s[i][t] == 0 for i in range(t + 1, rows)) and all(
                s[t][j] == 0 for j in range(t + 1, cols)
            ):
                return

    n = min(rows, cols)
    for t in range(n):
        clear_position(t)
    # enforce the divisibility chain; fixing (t, t+1) may need re-clearing
    t = 0
    while t < n - 1:
        a, b = s[t][t], s[t + 1][t + 1]
        if a != 0 and b % a != 0:
            rowop(t, t + 1, 1, 1, 0, 1)  # row t <- (a, b, ...): forces a gcd merge
            clear_position(t)
            t = max(t - 1, 0)
            continue
        if a == 0 and b != 0:
            rowop(t, t + 1, 0, 1, -1, 0)
            colop(t, t + 1, 0, 1, -1, 0)
            continue
        t += 1
    for t in range(n):
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
    return tuple(map(tuple, u)), tuple(map(tuple, s)), tuple(map(tuple, v))


# ---------------------------------------------------------------------------
# lattices

class Sublattice(NamedTuple):
    """A finitely generated lattice in Q^ambient_rank.

    Basis vectors are ``cols[i] / den``; ``cols`` is an integer column tuple in
    canonical column-Hermite form, so structural equality is lattice equality.
    ``den == 1`` is the plain integer-sublattice case (kernels, saturations,
    Lambda_0, Lambda_1); rational denominators arise for quotient
    presentations such as Lambda in product coordinates or Albanese lattices.
    """

    ambient_rank: int
    den: int
    cols: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_int_columns(ambient_rank: int, cols) -> "Sublattice":
        return Sublattice._canonical(ambient_rank, 1, [tuple(c) for c in cols])

    @staticmethod
    def from_rat_columns(ambient_rank: int, vectors) -> "Sublattice":
        vectors = [as_fractions(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_rank:
                raise LatticeError("vector length does not match ambient rank")
        den = 1
        for v in vectors:
            den = lcm(den, vec_denominator(v))
        cols = [tuple(int(x * den) for x in v) for v in vectors]
        return Sublattice._canonical(ambient_rank, den, cols)

    @staticmethod
    def standard(n: int) -> "Sublattice":
        return Sublattice.from_int_columns(n, transpose(identity(n)))

    @staticmethod
    def zero(n: int) -> "Sublattice":
        return Sublattice(n, 1, ())

    @staticmethod
    def _canonical(ambient_rank: int, den: int, cols) -> "Sublattice":
        if not cols:
            return Sublattice(ambient_rank, 1, ())
        m = transpose(tuple(cols))  # ambient_rank x k
        h, _ = column_hermite(m)
        kept = tuple(c for c in transpose(h) if any(c))
        g = den
        for c in kept:
            for x in c:
                g = gcd(g, x)
        if g > 1:
            den //= g
            kept = tuple(tuple(x // g for x in c) for c in kept)
        return Sublattice(ambient_rank, den, kept)

    @property
    def rank(self) -> int:
        return len(self.cols)

    def basis_vectors(self) -> tuple[Vector, ...]:
        return tuple(tuple(Fraction(x, self.den) for x in c) for c in self.cols)

    def basis_matrix(self) -> Matrix:
        """Integer matrix (ambient x rank) whose columns are den * basis."""
        return transpose(self.cols) if self.cols else tuple(() for _ in range(self.ambient_rank))

    def coords_of(self, v) -> Vector | None:
        """Rational coordinates of v in this basis, or None if v is outside the span."""
        v = as_fractions(v)
        if len(v) != self.ambient_rank:
            raise LatticeError("vector length does not match ambient rank")
        target = [x * self.den for x in v]
        coords = [Fraction(0)] * self.rank
        # columns are in column-Hermite form: eliminate by each column's pivot row
        for j, col in enumerate(self.cols):
            pivot = next(i for i, x in enumerate(col) if x)
            c = Fraction(target[pivot], col[pivot])
            coords[j] = c
            if c:
                for i in range(self.ambient_rank):
                    target[i] -= c * col[i]
        if any(target):
            return None
        return tuple(coords)

    def contains(self, v) -> bool:
        coords = self.coords_of(v)
        return coords is not None and all(c.denominator == 1 for c in coords)

    def reduce_mod(self, v) -> Vector:
        """Canonical representative of v modulo this lattice (v must lie in the span)."""
        coords = self.coords_of(v)
        if coords is None:
            raise LatticeError("vector is outside the lattice span")
        basis = self.basis_vectors()
        rep = as_fractions(v)
        for c, b in zip(coords, basis):
            whole = c.numerator // c.denominator
            if whole:
                rep = vec_sub(rep, vec_scale(whole, b))
        return rep

    def sum(self, other: "Sublattice") -> "Sublattice":
        if other.ambient_rank != self.ambient_rank:
            raise LatticeError("ambient ranks differ")
        return Sublattice.from_rat_columns(
            self.ambient_rank, self.basis_vectors() + other.basis_vectors()
        )


def kernel_lattice(m: Matrix) -> Sublattice:
    """Saturated sublattice {v in Z^cols : m @ v == 0} of the column space."""
    rows = len(m)
    if rows == 0:
        raise LatticeError("kernel_lattice needs at least one row (use Sublattice.standard)")
    cols = len(m[0])
    h, v = column_hermite(m)
    kernel_cols = [col for hcol, col in zip(transpose(h), transpose(v)) if not any(hcol)]
    if not kernel_cols:
        return Sublattice.zero(cols)
    return Sublattice.from_int_columns(cols, kernel_cols)


def quotient_group(big: Sublattice, small: Sublattice) -> "FiniteAbelianGroup":
    """Structure of big/small for a finite-index inclusion small <= big."""
    if big.ambient_rank != small.ambient_rank:
        raise LatticeError("ambient ranks differ")
    if big.rank != small.rank:
        raise LatticeError("quotient is infinite: ranks differ")
    k = big.rank
    if k == 0:
        return FiniteAbelianGroup((), ())
    coord_cols = []
    for b in small.basis_vectors():
        coords = big.coords_of(b)
        if coords is None or not all(c.denominator == 1 for c in coords):
            raise LatticeError("small lattice is not contained in big lattice")
        coord_cols.append(tuple(int(c) for c in coords))
    x = transpose(tuple(coord_cols))  # k x k, big-coordinates of small's basis
    u, s, _ = smith_normal_form(x)
    u_inv = mat_inv(u)
    factors = []
    gens = []
    big_basis = big.basis_vectors()
    for i in range(k):
        d = s[i][i]
        if d == 0:
            raise LatticeError("small lattice does not have finite index")
        if d == 1:
            continue
        coeffs = tuple(u_inv[r][i] for r in range(k))
        gen = tuple(
            sum(c * b[t] for c, b in zip(coeffs, big_basis)) for t in range(big.ambient_rank)
        )
        factors.append(int(d))
        gens.append(small.reduce_mod(gen))
    return FiniteAbelianGroup(tuple(factors), tuple(gens))


class FiniteAbelianGroup(NamedTuple):
    """A finite abelian group with invariant factors d1 | d2 | ... (ascending).

    Generators are coset representatives in ambient coordinates, reduced
    modulo the reference sublattice they were computed against; generator i
    has order invariant_factors[i].
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[Vector, ...]

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n


def coset_meets_lattice(w: Sublattice, t) -> bool:
    """Exact decision of (t + span_Q(w)) intersect Z^n != empty set."""
    t = as_fractions(t)
    if len(t) != w.ambient_rank:
        raise LatticeError("vector length does not match ambient rank")
    if w.rank == w.ambient_rank:
        return True
    if w.rank == 0:
        return vec_is_integral(t)
    # annihilator rows C with C @ w == 0; then t in Z^n + span(w) iff C t in C Z^n
    ann = kernel_lattice(transpose(w.basis_matrix()))
    c = transpose(ann.basis_matrix())  # (n - rank) x n
    image = Sublattice.from_int_columns(len(c), transpose(c))
    return image.contains(mat_vec(c, t))

