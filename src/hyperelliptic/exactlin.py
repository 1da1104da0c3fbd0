"""Exact integer lattice linear algebra.

All arithmetic is on arbitrary-precision `int`s; no floating point enters
any computation, so every membership and solvability answer is a
certificate.  A rational vector is a pair (den, integers) and a lattice is
integer columns over one den, the column-style Hermite form of all its
generators reduced at once; the form is unique, so equal lattices compare
equal.

The row rule: a matrix that is kept (returned to a caller that holds it, or
stored in a record) is a tuple of row tuples, each row built once, at its
final length; a kernel's temporaries are list rows.  A transpose that is
only read is `column_lists`, an intermediate product is `list_product` and
an identity seed is `identity_rows`.  The eliminations
(`hermite_normal_form`, `smith_normal_form`) return rows of the kind their
argument has, tuple rows for tuple rows and list rows for list rows, which
is how the kernels pass temporaries to each other; `column_hermite`'s form
is kept, so it returns tuple rows.  The reason is CPython 3.11's tuple
freelist: a freed tuple of size 20 is pushed onto it, but one of that size
is never popped, so each row tuple of a rank-20 matrix that is built and
dropped stays allocated, up to 2000 of them of 184 B each, until the
process ends (`tests/row_churn.py` counts them).

The parser reads a document's rationals straight into integers, so every
vector is integers over a held denominator: taken mod 1 by `reduced_mod1`,
put over one with others by `common_denominator`, reduced by
`least_denominator` and written by `format_rational`; `mat_mul` and
`mat_vec` are the integer products.
The Hermite form (Cohen, GTM 138, 2.4) answers the integer questions.  One
column Hermite form (h, v) of m has two readers: `hermite_kernel` (the
kernel of m) and `hermite_coords` (coordinates against h's pivot columns,
by back-substitution in integers, as in `Sublattice.coords_of`);
`is_unimodular` and `is_singular` read the row form.  The column form of m
is the row form of m's transpose, so a reader that wants its columns, such
as `kernel_lattice` and `Sublattice.from_int_columns`, reads that row form
directly.  The Smith form is a loop of row and column Hermite forms, and
the inverse of its unimodular u is the transform of u's row form, so
`hermite_normal_form` is the one elimination routine.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import itemgetter, mul
from typing import NamedTuple

from .errors import InvalidDatum

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# small matrix/vector helpers (exact, shape-explicit where it matters)

def identity(n: int) -> Matrix:
    return tuple(map(tuple, identity_rows(n)))


def identity_rows(n: int) -> list[list[int]]:
    """The n x n identity as list rows, the seed of a kernel's transform."""
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def transpose(m):
    """The transpose to keep, as tuple rows, each built once from a column list."""
    return tuple(map(tuple, column_lists(m)))


def column_lists(m) -> list[list[int]]:
    """The columns of a matrix as lists: a transpose that builds no tuple."""
    return [list(map(itemgetter(j), m)) for j in range(len(m[0]))] if m else []


def list_product(rows, cols) -> list[list[int]]:
    """The product of the matrix with these rows and the one with these columns, as list rows."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def mat_mul(a, b):
    """The product of two integer matrices; b's columns are read as lists."""
    return tuple(tuple(row) for row in list_product(a, column_lists(b)))


def mat_vec(a, v):
    """The product of an integer matrix and an integer vector."""
    return tuple(sum(map(mul, row, v)) for row in a)


def least_denominator(den: int, scaled) -> tuple[int, tuple[int, ...]]:
    """(den, scaled) with gcd(den, *scaled) divided out: the least denominator of scaled / den."""
    c = gcd(den, *scaled)
    return den // c, (tuple(scaled) if c == 1 else tuple(x // c for x in scaled))


def format_rational(x: int, den: int) -> str:
    """x / den in lowest terms as "p/q", or "p" when q is 1, as str(Fraction(x, den)) writes it."""
    c = gcd(x, den)
    return str(x // c) if den == c else f"{x // c}/{den // c}"


def common_denominator(vectors) -> tuple[int, list[tuple[int, ...]]]:
    """(D, integer vectors) for (den, integers) vectors: each over D, the lcm of their dens."""
    d = lcm(*(den for den, _ in vectors))
    return d, [tuple(x * (d // den) for x in v) for den, v in vectors]


def reduced_mod1(den: int, scaled) -> tuple[int, tuple[int, ...]]:
    """(D, D t mod D) for t = scaled / den, D the least positive integer with D t integral."""
    return least_denominator(den, [x % den for x in scaled])


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

def _rows_like(m, rows):
    """The list rows given, as rows of m's kind: lists if m's rows (or m, if empty) are lists."""
    return rows if isinstance(m[0] if m else m, list) else tuple(map(tuple, rows))


def _combine_rows(mats, i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    """Hermite row step in each matrix: rows i, j <- (a*i + b*j, c*i + d*j), a*d - b*c == +-1."""
    for m in mats:
        m[i], m[j] = (
            [a * x + b * y for x, y in zip(m[i], m[j])],
            [c * x + d * y for x, y in zip(m[i], m[j])],
        )


def hermite_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row-operation Hermite form: (h, u) with u @ m == h and u unimodular.

    Canonical tie-breaking: pivots are positive, entries above each pivot are
    reduced into [0, pivot), pivot columns strictly increase down the rows and
    zero rows sit at the bottom, so the output is deterministic.  The rows
    of h and u are lists if m's are, else tuples.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(row) for row in m]
    u = identity_rows(rows)
    r = 0
    for col in range(cols):
        for i in range(r + 1, rows):
            if h[i][col] == 0:
                continue
            a, b = h[r][col], h[i][col]
            g, x, y = _xgcd(a, b)
            _combine_rows((h, u), r, i, x, y, -(b // g), a // g)
        if r < rows and h[r][col] != 0:
            if h[r][col] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            p = h[r][col]
            for i in range(r):
                q = h[i][col] // p
                if q:
                    _combine_rows((h, u), i, r, 1, -q, 0, 1)
            r += 1
            if r == rows:
                break
    return _rows_like(m, h), _rows_like(m, u)


def column_hermite(m: Matrix) -> tuple[Matrix, Matrix]:
    """Column-operation Hermite form: (h, v) with m @ v == h, v unimodular, kept as tuple rows."""
    ht, ut = hermite_normal_form(column_lists(m))
    return transpose(ht), transpose(ut)


def is_unimodular(m: Matrix) -> bool:
    """Whether a square integer matrix has determinant +-1: its Hermite form is the identity."""
    return hermite_normal_form([list(row) for row in m])[0] == identity_rows(len(m))


def is_singular(m: Matrix) -> bool:
    """Whether a square integer matrix is singular: its Hermite form has a zero row."""
    return any(not any(row) for row in hermite_normal_form([list(row) for row in m])[0])


def hermite_coords(cols, target) -> tuple[int, tuple[int, ...]] | None:
    """(den, y) with sum_j y[j] * cols[j] == den * target, den least, or None off the span.

    The nonzero integer columns are in column-Hermite form: the pivot (first
    nonzero) rows strictly increase, so y is read off one pivot at a time,
    dividing by it, and the pivots' product clears every such denominator.
    """
    den = prod(abs(next(x for x in col if x)) for col in cols)
    residual = [x * den for x in target]
    y = []
    for col in cols:
        pivot = next(i for i, x in enumerate(col) if x)
        y.append(residual[pivot] // col[pivot])
        residual = [x - y[-1] * b for x, b in zip(residual, col)]
    return None if any(residual) else least_denominator(den, y)


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """(u, s) with u @ m @ v == s diagonal, d_i | d_{i+1}, u and some v unimodular (not formed).

    A loop of Hermite forms (Kannan and Bachem, 1979; Cohen, GTM 138, 2.4).
    Each round takes the row form of [s | u], then the column form of s.  Rows
    of s that are zero take pivots only in u's columns, so the s part of the
    row form is the row form of s and its u part is u after the same row
    operations.  The column form's v is dropped.  The loop ends: take the first
    t whose row or column is not yet cleared.  After a row form s[t][t] is the
    gcd of column t, after a column form the gcd of row t, so it divides its
    previous value; if it stays the same, row t and column t are cleared.  Once
    s is diagonal, each d_t that does not divide d_{t+1} gets column t+1 added
    to column t, and the next row form lowers the first such d_t to
    gcd(d_t, d_{t+1}) and leaves the d before it as they are.  The rounds run
    on list rows; u and s come back as rows of m's kind.
    """
    cols = len(m[0]) if m else 0
    s, u = [list(row) for row in m], identity_rows(len(m))
    while True:
        h, _ = hermite_normal_form([a + b for a, b in zip(s, u)])
        u = [row[cols:] for row in h]
        st, _ = hermite_normal_form(column_lists(h)[:cols])  # column form of h's s part
        s = column_lists(st)
        if any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(s)):
            continue
        d = [row[t] for t, row in enumerate(s[:cols])]
        fix = {t for t in range(len(d) - 1) if d[t] and d[t + 1] % d[t]}
        if not fix:
            return _rows_like(m, u), _rows_like(m, s)
        s = [[x + row[t + 1] if t in fix else x for t, x in enumerate(row)] for row in s]


# ---------------------------------------------------------------------------
# lattices

class Sublattice(NamedTuple):
    """A finitely generated lattice in Q^ambient_rank: integer columns over one denominator.

    Basis vectors are ``cols[i] / den``: ``cols`` is the canonical
    column-Hermite form of all the generators over ``den``, reduced at once,
    and ``den`` is the least that makes the lattice integral, so structural
    equality is lattice equality.  ``den == 1`` for kernels, Lambda_0 and
    Lambda_1; Lambda in product coordinates and Lambda_B have larger ones.
    Vectors go in and out as (den, integers), as translations do.
    """

    ambient_rank: int
    den: int
    cols: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_int_columns(ambient_rank: int, cols, den: int = 1) -> "Sublattice":
        """The lattice of the integer columns over den: their Hermite form, den made least."""
        if not cols:
            return Sublattice(ambient_rank, 1, ())
        # the form of m / c is the form of m over c, so den is made least first
        c = gcd(den, *(x for col in cols for x in col))
        h, _ = hermite_normal_form([[x // c for x in col] for col in cols])
        return Sublattice(ambient_rank, den // c, tuple(tuple(row) for row in h if any(row)))

    @staticmethod
    def standard(n: int) -> "Sublattice":
        return Sublattice(n, 1, identity(n))  # Z^n: the identity is already canonical

    @property
    def rank(self) -> int:
        return len(self.cols)

    def coords_of(self, den: int, v) -> tuple[int, tuple[int, ...]] | None:
        """Coordinates of v / den in this basis as (least den, integers), or None off the span."""
        if len(v) != self.ambient_rank:
            raise InvalidDatum("vector length does not match ambient rank")
        coords = hermite_coords(self.cols, [x * self.den for x in v])
        return None if coords is None else least_denominator(coords[0] * den, coords[1])

    def reduce_mod(self, den: int, v) -> tuple[int, tuple[int, ...]]:
        """Canonical representative of v / den (in the span) modulo this lattice: (den, integers).

        Each basis vector is taken away the floor of its coordinate times.
        """
        coords = self.coords_of(den, v)
        if coords is None:
            raise InvalidDatum("vector is outside the lattice span")
        e, y = coords
        d = lcm(den, self.den)
        rep = [x * (d // den) for x in v]
        for c, col in zip(y, self.cols):
            whole = (c // e) * (d // self.den)
            if whole:
                rep = [x - whole * b for x, b in zip(rep, col)]
        return least_denominator(d, rep)


def hermite_kernel(hermite: tuple[Matrix, Matrix]) -> Sublattice:
    """Saturated kernel of m off column_hermite(m) = (h, v): v's columns over h's zero columns."""
    h, v = hermite
    return _kernel_of_columns(column_lists(h), column_lists(v))


def _kernel_of_columns(h_cols, v_cols) -> Sublattice:
    """The lattice of v's columns over h's zero columns, for a column form (h, v) as columns."""
    return Sublattice.from_int_columns(len(v_cols), [
        col for h_col, col in zip(h_cols, v_cols) if not any(h_col)])


def kernel_lattice(m: Matrix) -> Sublattice:
    """Saturated sublattice {v in Z^cols : m @ v == 0} of an integer matrix m.

    The row form (ht, ut) of m's transpose is column_hermite(m) with its
    columns as rows, so the kernel is read off it as `hermite_kernel` reads
    the column form.
    """
    if not m:
        raise InvalidDatum("kernel_lattice needs at least one row (use Sublattice.standard)")
    return _kernel_of_columns(*hermite_normal_form(column_lists(m)))


def quotient_group(big: Sublattice, small: Sublattice) -> "FiniteAbelianGroup":
    """Structure of big/small for a finite-index inclusion small <= big."""
    if big.ambient_rank != small.ambient_rank:
        raise InvalidDatum("ambient ranks differ")
    if big.rank != small.rank:
        raise InvalidDatum("quotient is infinite: ranks differ")
    k = big.rank
    if k == 0:
        return FiniteAbelianGroup((), ())
    coord_cols = []
    for col in small.cols:
        coords = big.coords_of(small.den, col)
        if coords is None or coords[0] != 1:
            raise InvalidDatum("small lattice is not contained in big lattice")
        coord_cols.append(coords[1])
    u, s = smith_normal_form(column_lists(coord_cols))  # k x k, small's basis in big's coordinates
    u_inv = hermite_normal_form(u)[1]  # u is unimodular: its row form is I
    big_basis = column_lists(big.cols)  # ambient x k, over big.den
    factors, gens = [], []
    for i in range(k):
        d = s[i][i]
        if d == 0:
            raise InvalidDatum("small lattice does not have finite index")
        if d == 1:
            continue
        factors.append(d)
        gens.append(small.reduce_mod(big.den, mat_vec(big_basis, [row[i] for row in u_inv])))
    return FiniteAbelianGroup(tuple(factors), tuple(gens))


class FiniteAbelianGroup(NamedTuple):
    """A finite abelian group with invariant factors d1 | d2 | ... (ascending).

    Generators are coset representatives in ambient coordinates as (den,
    integers), reduced modulo the reference sublattice they were computed
    against; generator i has order invariant_factors[i].
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)
