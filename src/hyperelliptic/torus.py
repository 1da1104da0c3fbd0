"""Abelian varieties presented as rational lattice quotients.

The standard presentation is a product of elliptic curves modulo a finite
subgroup: each factor E = C/(Z + tau*Z) contributes a coordinate pair
(coefficient of 1, coefficient of tau).  Internally every datum works in
"lattice coordinates", the basis of the full period lattice Lambda, where
Lambda is exactly Z^2n; the torus keeps Lambda as a `Sublattice` of the
product coordinates (Hermite columns C over den) for reporting and for
building the standard form.  A form is kept as an integer Gram matrix, up
to a positive scalar that none of its four readers sees: the antisymmetry
and nonsingularity checks, `is_invariant_under` and `restricted_to`.

The factor kinds are one table, `FACTOR_KINDS`: each kind maps its units
to their integer blocks on (1, tau) and gives its default label, so a block
is looked up and its unit found by reading the table backwards.  Generic
periods tau are formal: only +-1 acts on a generic factor, so its blocks
are integral for every tau in the upper half-plane.
`to_product_coords`, which writes a lattice-coordinate vector in product
coordinates for reports, returns it as (den, integers) like every other
vector, so the module forms no rational.

A document's shape is checked once, by `documents`: a factor kind outside
the table, a form that is not square and a k generator of the wrong length
never reach this module.  What a well-formed document can still get wrong
(a unit or block its factor lacks, a form that is not antisymmetric or is
singular) raises InvalidDatum; a torus the library builds itself that breaks
a precondition raises InternalError.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import RootOfUnity
from .errors import InternalError, InvalidDatum
from .exactlin import (
    Sublattice,
    column_lists,
    identity_rows,
    is_singular,
    least_denominator,
    list_product,
    mat_mul,
    mat_vec,
    transpose,
)


class FactorKind(NamedTuple):
    """An elliptic factor kind: its default display label and its units' blocks on (1, tau)."""

    label: str
    blocks: dict[RootOfUnity, tuple[tuple[int, int], tuple[int, int]]]


# A unit zeta = a + b*tau acts on the basis (1, tau) by the block with first
# column (a, b): (a, 0; 0, a) on a generic factor, (a, -b; b, a) on the Gauss
# curve (tau = i) and (a, -b; b, a - b) on the Eisenstein curve (tau = zeta3,
# zeta3^2 = -1 - zeta3).
_SIGNS = {RootOfUnity(0, 1): ((1, 0), (0, 1)), RootOfUnity(1, 2): ((-1, 0), (0, -1))}
FACTOR_KINDS = {
    "generic": FactorKind("E_tau", _SIGNS),
    "gauss": FactorKind("E_i", {
        **_SIGNS,
        RootOfUnity(1, 4): ((0, -1), (1, 0)),  # i = tau
        RootOfUnity(3, 4): ((0, 1), (-1, 0)),  # -i
    }),
    "eisenstein": FactorKind("E_zeta3", {
        **_SIGNS,
        RootOfUnity(1, 3): ((0, -1), (1, -1)),  # zeta3 = tau
        RootOfUnity(2, 3): ((-1, 1), (-1, 0)),  # zeta3^2 = -1 - tau
        RootOfUnity(1, 6): ((1, -1), (1, 0)),  # zeta6 = 1 + tau
        RootOfUnity(5, 6): ((0, 1), (-1, 1)),  # zeta6^5 = -tau
    }),
}


class EllipticFactor:
    """One elliptic factor E = C/(Z + tau*Z) with basis (1, tau), of a kind in FACTOR_KINDS."""

    __slots__ = ("kind", "label")

    def __init__(self, kind: str, label: str = ""):
        self.kind = kind
        self.label = label

    def display_label(self) -> str:
        return self.label or FACTOR_KINDS[self.kind].label


def factor_automorphism_matrix(f: EllipticFactor, zeta: RootOfUnity):
    """2x2 integer matrix of multiplication by zeta on the basis (1, tau)."""
    block = FACTOR_KINDS[f.kind].blocks.get(zeta)
    if block is None:
        raise InvalidDatum(f"{zeta} is not an automorphism of a {f.kind} factor")
    return block


def factor_block_eigenvalue(f: EllipticFactor, block) -> RootOfUnity:
    """The unit whose block, as a tuple of row tuples, is ``block``: the table read backwards."""
    for unit, unit_block in FACTOR_KINDS[f.kind].blocks.items():
        if unit_block == block:
            return unit
    raise InvalidDatum(f"block {block} is not an automorphism of a {f.kind} factor")


class AlternatingForm:
    """Nondegenerate antisymmetric integer Gram matrix on the lattice, up to a positive scalar."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        n = len(matrix)
        matrix = tuple(map(tuple, matrix))
        if any(matrix[i][j] != -matrix[j][i] for i in range(n) for j in range(n)):
            raise InvalidDatum("form matrix must be antisymmetric")
        if is_singular(matrix):
            raise InvalidDatum("form matrix is singular")
        self.matrix = matrix

    def restricted_to(self, basis_columns) -> tuple[tuple[int, ...], ...]:
        """Gram matrix B^T E B for the given integer basis columns."""
        b_rows = column_lists(basis_columns)
        return mat_mul(list_product(basis_columns, column_lists(self.matrix)), b_rows)

    def is_invariant_under(self, m) -> bool:
        return mat_mul(list_product(column_lists(m), column_lists(self.matrix)), m) == self.matrix


class TorusDatum:
    """A = V/Lambda, ``lattice`` = Lambda in product coordinates; in lattice coordinates Z^rank.

    Column i of ``lam_basis_inv`` is the coordinates of e_i in the basis of
    Lambda, integral because Lambda contains Z^rank.  Raw data use Z^rank.
    A rational vector v = w / d is carried between the two coordinates as
    its integers w: in product coordinates, its lattice coordinates are
    ``lam_basis_inv`` w / d (as `affine_from_factor_action` reads a
    translation); in lattice coordinates, its product coordinates are
    C w / (d * den) for Lambda's Hermite columns C over den.  The products
    read C by rows (``basis_rows``, list rows) and lam_basis_inv by columns
    (``inv_cols``), both made once, here.
    """

    __slots__ = ("rank", "lattice", "factors", "lam_basis_inv", "inv_cols", "basis_rows")

    def __init__(self, lattice: Sublattice, factors: tuple[EllipticFactor, ...] | None = None):
        rank = lattice.ambient_rank
        if factors is not None and 2 * len(factors) != rank:
            raise InternalError("factor count does not match rank")
        inv_cols = [lattice.coords_of(1, e) for e in identity_rows(rank)]
        if not all(c is not None and c[0] == 1 for c in inv_cols):
            raise InternalError("lattice must contain the product lattice Z^rank")
        self.rank = rank
        self.lattice = lattice
        self.factors = factors
        self.inv_cols = tuple(c[1] for c in inv_cols)
        self.lam_basis_inv = transpose(self.inv_cols)
        self.basis_rows = column_lists(lattice.cols)

    @property
    def dim(self) -> int:
        return self.rank // 2

    def to_product_coords(self, den: int, v) -> tuple[int, tuple[int, ...]]:
        """The product coordinates of v / den as (least den, integers)."""
        return least_denominator(den * self.lattice.den, mat_vec(self.basis_rows, v))

    @staticmethod
    def raw(rank: int) -> "TorusDatum":
        return TorusDatum(Sublattice.standard(rank))


def build_product_torus(factors, k_gens=(1, ())) -> TorusDatum:
    """Lambda = Z^2n + Z*k_gens over the elliptic factors, k_gens given as (den, integer rows)."""
    factors = tuple(factors)
    rank = 2 * len(factors)
    den, rows = k_gens
    cols = [[den * x for x in e] for e in identity_rows(rank)] + list(rows)
    return TorusDatum(Sublattice.from_int_columns(rank, cols, den), factors)


def standard_form(t: TorusDatum) -> AlternatingForm:
    """Product symplectic form, expressed in lattice coordinates, as C^T J C.

    On each factor's basis (1, tau) the form is J = [[0, 1], [-1, 0]]; it is
    integral on the product lattice and rational on Lambda, where it is
    C^T J C / den^2, so C^T J C is the form up to a positive scalar.
    """
    if t.factors is None:
        raise InternalError("raw lattices must supply an alternating form explicitly")
    n2 = t.rank
    j = [[0] * n2 for _ in range(n2)]
    for i in range(0, n2, 2):
        j[i][i + 1] = 1
        j[i + 1][i] = -1
    return AlternatingForm(mat_mul(list_product(t.lattice.cols, column_lists(j)), t.basis_rows))


def factor_plane_columns(t: TorusDatum, indices) -> tuple[tuple[int, ...], ...]:
    """The factors' plane unit vectors in lattice coordinates: columns of lam_basis_inv."""
    return tuple(t.inv_cols[j] for i in indices for j in (2 * i, 2 * i + 1))


def identify_factor_subspace(t: TorusDatum, sub: Sublattice) -> tuple[int, ...] | None:
    """Factor indices whose coordinate planes exactly span the sublattice, if any.

    The sublattice, in lattice coordinates, must equal the lattice of
    ``factor_plane_columns`` on its support, the factors where it is nonzero
    in product coordinates; so entries like "A_1 = E_tau x E_i" are recognized.
    Row k of the integer product of the sublattice's columns with Lambda's is
    its basis vector k in product coordinates times both denominators.
    """
    if t.factors is None:
        return None
    scaled = list_product(sub.cols, t.basis_rows)
    indices = tuple(sorted({j // 2 for row in scaled for j, x in enumerate(row) if x}))
    planes = Sublattice.from_int_columns(t.rank, factor_plane_columns(t, indices))
    return indices if planes == sub else None
