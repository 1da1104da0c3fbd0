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

Generic periods tau are formal: only +-1 acts on a generic factor, so all
arithmetic stays rational while covering arbitrary tau in the upper
half-plane.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import RootOfUnity
from .exactlin import (
    LatticeError,
    Sublattice,
    identity,
    is_singular,
    mat_mul,
    mat_vec,
    over_common_denominator,
    transpose,
    vec_is_integral,
)


class InvalidAutomorphism(ValueError):
    """The requested root of unity is not a lattice automorphism of the factor."""


class NoProvenance(ValueError):
    """Operation needs product-of-elliptic-curves provenance that the torus lacks."""


class DegenerateForm(ValueError):
    """An alternating form required to be nondegenerate is singular."""


GENERIC, GAUSS, EISENSTEIN = "generic", "gauss", "eisenstein"

# units of the endomorphism rings, as (a, b) with zeta = a + b*tau -> RootOfUnity
_GAUSS_UNITS = {
    (1, 0): RootOfUnity.of(0, 1),
    (-1, 0): RootOfUnity.of(1, 2),
    (0, 1): RootOfUnity.of(1, 4),
    (0, -1): RootOfUnity.of(3, 4),
}
_EISENSTEIN_UNITS = {
    (1, 0): RootOfUnity.of(0, 1),
    (-1, 0): RootOfUnity.of(1, 2),
    (0, 1): RootOfUnity.of(1, 3),      # zeta3 = tau
    (-1, -1): RootOfUnity.of(2, 3),    # zeta3^2 = -1 - zeta3
    (1, 1): RootOfUnity.of(1, 6),      # zeta6 = 1 + zeta3
    (0, -1): RootOfUnity.of(5, 6),     # zeta6^5 = -zeta3
}
_GENERIC_UNITS = {
    (1, 0): RootOfUnity.of(0, 1),
    (-1, 0): RootOfUnity.of(1, 2),
}


class EllipticFactor:
    """One elliptic factor E = C/(Z + tau*Z) with basis (1, tau)."""

    __slots__ = ("kind", "label")

    def __init__(self, kind: str, label: str = ""):
        if kind not in (GENERIC, GAUSS, EISENSTEIN):
            raise ValueError(f"unknown factor kind {kind!r}")
        self.kind = kind
        self.label = label

    @property
    def units(self) -> dict[tuple[int, int], RootOfUnity]:
        return {GENERIC: _GENERIC_UNITS, GAUSS: _GAUSS_UNITS, EISENSTEIN: _EISENSTEIN_UNITS}[
            self.kind
        ]

    def display_label(self) -> str:
        if self.label:
            return self.label
        return {GENERIC: "E_tau", GAUSS: "E_i", EISENSTEIN: "E_zeta3"}[self.kind]


def factor_automorphism_matrix(f: EllipticFactor, zeta: RootOfUnity):
    """2x2 integer matrix of multiplication by zeta on the basis (1, tau)."""
    for (a, b), unit in f.units.items():
        if unit == zeta:
            if f.kind == GENERIC:
                return ((a, 0), (0, a))
            if f.kind == GAUSS:
                # mult by a + b*i on basis (1, i)
                return ((a, -b), (b, a))
            # mult by a + b*zeta3 on basis (1, zeta3); zeta3^2 = -1 - zeta3
            return ((a, -b), (b, a - b))
    raise InvalidAutomorphism(f"{zeta} is not an automorphism of a {f.kind} factor")


def factor_block_eigenvalue(f: EllipticFactor, block) -> RootOfUnity:
    """The complex multiplier of an integer 2x2 block acting on the factor."""
    a, b = block[0][0], block[1][0]
    unit = f.units.get((a, b))
    if unit is None or factor_automorphism_matrix(f, unit) != tuple(map(tuple, block)):
        raise InvalidAutomorphism(f"block {block} is not an automorphism of a {f.kind} factor")
    return unit


class AlternatingForm:
    """Nondegenerate antisymmetric Gram matrix in lattice coordinates, over its lcm denominator."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise DegenerateForm("form matrix must be square")
        matrix = tuple(map(tuple, over_common_denominator(matrix)[1]))
        if any(matrix[i][j] != -matrix[j][i] for i in range(n) for j in range(n)):
            raise DegenerateForm("form matrix must be antisymmetric")
        if is_singular(matrix):
            raise DegenerateForm("form matrix is singular")
        self.matrix = matrix

    def restricted_to(self, basis_columns) -> tuple[tuple[int, ...], ...]:
        """Gram matrix B^T E B for the given integer basis columns."""
        return mat_mul(mat_mul(basis_columns, self.matrix), transpose(basis_columns))

    def is_invariant_under(self, m) -> bool:
        return mat_mul(mat_mul(transpose(m), self.matrix), m) == self.matrix


class TorusDatum:
    """A = V/Lambda, ``lattice`` = Lambda in product coordinates; in lattice coordinates Z^rank.

    Column i of ``lam_basis_inv`` is the coordinates of e_i in the basis of
    Lambda, integral because Lambda contains Z^rank.  Raw data use Z^rank.
    A rational vector v = w / d is carried between the two coordinates as
    its integers w, by one integer product with ``lam_basis_inv`` or with
    Lambda's Hermite columns, and divided once at the end: by d, or by
    d * den for Lambda's columns over den.
    """

    __slots__ = ("rank", "lattice", "factors", "lam_basis_inv")

    def __init__(self, lattice: Sublattice, factors: tuple[EllipticFactor, ...] | None = None):
        rank = lattice.ambient_rank
        if factors is not None and 2 * len(factors) != rank:
            raise ValueError("factor count does not match rank")
        inv_cols = [lattice.coords_of(e) for e in identity(rank)]
        if not all(c is not None and vec_is_integral(c) for c in inv_cols):
            raise LatticeError("lattice must contain the product lattice Z^rank")
        self.rank = rank
        self.lattice = lattice
        self.factors = factors
        self.lam_basis_inv = transpose([tuple(map(int, c)) for c in inv_cols])

    @property
    def dim(self) -> int:
        return self.rank // 2

    def to_lattice_coords(self, v_product):
        d, (v,) = over_common_denominator((v_product,))
        return tuple(Fraction(x, d) for x in mat_vec(self.lam_basis_inv, v))

    def to_product_coords(self, v_lattice):
        d, (v,) = over_common_denominator((v_lattice,))
        d *= self.lattice.den
        return tuple(Fraction(x, d) for x in mat_vec(transpose(self.lattice.cols), v))

    @staticmethod
    def raw(rank: int) -> "TorusDatum":
        return TorusDatum(Sublattice.standard(rank))


def build_product_torus(factors, k_gens=()) -> TorusDatum:
    """Lambda = Z^2n + Z*k_gens over the product of the given elliptic factors."""
    factors = tuple(factors)
    rank = 2 * len(factors)
    gens = tuple(map(tuple, k_gens))
    for g in gens:
        if len(g) != rank:
            raise ValueError("k generator length must be 2 * number of factors")
    return TorusDatum(Sublattice.from_rat_columns(rank, identity(rank) + gens), factors)


def standard_form(t: TorusDatum) -> AlternatingForm:
    """Product symplectic form, expressed in lattice coordinates, as C^T J C.

    On each factor's basis (1, tau) the form is J = [[0, 1], [-1, 0]]; it is
    integral on the product lattice and rational on Lambda, where it is
    C^T J C / den^2, so C^T J C is the form up to a positive scalar.
    """
    if t.factors is None:
        raise NoProvenance("raw lattices must supply an alternating form explicitly")
    n2 = t.rank
    j = [[0] * n2 for _ in range(n2)]
    for i in range(0, n2, 2):
        j[i][i + 1] = 1
        j[i + 1][i] = -1
    cols = t.lattice.cols
    return AlternatingForm(mat_mul(mat_mul(cols, j), transpose(cols)))


def factor_plane_columns(t: TorusDatum, indices) -> tuple[tuple[int, ...], ...]:
    """The factors' plane unit vectors in lattice coordinates: columns of lam_basis_inv."""
    inv_cols = transpose(t.lam_basis_inv)
    return tuple(inv_cols[j] for i in indices for j in (2 * i, 2 * i + 1))


def identify_factor_subspace(t: TorusDatum, sub: Sublattice) -> tuple[int, ...] | None:
    """Factor indices whose coordinate planes exactly span the sublattice, if any.

    The sublattice, in lattice coordinates, must equal the lattice of
    ``factor_plane_columns`` on its support, the factors where it is nonzero
    in product coordinates; so entries like "A_1 = E_tau x E_i" are recognized.
    """
    if t.factors is None:
        return None
    support = {
        j // 2 for b in sub.basis_vectors() for j, x in enumerate(t.to_product_coords(b)) if x
    }
    indices = tuple(sorted(support))
    planes = Sublattice.from_int_columns(t.rank, factor_plane_columns(t, indices))
    return indices if planes == sub else None
